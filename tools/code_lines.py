"""Count the lines and the code lines of each src/trajrefine module.

A code line is one that is not blank, not comment-only and not part of a
docstring. With ``--base REV`` each count is also given as its change
against the module at git revision REV; a module missing on one side
counts 0 there. Exit code 1 means git cannot resolve REV to a commit.

    python tools/code_lines.py [--base REV]
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/trajrefine"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}


def counts(text: str) -> tuple[int, int]:
    """(lines, code lines) of one module's source text."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - docstrings)


def git(*args: str) -> str:
    """Standard output of a git command run at the repository root; empty if it fails."""
    done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          encoding="utf-8")
    return done.stdout if done.returncode == 0 else ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", help="git revision to give each change against")
    base = parser.parse_args(argv).base
    if base and not git("rev-parse", "--verify", "--quiet", f"{base}^{{commit}}"):
        print(f"error: git cannot resolve {base!r} to a commit", file=sys.stderr)
        return 1
    names = {path.name for path in (ROOT / PACKAGE).glob("*.py")}
    if base:
        names |= {Path(p).name for p in git("ls-tree", "--name-only", f"{base}:{PACKAGE}").split()
                  if p.endswith(".py")}
    rows, totals = [], [0, 0, 0, 0]
    for name in sorted(names):
        path = ROOT / PACKAGE / name
        now = counts(path.read_text(encoding="utf-8")) if path.exists() else (0, 0)
        was = counts(git("show", f"{base}:{PACKAGE}/{name}")) if base else now
        row = (*now, now[0] - was[0], now[1] - was[1])
        rows.append((name, row))
        totals = [t + v for t, v in zip(totals, row)]
    print(f"{'module':<16}{'lines':>7}{'code':>7}" + (f"{'lines+-':>9}{'code+-':>8}" if base else ""))
    for name, row in [*rows, ("total", totals)]:
        print(f"{name:<16}{row[0]:>7}{row[1]:>7}" + (f"{row[2]:>+9}{row[3]:>+8}" if base else ""))
    if base:
        print(f"change against {base[:12]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
