"""The repository's tools run on this tree."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_tool(name: str):
    """The module of ``tools/<name>.py``."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


code_lines = load_tool("code_lines")


def test_digest_prints_one_sha256_per_output_and_table():
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "digest.py")], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S.*", line) for line in lines)
    names = [line[66:] for line in lines]
    # 85 outputs (30 CLI stdouts, 30 CLI files, 3 edited model files, 13 failing commands'
    # exit codes and stderrs, 2 rounding files and 7 help texts) and 808 fitted tables
    assert len(set(names)) == len(names) == 893
    assert sum(name.startswith("stdout ") for name in names) == 30
    assert sum(name.startswith("error ") for name in names) == 13
    assert sum(name.endswith((".jsonl", ".json", ".csv")) for name in names) == 35
    assert {"rounding.jsonl", "rounding_preds.jsonl", "model_ar_dt01.json",
            "model_ar_anchor30.json", "model_cv_ar_weights.json"} <= set(names)
    assert [name for name in names if name.startswith("help ")] == [
        "help trajrefine", *(f"help trajrefine {command}" for command in
                             ("gen-synth", "ingest-ngsim", "fit", "predict", "eval", "ablate"))]
    assert sum("/" in name for name in names) == 808


# code lines 4, 7, 11, 13, 17-20, 23 and 25-27 of 27
MODULE = '''"""Module docstring,
over two lines."""

import os  # a comment after code


class Thing:
    """Class docstring."""

    # a comment-only line
    size = 1

    def method(self):
        """Method docstring,

        over three lines."""
        text = """not a docstring:
        a multi-line string"""
        return (text,
                os.sep)


async def run():
    """Async docstring."""
    return [
        1,
    ]
'''


def test_code_lines_skip_blanks_comments_and_docstrings():
    assert code_lines.counts(MODULE) == (27, 12)


def test_code_lines_print_each_module_and_their_total(capsys):
    assert code_lines.main([]) == 0
    header, *rows, total = capsys.readouterr().out.splitlines()
    assert header.split() == ["module", "lines", "code"]
    modules = sorted((ROOT / "src" / "trajrefine").glob("*.py"))
    assert [row.split()[0] for row in rows] == [path.name for path in modules]
    counts = [tuple(map(int, row.split()[1:])) for row in rows]
    assert counts == [code_lines.counts(path.read_text(encoding="utf-8")) for path in modules]
    assert total.split() == ["total", *map(str, map(sum, zip(*counts)))]
