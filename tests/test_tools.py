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
    # 91 outputs (30 CLI stdouts, 30 CLI files, 4 edited model files, 18 failing commands'
    # exit codes and stderrs, 2 rounding files and 7 help texts) and 808 fitted tables
    assert len(set(names)) == len(names) == 899
    assert sum(name.startswith("stdout ") for name in names) == 30
    assert sum(name.startswith("error ") for name in names) == 18
    assert sum(name.endswith((".jsonl", ".json", ".csv")) for name in names) == 36
    assert {"rounding.jsonl", "rounding_preds.jsonl", "model_ar_dt01.json",
            "model_ar_anchor30.json", "model_cv_ar_weights.json",
            "model_ar_backbone_list.json"} <= set(names)
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


def commit_package(root: Path) -> None:
    """A git repository at ``root`` whose one commit holds a two-module package."""
    package = root / "src" / "trajrefine"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text('"""Docstring."""\n\nVALUE = 1\n', encoding="utf-8")
    (package / "thing.py").write_text(MODULE, encoding="utf-8")
    for args in (["init", "-q"], ["add", "-A"], ["-c", "user.name=t", "-c", "user.email=t@t",
                                                  "commit", "-q", "-m", "package"]):
        subprocess.run(["git", *args], cwd=root, check=True, capture_output=True)


def test_code_lines_against_an_equal_base_change_nothing(tmp_path, monkeypatch, capsys):
    commit_package(tmp_path)
    monkeypatch.setattr(code_lines, "ROOT", tmp_path)
    assert code_lines.main(["--base", "HEAD"]) == 0
    header, *rows, total, against = capsys.readouterr().out.splitlines()
    assert header.split() == ["module", "lines", "code", "lines+-", "code+-"]
    assert [row.split()[0] for row in rows] == ["__init__.py", "thing.py"]
    assert total.split() == ["total", "30", "13", "+0", "+0"]
    assert all(row.split()[3:] == ["+0", "+0"] for row in rows)
    assert against == "change against HEAD"


def test_code_lines_reject_a_base_git_cannot_resolve(tmp_path, monkeypatch, capsys):
    commit_package(tmp_path)
    monkeypatch.setattr(code_lines, "ROOT", tmp_path)
    assert code_lines.main(["--base", "no-such-rev"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: git cannot resolve 'no-such-rev' to a commit\n"
