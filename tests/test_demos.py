"""Every script in demos/ runs to completion against the current API."""

import runpy
import tempfile
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(script, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))  # demo 04's mkdtemp
    runpy.run_path(str(script), run_name="__main__")
    out = capsys.readouterr()
    assert out.out
    assert "error" not in out.err
