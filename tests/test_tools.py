"""The repository's tools run on this tree."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_digest_prints_one_sha256_per_output_and_table():
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "digest.py")], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S.*", line) for line in lines)
    names = [line[66:] for line in lines]
    # 56 CLI outputs (28 stdouts, 28 files) and 808 fitted tables
    assert len(set(names)) == len(names) == 864
    assert sum(name.startswith("stdout ") for name in names) == 28
    assert sum("/" in name for name in names) == 808
