"""Run a fixed trajrefine CLI script and print a sha256 of every output.

The script generates lane-change and turn corpora, ingests
``tests/data/ngsim_tiny.csv``, fits, predicts (refine on and off) and
evaluates cv, ca and ar, and runs one ablation, in a temporary directory.
Each output file and each command's standard output gets one line
``<sha256>  <name>``. With ``--base REV`` the same script also runs on the
package of git revision REV (unpacked with ``git archive``) and the outputs
that differ are listed; the exit code stays 0 either way, since a change may
alter outputs on purpose. Exit code 1 means a command failed.

    python tools/cli_digest.py [--base REV]
"""

from __future__ import annotations

import argparse
import hashlib
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NGSIM_CSV = ROOT / "tests" / "data" / "ngsim_tiny.csv"
BACKBONES = ("cv", "ca", "ar")


def script() -> list[tuple[str, ...]]:
    """The CLI commands, in order; relative paths are files in the run directory."""
    commands = [
        ("gen-synth", "--scenario", "lane-change", "--n", "300", "--noise", "0.2",
         "--seed", "1", "--out", "train.jsonl"),
        ("gen-synth", "--scenario", "lane-change", "--n", "60", "--noise", "0.2",
         "--seed", "2", "--out", "test.jsonl"),
        ("gen-synth", "--scenario", "turn", "--n", "60", "--noise", "0.2",
         "--seed", "3", "--out", "turn.jsonl"),
        ("ingest-ngsim", "--csv", str(NGSIM_CSV), "--out", "ngsim.jsonl", "--stride", "2",
         "--tau", "5", "--horizon", "5"),
    ]
    for bb in BACKBONES:
        commands.append(("fit", "--train", "train.jsonl", "--predictor", bb,
                         "--out", f"model_{bb}.json"))
        for refine in ("on", "off"):
            preds = f"preds_{bb}_{refine}.jsonl"
            commands += [
                ("predict", "--model", f"model_{bb}.json", "--data", "test.jsonl",
                 "--refine", refine, "--out", preds),
                ("eval", "--predictions", preds, "--data", "test.jsonl", "--backbone", bb,
                 "--out", f"eval_{bb}_{refine}.csv"),
            ]
    commands.append(("ablate", "--train", "train.jsonl", "--test", "turn.jsonl",
                     "--predictors", ",".join(BACKBONES), "--out", "ablate.csv"))
    return commands


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_script(src: Path, workdir: Path) -> dict[str, str]:
    """Digests of the script's outputs with the package under ``src``, run in workdir."""
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    digests = {}
    for i, command in enumerate(script(), start=1):
        done = subprocess.run([sys.executable, "-m", "trajrefine.cli", *command], cwd=workdir,
                              env=env, capture_output=True)
        if done.returncode != 0:
            raise RuntimeError(f"{src}: {' '.join(command)} exited {done.returncode}: "
                               f"{done.stderr.decode(errors='replace').strip()}")
        digests[f"stdout {i:02d} {command[0]}"] = sha256(done.stdout)
    for path in sorted(workdir.iterdir()):
        digests[path.name] = sha256(path.read_bytes())
    return digests


def unpack(rev: str, dest: Path) -> Path:
    """The ``src`` directory of git revision rev, unpacked under dest."""
    tar = subprocess.run(["git", "archive", rev, "src"], cwd=ROOT, capture_output=True,
                         check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return dest / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", help="git revision whose outputs to compare with")
    base = parser.parse_args(argv).base
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (now_dir := tmp / "now").mkdir()
        try:
            now = run_script(ROOT / "src", now_dir)
            if base:
                (was_dir := tmp / "base").mkdir()
                was = run_script(unpack(base, tmp / "tree"), was_dir)
        except (RuntimeError, subprocess.CalledProcessError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    for name, digest in now.items():
        print(f"{digest}  {name}")
    if base:
        differ = [name for name in {**was, **now} if was.get(name) != now.get(name)]
        print(f"differ from {base[:12]}: {', '.join(differ) or 'none'} "
              f"({len(differ)} of {len(now)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
