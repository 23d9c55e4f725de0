"""Print a sha256 of every output of a fixed CLI script and every table of a fixed fit grid.

The script runs every subcommand, with each model-file field at a non-default
value in one fit; then a fixed list of commands that must fail, each with a
protocol mismatch, a short future, a model file holding a field its backbone
does not take or a window or lag out of range, on relative paths; then the
tree's own dataset and predictions writers write fixed values at the 6-decimal
rounding boundaries; the grid makes 437 fits of cv, ca, ar and goal models.
Each command's stdout, output file and fitted table, each failing command's
exit code and stderr, and the ``--help`` text of the top level and of each
subcommand, gets one line ``<sha256>  <name>``.
A tree runs in one child process, with its ``src/`` on PYTHONPATH, BLAS on
one thread and a 100-column terminal, to which argparse wraps its help text.
With ``--base REV`` the ``src/`` of git revision REV runs too, and
every output that differs is listed, a table with its largest relative
difference. Exit code 1 means a command failed or REV could not be unpacked,
else 0: a change may alter outputs on purpose.

    python tools/digest.py [--base REV]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import pickle
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
NGSIM_CSV = ROOT / "tests" / "data" / "ngsim_tiny.csv"
BACKBONES = ("cv", "ca", "ar")
# each backbone's second fit: the model flags its file is to show
CUSTOM_FITS = {
    "cv": ("--window", "3", "--val", "turn.jsonl"),
    "ca": ("--window", "4", "--anchors", "3,7,20,25", "--rotate", "off"),
    "ar": ("--lag", "3", "--ridge", "0.01", "--val", "turn.jsonl"),
}
SCENARIOS = ("cv", "ca", "lane_change", "turn")
N_TRAIN, N_VAL = 2000, 500
FIT_BACKBONES = {"cv_w2": ("cv", {"window": 2}), "cv_w7": ("cv", {"window": 7}),
                 "ca_w3": ("ca", {"window": 3}), "ca_w5": ("ca", {"window": 5}),
                 "ar_lag1": ("ar", {"lag": 1}), "ar_lag3": ("ar", {"lag": 3}),
                 "ar_lag5": ("ar", {"lag": 5})}
ANCHOR_SETS = {"sparse": (5, 10, 15, 20, 25), "dense": tuple(range(1, 26)),
               "irregular": (3, 17), "last": (25,), "first": (1,)}
# the child: this module, imported from tools/ with the tree's package first on the path
CHILD = "import sys, digest; digest.dump(sys.argv[1])"


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
    for bb, flags in CUSTOM_FITS.items():
        commands += [
            ("fit", "--train", "train.jsonl", "--predictor", bb, *flags,
             "--out", f"model_{bb}_custom.json"),
            ("predict", "--model", f"model_{bb}_custom.json", "--data", "test.jsonl",
             "--out", f"preds_{bb}_custom.jsonl"),
        ]
    commands.append(("ablate", "--train", "train.jsonl", "--test", "turn.jsonl",
                     "--predictors", ",".join(BACKBONES), "--out", "ablate.csv"))
    # criterion 5's goal covariance scale: refined sigmas below 5e-7 m, written up to 1e-6
    commands += [
        ("predict", "--model", "model_ar.json", "--data", "test.jsonl", "--goal-cov-scale",
         "1e-12", "--out", "preds_ar_tiny.jsonl"),
        ("eval", "--predictions", "preds_ar_tiny.jsonl", "--data", "test.jsonl",
         "--backbone", "ar", "--out", "eval_ar_tiny.csv"),
    ]
    # the inputs of failing(): a dataset of another dt and one of a shorter future
    return commands + [
        ("gen-synth", "--scenario", "lane-change", "--n", "20", "--noise", "0.2",
         "--seed", "4", "--dt", "0.1", "--out", "dt01.jsonl"),
        ("gen-synth", "--scenario", "lane-change", "--n", "20", "--noise", "0.2",
         "--seed", "5", "--horizon", "10", "--out", "short.jsonl"),
    ]


# a model file of the script with one field edited, each a file load_model must reject
EDITED_MODELS = {
    "model_ar_dt01.json": ("model_ar.json", "protocol", "dt", 0.1),
    "model_ar_anchor30.json": ("model_ar.json", "goal_model", "anchor_steps", [5, 10, 15, 20, 30]),
    "model_cv_ar_weights.json": ("model_cv.json", "predictor", "ar_weights", [[float("nan"), 1.0]]),
}
# the subcommands whose --help text is hashed, after the top level's
SUBCOMMANDS = ("gen-synth", "ingest-ngsim", "fit", "predict", "eval", "ablate")


def failing() -> list[tuple[str, ...]]:
    """Commands after the script that exit non-zero: each of the protocol and
    future-length rules the CLI can break, on the files the script and
    EDITED_MODELS write, then fits of a window or lag out of range for the
    backbone, then an ablation naming an unknown backbone; none writes its
    --out file, and each of the last seven names its own, so that a tree on
    which one succeeds keeps what it wrote apart."""
    fit = ("fit", "--train", "train.jsonl", "--out", "failed.json")
    return [
        (*fit, "--val", "dt01.jsonl"),
        (*fit, "--val", "short.jsonl"),
        (*fit, "--val", "short.jsonl", "--predictor", "cv", "--anchors", "5,10"),
        (*fit, "--anchors", "5,30"),
        ("predict", "--model", "model_ar.json", "--data", "dt01.jsonl", "--out", "failed.jsonl"),
        ("ablate", "--train", "train.jsonl", "--test", "dt01.jsonl", "--out", "failed.csv"),
        *(("predict", "--model", name, "--data", "test.jsonl", "--out", f"failed_{name}l")
          for name in EDITED_MODELS),
        *(("fit", "--train", "train.jsonl", "--predictor", bb, f"--{key}", value,
           "--out", f"failed_{bb}_{key}{value}.json")
          for bb, key, value in (("ca", "lag", "-5"), ("ca", "lag", "0"), ("ar", "window", "1"))),
        ("ablate", "--train", "train.jsonl", "--test", "turn.jsonl", "--predictors", "cv,foo",
         "--out", "failed_ablate_foo.csv"),
    ]


def run_cli(command) -> tuple[int, str, str]:
    """The exit code, stdout and stderr of one CLI command, run in this process."""
    from trajrefine.cli import main  # the child's tree

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(list(command))
        except SystemExit as exc:  # argparse rejected the command
            code = exc.code
    return code, stdout.getvalue(), stderr.getvalue()


def write_edited_models() -> None:
    """Write each of EDITED_MODELS: its model file with one field replaced."""
    for name, (source, section, key, value) in EDITED_MODELS.items():
        doc = json.loads(Path(source).read_text(encoding="utf-8"))
        doc[section][key] = value
        Path(name).write_text(json.dumps(doc) + "\n", encoding="utf-8")


def rounding_values() -> np.ndarray:
    """Near-ties (n + 0.5) / 1e6 and on-grid n / 1e6 over 1-15 decades and exact
    ties (2m + 1) / 128 over 1-10, each with its neighbours 1 and 2 ulps either
    side, then 20 values of 1e9 and more in magnitude: 3120 values where
    6-decimal rounding is hardest."""
    rng = np.random.default_rng(6)
    n = np.concatenate([rng.integers(-10**k, 10**k, 20) for k in range(1, 16)])
    m = np.concatenate([rng.integers(-10**k, 10**k, 2) for k in range(1, 11)])
    values = [np.concatenate([(n + 0.5) / 1e6, n / 1e6, (2 * m + 1) / 128])]
    for direction in (np.inf, -np.inf):
        values += [np.nextafter(values[0], direction)]
        values += [np.nextafter(values[-1], direction)]
    large = rng.choice([-1.0, 1.0], 16) * 10 ** rng.uniform(9, 15, 16)
    return np.concatenate([*values, [1e9, -1e9, 2.0**52 / 1e6, -(2.0**53) / 1e6], large])


def write_rounding_files() -> None:
    """Write the rounding values with the tree's own writers: as the coordinates
    of a dataset (rounding.jsonl), and as the means and, made valid, as the
    sigma triples of predictions (rounding_preds.jsonl)."""
    from trajrefine import data  # the child's tree

    pairs = rounding_values().reshape(-1, 10, 2)
    data.write_jsonl(data.Dataset([data.Segment(f"r{i}", i, 0.2, p[:5], p[5:])
                                   for i, p in enumerate(pairs)], 0.2, 4, 5), "rounding.jsonl")
    sigma = np.abs(pairs) + (pairs == 0.0)  # > 0
    rho = np.fmod(pairs[::-1, :, :1], 1.0)  # |rho| < 1, keeping the last 6 decimals' ties
    data.write_predictions("rounding_preds.jsonl", [f"r{i}" for i in range(len(pairs))], pairs,
                           np.concatenate([sigma, rho], axis=2), "refined")


def tables() -> dict:
    """Every fitted table of the grid, by name."""
    from trajrefine import data, goals, predictors  # the child's tree

    fits = {}
    for scenario, noise in itertools.product(SCENARIOS, (0.0, 0.2)):
        seed = 10 * SCENARIOS.index(scenario) + int(noise > 0)
        train = data.gen_synthetic(scenario, N_TRAIN, noise, seed=seed)
        val_set = data.gen_synthetic(scenario, N_VAL, noise, seed=seed + 100)
        for val_name, val in (("noval", None), ("val", val_set)):
            case = f"{scenario}/noise{noise}/{val_name}"
            for name, (bb, kw) in FIT_BACKBONES.items():
                fits[f"{case}/{name}"] = predictors.fit_predictor(bb, train, val, **kw)
            for (anchors, steps), rotate, ridge in itertools.product(
                    ANCHOR_SETS.items(), (True, False), (1e-6, 1e3)):
                fits[f"{case}/goal_{anchors}_rotate{int(rotate)}_ridge{ridge}"] = (
                    goals.fit_goal_model(train, steps, ridge, val=val, rotate=rotate))
    # one design row per segment (lag = tau, one-step future), and a two-interval history
    short = data.gen_synthetic("turn", 300, 0.2, seed=90, tau=3, horizon=1)
    brief = data.gen_synthetic("ca", 300, 0.2, seed=91, tau=2, horizon=4)
    fits["short/ar_lag3"] = predictors.fit_predictor("ar", short, lag=3)
    fits["short/cv_w2"] = predictors.fit_predictor("cv", short)
    fits["short/goal_first"] = goals.fit_goal_model(short, (1,))
    fits["brief/ca_w3"] = predictors.fit_predictor("ca", brief, brief, window=3)
    fits["brief/goal_2_4_rotate0"] = goals.fit_goal_model(brief, (2, 4), rotate=False)
    return {f"{name}/{field}": np.stack(table) for name, params in fits.items()
            for field in ("step_covs", "ar_weights", "weights", "residual_covs")
            if (table := getattr(params, field, None)) is not None}


def dump(path: str) -> None:
    """Run the script in the working directory, then the failing commands and
    each --help, then fit the grid, and pickle to path every command's stdout
    and output file, every failing command's exit code and stderr and every
    help text as bytes and every fitted table as an array, by name; exit with a
    message if a command of the script or a --help fails."""
    out = {}
    for i, command in enumerate(script(), start=1):
        code, stdout, stderr = run_cli(command)
        if code != 0:
            sys.exit(f"error: {' '.join(command)} exited {code}: {stderr.strip()}")
        out[f"stdout {i:02d} {command[0]}"] = stdout.encode()
    write_edited_models()
    for i, command in enumerate(failing(), start=1):
        code, _, stderr = run_cli(command)
        out[f"error {i:02d} {command[0]}"] = f"exit {code}\n{stderr}".encode()
    for command in ((), *zip(SUBCOMMANDS)):  # the top level's, then each subcommand's
        name = " ".join(("trajrefine", *command))
        code, stdout, stderr = run_cli((*command, "--help"))
        if code != 0:
            sys.exit(f"error: {name} --help exited {code}: {stderr.strip()}")
        out[f"help {name}"] = stdout.encode()
    write_rounding_files()
    out |= {file.name: file.read_bytes() for file in sorted(Path().iterdir())}
    with open(path, "wb") as fh:
        pickle.dump(out | tables(), fh)


def outputs(tmp: Path, name: str, rev: str | None = None) -> dict | None:
    """The outputs of this tree's package, or of git revision rev's, from one
    child process run in a new directory tmp/name; None if anything failed."""
    src = ROOT / "src"
    if rev:
        tar = subprocess.run(["git", "archive", rev, "src"], cwd=ROOT, stdout=subprocess.PIPE)
        if tar.returncode:
            return None
        with tarfile.open(fileobj=io.BytesIO(tar.stdout)) as archive:
            archive.extractall(tmp / "tree", filter="data")
        src = tmp / "tree" / "src"
    (workdir := tmp / name).mkdir()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(src), str(ROOT / "tools"))),
               PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", COLUMNS="100")
    if subprocess.run([sys.executable, "-c", CHILD, str(tmp / f"{name}.pickle")],
                      cwd=workdir, env=env).returncode:
        return None
    with open(tmp / f"{name}.pickle", "rb") as fh:  # written by the child above
        return pickle.load(fh)


def sha256(value) -> str:
    return hashlib.sha256(value if isinstance(value, bytes)
                          else np.ascontiguousarray(value).tobytes()).hexdigest()


def largest_relative_difference(a: np.ndarray | None, b: np.ndarray | None) -> float:
    if a is None or b is None or a.shape != b.shape:
        return float("inf")
    return float(np.max(np.abs(a - b) / np.maximum(np.abs(b), np.finfo(float).tiny)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", help="git revision whose outputs to compare with")
    base = parser.parse_args(argv).base
    with tempfile.TemporaryDirectory() as tmp:
        now = outputs(Path(tmp), "now")
        was = outputs(Path(tmp), "base", base) if base and now else {}
    if now is None or was is None:
        return 1
    now_digests, was_digests = ({name: sha256(v) for name, v in d.items()} for d in (now, was))
    for name, digest in now_digests.items():
        print(f"{digest}  {name}")
    if base:
        differ = [name for name in {**was_digests, **now_digests}
                  if was_digests.get(name) != now_digests.get(name)]
        for name in differ:
            a, b = now.get(name), was.get(name)
            rel = ("" if bytes in (type(a), type(b)) else
                   f" (largest relative difference {largest_relative_difference(a, b):.3e})")
            print(f"differs: {name}{rel}")
        print(f"differ from {base[:12]}: {len(differ)} of {len(now)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
