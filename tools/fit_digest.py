"""Fit a fixed grid of models with the library and print a sha256 of every fitted table.

The grid covers the four synthetic scenarios at noise 0 and 0.2, each fitted
without and with a validation split; on each, the backbones cv (window 2 and
7), ca (window 3 and 5) and ar (lag 1, 3 and 5), and goal models over five
anchor sets (sparse, dense, (3, 17), (25,) and (1,)), with the ego frame
rotated and not, at ridge 1e-6 and 1e3; plus five fits on short histories
and futures (437 fits in all). Each fitted table (``step_covs``,
``ar_weights``, goal ``weights`` and ``residual_covs``) gets one line
``<sha256>  <name>``. With ``--base REV`` the same grid is also fitted with
the package of git revision REV (unpacked with ``git archive``) and every
table that differs is listed with its largest relative difference; the exit
code stays 0 either way, since a change may alter fits on purpose.

    python tools/fit_digest.py [--base REV]
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

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ("cv", "ca", "lane_change", "turn")
N_TRAIN, N_VAL = 2000, 500
BACKBONES = {"cv_w2": ("cv", {"window": 2}), "cv_w7": ("cv", {"window": 7}),
             "ca_w3": ("ca", {"window": 3}), "ca_w5": ("ca", {"window": 5}),
             "ar_lag1": ("ar", {"lag": 1}), "ar_lag3": ("ar", {"lag": 3}),
             "ar_lag5": ("ar", {"lag": 5})}
ANCHOR_SETS = {"sparse": (5, 10, 15, 20, 25), "dense": tuple(range(1, 26)),
               "irregular": (3, 17), "last": (25,), "first": (1,)}


def grid():
    """(name, fit) pairs; fit() returns the fitted params."""
    # imported here: only the subprocesses fit, each with its own package on PYTHONPATH
    from trajrefine import data, goals, predictors

    fits = []
    for scenario in SCENARIOS:
        for noise in (0.0, 0.2):
            seed = 10 * SCENARIOS.index(scenario) + int(noise > 0)
            train = data.gen_synthetic(scenario, N_TRAIN, noise, seed=seed)
            val_set = data.gen_synthetic(scenario, N_VAL, noise, seed=seed + 100)
            for val_name, val in (("noval", None), ("val", val_set)):
                case = f"{scenario}/noise{noise}/{val_name}"
                for name, (bb, kw) in BACKBONES.items():
                    fits.append((f"{case}/{name}", lambda t=train, v=val, bb=bb, kw=kw:
                                 predictors.fit_predictor(bb, t, v, **kw)))
                for anchors, steps in ANCHOR_SETS.items():
                    for rotate in (True, False):
                        for ridge in (1e-6, 1e3):
                            fits.append((f"{case}/goal_{anchors}_rotate{int(rotate)}_ridge{ridge}",
                                         lambda t=train, v=val, s=steps, r=ridge, rot=rotate:
                                         goals.fit_goal_model(t, s, r, val=v, rotate=rot)))
    # one design row per segment (lag = tau, one-step future), and a two-interval history
    short = data.gen_synthetic("turn", 300, 0.2, seed=90, tau=3, horizon=1)
    brief = data.gen_synthetic("ca", 300, 0.2, seed=91, tau=2, horizon=4)
    fits += [
        ("short/ar_lag3", lambda: predictors.fit_predictor("ar", short, lag=3)),
        ("short/cv_w2", lambda: predictors.fit_predictor("cv", short)),
        ("short/goal_first", lambda: goals.fit_goal_model(short, (1,))),
        ("brief/ca_w3", lambda: predictors.fit_predictor("ca", brief, brief, window=3)),
        ("brief/goal_2_4_rotate0", lambda: goals.fit_goal_model(brief, (2, 4), rotate=False)),
    ]
    return fits


def tables() -> dict[str, np.ndarray]:
    """Every fitted table of the grid, by name."""
    out = {}
    for name, fit in grid():
        params = fit()
        if hasattr(params, "step_covs"):
            out[f"{name}/step_covs"] = params.step_covs
            if params.ar_weights is not None:
                out[f"{name}/ar_weights"] = params.ar_weights
        else:
            out[f"{name}/weights"] = np.stack(params.weights)
            out[f"{name}/residual_covs"] = params.residual_covs
    return out


def fitted(src: Path, dump: Path) -> dict[str, np.ndarray]:
    """The grid's tables fitted with the package under ``src``, in a subprocess
    that saves them to ``dump``."""
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    subprocess.run([sys.executable, __file__, "--dump", str(dump)], env=env, check=True)
    with np.load(dump) as arrays:
        return {name: arrays[name] for name in arrays.files}


def unpack(rev: str, dest: Path) -> Path:
    """The ``src`` directory of git revision rev, unpacked under dest."""
    tar = subprocess.run(["git", "archive", rev, "src"], cwd=ROOT, capture_output=True,
                         check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return dest / "src"


def largest_relative_difference(a: np.ndarray, b: np.ndarray) -> float:
    if a.shape != b.shape:
        return float("inf")
    return float(np.max(np.abs(a - b) / np.maximum(np.abs(b), np.finfo(float).tiny)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", help="git revision whose fits to compare with")
    parser.add_argument("--dump", help=argparse.SUPPRESS)  # the subprocess's output file
    args = parser.parse_args(argv)
    if args.dump:
        np.savez(args.dump, **tables())
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        try:
            now = fitted(ROOT / "src", tmp / "now.npz")
            was = (fitted(unpack(args.base, tmp / "tree"), tmp / "base.npz") if args.base
                   else None)
        except subprocess.CalledProcessError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    for name, table in now.items():
        print(f"{hashlib.sha256(np.ascontiguousarray(table).tobytes()).hexdigest()}  {name}")
    if was is not None:
        differ = [name for name in {**was, **now}
                  if name not in was or name not in now
                  or was[name].tobytes() != now[name].tobytes()]
        for name in differ:
            rel = (largest_relative_difference(now[name], was[name])
                   if name in was and name in now else float("inf"))
            print(f"differs: {name} (largest relative difference {rel:.3e})")
        print(f"differ from {args.base[:12]}: {len(differ)} of {len(now)} tables")
    return 0


if __name__ == "__main__":
    sys.exit(main())
