"""Output checks, input fingerprints and the reference values they compare to.

Every check raises :class:`CheckFailed` with a message that says what was
wrong and where. The checks use their own arithmetic, not the program's,
except that covariances must also convert through the program's
``params_from_cov``, which is what the CLI emits.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

HORIZON = 25
STEP_5S = 25  # future step at 5 s with dt = 0.2 s

# Values at the default seed (0) and full size. A program change that moves
# one of them has changed the workload's inputs or its numerical results.
REFERENCE = {
    "refine-batch": {
        "rmse_5s_m": 2.3542474834710543,
        "inputs_sha256": "63a67082142c2c39015c71de2573a3ef550d63466734b41f43f635baa8268a96",
    },
    "online-refine": {
        "rmse_5s_m": 8.885303923964758,
        "inputs_sha256": "d1385f3ac78d32c0943f3eb1eaf0a197506d1ff851428e50bc8c07c1f03c1fcc",
    },
    "cli-pipeline": {
        "rmse_5s_m": 1.818956,
        "inputs_sha256": "7e3cfc2a95892dfac35b82e2de0a09aef24f3ba90be293449a7e56842cf652c8",
    },
}
RMSE_TOL = 1e-6  # m; the CLI writes 6 decimals, later engines may reorder sums


class CheckFailed(Exception):
    """An output of the program is wrong."""


def check_estimates(estimates, horizon: int, params_from_cov, where: str) -> np.ndarray:
    """Check one rollout's estimates; return its (horizon, 2) means."""
    if len(estimates) != horizon:
        raise CheckFailed(f"{where}: {len(estimates)} estimates, expected {horizon}")
    means = np.empty((horizon, 2))
    for k, est in enumerate(estimates):
        mean = np.asarray(est.mean, dtype=float)
        if mean.shape != (2,) or not np.all(np.isfinite(mean)):
            raise CheckFailed(f"{where}: step {k + 1}: mean {mean!r} is not a finite 2-vector")
        c = est.cov
        if not all(math.isfinite(v) for v in (c.sxx, c.sxy, c.syy)):
            raise CheckFailed(f"{where}: step {k + 1}: covariance is not finite")
        if c.sxx <= 0.0 or c.syy <= 0.0 or c.sxx * c.syy - c.sxy * c.sxy <= 0.0:
            raise CheckFailed(f"{where}: step {k + 1}: covariance "
                              f"({c.sxx}, {c.sxy}, {c.syy}) is not positive definite")
        try:
            sigmas = params_from_cov(c)
        except ValueError as exc:
            raise CheckFailed(f"{where}: step {k + 1}: params_from_cov: {exc}") from None
        check_sigmas(sigmas, f"{where}: step {k + 1}")
        means[k] = mean
    return means


def check_sigmas(sigmas, where: str) -> None:
    sx, sy, rho = (float(v) for v in sigmas)
    if not (math.isfinite(sx) and math.isfinite(sy) and math.isfinite(rho)):
        raise CheckFailed(f"{where}: sigmas {sigmas} are not finite")
    if sx <= 0.0 or sy <= 0.0 or not abs(rho) < 1.0:
        raise CheckFailed(f"{where}: sigmas {sigmas} are not a valid Gaussian")


def rmse_per_step(means: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """RMSE over segments of the 2-D error at each future step."""
    sq = ((np.asarray(means) - np.asarray(truth)) ** 2).sum(axis=2)
    return np.sqrt(sq.mean(axis=0))


def read_segments_jsonl(path: str) -> tuple[list[str], np.ndarray]:
    """Segment ids and (N, T, 2) futures of a dataset JSONL file."""
    ids, futures = [], []
    with open(path) as fh:
        for line in fh:
            obj = json.loads(line)
            ids.append(obj["segment_id"])
            futures.append(obj["future"])
    return ids, np.asarray(futures, dtype=float).reshape(len(ids), -1, 2)


def check_predictions_file(path: str, segment_ids: list[str], horizon: int) -> np.ndarray:
    """Check a ``predict`` output file; return its (N, horizon, 2) means."""
    means = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            where = f"{path}: line {lineno}"
            obj = json.loads(line)
            if lineno > len(segment_ids) or obj["segment_id"] != segment_ids[lineno - 1]:
                raise CheckFailed(f"{where}: segment id {obj['segment_id']!r} out of order")
            m = np.asarray(obj["means"], dtype=float)
            if m.shape != (horizon, 2) or not np.all(np.isfinite(m)):
                raise CheckFailed(f"{where}: means are not a finite ({horizon}, 2) array")
            sigmas = obj["sigmas"]
            if len(sigmas) != horizon:
                raise CheckFailed(f"{where}: {len(sigmas)} sigma triples, expected {horizon}")
            for k, triple in enumerate(sigmas, start=1):
                check_sigmas(triple, f"{where}: step {k}")
            means.append(m)
    if len(means) != len(segment_ids):
        raise CheckFailed(f"{path}: {len(means)} predictions for {len(segment_ids)} segments")
    return np.asarray(means)


def read_eval_rmse_5s(path: str) -> float:
    with open(path) as fh:
        header, row = (line.rstrip("\n").split(",") for line in fh.readlines()[:2])
    return float(row[header.index("rmse_5s")])


def fingerprint(datasets=(), csv_hashes=()) -> str:
    """One sha256 over generated datasets' arrays and CSV file hashes."""
    digest = hashlib.sha256()
    for seg in (seg for ds in datasets for seg in ds.segments):
        digest.update(seg.segment_id.encode())
        digest.update(np.ascontiguousarray(seg.history, dtype="<f8").tobytes())
        digest.update(np.ascontiguousarray(seg.future, dtype="<f8").tobytes())
    for h in csv_hashes:
        digest.update(h.encode())
    return digest.hexdigest()


def check_reference(workload: str, key: str, value, tol: float | None = None) -> None:
    expected = REFERENCE[workload][key]
    if tol is None:
        ok = value == expected
    else:
        ok = abs(value - expected) <= tol
    if not ok:
        raise CheckFailed(f"{workload}: {key} is {value!r} at the default seed, "
                          f"the recorded reference is {expected!r}")
