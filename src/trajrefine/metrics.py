"""RMSE metrics and the vanilla-vs-refined ablation runner."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .data import Dataset, checked_positive, require_protocol
from .goals import GoalModelParams
from .predictors import PredictorParams, _measure_goals, _step, model_protocol, rollout_batch


@dataclass(frozen=True)
class Metrics:
    """Root mean squared error in meters, overall and by horizon.

    rmse_per_step[k-1] covers future step k; rmse_at_seconds holds the
    per-step values at the steps ``second_steps`` whose time k * dt is the
    whole second in ``seconds`` (steps 5, 10, ... at dt = 0.2 s). The
    identity rmse_overall^2 == mean(rmse_per_step^2) holds by construction.
    """

    rmse_overall: float
    rmse_per_step: np.ndarray
    rmse_at_seconds: np.ndarray
    second_steps: tuple[int, ...]
    seconds: tuple[int, ...]


def rmse(predictions, ground_truth: Dataset) -> Metrics:
    """RMSE of predicted means against a dataset's futures.

    predictions is an (N, T, 2) array or a list of per-segment (T, 2)
    arrays, ordered like ground_truth.segments. The squared error at a step
    is the full 2-D squared distance (x and y pooled), summed as dx^2 + dy^2
    on the two component planes rather than reduced over a 2-wide axis (the
    same bits, a fraction of the time). The truth is the dataset's cached
    read-only futures stack, so repeated calls do not restack it.
    """
    if not ground_truth.segments:
        raise ValueError("rmse needs at least one segment")
    preds = np.asarray(predictions, dtype=float)
    truth = ground_truth.futures()
    if preds.shape != truth.shape:
        raise ValueError(
            f"prediction shape {preds.shape} does not match ground truth "
            f"{truth.shape}"
        )
    d = preds - truth
    np.square(d, out=d)
    sq = d[..., 0] + d[..., 1]  # (N, T) squared distances
    per_step_mse = sq.mean(axis=0)
    overall = float(np.sqrt(per_step_mse.mean()))
    per_step = np.sqrt(per_step_mse)
    second_steps, seconds = _whole_seconds(float(ground_truth.dt), ground_truth.horizon)
    at_seconds = np.array([per_step[s - 1] for s in second_steps])
    return Metrics(overall, per_step, at_seconds, second_steps, seconds)


@lru_cache(maxsize=32)
def _whole_seconds(dt: float, horizon: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Steps k <= horizon whose k * dt is a whole second >= 1 (to 1e-9), and those seconds."""
    steps = tuple(k for k in range(1, horizon + 1)
                  if round(k * dt) >= 1 and abs(k * dt - round(k * dt)) <= 1e-9)
    return steps, tuple(round(k * dt) for k in steps)


@dataclass(frozen=True)
class AblationRow:
    backbone: str
    refined: bool
    metrics: Metrics


@dataclass(frozen=True)
class AblationReport:
    """Metrics per (backbone, refine on/off); an ablation has two rows per backbone."""

    rows: tuple[AblationRow, ...]

    def metrics_for(self, backbone: str, refined: bool) -> Metrics:
        for row in self.rows:
            if row.backbone == backbone and row.refined == refined:
                return row.metrics
        raise KeyError(f"no row for backbone={backbone!r} refined={refined}")

    def deltas(self, backbone: str) -> np.ndarray:
        """Per-second improvement (vanilla minus refined; positive is better)."""
        vanilla = self.metrics_for(backbone, False)
        refined = self.metrics_for(backbone, True)
        return vanilla.rmse_at_seconds - refined.rmse_at_seconds

    def to_csv(self) -> str:
        """One row per (backbone, refine) with the RMSEs at 6 dp. When the report
        has a refined row and every refined row has its vanilla row, each
        refined row also carries :meth:`deltas`."""
        on, off = ({r.backbone for r in self.rows if r.refined == flag} for flag in (True, False))
        seconds = max((r.metrics.seconds for r in self.rows), key=len)
        header = ["backbone", "refine", "rmse_overall"]
        header += [f"rmse_{s}s" for s in seconds]
        if deltas := bool(on) and on <= off:
            header += [f"delta_{s}s" for s in seconds]
        lines = [",".join(header)]
        for row in self.rows:
            cells = [row.backbone, "on" if row.refined else "off"]
            cells.append(f"{row.metrics.rmse_overall:.6f}")
            cells += [f"{v:.6f}" for v in row.metrics.rmse_at_seconds]
            if deltas and row.refined:
                cells += [f"{d:.6f}" for d in self.deltas(row.backbone)]
            elif deltas:
                cells += [""] * len(seconds)
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


def run_ablation(
    test: Dataset,
    models: dict[str, tuple[PredictorParams, GoalModelParams]],
    goal_cov_scale: float = 1.0,
) -> AblationReport:
    """Evaluate every fitted backbone with refinement off and on.

    Models must have been fitted on data disjoint from ``test``, and each
    pair's protocol (:func:`model_protocol`) must share the test dt and tau
    (:func:`require_protocol`), checked before the pair is rolled out. Segments
    are evaluated in dataset order, so the report is deterministic. The goal
    measurement depends on the goal model, the histories and goal_cov_scale alone,
    so it is made once per distinct goal model object and passed, as one
    value, to the steps of the backbones that use it; the report is the same
    as with one ``rollout_batch`` per backbone. goal_cov_scale is
    :func:`rollout_batch`'s, checked before any rollout.
    """
    scale = checked_positive("goal_cov_scale", goal_cov_scale)
    if not test.segments:
        raise ValueError("test set is empty")
    if not models:
        raise ValueError("no models to evaluate")
    histories, horizon = test.histories(), test.horizon
    measured, rows = {}, []
    for backbone in sorted(models):
        params, goal_params = models[backbone]
        require_protocol(vars(test), model_protocol(params, goal_params), ("dt", "tau"),
                         test.source or "test set", f"{backbone} models'")
        vanilla_means, _ = rollout_batch(params, histories, horizon)
        if goal_params not in measured:
            measured[goal_params] = _measure_goals(goal_params, histories, horizon, scale)
        refined_means, _ = _step(params, histories, horizon, measured[goal_params])
        rows.append(AblationRow(backbone, False, rmse(vanilla_means, test)))
        rows.append(AblationRow(backbone, True, rmse(refined_means, test)))
    return AblationReport(tuple(rows))
