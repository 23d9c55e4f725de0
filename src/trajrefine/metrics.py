"""RMSE metrics and the vanilla-vs-refined ablation runner."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .goals import GoalModelParams
from .predictors import PredictorParams, RefineConfig, rollout_batch


@dataclass(frozen=True)
class Metrics:
    """Root mean squared error in meters, overall and by horizon.

    rmse_per_step[k-1] covers future step k; rmse_at_seconds holds the
    per-step values at whole-second horizons (steps 5, 10, ... at
    dt = 0.2 s). The identity rmse_overall^2 == mean(rmse_per_step^2)
    holds by construction.
    """

    rmse_overall: float
    rmse_per_step: np.ndarray
    rmse_at_seconds: np.ndarray
    second_steps: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "rmse_per_step", np.asarray(self.rmse_per_step, dtype=float)
        )
        object.__setattr__(
            self, "rmse_at_seconds", np.asarray(self.rmse_at_seconds, dtype=float)
        )


def rmse(predictions, ground_truth: Dataset) -> Metrics:
    """RMSE of predicted means against a dataset's futures.

    predictions is an (N, T, 2) array or a list of per-segment (T, 2)
    arrays, ordered like ground_truth.segments. The squared error at a step
    is the full 2-D squared distance (x and y pooled).
    """
    preds = np.asarray(predictions, dtype=float)
    truth = ground_truth.futures()
    if preds.shape != truth.shape:
        raise ValueError(
            f"prediction shape {preds.shape} does not match ground truth "
            f"{truth.shape}"
        )
    sq = ((preds - truth) ** 2).sum(axis=2)  # (N, T) squared distances
    per_step_mse = sq.mean(axis=0)
    overall = float(np.sqrt(per_step_mse.mean()))
    per_step = np.sqrt(per_step_mse)
    steps_per_second = int(round(1.0 / ground_truth.dt))
    second_steps = tuple(
        range(steps_per_second, ground_truth.horizon + 1, steps_per_second)
    )
    at_seconds = np.array([per_step[s - 1] for s in second_steps])
    return Metrics(overall, per_step, at_seconds, second_steps)


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

    def to_csv(self, deltas: bool = True) -> str:
        """One row per (backbone, refine) with the RMSEs at 6 dp; with
        ``deltas`` each refined row also carries :meth:`deltas`."""
        n_seconds = max(len(r.metrics.rmse_at_seconds) for r in self.rows)
        header = ["backbone", "refine", "rmse_overall"]
        header += [f"rmse_{s + 1}s" for s in range(n_seconds)]
        if deltas:
            header += [f"delta_{s + 1}s" for s in range(n_seconds)]
        lines = [",".join(header)]
        for row in self.rows:
            cells = [row.backbone, "on" if row.refined else "off"]
            cells.append(f"{row.metrics.rmse_overall:.6f}")
            cells += [f"{v:.6f}" for v in row.metrics.rmse_at_seconds]
            if deltas and row.refined:
                cells += [f"{d:.6f}" for d in self.deltas(row.backbone)]
            elif deltas:
                cells += [""] * n_seconds
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


def run_ablation(
    test: Dataset,
    models: dict[str, tuple[PredictorParams, GoalModelParams]],
    cfg: RefineConfig = RefineConfig(),
) -> AblationReport:
    """Evaluate every fitted backbone with refinement off and on.

    Models must have been fitted on data disjoint from ``test``. Segments
    are evaluated in dataset order, so the report is deterministic.
    """
    if not test.segments:
        raise ValueError("test set is empty")
    histories = test.histories()
    rows = []
    for backbone in sorted(models):
        params, goal_params = models[backbone]
        vanilla_means, _ = rollout_batch(params, histories, test.horizon)
        refined_means, _ = rollout_batch(
            params, histories, test.horizon, goal_params, cfg
        )
        rows.append(AblationRow(backbone, False, rmse(vanilla_means, test)))
        rows.append(AblationRow(backbone, True, rmse(refined_means, test)))
    return AblationReport(tuple(rows))
