"""Rollout backbones and the array rollout engine.

Three closed-form backbones stand behind one predictor contract: constant
velocity (cv), constant acceleration (ca, quadratic extrapolation over a
sliding window) and an autoregressive displacement model (ar). Each is a
linear map of its position buffer, stored as one matrix W so that every
backbone steps as ``buffer[-1] + diff(buffer).ravel() @ W``. Each step's
Gaussian estimate takes its covariance from a per-horizon calibration table,
so uncertainty grows with the horizon the way the backbone's own rollout
errors actually grow.

:func:`rollout_batch` is the one rollout loop. It steps N segments at once.
With a goal model it predicts the anchors once per segment, fuses every raw
step with the interpolated goal measurement through the gain-form update and
(by default) feeds the fused mean back into the buffer. ``rollout``,
``rollout_vanilla`` and ``rollout_refined`` are its one-segment adapters.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .data import Dataset
from .fusion import Estimate, SingularInnovationError, gain_update
from .gaussian import PSD_TOL, Cov2, is_psd
from .goals import GoalModelParams, goal_moments, interpolate_goals, solve_ridge

BACKBONES = ("cv", "ca", "ar")

COV_FLOOR = 1e-6  # m^2, keeps calibrated covariances positive definite


@dataclass(frozen=True)
class PredictorParams:
    """Fitted backbone parameters plus the per-step covariance table.

    step_covs[k-1] is the estimate-error covariance attached to future step
    k; its trace must be non-decreasing in k (uncertainty grows with the
    horizon). cv/ca use a position window of length ``window``; ar uses the
    last ``lag`` displacement vectors with ``ar_weights`` of shape
    (2*lag, 2).
    """

    backbone: str
    dt: float
    step_covs: tuple[Cov2, ...]
    window: int = 2
    lag: int = 1
    ar_weights: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.backbone not in BACKBONES:
            raise ValueError(f"unknown backbone {self.backbone!r}; valid: {BACKBONES}")
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if not self.step_covs:
            raise ValueError("at least one per-step covariance is required")
        prev = -np.inf
        for k, cov in enumerate(self.step_covs, start=1):
            if not is_psd(cov, PSD_TOL):
                raise ValueError(f"step covariance {k} is not PSD")
            if cov.trace < prev - 1e-9 * max(1.0, prev):
                raise ValueError("step covariance traces must be non-decreasing")
            prev = cov.trace
        if self.backbone == "cv" and self.window < 2:
            raise ValueError("cv backbone needs a window of at least 2 positions")
        if self.backbone == "ca" and self.window < 3:
            raise ValueError("ca backbone needs a window of at least 3 positions")
        if self.backbone == "ar":
            if self.lag < 1:
                raise ValueError("ar backbone needs lag >= 1")
            if self.ar_weights is None:
                raise ValueError("ar backbone needs a weight matrix")
            w = np.asarray(self.ar_weights, dtype=float)
            if w.shape != (2 * self.lag, 2):
                raise ValueError(
                    f"ar weights must have shape ({2 * self.lag}, 2), got {w.shape}"
                )
            object.__setattr__(self, "ar_weights", w)

    @property
    def horizon(self) -> int:
        return len(self.step_covs)

    @property
    def buffer_len(self) -> int:
        return self.window if self.backbone in ("cv", "ca") else self.lag + 1

    @cached_property
    def step_weights(self) -> np.ndarray:
        """(2*(buffer_len-1), 2) matrix W of the backbone's one-step map.

        The next position is buffer[-1] + diff(buffer).ravel() @ W: cv
        averages the displacements, ca writes its extrapolation weights over
        positions as weights over displacements (they sum to one), ar is its
        fitted weight matrix.
        """
        if self.backbone == "ar":
            return self.ar_weights
        if self.backbone == "cv":
            per_disp = np.full(self.window - 1, 1.0 / (self.window - 1))
        else:
            coeffs = np.asarray(_quadratic_extrapolation_coeffs(self.window))
            per_disp = -np.cumsum(coeffs)[:-1]
        return np.kron(per_disp[:, None], np.eye(2))


@dataclass(frozen=True)
class RefineConfig:
    """Refinement loop knobs.

    feedback 'fused' replaces the predictor's latest buffered position with
    the fused mean; 'raw' leaves the backbone rolling out on its own output
    while the fused sequence is still what gets returned. goal_cov_scale
    multiplies every goal measurement covariance (1e12 recovers the vanilla
    rollout, 1e-12 snaps the output onto the goals). epsilon is the variance
    (m^2) of the virtual step-0 goal anchor pinned at the last observed
    position; beta inflates the goal covariance by beta per step held past
    the last anchor. refine_enabled selects between refined and vanilla in
    :func:`rollout`.
    """

    refine_enabled: bool = True
    epsilon: float = 0.05
    beta: float = 0.5
    feedback: str = "fused"
    goal_cov_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.feedback not in ("fused", "raw"):
            raise ValueError("feedback mode must be 'fused' or 'raw'")
        for name in ("epsilon", "beta", "goal_cov_scale"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.goal_cov_scale <= 0.0:
            raise ValueError("goal_cov_scale must be positive")
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be positive")
        if self.beta < 0.0:
            raise ValueError("beta must be non-negative")


@lru_cache(maxsize=None)
def _quadratic_extrapolation_coeffs(window: int) -> tuple[float, ...]:
    """Weights over the window positions whose dot product extrapolates a
    least-squares quadratic one step past the window (dt cancels out)."""
    t = np.arange(window, dtype=float)
    vander = np.column_stack([np.ones(window), t, t * t])
    coeffs = np.array([1.0, float(window), float(window) ** 2]) @ np.linalg.pinv(vander)
    return tuple(coeffs)


def fit_predictor(
    backbone: str,
    train: Dataset,
    val: Dataset | None = None,
    *,
    window: int | None = None,
    lag: int = 3,
    ridge_lambda: float = 1e-6,
    horizon: int | None = None,
) -> PredictorParams:
    """Fit a backbone plus its per-horizon error covariance table.

    ar weights come from closed-form ridge normal equations on one-step
    displacement prediction over each training series. The covariance at
    step k is the second moment of the backbone's own vanilla-rollout errors
    at that horizon on the validation set (training set when none is given),
    floored with +1e-6 I and forced trace-non-decreasing in k by running
    maximum. ``window`` is the cv/ca position window; it defaults to 2 for cv
    and to 3, the fewest points a quadratic needs, for ca (ar ignores it).
    """
    if backbone not in BACKBONES:
        raise ValueError(f"unknown backbone {backbone!r}; valid: {BACKBONES}")
    if window is None:
        window = 3 if backbone == "ca" else 2
    if not train.segments:
        raise ValueError("training set is empty")
    horizon = train.horizon if horizon is None else int(horizon)
    if horizon < 1 or horizon > train.horizon:
        raise ValueError(f"horizon must be in [1, {train.horizon}]")

    ar_weights = None
    if backbone == "ar":
        feats, targets = [], []
        for seg in train.segments:
            disp = np.diff(np.vstack([seg.history, seg.future]), axis=0)
            for j in range(lag, len(disp)):
                feats.append(disp[j - lag : j].ravel())
                targets.append(disp[j])
        if not feats:
            raise ValueError("training segments are too short for the requested lag")
        ar_weights = solve_ridge(np.asarray(feats), np.asarray(targets), ridge_lambda)

    flat = Cov2.isotropic(1.0)
    probe = PredictorParams(
        backbone,
        train.dt,
        (flat,) * horizon,
        window=window,
        lag=lag,
        ar_weights=ar_weights,
    )
    calib = val if val is not None and val.segments else train
    if calib.horizon < horizon:
        raise ValueError("calibration futures are shorter than the fitted horizon")
    preds, _ = rollout_batch(probe, calib.histories(), horizon)
    errors = preds - calib.futures()[:, :horizon]

    step_covs = []
    running_max = 0.0
    for k in range(horizon):
        e = errors[:, k, :]
        moment = e.T @ e / len(e) + COV_FLOOR * np.eye(2)
        trace = moment[0, 0] + moment[1, 1]
        if trace < running_max:
            moment = moment * (running_max / trace)
        running_max = max(running_max, trace)
        step_covs.append(Cov2.from_matrix(0.5 * (moment + moment.T)))

    return PredictorParams(
        backbone,
        train.dt,
        tuple(step_covs),
        window=window,
        lag=lag,
        ar_weights=ar_weights,
    )


def fit_ar_rls(pairs, forgetting: float = 1.0, delta: float = 1e-8) -> np.ndarray:
    """Classical recursive least squares with exponential forgetting.

    Processes a stream of (feature, target) pairs one at a time. With
    forgetting 1 the result matches the batch ridge solution with ridge
    delta; with forgetting < 1 it matches the exponentially weighted batch
    solution. The recursion is well defined for any delta > 0.
    """
    if not 0.0 < forgetting <= 1.0:
        raise ValueError("forgetting factor must be in (0, 1]")
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    weights = None
    p = None
    scalar_target = False
    for x, y in pairs:
        x = np.asarray(x, dtype=float).ravel()
        y_arr = np.asarray(y, dtype=float)
        scalar_target = y_arr.ndim == 0
        y_arr = np.atleast_1d(y_arr)
        if weights is None:
            weights = np.zeros((x.size, y_arr.size))
            p = np.eye(x.size) / delta
        px = p @ x
        gain = px / (forgetting + x @ px)
        weights = weights + np.outer(gain, y_arr - x @ weights)
        p = (p - np.outer(gain, px)) / forgetting
        p = 0.5 * (p + p.T)
    if weights is None:
        raise ValueError("at least one (feature, target) pair is required")
    return weights[:, 0] if scalar_target else weights


def rollout_batch(
    params: PredictorParams,
    histories: np.ndarray,
    horizon: int | None = None,
    goal_params: GoalModelParams | None = None,
    cfg: RefineConfig = RefineConfig(),
) -> tuple[np.ndarray, np.ndarray]:
    """Roll N segments out together; the one rollout loop of the package.

    histories is (N, n, 2). Returns (N, T, 2) means and (N, T, 2, 2)
    covariances for future steps 1..T. Without a goal model this is the
    vanilla rollout: repeated one-step prediction with the calibrated step
    covariances. With one, goals are predicted exactly once per segment up
    front; at each step k the raw estimate is fused with the goal
    measurement for k, the fused estimate is emitted, and (in 'fused'
    feedback mode) the fused mean replaces the raw one in the buffer before
    the next step. cfg.refine_enabled is not read here: pass no goal model
    for a vanilla rollout.
    """
    histories = np.asarray(histories, dtype=float)
    horizon = params.horizon if horizon is None else int(horizon)
    need = params.buffer_len
    if histories.ndim != 3 or histories.shape[2] != 2:
        raise ValueError("histories must be an (N, n, 2) array")
    if histories.shape[1] < need:
        raise ValueError(
            f"{params.backbone} backbone needs at least {need} history points, "
            f"got {histories.shape[1]}"
        )
    if horizon < 0:
        raise ValueError("horizon must be non-negative")
    if horizon > params.horizon:
        raise ValueError(
            f"rollout horizon of {params.horizon} steps exceeded at step "
            f"{params.horizon + 1}"
        )
    n = len(histories)
    step_covs = np.array([c.as_matrix() for c in params.step_covs[:horizon]])
    covs = np.repeat(step_covs.reshape(1, horizon, 2, 2), n, axis=0)
    means = np.empty((n, horizon, 2))
    # positions[:, k : k + need] is the buffer that predicts step k + 1
    positions = np.concatenate([histories[:, -need:], np.empty_like(means)], 1)
    if goal_params is not None:
        goal_means, goal_covs = goal_moments(goal_params, histories)
        z, r = interpolate_goals(
            goal_params.anchor_steps, histories[:, -1], goal_means, goal_covs,
            horizon, cfg.epsilon, cfg.beta,
        )
        r *= cfg.goal_cov_scale
    for k in range(horizon):
        buffer = positions[:, k : k + need]
        disp = np.diff(buffer, axis=1).reshape(n, 2 * (need - 1))
        means[:, k] = raw = buffer[:, -1] + disp @ params.step_weights
        if goal_params is not None:
            try:
                _, means[:, k], covs[:, k] = gain_update(
                    raw, covs[:, k], z[:, k], r[:, k]
                )
            except SingularInnovationError as exc:
                step = k + 1
                raise SingularInnovationError(f"step {step}: {exc}", step=step) from exc
        positions[:, k + need] = means[:, k] if cfg.feedback == "fused" else raw
    if not np.all(np.isfinite(means)):
        raise ValueError("rollout produced non-finite positions")
    return means, covs


def _estimates(means: np.ndarray, covs: np.ndarray) -> list[Estimate]:
    return [Estimate(m, Cov2.from_matrix(c)) for m, c in zip(means[0], covs[0])]


def rollout_vanilla(
    params: PredictorParams, history: np.ndarray, horizon: int | None = None
) -> list[Estimate]:
    """Plain rollout of one (n, 2) history: no fusion, no feedback."""
    history = np.asarray(history, dtype=float)
    return _estimates(*rollout_batch(params, history[None], horizon))


def rollout_refined(
    params: PredictorParams,
    goal_params: GoalModelParams,
    history: np.ndarray,
    horizon: int | None = None,
    cfg: RefineConfig = RefineConfig(),
) -> list[Estimate]:
    """Goal-refined rollout of one (n, 2) history; see :func:`rollout_batch`."""
    history = np.asarray(history, dtype=float)
    return _estimates(*rollout_batch(params, history[None], horizon, goal_params, cfg))


def rollout(
    params: PredictorParams,
    goal_params: GoalModelParams | None,
    history: np.ndarray,
    horizon: int | None = None,
    cfg: RefineConfig = RefineConfig(),
) -> list[Estimate]:
    """Dispatch on cfg.refine_enabled; vanilla rollouts need no goal model."""
    if cfg.refine_enabled:
        if goal_params is None:
            raise ValueError("refined rollout requires a goal model")
        return rollout_refined(params, goal_params, history, horizon, cfg)
    return rollout_vanilla(params, history, horizon)
