"""Rollout backbones and the array rollout engine.

Three closed-form backbones stand behind one predictor contract: constant
velocity (cv), constant acceleration (ca, quadratic extrapolation over a
sliding window) and an autoregressive displacement model (ar). Each is a
linear map of its position buffer, stored as one matrix P over the buffer's
positions so that every backbone steps as ``buffer.ravel() @ P``. Each step's
Gaussian estimate takes its covariance from a per-horizon calibration table,
so uncertainty grows with the horizon the way the backbone's own rollout
errors actually grow.

:func:`rollout_batch` is the one rollout loop; it steps N segments at once,
with a fixed count of numpy calls around the step loop whatever N, and a
single segment is its one-row case, ``history[None]``, and its
``goal_cov_scale`` is the one goal covariance scale. ``rollout``,
``rollout_vanilla`` and ``rollout_refined`` are the benchmark's one-segment
entry points, three adapters to one body that rolls out at the default scale
and checks the estimates once; :class:`RefineConfig` is only the flag
``rollout`` dispatches on. They, :class:`~trajrefine.fusion.Estimate`,
:class:`~trajrefine.gaussian.Cov2` and the scalar
:func:`~trajrefine.gaussian.params_from_cov` are importable from their modules
and are not part of the package API.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .data import (Dataset, check_protocol, checked_dt, checked_positive, non_negative, positive,
                   read_only, whole)
from .fusion import (Estimate, SingularInnovationError, estimates_from_arrays, gain_table,
                     rotated_gains)
from .gaussian import cov_entries
from .goals import (GoalModelParams, _anchor_steps, calibration_split, check_finite_histories,
                    goal_moments, interpolate_covs, interpolate_goals, second_moments, solve_ridge)

# each backbone's least position window, which is also its default
WINDOWS = {"cv": 2, "ca": 3, "ar": 2}
BACKBONES = tuple(WINDOWS)


@dataclass(frozen=True, eq=False)
class PredictorParams:
    """Fitted backbone parameters plus the per-step covariance table.

    step_covs is a read-only (T, 2, 2) array; step_covs[k-1] is the
    estimate-error covariance attached to future step k, and its trace must
    be non-decreasing in k (uncertainty grows with the horizon). cv/ca use a
    position window of length ``window``; ar uses the last ``lag``
    displacement vectors with ``ar_weights``. Each field has one rule, checked
    for every backbone: the window is at least the backbone's ``WINDOWS``
    entry, which is also its default (3 for ca, the fewest points a quadratic
    needs, and 2 for cv and ar, which ignores it); ``lag >= 1``; and
    ``ar_weights`` is given exactly when the backbone is ar, finite and of
    shape (2*lag, 2), stored read-only.
    """

    backbone: str
    dt: float
    step_covs: np.ndarray
    window: int | None = None
    lag: int = 1
    ar_weights: np.ndarray | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.backbone, str) or self.backbone not in WINDOWS:
            raise ValueError(f"unknown backbone {self.backbone!r}; valid: {BACKBONES}")
        least = WINDOWS[self.backbone]
        object.__setattr__(self, "dt", checked_dt(self.dt))
        window = least if self.window is None else self.window
        object.__setattr__(self, "window", whole("window", window))
        object.__setattr__(self, "lag", whole("lag", self.lag))
        c = read_only(np.array(self.step_covs, dtype=float))
        if not c.size or c.shape[1:] != (2, 2):
            raise ValueError("at least one per-step covariance is required" if not c.size
                             else f"step covariances must be (T, 2, 2), got shape {c.shape}")
        sxx, _, syy, _, psd = cov_entries(c, symmetric=True)
        with np.errstate(invalid="ignore"):  # inf entries give NaN traces, which fail
            prev = np.append(-np.inf, (sxx + syy)[:-1])
            valid = psd & (sxx + syy >= prev - 1e-9 * np.maximum(1.0, prev))
        if not valid.all():  # the first bad step, as a step-by-step check finds it
            k = int(np.argmin(valid))
            raise ValueError(f"step covariance {k + 1} is not PSD" if not psd[k] else
                             f"step covariance traces must be non-decreasing (step {k + 1})")
        object.__setattr__(self, "step_covs", c)
        if self.window < least:
            raise ValueError(
                f"{self.backbone} backbone needs a window of at least {least} positions")
        if self.lag < 1:
            raise ValueError(f"{self.backbone} backbone needs lag >= 1")
        if (self.ar_weights is None) == (self.backbone == "ar"):
            raise ValueError("ar backbone needs a weight matrix" if self.backbone == "ar"
                             else f"{self.backbone} backbone takes no ar_weights")
        if self.ar_weights is not None:
            w = read_only(np.array(self.ar_weights, dtype=float))
            if w.shape != (2 * self.lag, 2):
                raise ValueError(f"ar weights must have shape ({2 * self.lag}, 2), got {w.shape}")
            if not np.isfinite(w).all():
                raise ValueError("ar_weights must be finite")
            object.__setattr__(self, "ar_weights", w)

    @property
    def horizon(self) -> int:
        return len(self.step_covs)

    @property
    def buffer_len(self) -> int:
        return self.window if self.backbone in ("cv", "ca") else self.lag + 1

    @cached_property
    def position_weights(self) -> np.ndarray:
        """Read-only (2*buffer_len, 2) matrix P of the backbone's one-step map.

        The next position is buffer.ravel() @ P. cv adds the window's mean
        displacement to its last position, ca weights each position by its
        quadratic extrapolation coefficient, and ar's weights over the
        displacements x[i+1] - x[i] are mapped onto the positions once.
        """
        if self.backbone == "ar":
            blocks = self.ar_weights.reshape(self.lag, 2, 2)
            per_pos = np.zeros((self.lag + 1, 2, 2))
            per_pos[1:] += blocks
            per_pos[:-1] -= blocks
            per_pos[-1] += np.eye(2)
            return read_only(per_pos.reshape(-1, 2))
        if self.backbone == "cv":
            coeffs = np.zeros(self.window)
            coeffs[0] = -1.0 / (self.window - 1)
            coeffs[-1] = 1.0 + 1.0 / (self.window - 1)
        else:
            coeffs = np.asarray(_quadratic_extrapolation_coeffs(self.window))
        return read_only(np.kron(coeffs[:, None], np.eye(2)))


@dataclass(frozen=True)
class RefineConfig:
    """The flag :func:`rollout` dispatches on: refined if refine_enabled, else
    vanilla. The goal covariance scale is :func:`rollout_batch`'s
    ``goal_cov_scale``."""

    refine_enabled: bool = True


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
) -> PredictorParams:
    """Fit a backbone plus its per-horizon error covariance table.

    ar weights solve the ridge normal equations of one-step displacement
    prediction over each training series: the fit forms G = X^T X and
    B = X^T Y and solves them with :func:`solve_ridge` (ridge_lambda must be
    finite and >= 0 for every backbone); the lag design X is one strided view
    of the displacements, copied once. The covariance at step k is the
    second moment of the backbone's own vanilla-rollout errors at that
    horizon on the calibration split, floored with +1e-6 I and forced
    trace-non-decreasing in k by running maximum. ``window`` is the
    cv/ca position window, :class:`PredictorParams`' default when None; the
    training set must hold a segment and a validation set's futures must
    reach the training horizon (:func:`calibration_split`).
    """
    lag = whole("lag", lag)
    if not non_negative(ridge_lambda):
        raise ValueError(f"ridge_lambda must be finite and >= 0, got {ridge_lambda!r}")
    calib = calibration_split(train, val, train.horizon)
    # PredictorParams rejects a lag below 1
    ar_weights = _ar_weights(train, lag, ridge_lambda) if backbone == "ar" and lag >= 1 else None
    shape = {"window": window, "lag": lag, "ar_weights": ar_weights}
    flat = np.broadcast_to(np.eye(2), (train.horizon, 2, 2))
    preds, _ = rollout_batch(PredictorParams(backbone, train.dt, flat, **shape),
                             calib.histories())
    # errors in the rollout buffer's step-major (T, 2, N) layout
    errors = preds.transpose(1, 2, 0) - calib.futures()[:, : train.horizon].transpose(1, 2, 0)
    moments = second_moments(errors.transpose(0, 2, 1))
    traces = moments[:, 0, 0] + moments[:, 1, 1]
    moments *= (np.maximum.accumulate(traces) / traces)[:, None, None]
    return PredictorParams(backbone, train.dt, moments, **shape)


def _ar_weights(train: Dataset, lag: int, ridge_lambda: float) -> np.ndarray:
    """:func:`fit_predictor`'s ar weights; the design arrays are freed on
    return, before its calibration rollouts."""
    hist, fut = train.histories(), train.futures()
    disp = np.empty((len(hist), train.tau + train.horizon, 2))  # x[i+1] - x[i]
    np.subtract(hist[:, 1:], hist[:, :-1], out=disp[:, :train.tau])
    np.subtract(fut[:, 0], hist[:, -1], out=disp[:, train.tau])
    np.subtract(fut[:, 1:], fut[:, :-1], out=disp[:, train.tau + 1:])
    rows = disp.shape[1] - lag  # design rows per segment, in step order
    if rows < 1:
        raise ValueError("training segments are too short for the requested lag")
    # row (n, j) is disp[n, j : j + lag]: one read-only view, copied once
    windows = np.lib.stride_tricks.sliding_window_view(disp[:, :-1], lag, axis=1)
    feats = windows.swapaxes(2, 3).reshape(-1, 2 * lag)
    # the targets' copy is a temporary, freed before the calibration rollouts
    rhs = feats.T @ disp[:, lag:].reshape(-1, 2)
    return solve_ridge(feats.T @ feats, rhs, ridge_lambda)


def model_protocol(params: PredictorParams, goal_params: GoalModelParams) -> dict:
    """The protocol a backbone and a goal model fitted together share, as
    :func:`check_protocol` gives it: the predictor's dt and horizon and the goal
    model's tau, with every anchor within that horizon (:func:`_anchor_steps`).
    A goal model holds no dt, so the pair's dt is the predictor's."""
    _anchor_steps(goal_params.anchor_steps, params.horizon)
    return check_protocol(params.dt, goal_params.history_len - 1, params.horizon)


@lru_cache(maxsize=32)
def _gain_table(prior: bytes, residual_covs: bytes, anchor_steps: tuple[int, ...],
                goal_cov_scale: float) -> np.ndarray:
    """Read-only :func:`gain_table` of a (T, 2, 2) prior table and the scaled
    ego-frame measurement table of a goal model. Neither depends on the
    segments, so the tables are keyed by their bytes: repeated calls, and
    refits to equal tables, share one entry. A scale that makes the table
    overflow is named in a ValueError; it is checked on a cache miss only."""
    prior_covs = np.frombuffer(prior).reshape(-1, 2, 2)
    covs = np.frombuffer(residual_covs).reshape(-1, 2, 2)
    ego = interpolate_covs(anchor_steps, covs, len(prior_covs))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is named below
        table = gain_table(prior_covs, goal_cov_scale * ego)
    if not np.isfinite(table).all():
        raise ValueError(f"goal_cov_scale={goal_cov_scale!r} makes a goal measurement "
                         "covariance, or its sum with a step covariance, overflow")
    return read_only(table)


def fit_ar_rls(pairs, forgetting: float = 1.0, delta: float = 1e-8) -> np.ndarray:
    """Recursive least squares with exponential forgetting, in information form.

    Processes a stream of (feature, target) pairs one at a time, recursing on
    the normal equations G <- f G + x x^T and B <- f B + x y^T while the ridge
    prior delta decays by f at each pair; the weights are :func:`solve_ridge`
    of G and B with that prior as lambda. With forgetting 1 this is the batch
    ridge solution with ridge delta; with forgetting < 1, the exponentially
    weighted one. While the prior is positive, a feature the stream never
    excites gets weight 0. Normal equations that are singular in floating
    point raise a ``ValueError`` (two equal features, say, once the prior falls
    below their rounding); at forgetting <= 0.5 the prior decays to exactly 0
    (after 1049 pairs at 0.5 from 1e-8), and the error then names delta,
    forgetting and the pair count. Every pair must be finite and of the first
    pair's feature and target sizes, else it is rejected by its index; the
    first pair's target fixes the output: (F,) weights for a scalar, else
    (F, m).
    """
    if not (positive(forgetting) and forgetting <= 1.0):
        raise ValueError("forgetting factor must be in (0, 1]")
    checked_positive("delta", delta)
    gram = rhs = scalar_target = None
    prior = delta
    for i, (x, y) in enumerate(pairs):
        x = np.asarray(x, dtype=float).ravel()
        y = np.asarray(y, dtype=float)
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError(f"pair {i}: feature and target must be finite")
        if gram is None:
            gram, rhs = np.zeros((x.size, x.size)), np.zeros((x.size, y.size))
            scalar_target = y.ndim == 0
        elif (x.size, y.size) != rhs.shape:
            raise ValueError(f"pair {i}: feature and target sizes {(x.size, y.size)} "
                             f"differ from the first pair's {rhs.shape}")
        gram = forgetting * gram + np.outer(x, x)
        rhs = forgetting * rhs + np.outer(x, y)
        prior *= forgetting
    if gram is None:
        raise ValueError("at least one (feature, target) pair is required")
    try:
        weights = solve_ridge(gram, rhs, prior)
    except ValueError:
        if prior:
            raise
        raise ValueError(f"normal equations are singular: the prior delta={delta!r} decayed "
                         f"to 0 at forgetting={forgetting!r} over {i + 1} pairs") from None
    return weights[:, 0] if scalar_target else weights


def rollout_batch(
    params: PredictorParams,
    histories: np.ndarray,
    horizon: int | None = None,
    goal_params: GoalModelParams | None = None,
    goal_cov_scale: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Roll N segments out together; the one rollout loop of the package.

    histories is (N, n, 2), every coordinate finite, also outside the
    backbone's window: a NaN or inf is rejected naming the first segment that
    holds one, before any arithmetic. Returns (N, T, 2) means and (N, T, 2, 2)
    covariances for future steps 1..T. Without a goal model this is the
    vanilla rollout: repeated one-step prediction with the calibrated step
    covariances, a read-only broadcast view of ``params.step_covs``. With
    one, goals are predicted exactly once per segment up front. The prior
    covariance at step k is the calibrated table entry, not the previous
    fused one, so every gain K_k and fused covariance is fixed by the
    covariances alone and is computed in one call before stepping; the
    refined covariances are a read-only view too. At each step k the raw
    mean is fused as raw + K_k (z_k - raw), the fused estimate is emitted,
    and the fused mean replaces the raw one in the buffer before the next
    step. The buffer holds step-major component planes, (buffer_len + T, 2,
    N), so a fused step is elementwise work on (2, N) planes; the means are
    a transposed view of its last T rows. horizon must be an integer; an
    empty batch returns (0, T, 2) means and (0, T, 2, 2) covariances.
    goal_cov_scale multiplies every goal measurement covariance (1e12 recovers
    the vanilla rollout, 1e-12 snaps the output onto the goals); it must be
    finite and positive, with or without a goal model, and a scale that
    overflows a goal measurement covariance is rejected by name.
    A singular innovation raises SingularInnovationError with the step and the
    (segment,) index of the first singular entry, at the earliest step.
    """
    scale = checked_positive("goal_cov_scale", goal_cov_scale)
    histories = np.asarray(histories, dtype=float)
    horizon = params.horizon if horizon is None else whole("horizon", horizon)
    need = params.buffer_len
    if histories.ndim != 3 or histories.shape[2] != 2:
        raise ValueError("histories must be an (N, n, 2) array")
    if histories.shape[1] < need:
        raise ValueError(
            f"{params.backbone} backbone needs at least {need} history points, "
            f"got {histories.shape[1]}"
        )
    check_finite_histories(histories)
    if horizon < 0:
        raise ValueError("horizon must be non-negative")
    if horizon > params.horizon:
        raise ValueError(
            f"rollout horizon of {params.horizon} steps exceeded at step "
            f"{params.horizon + 1}"
        )
    goals = None if goal_params is None else _measure_goals(goal_params, histories, horizon, scale)
    return _step(params, histories, horizon, goals)


def _measure_goals(goal_params: GoalModelParams, histories: np.ndarray, horizon: int, scale):
    """What backbones that share a goal model share: the (T, 2, N) planes of the goal
    measurement means, the (N, 2, 2) ego rotations and the goal model's part of the
    :func:`_gain_table` key, with ``scale`` a checked goal_cov_scale."""
    goal_means, rot = goal_moments(goal_params, histories)
    z = interpolate_goals(goal_params.anchor_steps, histories[:, -1], goal_means, horizon)
    key = goal_params.residual_covs.tobytes(), goal_params.anchor_steps, scale
    return z.transpose(1, 2, 0), rot, key


def _step(params: PredictorParams, histories: np.ndarray, horizon: int, goals):
    """:func:`rollout_batch` after its checks; ``goals`` is a
    :func:`_measure_goals` of the histories, None for a vanilla rollout."""
    n, need = len(histories), params.buffer_len
    prior = params.step_covs[:horizon]
    buf = np.empty((need + horizon, 2, n))  # buf[j, c] is component c of position j
    buf[:need] = histories[:, -need:].transpose(1, 2, 0)
    # windows[k] is the (N, 2 need) raveled buffer that predicts step k + 1
    position, plane, item = buf.strides
    windows = np.ndarray((horizon, n, 2 * need), float, buf, 0, (position, item, plane))
    rows, weights = buf[need:], params.position_weights
    if goals is None:
        covs = np.broadcast_to(prior, (n, horizon, 2, 2))
        for window, row in zip(windows, rows):
            np.matmul(window, weights, out=row.T)
    else:
        z, rot, key = goals
        table = _gain_table(prior.tobytes(), *key)
        try:  # step-major, so the first singular entry is at the earliest step
            gains, post = rotated_gains(table, rot)
        except SingularInnovationError as exc:
            step = exc.index[0] + 1
            raise SingularInnovationError(f"step {step}: {exc}", step, exc.index[1:]) from exc
        covs = post.swapaxes(0, 1)
        # work[j, i] = K[i, j] d[j] for j < 2 and work[2, i] = raw[i], so the sum
        # over j is (K d)_i + raw_i in the order of a 2x2 matvec; the raw plane
        # is contiguous, so the backbone's matmul writes one block at N = 1
        work, d = np.empty((3, 2, n)), np.empty((2, 1, n))  # d[j, 0] = z[j] - raw[j]
        kd, raw_j, raw_t = work[:2], work[2, :, None], work[2].T
        # each looked up once, not at each of the T steps
        matmul, multiply, subtract, reduce = np.matmul, np.multiply, np.subtract, np.add.reduce
        for window, zk, gain, row in zip(windows, z[:, :, None], gains.transpose(0, 3, 2, 1), rows):
            matmul(window, weights, raw_t)
            multiply(gain, subtract(zk, raw_j, d), kd)
            reduce(work, 0, None, row)
    means = rows.transpose(2, 0, 1)
    if not np.isfinite(means).all():
        raise ValueError("rollout produced non-finite positions")
    return means, covs


def _one_segment(params, refine: bool, goal_params, history, horizon):
    """The one-segment adapters' body: :func:`rollout_batch` of one (n, 2)
    history at the default goal_cov_scale, refined by ``goal_params`` if
    ``refine``, as checked estimates; a refined rollout needs a goal model."""
    if refine and goal_params is None:
        raise ValueError("refined rollout requires a goal model")
    means, covs = rollout_batch(params, [history], horizon, goal_params if refine else None)
    return estimates_from_arrays(means[0], covs[0])


def rollout_vanilla(
    params: PredictorParams, history: np.ndarray, horizon: int | None = None
) -> list[Estimate]:
    """Plain rollout of one (n, 2) history: no fusion, no feedback.

    A benchmark entry point, not part of the package API (module docstring);
    the package's form is :func:`rollout_batch` of ``history[None]``.
    """
    return _one_segment(params, False, None, history, horizon)


def rollout_refined(
    params: PredictorParams,
    goal_params: GoalModelParams,
    history: np.ndarray,
    horizon: int | None = None,
) -> list[Estimate]:
    """Goal-refined rollout of one (n, 2) history; see :func:`rollout_batch`.

    A benchmark entry point, not part of the package API (module docstring);
    the package's form is :func:`rollout_batch` of ``history[None]``.
    """
    return _one_segment(params, True, goal_params, history, horizon)


def rollout(
    params: PredictorParams,
    goal_params: GoalModelParams | None,
    history: np.ndarray,
    horizon: int | None = None,
    cfg: RefineConfig = RefineConfig(),
) -> list[Estimate]:
    """Dispatch on cfg.refine_enabled; vanilla rollouts need no goal model.

    A benchmark entry point, not part of the package API (module docstring);
    the package's form is :func:`rollout_batch` of ``history[None]``.
    """
    return _one_segment(params, cfg.refine_enabled, goal_params, history, horizon)
