"""Goal-point model: once-per-segment anchor prediction and per-step measurements.

A set of goal anchors (future-step indices carrying a position Gaussian) is
predicted exactly once per segment from the observed history. Each anchor has
its own independent ridge regressor from ego-frame history displacements to
the anchor displacement, so removing one anchor never perturbs another.
:func:`goal_moments` predicts the anchors of a whole batch of histories as
(N, A, 2) world means plus the (N, 2, 2) rotations of their ego frames.

At refinement time the sparse anchors become a pseudo-measurement for every
horizon step. Two fixed (T, A+1) tables of linear weights over a virtual
step-0 anchor and the A anchors serve every segment; past the last anchor
the mean weights continue the last node-to-node velocity and the covariance
weights hold the last anchor, whose covariance then inflates.
:func:`interpolate_goals` applies the first to the means of N segments,
:func:`interpolate_covs` the second once to the ego-frame residual
covariances, which every segment shares: a segment's world measurement
covariance is that (T, 2, 2) table turned by its heading (:func:`world_covs`).
Convex combinations of PSD matrices are PSD, so every measurement covariance is.

The ego frame translates the last observed position to the origin and, by
default, rotates the net history heading onto +x so the regressors are
position- and heading-independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .data import Dataset, non_negative, read_only, require_protocol, whole
from .gaussian import cov_entries

COV_FLOOR = 1e-6  # m^2 added to every fitted covariance; keeps fusion nonsingular

DEFAULT_ANCHOR_STEPS = (5, 10, 15, 20, 25)  # every whole second at dt = 0.2 s
ORIGIN_VAR = 0.05  # m^2, variance of the virtual step-0 anchor at the last observed position
PAST_LAST_ANCHOR_VAR = 0.5  # m^2 of goal variance added per step past the last anchor


@dataclass(frozen=True, eq=False)
class GoalModelParams:
    """Per-anchor ridge regressors plus ego-frame configuration.

    weights[i] maps the flattened ego-frame history displacements
    (2*tau features) to the ego-frame displacement of anchor_steps[i];
    residual_covs, a read-only (A, 2, 2) array, holds the matching ego-frame
    residual covariances. weight_matrix, the weights side by side, is built
    once and read-only, and each weights[i] is a read-only view of its two
    columns. Every weight must be finite.
    """

    anchor_steps: tuple[int, ...]
    weights: tuple[np.ndarray, ...]
    residual_covs: np.ndarray
    history_len: int
    rotate: bool = True

    def __post_init__(self) -> None:
        if not isinstance(self.rotate, bool):
            raise ValueError(f"rotate must be a boolean, got {self.rotate!r}")
        steps = _anchor_steps(self.anchor_steps)
        history_len = whole("history_len", self.history_len)
        if history_len < 2:
            raise ValueError(f"history_len must be at least 2, got {self.history_len!r}")
        c = read_only(np.array(self.residual_covs, dtype=float))
        if not (len(self.weights) == len(c) == len(steps)) or c.shape[1:] != (2, 2):
            raise ValueError("one (weights, 2x2 residual_cov) pair required per anchor")
        feat = 2 * (history_len - 1)
        weights = tuple(np.asarray(w, dtype=float) for w in self.weights)
        for step, w in zip(steps, weights):
            if w.shape != (feat, 2):
                raise ValueError(f"weights of anchor {step} must have shape ({feat}, 2), "
                                 f"got {w.shape}")
        matrix = read_only(np.concatenate(weights, 1))
        if not (finite := np.isfinite(matrix).all(0)).all():
            raise ValueError(f"weights of anchor {steps[np.argmin(finite) // 2]} must be finite")
        *_, pd = cov_entries(c, definite=True, symmetric=True)
        if not pd.all():
            step = steps[np.argmin(pd)]
            raise ValueError(f"residual covariance of anchor {step} is not positive definite")
        object.__setattr__(self, "anchor_steps", steps)
        object.__setattr__(self, "history_len", history_len)
        # anchor i's (F, 2) columns, as views: the weights are stored once
        object.__setattr__(self, "weights", tuple(matrix.reshape(feat, -1, 2).swapaxes(0, 1)))
        object.__setattr__(self, "residual_covs", c)
        object.__setattr__(self, "weight_matrix", matrix)


def _anchor_steps(anchor_steps, horizon: int | None = None) -> tuple[int, ...]:
    """The anchor rule: a non-empty, strictly increasing run of steps >= 1,
    the last within ``horizon`` when one is given."""
    try:
        steps = tuple(whole("anchor step", s) for s in anchor_steps)
    except (TypeError, ValueError):
        raise ValueError(f"anchor steps must be integers, got {anchor_steps!r}") from None
    if not steps or any(s < 1 for s in steps):
        raise ValueError("anchor steps must be non-empty and each >= 1")
    if any(b <= a for a, b in zip(steps, steps[1:])):
        raise ValueError("anchor steps must be strictly increasing")
    if horizon is not None and steps[-1] > horizon:
        raise ValueError(f"anchor step {steps[-1]} exceeds the horizon {horizon}")
    return steps


def calibration_split(train: Dataset, val: Dataset | None, steps: int) -> Dataset:
    """The split both fitters calibrate covariances on: ``val`` when it has
    segments, else ``train``, which must hold a segment. ``val`` must share
    the training dt and tau (:func:`require_protocol`), and its futures must
    reach ``steps``, the last future step the fit scores."""
    if not train.segments:
        raise ValueError("training set is empty")
    if val is None or not val.segments:
        return train
    what = val.source or "validation set"
    require_protocol(vars(val), vars(train), ("dt", "tau"), what, "training")
    if val.horizon < steps:
        raise ValueError(f"{what}: horizon={val.horizon} is short of the fit's last step {steps}")
    return val


def solve_ridge(x: np.ndarray, y: np.ndarray, ridge_lambda: float) -> np.ndarray:
    """Closed-form ridge solutions W_a of (X^T X + lambda I) W_a = X^T Y_a.

    x is (N, F) and y (N, A, k), A target sets; returns (A, F, k) weights.
    X^T X + lambda I is formed and factorised once: one stacked product forms
    the A right-hand sides and one solve takes them side by side as an
    (F, A*k) matrix. The triangular solves treat each right-hand-side column
    on its own, so no set's weights depend on the others. ridge_lambda must
    be finite and >= 0; with 0 the Gram matrix must be well conditioned.
    """
    if not non_negative(ridge_lambda):
        raise ValueError(f"ridge_lambda must be finite and >= 0, got {ridge_lambda!r}")
    gram = x.T @ x
    if ridge_lambda == 0.0:
        eigs = np.linalg.eigvalsh(gram)
        if eigs[0] <= 1e-12 * max(1.0, eigs[-1]):
            raise ValueError(
                "normal equations are singular with ridge_lambda=0 "
                "(rank-deficient features); add ridge or more data"
            )
    lhs = gram + ridge_lambda * np.eye(gram.shape[0])
    rhs = (x.T @ np.swapaxes(y, 0, 1)).swapaxes(0, 1)  # (F, A, k): set a's columns at [:, a]
    return np.linalg.solve(lhs, rhs.reshape(len(lhs), -1)).reshape(rhs.shape).swapaxes(0, 1)


def check_finite_histories(histories: np.ndarray) -> None:
    """Reject (N, n, 2) histories holding a non-finite coordinate, naming the first
    segment at fault: one ``isfinite`` pass when every coordinate is finite."""
    if not np.isfinite(histories).all():
        i = np.flatnonzero(~np.isfinite(histories).all(axis=(1, 2)))[0]
        raise ValueError(f"history of segment {i} contains non-finite coordinates")


def second_moments(errors: np.ndarray) -> np.ndarray:
    """(K, 2, 2) second moments about zero of (K, N, 2) errors, one per k,
    symmetrized and floored with +COV_FLOOR I."""
    m = np.swapaxes(errors, 1, 2) @ errors / errors.shape[1]
    return 0.5 * (m + np.swapaxes(m, 1, 2)) + COV_FLOOR * np.eye(2)


def _ego_frame(histories: np.ndarray, rotate: bool) -> tuple[np.ndarray, np.ndarray]:
    """Ego-frame features and ego->world rotations of (N, n, 2) histories.

    Returns the flattened displacement features (N, 2*(n-1)) and the (N, 2, 2)
    rotations that turn each net history displacement onto +x; a stationary
    history, or rotate=False, keeps the world axes.
    """
    n, length, _ = histories.shape
    if rotate:
        x, y = (histories[:, -1] - histories[:, 0]).T
        theta = np.where(np.hypot(x, y) >= 1e-12, np.arctan2(y, x), 0.0)
        c, s = np.cos(theta), np.sin(theta)
        rot = np.empty((n, 2, 2))
        rot[:, 0, 0] = rot[:, 1, 1] = c
        rot[:, 0, 1], rot[:, 1, 0] = -s, s
    else:
        rot = np.broadcast_to(np.eye(2), (n, 2, 2))
    disp = (histories[:, 1:] - histories[:, :-1]) @ rot  # each row rotated by -theta
    return disp.reshape(n, 2 * (length - 1)), rot


def fit_goal_model(
    train: Dataset,
    anchor_steps: tuple[int, ...] = DEFAULT_ANCHOR_STEPS,
    ridge_lambda: float = 1e-6,
    val: Dataset | None = None,
    rotate: bool = True,
) -> GoalModelParams:
    """Fit one independent ridge regressor per anchor step.

    Each anchor solves its normal equations in closed form for the ego-frame
    anchor displacement, against one Gram matrix formed and factorised once
    per fit (:func:`solve_ridge`); each anchor's weights stay independent of
    the others. Only the anchor steps of the futures are turned into the ego
    frame, and targets and residuals are kept anchor-major, (A, N, 2).
    Residual covariances are the second moment of the held-out residuals
    (training residuals when no validation set is given), floored with
    +1e-6 I so downstream fusion stays well conditioned. The last anchor
    must lie within the training horizon (:func:`_anchor_steps`), and a
    validation set's futures must reach it (:func:`calibration_split`).
    """
    steps = _anchor_steps(anchor_steps)
    holdout = calibration_split(train, val, steps[-1])
    if train.tau < 1:  # one point has no displacement to regress on
        raise ValueError(f"history_len must be at least 2, got {train.tau + 1} (tau={train.tau})")
    _anchor_steps(steps, train.horizon)

    def design(ds: Dataset) -> tuple[np.ndarray, np.ndarray]:
        """Features and the (A, N, 2) ego-frame offsets of the anchor points."""
        histories = ds.histories()
        feats, rot = _ego_frame(histories, rotate)
        offsets = np.take(ds.futures(), np.subtract(steps, 1), axis=1)  # (N, A, 2)
        offsets -= histories[:, -1:]
        targets = np.empty((len(steps), len(histories), 2))  # anchor-major
        # each segment's (A, 2) @ (2, 2) product, written through the (N, A, 2) view
        return feats, np.matmul(offsets, rot, out=targets.swapaxes(0, 1)).swapaxes(0, 1)

    x_train, y_train = design(train)
    x_hold, y_hold = (x_train, y_train) if holdout is train else design(holdout)
    weights = solve_ridge(x_train, np.swapaxes(y_train, 0, 1), ridge_lambda)
    resid = x_hold @ weights  # (A, N, 2)
    resid -= y_hold
    return GoalModelParams(
        anchor_steps=steps,
        weights=tuple(weights),
        residual_covs=second_moments(resid),
        history_len=train.tau + 1,
        rotate=rotate,
    )


def goal_moments(
    params: GoalModelParams, histories: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Predict every configured anchor once for each of N observed histories.

    histories is (N, history_len, 2), every coordinate finite: a NaN or inf is
    rejected naming the first segment that holds one. Regression runs in the ego frame.
    Returns the world-frame anchor means (N, A, 2) and the (N, 2, 2)
    ego->world rotations; the world anchor covariances are
    ``world_covs(params.residual_covs, rot)``. Pure function of
    (params, histories).
    """
    histories = np.asarray(histories, dtype=float)
    if histories.ndim != 3 or histories.shape[1:] != (params.history_len, 2):
        raise ValueError(
            f"history shape {histories.shape[1:]} does not match the fitted "
            f"configuration ({params.history_len}, 2)"
        )
    check_finite_histories(histories)
    feats, rot = _ego_frame(histories, params.rotate)
    ego = (feats @ params.weight_matrix).reshape(len(histories), len(params.anchor_steps), 2)
    return histories[:, -1:] + ego @ rot.swapaxes(1, 2), rot


def world_covs(ego: np.ndarray, rot: np.ndarray) -> np.ndarray:
    """rot_n E_k rot_n^T of K symmetric (K, 2, 2) ego-frame covariances E and
    N (N, 2, 2) rotations [[c, -s], [s, c]], as an (N, K, 2, 2) array.

    Each entry is a few elementwise products in c and s, so the result is
    exactly symmetric and an identity rotation returns E exactly; it is a
    view of component-major (2, 2, K, N) planes.
    """
    c, s = rot[:, 0, 0], rot[:, 1, 0]
    cc, ss, cs = c * c, s * s, c * s
    exx, exy, eyy = (e[:, None] for e in (ego[:, 0, 0], ego[:, 0, 1], ego[:, 1, 1]))
    out = np.empty((2, 2, len(ego), len(rot)))
    twice_cs_xy = 2.0 * cs * exy
    out[0, 0] = cc * exx + ss * eyy - twice_cs_xy
    out[1, 1] = ss * exx + cc * eyy + twice_cs_xy
    out[0, 1] = out[1, 0] = cs * (exx - eyy) + (cc - ss) * exy
    return out.transpose(3, 2, 0, 1)


def interpolate_goals(
    anchor_steps: tuple[int, ...], last_obs: np.ndarray, means: np.ndarray, horizon: int
) -> np.ndarray:
    """Pseudo-measurement means for future steps 1..horizon from sparse anchors.

    last_obs is (N, 2) and means (N, A, 2) the anchor means of goal_moments.
    Anchor steps return the anchor mean exactly; steps between anchors
    (with a virtual step-0 anchor at the last observed position) interpolate
    linearly, and steps beyond the last anchor extrapolate the line through
    the last two nodes. Returns (N, T, 2) means, a view of a step-major
    (T, N, 2) array: one GEMM of the cached weight table with the step-major
    node means.
    """
    table, _, _ = _interpolation_table(tuple(anchor_steps), horizon)
    means = np.asarray(means)
    n, anchors = means.shape[:2]
    nodes = np.empty((anchors + 1, n, 2))  # row 0 is the virtual step-0 anchor
    nodes[0] = last_obs
    nodes[1:] = means.swapaxes(0, 1)
    return (table @ nodes.reshape(anchors + 1, -1)).reshape(horizon, n, 2).swapaxes(0, 1)


def interpolate_covs(anchor_steps: tuple[int, ...], covs: np.ndarray, horizon: int) -> np.ndarray:
    """The (T, 2, 2) measurement covariances matching :func:`interpolate_goals`.

    covs is the (A, 2, 2) anchor covariance table, the same for every
    segment: the ego-frame ``residual_covs`` of a goal model. The virtual
    step-0 anchor has variance ORIGIN_VAR, steps between anchors interpolate
    linearly and steps beyond the last anchor inflate its covariance by
    PAST_LAST_ANCHOR_VAR per step. Convex combinations of PSD matrices are
    PSD. Both added terms are rotation-invariant multiples of I, so the world
    covariance of a segment turned by rot is rot E_k rot^T (:func:`world_covs`).
    """
    _, table, gap = _interpolation_table(tuple(anchor_steps), horizon)
    nodes = np.empty((len(covs) + 1, 2, 2))
    nodes[0] = ORIGIN_VAR * np.eye(2)
    nodes[1:] = covs
    e = (table @ nodes.reshape(len(nodes), 4)).reshape(horizon, 2, 2)
    e.reshape(horizon, 4)[:, ::3] += PAST_LAST_ANCHOR_VAR * gap[:, None]  # the diagonals
    return e


@lru_cache(maxsize=32)
def _interpolation_table(anchor_steps: tuple[int, ...], horizon: int):
    """Read-only (T, A+1) node weights of the means and of the covariances,
    and the (T,) steps past the last anchor. Past it the mean weights are
    (1 - w, w) on the last two nodes with w > 1; the covariance weights hold
    the last node, because a negative weight could break PSD."""
    nodes = np.array((0, *anchor_steps), dtype=float)
    k = np.arange(1, horizon + 1, dtype=float)
    upper = np.clip(np.searchsorted(nodes, k), 1, len(nodes) - 1)
    lower_step, upper_step = nodes[upper - 1], nodes[upper]
    w = (k - lower_step) / (upper_step - lower_step)
    tables = np.zeros((2, horizon, len(nodes)))
    for table, weight in zip(tables, (w, np.minimum(w, 1.0))):
        table[np.arange(horizon), upper - 1] = 1.0 - weight
        table[np.arange(horizon), upper] = weight
    return read_only(tables[0]), read_only(tables[1]), read_only(np.maximum(k - nodes[-1], 0.0))
