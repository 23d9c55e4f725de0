"""Goal-point model: once-per-segment anchor prediction and per-step measurements.

A set of goal anchors (future-step indices carrying a position Gaussian) is
predicted exactly once per segment from the observed history. Each anchor has
its own independent ridge regressor from ego-frame history displacements to
the anchor displacement, so removing one anchor never perturbs another.
:func:`goal_moments` predicts the anchors of a whole batch of histories as
arrays; :func:`predict_goals` is its one-history form and returns a GoalSet.

At refinement time :func:`interpolate_goals` turns the sparse anchors into a
pseudo-measurement for every horizon step. One fixed (T, A+1) table of linear
weights over a virtual step-0 anchor and the A anchors serves every segment;
steps past the last anchor hold it and inflate its covariance. Convex
combinations of PSD matrices are PSD, so every measurement covariance is.

The ego frame translates the last observed position to the origin and, by
default, rotates the net history heading onto +x so the regressors are
position- and heading-independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .gaussian import Cov2, Gaussian2D

RESIDUAL_FLOOR = 1e-6  # m^2 added to residual covariances; keeps fusion nonsingular

DEFAULT_ANCHOR_STEPS = (5, 10, 15, 20, 25)  # every whole second at dt = 0.2 s


@dataclass(frozen=True)
class GoalAnchor:
    """A future-step index together with its predicted position Gaussian."""

    step: int
    gaussian: Gaussian2D

    def __post_init__(self) -> None:
        if self.step < 1:
            raise ValueError("anchor step must be >= 1")


@dataclass(frozen=True)
class GoalSet:
    """Ordered, non-empty anchors with strictly increasing steps."""

    anchors: tuple[GoalAnchor, ...]

    def __post_init__(self) -> None:
        anchors = tuple(self.anchors)
        if not anchors:
            raise ValueError("goal set must contain at least one anchor")
        steps = [a.step for a in anchors]
        if any(b <= a for a, b in zip(steps, steps[1:])):
            raise ValueError(f"anchor steps must be strictly increasing, got {steps}")
        object.__setattr__(self, "anchors", anchors)

    @property
    def steps(self) -> tuple[int, ...]:
        return tuple(a.step for a in self.anchors)


@dataclass(frozen=True)
class GoalModelParams:
    """Per-anchor ridge regressors plus ego-frame configuration.

    weights[i] maps the flattened ego-frame history displacements
    (2*tau features) to the ego-frame displacement of anchor_steps[i];
    residual_covs[i] is the matching ego-frame residual covariance.
    """

    anchor_steps: tuple[int, ...]
    weights: tuple[np.ndarray, ...]
    residual_covs: tuple[Cov2, ...]
    history_len: int
    rotate: bool = True

    def __post_init__(self) -> None:
        steps = tuple(int(s) for s in self.anchor_steps)
        if not steps or any(s < 1 for s in steps):
            raise ValueError("anchor steps must be >= 1")
        if any(b <= a for a, b in zip(steps, steps[1:])):
            raise ValueError("anchor steps must be strictly increasing")
        if not (len(self.weights) == len(self.residual_covs) == len(steps)):
            raise ValueError("one (weights, residual_cov) pair required per anchor")
        feat = 2 * (self.history_len - 1)
        weights = tuple(np.asarray(w, dtype=float).reshape(feat, 2) for w in self.weights)
        for step, cov in zip(steps, self.residual_covs):
            if not (cov.sxx > 0.0 and cov.det > 0.0):
                raise ValueError(
                    f"residual covariance of anchor {step} is not positive definite"
                )
        object.__setattr__(self, "anchor_steps", steps)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "residual_covs", tuple(self.residual_covs))


def solve_ridge(x: np.ndarray, y: np.ndarray, ridge_lambda: float) -> np.ndarray:
    """Closed-form ridge solution of the normal equations (X^T X + lambda I) W = X^T Y.

    With ridge_lambda=0 the Gram matrix must be well conditioned.
    """
    gram = x.T @ x
    if ridge_lambda == 0.0:
        eigs = np.linalg.eigvalsh(gram)
        if eigs[0] <= 1e-12 * max(1.0, eigs[-1]):
            raise ValueError(
                "normal equations are singular with ridge_lambda=0 "
                "(rank-deficient features); add ridge or more data"
            )
    return np.linalg.solve(gram + ridge_lambda * np.eye(gram.shape[0]), x.T @ y)


def _ego_frame(histories: np.ndarray, rotate: bool) -> tuple[np.ndarray, np.ndarray]:
    """Ego-frame features and ego->world rotations of (N, n, 2) histories.

    Returns the flattened displacement features (N, 2*(n-1)) and the (N, 2, 2)
    rotations that turn each net history displacement onto +x; a stationary
    history, or rotate=False, keeps the world axes.
    """
    n, length, _ = histories.shape
    if rotate:
        net = histories[:, -1] - histories[:, 0]
        moving = np.hypot(net[:, 0], net[:, 1]) >= 1e-12
        theta = np.where(moving, np.arctan2(net[:, 1], net[:, 0]), 0.0)
        c, s = np.cos(theta), np.sin(theta)
        rot = np.stack([c, -s, s, c], axis=-1).reshape(n, 2, 2)
    else:
        rot = np.broadcast_to(np.eye(2), (n, 2, 2))
    disp = np.diff(histories, axis=1) @ rot  # each row rotated by -theta
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
    anchor displacement. Residual covariances are the second moment of the
    held-out residuals (training residuals when no validation set is given),
    floored with +1e-6 I so downstream fusion stays well conditioned.
    """
    if ridge_lambda < 0.0:
        raise ValueError("ridge_lambda must be >= 0")
    if not train.segments:
        raise ValueError("training set is empty")
    steps = tuple(int(s) for s in anchor_steps)
    if max(steps) > train.horizon:
        raise ValueError(
            f"anchor step {max(steps)} exceeds the future length {train.horizon}"
        )

    def design(ds: Dataset) -> tuple[np.ndarray, np.ndarray]:
        """Features and the ego-frame offsets of every future point."""
        histories = ds.histories()
        feats, rot = _ego_frame(histories, rotate)
        return feats, (ds.futures() - histories[:, -1:]) @ rot

    x_train, y_train = design(train)
    holdout = val if val is not None and val.segments else train
    if holdout is train:
        x_hold, y_hold = x_train, y_train
    else:
        if max(steps) > holdout.horizon:
            raise ValueError("validation futures are shorter than the last anchor")
        x_hold, y_hold = design(holdout)

    weights, residual_covs = [], []
    for step in steps:
        w = solve_ridge(x_train, y_train[:, step - 1], ridge_lambda)
        resid = x_hold @ w - y_hold[:, step - 1]
        second_moment = resid.T @ resid / len(resid)
        cov = 0.5 * (second_moment + second_moment.T) + RESIDUAL_FLOOR * np.eye(2)
        weights.append(w)
        residual_covs.append(Cov2.from_matrix(cov))
    return GoalModelParams(
        anchor_steps=steps,
        weights=tuple(weights),
        residual_covs=tuple(residual_covs),
        history_len=train.tau + 1,
        rotate=rotate,
    )


def goal_moments(
    params: GoalModelParams, histories: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Predict every configured anchor once for each of N observed histories.

    histories is (N, history_len, 2). Regression runs in the ego frame;
    means (N, A, 2) and residual covariances (N, A, 2, 2) are mapped back to
    world coordinates. Pure function of (params, histories).
    """
    histories = np.asarray(histories, dtype=float)
    if histories.ndim != 3 or histories.shape[1:] != (params.history_len, 2):
        raise ValueError(
            f"history shape {histories.shape[1:]} does not match the fitted "
            f"configuration ({params.history_len}, 2)"
        )
    feats, rot = _ego_frame(histories, params.rotate)
    n, anchors = len(histories), len(params.anchor_steps)
    ego = (feats @ np.concatenate(params.weights, axis=1)).reshape(n, anchors, 2)
    rot_t = np.swapaxes(rot, 1, 2)
    means = histories[:, -1:] + ego @ rot_t
    residual = np.array([c.as_matrix() for c in params.residual_covs])
    covs = rot[:, None] @ residual @ rot_t[:, None]
    return means, covs


def predict_goals(params: GoalModelParams, history: np.ndarray) -> GoalSet:
    """Anchors of one (history_len, 2) history as a GoalSet; see goal_moments."""
    means, covs = goal_moments(params, np.asarray(history, dtype=float)[None])
    return GoalSet(
        tuple(
            GoalAnchor(step, Gaussian2D.from_moments(mean, Cov2.from_matrix(cov)))
            for step, mean, cov in zip(params.anchor_steps, means[0], covs[0])
        )
    )


def interpolate_goals(
    anchor_steps: tuple[int, ...],
    last_obs: np.ndarray,
    means: np.ndarray,
    covs: np.ndarray,
    horizon: int,
    epsilon: float,
    beta: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Pseudo-measurements for future steps 1..horizon from sparse anchors.

    last_obs is (N, 2); means (N, A, 2) and covs (N, A, 2, 2) are the anchors
    of goal_moments. Anchor steps return the anchor Gaussian exactly. Steps
    between anchors (with a virtual step-0 anchor at the last observed
    position, variance epsilon) interpolate both mean and covariance
    linearly. Steps beyond the last anchor hold its mean and inflate its
    covariance by beta per step. Returns (N, T, 2) means and (N, T, 2, 2)
    covariances.
    """
    nodes = np.array((0, *anchor_steps), dtype=float)
    k = np.arange(1, horizon + 1, dtype=float)
    upper = np.clip(np.searchsorted(nodes, k), 1, len(nodes) - 1)
    lower_step, upper_step = nodes[upper - 1], nodes[upper]
    w = np.minimum((k - lower_step) / (upper_step - lower_step), 1.0)
    table = np.zeros((horizon, len(nodes)))  # (T, A+1) weights over the nodes
    table[np.arange(horizon), upper - 1] = 1.0 - w
    table[np.arange(horizon), upper] = w
    gap = np.maximum(k - nodes[-1], 0.0)  # steps held past the last anchor
    n = len(means)
    node_means = np.concatenate([np.asarray(last_obs, dtype=float)[:, None], means], 1)
    origin_cov = np.broadcast_to(epsilon * np.eye(2), (n, 1, 2, 2))
    node_covs = np.concatenate([origin_cov, covs], axis=1)
    z = table @ node_means
    r = np.einsum("ta,naij->ntij", table, node_covs)
    return z, r + beta * gap[:, None, None] * np.eye(2)
