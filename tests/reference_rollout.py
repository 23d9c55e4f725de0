"""Frozen per-step rollout and fitting: the reference the array code is tested against.

A copy of the original scalar implementation, one segment and one step at a
time: ego-frame anchor prediction, per-step goal interpolation rebuilt at
every step, gain-form fusion of one 2x2 pair, buffer feedback, the
per-segment ar design and the per-step covariance calibration; and of the
per-anchor goal fit, one Gram matrix and one ridge solve per anchor on the
ego-frame offsets of every future point. It reads
only the fields of the parameter objects and datasets, never the package's
rollout, fitting, goal or fusion functions, so a change there cannot move
the reference. Keep the arithmetic as it is.
"""

from __future__ import annotations

import numpy as np

SINGULARITY_TOL = 1e-15
COV_FLOOR = 1e-6


class ReferenceSingularError(ValueError):
    def __init__(self, message, step):
        super().__init__(message)
        self.step = step


def cov_matrix(c) -> np.ndarray:
    """The symmetric matrix of a (2, 2) table entry, built from its upper triangle."""
    return np.array([[c[0, 0], c[0, 1]], [c[0, 1], c[1, 1]]], dtype=float)


def _symmetric(m: np.ndarray) -> np.ndarray:
    off = 0.5 * float(m[0, 1] + m[1, 0])
    return np.array([[m[0, 0], off], [off, m[1, 1]]], dtype=float)


def quadratic_coeffs(window: int) -> np.ndarray:
    t = np.arange(window, dtype=float)
    vander = np.column_stack([np.ones(window), t, t * t])
    return np.array([1.0, float(window), float(window) ** 2]) @ np.linalg.pinv(vander)


def buffer_len(params) -> int:
    return params.window if params.backbone in ("cv", "ca") else params.lag + 1


def predictor_init(params, history: np.ndarray) -> np.ndarray:
    history = np.asarray(history, dtype=float)
    need = buffer_len(params)
    if len(history) < need:
        raise ValueError(f"needs at least {need} history points")
    return history[-need:].copy()


def step_mean(params, buffer: np.ndarray) -> np.ndarray:
    if params.backbone == "cv":
        velocity = (buffer[-1] - buffer[0]) / ((len(buffer) - 1) * params.dt)
        return buffer[-1] + velocity * params.dt
    if params.backbone == "ca":
        return quadratic_coeffs(len(buffer)) @ buffer
    phi = np.diff(buffer, axis=0).ravel()
    return buffer[-1] + phi @ params.ar_weights


def predictor_step(params, buffer: np.ndarray, step: int):
    """Raw estimate for step ``step + 1`` and the shifted buffer."""
    if step >= len(params.step_covs):
        raise ValueError(
            f"rollout horizon of {len(params.step_covs)} steps exceeded at step "
            f"{step + 1}"
        )
    mean = step_mean(params, buffer)
    cov = cov_matrix(params.step_covs[step])
    return (mean, cov), np.vstack([buffer[1:], mean])


def predictor_feedback(buffer: np.ndarray, fused_mean: np.ndarray) -> np.ndarray:
    buffer = buffer.copy()
    buffer[-1] = np.asarray(fused_mean, dtype=float).reshape(2)
    return buffer


def _heading_angle(history: np.ndarray) -> float:
    net = history[-1] - history[0]
    if float(np.hypot(net[0], net[1])) < 1e-12:
        return 0.0
    return float(np.arctan2(net[1], net[0]))


def _rotation(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def predict_goals(goal_params, history: np.ndarray):
    """[(step, mean, cov)] in world coordinates, one entry per anchor."""
    history = np.asarray(history, dtype=float)
    rot = _rotation(_heading_angle(history)) if goal_params.rotate else np.eye(2)
    phi = (np.diff(history, axis=0) @ rot).ravel()
    origin = history[-1]
    anchors = []
    for step, w, rcov in zip(
        goal_params.anchor_steps, goal_params.weights, goal_params.residual_covs
    ):
        mean = origin + rot @ (phi @ w)
        world = rot @ cov_matrix(rcov) @ rot.T
        sx, sy = np.sqrt(world[0, 0]), np.sqrt(world[1, 1])
        rho = 0.5 * (world[0, 1] + world[1, 0]) / (sx * sy)
        cov = np.array([[sx * sx, rho * sx * sy], [rho * sx * sy, sy * sy]])
        anchors.append((step, mean, cov))
    return anchors


def goal_measurement_at(anchors, k: int, last_obs, epsilon: float, beta: float):
    if k < 1:
        raise ValueError("step index must be >= 1")
    last_obs = np.asarray(last_obs, dtype=float).reshape(2)
    nodes = [(0, last_obs, epsilon * np.eye(2))] + list(anchors)
    last_step, last_mean, last_cov = nodes[-1]
    if k >= last_step:  # the mean continues the line through the last two nodes
        s0, m0, _ = nodes[-2]
        w = (k - s0) / (last_step - s0)
        mean = (1.0 - w) * m0 + w * last_mean
        return mean, _symmetric(last_cov + beta * (k - last_step) * np.eye(2))
    for (s0, m0, c0), (s1, m1, c1) in zip(nodes, nodes[1:]):
        if s0 <= k <= s1:
            w = (k - s0) / (s1 - s0)
            return (1.0 - w) * m0 + w * m1, _symmetric((1.0 - w) * c0 + w * c1)
    raise AssertionError("unreachable")


def _inv2(m: np.ndarray, det: float) -> np.ndarray:
    return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]], dtype=float) / det


def fuse(prior, measurement):
    """Gain-form update with H = I of one (mean, cov) pair by another."""
    (x, p), (z, r) = prior, measurement
    s = p + r
    det = s[0, 0] * s[1, 1] - s[0, 1] * s[1, 0]
    if det <= SINGULARITY_TOL * max(1.0, (s[0, 0] + s[1, 1]) ** 2):
        raise ValueError(f"innovation covariance is singular (det={det:.3e})")
    k = p @ _inv2(s, det)
    mean = x + k @ (z - x)
    cov = (np.eye(2) - k) @ p
    return mean, _symmetric(0.5 * (cov + cov.T))


def rollout_vanilla(params, history, horizon):
    buffer = predictor_init(params, history)
    means, covs = [], []
    for step in range(horizon):
        (mean, cov), buffer = predictor_step(params, buffer, step)
        means.append(mean)
        covs.append(cov)
    return np.array(means), np.array(covs)


def rollout_refined(params, goal_params, history, horizon, epsilon=0.05, beta=0.5,
                    feedback="fused", goal_cov_scale=1.0):
    history = np.asarray(history, dtype=float)
    anchors = predict_goals(goal_params, history)
    buffer = predictor_init(params, history)
    means, covs = [], []
    for k in range(1, horizon + 1):
        raw, buffer = predictor_step(params, buffer, k - 1)
        z, r = goal_measurement_at(anchors, k, history[-1], epsilon, beta)
        if goal_cov_scale != 1.0:
            r = r * goal_cov_scale
        try:
            mean, cov = fuse(raw, (z, r))
        except ValueError as exc:
            raise ReferenceSingularError(f"step {k}: {exc}", step=k) from exc
        if feedback == "fused":
            buffer = predictor_feedback(buffer, mean)
        means.append(mean)
        covs.append(cov)
    return np.array(means), np.array(covs)


def ar_design(train, lag: int) -> tuple[np.ndarray, np.ndarray]:
    """Features and targets of the ar ridge fit, one row per segment and step."""
    feats, targets = [], []
    for seg in train.segments:
        disp = np.diff(np.vstack([seg.history, seg.future]), axis=0)
        for j in range(lag, len(disp)):
            feats.append(disp[j - lag : j].ravel())
            targets.append(disp[j])
    if not feats:
        raise ValueError("training segments are too short for the requested lag")
    return np.asarray(feats), np.asarray(targets)


def goal_fit(train, anchor_steps, ridge_lambda: float, val=None, rotate: bool = True):
    """Per-anchor weights (A, 2*tau, 2) and (A, 2, 2) residual covariances of
    the goal fit, calibrated on ``val`` when it has segments."""

    def design(ds):
        histories = np.array([seg.history for seg in ds.segments])
        futures = np.array([seg.future for seg in ds.segments])
        n, length, _ = histories.shape
        if rotate:
            net = histories[:, -1] - histories[:, 0]
            moving = np.hypot(net[:, 0], net[:, 1]) >= 1e-12
            theta = np.where(moving, np.arctan2(net[:, 1], net[:, 0]), 0.0)
            c, s = np.cos(theta), np.sin(theta)
            rot = np.stack([c, -s, s, c], axis=-1).reshape(n, 2, 2)
        else:
            rot = np.broadcast_to(np.eye(2), (n, 2, 2))
        feats = (np.diff(histories, axis=1) @ rot).reshape(n, 2 * (length - 1))
        return feats, (futures - histories[:, -1:]) @ rot

    x_train, y_train = design(train)
    holdout = val if val is not None and val.segments else train
    x_hold, y_hold = design(holdout)
    weights, resid = [], []
    for s in anchor_steps:
        gram = x_train.T @ x_train
        w = np.linalg.solve(gram + ridge_lambda * np.eye(gram.shape[0]),
                            x_train.T @ y_train[:, s - 1])
        weights.append(w)
        resid.append(x_hold @ w - y_hold[:, s - 1])
    e = np.swapaxes(np.stack(resid, 1), 0, 1)
    m = np.swapaxes(e, 1, 2) @ e / len(x_hold)
    return np.array(weights), 0.5 * (m + np.swapaxes(m, 1, 2)) + COV_FLOOR * np.eye(2)


def calibrated_step_covs(probe, calib, horizon: int) -> np.ndarray:
    """Per-step covariance table fitted from ``probe``'s vanilla errors."""
    errors = np.empty((len(calib.segments), horizon, 2))
    for i, seg in enumerate(calib.segments):
        means, _ = rollout_vanilla(probe, seg.history, horizon)
        errors[i] = means - seg.future[:horizon]
    table = []
    running_max = 0.0
    for k in range(horizon):
        e = errors[:, k, :]
        moment = e.T @ e / len(e) + COV_FLOOR * np.eye(2)
        trace = moment[0, 0] + moment[1, 1]
        if trace < running_max:
            moment = moment * (running_max / trace)
        running_max = max(running_max, trace)
        table.append(_symmetric(0.5 * (moment + moment.T)))
    return np.array(table)
