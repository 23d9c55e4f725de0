"""Fusion of two Gaussian position estimates.

Implements the gain-form update

    K = P H^T (H P H^T + R)^-1
    x' = x + K (z - H x)
    P' = (I - K H) P

together with the algebraically equivalent precision-weighted (information)
form, which serves as an independent cross-check. The prior (x, P) plays the
role of a rollout estimate and the measurement (z, R) the role of a
goal-derived pseudo-observation; H is the identity in that pipeline but the
general form is kept in the API. The gain form is written once, over leading
batch axes, so the rollout engine updates a whole batch of segments per step
and the single-estimate functions here are thin adapters over it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gaussian import PSD_TOL, Cov2, is_psd

# Innovation covariances with determinant at or below this (relative) level
# signal that both inputs are degenerate in the same direction.
SINGULARITY_TOL = 1e-15

I2 = np.eye(2)


class SingularInnovationError(ValueError):
    """Raised when the innovation covariance is numerically singular.

    Carries the rollout step index when raised from within a refinement
    loop, None otherwise.
    """

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


@dataclass(frozen=True)
class Estimate:
    """A Gaussian position estimate: mean (meters) plus 2x2 covariance."""

    mean: np.ndarray
    cov: Cov2

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=float).reshape(2)
        if not np.all(np.isfinite(mean)):
            raise ValueError("estimate mean must be finite")
        object.__setattr__(self, "mean", mean)
        if not is_psd(self.cov, PSD_TOL):
            raise ValueError("estimate covariance must be positive semidefinite")


def _inv2(m: np.ndarray, det: float) -> np.ndarray:
    """Closed-form inverse of a 2x2 matrix with precomputed determinant."""
    return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]], dtype=float) / det


def gain_update(
    x: np.ndarray, p: np.ndarray, z: np.ndarray, r: np.ndarray, h: np.ndarray = I2
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gain-form update over any leading batch axes.

    x and z are (..., 2) means, p and r (..., 2, 2) covariances and h a
    (2, 2) observation matrix. Returns the gain K, the posterior mean and the
    posterior covariance (I - K H) P, symmetrized because the short-form
    expression is asymmetric under rounding.

    Raises SingularInnovationError when any H P H^T + R is numerically
    singular (determinant <= 1e-15 * max(1, trace^2)); a silent
    pseudo-inverse would hide a degenerate goal model.
    """
    ht = np.swapaxes(h, -1, -2)
    s = h @ p @ ht + r
    s00, s01, s10, s11 = s[..., 0, 0], s[..., 0, 1], s[..., 1, 0], s[..., 1, 1]
    det = s00 * s11 - s01 * s10
    singular = det <= SINGULARITY_TOL * np.maximum(1.0, (s00 + s11) ** 2)
    if np.any(singular):
        raise SingularInnovationError(
            f"innovation covariance is singular (det={det[singular].flat[0]:.3e})"
        )
    adjugate = np.stack([s11, -s01, -s10, s00], axis=-1).reshape(s.shape)
    gain = p @ ht @ (adjugate / det[..., None, None])
    mean = x + (gain @ (z - (h @ x[..., None])[..., 0])[..., None])[..., 0]
    cov = (I2 - gain @ h) @ p
    return gain, mean, 0.5 * (cov + np.swapaxes(cov, -1, -2))


def rls_gain(prior_cov: Cov2, meas_cov: Cov2, h: np.ndarray) -> np.ndarray:
    """Gain K = P H^T (H P H^T + R)^-1 as a 2x2 array (see :func:`gain_update`)."""
    h = np.asarray(h, dtype=float).reshape(2, 2)
    zero = np.zeros(2)
    return gain_update(zero, prior_cov.as_matrix(), zero, meas_cov.as_matrix(), h)[0]


def rls_update(prior: Estimate, measurement: Estimate, h: np.ndarray) -> Estimate:
    """One gain-form update of ``prior`` by ``measurement`` through ``h``."""
    h = np.asarray(h, dtype=float).reshape(2, 2)
    p, r = prior.cov.as_matrix(), measurement.cov.as_matrix()
    _, mean, cov = gain_update(prior.mean, p, measurement.mean, r, h)
    return Estimate(mean, Cov2.from_matrix(cov))


def fuse(prior: Estimate, measurement: Estimate) -> Estimate:
    """Gain-form fusion with the observation matrix fixed to the identity."""
    return rls_update(prior, measurement, I2)


def info_fuse(prior: Estimate, measurement: Estimate) -> Estimate:
    """Precision-weighted product of two Gaussians.

    Sigma' = (P^-1 + R^-1)^-1 and mu' = Sigma' (P^-1 x + R^-1 z). Identical
    to :func:`fuse` for positive-definite inputs; kept as an independent
    formulation so the two can validate each other.
    """
    p = prior.cov.as_matrix()
    r = measurement.cov.as_matrix()
    p_det = prior.cov.det
    r_det = measurement.cov.det
    if prior.cov.sxx <= 0.0 or p_det <= 0.0:
        raise ValueError("prior covariance must be positive definite")
    if measurement.cov.sxx <= 0.0 or r_det <= 0.0:
        raise ValueError("measurement covariance must be positive definite")
    p_inv = _inv2(p, p_det)
    r_inv = _inv2(r, r_det)
    info = p_inv + r_inv
    cov = _inv2(info, info[0, 0] * info[1, 1] - info[0, 1] * info[1, 0])
    cov = 0.5 * (cov + cov.T)
    mean = cov @ (p_inv @ prior.mean + r_inv @ measurement.mean)
    return Estimate(mean, Cov2.from_matrix(cov))
