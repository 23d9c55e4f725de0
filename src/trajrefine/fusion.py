"""Fusion of two Gaussian position estimates.

Implements the gain-form update with the identity as observation matrix

    K = P (P + R)^-1
    x' = x + K (z - x)
    P' = (I - K) P

together with the algebraically equivalent precision-weighted (information)
form, which serves as an independent cross-check. The prior (x, P) plays the
role of a rollout estimate and the measurement (z, R) the role of a
goal-derived pseudo-observation. K and P' depend on the covariances only, so
:func:`gain_update` takes no means: the rollout engine computes every gain of
a rollout in one call before stepping, and :func:`fuse` is the
single-estimate adapter. :func:`estimates_from_arrays` turns array output
back into :class:`Estimate` objects, validated once as arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gaussian import PSD_TOL, Cov2, is_psd, psd_rule

# Innovation covariances with determinant at or below this (relative) level
# signal that both inputs are degenerate in the same direction.
SINGULARITY_TOL = 1e-15

I2 = np.eye(2)


class SingularInnovationError(ValueError):
    """Raised when the innovation covariance is numerically singular.

    ``index`` is the batch index of the first singular entry in C order
    (empty for a single estimate); ``step`` is the rollout step when raised
    from the rollout engine, None otherwise.
    """

    def __init__(self, message: str, step: int | None = None, index: tuple = ()):
        super().__init__(message)
        self.step = step
        self.index = index


@dataclass(frozen=True)
class Estimate:
    """A Gaussian position estimate: mean (meters) plus 2x2 covariance."""

    mean: np.ndarray
    cov: Cov2

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=float).reshape(2)
        if not np.isfinite(mean).all():
            raise ValueError("estimate mean must be finite")
        object.__setattr__(self, "mean", mean)
        if not is_psd(self.cov, PSD_TOL):
            raise ValueError("estimate covariance must be positive semidefinite")


def estimates_from_arrays(means: np.ndarray, covs: np.ndarray) -> list[Estimate]:
    """One Estimate per row of (T, 2) means and (T, 2, 2) covariances.

    The same objects, and the same first error, as building
    ``Estimate(mean, Cov2.from_matrix(cov))`` row by row; the rows are
    validated once as arrays instead of 2T times in ``__post_init__``.
    """
    means = np.asarray(means, dtype=float).reshape(-1, 2)
    c = np.asarray(covs, dtype=float).reshape(-1, 2, 2)
    entries = np.stack([c[:, 0, 0], 0.5 * (c[:, 0, 1] + c[:, 1, 0]), c[:, 1, 1]], 1)
    finite = np.isfinite(entries).all(axis=1)
    mean_finite = np.isfinite(means).all(axis=1)
    psd = psd_rule(*entries.T, PSD_TOL)
    valid = finite & mean_finite & psd
    if not valid.all():  # an object checks its entries, then its mean, then PSD
        k = int(np.argmin(valid))
        raise ValueError("covariance entries must be finite" if not finite[k]
                         else "estimate mean must be finite" if not mean_finite[k]
                         else "estimate covariance must be positive semidefinite")
    return [_validated(Estimate, mean=m, cov=_validated(Cov2, sxx=sxx, sxy=sxy, syy=syy))
            for m, (sxx, sxy, syy) in zip(means, entries.tolist())]


def _validated(cls, **fields):
    """A frozen dataclass instance whose fields were already validated."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _inv2(m: np.ndarray, det: float) -> np.ndarray:
    """Closed-form inverse of a 2x2 matrix with precomputed determinant."""
    return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]], dtype=float) / det


def gain_update(p: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gain and posterior covariance over any leading batch axes.

    p and r are (..., 2, 2) prior and measurement covariances. Returns the
    gain K = P (P + R)^-1 and the posterior covariance (I - K) P,
    symmetrized because the short-form expression is asymmetric under
    rounding; the posterior mean is x + K (z - x).

    Raises SingularInnovationError when any P + R is numerically singular
    (determinant <= 1e-15 * max(1, trace^2)); a silent pseudo-inverse would
    hide a degenerate goal model.
    """
    s = p + r
    s00, s01, s10, s11 = s[..., 0, 0], s[..., 0, 1], s[..., 1, 0], s[..., 1, 1]
    det = s00 * s11 - s01 * s10
    singular = det <= SINGULARITY_TOL * np.maximum(1.0, (s00 + s11) ** 2)
    if np.any(singular):
        index = tuple(int(i) for i in np.argwhere(singular)[0])
        raise SingularInnovationError(
            f"innovation covariance is singular (det={det[index]:.3e})", index=index
        )
    adjugate = np.stack([s11, -s01, -s10, s00], axis=-1).reshape(s.shape)
    gain = p @ (adjugate / det[..., None, None])
    cov = (I2 - gain) @ p
    return gain, 0.5 * (cov + np.swapaxes(cov, -1, -2))


def fuse(prior: Estimate, measurement: Estimate) -> Estimate:
    """One gain-form update of ``prior`` by ``measurement``."""
    gain, cov = gain_update(prior.cov.as_matrix(), measurement.cov.as_matrix())
    mean = prior.mean + gain @ (measurement.mean - prior.mean)
    return Estimate(mean, Cov2.from_matrix(cov))


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
