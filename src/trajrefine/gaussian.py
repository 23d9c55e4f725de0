"""Bivariate Gaussian primitives.

Positions are 2-D points in meters. Gaussians are plain (..., 2) mean and
(..., 2, 2) covariance arrays; only the one-segment rollout adapters emit
:class:`Cov2` records. The (sigma_x, sigma_y, rho) parameterization is used
at the I/O boundary; conversion functions between the two forms live here,
and so does the one rule on whether a covariance is valid (:func:`cov_entries`).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

# Relative PSD tolerance suited to double precision on meter-scale covariances.
PSD_TOL = 1e-9


class Cov2(NamedTuple):
    """Unchecked covariance entries (sxx, sxy, syy) in m^2 of one estimate
    that the one-segment rollout adapters return; an immutable tuple, equal
    by value."""

    sxx: float
    sxy: float
    syy: float


def cov_from_params(sigma_x, sigma_y, rho) -> np.ndarray:
    """(..., 2, 2) covariances of (sigma_x, sigma_y, rho) Gaussians.

    The arguments are floats or arrays that broadcast together. Each matrix
    is [[sx^2, rho*sx*sy], [rho*sx*sy, sy^2]], which has determinant
    sx^2 * sy^2 * (1 - rho^2) > 0 for valid inputs: finite sigmas > 0, |rho| < 1.
    """
    sx, sy, rho = (np.asarray(v, dtype=float) for v in (sigma_x, sigma_y, rho))
    if not (((0.0 < sx) & (sx < np.inf)).all() and ((0.0 < sy) & (sy < np.inf)).all()):
        raise ValueError("sigma_x and sigma_y must be finite and positive")
    if not (np.abs(rho) < 1.0).all():
        raise ValueError("|rho| must be strictly less than 1")
    sxy = rho * sx * sy
    out = np.stack(np.broadcast_arrays(sx * sx, sxy, sxy, sy * sy), -1)
    return out.reshape(*out.shape[:-1], 2, 2)


def _sigma_rho(sxx, sxy, syy, valid, sqrt=math.sqrt):
    """(sigma_x, sigma_y, rho) of covariance entries judged ``valid`` (finite
    and PD), the one formula for both forms: floats as given, arrays with
    ``sqrt=np.sqrt``."""
    if not valid:
        raise ValueError("covariance is not positive definite")
    sigma_x, sigma_y = sqrt(sxx), sqrt(syy)
    return sigma_x, sigma_y, sxy / (sigma_x * sigma_y)


def params_from_cov(c: Cov2) -> tuple[float, float, float]:
    """(sigma_x, sigma_y, rho) of one :class:`Cov2`, judged in floats by the
    rule of :func:`cov_entries`: a finite determinant and :func:`pd_rule`."""
    sxx, sxy, syy = map(float, c)  # a float overflows quietly, a numpy scalar warns
    finite = math.isfinite(sxx * syy - sxy * sxy)  # NaN or infinite if an entry is
    return _sigma_rho(sxx, sxy, syy, finite and pd_rule(sxx, sxy, syy))


def params_from_covs(covs: np.ndarray) -> np.ndarray:
    """(sigma_x, sigma_y, rho) of each (..., 2, 2) covariance as a (..., 3) array.

    Bitwise the same as :func:`params_from_cov` of each matrix's entries,
    with the off-diagonal the mean of its two entries; every covariance must
    be finite and positive definite. Inverse of :func:`cov_from_params`.
    """
    sxx, sxy, syy, finite, valid = cov_entries(covs, definite=True)
    if not finite.all():
        raise ValueError("covariance entries and determinants must be finite")
    return np.stack(_sigma_rho(sxx, sxy, syy, valid.all(), np.sqrt), axis=-1)


def cov_entries(covs, definite: bool = False, symmetric: bool = False):
    """The package's covariance rule: (sxx, sxy, syy, finite, valid) of (..., 2, 2)
    covariances, sxy the mean of the off-diagonals; per covariance, ``finite``
    if every entry and the determinant are, ``valid`` if also PSD by :func:`psd_rule`
    (PD by :func:`pd_rule` if ``definite``), with equal off-diagonals if ``symmetric``;
    sxx * syy and the determinant are computed once, for both tests."""
    c = np.asarray(covs, dtype=float)
    sxx, syy, upper, lower = c[..., 0, 0], c[..., 1, 1], c[..., 0, 1], c[..., 1, 0]
    with np.errstate(over="ignore", invalid="ignore"):  # such entries fail the rules
        sxy = 0.5 * (upper + lower)
        # the determinant is NaN or infinite if an entry is
        finite = np.isfinite(det := (prod := sxx * syy) - sxy * sxy)
        valid = finite & _rule(definite, sxx, syy, prod, det)
    return sxx, sxy, syy, finite, (valid & (upper == lower) if symmetric else valid)


def pd_rule(sxx, sxy, syy):
    """The positive-definite rule on covariance entries, floats or arrays (elementwise):
    sxx > 0 and a determinant > 0, which give syy > 0; a NaN entry fails it."""
    return _rule(True, sxx, syy, prod := sxx * syy, prod - sxy * sxy)


def psd_rule(sxx, sxy, syy):
    """The PSD rule, tolerant by PSD_TOL, on covariance entries as
    :func:`pd_rule` takes them; a NaN entry fails it."""
    return _rule(False, sxx, syy, prod := sxx * syy, prod - sxy * sxy)


def _rule(definite: bool, sxx, syy, prod, det):
    """:func:`pd_rule` if ``definite``, else :func:`psd_rule`, of the diagonal
    entries, their product and the determinant."""
    return ((sxx > 0.0) & (det > 0.0) if definite else
            (sxx >= -PSD_TOL) & (syy >= -PSD_TOL) & (det >= -PSD_TOL * np.maximum(1.0, prod)))


def log_density(mean: np.ndarray, cov: np.ndarray, point: np.ndarray) -> np.ndarray:
    """Log-density in nats of N(mean, cov) at point, over leading batch axes.

    mean and point are finite (..., 2), cov is (..., 2, 2) and positive definite.
    """
    mean, point = np.asarray(mean, dtype=float), np.asarray(point, dtype=float)
    if not (np.isfinite(mean).all() and np.isfinite(point).all()):
        raise ValueError("mean and point must be finite")
    sxx, sxy, syy, _, valid = cov_entries(cov, definite=True)
    if not valid.all():
        raise ValueError("covariance is not positive definite")
    det = sxx * syy - sxy * sxy
    d = point - mean
    u, v = d[..., 0], d[..., 1]
    quad = (syy * u * u - 2.0 * sxy * u * v + sxx * v * v) / det
    return -np.log(2.0 * np.pi) - 0.5 * np.log(det) - 0.5 * quad
