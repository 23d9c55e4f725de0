"""Bivariate Gaussian primitives.

Positions are 2-D points in meters. Covariances are symmetric 2x2 matrices
stored by their three free entries (sxx, sxy, syy), which keeps symmetry
exact by construction and makes positive-semidefiniteness checks cheap.
The (sigma_x, sigma_y, rho) parameterization is used at the I/O boundary;
conversion functions between the two forms live here. Batches of Gaussians
are plain (..., 2) mean and (..., 2, 2) covariance arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Relative PSD tolerance suited to double precision on meter-scale covariances.
PSD_TOL = 1e-9


@dataclass(frozen=True)
class Cov2:
    """Symmetric 2x2 covariance in m^2, stored as (sxx, sxy, syy).

    Entries are only required to be finite; definiteness is checked
    explicitly via :func:`is_psd` so that difference matrices can be
    represented too.
    """

    sxx: float
    sxy: float
    syy: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.sxx) and math.isfinite(self.sxy)
                and math.isfinite(self.syy)):
            raise ValueError("covariance entries must be finite")

    @property
    def trace(self) -> float:
        return self.sxx + self.syy

    @property
    def det(self) -> float:
        return self.sxx * self.syy - self.sxy * self.sxy

    def as_matrix(self) -> np.ndarray:
        return np.array([[self.sxx, self.sxy], [self.sxy, self.syy]], dtype=float)

    def scaled(self, factor: float) -> Cov2:
        return Cov2(self.sxx * factor, self.sxy * factor, self.syy * factor)

    @staticmethod
    def from_matrix(m: np.ndarray) -> Cov2:
        """Build from a 2x2 array, averaging the off-diagonal entries."""
        m = np.asarray(m, dtype=float)
        return Cov2(float(m[0, 0]), 0.5 * float(m[0, 1] + m[1, 0]), float(m[1, 1]))

    @staticmethod
    def isotropic(variance: float) -> Cov2:
        return Cov2(variance, 0.0, variance)


def cov_from_params(sigma_x: float, sigma_y: float, rho: float) -> Cov2:
    """Covariance matrix of a (sigma_x, sigma_y, rho) Gaussian.

    Returns [[sx^2, rho*sx*sy], [rho*sx*sy, sy^2]], which has determinant
    sx^2 * sy^2 * (1 - rho^2) > 0 for valid inputs.
    """
    if not (sigma_x > 0.0 and sigma_y > 0.0):
        raise ValueError("sigma_x and sigma_y must be positive")
    if not abs(rho) < 1.0:
        raise ValueError("|rho| must be strictly less than 1")
    return Cov2(sigma_x * sigma_x, rho * sigma_x * sigma_y, sigma_y * sigma_y)


def _sigma_rho(sxx, sxy, syy, sqrt=math.sqrt, any_=bool):
    """(sigma_x, sigma_y, rho) of covariance entries, the one formula for both
    forms: floats as given, arrays with ``sqrt=np.sqrt, any_=np.any``. Every
    covariance must be positive definite."""
    if any_((sxx <= 0.0) | (syy <= 0.0) | (sxx * syy - sxy * sxy <= 0.0)):
        raise ValueError("covariance is not positive definite")
    sigma_x, sigma_y = sqrt(sxx), sqrt(syy)
    return sigma_x, sigma_y, sxy / (sigma_x * sigma_y)


def params_from_cov(c: Cov2) -> tuple[float, float, float]:
    """Inverse of :func:`cov_from_params`; requires a positive-definite input."""
    return _sigma_rho(c.sxx, c.sxy, c.syy)


def params_from_covs(covs: np.ndarray) -> np.ndarray:
    """(sigma_x, sigma_y, rho) of each (..., 2, 2) covariance as a (..., 3) array.

    Bitwise the same as :func:`params_from_cov` of ``Cov2.from_matrix`` of
    each matrix: the off-diagonal is the mean of its two entries, and every
    covariance must be finite and positive definite.
    """
    c = np.asarray(covs, dtype=float)
    sxx, syy = c[..., 0, 0], c[..., 1, 1]
    sxy = 0.5 * (c[..., 0, 1] + c[..., 1, 0])
    if not (np.isfinite(sxx) & np.isfinite(sxy) & np.isfinite(syy)).all():
        raise ValueError("covariance entries must be finite")
    return np.stack(_sigma_rho(sxx, sxy, syy, np.sqrt, np.any), axis=-1)


def psd_rule(sxx, sxy, syy, tol: float = PSD_TOL):
    """The tolerant PSD rule on covariance entries, floats or arrays
    (elementwise); a NaN entry fails it."""
    return ((sxx >= -tol) & (syy >= -tol)
            & (sxx * syy - sxy * sxy >= -tol * np.maximum(1.0, sxx * syy)))


def is_psd(c: Cov2, tol: float = PSD_TOL) -> bool:
    """Tolerant positive-semidefiniteness test for a symmetric 2x2 matrix."""
    if tol < 0.0:
        raise ValueError("tol must be non-negative")
    return bool(psd_rule(c.sxx, c.sxy, c.syy, tol))


def log_density(mean: np.ndarray, cov: np.ndarray, point: np.ndarray) -> np.ndarray:
    """Log-density in nats of N(mean, cov) at point, over leading batch axes.

    mean and point are (..., 2), cov is (..., 2, 2) and positive definite.
    """
    d = np.asarray(point, dtype=float) - np.asarray(mean, dtype=float)
    c = np.asarray(cov, dtype=float)
    sxx, sxy, syy = c[..., 0, 0], c[..., 0, 1], c[..., 1, 1]
    det = sxx * syy - sxy * sxy
    if np.any(sxx <= 0.0) or np.any(det <= 0.0):
        raise ValueError("covariance is not positive definite")
    u, v = d[..., 0], d[..., 1]
    quad = (syy * u * u - 2.0 * sxy * u * v + sxx * v * v) / det
    return -np.log(2.0 * np.pi) - 0.5 * np.log(det) - 0.5 * quad
