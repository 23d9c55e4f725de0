"""Fusion of two Gaussian position estimates.

Implements the gain-form update with the identity as observation matrix

    K = P (P + R)^-1
    x' = x + K (z - x)
    P' = (I - K) P

together with the algebraically equivalent precision-weighted (information)
form, which serves as an independent cross-check. The prior (x, P) plays the
role of a rollout estimate and the measurement (z, R) the role of a
goal-derived pseudo-observation. K and P' depend on the covariances only, so
the gain form takes no means. :func:`gain_table` writes it as closed-form
2x2 algebra over whole batches: turning R by an angle theta changes S = P + R
only through (cos 2 theta, sin 2 theta), and the numerators of K and P' and
det S are affine in them. :func:`rotated_gains` evaluates such a table for
N angles with one GEMM and one division, which is how the rollout engine
gets every gain of T steps and N segments from one cached (T, 2, 2) prior
and measurement table; :func:`gain_update` is the same at the identity
rotation, and :func:`fuse` the single-estimate adapter.
:func:`estimates_from_arrays` turns array output back into :class:`Estimate`
objects, validated once as arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gaussian import PSD_TOL, Cov2, is_psd, psd_rule

# Innovation covariances with determinant at or below this (relative) level
# signal that both inputs are degenerate in the same direction.
SINGULARITY_TOL = 1e-15


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


@dataclass(frozen=True, eq=False)
class Estimate:
    """A Gaussian position estimate: mean (meters) plus 2x2 covariance.

    Compared and hashed by identity: a generated field-wise ``==`` would
    compare the mean arrays, whose truth value is ambiguous.
    """

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


def gain_table(p: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Coefficients of fusing priors p with measurements r turned by any angle.

    p and r are (..., 2, 2) prior and measurement covariances that broadcast
    together to the batch shape B. Turning r by theta, Rot r Rot^T, leaves
    its trace and antisymmetric part alone and turns its anisotropic part
    (u, v) by 2 theta, so S = P + Rot r Rot^T = Q + u J1 + v J2 with Q fixed,
    J1 = diag(1, -1), J2 = [[0, 1], [1, 0]], and u^2 + v^2 fixed. det S, the
    gain numerator P adj(S) and the posterior numerator det(S) P -
    P adj(S) P are therefore affine in (1, cos 2 theta, sin 2 theta).

    Returns their (9, *B, 3) coefficients: rows 0-3 the gain numerator
    (row-major), rows 4-6 the posterior numerator's xx, xy (off-diagonals
    averaged, because the short-form expression is asymmetric under
    rounding) and yy, row 7 det S, and row 8 the singularity threshold
    1e-15 * max(1, tr(S)^2), which does not depend on the angle.
    """
    p, r = np.broadcast_arrays(np.asarray(p, dtype=float), np.asarray(r, dtype=float))
    pc, rc = _planes(p), _planes(r)  # pc[i, j] is the batch of p[..., i, j]
    h, b = 0.5 * (rc[0, 0] - rc[1, 1]), 0.5 * (rc[0, 1] + rc[1, 0])
    mid, skew = 0.5 * (rc[0, 0] + rc[1, 1]), 0.5 * (rc[0, 1] - rc[1, 0])
    (q00, q01), (q10, q11) = pc + np.array([[mid, skew], [-skew, mid]])
    adj_q = np.array([[q11, -q01], [-q10, q00]])
    pj1 = pc * np.array([1.0, -1.0]).reshape(1, 2, *(1,) * (pc.ndim - 2))  # P J1
    pj2 = pc[:, ::-1]  # P J2
    pa, pj1p, pj2p = _mul(pc, adj_q), _mul(pj1, pc), _mul(pj2, pc)
    g, f = q11 - q00, q01 + q10
    det_terms = (q00 * q11 - q01 * q10 - h * h - b * b, h * g - b * f, -(b * g + h * f))
    table = np.zeros((3, 9) + p.shape[:-2])  # [basis term, row, *B]
    for term, gain_num, pap in ((0, pa, _mul(pa, pc)),
                                (1, -(h * pj1 + b * pj2), -(h * pj1p + b * pj2p)),
                                (2, b * pj1 - h * pj2, b * pj1p - h * pj2p)):
        post = det_terms[term] * pc - pap
        table[term, :4] = gain_num.reshape(4, *p.shape[:-2])
        table[term, 4:8] = (post[0, 0], 0.5 * (post[0, 1] + post[1, 0]), post[1, 1],
                            det_terms[term])
    table[0, 8] = SINGULARITY_TOL * np.maximum(1.0, (q00 + q11) ** 2)
    return np.moveaxis(table, 0, -1).copy()


def rotated_gains(table: np.ndarray, rot: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gains and posterior covariances of a :func:`gain_table` at N rotations.

    rot is an (*R, 2, 2) batch of rotations [[c, -s], [s, c]]; under
    rotation n the measurement covariance is rot_n r rot_n^T. Returns gains
    K = P S^-1 and posterior covariances (I - K) P, each (*B, *R, 2, 2): one
    GEMM of the coefficients with (1, cos 2 theta, sin 2 theta) and one
    division, whatever B and R, in one buffer. The results are views of
    component-major (2, 2, *B, *R) planes; the posterior view is read-only
    and exactly symmetric.

    Raises SingularInnovationError when any S is numerically singular
    (determinant <= 1e-15 * max(1, trace^2)); a silent pseudo-inverse would
    hide a degenerate goal model.
    """
    c, s = rot[..., 0, 0], rot[..., 1, 0]
    basis = np.empty((3, *c.shape))
    basis[0], basis[1], basis[2] = 1.0, c * c - s * s, 2.0 * c * s
    out = (table.reshape(-1, 3) @ basis).reshape(9, *table.shape[1:-1], *c.shape)
    det = out[7]
    singular = det <= out[8]
    if singular.any():
        index = tuple(int(i) for i in np.argwhere(singular)[0])
        raise SingularInnovationError(
            f"innovation covariance is singular (det={det[index]:.3e})", index=index
        )
    np.divide(out[:7], det, out=out[:7])
    # the posterior's xx, xy, yy planes are rows 4-6, so entry (i, j) is row
    # 4 + i + j: a read-only view that is symmetric by construction
    plane = out.strides[0]
    covs = np.ndarray((2, 2, *det.shape), float, out[4:], 0, (plane, plane, *det.strides))
    covs.flags.writeable = False
    return _matrices(out[:4].reshape(2, 2, *det.shape)), _matrices(covs)


def gain_update(p: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gain and posterior covariance over any leading batch axes.

    p and r are (..., 2, 2) prior and measurement covariances that broadcast
    together. Returns the gain K = P (P + R)^-1 and the posterior covariance
    (I - K) P, symmetrized; the posterior mean is x + K (z - x). This is
    :func:`rotated_gains` of the :func:`gain_table` at the identity rotation,
    where every entry is the sum of two of its own coefficients, so a batch
    and its single entries agree bit for bit.

    Raises SingularInnovationError when any P + R is numerically singular
    (determinant <= 1e-15 * max(1, trace^2)).
    """
    return rotated_gains(gain_table(p, r), np.eye(2))


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of two batches of 2x2 matrices stored as (2, 2, ...) planes."""
    return a[:, 0, None] * b[0] + a[:, 1, None] * b[1]


def _planes(m: np.ndarray) -> np.ndarray:
    """(..., 2, 2) -> (2, 2, ...) view: one batch-shaped plane per entry."""
    return m.transpose(m.ndim - 2, m.ndim - 1, *range(m.ndim - 2))


def _matrices(planes: np.ndarray) -> np.ndarray:
    """(2, 2, ...) -> (..., 2, 2) view, the inverse of :func:`_planes`."""
    return planes.transpose(*range(2, planes.ndim), 0, 1)


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
