"""Fusion of two Gaussian position estimates.

Implements the gain-form update with the identity as observation matrix

    K = P (P + R)^-1
    x' = x + K (z - x)
    P' = (I - K) P

together with the algebraically equivalent precision-weighted (information)
form, which serves as an independent cross-check. The prior (x, P) plays the
role of a rollout estimate and the measurement (z, R) the role of a
goal-derived pseudo-observation. :func:`gain_table` and :func:`rotated_gains`
give, in one GEMM, the gains of a batch whose measurements differ only by a
rotation; :func:`gain_update` is the identity rotation, and :func:`fuse` adds
the means. Inputs are judged by :func:`~trajrefine.gaussian.cov_entries`.
"""

from __future__ import annotations

from itertools import repeat

import numpy as np

from .gaussian import Cov2, cov_entries

# Innovation covariances with determinant at or below this (relative) level
# signal that both inputs are degenerate in the same direction.
SINGULARITY_TOL = 1e-15


class SingularInnovationError(ValueError):
    """Raised when the innovation covariance is numerically singular.

    ``index`` is the batch index of the first singular entry in C order
    (empty for unbatched inputs); ``step`` is the rollout step when raised
    from the rollout engine, None otherwise.
    """

    def __init__(self, message: str, step: int | None = None, index: tuple = ()):
        super().__init__(message)
        self.step = step
        self.index = index


class Estimate:
    """A (2,) mean in meters and its covariance, as the adapters return it.

    Compared and hashed by identity: a field-wise ``==`` would compare the
    mean arrays, whose truth value is ambiguous.
    """

    __slots__ = ("mean", "cov")

    def __init__(self, mean: np.ndarray, cov: Cov2):
        self.mean, self.cov = mean, cov


def estimates_from_arrays(means: np.ndarray, covs: np.ndarray) -> list[Estimate]:
    """One Estimate per row of (T, 2) means and (T, 2, 2) covariances, checked
    once as arrays; off-diagonal entries are averaged."""
    means, _, (sxx, sxy, syy) = _checked(np.asarray(means, dtype=float).reshape(-1, 2),
                                         np.asarray(covs, dtype=float).reshape(-1, 2, 2))
    entries = zip(sxx.tolist(), sxy.tolist(), syy.tolist())
    return list(map(Estimate, means, map(tuple.__new__, repeat(Cov2), entries)))


def _checked(means, covs, definite: bool = False) -> tuple[np.ndarray, np.ndarray, tuple]:
    """Means and covariances as float arrays, and the covariances' (sxx, sxy,
    syy) by :func:`~trajrefine.gaussian.cov_entries`; ValueError unless the
    means are finite and every covariance is valid (PD if ``definite``)."""
    means, covs = np.asarray(means, dtype=float), np.asarray(covs, dtype=float)
    sxx, sxy, syy, finite, valid = cov_entries(covs, definite)
    if not (np.isfinite(means).all() and finite.all()):
        raise ValueError("means, covariances and their determinants must be finite")
    if not valid.all():
        raise ValueError(f"covariance must be positive {'' if definite else 'semi'}definite")
    return means, covs, (sxx, sxy, syy)


def gain_table(p: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Coefficients of fusing priors p with measurements r turned by any angle.

    p and r are (..., 2, 2) prior and measurement covariances that broadcast
    together to the batch shape B. Turning r by theta, Rot r Rot^T, leaves
    its trace and antisymmetric part alone and turns its anisotropic part
    (u, v) by 2 theta, so S = P + Rot r Rot^T = Q + u J1 + v J2 with Q fixed,
    J1 = diag(1, -1), J2 = [[0, 1], [1, 0]], and u^2 + v^2 fixed. det S and
    the gain numerator P adj(S) are therefore affine in (1, cos 2 theta,
    sin 2 theta), and so is the posterior numerator P adj(S) R = det(P) R +
    det(R) P of (I - K) P = P S^-1 R: a sum of two PSD terms, where the
    equal form det(S) P - P adj(S) P cancels when P is much larger than R.

    p and r are first divided by 2^e, the power of two that brings a tr(S) of 1
    or more into [0.5, 1), so that no product overflows. That is exact: the
    gains keep their bits, and the posterior rows are multiplied back by 2^e.

    Returns their (10, *B, 3) coefficients: rows 0-3 the gain numerator
    (row-major), rows 4-6 the posterior numerator's xx, xy (the mean of the
    two off-diagonals) and yy, row 7 det S / 4^e, row 8 the singularity
    threshold 1e-15 * max(1, tr(S)^2) / 4^e, which does not depend on the
    angle, and row 9 2^-e and (det R - det P) / 4^e (first two columns).
    The trace of the gain numerator P adj(S) is 2 det P + tr(adj(P) Rot r
    Rot^T), so det S = det P + det R + tr(adj(P) Rot r Rot^T) is that trace
    plus row 9's second column: for PSD inputs a sum of non-negative terms,
    which does not cancel to rounding noise where row 7 does, when
    det(S) / tr(S)^2 is below the float's precision. Only the singular
    error reads it.
    """
    p, r = np.broadcast_arrays(np.asarray(p, dtype=float), np.asarray(r, dtype=float))
    unit = np.ldexp(1.0, -np.maximum(np.frexp(np.trace(p + r, 0, -2, -1))[1], 0))
    pc, rc = _planes(p) * unit, _planes(r) * unit  # pc[i, j] is the batch of p[..., i, j]
    h, b = 0.5 * (rc[0, 0] - rc[1, 1]), 0.5 * (rc[0, 1] + rc[1, 0])
    mid, skew = 0.5 * (rc[0, 0] + rc[1, 1]), 0.5 * (rc[0, 1] - rc[1, 0])
    (q00, q01), (q10, q11) = pc + np.array([[mid, skew], [-skew, mid]])
    adj_q = np.array([[q11, -q01], [-q10, q00]])
    pj1 = pc * np.array([1.0, -1.0]).reshape(1, 2, *(1,) * (pc.ndim - 2))  # P J1
    pj2 = pc[:, ::-1]  # P J2
    g, f = q11 - q00, q01 + q10
    det_terms = (q00 * q11 - q01 * q10 - h * h - b * b, h * g - b * f, -(b * g + h * f))
    det_p, det_r = (m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0] for m in (pc, rc))
    dh, db = det_p * h, det_p * b  # det(P) (u J1 + v J2) at the two basis angles
    posts = ((det_p * mid + det_r * pc[0, 0], det_r * (0.5 * (pc[0, 1] + pc[1, 0])),
              det_p * mid + det_r * pc[1, 1]), (dh, db, -dh), (-db, dh, db))
    table = np.zeros((3, 10) + p.shape[:-2])  # [basis term, row, *B]
    for term, gain_num in ((0, _mul(pc, adj_q)), (1, -(h * pj1 + b * pj2)), (2, b * pj1 - h * pj2)):
        table[term, :4] = gain_num.reshape(4, *p.shape[:-2])
        table[term, 4:8] = (*posts[term], det_terms[term])
    table[:, 4:7] /= unit
    table[0, 8] = SINGULARITY_TOL * np.maximum(unit * unit, (q00 + q11) ** 2)
    table[:2, 9] = unit, det_r - det_p
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
    out = (table[:9].reshape(-1, 3) @ basis).reshape(9, *table.shape[1:-1], *c.shape)
    det = out[7]
    singular = det <= out[8]
    if singular.any():
        index = tuple(int(i) for i in np.argwhere(singular)[0])
        entry = table[(slice(None), *index[:table.ndim - 2])]  # (10, 3)
        angle = basis[(slice(None), *index[table.ndim - 2:])]  # (1, cos 2 theta, sin 2 theta)
        # det S = tr(P adj(S)) + det R - det P, in the caller's units below
        unit, det_s = float(entry[9, 0]), float((entry[0] + entry[3]) @ angle + entry[9, 1])
        raise SingularInnovationError(
            f"innovation covariance is singular (det={det_s / unit / unit:.3e})", index=index)
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


def _apply(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(..., 2, 2) matrices times (..., 2) vectors, entry by entry (batch-exact)."""
    return m[..., 0] * v[..., None, 0] + m[..., 1] * v[..., None, 1]


def fuse(x, p, z, r) -> tuple[np.ndarray, np.ndarray]:
    """Gain-form update of priors (x, p) by measurements (z, r).

    Means are (..., 2) and covariances (..., 2, 2) over broadcasting batch
    axes; returns the posterior means and :func:`gain_update`'s covariances.
    Raises ValueError for a non-finite input or a non-PSD covariance, and
    SingularInnovationError for a singular P + R; ValueError too if the
    posterior overflows.
    """
    (x, p, _), (z, r, _) = _checked(x, p), _checked(z, r)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is named below
        gain, cov = gain_update(p, r)
        mean = x + _apply(gain, z - x)
    if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
        raise ValueError("posterior is not finite")
    return mean, cov


def info_fuse(x, p, z, r) -> tuple[np.ndarray, np.ndarray]:
    """Precision-weighted product of Gaussians, arrays as in :func:`fuse`.

    Sigma' = (P^-1 + R^-1)^-1 and mu' = Sigma' (P^-1 x + R^-1 z). Identical
    to :func:`fuse` for positive-definite inputs, which it requires; kept
    as an independent formulation so the two can validate each other.
    """
    (x, p, _), (z, r, _) = _checked(x, p, definite=True), _checked(z, r, definite=True)
    p_inv, r_inv = np.linalg.inv(p), np.linalg.inv(r)
    cov = np.linalg.inv(p_inv + r_inv)
    cov = 0.5 * (cov + np.swapaxes(cov, -1, -2))
    return _apply(cov, _apply(p_inv, x) + _apply(r_inv, z)), cov
