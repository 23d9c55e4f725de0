"""Fusing two Gaussian position estimates.

Walks through the gain-form update on small hand-checkable cases, shows
that the information (precision-weighted) form gives the same answer, and
demonstrates the limit behaviors that make the refinement loop safe: an
uninformative measurement leaves the prior alone, a razor-sharp one takes
over completely, and the fused covariance never exceeds either input.
"""

import numpy as np

from trajrefine import cov_from_params, fuse, gain_update, info_fuse

np.set_printoptions(precision=4, suppress=True)

# a Gaussian is a (2,) mean and a (2, 2) covariance; fuse(x, p, z, r)
# updates the prior (x, p) by the measurement (z, r)
print("=== two equally confident estimates ===")
x, p = np.array([0.0, 0.0]), np.eye(2)
z, r = np.array([2.0, 0.0]), np.eye(2)
mean, cov = fuse(x, p, z, r)
print("prior mean", x, " measurement mean", z)
print("fused mean", mean, "  (halfway)")
print("fused cov\n", cov, " (variance halves)")

print()
print("=== the gain decides who to trust ===")
# prior is sloppy in x (variance 4) but sharp in y (variance 1)
k, _ = gain_update(np.diag([4.0, 1.0]), np.eye(2))
print("gain for P=diag(4,1), R=I:\n", k)
print("x pulls 80% toward the measurement, y only 50%")

print()
print("=== gain form and information form agree ===")
# 200 random pairs at once: every argument carries a leading batch axis
rng = np.random.default_rng(0)
sx, sy = rng.uniform(0.3, 2.0, (2, 2, 200))
rho = rng.uniform(-0.9, 0.9, (2, 200))
covs = cov_from_params(sx, sy, rho)  # (2, 200, 2, 2)
means = rng.uniform(-5, 5, (2, 200, 2))
gain_means, _ = fuse(means[0], covs[0], means[1], covs[1])
info_means, _ = info_fuse(means[0], covs[0], means[1], covs[1])
worst = np.abs(gain_means - info_means).max()
print(f"largest mean disagreement over 200 random pairs: {worst:.2e}")

print()
print("=== limits ===")
print("R -> inf: fused mean", fuse(x, p, z, r * 1e12)[0], "== prior")
print("R -> 0:   fused mean", fuse(x, p, z, r * 1e-12)[0], "== measurement")

print()
print("=== refinement never increases uncertainty ===")
_, cov = fuse(x, p, z, r)
for name, other in (("prior", p), ("measurement", r)):
    print(f"eigenvalues of {name} cov - fused cov:", np.linalg.eigvalsh(other - cov))
