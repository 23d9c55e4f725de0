"""Fusing two Gaussian position estimates.

Walks through the gain-form update on small hand-checkable cases, shows
that the information (precision-weighted) form gives the same answer, and
demonstrates the limit behaviors that make the refinement loop safe: an
uninformative measurement leaves the prior alone, a razor-sharp one takes
over completely, and the fused covariance never exceeds either input.
"""

import numpy as np

from trajrefine import Cov2, Estimate, fuse, gain_update, info_fuse

np.set_printoptions(precision=4, suppress=True)

print("=== two equally confident estimates ===")
prior = Estimate([0.0, 0.0], Cov2.isotropic(1.0))
meas = Estimate([2.0, 0.0], Cov2.isotropic(1.0))
post = fuse(prior, meas)
print("prior mean", prior.mean, " measurement mean", meas.mean)
print("fused mean", post.mean, "  (halfway)")
print("fused cov\n", post.cov.as_matrix(), " (variance halves)")

print()
print("=== the gain decides who to trust ===")
# prior is sloppy in x (variance 4) but sharp in y (variance 1)
k, _ = gain_update(np.diag([4.0, 1.0]), np.eye(2))
print("gain for P=diag(4,1), R=I:\n", k)
print("x pulls 80% toward the measurement, y only 50%")

print()
print("=== gain form and information form agree ===")
rng = np.random.default_rng(0)
worst = 0.0
for _ in range(200):
    covs = []
    for _ in range(2):
        sx, sy, rho = rng.uniform(0.3, 2.0, 2).tolist() + [rng.uniform(-0.9, 0.9)]
        covs.append(Cov2(sx**2, rho * sx * sy, sy**2))
    a = Estimate(rng.uniform(-5, 5, 2), covs[0])
    b = Estimate(rng.uniform(-5, 5, 2), covs[1])
    worst = max(worst, np.abs(fuse(a, b).mean - info_fuse(a, b).mean).max())
print(f"largest mean disagreement over 200 random pairs: {worst:.2e}")

print()
print("=== limits ===")
vague = Estimate(meas.mean, meas.cov.scaled(1e12))
print("R -> inf: fused mean", fuse(prior, vague).mean, "== prior")
sharp = Estimate(meas.mean, meas.cov.scaled(1e-12))
print("R -> 0:   fused mean", fuse(prior, sharp).mean, "== measurement")

print()
print("=== refinement never increases uncertainty ===")
post = fuse(prior, meas)
for name, other in (("prior", prior), ("measurement", meas)):
    gap = other.cov.as_matrix() - post.cov.as_matrix()
    print(f"eigenvalues of {name} cov - fused cov:", np.linalg.eigvalsh(gap))
