"""Recursive least squares with a forgetting factor.

Feeds a stream of (feature, target) pairs through the recursive estimator
and compares against the batch normal-equation solution. The estimator
recurses on the normal equations themselves (the information form) and
solves them once at the end with the package's ridge solve, so with
forgetting 1 the two agree to rounding (about 1e-16); with forgetting < 1 the recursive fit tracks a slope that
drifts halfway through the stream, while the batch fit lands in between.
"""

import numpy as np

from trajrefine import fit_ar_rls

rng = np.random.default_rng(7)

print("=== forgetting = 1 reproduces the batch solution ===")
x = rng.normal(size=(80, 3))
true_w = np.array([1.0, -2.0, 0.5])
y = x @ true_w + 0.05 * rng.normal(size=80)
w_rls = fit_ar_rls(zip(x, y), forgetting=1.0, delta=1e-8)
w_batch = np.linalg.solve(x.T @ x + 1e-8 * np.eye(3), x.T @ y)
print("recursive:", np.round(w_rls, 6))
print("batch:    ", np.round(w_batch, 6))
print(f"max difference: {np.abs(w_rls - w_batch).max():.2e}")

print()
print("=== forgetting < 1 tracks a drifting parameter ===")
n = 400
xs = rng.uniform(0.5, 2.0, size=n)
slopes = np.where(np.arange(n) < n // 2, 2.0, -1.0)  # slope flips halfway
ys = slopes * xs + 0.02 * rng.normal(size=n)
pairs = [(np.array([v]), t) for v, t in zip(xs, ys)]

for lam in (1.0, 0.9):
    w = fit_ar_rls(pairs, forgetting=lam)
    print(f"forgetting {lam}: final slope estimate {w[0]:+.4f} "
          f"(true recent slope -1.0)")
print("equal weighting averages the two regimes; forgetting locks onto the new one")
