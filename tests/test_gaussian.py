import math

import numpy as np
import pytest

from trajrefine.gaussian import (
    Cov2,
    cov_from_params,
    log_density,
    params_from_cov,
    params_from_covs,
    psd_rule,
)


class TestCovFromParams:
    def test_diagonal_case(self):
        assert cov_from_params(1.0, 2.0, 0.0).tolist() == [[1.0, 0.0], [0.0, 4.0]]

    def test_correlated_case(self):
        assert cov_from_params(1.0, 1.0, 0.5).tolist() == [[1.0, 0.5], [0.5, 1.0]]

    def test_negative_correlation(self):
        assert cov_from_params(2.0, 3.0, -0.25).tolist() == [[4.0, -1.5], [-1.5, 9.0]]

    @pytest.mark.parametrize("sx,sy,rho", [(0.0, 1.0, 0.0), (1.0, -2.0, 0.0),
                                           (1.0, 1.0, 1.0), (1.0, 1.0, -1.5)])
    def test_domain_errors(self, sx, sy, rho):
        with pytest.raises(ValueError):
            cov_from_params(sx, sy, rho)

    def test_arrays_broadcast_to_a_batch_of_matrices(self):
        sx, sy, rho = np.array([1.0, 2.0]), 3.0, np.array([[0.0], [-0.25]])
        out = cov_from_params(sx, sy, rho)
        assert out.shape == (2, 2, 2, 2)
        for i, j in np.ndindex(2, 2):
            assert out[i, j].tobytes() == cov_from_params(sx[j], sy, rho[i, 0]).tobytes()

    def test_one_bad_entry_rejects_the_batch(self):
        with pytest.raises(ValueError, match="rho"):
            cov_from_params([1.0, 1.0], [1.0, 1.0], [0.5, 1.0])
        with pytest.raises(ValueError, match="positive"):
            cov_from_params([1.0, np.nan], 1.0, 0.0)

    def test_always_positive_definite(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            sx = rng.uniform(1e-3, 50.0)
            sy = rng.uniform(1e-3, 50.0)
            rho = rng.uniform(-0.999, 0.999)
            c = cov_from_params(sx, sy, rho)
            assert c[0, 0] * c[1, 1] - c[0, 1] * c[1, 0] > 0.0
            assert c[0, 0] > 0.0 and c[1, 1] > 0.0


class TestParamsFromCov:
    def test_inverse_of_diagonal(self):
        assert params_from_cov(Cov2(1.0, 0.0, 4.0)) == (1.0, 2.0, 0.0)

    def test_inverse_of_correlated(self):
        sx, sy, rho = params_from_cov(Cov2(4.0, -1.5, 9.0))
        assert (sx, sy) == (2.0, 3.0)
        assert rho == pytest.approx(-0.25, abs=1e-15)

    def test_indefinite_matrix_rejected(self):
        with pytest.raises(ValueError):
            params_from_cov(Cov2(1.0, 1.001, 1.0))

    def test_nonpositive_diagonal_rejected(self):
        with pytest.raises(ValueError):
            params_from_cov(Cov2(-1.0, 0.0, 1.0))

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            sx = rng.uniform(0.01, 10.0)
            sy = rng.uniform(0.01, 10.0)
            rho = rng.uniform(-0.99, 0.99)
            c = cov_from_params(sx, sy, rho)
            rx, ry, rr = params_from_cov(Cov2(c[0, 0], c[0, 1], c[1, 1]))
            assert abs(rx - sx) < 1e-12
            assert abs(ry - sy) < 1e-12
            assert abs(rr - rho) < 1e-12


class TestParamsFromCovs:
    def random_covs(self, shape):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(*shape, 2, 2)) * rng.uniform(1e-4, 30.0, size=(*shape, 1, 1))
        covs = a @ np.swapaxes(a, -1, -2) + 1e-9 * np.eye(2)
        covs[..., 0, 1] *= 1.0 + 1e-12 * rng.normal(size=shape)  # off-diagonals differ
        return covs

    def test_bitwise_equal_to_the_per_matrix_loop(self):
        covs = self.random_covs((7, 25))
        expected = np.empty((7, 25, 3))
        for idx in np.ndindex(7, 25):
            m = covs[idx]
            sxy = 0.5 * float(m[0, 1] + m[1, 0])
            sx, sy = math.sqrt(float(m[0, 0])), math.sqrt(float(m[1, 1]))
            expected[idx] = (sx, sy, sxy / (sx * sy))
        out = params_from_covs(covs)
        assert out.shape == (7, 25, 3)
        assert out.tobytes() == expected.tobytes()
        m = covs[3, 4]
        one = params_from_cov(Cov2(m[0, 0], 0.5 * (m[0, 1] + m[1, 0]), m[1, 1]))
        assert [float(v) for v in one] == out[3, 4].tolist()

    def test_one_indefinite_matrix_rejects_the_batch(self):
        covs = self.random_covs((4, 3))
        covs[2, 1] = [[1.0, 1.001], [1.001, 1.0]]
        with pytest.raises(ValueError, match="not positive definite"):
            params_from_covs(covs)

    def test_non_finite_entry_rejected(self):
        covs = self.random_covs((4, 3))
        covs[0, 2, 1, 0] = np.inf
        with pytest.raises(ValueError, match="must be finite"):
            params_from_covs(covs)

    def test_empty_batch(self):
        assert params_from_covs(np.empty((0, 25, 2, 2))).shape == (0, 25, 3)


class TestIsPsd:
    """:func:`psd_rule` decides whether covariance entries are PSD."""

    def test_identity(self):
        assert psd_rule(1.0, 0.0, 1.0)

    def test_negative_determinant(self):
        assert not psd_rule(1.0, 2.0, 1.0)

    def test_zero_matrix_boundary(self):
        assert psd_rule(0.0, 0.0, 0.0)

    def test_elementwise_on_arrays_and_nan_fails(self):
        got = psd_rule(np.array([1.0, 1.0, np.nan]), np.array([0.0, 2.0, 0.0]), 1.0)
        assert got.tolist() == [True, False, False]


def moments(x, y, sx, sy, rho):
    """Mean and covariance array of a (x, y, sigma_x, sigma_y, rho) Gaussian."""
    return np.array([x, y]), cov_from_params(sx, sy, rho)


class TestLogDensity:
    def test_standard_normal_at_origin(self):
        mean, cov = moments(0.0, 0.0, 1.0, 1.0, 0.0)
        assert log_density(mean, cov, [0.0, 0.0]) == pytest.approx(
            -math.log(2 * math.pi), abs=1e-10
        )

    def test_standard_normal_offset(self):
        mean, cov = moments(0.0, 0.0, 1.0, 1.0, 0.0)
        assert log_density(mean, cov, [1.0, 0.0]) == pytest.approx(
            -math.log(2 * math.pi) - 0.5, abs=1e-10
        )

    def test_integrates_to_one(self):
        # midpoint quadrature over [-8, 8]^2 as an independent check
        mean, cov = moments(0.3, -0.5, 1.2, 0.8, 0.4)
        n = 400
        xs = np.linspace(-8.0, 8.0, n, endpoint=False) + 8.0 / n
        cell = (16.0 / n) ** 2
        grid = np.stack(np.meshgrid(xs, xs), axis=-1)  # (n, n, 2) cell midpoints
        total = np.exp(log_density(mean, cov, grid)).sum() * cell
        assert abs(total - 1.0) < 1e-3

    def test_maximized_at_mean(self):
        rng = np.random.default_rng(2)
        mean, cov = moments(1.0, -2.0, 0.7, 2.1, -0.3)
        at_mean = log_density(mean, cov, mean)
        for _ in range(200):
            p = mean + rng.normal(0.0, 3.0, size=2)
            assert log_density(mean, cov, p) <= at_mean

    def test_batch_matches_single_points(self):
        rng = np.random.default_rng(3)
        means = rng.uniform(-5.0, 5.0, (4, 3, 2))
        covs = np.array([moments(0, 0, *rng.uniform(0.2, 3.0, 2), rng.uniform(-0.9, 0.9))[1]
                         for _ in range(12)]).reshape(4, 3, 2, 2)
        points = rng.uniform(-5.0, 5.0, (4, 3, 2))
        batch = log_density(means, covs, points)
        assert batch.shape == (4, 3)
        for i, j in np.ndindex(4, 3):
            assert batch[i, j] == log_density(means[i, j], covs[i, j], points[i, j])

    def test_singular_covariance_rejected(self):
        with pytest.raises(ValueError, match="positive definite"):
            log_density([0.0, 0.0], [[1.0, 1.0], [1.0, 1.0]], [0.0, 0.0])
