import numpy as np
import pytest

from trajrefine.fusion import (
    Estimate,
    SingularInnovationError,
    estimates_from_arrays,
    fuse,
    gain_update,
    info_fuse,
)
from trajrefine.gaussian import PSD_TOL, Cov2, cov_from_params

I2 = np.eye(2)


def gain(p, r):
    return gain_update(p, r)[0]


def random_estimate(rng):
    """A (mean, covariance) pair with a random (sigma_x, sigma_y, rho)."""
    cov = cov_from_params(
        rng.uniform(0.2, 3.0), rng.uniform(0.2, 3.0), rng.uniform(-0.95, 0.95)
    )
    return rng.uniform(-10.0, 10.0, size=2), cov


class TestGain:
    def test_equal_covariances(self):
        k = gain(I2, I2)
        np.testing.assert_allclose(k, 0.5 * I2, atol=1e-14)

    def test_confident_prior_ignores_measurement(self):
        k = gain(np.zeros((2, 2)), I2)
        np.testing.assert_allclose(k, np.zeros((2, 2)), atol=1e-14)

    def test_componentwise_scalar_formula(self):
        k = gain(np.diag([4.0, 1.0]), I2)
        np.testing.assert_allclose(k, np.diag([0.8, 0.5]), atol=1e-14)

    def test_singular_innovation_raises(self):
        with pytest.raises(SingularInnovationError):
            gain(np.zeros((2, 2)), np.zeros((2, 2)))

    def test_gain_eigenvalues_in_unit_interval(self):
        rng = np.random.default_rng(6)
        for _ in range(300):
            k = gain(random_estimate(rng)[1], random_estimate(rng)[1])
            eigs = np.linalg.eigvals(k)
            assert np.all(np.abs(eigs.imag) < 1e-9)
            assert np.all(eigs.real >= -1e-12)
            assert np.all(eigs.real <= 1.0 + 1e-12)


    def test_batch_matches_single_calls(self):
        rng = np.random.default_rng(4)
        p = np.array([random_estimate(rng)[1] for _ in range(12)])
        r = np.array([random_estimate(rng)[1] for _ in range(12)])
        gains, covs = gain_update(p.reshape(3, 4, 2, 2), r.reshape(3, 4, 2, 2))
        for i in range(12):
            k, cov = gain_update(p[i], r[i])
            np.testing.assert_array_equal(gains.reshape(12, 2, 2)[i], k)
            np.testing.assert_array_equal(covs.reshape(12, 2, 2)[i], cov)

    def test_singular_entry_index(self):
        p = np.tile(I2, (2, 3, 1, 1))
        r = p.copy()
        p[1, 2] = r[1, 2] = p[1, 0] = r[1, 0] = np.zeros((2, 2))
        with pytest.raises(SingularInnovationError) as exc:
            gain_update(p, r)
        assert exc.value.index == (1, 0)
        assert exc.value.step is None


class TestUpdate:
    def test_symmetric_fusion_halves(self):
        mean, cov = fuse([0.0, 0.0], I2, [2.0, 0.0], I2)
        np.testing.assert_allclose(mean, [1.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(cov, 0.5 * I2, atol=1e-14)

    def test_zero_innovation_keeps_prior_mean(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            x, p = random_estimate(rng)
            mean, _ = fuse(x, p, x, random_estimate(rng)[1])
            np.testing.assert_allclose(mean, x, atol=1e-12)

    def test_componentwise_kalman(self):
        mean, cov = fuse([1.0, 1.0], np.diag([4.0, 1.0]), [5.0, 1.0], I2)
        np.testing.assert_allclose(mean, [4.2, 1.0], atol=1e-14)
        np.testing.assert_allclose(cov, np.diag([0.8, 0.5]), atol=1e-14)


class TestFuse:
    def test_commutative(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            a, b = random_estimate(rng), random_estimate(rng)
            (ab_mean, ab_cov), (ba_mean, ba_cov) = fuse(*a, *b), fuse(*b, *a)
            np.testing.assert_allclose(ab_mean, ba_mean, atol=1e-12)
            np.testing.assert_allclose(ab_cov, ba_cov, atol=1e-12)

    def test_huge_measurement_cov_returns_prior(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            (x, p), (z, r) = random_estimate(rng), random_estimate(rng)
            mean, cov = fuse(x, p, z, r * 1e12)
            np.testing.assert_allclose(mean, x, rtol=1e-6, atol=1e-6)
            np.testing.assert_allclose(cov, p, rtol=1e-6)

    def test_tiny_prior_cov_returns_prior(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            (x, p), (z, r) = random_estimate(rng), random_estimate(rng)
            mean, _ = fuse(x, p * 1e-12, z, r)
            np.testing.assert_allclose(mean, x, rtol=1e-6, atol=1e-6)

    def test_tiny_measurement_cov_returns_measurement_mean(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            (x, p), (z, r) = random_estimate(rng), random_estimate(rng)
            mean, _ = fuse(x, p, z, r * 1e-12)
            np.testing.assert_allclose(mean, z, rtol=1e-6, atol=1e-6)

    def test_covariance_dominance(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            (x, p), (z, r) = random_estimate(rng), random_estimate(rng)
            post = fuse(x, p, z, r)[1]
            for other in (p, r):
                eigs = np.linalg.eigvalsh(other - post)
                assert eigs.min() >= -1e-12

    def test_isotropic_fusion_is_convex_combination(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            p, r = rng.uniform(0.1, 5.0), rng.uniform(0.1, 5.0)
            x, z = rng.uniform(-5, 5, 2), rng.uniform(-5, 5, 2)
            mean, _ = fuse(x, p * I2, z, r * I2)
            w = p / (p + r)
            expected = (1.0 - w) * x + w * z
            np.testing.assert_allclose(mean, expected, atol=1e-12)

    def test_batch_equals_its_single_entries_bitwise(self):
        rng = np.random.default_rng(15)
        x, z = rng.uniform(-10.0, 10.0, (2, 3, 4, 2))
        p, r = (cov_from_params(rng.uniform(0.2, 3.0, (3, 4)), rng.uniform(0.2, 3.0, (3, 4)),
                                rng.uniform(-0.95, 0.95, (3, 4))) for _ in range(2))
        for form in (fuse, info_fuse):
            means, covs = form(x, p, z, r)
            assert means.shape == (3, 4, 2) and covs.shape == (3, 4, 2, 2)
            for i, j in np.ndindex(3, 4):
                mean, cov = form(x[i, j], p[i, j], z[i, j], r[i, j])
                assert means[i, j].tobytes() == mean.tobytes()
                assert covs[i, j].tobytes() == cov.tobytes()

    def test_singular_innovation_raises(self):
        with pytest.raises(SingularInnovationError):
            fuse([0.0, 0.0], np.zeros((2, 2)), [1.0, 0.0], np.zeros((2, 2)))


class TestInfoFuse:
    def test_equal_covariances(self):
        mean, cov = info_fuse([0.0, 0.0], I2, [2.0, 0.0], I2)
        np.testing.assert_allclose(mean, [1.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(cov, 0.5 * I2, atol=1e-14)

    def test_diagonal_case(self):
        _, cov = info_fuse([0.0, 0.0], np.diag([4.0, 1.0]), [0.0, 0.0], I2)
        np.testing.assert_allclose(cov, np.diag([0.8, 0.5]), atol=1e-14)

    def test_singular_input_rejected(self):
        with pytest.raises(ValueError):
            info_fuse([0.0, 0.0], np.zeros((2, 2)), [0.0, 0.0], I2)

    def test_matches_gain_form(self):
        rng = np.random.default_rng(14)
        for _ in range(1000):
            (x, p), (z, r) = random_estimate(rng), random_estimate(rng)
            gain_mean, gm = fuse(x, p, z, r)
            info_mean, im = info_fuse(x, p, z, r)
            scale = max(1.0, np.abs(gain_mean).max())
            assert np.abs(gain_mean - info_mean).max() <= 1e-9 * scale
            assert np.abs(gm - im).max() <= 1e-9 * max(1.0, np.abs(gm).max())


NOT_PSD = np.array([[1.0, 2.0], [2.0, 1.0]])


class TestInputChecks:
    """fuse and info_fuse reject non-finite means or covariances and a
    non-PSD (info_fuse: non-PD) covariance."""

    @pytest.mark.parametrize("form", [fuse, info_fuse])
    @pytest.mark.parametrize("field,value,message", [
        (0, [np.nan, 0.0], "must be finite"),
        (2, [0.0, np.inf], "must be finite"),
        (1, np.diag([np.nan, 1.0]), "must be finite"),
        (3, [[1.0, np.nan], [np.nan, 1.0]], "must be finite"),
        (1, NOT_PSD, "positive"),
        (3, NOT_PSD, "positive"),
    ], ids=["prior-mean", "measurement-mean", "prior-cov", "measurement-cov",
            "prior-not-psd", "measurement-not-psd"])
    def test_rejected(self, form, field, value, message):
        args = [np.zeros(2), I2, np.ones(2), I2]
        args[field] = value
        with pytest.raises(ValueError, match=message):
            form(*args)

    def test_one_bad_entry_rejects_the_batch(self):
        p = np.tile(I2, (5, 1, 1))
        p[3] = NOT_PSD
        with pytest.raises(ValueError, match="positive semidefinite"):
            fuse(np.zeros((5, 2)), p, np.ones((5, 2)), I2)

    def test_psd_tolerance_and_definiteness(self):
        inside = np.diag([-0.5 * PSD_TOL, 1.0])  # PSD within the tolerance
        mean, _ = fuse([0.0, 0.0], inside, [1.0, 1.0], I2)
        assert np.isfinite(mean).all()
        with pytest.raises(ValueError, match="positive definite"):
            info_fuse([0.0, 0.0], inside, [1.0, 1.0], I2)


class TestEstimate:
    def test_equality_and_hash_are_identity(self):
        a = Estimate(np.array([1.0, 2.0]), Cov2(1.0, 0.0, 1.0))
        b = Estimate(np.array([1.0, 2.0]), Cov2(1.0, 0.0, 1.0))
        assert a == a and a != b
        assert hash(a) == hash(a) and isinstance(hash(b), int)


def per_object(means, covs):
    """The records an array check lets through, built entry by entry."""
    return [Estimate(m, Cov2(c[0, 0], 0.5 * (c[0, 1] + c[1, 0]), c[1, 1]))
            for m, c in zip(means, covs)]


def bits(estimates):
    return [(e.mean.tobytes(), e.mean.shape, tuple(float.hex(float(v)) for v in
             (e.cov.sxx, e.cov.sxy, e.cov.syy))) for e in estimates]


def asymmetric_covs(rng, n):
    """PSD covariances whose off-diagonal entries differ by rounding noise."""
    covs = np.array([random_estimate(rng)[1] for _ in range(n)])
    covs[:, 0, 1] *= 1.0 + rng.uniform(-1e-12, 1e-12, n)
    return covs


class TestEstimatesFromArrays:
    def test_equal_to_per_object_construction_bitwise(self):
        rng = np.random.default_rng(7)
        means = rng.uniform(-1e3, 1e3, size=(25, 2))
        covs = asymmetric_covs(rng, 25)
        covs[3] = [[-0.5 * PSD_TOL, 0.0], [0.0, 1.0]]  # inside the tolerance
        covs[4] = 0.0
        got = estimates_from_arrays(means, covs)
        assert all(type(e) is Estimate and type(e.cov) is Cov2 for e in got)
        assert all(type(v) is float for e in got for v in e.cov)
        assert bits(got) == bits(per_object(means, covs))
        assert bits(estimates_from_arrays(means.tolist(), covs.tolist())) == bits(got)
        assert [e.cov for e in got] == [e.cov for e in per_object(means, covs)]
        assert estimates_from_arrays(np.empty((0, 2)), np.empty((0, 2, 2))) == []

    @pytest.mark.parametrize("kind,value,message", [
        ("mean", np.nan, "^means and covariances must be finite$"),
        ("cov", np.inf, "^means and covariances must be finite$"),
        ("offdiag", np.nan, "^means and covariances must be finite$"),
        ("sxx", -2.0 * PSD_TOL, "^covariance must be positive semidefinite$"),
        ("det", 1e-8, "^covariance must be positive semidefinite$"),
    ], ids=["mean", "entry", "offdiag", "sxx-below-tol", "det-below-tol"])
    def test_one_bad_row_rejects_the_rollout(self, kind, value, message):
        rng = np.random.default_rng(11)
        means = rng.uniform(-10.0, 10.0, size=(8, 2))
        covs = asymmetric_covs(rng, 8)
        if kind == "mean":
            means[2, 1] = value
        if kind == "cov":
            covs[2, 1, 1] = value
        if kind == "offdiag":
            covs[2, 1, 0] = value
        if kind == "sxx":
            covs[2] = [[value, 0.0], [0.0, 1.0]]
        if kind == "det":  # det = 1 - (1 + value)^2, just below -PSD_TOL
            covs[2] = [[1.0, 1.0 + value], [1.0 + value, 1.0]]
        with pytest.raises(ValueError, match=message):
            estimates_from_arrays(means, covs)
