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
    return gain_update(p.as_matrix(), r.as_matrix())[0]


def random_estimate(rng):
    cov = cov_from_params(
        rng.uniform(0.2, 3.0), rng.uniform(0.2, 3.0), rng.uniform(-0.95, 0.95)
    )
    return Estimate(rng.uniform(-10.0, 10.0, size=2), cov)


class TestGain:
    def test_equal_covariances(self):
        k = gain(Cov2.isotropic(1.0), Cov2.isotropic(1.0))
        np.testing.assert_allclose(k, 0.5 * I2, atol=1e-14)

    def test_confident_prior_ignores_measurement(self):
        k = gain(Cov2(0.0, 0.0, 0.0), Cov2.isotropic(1.0))
        np.testing.assert_allclose(k, np.zeros((2, 2)), atol=1e-14)

    def test_componentwise_scalar_formula(self):
        k = gain(Cov2(4.0, 0.0, 1.0), Cov2.isotropic(1.0))
        np.testing.assert_allclose(k, np.diag([0.8, 0.5]), atol=1e-14)

    def test_singular_innovation_raises(self):
        with pytest.raises(SingularInnovationError):
            gain(Cov2(0.0, 0.0, 0.0), Cov2(0.0, 0.0, 0.0))

    def test_gain_eigenvalues_in_unit_interval(self):
        rng = np.random.default_rng(6)
        for _ in range(300):
            k = gain(random_estimate(rng).cov, random_estimate(rng).cov)
            eigs = np.linalg.eigvals(k)
            assert np.all(np.abs(eigs.imag) < 1e-9)
            assert np.all(eigs.real >= -1e-12)
            assert np.all(eigs.real <= 1.0 + 1e-12)


    def test_batch_matches_single_calls(self):
        rng = np.random.default_rng(4)
        p = np.array([random_estimate(rng).cov.as_matrix() for _ in range(12)])
        r = np.array([random_estimate(rng).cov.as_matrix() for _ in range(12)])
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
        prior = Estimate([0.0, 0.0], Cov2.isotropic(1.0))
        meas = Estimate([2.0, 0.0], Cov2.isotropic(1.0))
        post = fuse(prior, meas)
        np.testing.assert_allclose(post.mean, [1.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(post.cov.as_matrix(), 0.5 * I2, atol=1e-14)

    def test_zero_innovation_keeps_prior_mean(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            prior = random_estimate(rng)
            meas = Estimate(prior.mean, random_estimate(rng).cov)
            post = fuse(prior, meas)
            np.testing.assert_allclose(post.mean, prior.mean, atol=1e-12)

    def test_componentwise_kalman(self):
        prior = Estimate([1.0, 1.0], Cov2(4.0, 0.0, 1.0))
        meas = Estimate([5.0, 1.0], Cov2.isotropic(1.0))
        post = fuse(prior, meas)
        np.testing.assert_allclose(post.mean, [4.2, 1.0], atol=1e-14)
        np.testing.assert_allclose(post.cov.as_matrix(), np.diag([0.8, 0.5]), atol=1e-14)


class TestFuse:
    def test_commutative(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            a, b = random_estimate(rng), random_estimate(rng)
            ab, ba = fuse(a, b), fuse(b, a)
            np.testing.assert_allclose(ab.mean, ba.mean, atol=1e-12)
            np.testing.assert_allclose(
                ab.cov.as_matrix(), ba.cov.as_matrix(), atol=1e-12
            )

    def test_huge_measurement_cov_returns_prior(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            prior, meas = random_estimate(rng), random_estimate(rng)
            inflated = Estimate(meas.mean, meas.cov.scaled(1e12))
            post = fuse(prior, inflated)
            np.testing.assert_allclose(post.mean, prior.mean, rtol=1e-6, atol=1e-6)
            np.testing.assert_allclose(
                post.cov.as_matrix(), prior.cov.as_matrix(), rtol=1e-6
            )

    def test_tiny_prior_cov_returns_prior(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            prior, meas = random_estimate(rng), random_estimate(rng)
            shrunk = Estimate(prior.mean, prior.cov.scaled(1e-12))
            post = fuse(shrunk, meas)
            np.testing.assert_allclose(post.mean, prior.mean, rtol=1e-6, atol=1e-6)

    def test_tiny_measurement_cov_returns_measurement_mean(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            prior, meas = random_estimate(rng), random_estimate(rng)
            sharp = Estimate(meas.mean, meas.cov.scaled(1e-12))
            post = fuse(prior, sharp)
            np.testing.assert_allclose(post.mean, meas.mean, rtol=1e-6, atol=1e-6)

    def test_covariance_dominance(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            prior, meas = random_estimate(rng), random_estimate(rng)
            post = fuse(prior, meas).cov.as_matrix()
            for other in (prior.cov.as_matrix(), meas.cov.as_matrix()):
                eigs = np.linalg.eigvalsh(other - post)
                assert eigs.min() >= -1e-12

    def test_isotropic_fusion_is_convex_combination(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            p, r = rng.uniform(0.1, 5.0), rng.uniform(0.1, 5.0)
            prior = Estimate(rng.uniform(-5, 5, 2), Cov2.isotropic(p))
            meas = Estimate(rng.uniform(-5, 5, 2), Cov2.isotropic(r))
            post = fuse(prior, meas)
            w = p / (p + r)
            expected = (1.0 - w) * prior.mean + w * meas.mean
            np.testing.assert_allclose(post.mean, expected, atol=1e-12)


class TestInfoFuse:
    def test_equal_covariances(self):
        a = Estimate([0.0, 0.0], Cov2.isotropic(1.0))
        b = Estimate([2.0, 0.0], Cov2.isotropic(1.0))
        post = info_fuse(a, b)
        np.testing.assert_allclose(post.mean, [1.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(post.cov.as_matrix(), 0.5 * I2, atol=1e-14)

    def test_diagonal_case(self):
        a = Estimate([0.0, 0.0], Cov2(4.0, 0.0, 1.0))
        b = Estimate([0.0, 0.0], Cov2.isotropic(1.0))
        post = info_fuse(a, b)
        np.testing.assert_allclose(post.cov.as_matrix(), np.diag([0.8, 0.5]), atol=1e-14)

    def test_singular_input_rejected(self):
        a = Estimate([0.0, 0.0], Cov2(0.0, 0.0, 0.0))
        b = Estimate([0.0, 0.0], Cov2.isotropic(1.0))
        with pytest.raises(ValueError):
            info_fuse(a, b)

    def test_matches_gain_form(self):
        rng = np.random.default_rng(14)
        for _ in range(1000):
            a, b = random_estimate(rng), random_estimate(rng)
            gain_form = fuse(a, b)
            info_form = info_fuse(a, b)
            scale = max(1.0, np.abs(gain_form.mean).max())
            assert np.abs(gain_form.mean - info_form.mean).max() <= 1e-9 * scale
            gm, im = gain_form.cov.as_matrix(), info_form.cov.as_matrix()
            assert np.abs(gm - im).max() <= 1e-9 * max(1.0, np.abs(gm).max())


class TestEstimate:
    def test_rejects_indefinite_covariance(self):
        with pytest.raises(ValueError):
            Estimate([0.0, 0.0], Cov2(1.0, 2.0, 1.0))

    def test_rejects_nonfinite_mean(self):
        with pytest.raises(ValueError):
            Estimate([np.nan, 0.0], Cov2.isotropic(1.0))

    def test_equality_and_hash_are_identity(self):
        a = Estimate([1.0, 2.0], Cov2.isotropic(1.0))
        b = Estimate([1.0, 2.0], Cov2.isotropic(1.0))
        assert a == a and a != b
        assert hash(a) == hash(a) and isinstance(hash(b), int)


def per_object(means, covs):
    return [Estimate(m, Cov2.from_matrix(c)) for m, c in zip(means, covs)]


def bits(estimates):
    return [(e.mean.tobytes(), e.mean.shape, tuple(float.hex(v) for v in
             (e.cov.sxx, e.cov.sxy, e.cov.syy))) for e in estimates]


def asymmetric_covs(rng, n):
    """PSD covariances whose off-diagonal entries differ by rounding noise."""
    covs = np.array([random_estimate(rng).cov.as_matrix() for _ in range(n)])
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
        assert bits(got) == bits(per_object(means, covs))
        assert [e.cov for e in got] == [e.cov for e in per_object(means, covs)]
        assert estimates_from_arrays(np.empty((0, 2)), np.empty((0, 2, 2))) == []

    @pytest.mark.parametrize("defects,message", [
        ({2: ("mean", np.nan)}, "estimate mean must be finite"),
        ({2: ("cov", np.inf)}, "covariance entries must be finite"),
        ({2: ("offdiag", np.nan)}, "covariance entries must be finite"),
        ({2: ("sxx", -2.0 * PSD_TOL)}, "estimate covariance must be positive semidefinite"),
        ({2: ("det", 1e-8)}, "estimate covariance must be positive semidefinite"),
        # the first step at fault wins; within a step, entries before mean before PSD
        ({5: ("cov", np.nan), 2: ("det", 1e-8)},
         "estimate covariance must be positive semidefinite"),
        ({2: ("mean", np.inf), 5: ("cov", np.nan)}, "estimate mean must be finite"),
        ({2: ("both", np.nan)}, "covariance entries must be finite"),
    ], ids=["mean", "entry", "offdiag", "sxx-below-tol", "det-below-tol",
            "earlier-psd", "earlier-mean", "entry-before-mean"])
    def test_raises_what_the_first_object_would(self, defects, message):
        rng = np.random.default_rng(11)
        means = rng.uniform(-10.0, 10.0, size=(8, 2))
        covs = asymmetric_covs(rng, 8)
        for k, (kind, value) in defects.items():
            if kind in ("mean", "both"):
                means[k, 1] = value
            if kind in ("cov", "both"):
                covs[k, 1, 1] = value
            if kind == "offdiag":
                covs[k, 1, 0] = value
            if kind == "sxx":
                covs[k] = [[value, 0.0], [0.0, 1.0]]
            if kind == "det":  # det = 1 - (1 + value)^2, just below -PSD_TOL
                covs[k] = [[1.0, 1.0 + value], [1.0 + value, 1.0]]
        with pytest.raises(ValueError) as want:
            per_object(means, covs)
        with pytest.raises(ValueError) as got:
            estimates_from_arrays(means, covs)
        assert str(want.value) == message
        assert str(got.value) == message
