import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajrefine.fusion import (
    Estimate,
    SingularInnovationError,
    estimates_from_arrays,
    fuse,
    gain_table,
    gain_update,
    info_fuse,
    rotated_gains,
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


class TestPosteriorWithoutCancellation:
    """The posterior (I - K) P is P adj(S) R / det S = (det(P) R + det(R) P) / det S,
    a sum of two PSD terms; det(S) P - P adj(S) P cancelled when P >> R."""

    def test_huge_prior_gives_the_measurement_covariance(self):
        # the covariance was zero
        _, cov = fuse(np.zeros(2), 1e16 * I2, np.ones(2), I2)
        np.testing.assert_allclose(cov, I2, rtol=1e-15)

    def test_tiny_measurement_keeps_the_posterior_definite(self):
        # sxx was -0.5e-16
        r = 1e-16 * np.array([[1.0, 0.3], [0.3, 0.5]])
        _, cov = fuse(np.zeros(2), np.array([[1.0, 0.3], [0.3, 0.5]]), np.ones(2), r)
        _, expected = info_fuse(np.zeros(2), np.array([[1.0, 0.3], [0.3, 0.5]]), np.ones(2), r)
        np.testing.assert_allclose(cov, expected, rtol=1e-14)
        assert np.linalg.eigvalsh(cov).min() > 0.0


def well_conditioned_cov(data) -> np.ndarray:
    """A random covariance with eigenvalues in [0.5, 2] and any orientation."""
    theta = data.draw(st.floats(0.0, np.pi))
    c, s = np.cos(theta), np.sin(theta)
    rot = np.array([[c, -s], [s, c]])
    return rot @ np.diag([data.draw(st.floats(0.5, 2.0)) for _ in range(2)]) @ rot.T


@settings(max_examples=200, deadline=None)
@given(data=st.data(), exponent=st.floats(-16.0, 16.0))
def test_fuse_matches_info_fuse_over_the_prior_to_measurement_ratio(data, exponent):
    # at the parent a ratio beyond about 1e8 lost the posterior to cancellation
    p, r = 10.0**exponent * well_conditioned_cov(data), well_conditioned_cov(data)
    x, z = np.array([1.0, -2.0]), np.array([0.5, 3.0])
    mean, cov = fuse(x, p, z, r)
    info_mean, info_cov = info_fuse(x, p, z, r)
    assert np.abs(cov - info_cov).max() <= 1e-13 * np.abs(info_cov).max()
    np.testing.assert_allclose(mean, info_mean, rtol=1e-12, atol=1e-12)


class TestOverflow:
    """A covariance whose determinant overflows is rejected by name, quietly; a large
    one whose determinant does not overflow fuses, or is singular by the relative rule."""

    @pytest.mark.parametrize("p,r", [
        (np.diag([1e200, 1e200]), I2),  # raised SingularInnovationError (det=inf)
        (I2, np.diag([1e200, 1e200])),
        (np.array([[1e160, 0.0], [0.0, 1e160]]), I2),
    ])
    def test_overflowing_determinant_is_named(self, p, r):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as exc:
                fuse(np.zeros(2), p, np.ones(2), r)
        assert type(exc.value) is ValueError
        assert str(exc.value) == "means, covariances and their determinants must be finite"

    def test_overflowing_posterior_is_named(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^posterior is not finite$"):
                fuse(np.full(2, -1e308), I2, np.full(2, 1e308), I2)

    @pytest.mark.parametrize("p,r", [
        (np.diag([1e154, 1e154]), I2),  # raised SingularInnovationError (det=1.000e+308)
        (1e150 * I2, 1e10 * I2),  # raised "posterior is not finite"
    ])
    def test_large_covariances_fuse_like_the_information_form(self, p, r):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mean, cov = fuse(np.zeros(2), p, np.ones(2), r)
        want_mean, want_cov = info_fuse(np.zeros(2), p, np.ones(2), r)
        np.testing.assert_allclose(mean, want_mean, rtol=1e-12)
        np.testing.assert_allclose(cov, want_cov, rtol=1e-12)

    @pytest.mark.parametrize("p,det", [
        (np.diag([1e160, 1.0]), "2.000e+160"),
        (np.diag([1e300, 1e-300]), "1.000e+300"),
    ])
    def test_singular_by_the_relative_rule_names_det_in_the_callers_units(self, p, det):
        # det(S) / tr(S)^2 is about 1e-160 and 1e-300: singular by the rule
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularInnovationError) as exc:
                fuse(np.zeros(2), p, np.ones(2), I2)
        assert str(exc.value) == f"innovation covariance is singular (det={det})"

    @pytest.mark.parametrize("theta", (0.3, 1.1, 2.5, -0.7))
    @pytest.mark.parametrize("p", (np.array([[0.3, 0.1], [0.1, 0.2]]), np.diag([0.05, 2.0])))
    def test_singular_rotated_measurement_states_its_det(self, p, theta):
        # det(S) / tr(S)^2 is about 1e-160, where det S as an affine function of
        # the angle cancels to noise (it read negative dets of PSD sums); the
        # det stated is that of p + rot r rot^T, computed exactly here
        r = np.diag([1e160, 1.0])
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        with pytest.raises(SingularInnovationError) as exc:
            rotated_gains(gain_table(p, r), rot)
        prefix = "innovation covariance is singular (det="
        message = str(exc.value)
        assert message.startswith(prefix) and message.endswith(")")
        q = [[Fraction(float(x)) for x in row] for row in rot]
        s = [[Fraction(float(p[i, j])) + sum(q[i][k] * Fraction(float(r[k, k])) * q[j][k]
                                             for k in range(2)) for j in range(2)]
             for i in range(2)]
        exact = float(s[0][0] * s[1][1] - s[0][1] * s[1][0])
        assert abs(float(message[len(prefix):-1]) - exact) <= 5e-4 * exact


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
        ("mean", np.nan, "^means, covariances and their determinants must be finite$"),
        ("cov", np.inf, "^means, covariances and their determinants must be finite$"),
        ("offdiag", np.nan, "^means, covariances and their determinants must be finite$"),
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
