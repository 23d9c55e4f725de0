import re

import numpy as np
import pytest

from trajrefine.data import Dataset, Segment, gen_synthetic
from trajrefine.gaussian import cov_from_params
from trajrefine.goals import (
    GoalModelParams,
    fit_goal_model,
    goal_moments,
    interpolate_covs,
    interpolate_goals,
    world_covs,
)
from trajrefine.predictors import PredictorParams, fit_predictor, rollout_batch

ANCHORS = (5, 10, 15, 20, 25)


def predict(params, history):
    """Anchor means (A, 2) and world covariances (A, 2, 2) of one history."""
    means, rot = goal_moments(params, np.asarray(history)[None])
    return means[0], world_covs(params.residual_covs, rot)[0]


def cv_segment(speed, heading, origin, dt=0.2, tau=15, horizon=25, seg_id="s", agent=0):
    t = np.arange(tau + 1 + horizon) * dt
    d = np.array([np.cos(heading), np.sin(heading)])
    pts = np.asarray(origin) + np.outer(speed * t, d)
    return Segment(seg_id, agent, dt, pts[: tau + 1], pts[tau + 1 :])


@pytest.fixture(scope="module")
def cv_corpus():
    return gen_synthetic("cv", 100, 0.0, seed=21)


class TestFitGoalModel:
    def test_exact_on_noiseless_constant_velocity(self, cv_corpus):
        params = fit_goal_model(cv_corpus, ANCHORS, ridge_lambda=1e-9)
        for seg in cv_corpus.segments[:20]:
            means, _ = predict(params, seg.history)
            for step, mean in zip(ANCHORS, means):
                np.testing.assert_allclose(mean, seg.future[step - 1], atol=1e-8)
        for cov in params.residual_covs:
            # residuals vanish, only the +1e-6 I floor remains
            np.testing.assert_allclose(cov, 1e-6 * np.eye(2), atol=1e-9)

    def test_infinite_ridge_shrinks_to_last_position(self, cv_corpus):
        params = fit_goal_model(cv_corpus, ANCHORS, ridge_lambda=1e12)
        seg = cv_corpus.segments[0]
        means, _ = predict(params, seg.history)
        for mean in means:
            np.testing.assert_allclose(mean, seg.history[-1], atol=1e-4)

    def test_single_segment_zero_ridge_is_singular(self):
        ds = Dataset([cv_segment(10.0, 0.3, (0.0, 0.0))])
        with pytest.raises(ValueError, match="singular"):
            fit_goal_model(ds, ANCHORS, ridge_lambda=0.0)

    def test_empty_training_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            fit_goal_model(Dataset([]), ANCHORS, 1e-6)

    @pytest.mark.parametrize("fit", [
        lambda train, val: fit_goal_model(train, (9,), val=val),
        lambda train, val: fit_predictor("cv", train, val, window=1),
        lambda train, val: fit_predictor("ca", train, val, window=2),
        lambda train, val: fit_predictor("ar", train, val, lag=99),
    ], ids=["goal-model", "cv", "ca", "ar"])
    def test_empty_training_set_named_before_other_faults(self, fit):
        # calibration_split holds the check for both fitters; tau 0, an anchor past the
        # horizon, a bad window or lag and a validation set of another dt are faults too
        train = Dataset([], 0.2, tau=0, horizon=3)
        val = gen_synthetic("cv", 2, 0.0, seed=1, dt=0.1, tau=0, horizon=3)
        with pytest.raises(ValueError, match="^training set is empty$"):
            fit(train, val)

    def test_anchor_beyond_horizon_rejected(self, cv_corpus):
        with pytest.raises(ValueError):
            fit_goal_model(cv_corpus, (5, 30), 1e-6)

    def test_validation_set_supplies_residuals(self):
        train = gen_synthetic("lane_change", 200, 0.2, seed=3)
        val = gen_synthetic("lane_change", 100, 0.2, seed=4)
        with_val = fit_goal_model(train, ANCHORS, 1e-6, val=val)
        without = fit_goal_model(train, ANCHORS, 1e-6)
        # same weights, different residual calibration
        for a, b in zip(with_val.weights, without.weights):
            np.testing.assert_array_equal(a, b)
        assert any(
            np.trace(a) != np.trace(b)
            for a, b in zip(with_val.residual_covs, without.residual_covs)
        )

    @pytest.mark.parametrize("steps", [(), (0, 5)])
    def test_anchor_rule_checked_before_fitting(self, steps):
        # a singular zero-ridge fit would fail first if anchors were checked late
        ds = Dataset([cv_segment(10.0, 0.3, (0.0, 0.0))])
        with pytest.raises(ValueError, match="non-empty and each >= 1"):
            fit_goal_model(ds, steps, ridge_lambda=0.0)

    @pytest.mark.parametrize("key,value", [("dt", 0.1), ("tau", 10)])
    def test_validation_protocol_must_match(self, cv_corpus, key, value):
        val = gen_synthetic("cv", 10, 0.0, seed=22, **{key: value})
        with pytest.raises(ValueError, match=f"synthetic/cv: {key}={value} differs"):
            fit_goal_model(cv_corpus, ANCHORS, val=val)

    def test_longer_validation_horizon_allowed(self, cv_corpus):
        val = gen_synthetic("cv", 10, 0.0, seed=22, horizon=30)
        assert fit_goal_model(cv_corpus, ANCHORS, val=val).anchor_steps == ANCHORS

    def test_validation_horizon_shorter_than_last_anchor_rejected(self, cv_corpus):
        val = gen_synthetic("cv", 10, 0.0, seed=22, horizon=10)
        with pytest.raises(ValueError,
                           match="^synthetic/cv: horizon=10 is short of the fit's "
                                 "last step 15$"):
            fit_goal_model(cv_corpus, (5, 10, 15), val=val)
        assert fit_goal_model(cv_corpus, (5, 10), val=val).anchor_steps == (5, 10)

    @pytest.mark.parametrize("fit", [
        lambda train, val: fit_goal_model(train, val=val),
        lambda train, val: fit_predictor("cv", train, val),
    ], ids=["goal-model", "predictor"])
    def test_short_validation_future_named_alike_by_both_fitters(self, fit):
        # calibration_split states the rule once; the two fitters worded it differently
        train = gen_synthetic("cv", 20, 0.1, seed=35)
        val = gen_synthetic("cv", 10, 0.1, seed=36, horizon=10)
        with pytest.raises(ValueError, match="^synthetic/cv: horizon=10 is short of "
                                             "the fit's last step 25$"):
            fit(train, val)

    def test_per_anchor_independence(self, cv_corpus):
        full = fit_goal_model(cv_corpus, (5, 10, 25), ridge_lambda=1e-6)
        reduced = fit_goal_model(cv_corpus, (5, 25), ridge_lambda=1e-6)
        np.testing.assert_array_equal(full.weights[0], reduced.weights[0])
        np.testing.assert_array_equal(full.weights[2], reduced.weights[1])
        np.testing.assert_array_equal(full.residual_covs[0], reduced.residual_covs[0])

    def test_per_anchor_independence_dense(self):
        # all 25 anchors share one Gram matrix, yet each is solved on its own
        train = gen_synthetic("turn", 300, 0.2, seed=23)
        dense = tuple(range(1, 26))
        subset = (1, 7, 13, 24, 25)
        full = fit_goal_model(train, dense, ridge_lambda=1e-6)
        reduced = fit_goal_model(train, subset, ridge_lambda=1e-6)
        for i, step in enumerate(subset):
            assert full.weights[step - 1].tobytes() == reduced.weights[i].tobytes()
            assert (full.residual_covs[step - 1].tobytes()
                    == reduced.residual_covs[i].tobytes())

    @pytest.mark.parametrize("ridge", [-5.0, -1e-12, np.nan, np.inf, -np.inf])
    def test_invalid_ridge_rejected_by_name(self, cv_corpus, ridge):
        with pytest.raises(ValueError, match="ridge_lambda must be finite and >= 0"):
            fit_goal_model(cv_corpus, ANCHORS, ridge_lambda=ridge)

    def test_one_point_history_rejected_before_fitting(self):
        # tau 0 is a valid protocol; the fit failed inside numpy's reshape
        train = gen_synthetic("cv", 10, 0.1, seed=1, tau=0)
        with pytest.raises(ValueError, match=r"^history_len must be at least 2, got 1 \(tau=0\)$"):
            fit_goal_model(train)

    def test_equality_and_hash_are_identity(self, cv_corpus):
        a = fit_goal_model(cv_corpus, ANCHORS)
        b = fit_goal_model(cv_corpus, ANCHORS)
        assert a == a and a != b
        assert hash(a) == hash(a) and isinstance(hash(b), int)


class TestPredictGoals:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_history_rejected_naming_the_first_segment(self, cv_corpus, bad):
        # the anchor means came back NaN without a word
        params = fit_goal_model(cv_corpus, ANCHORS)
        histories = cv_corpus.histories()[:4].copy()
        histories[2, 0, 1] = histories[3, -1, 0] = bad
        with pytest.raises(ValueError,
                           match="^history of segment 2 contains non-finite coordinates$"):
            goal_moments(params, histories)

    def test_cv_straight_history_extrapolates(self, cv_corpus):
        params = fit_goal_model(cv_corpus, ANCHORS, ridge_lambda=1e-9)
        speed = 12.0
        seg = cv_segment(speed, 0.0, (3.0, -7.0))
        means, _ = predict(params, seg.history)
        last = seg.history[-1]
        np.testing.assert_allclose(means[-1], last + [5.0 * speed, 0.0], atol=1e-6)

    def test_zero_weights_return_last_position(self):
        params = GoalModelParams(
            anchor_steps=(5, 10),
            weights=(np.zeros((30, 2)), np.zeros((30, 2))),
            residual_covs=[0.5 * np.eye(2), np.eye(2)],
            history_len=16,
        )
        history = np.column_stack([np.linspace(0, 3, 16), np.linspace(0, -1, 16)])
        means, _ = predict(params, history)
        for mean in means:
            np.testing.assert_allclose(mean, history[-1], atol=1e-12)

    def test_history_length_mismatch(self, cv_corpus):
        params = fit_goal_model(cv_corpus, ANCHORS, 1e-6)
        with pytest.raises(ValueError, match="history"):
            predict(params, np.zeros((5, 2)))

    def test_deterministic(self, cv_corpus):
        params = fit_goal_model(cv_corpus, ANCHORS, 1e-6)
        history = cv_corpus.segments[3].history
        a_means, a_covs = predict(params, history)
        b_means, b_covs = predict(params, history)
        np.testing.assert_array_equal(a_means, b_means)
        np.testing.assert_array_equal(a_covs, b_covs)

    def test_rotation_equivariance(self):
        train = gen_synthetic("turn", 150, 0.05, seed=17)
        params = fit_goal_model(train, ANCHORS, 1e-6, rotate=True)
        history = train.segments[0].history
        alpha = 0.7
        c, s = np.cos(alpha), np.sin(alpha)
        rot = np.array([[c, -s], [s, c]])
        pivot = history[-1]
        rotated = (history - pivot) @ rot.T + pivot
        base, _ = predict(params, history)
        moved, _ = predict(params, rotated)
        for a, b in zip(base, moved):
            expected = rot @ (a - pivot) + pivot
            np.testing.assert_allclose(b, expected, atol=1e-9)

    def test_translation_equivariance(self):
        train = gen_synthetic("lane_change", 150, 0.1, seed=18)
        params = fit_goal_model(train, ANCHORS, 1e-6)
        history = train.segments[0].history
        shift = np.array([123.5, -48.25])
        base_means, base_covs = predict(params, history)
        moved_means, moved_covs = predict(params, history + shift)
        np.testing.assert_allclose(moved_means, base_means + shift, atol=1e-9)
        np.testing.assert_array_equal(moved_covs[:, 0, 0], base_covs[:, 0, 0])


def measurements(goals, last_obs, horizon=30):
    """Per-step goal measurements as (mean, covariance) pairs, step k at [k-1].

    goals maps each anchor step to its (x, y, sigma_x, sigma_y, rho).
    """
    means = np.array([[g[:2] for g in goals.values()]], dtype=float)
    covs = cov_from_params(*np.array([g[2:] for g in goals.values()], dtype=float).T)
    z = interpolate_goals(tuple(goals), np.array([last_obs], dtype=float), means, horizon)
    r = interpolate_covs(tuple(goals), covs, horizon)
    return list(zip(z[0], r))


def psd(c, tol):
    """The PSD rule at tolerance tol, which psd_rule fixes at PSD_TOL."""
    sxx, sxy, syy = c[0, 0], 0.5 * (c[0, 1] + c[1, 0]), c[1, 1]
    return sxx >= -tol and syy >= -tol and sxx * syy - sxy * sxy >= -tol * max(1.0, sxx * syy)


class TestGoalMeasurementAt:
    def setup_method(self):
        self.goals = {10: (0.0, 0.0, 1.0, 1.0, 0.0), 20: (10.0, 0.0, 3.0, 3.0, 0.0)}
        self.at = measurements(self.goals, [0.0, 0.0])

    def test_anchor_step_is_exact(self):
        mean, cov = self.at[10 - 1]
        np.testing.assert_allclose(mean, [0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(cov, np.eye(2), atol=1e-15)

    def test_midpoint_interpolation(self):
        mean, cov = self.at[15 - 1]
        np.testing.assert_allclose(mean, [5.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(cov, 5.0 * np.eye(2), atol=1e-15)

    def test_before_first_anchor_uses_virtual_origin(self):
        goals = {5: (1.0, 6.0, 1.0, 1.0, 0.0)}
        at = measurements(goals, [1.0, 1.0])
        mean, cov = at[2 - 1]
        np.testing.assert_allclose(mean, [1.0, 3.0], atol=1e-12)
        np.testing.assert_allclose(cov, 0.43 * np.eye(2), atol=1e-12)

    def test_beyond_last_anchor_holds_and_inflates(self):
        # the covariance holds the last anchor's and inflates; the mean
        # continues the line through anchors 10 and 20
        mean, cov = self.at[24 - 1]
        np.testing.assert_allclose(mean, [14.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(
            cov, (9.0 + 0.5 * 4) * np.eye(2), atol=1e-12
        )

    def test_continuous_at_anchor_steps(self):
        # interior anchor: approaching from both sides converges to the anchor
        for k in (9, 10, 11, 19, 20, 21):
            assert psd(self.at[k - 1][1], 0.0)
        lo, at, hi = self.at[19 - 1], self.at[20 - 1], self.at[21 - 1]
        assert abs(np.trace(lo[1]) - np.trace(at[1])) <= abs(
            np.trace(self.at[10 - 1][1]) - np.trace(at[1])
        )
        np.testing.assert_allclose(at[0], [10.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(hi[1], 9.5 * np.eye(2), atol=1e-12)

    def test_interpolated_covariance_always_psd(self):
        goals = {5: (1.0, 2.0, 0.5, 2.0, 0.8), 17: (-3.0, 0.0, 2.5, 0.3, -0.9)}
        at = measurements(goals, [0.5, 0.5], horizon=29)
        assert len(at) == 29
        for _, cov in at:
            assert psd(cov, 1e-12)

    def test_step_below_one_rejected(self):
        # measurements start at step 1, between the virtual origin and step 10
        mean, cov = self.at[0]
        np.testing.assert_allclose(mean, [0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(cov, 0.145 * np.eye(2), atol=1e-15)
        params = PredictorParams("cv", 0.2, np.broadcast_to(0.1 * np.eye(2), (25, 2, 2)))
        with pytest.raises(ValueError, match="non-negative"):
            rollout_batch(params, np.zeros((1, 16, 2)), -1)


def goal_params(anchor_steps):
    covs = np.broadcast_to(np.eye(2), (len(anchor_steps), 2, 2))
    return GoalModelParams(anchor_steps, (np.zeros((2, 2)),) * len(anchor_steps), covs, 2)


class TestGoalSetValidation:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            goal_params(())

    def test_non_increasing_steps_rejected(self):
        with pytest.raises(ValueError, match="increasing"):
            goal_params((5, 5))

    def test_anchor_step_must_be_positive(self):
        with pytest.raises(ValueError, match=">= 1"):
            goal_params((0,))

    def test_non_integer_anchor_rejected_not_truncated(self):
        with pytest.raises(ValueError, match=r"anchor steps must be integers, got \(5\.5, 10\)"):
            goal_params((5.5, 10))

    def test_fit_rejects_non_integer_anchor(self):
        ds = gen_synthetic("cv", 10, 0.0, seed=23)
        with pytest.raises(ValueError, match=r"anchor steps must be integers, got \(5\.5, 10\)"):
            fit_goal_model(ds, anchor_steps=(5.5, 10))

    @pytest.mark.parametrize("value,message", [
        (16.0, "history_len must be an integer, got 16.0"),
        ("16", "history_len must be an integer, got '16'"),
        (1, "history_len must be at least 2, got 1"),
        (True, "history_len must be an integer, got True"),
    ], ids=["float", "string", "one", "bool"])
    def test_history_len_rejected_by_name(self, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            GoalModelParams((5, 10), (np.zeros((30, 2)),) * 2, np.stack([np.eye(2)] * 2), value)

    @pytest.mark.parametrize("weight,shape", [(np.zeros((2, 30)), "(2, 30)"),
                                              (np.zeros(60), "(60,)")])
    def test_weights_of_each_anchor_checked_by_shape(self, weight, shape):
        with pytest.raises(ValueError, match=re.escape(
                f"weights of anchor 10 must have shape (30, 2), got {shape}")):
            GoalModelParams((5, 10), (np.zeros((30, 2)), weight), np.stack([np.eye(2)] * 2), 16)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_weight_names_the_anchor(self, value):
        # loaded from a model file, it failed only in the rollout, naming nothing
        weights = np.zeros((3, 30, 2))
        weights[1, 7, 1] = value
        with pytest.raises(ValueError, match="^weights of anchor 10 must be finite$"):
            GoalModelParams((5, 10, 15), weights, np.stack([np.eye(2)] * 3), 16)

    def test_integer_like_history_len_becomes_int(self):
        params = GoalModelParams((5,), (np.zeros((30, 2)),), [np.eye(2)], np.int64(16))
        assert type(params.history_len) is int


class TestResidualCovarianceTable:
    def test_stored_once_as_a_read_only_copy(self):
        covs = np.array([np.eye(2), 2.0 * np.eye(2)])
        params = GoalModelParams((5, 10), (np.zeros((2, 2)),) * 2, covs, 2)
        covs[0, 0, 0] = 99.0
        assert params.residual_covs[0, 0, 0] == 1.0
        assert not params.residual_covs.flags.writeable

    @pytest.mark.parametrize("entry,message", [
        ([[np.nan, 0.0], [0.0, 1.0]], "anchor 10 is not positive definite"),
        ([[np.inf, 0.0], [0.0, 1.0]], "anchor 10 is not positive definite"),
        ([[1.0, 0.1], [0.2, 1.0]], "anchor 10 is not positive definite"),
        ([[1.0, 1.0], [1.0, 1.0]], "anchor 10 is not positive definite"),
        ([[0.0, 0.0], [0.0, 1.0]], "anchor 10 is not positive definite"),
    ], ids=["nan", "inf", "asymmetric", "singular", "zero-variance"])
    def test_invalid_entry_names_the_anchor(self, entry, message):
        covs = np.array([np.eye(2), entry, np.eye(2)])
        with pytest.raises(ValueError, match=f"residual covariance of {message}"):
            GoalModelParams((5, 10, 15), (np.zeros((2, 2)),) * 3, covs, 2)

    @pytest.mark.parametrize("covs,message", [
        (np.zeros((0, 2, 2)), r"one \(weights, 2x2 residual_cov\) pair required per anchor"),
        (np.ones((3, 2, 2)), r"one \(weights, 2x2 residual_cov\) pair required per anchor"),
        (np.ones((2, 3)), r"one \(weights, 2x2 residual_cov\) pair required per anchor"),
    ], ids=["empty", "too-many", "wrong-shape"])
    def test_misshaped_table_rejected(self, covs, message):
        with pytest.raises(ValueError, match=message):
            GoalModelParams((5, 10), (np.zeros((2, 2)),) * 2, covs, 2)
