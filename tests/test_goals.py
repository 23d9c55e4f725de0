import numpy as np
import pytest

from trajrefine.data import Dataset, Segment, gen_synthetic
from trajrefine.gaussian import Cov2, Gaussian2D, is_psd
from trajrefine.goals import (
    GoalAnchor,
    GoalModelParams,
    GoalSet,
    fit_goal_model,
    interpolate_goals,
    predict_goals,
)
from trajrefine.predictors import PredictorParams, RefineConfig, rollout_batch

ANCHORS = (5, 10, 15, 20, 25)


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
            goals = predict_goals(params, seg.history)
            for anchor in goals.anchors:
                truth = seg.future[anchor.step - 1]
                np.testing.assert_allclose(anchor.gaussian.mean, truth, atol=1e-8)
        for cov in params.residual_covs:
            # residuals vanish, only the +1e-6 I floor remains
            np.testing.assert_allclose(cov.as_matrix(), 1e-6 * np.eye(2), atol=1e-9)

    def test_infinite_ridge_shrinks_to_last_position(self, cv_corpus):
        params = fit_goal_model(cv_corpus, ANCHORS, ridge_lambda=1e12)
        seg = cv_corpus.segments[0]
        goals = predict_goals(params, seg.history)
        for anchor in goals.anchors:
            np.testing.assert_allclose(anchor.gaussian.mean, seg.history[-1], atol=1e-4)

    def test_single_segment_zero_ridge_is_singular(self):
        ds = Dataset([cv_segment(10.0, 0.3, (0.0, 0.0))])
        with pytest.raises(ValueError, match="singular"):
            fit_goal_model(ds, ANCHORS, ridge_lambda=0.0)

    def test_empty_training_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            fit_goal_model(Dataset([]), ANCHORS, 1e-6)

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
            a.trace != b.trace
            for a, b in zip(with_val.residual_covs, without.residual_covs)
        )

    def test_per_anchor_independence(self, cv_corpus):
        full = fit_goal_model(cv_corpus, (5, 10, 25), ridge_lambda=1e-6)
        reduced = fit_goal_model(cv_corpus, (5, 25), ridge_lambda=1e-6)
        np.testing.assert_array_equal(full.weights[0], reduced.weights[0])
        np.testing.assert_array_equal(full.weights[2], reduced.weights[1])
        assert full.residual_covs[0] == reduced.residual_covs[0]


class TestPredictGoals:
    def test_cv_straight_history_extrapolates(self, cv_corpus):
        params = fit_goal_model(cv_corpus, ANCHORS, ridge_lambda=1e-9)
        speed = 12.0
        seg = cv_segment(speed, 0.0, (3.0, -7.0))
        goals = predict_goals(params, seg.history)
        last = seg.history[-1]
        anchor_25 = goals.anchors[-1]
        np.testing.assert_allclose(
            anchor_25.gaussian.mean, last + [5.0 * speed, 0.0], atol=1e-6
        )

    def test_zero_weights_return_last_position(self):
        params = GoalModelParams(
            anchor_steps=(5, 10),
            weights=(np.zeros((30, 2)), np.zeros((30, 2))),
            residual_covs=(Cov2.isotropic(0.5), Cov2.isotropic(1.0)),
            history_len=16,
        )
        history = np.column_stack([np.linspace(0, 3, 16), np.linspace(0, -1, 16)])
        goals = predict_goals(params, history)
        for anchor in goals.anchors:
            np.testing.assert_allclose(anchor.gaussian.mean, history[-1], atol=1e-12)

    def test_history_length_mismatch(self, cv_corpus):
        params = fit_goal_model(cv_corpus, ANCHORS, 1e-6)
        with pytest.raises(ValueError, match="history"):
            predict_goals(params, np.zeros((5, 2)))

    def test_deterministic(self, cv_corpus):
        params = fit_goal_model(cv_corpus, ANCHORS, 1e-6)
        history = cv_corpus.segments[3].history
        a = predict_goals(params, history)
        b = predict_goals(params, history)
        for x, y in zip(a.anchors, b.anchors):
            assert x == y

    def test_rotation_equivariance(self):
        train = gen_synthetic("turn", 150, 0.05, seed=17)
        params = fit_goal_model(train, ANCHORS, 1e-6, rotate=True)
        history = train.segments[0].history
        alpha = 0.7
        c, s = np.cos(alpha), np.sin(alpha)
        rot = np.array([[c, -s], [s, c]])
        pivot = history[-1]
        rotated = (history - pivot) @ rot.T + pivot
        base = predict_goals(params, history)
        moved = predict_goals(params, rotated)
        for a, b in zip(base.anchors, moved.anchors):
            expected = rot @ (a.gaussian.mean - pivot) + pivot
            np.testing.assert_allclose(b.gaussian.mean, expected, atol=1e-9)

    def test_translation_equivariance(self):
        train = gen_synthetic("lane_change", 150, 0.1, seed=18)
        params = fit_goal_model(train, ANCHORS, 1e-6)
        history = train.segments[0].history
        shift = np.array([123.5, -48.25])
        base = predict_goals(params, history)
        moved = predict_goals(params, history + shift)
        for a, b in zip(base.anchors, moved.anchors):
            np.testing.assert_allclose(
                b.gaussian.mean, a.gaussian.mean + shift, atol=1e-9
            )
            assert a.gaussian.sigma_x == b.gaussian.sigma_x


def measurements(goals, last_obs, horizon=30, cfg=RefineConfig()):
    """Per-step goal measurements of one GoalSet as Cov2 pairs, step k at [k-1]."""
    means = np.array([[a.gaussian.mean for a in goals.anchors]])
    covs = np.array([[a.gaussian.cov.as_matrix() for a in goals.anchors]])
    z, r = interpolate_goals(
        goals.steps, np.array([last_obs], dtype=float), means, covs, horizon,
        cfg.epsilon, cfg.beta,
    )
    return [(m, Cov2.from_matrix(c)) for m, c in zip(z[0], r[0])]


class TestGoalMeasurementAt:
    def setup_method(self):
        self.goals = GoalSet(
            (
                GoalAnchor(10, Gaussian2D(0.0, 0.0, 1.0, 1.0, 0.0)),
                GoalAnchor(20, Gaussian2D(10.0, 0.0, 3.0, 3.0, 0.0)),
            )
        )
        self.at = measurements(self.goals, [0.0, 0.0])

    def test_anchor_step_is_exact(self):
        mean, cov = self.at[10 - 1]
        np.testing.assert_allclose(mean, [0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(cov.as_matrix(), np.eye(2), atol=1e-15)

    def test_midpoint_interpolation(self):
        mean, cov = self.at[15 - 1]
        np.testing.assert_allclose(mean, [5.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(cov.as_matrix(), 5.0 * np.eye(2), atol=1e-15)

    def test_before_first_anchor_uses_virtual_origin(self):
        goals = GoalSet((GoalAnchor(5, Gaussian2D(1.0, 6.0, 1.0, 1.0, 0.0)),))
        at = measurements(goals, [1.0, 1.0], cfg=RefineConfig(epsilon=0.05))
        mean, cov = at[2 - 1]
        np.testing.assert_allclose(mean, [1.0, 3.0], atol=1e-12)
        np.testing.assert_allclose(cov.as_matrix(), 0.43 * np.eye(2), atol=1e-12)

    def test_beyond_last_anchor_holds_and_inflates(self):
        at = measurements(self.goals, [0.0, 0.0], cfg=RefineConfig(beta=0.5))
        mean, cov = at[24 - 1]
        np.testing.assert_allclose(mean, [10.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(
            cov.as_matrix(), (9.0 + 0.5 * 4) * np.eye(2), atol=1e-12
        )

    def test_continuous_at_anchor_steps(self):
        # interior anchor: approaching from both sides converges to the anchor
        for k in (9, 10, 11, 19, 20, 21):
            assert is_psd(self.at[k - 1][1], 0.0)
        lo, at, hi = self.at[19 - 1], self.at[20 - 1], self.at[21 - 1]
        assert abs(lo[1].trace - at[1].trace) <= abs(
            self.at[10 - 1][1].trace - at[1].trace
        )
        np.testing.assert_allclose(at[0], [10.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(hi[1].as_matrix(), 9.5 * np.eye(2), atol=1e-12)

    def test_interpolated_covariance_always_psd(self):
        goals = GoalSet(
            (
                GoalAnchor(5, Gaussian2D(1.0, 2.0, 0.5, 2.0, 0.8)),
                GoalAnchor(17, Gaussian2D(-3.0, 0.0, 2.5, 0.3, -0.9)),
            )
        )
        at = measurements(goals, [0.5, 0.5], horizon=29)
        assert len(at) == 29
        for _, cov in at:
            assert is_psd(cov, 1e-12)

    def test_step_below_one_rejected(self):
        # measurements start at step 1, between the virtual origin and step 10
        mean, cov = self.at[0]
        np.testing.assert_allclose(mean, [0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(cov.as_matrix(), 0.145 * np.eye(2), atol=1e-15)
        params = PredictorParams("cv", 0.2, (Cov2.isotropic(0.1),) * 25)
        with pytest.raises(ValueError, match="non-negative"):
            rollout_batch(params, np.zeros((1, 16, 2)), -1)


class TestGoalSetValidation:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            GoalSet(())

    def test_non_increasing_steps_rejected(self):
        g = Gaussian2D(0.0, 0.0, 1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            GoalSet((GoalAnchor(5, g), GoalAnchor(5, g)))

    def test_anchor_step_must_be_positive(self):
        with pytest.raises(ValueError):
            GoalAnchor(0, Gaussian2D(0.0, 0.0, 1.0, 1.0, 0.0))
