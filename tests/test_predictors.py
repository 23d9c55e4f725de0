import numpy as np
import pytest

import reference_rollout as ref
import trajrefine.predictors as predictors
from trajrefine.data import Dataset, Segment, gen_synthetic
from trajrefine.fusion import SingularInnovationError
from trajrefine.gaussian import params_from_covs
from trajrefine.goals import (
    GoalModelParams,
    fit_goal_model,
    goal_moments,
)
from trajrefine.predictors import (
    PredictorParams,
    RefineConfig,
    fit_ar_rls,
    fit_predictor,
    rollout,
    rollout_batch,
    rollout_refined,
    rollout_vanilla,
)

DT = 0.2


def iso(q, n):
    """n copies of the isotropic covariance q I as an (n, 2, 2) table."""
    return np.broadcast_to(q * np.eye(2), (n, 2, 2))


def cv_params(horizon=25, window=2, q=0.1):
    return PredictorParams("cv", DT, iso(q, horizon), window=window)


def doubling_segment(start, d0, tau, horizon, seg_id="d", agent=0):
    # displacements double each step: d_{k+1} = 2 d_k
    pts = [np.asarray(start, dtype=float)]
    d = np.asarray(d0, dtype=float)
    for _ in range(tau + horizon):
        pts.append(pts[-1] + d)
        d = 2.0 * d
    pts = np.array(pts)
    return Segment(seg_id, agent, DT, pts[: tau + 1], pts[tau + 1 :])


def first_step(params, history):
    means, covs = rollout_batch(params, np.asarray(history, dtype=float)[None], 1)
    return means[0, 0], covs[0, 0]


def origin_goal(horizon=25):
    """Goal model that puts anchors on the last observed position."""
    steps = tuple(range(1, horizon + 1))
    return GoalModelParams(
        anchor_steps=steps,
        weights=tuple(np.zeros((2, 2)) for _ in steps),
        residual_covs=iso(1.0, len(steps)),
        history_len=2,
        rotate=False,
    )


class TestInit:
    def test_cv_two_point_velocity(self):
        mean, cov = first_step(cv_params(), [[0.0, 0.0], [1.0, 0.0]])
        # velocity (5, 0) m/s at dt = 0.2
        np.testing.assert_allclose(mean, [2.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(cov, 0.1 * np.eye(2), atol=1e-15)

    def test_ar_buffer_holds_lag_plus_one(self):
        weights = np.array([[0.5, 0.1], [0.2, -0.3], [1.0, 0.4], [-0.6, 0.7]])
        params = PredictorParams(
            "ar", DT, iso(1.0, 5), lag=2, ar_weights=weights
        )
        assert params.buffer_len == 3
        history = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 1.0], [3.0, 3.0]])
        moved_first = history.copy()
        moved_first[0] = [-40.0, 17.0]
        full, _ = rollout_batch(params, history[None])
        tail, _ = rollout_batch(params, history[-3:][None])
        moved, _ = rollout_batch(params, moved_first[None])
        np.testing.assert_array_equal(full, tail)
        np.testing.assert_array_equal(full, moved)

    def test_ar_lag_two_accepts_three_point_history(self):
        # exactly p+1 points: the buffer carries the last two displacements,
        # oldest first, (1, 0) then (1, 1)
        history = [[0.0, 0.0], [1.0, 0.0], [2.0, 1.0]]
        for weights, disp in (
            (np.vstack([np.eye(2), np.zeros((2, 2))]), [1.0, 0.0]),
            (np.vstack([np.zeros((2, 2)), np.eye(2)]), [1.0, 1.0]),
        ):
            params = PredictorParams(
                "ar", DT, iso(1.0, 5), lag=2, ar_weights=weights
            )
            mean, _ = first_step(params, history)
            np.testing.assert_array_equal(mean, np.array(history[-1]) + disp)

    def test_insufficient_history(self):
        params = PredictorParams(
            "ar", DT, iso(1.0, 1), lag=2, ar_weights=np.zeros((4, 2))
        )
        with pytest.raises(ValueError, match="at least 3"):
            rollout_batch(params, np.array([[[0.0, 0.0], [1.0, 0.0]]]))


class TestStep:
    def test_horizon_exceeded(self):
        params = cv_params(horizon=3)
        history = np.array([[[0.0, 0.0], [1.0, 0.0]]])
        means, _ = rollout_batch(params, history, 3)
        assert means.shape == (1, 3, 2)
        with pytest.raises(ValueError, match="horizon of 3 steps exceeded at step 4"):
            rollout_batch(params, history, 4)
        with pytest.raises(ValueError, match="horizon"):
            rollout_refined(params, origin_goal(), history[0], 4)

    def test_ca_quadratic_extrapolation(self):
        params = PredictorParams("ca", DT, iso(0.1, 5), window=3)
        # points of t^2 along x: 0, 1, 4 -> next is 9
        mean, _ = first_step(params, [[0.0, 0.0], [1.0, 1.0], [4.0, 2.0]])
        np.testing.assert_allclose(mean, [9.0, 3.0], atol=1e-10)

    def test_ar_recovers_doubling_displacements(self):
        segs = [
            doubling_segment((i * 0.5, -i * 0.2), (0.01 + 0.002 * i, 0.005), 3, 3,
                             seg_id=f"d{i}", agent=i)
            for i in range(6)
        ]
        ds = Dataset(segs, DT, tau=3, horizon=3)
        params = fit_predictor("ar", ds, lag=1, ridge_lambda=1e-12)
        np.testing.assert_allclose(params.ar_weights, 2.0 * np.eye(2), atol=1e-8)
        seg = segs[0]
        estimates = rollout_vanilla(params, seg.history)
        preds = np.array([e.mean for e in estimates])
        np.testing.assert_allclose(preds, seg.future, atol=1e-8)


class TestFeedback:
    def test_noop_replacement_keeps_state(self):
        # goals on the vanilla path: every fused mean equals the raw one, so
        # feeding it back leaves the rollout exactly as vanilla
        history = np.array([[[0.0, 0.0], [1.0, 0.0]]])
        steps = tuple(range(1, 26))
        on_path = GoalModelParams(
            anchor_steps=steps,
            weights=tuple(np.array([[float(k), 0.0], [0.0, 0.0]]) for k in steps),
            residual_covs=iso(1.0, len(steps)),
            history_len=2,
            rotate=False,
        )
        params = cv_params()
        vanilla, _ = rollout_batch(params, history)
        means, _ = rollout_batch(params, history, None, on_path)
        np.testing.assert_array_equal(means, vanilla)

    def test_shift_propagates_doubled_for_two_point_window(self):
        # A goal pulls step 1 off the raw position by delta. With a two-point
        # cv window the fed-back shift moves the raw step 2 by 2 * delta, and
        # the step-2 update keeps (I - K2) = P2' P2^-1 of that. The rollout
        # without feedback is the reference's, which can leave it out.
        params = cv_params()
        history = np.array([[[0.0, 0.0], [1.0, 0.0]]])
        goal = origin_goal(horizon=1)
        fused, covs = rollout_batch(params, history, None, goal)
        raw, _ = ref.rollout_refined(params, goal, history[0], params.horizon,
                                     feedback="raw")
        delta = fused[0, 0] - [2.0, 0.0]
        assert np.abs(delta).max() > 0.05
        np.testing.assert_allclose(fused[0, 0], raw[0], atol=1e-12)
        keep = covs[0, 1] @ np.linalg.inv(params.step_covs[1])
        np.testing.assert_allclose(
            fused[0, 1] - raw[1], keep @ (2.0 * delta), atol=1e-12
        )

    def test_feedback_before_any_step(self):
        # feedback only replaces predicted positions: the observed history is
        # never written, and a zero-step rollout predicts nothing
        history = np.array([[[0.0, 0.0], [1.0, 0.0]]])
        before = history.copy()
        means, covs = rollout_batch(cv_params(), history, 0, origin_goal())
        assert means.shape == (1, 0, 2) and covs.shape == (1, 0, 2, 2)
        rollout_batch(cv_params(), history, None, origin_goal())
        np.testing.assert_array_equal(history, before)
        with pytest.raises(ValueError, match="non-negative"):
            rollout_batch(cv_params(), history, -1)


class TestFitPredictor:
    def test_noiseless_cv_covariances_at_floor(self):
        ds = gen_synthetic("cv", 60, 0.0, seed=31)
        params = fit_predictor("cv", ds)
        for cov in params.step_covs:
            np.testing.assert_allclose(cov, 1e-6 * np.eye(2), atol=1e-10)

    def test_noisy_ar_error_trace_grows_with_horizon(self):
        ds = gen_synthetic("cv", 1000, 0.3, seed=32)
        params = fit_predictor("ar", ds, lag=3)
        traces = params.step_covs[:, 0, 0] + params.step_covs[:, 1, 1]
        assert traces[4] > traces[0]
        assert traces[24] > traces[4] > traces[0]
        assert all(b >= a for a, b in zip(traces, traces[1:]))

    def test_infinite_ridge_repeats_last_position(self):
        ds = gen_synthetic("cv", 40, 0.1, seed=33)
        params = fit_predictor("ar", ds, lag=3, ridge_lambda=1e14)
        np.testing.assert_allclose(params.ar_weights, 0.0, atol=1e-6)
        seg = ds.segments[0]
        estimates = rollout_vanilla(params, seg.history)
        for est in estimates:
            np.testing.assert_allclose(est.mean, seg.history[-1], atol=1e-4)

    def test_default_window_per_backbone(self):
        ds = gen_synthetic("ca", 20, 0.0, seed=34)
        assert fit_predictor("cv", ds).window == 2
        assert fit_predictor("ca", ds).window == 3
        assert fit_predictor("ca", ds, window=5).window == 5

    @pytest.mark.parametrize("backbone,window", [("cv", 2), ("ca", 3), ("ar", 2)])
    def test_default_window_is_the_classes(self, backbone, window):
        ds = gen_synthetic("ca", 20, 0.0, seed=34)
        shape = {"ar_weights": np.zeros((2, 2))} if backbone == "ar" else {}
        assert PredictorParams(backbone, DT, iso(0.1, 5), **shape).window == window
        assert fit_predictor(backbone, ds).window == window

    def test_empty_training_set(self):
        with pytest.raises(ValueError, match="empty"):
            fit_predictor("cv", Dataset([]))

    def test_singular_normal_equations_with_zero_ridge(self):
        # doubling displacements make consecutive lag features collinear
        segs = [doubling_segment((0.0, 0.0), (0.01, 0.004), 4, 4)]
        ds = Dataset(segs, DT, tau=4, horizon=4)
        with pytest.raises(ValueError, match="singular"):
            fit_predictor("ar", ds, lag=2, ridge_lambda=0.0)

    @pytest.mark.parametrize("key,value", [("dt", 0.1), ("tau", 10)])
    def test_validation_protocol_must_match(self, key, value):
        train = gen_synthetic("cv", 20, 0.1, seed=35)
        val = gen_synthetic("cv", 10, 0.1, seed=36, **{key: value})
        with pytest.raises(ValueError, match=f"synthetic/cv: {key}={value} differs"):
            fit_predictor("cv", train, val)

    def test_longer_validation_horizon_calibrates_fitted_horizon(self):
        train = gen_synthetic("cv", 20, 0.1, seed=35)
        val = gen_synthetic("cv", 10, 0.1, seed=36, horizon=30)
        assert fit_predictor("ar", train, val, lag=2).horizon == 25

    def test_shorter_validation_horizon_rejected(self):
        train = gen_synthetic("cv", 20, 0.1, seed=35)
        val = gen_synthetic("cv", 10, 0.1, seed=36, horizon=10)
        with pytest.raises(ValueError,
                           match="^synthetic/cv: horizon=10 is short of the fit's "
                                 "last step 25$"):
            fit_predictor("cv", train, val)

    def test_unknown_backbone(self):
        with pytest.raises(ValueError, match="backbone"):
            fit_predictor("lstm", gen_synthetic("cv", 5, 0.0, seed=1))

    @pytest.mark.parametrize("backbone", [["ar"], {"a": 1}], ids=["array", "object"])
    def test_backbone_that_is_not_a_string_is_named(self, backbone):
        # raised TypeError: unhashable type
        with pytest.raises(ValueError) as exc:
            PredictorParams(backbone, DT, np.eye(2)[None])
        assert str(exc.value) == f"unknown backbone {backbone!r}; valid: ('cv', 'ca', 'ar')"

    def test_trace_monotonicity_enforced_in_params(self):
        covs = [2.0 * np.eye(2), np.eye(2)]
        with pytest.raises(ValueError, match="non-decreasing"):
            PredictorParams("cv", DT, covs)

    @pytest.mark.parametrize("ridge", [-5.0, -1e-12, np.nan, np.inf, -np.inf])
    def test_invalid_ridge_rejected_by_name(self, ridge):
        ds = gen_synthetic("cv", 20, 0.1, seed=35)
        with pytest.raises(ValueError, match="ridge_lambda must be finite and >= 0"):
            fit_predictor("ar", ds, lag=3, ridge_lambda=ridge)

    @pytest.mark.parametrize("ridge", [-5.0, np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("backbone", ["cv", "ca"])
    def test_invalid_ridge_rejected_for_closed_form_backbones(self, backbone, ridge):
        ds = gen_synthetic("cv", 20, 0.1, seed=35)
        with pytest.raises(ValueError, match="ridge_lambda must be finite and >= 0"):
            fit_predictor(backbone, ds, ridge_lambda=ridge)

    @pytest.mark.parametrize("dt", [np.nan, np.inf, 0.0])
    def test_dt_not_finite_and_positive_rejected(self, dt):
        with pytest.raises(ValueError, match="^dt must be finite and positive$"):
            PredictorParams("cv", dt, iso(0.1, 3))

    def test_equality_and_hash_are_identity(self):
        a, b = cv_params(), cv_params()
        assert a == a and a != b
        assert hash(a) == hash(a) and isinstance(hash(b), int)


def with_entry(step, matrix, n=4):
    """An isotropic table whose entry for 1-based ``step`` is ``matrix``."""
    table = np.array([np.eye(2) * (1.0 + k) for k in range(n)])
    table[step - 1] = matrix
    return table


class TestStepCovarianceTable:
    def test_stored_once_as_a_read_only_copy(self):
        table = with_entry(2, 1.5 * np.eye(2))
        params = PredictorParams("cv", DT, table)
        table[0, 0, 0] = 99.0
        assert params.step_covs[0, 0, 0] == 1.0 and not params.step_covs.flags.writeable
        assert params.horizon == 4

    @pytest.mark.parametrize("covs,message", [
        (np.zeros((0, 2, 2)), "at least one per-step covariance is required"),
        (np.ones((3, 3)), r"must be \(T, 2, 2\), got shape \(3, 3\)"),
        (np.ones((3, 2, 3)), r"must be \(T, 2, 2\), got shape \(3, 2, 3\)"),
        (with_entry(3, [[np.nan, 0.0], [0.0, 3.0]]), "step covariance 3 is not PSD"),
        (with_entry(2, [[np.inf, 0.0], [0.0, 2.0]]), "step covariance 2 is not PSD"),
        (with_entry(3, [[3.0, 0.1], [0.2, 3.0]]), "step covariance 3 is not PSD"),
        (with_entry(2, [[2.0, 3.0], [3.0, 2.0]]), "step covariance 2 is not PSD"),
        (with_entry(4, [[1.0, 0.0], [0.0, 1.0]]), r"non-decreasing \(step 4\)"),
        # the first failing step is named, whatever later steps hold
        (with_entry(2, 0.5 * np.eye(2)) + np.array([0, 0, 0, np.nan])[:, None, None],
         r"non-decreasing \(step 2\)"),
    ], ids=["empty", "2-d", "wrong-inner-shape", "nan", "inf", "asymmetric", "not-psd",
            "trace-drops", "first-bad-step"])
    def test_invalid_table_rejected(self, covs, message):
        with pytest.raises(ValueError, match=message):
            PredictorParams("cv", DT, covs)

    @pytest.mark.parametrize("field,value", [("lag", 3.0), ("window", 2.5), ("lag", "3")])
    def test_non_integer_size_rejected_by_name(self, field, value):
        shape = {"lag": 3, "ar_weights": np.zeros((6, 2)), field: value}
        with pytest.raises(ValueError, match=f"{field} must be an integer, got {value!r}"):
            PredictorParams("ar", DT, iso(1.0, 5), **shape)

    @pytest.mark.parametrize("backbone,shape,message", [
        ("cv", {"window": 1}, "cv backbone needs a window of at least 2 positions"),
        ("ca", {"window": 2}, "ca backbone needs a window of at least 3 positions"),
        ("ar", {"lag": 0, "ar_weights": np.zeros((0, 2))}, "ar backbone needs lag >= 1"),
        ("ar", {"lag": 2}, "ar backbone needs a weight matrix"),
        ("ar", {"lag": 2, "ar_weights": np.zeros((2, 2))},
         r"ar weights must have shape \(4, 2\), got \(2, 2\)"),
        ("ar", {"lag": 1, "ar_weights": [[1.0, 0.0], [0.0, -np.inf]]}, "ar_weights must be finite"),
        ("ar", {"lag": 1, "ar_weights": [[np.nan, 0.0], [0.0, 1.0]]}, "ar_weights must be finite"),
        # each rule holds for every backbone, also one that does not read the field
        ("ar", {"window": 1, "ar_weights": np.zeros((2, 2))},
         "ar backbone needs a window of at least 2 positions"),
        ("ca", {"lag": -5}, "ca backbone needs lag >= 1"),
        ("cv", {"lag": 0}, "cv backbone needs lag >= 1"),
        ("cv", {"ar_weights": np.zeros((2, 2))}, "cv backbone takes no ar_weights"),
        ("ca", {"ar_weights": [[np.nan, 1.0]]}, "ca backbone takes no ar_weights"),
    ], ids=["cv-window", "ca-window", "ar-lag", "ar-no-weights", "ar-weight-shape",
            "ar-weight-inf", "ar-weight-nan", "ar-window", "ca-lag", "cv-lag",
            "cv-weights", "ca-weights-nan"])
    def test_backbone_window_lag_and_weights_rejected(self, backbone, shape, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            PredictorParams(backbone, DT, iso(1.0, 5), **shape)

    def test_integer_like_sizes_become_ints(self):
        params = PredictorParams("ar", DT, iso(1.0, 5), window=np.int64(4), lag=np.int32(3),
                                 ar_weights=np.zeros((6, 2)))
        assert type(params.window) is int and type(params.lag) is int

    @pytest.mark.parametrize("horizon", [2.5, 2.0, "2"])
    def test_non_integer_horizon_rejected_by_name(self, horizon):
        # int() used to truncate 2.5 and roll out 2 steps
        params = PredictorParams("cv", DT, iso(1.0, 5))
        with pytest.raises(ValueError, match=f"^horizon must be an integer, got {horizon!r}$"):
            rollout_batch(params, np.zeros((1, 4, 2)), horizon)
        assert rollout_batch(params, np.zeros((1, 4, 2)), np.int64(2))[0].shape == (1, 2, 2)

    @pytest.mark.parametrize("kw", [{"lag": 2.0}, {"window": 3.0}])
    def test_fit_rejects_non_integer_size(self, kw):
        ds = gen_synthetic("cv", 10, 0.1, seed=37)
        (field, value), = kw.items()
        with pytest.raises(ValueError, match=f"{field} must be an integer, got {value!r}"):
            fit_predictor("ar" if field == "lag" else "ca", ds, **kw)


class TestFitArRls:
    @pytest.mark.parametrize("delta", [0.0, -1.0, np.nan, np.inf])
    def test_delta_must_be_finite_and_positive(self, delta):
        with pytest.raises(ValueError, match="delta must be finite and positive"):
            fit_ar_rls([(np.array([1.0]), 2.0)], delta=delta)

    def test_converges_on_exact_line(self):
        rng = np.random.default_rng(41)
        xs = rng.uniform(1.0, 2.0, size=50)
        pairs = [(np.array([x]), 2.0 * x) for x in xs]
        w = fit_ar_rls(pairs, forgetting=1.0)
        assert w.shape == (1,)
        assert abs(w[0] - 2.0) < 1e-8

    def test_matches_batch_ridge_oracle(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(50, 3))
        true_w = np.array([[1.5, -0.5], [0.2, 0.8], [-1.0, 0.3]])
        y = x @ true_w + 0.05 * rng.normal(size=(50, 2))
        delta = 1e-8
        w = fit_ar_rls(zip(x, y), forgetting=1.0, delta=delta)
        oracle = np.linalg.solve(x.T @ x + delta * np.eye(3), x.T @ y)
        np.testing.assert_allclose(w, oracle, atol=1e-8)

    def test_matches_exponentially_weighted_oracle(self):
        rng = np.random.default_rng(43)
        lam = 0.9
        x = rng.normal(size=(50, 3))
        y = x @ np.array([0.7, -1.2, 0.4]) + 0.1 * rng.normal(size=50)
        delta = 1e-8
        w = fit_ar_rls(zip(x, y), forgetting=lam, delta=delta)
        n = len(x)
        weights = lam ** (n - 1 - np.arange(n))
        gram = (x * weights[:, None]).T @ x + (lam ** n) * delta * np.eye(3)
        rhs = (x * weights[:, None]).T @ y
        oracle = np.linalg.solve(gram, rhs)
        np.testing.assert_allclose(w, oracle, atol=1e-8)

    def test_agrees_with_batch_solve_to_rounding(self):
        # the recursion sums the batch normal equations, so only their rounding differs
        rng = np.random.default_rng(7)
        x = rng.normal(size=(80, 3))
        y = x @ np.array([1.0, -2.0, 0.5]) + 0.05 * rng.normal(size=80)
        w = fit_ar_rls(zip(x, y), forgetting=1.0, delta=1e-8)
        oracle = np.linalg.solve(x.T @ x + 1e-8 * np.eye(3), x.T @ y)
        assert np.abs(w - oracle).max() <= 1e-12

    @pytest.mark.filterwarnings("error")
    def test_feature_never_excited_gets_weight_zero(self):
        # after 7000 pairs at 0.9, 1 / (0.9^t delta) overflows: the never-excited
        # direction must rest on the decayed prior, not on its inverse
        x0 = np.random.default_rng(44).normal(size=7000)
        x = np.column_stack([x0, np.zeros_like(x0)])
        w = fit_ar_rls(zip(x, 2.0 * x0), forgetting=0.9)
        assert np.isfinite(w).all()
        np.testing.assert_allclose(w, [2.0, 0.0], rtol=0, atol=1e-9)

    def test_equal_features_raise_instead_of_nan(self):
        # once the prior has decayed below their rounding, the equations are singular
        x0 = np.random.default_rng(45).normal(size=5000)
        x = np.column_stack([x0, x0])
        with pytest.raises(ValueError):  # numpy's LinAlgError: "Singular matrix"
            fit_ar_rls(zip(x, 3.0 * x0), forgetting=0.95)

    def test_prior_decayed_to_zero_is_named_in_the_error(self):
        # 1e-8 * 0.5**n rounds to exactly 0 at n = 1049; at 0.51 it stays at the
        # least subnormal, which still gives the never-excited feature weight 0
        x0 = np.random.default_rng(46).normal(size=1200)
        x = np.column_stack([x0, np.zeros_like(x0)])
        with pytest.raises(ValueError) as info:
            fit_ar_rls(zip(x, 2.0 * x0), forgetting=0.5)
        message = str(info.value)
        assert "delta=1e-08" in message and "forgetting=0.5" in message
        assert "1200 pairs" in message and "ridge_lambda" not in message
        w = fit_ar_rls(zip(x, 2.0 * x0), forgetting=0.51)
        np.testing.assert_allclose(w, [2.0, 0.0], rtol=0, atol=1e-9)

    def test_well_excited_stream_solves_with_a_prior_decayed_to_zero(self):
        x = np.random.default_rng(47).normal(size=(1200, 2))
        w = fit_ar_rls(zip(x, x @ np.array([1.5, -0.5])), forgetting=0.5)
        np.testing.assert_allclose(w, [1.5, -0.5], rtol=0, atol=1e-9)

    @pytest.mark.parametrize("order", [(0, 1, 2), (0, 2, 1)])
    def test_first_pair_fixes_the_output_shape(self, order):
        v = np.array([1.0, 0.5])
        pairs = [(v, 1.0), (2 * v, [2.0]), (3 * v, 3.0)]
        assert fit_ar_rls([pairs[i] for i in order]).shape == (2,)
        assert fit_ar_rls([(v, [1.0]), (2 * v, 2.0)]).shape == (2, 1)

    def test_forgetting_domain(self):
        with pytest.raises(ValueError):
            fit_ar_rls([(np.ones(1), 1.0)], forgetting=0.0)
        with pytest.raises(ValueError):
            fit_ar_rls([(np.ones(1), 1.0)], forgetting=1.5)

    def test_empty_stream(self):
        with pytest.raises(ValueError):
            fit_ar_rls([])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("pairs,message", [
        # NaN weights, inf weights, numpy's matmul message and a silently broadcast (2, 2)
        ([(np.array([1.0, np.nan]), 1.0), (np.array([0.5, 2.0]), 2.0)],
         "pair 0: feature and target must be finite"),
        ([(np.array([1.0, 0.0]), 1.0), (np.array([0.5, 2.0]), np.inf)],
         "pair 1: feature and target must be finite"),
        ([(np.array([1.0, 0.0]), 1.0), (np.array([0.5, 2.0, 3.0]), 2.0)],
         r"pair 1: feature and target sizes \(3, 1\) differ from the first pair's \(2, 1\)"),
        ([(np.array([1.0, 0.0]), 1.0), (np.array([0.5, 2.0]), [2.0, 1.0])],
         r"pair 1: feature and target sizes \(2, 2\) differ from the first pair's \(2, 1\)"),
    ], ids=["nan-feature", "inf-target", "feature-size", "target-size"])
    def test_bad_pair_rejected_by_its_index(self, pairs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            fit_ar_rls(pairs)


class TestRolloutVanilla:
    def test_straight_history_continues_exactly(self):
        params = cv_params()
        history = np.column_stack([np.arange(16) * 2.0, np.zeros(16)])
        estimates = rollout_vanilla(params, history)
        expected = np.column_stack(
            [30.0 + 2.0 * np.arange(1, 26), np.zeros(25)]
        )
        np.testing.assert_allclose([e.mean for e in estimates], expected, atol=1e-9)

    @pytest.mark.parametrize("shape", [(4, 2), (1, 4, 3), (1, 1, 4, 2)])
    def test_histories_not_n_by_points_by_2_rejected(self, shape):
        with pytest.raises(ValueError, match=r"^histories must be an \(N, n, 2\) array$"):
            rollout_batch(cv_params(), np.zeros(shape), 3)

    def test_overflowing_rollout_rejected(self):
        # 2 x_k - x_(k-1) overflows to inf on the first step
        history = np.array([[[-1.5e308, 0.0], [1.5e308, 0.0]]])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="^rollout produced non-finite positions$"):
                rollout_batch(cv_params(), history, 3)

    def test_refined_dispatch_without_goal_model_rejected(self):
        history = np.column_stack([np.arange(16.0), np.zeros(16)])
        with pytest.raises(ValueError, match="^refined rollout requires a goal model$"):
            predictors.rollout(cv_params(), None, history)
        with pytest.raises(ValueError, match="^refined rollout requires a goal model$"):
            predictors.rollout_refined(cv_params(), None, history)  # was a vanilla rollout
        vanilla = predictors.rollout(cv_params(), None, history, 3, RefineConfig(False))
        assert [e.mean.tolist() for e in vanilla] == [[16.0, 0.0], [17.0, 0.0], [18.0, 0.0]]

    def test_output_length(self):
        params = cv_params(horizon=25)
        history = np.column_stack([np.arange(16.0), np.arange(16.0)])
        assert len(rollout_vanilla(params, history)) == 25
        assert len(rollout_vanilla(params, history, 7)) == 7


class TestNonFiniteHistory:
    """A NaN or inf anywhere in a history is rejected before any arithmetic. Outside
    the backbone's window it gave finite predictions; refined, a NaN was blamed on
    the output and an inf raised numpy's RuntimeWarning."""

    @pytest.fixture(scope="class")
    def models(self):
        train = gen_synthetic("ca", 40, 0.1, seed=5)
        return (train, fit_goal_model(train),
                {bb: fit_predictor(bb, train) for bb in ("cv", "ca", "ar")})

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("backbone", ["cv", "ca", "ar"])
    @pytest.mark.parametrize("refined", [False, True], ids=["vanilla", "refined"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_rejected_naming_the_first_segment(self, models, backbone, refined, bad):
        train, goal_params, fitted = models
        params, goal_params = fitted[backbone], goal_params if refined else None
        histories = train.histories()[:3].copy()
        histories[1, 0, 0] = histories[2, -1, 1] = bad  # the oldest point is outside every window
        with pytest.raises(ValueError,
                           match="^history of segment 1 contains non-finite coordinates$"):
            rollout_batch(params, histories, goal_params=goal_params)
        with pytest.raises(ValueError,
                           match="^history of segment 0 contains non-finite coordinates$"):
            if refined:
                rollout_refined(params, goal_params, histories[1])
            else:
                rollout_vanilla(params, histories[1])


class TestRefineConfig:
    def test_disabled_refinement_dispatches_to_vanilla(self, fitted_lane_change):
        train, params, goal_params, _ = fitted_lane_change
        off = RefineConfig(refine_enabled=False)
        histories = train.histories()[:3]
        # rollout dispatches on the flag, with or without a goal model
        vanilla = [e.mean for e in rollout_vanilla(params, histories[0])]
        for goals in (None, goal_params):
            got = rollout(params, goals, histories[0], None, off)
            assert np.array([e.mean for e in got]).tobytes() == np.array(vanilla).tobytes()


@pytest.fixture(scope="module")
def fitted_lane_change():
    train = gen_synthetic("lane_change", 300, 0.2, seed=50)
    params = fit_predictor("ar", train, lag=3)
    goal_params = fit_goal_model(train, (5, 10, 15, 20, 25), 1e-6)
    dense_goals = fit_goal_model(train, tuple(range(1, 26)), 1e-6)
    return train, params, goal_params, dense_goals


class TestRolloutRefined:
    def test_huge_goal_cov_matches_vanilla(self, fitted_lane_change):
        train, params, goal_params, _ = fitted_lane_change
        for seg in train.segments[:25]:
            vanilla = rollout_vanilla(params, seg.history)
            refined, _ = rollout_batch(params, seg.history[None], None, goal_params, 1e12)
            diff = refined[0] - np.array([v.mean for v in vanilla])
            assert np.abs(diff).max() <= 1e-6

    def test_tiny_goal_cov_snaps_to_goals(self, fitted_lane_change):
        train, params, _, dense_goals = fitted_lane_change
        for seg in train.segments[:25]:
            goal_means, _ = goal_moments(dense_goals, seg.history[None])
            refined, _ = rollout_batch(params, seg.history[None], None, dense_goals, 1e-12)
            diff = refined[0] - goal_means[0]
            assert np.abs(diff).max() <= 1e-6

    def test_output_length_matches_vanilla(self, fitted_lane_change):
        train, params, goal_params, _ = fitted_lane_change
        seg = train.segments[0]
        assert len(rollout_refined(params, goal_params, seg.history)) == len(
            rollout_vanilla(params, seg.history)
        )

    def test_goal_model_consulted_exactly_once(self, fitted_lane_change, monkeypatch):
        train, params, goal_params, _ = fitted_lane_change
        calls = []

        def counting(p, h):
            calls.append(len(h))
            return goal_moments(p, h)

        monkeypatch.setattr(predictors, "goal_moments", counting)
        rollout_refined(params, goal_params, train.segments[0].history)
        assert calls == [1]
        histories = np.stack([seg.history for seg in train.segments[:7]])
        rollout_batch(params, histories, None, goal_params)
        assert calls == [1, 7]

    def test_fused_covariance_never_exceeds_raw(self, fitted_lane_change):
        train, params, goal_params, _ = fitted_lane_change
        seg = train.segments[1]
        vanilla = rollout_vanilla(params, seg.history)
        refined = rollout_refined(params, goal_params, seg.history)
        for raw, fused in zip(vanilla, refined):
            assert fused.cov.sxx + fused.cov.syy <= raw.cov.sxx + raw.cov.syy + 1e-12

    def test_deterministic(self, fitted_lane_change):
        train, params, goal_params, _ = fitted_lane_change
        seg = train.segments[2]
        a = rollout_refined(params, goal_params, seg.history)
        b = rollout_refined(params, goal_params, seg.history)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.mean, y.mean)
            assert x.cov == y.cov

    def test_translation_equivariance(self, fitted_lane_change):
        train, params, goal_params, _ = fitted_lane_change
        seg = train.segments[3]
        shift = np.array([250.0, -80.0])
        base = rollout_refined(params, goal_params, seg.history)
        moved = rollout_refined(params, goal_params, seg.history + shift)
        for a, b in zip(base, moved):
            np.testing.assert_allclose(b.mean, a.mean + shift, atol=1e-9)

    def test_singularity_carries_step_index(self, fitted_lane_change):
        train, params, _, dense_goals = fitted_lane_change
        degenerate = PredictorParams(
            "cv", DT, np.zeros((25, 2, 2)), window=2
        )
        with pytest.raises(SingularInnovationError) as exc_info:
            rollout_batch(degenerate, train.segments[0].history[None], None, dense_goals, 1e-20)
        assert exc_info.value.step == 1


@pytest.mark.parametrize("backbone", ["cv", "ca", "ar"])
def test_refined_covariances_are_definite_at_any_goal_scale(backbone):
    # ca at scale 1e-12 had a minimum eigenvalue of -2.1e-12
    train = gen_synthetic("lane_change", 100, 0.2, seed=101)
    test = gen_synthetic("lane_change", 20, 0.2, seed=102)
    params, goals = fit_predictor(backbone, train), fit_goal_model(train)
    for scale in (1e-12, 1e-6, 1.0, 1e12):
        _, covs = rollout_batch(params, test.histories(), test.horizon, goals, scale)
        params_from_covs(covs)  # raises unless every covariance is finite and PD
