"""The array rollout engine and fit against the frozen per-step reference.

Means and covariances are compared with
max|new - reference| <= 1e-9 * max(1, max|reference|); the ar weights,
whose design is the same array row for row, and the one-segment adapters
against their own one-row batch are compared bitwise, and so is the goal
fit, which makes the same products and solves per anchor as the reference,
and the step covariance table against its batch formulation.
"""

import inspect

import numpy as np
import pytest

import reference_rollout as ref
from trajrefine.data import gen_synthetic
from trajrefine.fusion import SingularInnovationError, gain_table, rotated_gains
from trajrefine.goals import (ORIGIN_VAR, PAST_LAST_ANCHOR_VAR, GoalModelParams, fit_goal_model,
                              goal_moments, interpolate_covs, interpolate_goals, second_moments,
                              solve_ridge)
from trajrefine.predictors import (
    PredictorParams,
    RefineConfig,
    _quadratic_extrapolation_coeffs,
    fit_predictor,
    rollout,
    rollout_batch,
)

BACKBONES = {
    "cv": ("cv", {}),
    "ca3": ("ca", {"window": 3}),
    "ca5": ("ca", {"window": 5}),
    "ar3": ("ar", {"lag": 3}),
}
ANCHOR_SETS = {
    "sparse": (5, 10, 15, 20, 25),
    "dense": tuple(range(1, 26)),
    "irregular": (3, 17),
}
SCENARIOS = ("lane_change", "turn")
N_SEGMENTS = 12


def assert_matches(new, reference):
    new, reference = np.asarray(new), np.asarray(reference)
    assert new.shape == reference.shape
    scale = max(1.0, np.abs(reference).max())
    assert np.abs(new - reference).max() <= 1e-9 * scale


def assert_bitwise(new, expected):
    new, expected = np.asarray(new), np.asarray(expected)
    assert new.shape == expected.shape
    assert new.tobytes() == expected.tobytes()


@pytest.fixture(scope="module", params=SCENARIOS)
def corpus(request):
    seed = 60 + SCENARIOS.index(request.param)
    train = gen_synthetic(request.param, 200, 0.2, seed=seed)
    test = gen_synthetic(request.param, N_SEGMENTS, 0.2, seed=seed + 10)
    return train, test


@pytest.fixture(scope="module")
def fitted(corpus):
    train, test = corpus
    predictors = {
        name: fit_predictor(backbone, train, **kw)
        for name, (backbone, kw) in BACKBONES.items()
    }
    goals = {name: fit_goal_model(train, steps) for name, steps in ANCHOR_SETS.items()}
    return train, test, predictors, goals


@pytest.mark.parametrize("backbone", BACKBONES)
def test_vanilla_matches_reference(fitted, backbone):
    _, test, predictors, _ = fitted
    params = predictors[backbone]
    means, covs = rollout_batch(params, test.histories())
    for i, seg in enumerate(test.segments):
        ref_means, ref_covs = ref.rollout_vanilla(params, seg.history, params.horizon)
        assert_matches(means[i], ref_means)
        assert_matches(covs[i], ref_covs)


@pytest.mark.parametrize("goal_cov_scale", [1.0], ids=["fused"])
@pytest.mark.parametrize("anchors", ANCHOR_SETS)
@pytest.mark.parametrize("backbone", BACKBONES)
def test_refined_matches_reference(fitted, backbone, anchors, goal_cov_scale):
    _, test, predictors, goals = fitted
    params, goal_params = predictors[backbone], goals[anchors]
    means, covs = rollout_batch(params, test.histories(), None, goal_params, goal_cov_scale)
    for i, seg in enumerate(test.segments):
        ref_means, ref_covs = ref.rollout_refined(
            params, goal_params, seg.history, params.horizon
        )
        assert_matches(means[i], ref_means)
        assert_matches(covs[i], ref_covs)


def strided_loop_means(params, goal_params, histories):
    """Refined means of the step loop that works on strided views of the
    position buffer: the backbone writes each raw step into the buffer and
    the fused step is raw + K (z - raw), with K a (2, 2) @ (2, 1) product."""
    n, need, horizon = len(histories), params.buffer_len, params.horizon
    goal_means, rot = goal_moments(goal_params, histories)
    z = np.swapaxes(interpolate_goals(goal_params.anchor_steps, histories[:, -1],
                                      goal_means, horizon), 0, 1)
    ego = interpolate_covs(goal_params.anchor_steps, goal_params.residual_covs, horizon)
    gains, _ = rotated_gains(gain_table(params.step_covs, ego), rot)
    positions = np.empty((n, need + horizon, 2))
    positions[:, :need] = histories[:, -need:]
    flat = positions.reshape(n, -1)
    means = positions[:, need:]
    for k in range(horizon):
        raw = np.matmul(flat[:, 2 * k : 2 * (k + need)], params.position_weights,
                        out=means[:, k])
        np.add(raw, (gains[k] @ (z[k] - raw)[..., None])[..., 0], out=means[:, k])
    return means


@pytest.mark.parametrize("goal_cov_scale", [1.0], ids=["fused"])
@pytest.mark.parametrize("anchors", ANCHOR_SETS)
@pytest.mark.parametrize("n", (1, 37, 200))
@pytest.mark.parametrize("backbone", ("cv", "ca3", "ar3"))
def test_refined_means_bitwise_equal_the_strided_loop(fitted, backbone, n, anchors,
                                                      goal_cov_scale):
    train, _, predictors, goals = fitted
    params, goal_params = predictors[backbone], goals[anchors]
    histories = train.histories()[:n]
    means, _ = rollout_batch(params, histories, None, goal_params, goal_cov_scale)
    assert_bitwise(means, strided_loop_means(params, goal_params, histories))


def slice_matmul_means(params, histories):
    """Vanilla means of the step loop that slices each (N, 2 need) window out
    of an (N, need + T, 2) position buffer and writes the raw step into it."""
    n, need, horizon = len(histories), params.buffer_len, params.horizon
    positions = np.empty((n, need + horizon, 2))
    positions[:, :need] = histories[:, -need:]
    flat = positions.reshape(n, -1)
    for k in range(horizon):
        np.matmul(flat[:, 2 * k : 2 * (k + need)], params.position_weights,
                  out=positions[:, need + k])
    return positions[:, need:]


@pytest.mark.parametrize("n", (1, 37, 200))
@pytest.mark.parametrize("backbone", ("cv", "ca3", "ar3"))
def test_vanilla_means_bitwise_equal_the_slice_matmul_loop(fitted, backbone, n):
    train, _, predictors, _ = fitted
    params = predictors[backbone]
    histories = train.histories()[:n]
    means, _ = rollout_batch(params, histories)
    assert_bitwise(means, slice_matmul_means(params, histories))


@pytest.mark.parametrize("fusion", (None, "fused"))
@pytest.mark.parametrize("backbone", ("cv", "ca3", "ar3"))
def test_empty_batch_returns_empty_arrays(fitted, backbone, fusion):
    train, _, predictors, goals = fitted
    params, goal_params = predictors[backbone], goals["sparse"]
    empty = train.histories()[:0]
    goal_means, rot = goal_moments(goal_params, empty)
    assert goal_means.shape == (0, 5, 2) and rot.shape == (0, 2, 2)
    gains, post = rotated_gains(gain_table(params.step_covs, params.step_covs), rot)
    assert gains.shape == post.shape == (25, 0, 2, 2)
    means, covs = rollout_batch(params, empty, None, goal_params if fusion else None)
    assert means.shape == (0, 25, 2) and covs.shape == (0, 25, 2, 2)


@pytest.mark.parametrize("goal_cov_scale", [1.0, 1e-3, 40.0])
def test_goal_cov_scale_matches_reference(fitted, goal_cov_scale):
    _, test, predictors, goals = fitted
    params, goal_params = predictors["ar3"], goals["irregular"]
    means, covs = rollout_batch(params, test.histories(), 20, goal_params, goal_cov_scale)
    for i, seg in enumerate(test.segments):
        ref_means, ref_covs = ref.rollout_refined(
            params, goal_params, seg.history, 20, goal_cov_scale=goal_cov_scale,
        )
        assert_matches(means[i], ref_means)
        assert_matches(covs[i], ref_covs)


def test_reference_measurement_defaults_are_the_package_constants():
    defaults = inspect.signature(ref.rollout_refined).parameters
    assert ((defaults["epsilon"].default, defaults["beta"].default)
            == (ORIGIN_VAR, PAST_LAST_ANCHOR_VAR))


@pytest.mark.parametrize("backbone", BACKBONES)
def test_fit_predictor_step_covs_match_reference(corpus, backbone):
    train, test = corpus
    name, kw = BACKBONES[backbone]
    params = fit_predictor(name, train, test, **kw)
    probe = PredictorParams(
        params.backbone, params.dt, np.broadcast_to(np.eye(2), (params.horizon, 2, 2)),
        window=params.window, lag=params.lag, ar_weights=params.ar_weights,
    )
    assert_matches(params.step_covs, ref.calibrated_step_covs(probe, test, params.horizon))


@pytest.mark.parametrize("with_val", (False, True))
@pytest.mark.parametrize("name,kw", [
    ("cv", {}), ("ca", {"window": 3}), ("ca", {"window": 5}), ("ar", {"lag": 1}),
    ("ar", {"lag": 3}),
], ids=["cv", "ca3", "ca5", "ar1", "ar3"])
def test_fit_predictor_step_covs_equal_the_batch_formulation(corpus, name, kw, with_val):
    # second_moments of rollout_batch's (N, T, 2) errors, then the running-max
    # trace rule: the table keeps these bits whatever layout the errors take
    train, test = corpus
    calib = test if with_val else train
    params = fit_predictor(name, train, test if with_val else None, **kw)
    probe = PredictorParams(
        params.backbone, params.dt, np.broadcast_to(np.eye(2), (params.horizon, 2, 2)),
        window=params.window, lag=params.lag, ar_weights=params.ar_weights,
    )
    means, _ = rollout_batch(probe, calib.histories())
    moments = second_moments(np.swapaxes(means - calib.futures()[:, : params.horizon], 0, 1))
    traces = moments[:, 0, 0] + moments[:, 1, 1]
    moments *= (np.maximum.accumulate(traces) / traces)[:, None, None]
    assert_bitwise(params.step_covs, moments)


@pytest.mark.parametrize("with_val", (False, True))
@pytest.mark.parametrize("lag", (1, 3, 5))
def test_fit_predictor_ar_weights_equal_reference_design(corpus, lag, with_val):
    # same design row for row, so the ridge solve is bitwise the same
    train, test = corpus
    params = fit_predictor("ar", train, test if with_val else None, lag=lag)
    feats, targets = ref.ar_design(train, lag)
    assert_bitwise(params.ar_weights, solve_ridge(feats.T @ feats, feats.T @ targets, 1e-6))


@pytest.mark.parametrize("scenario", ("turn", "ca"))
def test_ar_design_of_one_row_per_segment_equals_reference(scenario):
    # lag = tau with a one-step future: the history fills the buffer and
    # each segment gives one design row
    train = gen_synthetic(scenario, 50, 0.2, seed=64, tau=3, horizon=1)
    feats, targets = ref.ar_design(train, 3)
    assert feats.shape == (50, 6)
    params = fit_predictor("ar", train, lag=3)
    assert_bitwise(params.ar_weights, solve_ridge(feats.T @ feats, feats.T @ targets, 1e-6))


def test_lag_leaving_no_design_rows_keeps_its_message():
    train = gen_synthetic("turn", 10, 0.2, seed=64, tau=3, horizon=1)
    with pytest.raises(ValueError) as exc:
        fit_predictor("ar", train, lag=4)
    assert str(exc.value) == "training segments are too short for the requested lag"


@pytest.mark.parametrize("rotate", (True, False))
@pytest.mark.parametrize("ridge", (1e-6, 1e3))
@pytest.mark.parametrize("with_val", (False, True))
@pytest.mark.parametrize("anchors", ANCHOR_SETS)
def test_fit_goal_model_equals_reference_fit(corpus, anchors, with_val, ridge, rotate):
    # the same products and solves per anchor, so the fit is bitwise the same
    train, test = corpus
    val = test if with_val else None
    params = fit_goal_model(train, ANCHOR_SETS[anchors], ridge, val=val, rotate=rotate)
    weights, covs = ref.goal_fit(train, ANCHOR_SETS[anchors], ridge, val, rotate)
    assert_bitwise(params.weights, weights)
    assert_bitwise(params.residual_covs, covs)


@pytest.mark.parametrize("rotate", (True, False), ids=["rotate", "world-axes"])
@pytest.mark.parametrize("anchors", ANCHOR_SETS)
def test_batch_equals_single_calls(fitted, anchors, rotate):
    train, test, predictors, goals = fitted
    histories = test.histories()
    goal_model = (goals[anchors] if rotate
                  else fit_goal_model(train, ANCHOR_SETS[anchors], rotate=False))
    for params in predictors.values():
        for goal_params in (None, goal_model):
            cfg = RefineConfig(refine_enabled=goal_params is not None)
            means, covs = rollout_batch(params, histories, None, goal_params)
            for i, history in enumerate(histories):
                single = rollout(params, goal_params, history, None, cfg)
                single_means = [e.mean for e in single]
                single_covs = [[[e.cov.sxx, e.cov.sxy], [e.cov.sxy, e.cov.syy]] for e in single]
                assert_matches(means[i], single_means)
                assert_matches(covs[i], single_covs)
                # the adapter converts its one-row batch without rounding;
                # rows of a larger batch may differ in the last bit because
                # BLAS picks its matmul kernel by the batch size
                row_means, row_covs = rollout_batch(params, history[None], None, goal_params)
                assert_bitwise(row_means[0], single_means)
                assert_bitwise(row_covs[0], single_covs)


@pytest.mark.parametrize("form", ("list", "int", "float32"))
def test_other_history_forms_give_the_bytes_of_float64_arrays(fitted, form):
    _, test, predictors, goals = fitted
    histories = {"list": test.histories(), "int": np.rint(test.histories()).astype(int),
                 "float32": test.histories().astype(np.float32)}[form]
    as_float = np.asarray(histories, dtype=float)
    given = histories.tolist() if form == "list" else histories
    params, goal_params = predictors["ca3"], goals["dense"]
    goal_means, rot = goal_moments(goal_params, given)
    expected_means, expected_rot = goal_moments(goal_params, as_float)
    assert_bitwise(goal_means, expected_means)
    assert_bitwise(rot, expected_rot)
    steps = goal_params.anchor_steps
    assert_bitwise(interpolate_goals(steps, as_float[:, -1].tolist(), goal_means.tolist(), 25),
                   interpolate_goals(steps, as_float[:, -1], goal_means, 25))
    for gp in (None, goal_params):
        cfg = RefineConfig(refine_enabled=gp is not None)
        for got, want in zip(rollout_batch(params, given, None, gp),
                             rollout_batch(params, as_float, None, gp)):
            assert_bitwise(got, want)
        got, want = (rollout(params, gp, h, None, cfg) for h in (given[0], as_float[0]))
        assert_bitwise([e.mean for e in got], [e.mean for e in want])
        assert [e.cov for e in got] == [e.cov for e in want]


def test_singular_step_matches_reference():
    # zero prior covariance and a near-zero anchor at step 3: steps 1-2 fuse
    # against the virtual origin, step 3 is singular
    params = PredictorParams("cv", 0.2, np.zeros((5, 2, 2)))
    goal_params = GoalModelParams(
        anchor_steps=(3,),
        weights=(np.zeros((2, 2)),),
        residual_covs=[1e-30 * np.eye(2)],
        history_len=2,
        rotate=False,
    )
    history = np.array([[0.0, 0.0], [1.0, 0.5]])
    with pytest.raises(ref.ReferenceSingularError) as expected:
        ref.rollout_refined(params, goal_params, history, 5)
    with pytest.raises(SingularInnovationError) as actual:
        rollout_batch(params, history[None], None, goal_params)
    assert actual.value.step == expected.value.step == 3
    assert str(actual.value).startswith("step 3: innovation covariance is singular")


def test_singular_step_is_the_earliest_across_a_batch():
    # the prior has zero x variance; each anchor's ego covariance is
    # degenerate along one axis, so a segment heading +x is singular at
    # anchor step 2 and one heading +y at anchor step 4
    params = PredictorParams("cv", 0.2, np.broadcast_to(np.diag([0.0, 1.0]), (5, 2, 2)))
    goal_params = GoalModelParams(
        anchor_steps=(2, 4),
        weights=(np.zeros((2, 2)),) * 2,
        residual_covs=[np.diag([1e-30, 1.0]), np.diag([1.0, 1e-30])],
        history_len=2,
    )
    histories = np.array([[[0.0, 0.0], [0.0, 1.0]], [[0.0, 0.0], [1.0, 0.0]]])
    errors = []
    for batch in (histories[:1], histories[1:], histories):
        with pytest.raises(SingularInnovationError) as exc:
            rollout_batch(params, batch, None, goal_params)
        errors.append(exc.value)
    first, second, both = errors
    assert (first.step, second.step) == (4, 2)
    # the segment of the first singular entry: the +x segment, second in the batch
    assert (first.index, second.index, both.index) == ((0,), (0,), (1,))
    assert both.step == min(first.step, second.step)
    assert str(both) == str(second)
    assert str(both).startswith("step 2: innovation covariance is singular")


def test_horizon_overrun_matches_reference(fitted):
    _, test, predictors, goals = fitted
    params = predictors["cv"]
    history = test.segments[0].history
    with pytest.raises(ValueError) as expected:
        ref.rollout_refined(params, goals["sparse"], history, params.horizon + 1)
    with pytest.raises(ValueError) as actual:
        rollout_batch(params, history[None], params.horizon + 1, goals["sparse"])
    assert str(actual.value) == str(expected.value)


def displacement_weights(params):
    """W of the displacement form next = buffer[-1] + diff(buffer).ravel() @ W."""
    if params.backbone == "ar":
        return params.ar_weights
    if params.backbone == "cv":
        per_disp = np.full(params.window - 1, 1.0 / (params.window - 1))
    else:
        per_disp = -np.cumsum(_quadratic_extrapolation_coeffs(params.window))[:-1]
    return np.kron(per_disp[:, None], np.eye(2))


@pytest.mark.parametrize("backbone,shape", [
    ("cv", {"window": 2}), ("cv", {"window": 4}), ("ca", {"window": 3}),
    ("ca", {"window": 5}), ("ar", {"lag": 1}), ("ar", {"lag": 3}),
], ids=["cv-w2", "cv-w4", "ca-w3", "ca-w5", "ar-lag1", "ar-lag3"])
def test_position_weights_equal_the_displacement_form(backbone, shape):
    rng = np.random.default_rng(sum(map(ord, backbone)) + shape.get("window", 0)
                                + 10 * shape.get("lag", 0))
    kw = dict(shape)
    if backbone == "ar":
        kw["ar_weights"] = rng.normal(0.0, 0.7, size=(2 * shape["lag"], 2))
    params = PredictorParams(backbone, 0.2, np.eye(2)[None], **kw)
    weights = params.position_weights
    assert weights.shape == (2 * params.buffer_len, 2)
    assert not weights.flags.writeable and params.position_weights is weights
    scales = np.repeat([1e-3, 1.0, 1e2, 1e4], 50)
    starts = rng.uniform(-1.0, 1.0, size=(len(scales), 1, 2)) * scales[:, None, None]
    steps = rng.normal(0.0, 2.0, size=(len(scales), params.buffer_len, 2))
    for buffer in starts + np.cumsum(steps, axis=1):
        want = buffer[-1] + np.diff(buffer, axis=0).ravel() @ displacement_weights(params)
        got = buffer.ravel() @ weights
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(buffer).max())
