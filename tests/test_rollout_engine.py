"""The array rollout engine against the frozen per-step reference.

Every case compares means and covariances with
max|new - reference| <= 1e-9 * max(1, max|reference|).
"""

import numpy as np
import pytest

import reference_rollout as ref
from trajrefine.data import gen_synthetic
from trajrefine.fusion import SingularInnovationError
from trajrefine.gaussian import Cov2
from trajrefine.goals import GoalModelParams, fit_goal_model
from trajrefine.predictors import (
    PredictorParams,
    RefineConfig,
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


@pytest.mark.parametrize("feedback", ("fused", "raw"))
@pytest.mark.parametrize("anchors", ANCHOR_SETS)
@pytest.mark.parametrize("backbone", BACKBONES)
def test_refined_matches_reference(fitted, backbone, anchors, feedback):
    _, test, predictors, goals = fitted
    params, goal_params = predictors[backbone], goals[anchors]
    cfg = RefineConfig(feedback=feedback)
    means, covs = rollout_batch(params, test.histories(), None, goal_params, cfg)
    for i, seg in enumerate(test.segments):
        ref_means, ref_covs = ref.rollout_refined(
            params, goal_params, seg.history, params.horizon, feedback=feedback
        )
        assert_matches(means[i], ref_means)
        assert_matches(covs[i], ref_covs)


@pytest.mark.parametrize("cfg", [
    RefineConfig(epsilon=0.3, beta=2.0),
    RefineConfig(goal_cov_scale=1e-3, feedback="raw"),
    RefineConfig(goal_cov_scale=40.0),
])
def test_refine_config_matches_reference(fitted, cfg):
    _, test, predictors, goals = fitted
    params, goal_params = predictors["ar3"], goals["irregular"]
    means, covs = rollout_batch(params, test.histories(), 20, goal_params, cfg)
    for i, seg in enumerate(test.segments):
        ref_means, ref_covs = ref.rollout_refined(
            params, goal_params, seg.history, 20, cfg.epsilon, cfg.beta,
            cfg.feedback, cfg.goal_cov_scale,
        )
        assert_matches(means[i], ref_means)
        assert_matches(covs[i], ref_covs)


@pytest.mark.parametrize("backbone", BACKBONES)
def test_fit_predictor_step_covs_match_reference(corpus, backbone):
    train, test = corpus
    name, kw = BACKBONES[backbone]
    params = fit_predictor(name, train, test, **kw)
    probe = PredictorParams(
        params.backbone, params.dt, (Cov2.isotropic(1.0),) * params.horizon,
        window=params.window, lag=params.lag, ar_weights=params.ar_weights,
    )
    table = [c.as_matrix() for c in params.step_covs]
    assert_matches(table, ref.calibrated_step_covs(probe, test, params.horizon))


def test_batch_equals_single_calls(fitted):
    _, test, predictors, goals = fitted
    histories = test.histories()
    for params in predictors.values():
        for goal_params in (None, goals["sparse"]):
            cfg = RefineConfig(refine_enabled=goal_params is not None)
            means, covs = rollout_batch(params, histories, None, goal_params, cfg)
            for i, history in enumerate(histories):
                single = rollout(params, goal_params, history, None, cfg)
                assert_matches(means[i], [e.mean for e in single])
                assert_matches(covs[i], [e.cov.as_matrix() for e in single])


def test_singular_step_matches_reference():
    # zero prior covariance and a near-zero anchor at step 3: steps 1-2 fuse
    # against the wide virtual origin, step 3 is singular
    params = PredictorParams("cv", 0.2, (Cov2(0.0, 0.0, 0.0),) * 5)
    goal_params = GoalModelParams(
        anchor_steps=(3,),
        weights=(np.zeros((2, 2)),),
        residual_covs=(Cov2.isotropic(1e-30),),
        history_len=2,
        rotate=False,
    )
    history = np.array([[0.0, 0.0], [1.0, 0.5]])
    cfg = RefineConfig(epsilon=1.0)
    with pytest.raises(ref.ReferenceSingularError) as expected:
        ref.rollout_refined(params, goal_params, history, 5, epsilon=1.0)
    with pytest.raises(SingularInnovationError) as actual:
        rollout_batch(params, history[None], None, goal_params, cfg)
    assert actual.value.step == expected.value.step == 3
    assert str(actual.value).startswith("step 3: innovation covariance is singular")


def test_horizon_overrun_matches_reference(fitted):
    _, test, predictors, goals = fitted
    params = predictors["cv"]
    history = test.segments[0].history
    with pytest.raises(ValueError) as expected:
        ref.rollout_refined(params, goals["sparse"], history, params.horizon + 1)
    with pytest.raises(ValueError) as actual:
        rollout_batch(params, history[None], params.horizon + 1, goals["sparse"])
    assert str(actual.value) == str(expected.value)
