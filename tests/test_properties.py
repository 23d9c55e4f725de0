"""Property tests over random inputs (hypothesis)."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from trajrefine.data import gen_synthetic
from trajrefine.goals import fit_goal_model
from trajrefine.predictors import RefineConfig, fit_predictor, rollout_batch

TAU = 15  # history intervals of gen_synthetic's default protocol


@pytest.fixture(scope="module")
def models():
    train = gen_synthetic("lane_change", 100, 0.2, seed=41)
    predictors = {
        "cv": fit_predictor("cv", train),
        "ca": fit_predictor("ca", train, window=4),
        "ar": fit_predictor("ar", train, lag=3),
    }
    return predictors, fit_goal_model(train)


def close(new, expected):
    scale = max(1.0, float(np.abs(expected).max()))
    return np.abs(new - expected).max() <= 1e-9 * scale


coords = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(
    steps=arrays(float, (TAU, 2), elements=st.floats(-3.0, 3.0, allow_subnormal=False)),
    start=st.tuples(coords, coords),
    shift=st.tuples(st.floats(-1e4, 1e4), st.floats(-1e4, 1e4)),
    backbone=st.sampled_from(("cv", "ca", "ar")),
    feedback=st.sampled_from(("fused", "raw")),
)
def test_refined_rollout_is_translation_equivariant(
        models, steps, start, shift, backbone, feedback):
    # the heading of a history with no net motion is undefined, so the ego
    # frame flips at the stationarity threshold; only moving histories count
    assume(np.hypot(*steps.sum(axis=0)) >= 1e-2)
    predictors, goal_params = models
    history = np.asarray(start) + np.concatenate([np.zeros((1, 2)), np.cumsum(steps, 0)])
    cfg = RefineConfig(feedback=feedback)
    params = predictors[backbone]
    means, covs = rollout_batch(params, history[None], None, goal_params, cfg)
    moved_means, moved_covs = rollout_batch(
        params, (history + np.asarray(shift))[None], None, goal_params, cfg)
    assert close(moved_means, means + np.asarray(shift))
    assert close(moved_covs, covs)
