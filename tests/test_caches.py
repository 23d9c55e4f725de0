"""Array tables of fitted parameters: the covariance fields themselves and
the tables cached from them are read-only and built once per params object."""

import numpy as np
import pytest

from trajrefine.data import gen_synthetic
from trajrefine.goals import _interpolation_table, fit_goal_model, interpolate_goals
from trajrefine.predictors import RefineConfig, _gain_table, fit_predictor, rollout_batch

ANCHORS = (3, 10, 25)


@pytest.fixture(scope="module")
def fitted():
    train = gen_synthetic("lane_change", 60, 0.2, seed=31)
    return train, fit_predictor("ar", train, lag=3), fit_goal_model(train, ANCHORS)


def expected_interpolation(anchor_steps, horizon):
    """Mean and covariance node weights and steps past the last anchor of
    every future step, one step at a time."""
    nodes = (0, *anchor_steps)
    means, covs = np.zeros((2, horizon, len(nodes)))
    gap = np.zeros(horizon)
    for k in range(1, horizon + 1):
        j = next((i for i in range(1, len(nodes)) if nodes[i] >= k), len(nodes) - 1)
        w = (k - nodes[j - 1]) / (nodes[j] - nodes[j - 1])
        means[k - 1, j - 1], means[k - 1, j] = 1.0 - w, w  # w > 1 past the last anchor
        if k >= nodes[-1]:
            covs[k - 1, -1], gap[k - 1] = 1.0, k - nodes[-1]
        else:
            covs[k - 1] = means[k - 1]
    return means, covs, gap


def test_tables_equal_their_tuples(fitted):
    train, params, goal_params = fitted
    weights = np.concatenate(goal_params.weights, axis=1)
    assert goal_params.weight_matrix.tobytes() == weights.tobytes()
    assert goal_params.weight_matrix.shape == (30, 2 * len(ANCHORS))
    # the covariance tables are the read-only fields themselves, with no
    # second form: vanilla covariances are a view of params.step_covs
    assert params.step_covs.shape == (25, 2, 2)
    assert goal_params.residual_covs.shape == (len(ANCHORS), 2, 2)
    assert not (params.step_covs.flags.writeable or goal_params.residual_covs.flags.writeable)
    assert np.shares_memory(rollout_batch(params, train.histories()[:2])[1], params.step_covs)


@pytest.mark.parametrize("anchor_steps,horizon", [
    ((3, 10, 25), 25), ((5, 10, 15, 20, 25), 30), ((1,), 4), ((3, 17), 12),
])
def test_interpolation_table_matches_stepwise_rule(anchor_steps, horizon):
    means, covs, gap = _interpolation_table(anchor_steps, horizon)
    want_means, want_covs, want_gap = expected_interpolation(anchor_steps, horizon)
    np.testing.assert_allclose(means, want_means, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(covs, want_covs, rtol=0.0, atol=1e-15)
    np.testing.assert_array_equal(gap, want_gap)


def test_tables_are_read_only(fitted):
    train, params, goal_params = fitted
    histories = train.histories()[:4]
    means, covs = rollout_batch(params, histories)
    tables = (params.step_covs, goal_params.weight_matrix,
              goal_params.residual_covs, *_interpolation_table(ANCHORS, 25), covs)
    for table in tables:
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        covs += 1.0
    again_means, again_covs = rollout_batch(params, histories)
    assert again_means.tobytes() == means.tobytes()
    assert np.array(again_covs).tobytes() == np.array(covs).tobytes()
    assert np.array(covs).tobytes() == np.broadcast_to(params.step_covs, covs.shape).tobytes()


def test_tables_built_once_per_params(fitted):
    train, params, goal_params = fitted
    histories = train.histories()[:3]
    assert goal_params.weight_matrix is goal_params.weight_matrix
    first, second = rollout_batch(params, histories)[1], rollout_batch(params, histories)[1]
    assert np.shares_memory(first, params.step_covs)
    assert np.shares_memory(second, params.step_covs)
    assert _interpolation_table(ANCHORS, 25)[0] is _interpolation_table(ANCHORS, 25)[0]
    # a list of anchor steps hits the same cache entry as the tuple
    before = _interpolation_table.cache_info().hits
    means = np.zeros((1, len(ANCHORS), 2))
    interpolate_goals(list(ANCHORS), np.zeros((1, 2)), means, 25)
    assert _interpolation_table.cache_info().hits == before + 1


def test_gain_table_built_once_per_tables(fitted):
    # the gain table depends on the prior and goal tables and the config, not
    # on the segments: one read-only entry serves every call and every refit
    # to equal tables; the refined covariances are read-only and symmetric
    train, params, goal_params = fitted
    histories = train.histories()[:5]
    rollout_batch(params, histories, None, goal_params)
    before = _gain_table.cache_info()
    refit = fit_goal_model(train, ANCHORS)
    _, covs = rollout_batch(params, histories[:1], None, refit)
    after = _gain_table.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    rollout_batch(params, histories, None, goal_params, RefineConfig(goal_cov_scale=0.25))
    assert _gain_table.cache_info().misses == after.misses + 1
    table = _gain_table(params.step_covs.tobytes(), goal_params.residual_covs.tobytes(),
                        goal_params.anchor_steps, 1.0)
    assert not table.flags.writeable and not covs.flags.writeable
    assert np.array_equal(covs, np.swapaxes(covs, -1, -2))
