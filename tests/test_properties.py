"""Property tests over random inputs (hypothesis)."""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from trajrefine.cli import load_model, save_model
from trajrefine.data import gen_synthetic
from trajrefine.fusion import gain_table, gain_update, info_fuse, rotated_gains
from trajrefine.gaussian import cov_from_params
from trajrefine.goals import GoalModelParams, fit_goal_model, interpolate_covs, world_covs
from trajrefine.predictors import PredictorParams, fit_predictor, rollout_batch

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
)
def test_refined_rollout_is_translation_equivariant(models, steps, start, shift, backbone):
    # the heading of a history with no net motion is undefined, so the ego
    # frame flips at the stationarity threshold; only moving histories count
    assume(np.hypot(*steps.sum(axis=0)) >= 1e-2)
    predictors, goal_params = models
    history = np.asarray(start) + np.concatenate([np.zeros((1, 2)), np.cumsum(steps, 0)])
    params = predictors[backbone]
    means, covs = rollout_batch(params, history[None], None, goal_params)
    moved_means, moved_covs = rollout_batch(
        params, (history + np.asarray(shift))[None], None, goal_params)
    assert close(moved_means, means + np.asarray(shift))
    assert close(moved_covs, covs)


finite = st.floats(allow_nan=False, allow_infinity=False)  # extremes and subnormals too
sigma = st.floats(1e-3, 1e3)


@st.composite
def cov_tables(draw, n):
    """(n, 2, 2) positive-definite covariances, in non-decreasing trace order."""
    sx, sy = draw(arrays(float, n, elements=sigma)), draw(arrays(float, n, elements=sigma))
    rho = draw(arrays(float, n, elements=st.floats(-0.99, 0.99)))
    sxy = rho * sx * sy
    covs = np.stack([sx * sx, sxy, sxy, sy * sy], axis=-1).reshape(n, 2, 2)
    return covs[np.argsort(covs[:, 0, 0] + covs[:, 1, 1], kind="stable")]


@st.composite
def models_to_save(draw):
    backbone = draw(st.sampled_from(("cv", "ca", "ar")))
    lag = draw(st.integers(1, 4))
    shape = {"window": draw(st.integers(3, 6)), "lag": lag}
    if backbone == "ar":
        shape["ar_weights"] = draw(arrays(float, (2 * lag, 2), elements=finite))
    horizon = draw(st.integers(1, 8))
    predictor = PredictorParams(backbone, draw(st.floats(1e-3, 10.0)),
                                draw(cov_tables(horizon)), **shape)
    steps = draw(st.lists(st.integers(1, horizon), min_size=1, unique=True))
    history_len = draw(st.integers(2, 5))
    goal_model = GoalModelParams(
        tuple(sorted(steps)),
        tuple(draw(arrays(float, (2 * (history_len - 1), 2), elements=finite))
              for _ in steps),
        draw(cov_tables(len(steps))), history_len, draw(st.booleans()))
    protocol = {"dt": predictor.dt, "tau": history_len - 1, "horizon": horizon}
    return predictor, goal_model, protocol


@settings(max_examples=60, deadline=None)
@given(models_to_save())
def test_model_file_round_trips(model):
    predictor, goal_model, protocol = model
    with tempfile.TemporaryDirectory() as tmp:
        first, second = os.path.join(tmp, "first.json"), os.path.join(tmp, "second.json")
        save_model(first, predictor, goal_model)
        loaded_predictor, loaded_goals, loaded_protocol = load_model(first)
        save_model(second, loaded_predictor, loaded_goals)
        with open(first, "rb") as a, open(second, "rb") as b:
            assert a.read() == b.read()
    assert loaded_protocol == protocol
    pairs = [(predictor.step_covs, loaded_predictor.step_covs),
             (goal_model.residual_covs, loaded_goals.residual_covs),
             (goal_model.weight_matrix, loaded_goals.weight_matrix)]
    if predictor.ar_weights is not None:
        pairs.append((predictor.ar_weights, loaded_predictor.ar_weights))
    for saved, loaded in pairs:
        assert saved.shape == loaded.shape and saved.tobytes() == loaded.tobytes()
    for field in ("backbone", "dt", "window", "lag"):
        assert getattr(loaded_predictor, field) == getattr(predictor, field)
    for field in ("anchor_steps", "history_len", "rotate"):
        assert getattr(loaded_goals, field) == getattr(goal_model, field)


@st.composite
def spd(draw, shape):
    """shape + (2, 2) positive-definite covariances, condition number <= ~2e4."""
    sx, sy = (draw(arrays(float, shape, elements=st.floats(0.1, 10.0))) for _ in range(2))
    rho = draw(arrays(float, shape, elements=st.floats(-0.9, 0.9)))
    return cov_from_params(sx, sy, rho)


def rotations(angles):
    c, s = np.cos(angles), np.sin(angles)
    return np.stack([c, -s, s, c], axis=-1).reshape(*np.shape(angles), 2, 2)


batch_shapes = st.sampled_from((((), ()), ((3,), ()), ((2, 1), (4,)), ((1, 3), (2, 1)),
                                ((5,), (5,))))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), shapes=batch_shapes)
def test_gain_form_equals_information_form(data, shapes):
    p = data.draw(spd(shapes[0]))
    r = data.draw(spd(shapes[1]))
    x, z = (data.draw(arrays(float, (2,), elements=st.floats(-100.0, 100.0)))
            for _ in range(2))
    gains, covs = gain_update(p, r)
    batch = np.broadcast_shapes(shapes[0], shapes[1])
    info_means, info_covs = info_fuse(x, p, z, r)
    assert gains.shape == covs.shape == info_covs.shape == (*batch, 2, 2)
    for i in np.ndindex(batch):
        assert close(covs[i], info_covs[i])
        assert close(x + gains[i] @ (z - x), info_means[i])


@settings(max_examples=60, deadline=None)
@given(data=st.data(), shapes=batch_shapes)
def test_posterior_is_below_both_inputs(data, shapes):
    p, r = data.draw(spd(shapes[0])), data.draw(spd(shapes[1]))
    _, covs = gain_update(p, r)
    assert np.array_equal(covs, np.swapaxes(covs, -1, -2))
    for prior in (p, r):
        gap = np.linalg.eigvalsh(prior - covs)  # PSD difference, up to rounding
        assert gap.min() >= -1e-12 * max(1.0, float(np.abs(prior).max()))


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    anchors=st.lists(st.integers(1, 12), min_size=1, max_size=6, unique=True),
    horizon=st.integers(1, 15),
    angles=arrays(float, st.integers(1, 6), elements=st.floats(-np.pi, np.pi)),
)
def test_world_measurement_covariances(data, anchors, horizon, angles):
    # the engine fuses each segment with its ego-frame table turned by its
    # heading; those world covariances are PSD, exactly symmetric, and the
    # gains it gets from the table equal fusing with them directly
    steps = tuple(sorted(anchors))
    ego = interpolate_covs(steps, data.draw(spd((len(steps),))), horizon)
    rot = rotations(np.append(angles, 0.0))
    world = world_covs(ego, rot)
    assert world.shape == (len(rot), horizon, 2, 2)
    assert np.array_equal(world, np.swapaxes(world, -1, -2))
    assert np.array_equal(world[-1], ego)  # the identity rotation
    np.testing.assert_allclose(np.trace(world, axis1=-2, axis2=-1),
                               np.broadcast_to(np.trace(ego, axis1=-2, axis2=-1), world.shape[:2]),
                               rtol=1e-12)
    assert np.linalg.eigvalsh(world).min() >= -1e-12 * float(np.abs(world).max())
    prior = data.draw(spd((horizon,)))
    gains, covs = rotated_gains(gain_table(prior, ego), rot)
    want_gains, want_covs = gain_update(prior[:, None], np.swapaxes(world, 0, 1))
    assert gains.shape == covs.shape == (horizon, len(rot), 2, 2)
    assert close(gains, want_gains) and close(covs, want_covs)
    assert np.array_equal(covs, np.swapaxes(covs, -1, -2))
