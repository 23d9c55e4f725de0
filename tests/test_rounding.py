"""The 6-decimal rounding contract of JSONL coordinates, predicted means and sigmas.

``round6`` must equal Python's ``round(float(x), 6)`` bit for bit on every
double. The oracle here is always ``round`` itself, element by element.
The sigmas ``write_predictions`` writes are rounded outward: each sigma up,
each rho toward zero, as ``decimal``'s ``quantize`` rounds them
(``reference_data.outward``).
"""

import json
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import reference_data
from trajrefine import cli
from trajrefine.data import (Dataset, Segment, gen_synthetic, read_jsonl, round6, write_jsonl,
                             write_predictions)
from trajrefine.gaussian import params_from_covs


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).reshape(-1).view(np.int64)


def by_round(values) -> np.ndarray:
    """``round(x, 6)`` of each element, in the input's shape."""
    values = np.asarray(values, dtype=float)
    return np.array([round(x, 6) for x in values.reshape(-1).tolist()]).reshape(values.shape)


def assert_rounds_like_round(values) -> None:
    np.testing.assert_array_equal(bits(round6(values)), bits(by_round(values)))


def near_ties() -> np.ndarray:
    """(n + 0.5) / 1e6 for n over 15 decades, and 1 and 2 ulps either side."""
    rng = np.random.default_rng(7)
    n = np.concatenate([rng.integers(-10**k, 10**k, 2000) for k in range(1, 16)])
    ties = (n + 0.5) / 1e6
    up, down = np.nextafter(ties, np.inf), np.nextafter(ties, -np.inf)
    return np.concatenate([ties, up, down, np.nextafter(up, np.inf),
                           np.nextafter(down, -np.inf)])


def test_near_ties_and_their_neighbours():
    values = near_ties()
    assert_rounds_like_round(values)
    # these inputs need the fallback: rint alone rounds many ties the other way
    naive = np.rint(values * 1e6) / 1e6
    assert (bits(naive) != bits(by_round(values))).mean() > 0.05


def test_documented_tie():
    assert round6(23.6432495) == round(23.6432495, 6) == 23.643249
    assert np.rint(23.6432495 * 1e6) / 1e6 != 23.643249


def test_signed_zeros():
    values = [0.0, -0.0, -1e-7, -4.9999e-7, 1e-7, -5e-324, 5e-324, -1e-300]
    assert_rounds_like_round(values)
    assert np.signbit(round6(values)).tolist() == [False, True, True, True,
                                                   False, True, False, True]


def test_small_values_written_with_an_exponent():
    values = np.array([5e-05, -5e-05, 1e-06, -1e-06, 1.5e-06, 2.5e-06, 9.9999995e-05,
                       3.14159e-05, 4.9999999e-07, 5.0000001e-07])
    assert_rounds_like_round(values)
    assert json.dumps(round6(values).tolist()) == json.dumps(by_round(values).tolist())
    assert "e-05" in json.dumps(round6(values).tolist())


def test_large_and_non_finite_values():
    values = [1e9, -1e9, 999999999.9999995, -999999999.9999995, 1e15 + 0.375, 2.0**53,
              1e300, -1.7976931348623157e308, float("inf"), float("-inf"), float("nan")]
    assert_rounds_like_round(values)


@pytest.mark.parametrize("values", [
    np.float64(1.2345675),
    np.arange(12.0).reshape(3, 4).T / 7.0,
    near_ties()[:60].reshape(3, 4, 5)[:, ::2, ::-1],
], ids=["0-d", "transposed", "strided 3-d"])
def test_any_shape_and_layout(values):
    out = round6(values)
    assert out.shape == np.shape(values)
    assert_rounds_like_round(values)


def test_round6_tolist_returns_nested_float_lists():
    pts = near_ties()[:20].reshape(10, 2)
    out = round6(pts).tolist()
    assert out == by_round(pts).tolist()
    assert all(type(x) is float for row in out for x in row)


@settings(max_examples=300, deadline=None)
@given(arrays(float, st.integers(1, 8), elements=st.floats(width=64)))
def test_any_double(values):
    assert_rounds_like_round(values)


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def datasets(draw) -> Dataset:
    tau, horizon = draw(st.integers(0, 4)), draw(st.integers(1, 4))
    # write_jsonl rejects a dt that reads back as another protocol dt: 6 decimals, give
    # or take less than the protocol's 1e-9
    dt = draw(st.integers(10**3, 10**7)) / 1e6 + draw(st.sampled_from([0.0, 4e-10, -4e-10]))
    ids = draw(st.lists(st.text(max_size=8), min_size=1, max_size=4, unique=True))
    segments = [
        Segment(sid, draw(st.integers(-2**70, 2**70)), dt,
                draw(arrays(float, (tau + 1, 2), elements=finite)),
                draw(arrays(float, (horizon, 2), elements=finite)))
        for sid in ids
    ]
    return Dataset(segments, dt, tau, horizon)


@settings(max_examples=60, deadline=None)
@given(ds=datasets())
def test_jsonl_round_trip_rounds_every_coordinate(tmp_path_factory, ds):
    path = tmp_path_factory.mktemp("jsonl") / "ds.jsonl"
    write_jsonl(ds, str(path))
    back = read_jsonl(str(path))
    assert (back.dt, back.tau, back.horizon) == (round(ds.dt, 6), ds.tau, ds.horizon)
    assert [(s.segment_id, s.agent_id) for s in back.segments] == [
        (s.segment_id, s.agent_id) for s in ds.segments]
    for seg, read in zip(ds.segments, back.segments):
        np.testing.assert_array_equal(bits(read.history), bits(by_round(seg.history)))
        np.testing.assert_array_equal(bits(read.future), bits(by_round(seg.future)))


def on_the_grid() -> np.ndarray:
    """n / 1e6 for n over 15 decades, and 1 and 2 ulps either side: where rounding
    up or toward zero changes its integer."""
    rng = np.random.default_rng(8)
    n = np.concatenate([rng.integers(-10**k, 10**k, 2000) for k in range(1, 16)])
    grid = n / 1e6
    up, down = np.nextafter(grid, np.inf), np.nextafter(grid, -np.inf)
    return np.concatenate([grid, up, down, np.nextafter(up, np.inf),
                           np.nextafter(down, -np.inf)])


def written_params(directory, params) -> np.ndarray:
    """The (M, 3) sigmas write_predictions writes for (M, 3) params, as one
    segment's, read back by ``json.loads``."""
    params = np.asarray(params, dtype=float)
    path = directory / "p.jsonl"
    write_predictions(str(path), ["s"], np.zeros((1, len(params), 2)), params[None], "refined")
    with open(path, encoding="utf-8") as fh:
        (line,) = fh.readlines()
    return np.array(json.loads(line)["sigmas"], dtype=float).reshape(-1, 3)


def assert_rounded_outward(params, written) -> None:
    """written is the oracle's rounding of params, and the Gaussian did not narrow."""
    params = np.asarray(params, dtype=float)
    np.testing.assert_array_equal(bits(written), bits(reference_data.outward(params)))
    sigma, sigma_w = params[:, :2], written[:, :2]
    rho, rho_w = params[:, 2], written[:, 2]
    assert (sigma > 0).all() and (np.abs(rho) < 1).all()  # the inputs are valid
    assert (sigma_w >= sigma).all()
    assert (np.abs(rho_w) <= np.abs(rho)).all() and (np.abs(rho_w) < 1).all()
    assert (np.signbit(rho_w) == np.signbit(rho)).all()


def float_determinants(params) -> np.ndarray:
    """sigma_x^2 sigma_y^2 (1 - rho^2) of (M, 3) params whose products stay finite
    (rho^2 may underflow)."""
    p = np.asarray(params, dtype=float)
    with np.errstate(over="raise", invalid="raise"):
        return p[:, 0] ** 2 * p[:, 1] ** 2 * (1.0 - p[:, 2] ** 2)


@pytest.mark.parametrize("values", [near_ties, on_the_grid])
def test_sigmas_rounded_outward_near_ties_and_on_the_grid(tmp_path, values):
    v = values()
    rho = v[np.abs(v) < 1]
    sigma = np.abs(v[v != 0.0])
    sigma[sigma < 1e-9] = 0.25  # 0's neighbours: products of their squares would underflow
    params = np.column_stack([sigma[: len(rho)], sigma[-len(rho):], rho])
    written = written_params(tmp_path, params)
    assert_rounded_outward(params, written)
    assert (float_determinants(written) >= float_determinants(params)).all()
    assert (written != params).mean() > 0.5  # most inputs are not 6-decimal doubles already


def test_sigmas_at_the_edges(tmp_path):
    params = [[1e-9, 2.2e-7, 0.9999996], [1e12, 2.2e-7, -0.9999996], [1e-9, 1e-9, 4e-7],
              [1.5, 0.25, -4e-7], [1.0, 1e12, -0.0], [5e-324, 1e-300, 0.0]]
    written = written_params(tmp_path, params)
    assert_rounded_outward(params, written)
    assert written.tolist() == [[1e-6, 1e-6, 0.999999], [1e12, 1e-6, -0.999999],
                                [1e-6, 1e-6, 0.0], [1.5, 0.25, -0.0], [1.0, 1e12, -0.0],
                                [1e-6, 1e-6, 0.0]]
    assert np.signbit(written[:, 2]).tolist() == [False, True, False, True, True, False]


positive_doubles = st.floats(0.0, exclude_min=True, allow_infinity=False)
unit_open = st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(positive_doubles, positive_doubles, unit_open), min_size=1,
                max_size=8))
def test_sigmas_of_any_valid_gaussian(tmp_path_factory, params):
    written = written_params(tmp_path_factory.mktemp("sigmas"), params)
    assert_rounded_outward(params, written)
    for row, row_w in zip(params, written.tolist()):  # exactly: squares may overflow
        sx, sy, rho = map(Fraction, row)
        sx_w, sy_w, rho_w = map(Fraction, row_w)
        assert sx_w**2 * sy_w**2 * (1 - rho_w**2) >= sx**2 * sy**2 * (1 - rho**2)


def test_predict_at_a_tiny_goal_covariance(tmp_path):
    """Criterion 5's goal_cov_scale 1e-12 gives refined sigmas below 5e-7 m, which
    plain rounding would write as 0; the CLI writes them up to 1e-6."""
    train, test, model, out = (str(tmp_path / name) for name in
                               ("train.jsonl", "test.jsonl", "model.json", "p.jsonl"))
    write_jsonl(gen_synthetic("lane_change", 300, 0.2, seed=1), train)
    write_jsonl(gen_synthetic("lane_change", 60, 0.2, seed=2), test)
    assert cli.main(["fit", "--train", train, "--predictor", "ar", "--out", model]) == 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["predict", "--model", model, "--data", test, "--out", out,
                         "--goal-cov-scale", "1e-12"]) == 0
    predictor, goal_model, _ = cli.load_model(model)
    _, covs = cli.rollout_batch(predictor, read_jsonl(test).histories(), 25, goal_model,
                                goal_cov_scale=1e-12)
    params = params_from_covs(covs).reshape(-1, 3)
    with open(out, encoding="utf-8") as fh:
        written = np.array([json.loads(line)["sigmas"] for line in fh]).reshape(-1, 3)
    assert_rounded_outward(params, written)
    assert (params[:, :2] < 5e-7).mean() > 0.2
    assert written[:, :2].min() == 1e-6


def triples(values) -> np.ndarray:
    """values as (M, 3) rows, the last one dropped if it is short."""
    values = np.asarray(values, dtype=float)
    return values[: len(values) // 3 * 3].reshape(-1, 3)


def assert_outward_like_the_oracle(params) -> None:
    np.testing.assert_array_equal(bits(round6(params, outward=True)),
                                  bits(reference_data.outward(np.reshape(params, (-1, 3)))))


@pytest.mark.parametrize("values", [near_ties, on_the_grid])
def test_round6_outward_near_ties_and_on_the_grid(values):
    """Every column meets every kind of value: sigmas and rhos of any sign and size."""
    params = triples(values())
    assert_outward_like_the_oracle(params)
    assert_outward_like_the_oracle(np.roll(params, 1, axis=1))


def test_round6_outward_of_no_rows():
    out = round6(np.empty((0, 3)), outward=True)
    assert out.shape == (0, 3)


def test_round6_outward_of_a_strided_block():
    block = triples(on_the_grid()[::625]).reshape(4, 20, 3)[::-2, ::3]  # on and off the grid
    assert not block.flags.c_contiguous
    out = round6(block, outward=True)
    assert out.shape == block.shape == (2, 7, 3)
    assert_outward_like_the_oracle(block)


def test_round6_outward_keeps_the_sign_of_rho():
    out = round6([[1.0, 1.0, 0.0], [1.0, 1.0, -0.0], [1.0, 1.0, 4e-7], [1.0, 1.0, -4e-7]],
                 outward=True)
    assert out[:, 2].tolist() == [0.0, 0.0, 0.0, 0.0]
    assert np.signbit(out[:, 2]).tolist() == [False, True, False, True]


def test_round6_outward_keeps_non_finite_values():
    params = [[np.inf, 1.5e-7, -np.inf], [2.5, np.inf, 0.5], [np.nan, 0.25, np.nan]]
    out = round6(params, outward=True)
    assert_outward_like_the_oracle(params)
    assert out[0].tolist() == [np.inf, 1e-6, -np.inf]
    assert out[1].tolist() == [2.5, np.inf, 0.5]
    assert np.isnan(out[2, [0, 2]]).all() and out[2, 1] == 0.25
