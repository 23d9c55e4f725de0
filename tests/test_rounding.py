"""The 6-decimal rounding contract of JSONL coordinates and predicted means.

``round6`` must equal Python's ``round(float(x), 6)`` bit for bit on every
double. The oracle here is always ``round`` itself, element by element.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from trajrefine.data import Dataset, Segment, read_jsonl, round6, write_jsonl


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
    dt = draw(st.floats(1e-3, 10.0))
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
