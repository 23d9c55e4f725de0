"""The JSONL writers' number text against their ``json.dumps`` lines.

``write_jsonl`` and ``write_predictions`` (``predict``'s writer) take the
text of coordinates, means and outward-rounded sigmas from ``points_json``,
which rounds them and lays out ``number_words``' text; a row holding a value
outside its range takes the exact pass there, ``json.dumps``. Every byte
must equal the frozen one-line-a-segment writers of ``reference_data``, rows
of the exact pass included.
"""

import json
import re
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_data
from test_rounding import near_ties
from trajrefine import cli, data
from trajrefine.data import (
    SCENARIOS,
    TEXT_BLOCK,
    Dataset,
    Segment,
    gen_synthetic,
    number_words,
    points_json,
    read_jsonl,
    round6,
    write_jsonl,
)
from trajrefine.gaussian import params_from_covs

# round6 values at the edges of number_words' range |v| < 1e9, on both sides, and
# the forms of its text: exponent text below 1e-4, whole numbers, trailing zeros
SPECIAL = [0.0, -0.0, 1e-6, -1e-6, 9.9999e-05, -9.9999e-05, 1e-4, -1e-4, 2.5e-05,
           9.9e-05, -9.9e-05, 1.2e-05, -7e-06, 1e-05, 9.9e-06,
           999999999.999999, -999999999.999999, 1e9, -1e9, 1e15, -1e15, 1.0, -7.0, 10.0,
           100.0, 1000.0, 123456.0, 1e6, 1e8, 0.1, 0.5, 1.05, 10.01, 1.000001, 0.000123,
           1000000.000001, 987654321.5, 12.3, -4.05]


def in_range(value: float) -> bool:
    """Whether number_words' text is exact for a round6 value."""
    return abs(value) < 1e9


@pytest.fixture
def exact_pass(monkeypatch) -> list:
    """The rows, as lists, that ``points_json`` hands to ``json.dumps``, its
    exact pass, in the order it does so while the test runs."""
    rows = []

    def dumps(obj, **kwargs):
        if sys._getframe(1).f_code is data.points_json.__code__:
            rows.append(obj)
        return json.dumps(obj, **kwargs)

    monkeypatch.setattr(data, "json", SimpleNamespace(**{**vars(json), "dumps": dumps}))
    return rows


def number_text(values) -> tuple[list[str], list[bool]]:
    """number_words' text of each value of a 1-d array, and its exact flags."""
    words, exact = number_words(values)
    return [w.tobytes().translate(None, b"\0").decode("ascii") for w in words], exact.tolist()


def assert_text_is_repr_of_round(xs) -> None:
    rounded = [round(x, 6) for x in np.asarray(xs, dtype=float).tolist()]
    texts, exact = number_text(round6(xs))
    assert exact == [in_range(r) for r in rounded]
    assert [t for t, ok in zip(texts, exact) if ok] == [repr(r) for r in rounded if in_range(r)]


class TestNumberWords:
    def test_near_ties_and_their_neighbours(self):
        values = near_ties()
        assert_text_is_repr_of_round(values)
        assert np.mean([in_range(round(x, 6)) for x in values.tolist()]) > 0.5

    def test_special_values(self):
        assert_text_is_repr_of_round(SPECIAL)
        texts, exact = number_text(SPECIAL)
        assert dict(zip(texts[:2], exact[:2])) == {"0.0": True, "-0.0": True}
        assert texts[SPECIAL.index(1000000.000001)] == "1000000.000001"

    def test_non_finite_values_are_out_of_range(self):
        _, exact = number_text([np.nan, np.inf, -np.inf, 1e300])
        assert exact == [False] * 4

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(-1e9, 1e9),
        st.integers(-10**15 + 1, 10**15 - 1).map(lambda n: n / 1e6),  # at most 6 digits
        st.sampled_from(near_ties().tolist()),
    ), min_size=1, max_size=16))
    def test_any_double(self, xs):
        assert_text_is_repr_of_round(xs)

    def test_points_json_flags_each_row(self, exact_pass):
        points = np.full((3, 4, 2), 1.5000004)  # points_json rounds: 1.5
        points[1, 2, 1] = 1e9
        texts = points_json(points)
        assert exact_pass == [round6(points[1]).tolist()]  # only row 1 takes the exact pass
        assert texts == [json.dumps(round6(row).tolist(), separators=(",", ":"))
                         for row in points]
        assert texts[0] == texts[2] == "[" + ",".join(["[1.5,1.5]"] * 4) + "]"
        assert "[1.5,1000000000.0]" in texts[1]
        assert points_json(np.empty((0, 4, 2))) == []


def assert_writes_like_reference(ds, tmp_path) -> None:
    path = tmp_path / "d.jsonl"
    write_jsonl(ds, str(path))
    assert path.read_bytes() == reference_data.jsonl_text(ds).encode()


def special_dataset(tau: int = 3, horizon: int = 4) -> Dataset:
    """Segments each holding one SPECIAL value, in the history or the future,
    between segments that hold none; the last holds them all."""
    base = gen_synthetic("cv", 2 * len(SPECIAL) + 2, 0.2, seed=6, tau=tau, horizon=horizon)
    segments = []
    for k, seg in enumerate(base.segments[:-1]):
        history, future = np.array(seg.history), np.array(seg.future)
        if k % 2:  # in turn the first history x and the first future y
            (history if k % 4 == 1 else future)[0, k % 4 // 2] = SPECIAL[k // 2]
        segments.append(Segment(seg.segment_id, seg.agent_id, seg.dt, history, future))
    values = np.resize(SPECIAL, (tau + 1 + horizon) * 2).reshape(-1, 2)
    segments.append(Segment("all", 1, base.dt, values[: tau + 1], values[tau + 1 :]))
    return Dataset(segments, base.dt, tau, horizon)


class TestWriteJsonl:
    @pytest.mark.parametrize("noise", [0.0, 0.2, 1e-5])
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_scenarios(self, tmp_path, scenario, noise):
        assert_writes_like_reference(gen_synthetic(scenario, 40, noise, seed=3), tmp_path)

    @pytest.mark.parametrize("n", [0, 1, TEXT_BLOCK - 1, TEXT_BLOCK, TEXT_BLOCK + 1])
    def test_block_boundaries(self, tmp_path, n):
        ds = gen_synthetic("turn", n, 0.2, seed=5) if n else Dataset([])
        assert_writes_like_reference(ds, tmp_path)

    def test_shortest_protocol_and_another_dt(self, tmp_path):
        ds = gen_synthetic("cv", 30, 0.2, seed=4, tau=0, horizon=1, dt=0.3)
        assert_writes_like_reference(ds, tmp_path)

    def test_values_at_the_edges_of_the_range(self, tmp_path, exact_pass):
        ds = special_dataset()
        assert len(ds) <= TEXT_BLOCK  # one block: its histories, then its futures
        assert_writes_like_reference(ds, tmp_path)
        # only the histories and futures holding a value outside the range take the exact pass
        assert exact_pass == [round6(points).tolist() for field in ("history", "future")
                              for points in (getattr(seg, field) for seg in ds.segments)
                              if not all(in_range(round(x, 6)) for x in points.flat)]
        assert 0 < len(exact_pass) < len(SPECIAL)

    @pytest.mark.parametrize("segment_id", [
        'say "hi"', "back\\slash", "tab\tnewline\ncontrol\x01\x1f\x7f", "ümlaut", "日本",
        "\U0001f600", "\ud800", "", "/",
    ], ids=["quote", "backslash", "control", "latin", "cjk", "astral", "surrogate", "empty",
            "slash"])
    def test_ids_that_need_escaping(self, tmp_path, segment_id):
        points = np.array([[1.5, -2.25], [3.0, 4.125]])
        ds = Dataset([Segment("plain", 3, 0.2, points, points),
                      Segment(segment_id, -(2**70), 0.2, points, points)], tau=1, horizon=2)
        assert_writes_like_reference(ds, tmp_path)
        assert read_jsonl(str(tmp_path / "d.jsonl")).segments[1].segment_id == segment_id

    @pytest.mark.parametrize("dt", [1, np.float64(0.2), 0.30000000000000004, 2.5e-05,
                                    1e9 + 0.5, 10**400])
    def test_any_dt(self, tmp_path, dt):
        points = np.array([[1.5, -2.25]])
        ds = Dataset([Segment("a", np.int64(3), dt, points, points)], dt, 0, 1)
        assert_writes_like_reference(ds, tmp_path)

    # 5.000000000000001e-07 is the smallest dt whose 6-decimal text is not 0
    @pytest.mark.parametrize("dt,written", [(0.2000004, "0.2"), (0.1234567, "0.123457"),
                                            (5.000000000000001e-07, "1e-06")])
    def test_dt_read_back_as_another_dt_rejected(self, tmp_path, dt, written):
        points = np.array([[1.5, -2.25]])
        ds = Dataset([Segment("a", 3, dt, points, points)], dt, 0, 1)
        path = tmp_path / "d.jsonl"
        with pytest.raises(ValueError, match=f"^dt={re.escape(repr(dt))} reads back as "
                                             f"{re.escape(written)} at the 6 decimals"):
            write_jsonl(ds, str(path))
        assert not path.exists()

    def test_equal_dts_of_other_types_keep_their_text(self, tmp_path):
        # dt's text is cached: equal keys of other types, such as 1.0 and 1 ("1.0" and
        # "1"), must not share it; only the typed cache keeps an int subclass apart
        class Int(int):
            pass

        points = np.array([[1.5, -2.25]])
        for dt in (1.0, Int(1), 1, np.float64(1.0), 1.0, Int(1), 1):
            ds = Dataset([Segment("a", 3, dt, points, points)], dt, 0, 1)
            assert_writes_like_reference(ds, tmp_path)


def model_and_data(tmp_path, n: int, horizon: int = 25):
    """Paths of a fitted ar model file and an n-segment dataset of its protocol."""
    train, test, model = (str(tmp_path / name) for name in ("train.jsonl", "test.jsonl",
                                                               "model.json"))
    write_jsonl(gen_synthetic("lane_change", 60, 0.2, seed=11, horizon=horizon), train)
    write_jsonl(gen_synthetic("lane_change", n, 0.2, seed=12, horizon=horizon)
                if n else Dataset([], horizon=horizon), test)
    assert cli.main(["fit", "--train", train, "--out", model, "--predictor", "ar",
                     "--anchors", str(horizon)]) == 0
    return model, test


def predict(model: str, data_path: str, out: str, refine: str = "on") -> list[str]:
    assert cli.main(["predict", "--model", model, "--data", data_path, "--out", out,
                     "--refine", refine]) == 0
    with open(out, encoding="utf-8", newline="") as fh:
        return fh.readlines()


class TestPredict:
    @pytest.mark.parametrize("n", [0, 1, TEXT_BLOCK - 1, TEXT_BLOCK, TEXT_BLOCK + 1])
    @pytest.mark.parametrize("refine", ["on", "off"])
    def test_block_boundaries(self, tmp_path, n, refine):
        model, data_path = model_and_data(tmp_path, n)
        got = predict(model, data_path, str(tmp_path / "p.jsonl"), refine)
        predictor, goal_model, _ = cli.load_model(model)
        ds = read_jsonl(data_path)
        want = []
        if n:
            means, covs = cli.rollout_batch(predictor, ds.histories(), ds.horizon,
                                            goal_model if refine == "on" else None)
            mode = "refined" if refine == "on" else "vanilla"
            want = [reference_data.prediction_line(seg.segment_id, m, s, mode)
                    for seg, m, s in zip(ds.segments, means, params_from_covs(covs))]
        assert got == want

    def test_means_at_the_edges_of_the_range(self, tmp_path, monkeypatch):
        n, horizon = 2 * len(SPECIAL) + 1, 3
        model, data_path = model_and_data(tmp_path, n, horizon)
        rng = np.random.default_rng(2)
        means = rng.normal(0.0, 50.0, (n, horizon, 2))
        for k, value in enumerate(SPECIAL):  # every other segment holds one
            means[2 * k + 1, k % horizon, k % 2] = value
        covs = np.tile(np.array([[2.0, 0.3], [0.3, 1.0]]), (n, horizon, 1, 1))
        monkeypatch.setattr(cli, "rollout_batch", lambda *args: (means, covs))
        got = predict(model, data_path, str(tmp_path / "p.jsonl"))
        ds = read_jsonl(data_path)
        assert got == [reference_data.prediction_line(seg.segment_id, m, s, "refined")
                       for seg, m, s in zip(ds.segments, means, params_from_covs(covs))]


def test_in_range_lines_never_take_the_exact_pass(tmp_path, exact_pass):
    model, data_path = model_and_data(tmp_path, TEXT_BLOCK + 5)
    ds = gen_synthetic("lane_change", TEXT_BLOCK + 5, 0.2, seed=9)
    assert_writes_like_reference(ds, tmp_path)
    predict(model, data_path, str(tmp_path / "p.jsonl"))
    assert exact_pass == []
    # the hook is the exact pass: a value outside the range reaches it
    write_jsonl(special_dataset(), str(tmp_path / "s.jsonl"))
    assert exact_pass
