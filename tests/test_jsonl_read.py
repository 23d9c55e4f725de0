"""``read_jsonl``'s bulk pass against its exact pass.

The bulk pass parses a block's coordinates with numpy's C tokenizer and
takes a file only if ``write_jsonl``'s line builder rebuilds every line of it
byte for byte from what it parsed; any other file goes to the exact pass,
``json.loads`` line by line. Whichever pass reads a file, ``read_jsonl`` must
return bitwise what the exact pass alone returns, or raise its message, without
a warning, and every dataset file the package writes must take the bulk pass.
"""

import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_jsonl_text import special_dataset
from test_rounding import near_ties
from trajrefine import cli, data
from trajrefine.data import TEXT_BLOCK, Dataset, Segment, gen_synthetic, read_jsonl, write_jsonl

DATA = Path(__file__).parent / "data"


def outcome(path) -> object:
    """What ``read_jsonl`` makes of a file, down to the bits: every field of
    its dataset and segments, or the message it raises."""
    try:
        ds = read_jsonl(str(path))
    except ValueError as exc:
        return str(exc)
    stacks = (ds.histories(), ds.futures())
    return (ds.source, repr(ds.dt), type(ds.dt), ds.tau, ds.horizon,
            [(a.dtype.str, a.shape, a.flags.writeable, a.tobytes()) for a in stacks],
            [(s.segment_id, s.agent_id, type(s.agent_id), repr(s.dt), type(s.dt),
              s.history.tobytes(), s.future.tobytes(), s.history.base is not None)
             for s in ds.segments])


def exact_outcome(path, monkeypatch) -> object:
    """:func:`outcome` with the bulk pass turned off: the exact pass alone."""
    with monkeypatch.context() as m:
        m.setattr(data, "_read_bulk", lambda path: None)
        return outcome(path)


def assert_reads_like_the_exact_pass(path, monkeypatch, bulk: bool) -> None:
    """read_jsonl returns or raises what the exact pass does; ``bulk`` says
    whether the bulk pass takes the file."""
    assert (data._read_bulk(str(path)) is not None) is bulk
    assert outcome(path) == exact_outcome(path, monkeypatch)


@pytest.fixture
def canonical_lines(tmp_path) -> list[str]:
    """The lines write_jsonl writes for a corpus of two blocks."""
    path = tmp_path / "canonical.jsonl"
    write_jsonl(gen_synthetic("lane_change", TEXT_BLOCK + 3, 0.2, seed=5), str(path))
    return path.read_text(encoding="utf-8").splitlines(keepends=True)


K = TEXT_BLOCK + 1  # the line a variant changes: in the second block


def at_line(change):
    """A variant that applies ``change`` to the text of line K."""
    return lambda lines: [change(line) if i == K else line for i, line in enumerate(lines)]


def every_line(change):
    return lambda lines: [change(line) for line in lines]


def set_value(key: str, text: str):
    """Line K with the JSON text of ``key``'s value replaced by ``text``."""
    return at_line(lambda line: re.sub(rf'"{key}":[^,]*,', f'"{key}":{text},', line, count=1))


def first_coordinate(text: str, field: str = "history"):
    return at_line(lambda line: re.sub(rf'"{field}":\[\[[^,]*,', f'"{field}":[[{text},', line))


def one_point_short(field: str):
    """Line K with the first point of ``field`` dropped: one row of its block is shorter."""
    return at_line(lambda line: re.sub(rf'"{field}":\[\[[^\]]*\],', f'"{field}":[', line))


def reordered(line: str) -> str:
    obj = json.loads(line)
    return json.dumps(dict(reversed(obj.items())), separators=(",", ":")) + "\n"


def undecodable_after_malformed(lines):
    """Line 3 invalid JSON, and a lone 0xff byte on the last line, ~200 kB after it."""
    lines = lines[:2] + [lines[2].replace("}\n", "\n")] + lines[3:]
    return lines[:-1] + [lines[-1].replace('"lane', '"\udcfflane')]


VARIANTS = {  # name: (change to the list of lines, whether the bulk pass takes the file)
    "canonical": (lambda lines: lines, True),
    "crlf": (every_line(lambda line: line.replace("\n", "\r\n")), True),  # read as "\n"
    "bom": (lambda lines: ["\ufeff" + lines[0]] + lines[1:], False),
    "blank-line": (lambda lines: lines[:K] + ["\n"] + lines[K:], False),
    "no-final-newline": (lambda lines: lines[:-1] + [lines[-1][:-1]], False),
    "neighbors-key": (at_line(lambda line: line.replace("}\n", ',"neighbors":[]}\n')), False),
    "reordered-keys": (at_line(reordered), False),
    "space-after-colon": (at_line(lambda line: line.replace('":', '": ')), False),
    "agent-minus-zero": (set_value("agent_id", "-0"), False),
    "agent-leading-zero": (set_value("agent_id", "01"), False),
    "coordinate-1": (first_coordinate("1"), False),
    "coordinate-7-decimals": (first_coordinate("1.0000001"), False),
    "coordinate-nan": (first_coordinate("NaN"), False),
    "coordinate-1e400": (first_coordinate("1e400"), False),
    "id-escaped-hyphen": (at_line(lambda line: line.replace("change-", "change\\u002d")), False),
    "id-escaped-quote": (at_line(lambda line: line.replace("change-", 'change\\"')), False),
    "id-non-ascii": (at_line(lambda line: line.replace("change-", "changeé")), False),
    "id-repeated": (at_line(lambda line: line.replace("-00129", "-00003")), False),
    "dt-same-value-other-text": (set_value("dt", "0.20"), False),
    "dt-second-value": (set_value("dt", "0.3"), False),
    "dt-negative": (every_line(lambda line: line.replace('"dt":0.2,', '"dt":-0.2,')), False),
    "dt-integer": (every_line(lambda line: line.replace('"dt":0.2,', '"dt":1,')), True),
    "history-empty": (at_line(lambda line: re.sub(r'"history":[^"]*,', '"history":[],',
                                                  line)), False),
    "every-history-empty": (every_line(lambda line: re.sub(r'"history":[^"]*,',
                                                           '"history":[],', line)), False),
    "second-block-history-shorter": (lambda lines: lines[:TEXT_BLOCK] + [
        re.sub(r'"history":\[\[[^\]]*\],', '"history":[', line) for line in lines[TEXT_BLOCK:]
    ], False),
    "undecodable-after-malformed": (undecodable_after_malformed, False),
    "empty-file": (lambda lines: [], False),
    "history-one-point-short": (one_point_short("history"), False),
    "future-one-point-short": (one_point_short("future"), False),
    "every-future-empty": (every_line(lambda line: re.sub(r'"future":[^}]*}',
                                                          '"future":[]}', line)), False),
    # number texts numpy's tokenizer reads and no JSON writer writes
    **{f"{field}-{name}": (first_coordinate(text, field), False)
       for field in ("history", "future")
       for name, text in (("nan", "nan"), ("inf", "inf"), ("plus", "+1.5"), ("no-units", ".5"),
                          ("no-fraction", "1."), ("leading-zero", "01.5"),
                          ("leading-space", " 1.5"), ("exponent", "1e5"))},
}


@pytest.mark.parametrize("name", VARIANTS)
def test_every_variant_reads_like_the_exact_pass(tmp_path, monkeypatch, canonical_lines, name):
    change, bulk = VARIANTS[name]
    assert canonical_lines[K].startswith('{"segment_id":"lane_change-00129","agent_id":129,')
    lines = change(canonical_lines)
    assert (lines == canonical_lines) is (name == "canonical")
    path = tmp_path / "d.jsonl"
    path.write_bytes("".join(lines).encode("utf-8", "surrogateescape"))
    assert_reads_like_the_exact_pass(path, monkeypatch, bulk)


@pytest.mark.parametrize("name", ["canonical", "every-history-empty", "every-future-empty",
                                  "history-one-point-short", "history-nan"])
def test_no_variant_warns(tmp_path, canonical_lines, name):
    # loadtxt warns "input contained no data" on a block whose rows are all empty
    path = tmp_path / "d.jsonl"
    path.write_text("".join(VARIANTS[name][0](canonical_lines)), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        outcome(path)


def test_the_earlier_error_wins_over_a_later_undecodable_byte(tmp_path, canonical_lines):
    path = tmp_path / "d.jsonl"
    lines = undecodable_after_malformed(canonical_lines)
    path.write_bytes("".join(lines).encode("utf-8", "surrogateescape"))
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: line 3: invalid JSON"):
        read_jsonl(str(path))


class TestWhatThePackageWritesTakesTheBulkPass:
    """A writer change that sends the package's own files to the exact pass fails here."""

    @pytest.mark.parametrize("args", [
        ["--scenario", "lane-change", "--n", str(TEXT_BLOCK + 1), "--noise", "0.2"],
        ["--scenario", "turn", "--n", "30", "--noise", "1e-5"],
        ["--scenario", "ca", "--n", "30"],
        ["--scenario", "cv", "--n", "30", "--tau", "0", "--horizon", "1", "--dt", "0.3"],
    ], ids=["lane-change-two-blocks", "turn-tiny-noise", "ca-noise-free", "cv-shortest"])
    def test_gen_synth(self, tmp_path, monkeypatch, args):
        path = tmp_path / "d.jsonl"
        assert cli.main(["gen-synth", *args, "--out", str(path)]) == 0
        assert_reads_like_the_exact_pass(path, monkeypatch, bulk=True)

    @pytest.mark.parametrize("name", ["ngsim_tiny_default.jsonl", "ngsim_tiny_s9.jsonl"])
    def test_committed_ngsim_files(self, monkeypatch, name):
        assert_reads_like_the_exact_pass(DATA / name, monkeypatch, bulk=True)

    def test_ingest_ngsim(self, tmp_path, monkeypatch):
        path = tmp_path / "d.jsonl"
        assert cli.main(["ingest-ngsim", "--csv", str(DATA / "ngsim_tiny.csv"),
                         "--out", str(path), "--stride", "3"]) == 0
        assert_reads_like_the_exact_pass(path, monkeypatch, bulk=True)

    def test_values_below_1e_4_and_from_1e9(self, tmp_path, monkeypatch):
        # values below 1e-4 take points_json's exponent words; only the rows holding a
        # value of 1e9 or more go through json.dumps
        path = tmp_path / "d.jsonl"
        write_jsonl(special_dataset(), str(path))
        text = path.read_text(encoding="utf-8")
        assert all(value in text for value in ("1e-06,", "2.5e-05,", "1000000000.0,"))
        assert_reads_like_the_exact_pass(path, monkeypatch, bulk=True)

    @pytest.mark.parametrize("dt", [1, np.int64(2), 0.30000000000000004, 2.5e-05, 1e9 + 0.5],
                             ids=["int", "int64", "float-noise", "small", "large"])
    def test_other_dts_and_agent_ids(self, tmp_path, monkeypatch, dt):
        points = np.array([[1.5, -2.25], [3.0, 4.125]])
        ds = Dataset([Segment("a", -(2**70), dt, points, points),
                      Segment("b", 0, dt, points, points)], dt, 1, 2)
        path = tmp_path / "d.jsonl"
        write_jsonl(ds, str(path))
        assert_reads_like_the_exact_pass(path, monkeypatch, bulk=True)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1e9, 1e9),
    st.integers(-10**15 + 1, 10**15 - 1).map(lambda n: n / 1e6),
    st.sampled_from(near_ties().tolist()),
), min_size=6, max_size=6))
def test_any_double_reads_back_bitwise(tmp_path_factory, xs):
    # equal text does not make equal doubles: round6 maps neighbouring doubles to
    # one text, so the bulk pass must parse each number as float() does
    values = np.array(xs).reshape(1, 3, 2)
    ds = Dataset([Segment("s", 1, 0.2, values[0, :2], values[0, 2:])], 0.2, 1, 1)
    path = tmp_path_factory.mktemp("bits") / "d.jsonl"
    write_jsonl(ds, str(path))
    bulk = data._read_bulk(str(path))
    records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    assert bulk.histories().tobytes() == np.array([records[0]["history"]]).tobytes()
    assert bulk.futures().tobytes() == np.array([records[0]["future"]]).tobytes()


def assert_parsed_as_float(texts: list[str]) -> None:
    """The bulk pass's tokenizer parses each number text as float() does, bit for bit."""
    texts = texts + texts[:1] * (len(texts) % 2)
    pairs = [texts[i : i + 2] for i in range(0, len(texts), 2)]
    parsed = data._coordinates([f"[[{x},{y}]]" for x, y in pairs])
    assert parsed.tobytes() == np.array([[[float(x), float(y)]] for x, y in pairs]).tobytes()


def test_tokenizer_parses_near_ties_as_float():
    # each value's repr, and its 6-decimal and 25-digit texts, which need correct rounding
    values = near_ties().tolist()
    assert_parsed_as_float([text for x in values
                            for text in (repr(x), f"{x:.6f}", f"{x:.25g}")])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.from_regex(r"-?[0-9]{1,20}\.[0-9]{1,30}(e-?[0-9]{1,3})?", fullmatch=True),
), min_size=1, max_size=12))
def test_tokenizer_parses_any_number_text_as_float(texts):
    assert_parsed_as_float(texts)
