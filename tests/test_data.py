import dataclasses
import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import reference_data
from trajrefine import data
from trajrefine.data import (
    Dataset,
    Segment,
    Track,
    downsample,
    extract_segments,
    gen_synthetic,
    parse_ngsim_csv,
    read_jsonl,
    split_dataset,
    write_jsonl,
)


def protocol_error(dt, tau, horizon):
    return re.escape("protocol needs a finite dt > 0, tau >= 0 and horizon >= 1, "
                     f"got dt={dt}, tau={tau}, horizon={horizon}")


def csv_text(rows, header="Vehicle_ID,Frame_ID,Total_Frames,Local_X,Local_Y"):
    cols = header.split(",")
    return "".join(",".join(str(row.get(c, 0)) for c in cols) + "\n" for row in rows)


def write_csv(path, rows, header="Vehicle_ID,Frame_ID,Total_Frames,Local_X,Local_Y"):
    with open(path, "w") as fh:
        fh.write(header + "\n" + csv_text(rows, header))


ID_VALUES = ["inf", "-inf", "nan", "3.2", "1e300", "9007199254740992"]
DEFECTIVE_LINES = [
    # an unreadable line after a checked defect: the earlier line is named
    (["1,0,1.0,0.0", "1,-1,1.0,0.0", "1,1,1.0,0.0", "1,2,x,0.0"],
     "line 3: negative frame id -1"),
    (["1,0,1.0,0.0", "1,1,x,0.0", "1,0,1.0,0.0"],
     "line 3: could not convert string to float: 'x'"),
    (["1,0,1.0,0.0", "2,0,1.0,0.0", "1,0,1.0,0.0", "2,1,inf,0.0"],
     "line 4: Frame_ID 0 of Vehicle_ID 1 repeats line 2"),
    (["1,0,1.0,0.0", "1,1,1.0,nan", "1,0,1.0,0.0"], "line 3: non-finite coordinate"),
    # one line, several defects: checked in the order id, frame, coordinates
    (["1.5,-1,nan,0.0"], "line 2: Vehicle_ID 1.5 is not a whole number below 2**53"),
    (["1,-1,nan,0.0"], "line 2: negative frame id -1"),
    (["1,0,1.0,0.0", "1,1,1.0,0.0", "", " , , , ", "1,1,1.0,0.0"],
     "line 6: Frame_ID 1 of Vehicle_ID 1 repeats line 3"),
    # a quoted extra field spanning lines: lines are physical, and a record
    # is named by the line it starts on
    (['1,0,1.0,0.0,"two\nlines"', "1,1,1.0,0.0", "1,0,1.0,0.0"],
     "line 5: Frame_ID 0 of Vehicle_ID 1 repeats line 2"),
    (["1,0,1.0,0.0", '1,1,1.0,0.0,"a\nb\nc"', "", "1,2,x,0.0"],
     "line 7: could not convert string to float: 'x'"),
    (['1,0,1.0,0.0,"a\n\nb"', "1,-1,1.0,0.0"], "line 5: negative frame id -1"),
    # a short row names the first field it lacks (was "list index out of range")
    (["1,1,0"], "line 2: no Local_Y field"),
    (["1,0,1.0,0.0", "1"], "line 3: no Frame_ID field"),
]


class TestParseNgsim:
    def test_feet_to_meters(self, tmp_path):
        p = tmp_path / "a.csv"
        write_csv(p, [{"Vehicle_ID": 1, "Frame_ID": 0, "Local_X": 100.0, "Local_Y": 0.0}])
        tracks = parse_ngsim_csv(str(p))
        assert tracks[0].points[0, 0] == pytest.approx(30.48, abs=0.0)
        assert tracks[0].dt == 0.1

    def test_interleaved_vehicles_sorted_by_frame(self, tmp_path):
        p = tmp_path / "a.csv"
        rows = [
            {"Vehicle_ID": 2, "Frame_ID": 1, "Local_X": 20.0, "Local_Y": 0.0},
            {"Vehicle_ID": 1, "Frame_ID": 1, "Local_X": 11.0, "Local_Y": 0.0},
            {"Vehicle_ID": 2, "Frame_ID": 0, "Local_X": 19.0, "Local_Y": 0.0},
            {"Vehicle_ID": 1, "Frame_ID": 0, "Local_X": 10.0, "Local_Y": 0.0},
        ]
        write_csv(p, rows)
        tracks = parse_ngsim_csv(str(p))
        assert [t.vehicle_id for t in tracks] == [1, 2]
        assert tracks[0].points[0, 0] < tracks[0].points[1, 0]

    def test_gap_splits_track(self, tmp_path):
        p = tmp_path / "a.csv"
        rows = [
            {"Vehicle_ID": 1, "Frame_ID": f, "Local_X": f, "Local_Y": 0.0}
            for f in (1, 2, 3, 10, 11)
        ]
        write_csv(p, rows)
        tracks = parse_ngsim_csv(str(p))
        assert [len(t.points) for t in tracks] == [3, 2]

    def test_missing_column_named(self, tmp_path):
        p = tmp_path / "a.csv"
        write_csv(p, [], header="Vehicle_ID,Frame_ID,Local_X")
        with pytest.raises(ValueError, match="Local_Y"):
            parse_ngsim_csv(str(p))

    def test_parse_error_carries_line_number(self, tmp_path):
        p = tmp_path / "a.csv"
        with open(p, "w") as fh:
            fh.write("Vehicle_ID,Frame_ID,Local_X,Local_Y\n")
            fh.write("1,0,10.0,0.0\n")
            fh.write("1,1,not_a_number,0.0\n")
        with pytest.raises(ValueError, match="line 3"):
            parse_ngsim_csv(str(p))

    def test_repeated_frame_rejected_with_line(self, tmp_path):
        p = tmp_path / "a.csv"
        rows = [
            {"Vehicle_ID": 1, "Frame_ID": 0, "Local_X": 1.0, "Local_Y": 0.0},
            {"Vehicle_ID": 2, "Frame_ID": 0, "Local_X": 5.0, "Local_Y": 0.0},
            {"Vehicle_ID": 1, "Frame_ID": 0, "Local_X": 2.0, "Local_Y": 0.0},
        ]
        write_csv(p, rows)
        with pytest.raises(ValueError, match=r"a\.csv: line 4: .*repeats line 2"):
            parse_ngsim_csv(str(p))

    def test_nan_coordinate_rejected_with_line(self, tmp_path):
        p = tmp_path / "a.csv"
        rows = [
            {"Vehicle_ID": 1, "Frame_ID": 0, "Local_X": 1.0, "Local_Y": 0.0},
            {"Vehicle_ID": 1, "Frame_ID": 1, "Local_X": 2.0, "Local_Y": "nan"},
        ]
        write_csv(p, rows)
        with pytest.raises(ValueError, match=r"a\.csv: line 3: non-finite"):
            parse_ngsim_csv(str(p))


    @pytest.mark.parametrize("column", ["Vehicle_ID", "Frame_ID"])
    @pytest.mark.parametrize("value", ID_VALUES)
    def test_id_not_finite_whole_below_2_53_rejected_with_line(self, tmp_path, column, value):
        p = tmp_path / "a.csv"
        rows = [
            {"Vehicle_ID": 3, "Frame_ID": 0, "Local_X": 1.0, "Local_Y": 0.0},
            {"Vehicle_ID": 3, "Frame_ID": 1, "Local_X": 1.0, "Local_Y": 0.0, column: value},
        ]
        write_csv(p, rows)
        with pytest.raises(ValueError, match=rf"a\.csv: line 3: {column} \S+ is not a whole "
                                             r"number below 2\*\*53"):
            parse_ngsim_csv(str(p))

    def test_nearby_fractional_ids_are_not_merged(self, tmp_path):
        p = tmp_path / "a.csv"
        rows = [{"Vehicle_ID": vid, "Frame_ID": 0, "Local_X": 1.0, "Local_Y": 0.0}
                for vid in ("3.2", "3.7")]
        write_csv(p, rows)
        with pytest.raises(ValueError, match=r"line 2: Vehicle_ID 3\.2 is not a whole number"):
            parse_ngsim_csv(str(p))

    def test_whole_float_ids_accepted_as_ints(self, tmp_path):
        p = tmp_path / "a.csv"
        rows = [{"Vehicle_ID": vid, "Frame_ID": frame, "Local_X": 1.0, "Local_Y": 0.0}
                for vid, frame in (("25", "0"), ("25.0", "1.0"), ("-4", "0"))]
        write_csv(p, rows)
        tracks = parse_ngsim_csv(str(p))
        assert [(t.vehicle_id, len(t.points)) for t in tracks] == [(-4, 1), (25, 2)]
        assert all(type(t.vehicle_id) is int for t in tracks)

    @pytest.mark.parametrize("lines,message", DEFECTIVE_LINES)
    def test_first_defective_line_is_named(self, tmp_path, lines, message):
        p = tmp_path / "a.csv"
        p.write_text("Vehicle_ID,Frame_ID,Local_X,Local_Y\n" + "\n".join(lines) + "\n")
        with pytest.raises(ValueError) as exc:
            parse_ngsim_csv(str(p))
        assert str(exc.value) == f"{p}: {message}"

    def test_header_only_gives_no_tracks(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("Vehicle_ID,Frame_ID,Local_X,Local_Y\n\n")
        assert parse_ngsim_csv(str(p)) == []


NGSIM_HEADER = "Vehicle_ID,Frame_ID,Local_X,Local_Y\n"
HEADER_5 = "Vehicle_ID,Frame_ID,Total_Frames,Local_X,Local_Y\n"
DATA = Path(__file__).parent / "data"


def parse_outcome(parse, path):
    """(vehicle id, dt, points shape, points bytes) of each track, or the message."""
    try:
        tracks = [(t.vehicle_id, t.dt, t.points) if isinstance(t, Track) else t
                  for t in parse(str(path))]
    except ValueError as exc:
        return str(exc)
    return [(vid, dt, points.shape, points.tobytes()) for vid, dt, points in tracks]


def rows_case(rows):
    return HEADER_5 + csv_text([dict(zip(("Vehicle_ID", "Frame_ID", "Local_X", "Local_Y"), r))
                                for r in rows])


# The files of every TestParseNgsim case, then the text forms the C tokenizer
# and csv.reader could read differently.
DIFFERENTIAL_CASES = {
    "feet_to_meters": rows_case([(1, 0, 100.0, 0.0)]),
    "interleaved": rows_case([(2, 1, 20.0, 0.0), (1, 1, 11.0, 0.0), (2, 0, 19.0, 0.0),
                              (1, 0, 10.0, 0.0)]),
    "gap": rows_case([(1, f, f, 0.0) for f in (1, 2, 3, 10, 11)]),
    "missing_column": "Vehicle_ID,Frame_ID,Local_X\n",
    "not_a_number": NGSIM_HEADER + "1,0,10.0,0.0\n1,1,not_a_number,0.0\n",
    "repeated_frame": rows_case([(1, 0, 1.0, 0.0), (2, 0, 5.0, 0.0), (1, 0, 2.0, 0.0)]),
    "nan_coordinate": rows_case([(1, 0, 1.0, 0.0), (1, 1, 2.0, "nan")]),
    **{f"vid_{v}": rows_case([(3, 0, 1.0, 0.0), (v, 1, 1.0, 0.0)]) for v in ID_VALUES},
    **{f"frame_{v}": rows_case([(3, 0, 1.0, 0.0), (3, v, 1.0, 0.0)]) for v in ID_VALUES},
    "fractional_ids": rows_case([("3.2", 0, 1.0, 0.0), ("3.7", 0, 1.0, 0.0)]),
    "whole_float_ids": rows_case([("25", "0", 1.0, 0.0), ("25.0", "1.0", 1.0, 0.0),
                                  ("-4", "0", 1.0, 0.0)]),
    **{f"defective_{i}": NGSIM_HEADER + "\n".join(lines) + "\n"
       for i, (lines, _) in enumerate(DEFECTIVE_LINES)},
    "header_only": NGSIM_HEADER + "\n",
    "tiny": (DATA / "ngsim_tiny.csv").read_text(),
    # line endings
    "crlf": NGSIM_HEADER.replace("\n", "\r\n") + "1,0,1.0,0.0\r\n1,1,2.0,0.0\r\n2,0,3,4\r\n",
    "cr": NGSIM_HEADER.replace("\n", "\r") + "1,0,1.0,0.0\r1,1,2.0,0.0\r2,0,3,4\r",
    "cr_repeat": NGSIM_HEADER.replace("\n", "\r") + "1,0,1.0,0.0\r\r1,0,2.0,0.0\r",
    "crlf_bad": NGSIM_HEADER.replace("\n", "\r\n") + "1,0,1.0,0.0\r\n\r\n1,1,x,0.0\r\n",
    "no_final_newline": NGSIM_HEADER + "1,0,1.0,0.0\n1,1,2.0,0.0",
    # quoted fields
    "quoted_comma": "Vehicle_ID,Note,Frame_ID,Local_X,Local_Y\n"
                    '1,"a,b",0,1.0,0.0\n1,"c,,d",1,2.0,0.0\n',
    "quoted_newline": "Vehicle_ID,Note,Frame_ID,Local_X,Local_Y\n"
                      '1,"two\nlines",0,1.0,0.0\n1,"x\r\ny",1,2.0,0.0\n1,z,2,3,0\n',
    "quoted_newline_repeat": "Vehicle_ID,Note,Frame_ID,Local_X,Local_Y\n"
                             '1,"two\nlines",0,1.0,0.0\n1,"x",0,2.0,0.0\n',
    "doubled_quotes": NGSIM_HEADER.replace("\n", ",Note\n") + '1,0,1.0,0.0,"say ""hi"""\n',
    "quoted_number": NGSIM_HEADER + '"1",0,"1.5",0.0\n1,"1",2.0,"-0.5"\n',
    "quoted_number_newline": NGSIM_HEADER + '1,0,"1.5\n",0.0\n',
    "quote_after_space": NGSIM_HEADER + '1,0, "1.5",0.0\n',
    "quote_inside": NGSIM_HEADER + '1,0,1"5",0.0\n',
    "quoted_then_text": NGSIM_HEADER + '1,0,"1"5,0.0\n',
    "quoted_header": '"Vehicle_ID","Frame_ID","Local_X","Local_Y"\n1,0,1,0\n',
    "unterminated_quote": NGSIM_HEADER.replace("\n", ",Note\n") + '1,0,1.0,0.0,"open\n',
    # number forms
    "spaces": NGSIM_HEADER + " 1 ,\t0\t, 1.5 ,0.0 \n1,1, 2.5,0\n",
    "unicode_spaces": NGSIM_HEADER + "\xa01,0,1.5 ,0.0\n",
    "underscore": NGSIM_HEADER + "1_0,0,1.0,0.0\n",
    "underscore_coordinate": NGSIM_HEADER + "1,0,1_000.5,0.0\n",
    "arabic_digits": NGSIM_HEADER + "١,0,1.0,0.0\n",
    "fullwidth_digits": NGSIM_HEADER + "1,０,1.0,0.0\n",
    "exponents": NGSIM_HEADER + "1e0,+0,.5,-1E-3\n1,1.,5.,inf\n",
    "hex": NGSIM_HEADER + "0x1,0,1.0,0.0\n",
    # rows that hold nothing
    "blank_rows": NGSIM_HEADER + "\n1,0,1.0,0.0\n\n\n1,1,2.0,0.0\n\n",
    "whitespace_rows": NGSIM_HEADER + "  \n1,0,1.0,0.0\n\t\n1,1,2.0,0.0\n \n",
    "comma_rows": NGSIM_HEADER + ",,,\n1,0,1.0,0.0\n , , , \n1,1,2.0,0.0\n,,\n",
    "only_blank_rows": NGSIM_HEADER + "\n \n,,,\n",
    # row lengths
    "short_row": NGSIM_HEADER + "1,0,1.0,0.0\n1,1,2.0\n",
    "short_row_reordered": "Local_Y,Vehicle_ID,Frame_ID,Local_X\n0,1,1\n",
    "short_row_after_fault": NGSIM_HEADER + "1,0,1.0,0.0\n1,0,1.0,0.0\n1,1\n",
    "extra_columns": NGSIM_HEADER + "1,0,1.0,0.0,7\n1,1,2.0,0.0,8,9,10\n",
    "empty_field": NGSIM_HEADER + "1,,1.0,0.0\n",
    "header_no_newline": NGSIM_HEADER.rstrip("\n"),
    "empty_file": "",
}


class TestParseNgsimDifferential:
    @pytest.mark.parametrize("text", DIFFERENTIAL_CASES.values(), ids=DIFFERENTIAL_CASES.keys())
    def test_same_tracks_or_message_as_the_reference(self, tmp_path, text):
        p = tmp_path / "a.csv"
        p.write_bytes(text.encode())
        want = parse_outcome(reference_data.parse_ngsim_csv, p)
        assert parse_outcome(parse_ngsim_csv, p) == want

    def test_well_formed_files_never_run_the_exact_pass(self, tmp_path, monkeypatch):
        def exact(*args):
            raise AssertionError("the exact pass ran")

        monkeypatch.setattr(data, "_exact_rows", exact)
        rng = np.random.default_rng(5)
        rows = [{"Vehicle_ID": v, "Frame_ID": f, "Total_Frames": 300,
                 "Local_X": round(x, 3), "Local_Y": round(y, 3)}
                for v in range(1, 40) for f, (x, y) in enumerate(rng.normal(size=(300, 2)) * 50)
                if f % 97 != 5]  # a gap in every track
        big = tmp_path / "big.csv"
        write_csv(big, rows)
        got = parse_outcome(parse_ngsim_csv, big)
        assert got == parse_outcome(reference_data.parse_ngsim_csv, big)
        assert len(got) == 39 * 5
        # the hook is the exact pass: a row the tokenizer rejects reaches it
        bad = tmp_path / "bad.csv"
        bad.write_text(NGSIM_HEADER + "1_0,0,1.0,0.0\n")
        with pytest.raises(AssertionError, match="exact pass"):
            parse_ngsim_csv(str(bad))

    @pytest.mark.parametrize("text", [
        '"Vehicle_ID","Note\nmore\r\nlines",Frame_ID,Local_X,Local_Y\n1,a,0,1.0,0.0\n1,b,1,2,0\n',
        NGSIM_HEADER + "\n \n\t\n1,0,1.0,0.0\n\n1,1,2.0,0.0\n",
        NGSIM_HEADER.replace("\n", "\r\n") + "\r\n\r\n1,0,1.0,0.0\r\n1,1,2.0,0.0\r\n",
        NGSIM_HEADER.replace("\n", "\r") + "\r \r1,0,1.0,0.0\r1,1,2.0,0.0\r",
        "\ufeff" + NGSIM_HEADER + "\n1,0,1.0,0.0\n",
    ], ids=["header_spans_lines", "blank_lines", "crlf", "cr", "bom"])
    def test_tokenizer_skips_the_header_and_blank_lines(self, tmp_path, monkeypatch, text):
        def exact(*args):
            raise AssertionError("the exact pass ran")

        p, plain = tmp_path / "a.csv", tmp_path / "plain.csv"
        p.write_bytes(text.encode())
        plain.write_bytes(text.removeprefix("\ufeff").encode())  # the reference reads no BOM
        want = parse_outcome(reference_data.parse_ngsim_csv, plain)
        monkeypatch.setattr(data, "_exact_rows", exact)
        assert parse_outcome(parse_ngsim_csv, p) == want
        assert want[0][0] == 1

    def test_empty_body_warns_nothing(self, tmp_path):
        p = tmp_path / "a.csv"
        for body in ("", "\n", "\n\n \n"):
            p.write_text(NGSIM_HEADER + body)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert parse_ngsim_csv(str(p)) == []

    def test_byte_order_mark_is_skipped(self, tmp_path):
        plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
        text = (DATA / "ngsim_tiny.csv").read_text()
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes()[:3] == b"\xef\xbb\xbf"
        assert parse_outcome(parse_ngsim_csv, marked) == parse_outcome(parse_ngsim_csv, plain)
        # also on the exact pass, whose lines are counted from the same start
        marked.write_text(NGSIM_HEADER + "1,0,1.0,0.0\n\n1,0,2.0,0.0\n", encoding="utf-8-sig")
        with pytest.raises(ValueError, match=r"line 4: Frame_ID 0 of Vehicle_ID 1 repeats line 2"):
            parse_ngsim_csv(str(marked))


class TestUndecodableInput:
    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_csv_names_file_and_line(self, tmp_path, newline):
        p = tmp_path / "a.csv"
        lines = [NGSIM_HEADER.strip()] + [f"1,{f},1.0,0.0" for f in range(3000)]
        lines[2500] = "1,2499,1.0,\xff"
        p.write_bytes(newline.join(lines).encode("latin-1"))
        with pytest.raises(ValueError) as exc:
            parse_ngsim_csv(str(p))
        assert str(exc.value) == (f"{p}: line 2501: 'utf-8' codec can't decode byte 0xff "
                                  "in position 11: invalid start byte")

    def test_jsonl_names_file_and_line(self, tmp_path):
        p = tmp_path / "d.jsonl"
        write_jsonl(gen_synthetic("cv", 40, 0.0, seed=1), str(p))
        lines = p.read_bytes().splitlines(keepends=True)
        lines[30] = lines[30].replace(b'"cv-', b'"\xffcv-')
        p.write_bytes(b"".join(lines))
        with pytest.raises(ValueError) as exc:
            read_jsonl(str(p))
        assert str(exc.value) == (f"{p}: line 31: 'utf-8' codec can't decode byte 0xff "
                                  "in position 15: invalid start byte")

    def test_decode_error_without_a_line_at_fault_names_the_file(self, tmp_path):
        # the file decodes line by line, so no line is named: only the error and the path
        p = tmp_path / "ok.txt"
        p.write_text("fine\n", encoding="utf-8")
        with pytest.raises(ValueError) as exc:
            with data.reading(str(p)):
                raise UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte")
        assert str(exc.value) == (f"{p}: 'utf-8' codec can't decode byte 0xff in position 0: "
                                  "invalid start byte")


class TestArrayBuiltDatasets:
    """Datasets built from checked stacks equal Dataset([Segment(...), ...])."""

    @staticmethod
    def assert_same(ds):
        want = Dataset([Segment(s.segment_id, s.agent_id, s.dt, np.array(s.history),
                                np.array(s.future)) for s in ds.segments],
                       ds.dt, ds.tau, ds.horizon, ds.source)
        assert [(s.segment_id, s.agent_id, s.dt) for s in ds.segments] == [
            (s.segment_id, s.agent_id, s.dt) for s in want.segments]
        assert all(type(s) is Segment for s in ds.segments)
        assert type(ds.tau) is type(ds.horizon) is int
        for got, ref in zip(ds.segments, want.segments):
            assert got.history.dtype == got.future.dtype == np.float64
            assert got.history.tobytes() == ref.history.tobytes()
            assert got.future.tobytes() == ref.future.tobytes()
        for stack, ref in ((ds.histories(), want.histories()), (ds.futures(), want.futures())):
            assert stack.shape == ref.shape and stack.tobytes() == ref.tobytes()
            assert stack.flags.c_contiguous and not stack.flags.writeable
        return want

    @pytest.mark.parametrize("scenario", ("cv", "turn"))
    def test_gen_synthetic(self, scenario):
        self.assert_same(gen_synthetic(scenario, 9, 0.3, seed=2, tau=4, horizon=6))

    def test_extract_segments(self):
        rng = np.random.default_rng(3)
        tracks = [Track(7, 0.1, rng.normal(size=(90, 2))), Track(8, 0.1, rng.normal(size=(5, 2))),
                  Track(7, 0.1, rng.normal(size=(61, 2)))]
        ds = extract_segments([downsample(t) for t in tracks], tau=6, horizon=9, stride=3)
        assert [s.segment_id for s in ds.segments][:3] == ["v7-t0-s0", "v7-t0-s3", "v7-t0-s6"]
        assert ds.segments[-1].segment_id == "v7-t2-s15"
        want = self.assert_same(ds)
        seg = ds.segments[4]  # track 0, start 12: points 12..27 of the downsampled track
        np.testing.assert_array_equal(seg.history, tracks[0].points[::2][12:19])
        assert want.segments[4].future.tobytes() == tracks[0].points[::2][19:28].tobytes()

    def test_extract_segments_without_windows(self):
        ds = extract_segments([Track(1, 0.2, np.zeros((5, 2)))], tau=3, horizon=4)
        assert len(ds) == 0 and ds.dt == 0.2
        assert ds.histories().shape == (0, 4, 2) and ds.futures().shape == (0, 4, 2)

    def test_extract_segments_rejects_a_track_dt_as_segment_would(self):
        # the track itself rejects the dt, with windows to cut or without
        for n in (45, 40):
            with pytest.raises(ValueError, match="^dt must be finite and positive$"):
                extract_segments([Track(1, 0.0, np.zeros((n, 2)))], stride=1)

    def test_read_jsonl(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_jsonl(gen_synthetic("lane_change", 12, 0.2, seed=8), str(path))
        ds = read_jsonl(str(path))
        assert ds.source == str(path)
        self.assert_same(ds)

    @pytest.mark.parametrize("dt,where", [(1e307, "history"), (1e306, "future")])
    def test_gen_synthetic_non_finite_named_as_segment_would(self, dt, where):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match=f"^{where} contains non-finite coordinates$"):
                gen_synthetic("cv", 3, 0.1, seed=1, dt=dt)


class TestSegmentChecks:
    @pytest.mark.parametrize("field", ["history", "future"])
    @pytest.mark.parametrize("bad,message", [
        ([[0.0, np.nan]], "contains non-finite coordinates"),
        ([[np.inf, 0.0]], "contains non-finite coordinates"),
        ([0.0, 1.0], r"must be an \(n, 2\) array of positions"),
        ([[0.0, 1.0, 2.0]], r"must be an \(n, 2\) array of positions"),
        (np.zeros((2, 2, 2)), r"must be an \(n, 2\) array of positions"),
    ])
    def test_public_segment_rejects_non_finite_and_misshaped(self, field, bad, message):
        arrays = {"history": [[0.0, 0.0]], "future": [[1.0, 1.0]], field: bad}
        with pytest.raises(ValueError, match=f"^{field} {message}$"):
            Segment("s", 1, 0.2, **arrays)

    @pytest.mark.parametrize("agent", [True, np.True_, 2.5, 3.0, "7", None])
    def test_agent_id_must_be_a_whole_number(self, agent):
        with pytest.raises(ValueError, match=f"^agent_id must be an integer, got {agent!r}$"):
            Segment("s", agent, 0.2, [[0.0, 0.0]], [[1.0, 1.0]])

    @pytest.mark.parametrize("segment_id", [7, None, b"s", 1.5])
    def test_segment_id_must_be_a_str(self, segment_id):
        with pytest.raises(ValueError, match=f"^segment_id must be a str, got {segment_id!r}$"):
            Segment(segment_id, 1, 0.2, [[0.0, 0.0]], [[1.0, 1.0]])

    @pytest.mark.parametrize("dt", [float("nan"), float("inf"), 0.0, -1.0, True, np.float64(0.0)],
                             ids=["nan", "inf", "zero", "negative", "true", "numpy-zero"])
    def test_track_dt_must_be_finite_and_positive(self, dt):
        with pytest.raises(ValueError, match="^dt must be finite and positive$"):
            Track(1, dt, [[0.0, 0.0]])

    def test_track_dt_is_a_plain_number(self):
        assert type(Track(1, np.float64(0.1), [[0.0, 0.0]]).dt) is float

    def test_downsample_whose_dt_overflows_rejected(self):
        track = Track(1, 1e308, np.zeros((4, 2)))
        with pytest.raises(ValueError, match="^dt must be finite and positive$"):
            downsample(track, 2)

    @pytest.mark.parametrize("vehicle", [False, 2.5, "7"])
    def test_track_vehicle_id_must_be_a_whole_number(self, vehicle):
        with pytest.raises(ValueError, match=f"^vehicle_id must be an integer, got {vehicle!r}$"):
            Track(vehicle, 0.1, [[0.0, 0.0]])

    def test_numpy_integer_ids_become_int_and_read_back(self, tmp_path):
        track = Track(np.int32(4), 0.1, np.zeros((2, 2)))
        seg = Segment("s", np.int64(2**40), 0.2, [[0.0, 0.0]], [[1.0, 1.0]])
        assert type(track.vehicle_id) is type(seg.agent_id) is int
        path = tmp_path / "d.jsonl"
        write_jsonl(Dataset([seg], tau=0, horizon=1), str(path))
        assert read_jsonl(str(path)).segments[0].agent_id == 2**40

    def test_public_dataset_rejects_lengths_off_its_protocol(self):
        seg = Segment("s", 1, 0.2, np.zeros((3, 2)), np.zeros((4, 2)))
        with pytest.raises(ValueError, match=r"^segment s: history length 3 != 16$"):
            Dataset([seg])
        with pytest.raises(ValueError, match=r"^segment s: future length 4 != 5$"):
            Dataset([seg], tau=2, horizon=5)
        with pytest.raises(ValueError, match=r"^segment s: dt 0.2 != 0.3$"):
            Dataset([seg], dt=0.3, tau=2, horizon=4)

    def test_public_dataset_rejects_a_repeated_segment_id(self, tmp_path):
        # accepted, and write_jsonl then wrote a file that read_jsonl rejects
        a, b, c = (Segment(sid, 1, 0.2, np.zeros((1, 2)), np.ones((1, 2)))
                   for sid in ("a", "b", "a"))
        with pytest.raises(ValueError, match=r"^segments 0 and 2 share the segment id 'a'$"):
            Dataset([a, b, c], tau=0, horizon=1)
        path = tmp_path / "d.jsonl"
        write_jsonl(Dataset([a, b], tau=0, horizon=1), str(path))
        assert [s.segment_id for s in read_jsonl(str(path)).segments] == ["a", "b"]

    def test_public_dataset_names_a_wrong_length_before_a_repeated_id(self):
        # records' own checks come first; the builder checks the ids of the stacks
        a = Segment("a", 1, 0.2, np.zeros((1, 2)), np.ones((1, 2)))
        b = Segment("a", 1, 0.2, np.zeros((2, 2)), np.ones((1, 2)))
        with pytest.raises(ValueError, match=r"^segment a: history length 2 != 1$"):
            Dataset([a, b], tau=0, horizon=1)

    def test_public_dataset_keeps_its_records(self):
        segs = [Segment(sid, 1, 0.2, np.zeros((1, 2)), np.ones((1, 2))) for sid in "ab"]
        ds = Dataset(segs, tau=0, horizon=1)
        assert all(got is seg for got, seg in zip(ds.segments, segs))
        assert not ds.histories().flags.writeable and not ds.futures().flags.writeable


class TestFromStacks:
    """data._from_stacks is the one check of a dataset built from stacks."""

    @staticmethod
    def build(dt=0.2, ids=("a", "b", "c"), bad=()):
        histories, futures = np.zeros((len(ids), 2, 2)), np.ones((len(ids), 3, 2))
        for stack, i in bad:
            (histories, futures)[stack][i, -1, 0] = np.inf
        return data._from_stacks(list(ids), range(len(ids)), dt, histories, futures, "s")

    @pytest.mark.parametrize("dt", [0.0, -0.2, np.nan, np.inf])
    def test_dt_checked_as_segment_would_then_the_protocol(self, dt):
        with pytest.raises(ValueError, match="^dt must be finite and positive$"):
            self.build(dt, bad=[(0, 0)])
        with pytest.raises(ValueError, match=f"^{protocol_error(dt, 1, 3)}$"):
            self.build(dt, ids=())

    def test_first_non_finite_segment_named_history_before_future(self):
        with pytest.raises(ValueError, match="^future contains non-finite coordinates$"):
            self.build(ids="abc", bad=[(1, 1), (0, 2)])
        with pytest.raises(ValueError, match="^history contains non-finite coordinates$"):
            self.build(ids="aba", bad=[(1, 1), (0, 1)])

    def test_first_repeated_id_named_with_its_first_occurrence(self):
        with pytest.raises(ValueError, match="^segments 1 and 3 share the segment id 'b'$"):
            self.build(ids=("a", "b", "c", "b", "a"))

    def test_segments_view_the_read_only_stacks(self):
        ds = self.build()
        assert [(s.segment_id, s.agent_id, s.dt) for s in ds.segments] == [
            ("a", 0, 0.2), ("b", 1, 0.2), ("c", 2, 0.2)]
        assert (ds.tau, ds.horizon, ds.source) == (1, 3, "s")
        assert all(np.shares_memory(s.history, ds.histories()) for s in ds.segments)
        assert not ds.segments[0].future.flags.writeable


class TestDownsample:
    def test_41_samples_become_21(self):
        track = Track(1, 0.1, np.zeros((41, 2)))
        out = downsample(track, 2)
        assert len(out.points) == 21
        assert out.dt == pytest.approx(0.2)

    def test_factor_one_is_identity(self):
        track = Track(1, 0.1, np.arange(10.0).reshape(5, 2))
        out = downsample(track, 1)
        np.testing.assert_array_equal(out.points, track.points)

    def test_even_indices_kept(self):
        pts = np.column_stack([np.arange(7.0), np.zeros(7)])
        out = downsample(Track(1, 0.1, pts), 2)
        np.testing.assert_array_equal(out.points[:, 0], [0.0, 2.0, 4.0, 6.0])


class TestExtractSegments:
    def make_track(self, n, vid=1):
        return Track(vid, 0.2, np.column_stack([np.arange(float(n)), np.zeros(n)]))

    def test_exact_window_yields_one(self):
        ds = extract_segments([self.make_track(41)], stride=1)
        assert len(ds) == 1
        assert len(ds.segments[0].history) == 16
        assert len(ds.segments[0].future) == 25

    def test_45_samples_stride_one_yields_five(self):
        assert len(extract_segments([self.make_track(45)], stride=1)) == 5

    def test_short_track_yields_none(self):
        assert len(extract_segments([self.make_track(40)], stride=1)) == 0

    def test_stride(self):
        # 61 samples, window 41: starts 0 and 10 fit with stride 10
        assert len(extract_segments([self.make_track(61)], stride=10)) == 3

    def test_tracks_with_mixed_dt_rejected(self):
        tracks = [self.make_track(45), Track(2, 0.1, np.zeros((45, 2)))]
        with pytest.raises(ValueError, match="^tracks must share a uniform dt$"):
            extract_segments(tracks)

    # (-3, 5): windows cut at tau + 1 = -2 would read back as tau 0 and horizon 2
    @pytest.mark.parametrize("tau,horizon", [(-1, 25), (15, 0), (-3, 5), (-5, 1), (3, -2)])
    def test_window_without_history_or_future_rejected(self, tau, horizon):
        for tracks in ([self.make_track(45)], []):
            with pytest.raises(ValueError, match=f"^{protocol_error(0.2, tau, horizon)}$"):
                extract_segments(tracks, tau, horizon, stride=1)


class TestProtocolDomain:
    @pytest.mark.parametrize("dt", [np.nan, np.inf, -np.inf, 0.0, -0.2])
    def test_segment_dt_not_finite_and_positive_rejected(self, dt):
        with pytest.raises(ValueError, match="^dt must be finite and positive$"):
            Segment("s", 0, dt, np.zeros((2, 2)), np.zeros((1, 2)))

    @pytest.mark.parametrize("dt,tau,horizon", [
        (np.nan, 1, 1), (np.inf, 1, 1), (-np.inf, 1, 1), (0.0, 1, 1), (-0.2, 1, 1),
        (0.2, -1, 1), (0.2, 0, 0),
    ])
    def test_dataset_protocol_out_of_domain_rejected(self, dt, tau, horizon):
        with pytest.raises(ValueError, match=f"^{protocol_error(dt, tau, horizon)}$"):
            Dataset([], dt, tau, horizon)
        assert len(Dataset([], 0.2, 0, 1)) == 0


TRACK = Track(1, 0.2, np.zeros((45, 2)))


@pytest.mark.parametrize("call,message", [
    (lambda: Dataset([], 0.2, 15.0, 25), "tau must be an integer, got 15.0"),
    (lambda: Dataset([], 0.2, 15, 25.0), "horizon must be an integer, got 25.0"),
    (lambda: gen_synthetic("cv", 2.0, 0.0, seed=0), "n must be an integer, got 2.0"),
    (lambda: gen_synthetic("cv", 2, 0.0, seed=0, tau=3.0), "tau must be an integer, got 3.0"),
    (lambda: gen_synthetic("cv", 2, 0.0, seed=0, horizon=5.0),
     "horizon must be an integer, got 5.0"),
    (lambda: extract_segments([TRACK], tau=3.0), "tau must be an integer, got 3.0"),
    (lambda: extract_segments([TRACK], horizon=4.0), "horizon must be an integer, got 4.0"),
    (lambda: extract_segments([TRACK], stride=1.5), "stride must be an integer, got 1.5"),
    (lambda: downsample(TRACK, 2.0), "factor must be an integer, got 2.0"),
], ids=["dataset-tau", "dataset-horizon", "gen-n", "gen-tau", "gen-horizon", "extract-tau",
        "extract-horizon", "extract-stride", "downsample-factor"])
def test_non_integer_size_rejected_by_name(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
    assert type(Dataset([], 0.2, np.int64(3), np.int64(4)).tau) is int


@pytest.mark.parametrize("call,message", [
    (lambda: gen_synthetic("cv", 0, 0.0, seed=0), "n must be >= 1"),
    (lambda: extract_segments([TRACK], stride=0), "stride must be >= 1"),
    (lambda: downsample(TRACK, 0), "factor must be >= 1"),
], ids=["gen-n", "extract-stride", "downsample-factor"])
def test_size_below_one_rejected_by_name(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


class TestDatasetStacks:
    def test_stacks_are_read_only_and_built_once(self):
        ds = gen_synthetic("turn", 7, 0.2, seed=4)
        for stack, field in ((ds.histories, "history"), (ds.futures, "future")):
            first = stack()
            assert stack() is first
            assert not first.flags.writeable
            with pytest.raises(ValueError):
                first[0, 0, 0] = 1.0
            expected = np.array([getattr(seg, field) for seg in ds.segments])
            assert first.shape == expected.shape
            assert first.tobytes() == expected.tobytes()

    def test_segments_are_a_tuple_that_cannot_be_reassigned(self):
        ds = gen_synthetic("cv", 3, 0.0, seed=2)
        assert isinstance(ds.segments, tuple)
        with pytest.raises(dataclasses.FrozenInstanceError):
            ds.segments = ()

    def test_equality_and_hash_are_identity(self):
        ds = gen_synthetic("cv", 3, 0.0, seed=2)
        twin = Dataset(list(ds.segments), ds.dt, ds.tau, ds.horizon)
        assert ds == ds and ds != twin
        assert hash(ds) == hash(ds) and isinstance(hash(twin), int)


class TestIdentity:
    def test_segment_equality_and_hash_are_identity(self):
        a = Segment("a", 1, 0.2, np.zeros((3, 2)), np.ones((2, 2)))
        b = Segment("a", 1, 0.2, np.zeros((3, 2)), np.ones((2, 2)))
        assert a == a and a != b
        assert hash(a) == hash(a) and isinstance(hash(b), int)

    def test_track_equality_and_hash_are_identity(self):
        a = Track(7, 0.1, np.zeros((4, 2)))
        b = Track(7, 0.1, np.zeros((4, 2)))
        assert a == a and a != b
        assert hash(a) == hash(a) and isinstance(hash(b), int)


class TestSplitDataset:
    def make_dataset(self, n_vehicles=10, segs_per_vehicle=3):
        segments = []
        for v in range(n_vehicles):
            for s in range(segs_per_vehicle):
                pts = np.zeros((41, 2)) + v * 100.0 + s
                segments.append(
                    Segment(f"v{v}s{s}", v, 0.2, pts[:16], pts[16:])
                )
        return Dataset(segments, 0.2, 15, 25)

    def test_ten_vehicles_split_7_1_2(self):
        ds = self.make_dataset()
        train, val, test = split_dataset(ds, seed=123)
        assert len({s.agent_id for s in train.segments}) == 7
        assert len({s.agent_id for s in val.segments}) == 1
        assert len({s.agent_id for s in test.segments}) == 2

    def test_deterministic(self):
        ds = self.make_dataset()
        a = split_dataset(ds, seed=9)
        b = split_dataset(ds, seed=9)
        for x, y in zip(a, b):
            assert [s.segment_id for s in x.segments] == [s.segment_id for s in y.segments]

    def test_partition_property(self):
        ds = self.make_dataset()
        train, val, test = split_dataset(ds, seed=4)
        groups = [
            {s.agent_id for s in part.segments} for part in (train, val, test)
        ]
        assert groups[0] | groups[1] | groups[2] == set(range(10))
        assert not (groups[0] & groups[1] or groups[0] & groups[2] or groups[1] & groups[2])
        assert len(train) + len(val) + len(test) == len(ds)

    def test_bad_ratios(self):
        with pytest.raises(ValueError, match="sum"):
            split_dataset(self.make_dataset(), ratios=(0.7, 0.2, 0.2))

    @pytest.mark.parametrize("ratios", [(1.5, -0.5, 0.0), (np.nan, 0.5, 0.5), (np.inf, 0.0, 0.0)])
    def test_ratio_not_finite_and_non_negative_rejected(self, ratios):
        with pytest.raises(ValueError, match=r"^split ratios must be finite and >= 0, got \("):
            split_dataset(self.make_dataset(), ratios=ratios)

    @pytest.mark.parametrize("ratios", [(0.5, 0.5), (0.4, 0.3, 0.2, 0.1), (1.0,), ()])
    def test_ratio_count_other_than_three_rejected(self, ratios):
        # two ratios gave an empty test split, a fourth was folded into test, one raised
        # a bare IndexError
        with pytest.raises(ValueError) as exc:
            split_dataset(self.make_dataset(), ratios=ratios)
        assert str(exc.value) == f"split ratios must be three (train, val, test), got {ratios}"


    @pytest.mark.parametrize("seed,message", [
        (2.7, "seed must be an integer, got 2.7"),
        ("9", "seed must be an integer, got '9'"),
        (-3, "seed must be >= 0, got -3"),
    ], ids=["fraction", "string", "negative"])
    def test_seed_not_whole_and_non_negative_rejected(self, seed, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            split_dataset(self.make_dataset(), seed=seed)

    def test_numpy_integer_seed_gives_the_int_seed_split(self):
        ds = self.make_dataset()
        for x, y in zip(split_dataset(ds, seed=np.int64(9)), split_dataset(ds, seed=9)):
            assert [s.segment_id for s in x.segments] == [s.segment_id for s in y.segments]


class TestGenSynthetic:
    @pytest.mark.parametrize("noise", [0.0, 0.2])
    @pytest.mark.parametrize("scenario", ["cv", "ca"])
    def test_dt_whose_positions_overflow_named_by_the_builder(self, scenario, noise):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^(history|future) contains non-finite "
                                                 "coordinates$"):
                gen_synthetic(scenario, 3, noise, 0, dt=1e306)

    def test_cv_is_collinear(self):
        ds = gen_synthetic("cv", 10, 0.0, seed=1)
        for seg in ds.segments:
            pts = np.vstack([seg.history, seg.future])
            d = pts[1] - pts[0]
            n = np.array([-d[1], d[0]]) / np.hypot(*d)
            assert np.abs((pts - pts[0]) @ n).max() < 1e-9

    def test_seed_reproducible(self):
        a = gen_synthetic("turn", 20, 0.3, seed=5)
        b = gen_synthetic("turn", 20, 0.3, seed=5)
        for x, y in zip(a.segments, b.segments):
            np.testing.assert_array_equal(x.history, y.history)
            np.testing.assert_array_equal(x.future, y.future)

    @pytest.mark.parametrize("seed,message", [
        (1.5, "seed must be an integer, got 1.5"),
        (None, "seed must be an integer, got None"),
        (-1, "seed must be >= 0, got -1"),
    ], ids=["fraction", "none", "negative"])
    def test_seed_not_whole_and_non_negative_rejected(self, seed, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            gen_synthetic("cv", 1, 0.0, seed=seed)

    def test_numpy_integer_seed_gives_the_int_seed_corpus(self):
        a = gen_synthetic("lane_change", 50, 0.2, seed=np.int64(101))
        b = gen_synthetic("lane_change", 50, 0.2, seed=101)
        assert a.histories().tobytes() == b.histories().tobytes()
        assert a.futures().tobytes() == b.futures().tobytes()

    def test_lane_change_net_lateral_offset(self):
        # paired seeds: cv draws the same speed/heading/origin as lane_change
        # for segment 0, so their difference isolates the lateral offset
        for seed in range(10):
            lc = gen_synthetic("lane_change", 1, 0.0, seed=seed).segments[0]
            cv = gen_synthetic("cv", 1, 0.0, seed=seed).segments[0]
            lat = (lc.future[-1] - cv.future[-1]) - (lc.history[0] - cv.history[0])
            assert np.hypot(*lat) == pytest.approx(3.7, abs=1e-6)

    def test_unknown_scenario(self):
        with pytest.raises(ValueError, match="cv, ca, lane_change, turn"):
            gen_synthetic("bogus", 1, 0.0, seed=0)

    @pytest.mark.parametrize("noise", [np.nan, np.inf, -np.inf, -0.1])
    def test_noise_not_finite_and_non_negative_rejected(self, noise):
        with pytest.raises(ValueError, match="^noise_sigma must be finite and >= 0"):
            gen_synthetic("cv", 1, noise, seed=0)

    @pytest.mark.parametrize("dt,tau,horizon", [
        (0.2, -1, 25), (0.2, 15, 0), (np.nan, 15, 25), (np.inf, 15, 25), (0.0, 15, 25),
    ])
    def test_protocol_out_of_domain_rejected(self, dt, tau, horizon):
        for scenario in ("cv", "lane_change"):
            with pytest.raises(ValueError, match=f"^{protocol_error(dt, tau, horizon)}$"):
                gen_synthetic(scenario, 1, 0.0, seed=0, tau=tau, horizon=horizon, dt=dt)

    def test_lane_change_window_shorter_than_the_manoeuvre_rejected(self):
        with pytest.raises(ValueError) as exc:
            gen_synthetic("lane_change", 1, 0.0, seed=0, tau=5, horizon=4)
        assert str(exc.value) == ("lane_change needs a window of at least 3.0 s for its "
                                  "manoeuvre, got (tau + horizon) * dt = 1.8 s")
        assert len(gen_synthetic("lane_change", 2, 0.0, seed=0, tau=0, horizon=15)) == 2
        assert len(gen_synthetic("cv", 2, 0.0, seed=0, tau=5, horizon=4)) == 2

    def test_protocol_shape(self):
        ds = gen_synthetic("ca", 3, 0.1, seed=2)
        assert ds.dt == 0.2 and ds.tau == 15 and ds.horizon == 25
        for seg in ds.segments:
            assert seg.history.shape == (16, 2)
            assert seg.future.shape == (25, 2)

    @pytest.mark.parametrize("n", (1, 257))
    @pytest.mark.parametrize("protocol", (
        {}, {"tau": 3, "horizon": 20}, {"dt": 0.3}, {"tau": 0, "horizon": 16},
    ), ids=("default", "tau3-horizon20", "dt0.3", "tau0-horizon16"))
    @pytest.mark.parametrize("noise", (0.0, 0.2))
    @pytest.mark.parametrize("scenario", ("cv", "ca", "lane_change", "turn"))
    def test_byte_identical_to_the_per_segment_reference(self, scenario, noise, protocol, n):
        seed = 11 + n
        ds = gen_synthetic(scenario, n, noise, seed=seed, **protocol)
        ids, agents, histories, futures = reference_data.gen_synthetic(
            scenario, n, noise, seed, **protocol)
        assert [seg.segment_id for seg in ds.segments] == ids
        assert [seg.agent_id for seg in ds.segments] == agents
        want = {"dt": 0.2, "tau": 15, "horizon": 25, **protocol}
        assert (ds.dt, ds.tau, ds.horizon) == (want["dt"], want["tau"], want["horizon"])
        assert ds.source == f"synthetic/{scenario}"
        for seg, history, future in zip(ds.segments, histories, futures):
            assert seg.dt == want["dt"]
            assert seg.history.dtype == seg.future.dtype == np.float64
            assert seg.history.shape == history.shape and seg.future.shape == future.shape
            assert seg.history.tobytes() == history.tobytes()
            assert seg.future.tobytes() == future.tobytes()


class TestJsonl:
    def test_round_trip(self, tmp_path):
        ds = gen_synthetic("lane_change", 100, 0.2, seed=77)
        path = tmp_path / "ds.jsonl"
        write_jsonl(ds, str(path))
        back = read_jsonl(str(path))
        assert len(back) == len(ds)
        # a second write of the parsed dataset is byte-identical
        path2 = tmp_path / "ds2.jsonl"
        write_jsonl(back, str(path2))
        assert path.read_bytes() == path2.read_bytes()
        for a, b in zip(ds.segments, back.segments):
            assert a.segment_id == b.segment_id
            np.testing.assert_allclose(a.history, b.history, atol=5e-7)

    def test_neighbors_key_is_ignored(self, tmp_path):
        # files written before neighbors were dropped still load
        ds = gen_synthetic("cv", 2, 0.0, seed=1)
        path = tmp_path / "n.jsonl"
        write_jsonl(ds, str(path))
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert all("neighbors" not in obj for obj in lines)
        lines[0]["neighbors"] = [{"agent_id": 7, "history": [[1.0, 1.0]] * 16}]
        path.write_text("".join(json.dumps(obj) + "\n" for obj in lines))
        back = read_jsonl(str(path))
        assert [seg.segment_id for seg in back.segments] == [
            seg.segment_id for seg in ds.segments
        ]
        np.testing.assert_allclose(
            back.segments[0].history, ds.segments[0].history, atol=5e-7
        )

    def test_missing_field_names_field_and_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        ds = gen_synthetic("cv", 2, 0.0, seed=1)
        write_jsonl(ds, str(path))
        lines = path.read_text().splitlines()
        import json

        obj = json.loads(lines[1])
        del obj["future"]
        path.write_text(lines[0] + "\n" + json.dumps(obj) + "\n")
        with pytest.raises(ValueError, match="line 2.*'future'"):
            read_jsonl(str(path))

    def test_blank_lines_skipped_and_invalid_json_named_with_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_jsonl(gen_synthetic("cv", 2, 0.0, seed=1), str(path))
        first, second = path.read_text().splitlines()
        path.write_text(f"\n{first}\n  \t\n\n{second}\n\n")
        assert [seg.segment_id for seg in read_jsonl(str(path)).segments] == [
            "cv-00000", "cv-00001"]
        path.write_text(f"{first}\n\n{second[:-1]}\n")
        with pytest.raises(ValueError) as exc:
            read_jsonl(str(path))
        assert re.fullmatch(rf"{re.escape(str(path))}: line 3: invalid JSON \(.+\)",
                            str(exc.value))

    def test_deeply_nested_line_named_with_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_jsonl(gen_synthetic("cv", 2, 0.0, seed=1), str(path))
        path.write_text(path.read_text() + "[" * 100000 + "\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: line 3: "
                                             "JSON nested too deeply$"):
            read_jsonl(str(path))

    @pytest.mark.parametrize("dt,seg_dt", [(1e-7, 1e-7), (5e-7, 5e-7),
                                           (np.nextafter(5e-7, 1.0).item(), 5e-7)],
                             ids=["1e-7", "5e-7", "segment-5e-7"])
    def test_dt_written_as_zero_rejected_before_the_file_opens(self, tmp_path, dt, seg_dt):
        p = np.zeros((2, 2))
        path = tmp_path / "d.jsonl"
        with pytest.raises(ValueError, match=rf"^dt={seg_dt!r} rounds to 0 at the 6 decimals"):
            write_jsonl(Dataset([Segment("a", 1, seg_dt, p, p)], dt, 1, 2), str(path))
        assert not path.exists()

    def test_smallest_dt_written_reads_back(self, tmp_path):
        p = np.arange(4.0).reshape(2, 2)
        path = tmp_path / "d.jsonl"
        # the smallest dt whose text is not 0 (the next smaller float, 5e-07, is written
        # 0.0) is written 1e-06, which reads back as another protocol dt
        dt = np.nextafter(5e-7, 1.0).item()
        with pytest.raises(ValueError, match=r"^dt=5\.000000000000001e-07 reads back as 1e-06 "
                                             "at the 6 decimals a dataset file carries$"):
            write_jsonl(Dataset([Segment("a", 1, dt, p, p)], dt, 1, 2), str(path))
        assert not path.exists()
        dt = 9.995e-07  # within the protocol's 1e-9 of the 1e-06 it is written as
        write_jsonl(Dataset([Segment("a", 1, dt, p, p)], dt, 1, 2), str(path))
        assert '"dt":1e-06,' in path.read_text()
        back = read_jsonl(str(path))
        assert back.dt == 1e-06
        np.testing.assert_array_equal(back.histories(), [p])
        again = tmp_path / "again.jsonl"
        write_jsonl(back, str(again))
        assert again.read_bytes() == path.read_bytes()

    def test_non_object_line_rejected_with_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        write_jsonl(gen_synthetic("cv", 1, 0.0, seed=1), str(path))
        path.write_text(path.read_text() + "3\n")
        with pytest.raises(ValueError, match="line 2: expected a JSON object"):
            read_jsonl(str(path))

    def test_empty_file_is_empty_dataset(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        ds = read_jsonl(str(path))
        assert len(ds) == 0
        assert ds.histories().shape == (0, 16, 2) and ds.futures().shape == (0, 25, 2)
        out = tmp_path / "out.jsonl"
        write_jsonl(ds, str(out))
        assert out.read_bytes() == b""

    def test_protocol_mismatch_carries_line(self, tmp_path):
        a = gen_synthetic("cv", 1, 0.0, seed=1)
        b = gen_synthetic("cv", 1, 0.0, seed=2, tau=10)
        pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_jsonl(a, str(pa))
        write_jsonl(b, str(pb))
        merged = tmp_path / "m.jsonl"
        merged.write_text(pa.read_text() + pb.read_text())
        with pytest.raises(ValueError, match="line 2"):
            read_jsonl(str(merged))

    def test_repeated_segment_id_rejected_with_lines(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_jsonl(gen_synthetic("cv", 3, 0.0, seed=1), str(path))
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines + [lines[1]]) + "\n")
        with pytest.raises(ValueError) as exc:
            read_jsonl(str(path))
        assert str(exc.value) == (
            f"{path}: line 4: repeated segment id 'cv-00001' (first on line 2)"
        )

    @pytest.mark.parametrize("field,value,message", [
        ("agent_id", 1.5, "agent_id must be a JSON integer, got 1.5"),
        ("agent_id", "7", 'agent_id must be a JSON integer, got "7"'),
        ("agent_id", True, "agent_id must be a JSON integer, got true"),
        ("dt", "0.2", 'dt must be a JSON number, got "0.2"'),
        ("dt", True, "dt must be a JSON number, got true"),
        ("history", "23.6", "history must hold only JSON numbers"),
        ("future", 23.6, "future must be an array of [x, y] pairs"),
        # str() would load null as "None" and 5 as "5", colliding with a real "5"
        ("segment_id", None, "segment_id must be a JSON string, got null"),
        ("segment_id", 5, "segment_id must be a JSON string, got 5"),
        ("segment_id", 5.0, "segment_id must be a JSON string, got 5.0"),
        ("segment_id", ["a"], 'segment_id must be a JSON string, got ["a"]'),
        ("dt", float("nan"), "dt must be finite and positive"),
        ("dt", float("inf"), "dt must be finite and positive"),
        ("dt", float("-inf"), "dt must be finite and positive"),
    ])
    def test_non_json_number_field_rejected_with_line(self, tmp_path, field, value, message):
        path = tmp_path / "d.jsonl"
        write_jsonl(gen_synthetic("cv", 2, 0.0, seed=1), str(path))
        lines = path.read_text().splitlines()
        obj = json.loads(lines[1])
        obj[field] = value
        path.write_text(lines[0] + "\n" + json.dumps(obj) + "\n")
        with pytest.raises(ValueError) as exc:
            read_jsonl(str(path))
        assert str(exc.value) == f"{path}: line 2: {message}"

    @pytest.mark.parametrize("field", ["history", "future"])
    @pytest.mark.parametrize("value", ["23.6", True, None, [1.0]])
    def test_non_number_coordinate_rejected_with_line(self, tmp_path, field, value):
        path = tmp_path / "d.jsonl"
        write_jsonl(gen_synthetic("cv", 2, 0.0, seed=1), str(path))
        lines = path.read_text().splitlines()
        obj = json.loads(lines[1])
        obj[field][3][1] = value
        path.write_text(lines[0] + "\n" + json.dumps(obj) + "\n")
        with pytest.raises(ValueError) as exc:
            read_jsonl(str(path))
        assert str(exc.value) == f"{path}: line 2: {field} must hold only JSON numbers"

    def test_coordinate_beyond_float_range_rejected_with_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_jsonl(gen_synthetic("cv", 1, 0.0, seed=1), str(path))
        obj = json.loads(path.read_text())
        obj["history"][0][0] = 10**400
        path.write_text(json.dumps(obj) + "\n")
        with pytest.raises(ValueError, match=r"d\.jsonl: line 1: int too large"):
            read_jsonl(str(path))
