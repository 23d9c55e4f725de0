import json

import numpy as np
import pytest

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


def write_csv(path, rows, header="Vehicle_ID,Frame_ID,Total_Frames,Local_X,Local_Y"):
    cols = header.split(",")
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(str(row.get(c, 0)) for c in cols) + "\n")


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


class TestGenSynthetic:
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

    def test_protocol_shape(self):
        ds = gen_synthetic("ca", 3, 0.1, seed=2)
        assert ds.dt == 0.2 and ds.tau == 15 and ds.horizon == 25
        for seg in ds.segments:
            assert seg.history.shape == (16, 2)
            assert seg.future.shape == (25, 2)


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
