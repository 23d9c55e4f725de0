import json

import numpy as np
import pytest

from trajrefine.cli import load_model, main, save_model
from trajrefine.data import gen_synthetic, read_jsonl, round_points, write_jsonl
from trajrefine.gaussian import Cov2, params_from_cov
from trajrefine.goals import fit_goal_model
from trajrefine.predictors import RefineConfig, fit_predictor, rollout_batch, rollout_refined


def run(*argv):
    return main(list(argv))


def gen(tmp_path, name, scenario="lane-change", n=60, noise=0.2, seed=11, extra=()):
    out = tmp_path / name
    code = run(
        "gen-synth", "--scenario", scenario, "--n", str(n), "--noise", str(noise),
        "--seed", str(seed), "--out", str(out), *extra,
    )
    assert code == 0
    return out


def fit(tmp_path, train, name="model.json", extra=()):
    model = tmp_path / name
    code = run("fit", "--train", str(train), "--out", str(model), *extra)
    assert code == 0
    return model


class TestGenSynth:
    def test_writes_n_lines(self, tmp_path):
        out = gen(tmp_path, "a.jsonl", n=25)
        assert len(out.read_text().splitlines()) == 25

    def test_deterministic_bytes(self, tmp_path):
        a = gen(tmp_path, "a.jsonl", seed=3)
        b = gen(tmp_path, "b.jsonl", seed=3)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_scenario_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc_info:
            run("gen-synth", "--scenario", "bogus", "--n", "1",
                "--out", str(tmp_path / "x.jsonl"))
        assert exc_info.value.code == 2
        assert "lane-change" in capsys.readouterr().err

    def test_missing_required_flag_exits_2(self, tmp_path):
        assert run("gen-synth", "--scenario", "cv",
                   "--out", str(tmp_path / "x.jsonl")) == 2


class TestIngestNgsim:
    def write_csv(self, path, n_frames=130, vehicles=(1, 2)):
        with open(path, "w") as fh:
            fh.write("Vehicle_ID,Frame_ID,Global_Time,Local_X,Local_Y,v_Vel\n")
            for vid in vehicles:
                for f in range(n_frames):
                    x_ft = (10.0 * vid + 1.5 * f) / 0.3048
                    fh.write(f"{vid},{f},0,{x_ft:.4f},{12.0 / 0.3048:.4f},30\n")

    def test_protocol_conformance(self, tmp_path):
        csv_path = tmp_path / "raw.csv"
        self.write_csv(csv_path)
        out = tmp_path / "ds.jsonl"
        assert run("ingest-ngsim", "--csv", str(csv_path), "--out", str(out)) == 0
        ds = read_jsonl(str(out))
        assert len(ds) >= 1
        assert ds.dt == pytest.approx(0.2)
        for seg in ds.segments:
            assert seg.history.shape == (16, 2)
            assert seg.future.shape == (25, 2)

    def test_stride_honored(self, tmp_path):
        csv_path = tmp_path / "raw.csv"
        self.write_csv(csv_path, n_frames=130, vehicles=(1,))
        counts = {}
        for stride in (1, 10):
            out = tmp_path / f"s{stride}.jsonl"
            run("ingest-ngsim", "--csv", str(csv_path), "--out", str(out),
                "--stride", str(stride))
            counts[stride] = len(read_jsonl(str(out)))
        # 130 frames -> 65 samples; window 41 -> 25 starts at stride 1
        assert counts[1] == 25
        assert counts[10] == 3

    def test_missing_column_exits_2(self, tmp_path, capsys):
        csv_path = tmp_path / "raw.csv"
        with open(csv_path, "w") as fh:
            fh.write("Vehicle_ID,Frame_ID,Local_X\n")
        assert run("ingest-ngsim", "--csv", str(csv_path),
                   "--out", str(tmp_path / "o.jsonl")) == 2
        assert "Local_Y" in capsys.readouterr().err

    def test_missing_file_exits_1(self, tmp_path):
        assert run("ingest-ngsim", "--csv", str(tmp_path / "nope.csv"),
                   "--out", str(tmp_path / "o.jsonl")) == 1


class TestFit:
    def test_model_has_requested_anchors(self, tmp_path):
        train = gen(tmp_path, "train.jsonl")
        model = fit(tmp_path, train, extra=("--predictor", "ar", "--lag", "3",
                                            "--ridge", "1e-3",
                                            "--anchors", "5,10,15,20,25"))
        doc = json.loads(model.read_text())
        assert doc["goal_model"]["anchor_steps"] == [5, 10, 15, 20, 25]
        assert doc["version"] == 1
        assert doc["protocol"] == {"dt": 0.2, "tau": 15, "horizon": 25}

    def test_refit_identical_bytes(self, tmp_path):
        train = gen(tmp_path, "train.jsonl")
        a = fit(tmp_path, train, "m1.json")
        b = fit(tmp_path, train, "m2.json")
        assert a.read_bytes() == b.read_bytes()

    def test_empty_training_file_exits_2(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert run("fit", "--train", str(empty),
                   "--out", str(tmp_path / "m.json")) == 2

    def test_anchor_beyond_horizon_exits_2(self, tmp_path):
        train = gen(tmp_path, "train.jsonl")
        assert run("fit", "--train", str(train), "--out", str(tmp_path / "m.json"),
                   "--anchors", "5,40") == 2


class TestPredict:
    def test_line_count_and_sigma_invariants(self, tmp_path):
        train = gen(tmp_path, "train.jsonl")
        test = gen(tmp_path, "test.jsonl", seed=12, n=20)
        model = fit(tmp_path, train)
        out = tmp_path / "preds.jsonl"
        assert run("predict", "--model", str(model), "--data", str(test),
                   "--out", str(out)) == 0
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(lines) == 20
        for line in lines:
            assert line["mode"] == "refined"
            assert len(line["means"]) == 25
            for sx, sy, rho in line["sigmas"]:
                assert sx > 0 and sy > 0 and abs(rho) < 1

    def test_refine_off_matches_huge_goal_cov(self, tmp_path):
        train = gen(tmp_path, "train.jsonl")
        test = gen(tmp_path, "test.jsonl", seed=13, n=10)
        model = fit(tmp_path, train)
        off, on = tmp_path / "off.jsonl", tmp_path / "on.jsonl"
        run("predict", "--model", str(model), "--data", str(test), "--out", str(off),
            "--refine", "off")
        run("predict", "--model", str(model), "--data", str(test), "--out", str(on),
            "--refine", "on", "--goal-cov-scale", "1e12")
        for la, lb in zip(off.read_text().splitlines(), on.read_text().splitlines()):
            ma = np.array(json.loads(la)["means"])
            mb = np.array(json.loads(lb)["means"])
            # 6-decimal output rounding allows one final-digit step
            np.testing.assert_allclose(ma, mb, atol=1.01e-6, rtol=0)

    def test_protocol_mismatch_exits_2(self, tmp_path):
        train = gen(tmp_path, "train.jsonl")
        model = fit(tmp_path, train)
        other = tmp_path / "short.jsonl"
        write_jsonl(gen_synthetic("cv", 3, 0.0, seed=1, tau=10), str(other))
        assert run("predict", "--model", str(model), "--data", str(other),
                   "--out", str(tmp_path / "p.jsonl")) == 2

    def test_sigmas_valid_when_snapped_onto_goals(self, tmp_path):
        # fused sigmas near 1e-6 m must not be rounded to an invalid 0
        train = gen(tmp_path, "train.jsonl", n=200)
        test = gen(tmp_path, "test.jsonl", seed=12, n=20)
        model = fit(tmp_path, train)
        out = tmp_path / "preds.jsonl"
        assert run("predict", "--model", str(model), "--data", str(test),
                   "--out", str(out), "--goal-cov-scale", "1e-12") == 0
        lines = out.read_text().splitlines()
        sigmas = np.array([json.loads(line)["sigmas"] for line in lines])
        assert sigmas.shape == (20, 25, 3)
        assert np.all(sigmas[..., :2] > 0.0)
        assert np.all(np.abs(sigmas[..., 2]) < 1.0)

    def test_model_file_missing_key_exits_2(self, tmp_path, capsys):
        train = gen(tmp_path, "train.jsonl")
        model = fit(tmp_path, train)
        doc = json.loads(model.read_text())
        del doc["goal_model"]["rotate"]
        model.write_text(json.dumps(doc))
        assert run("predict", "--model", str(model), "--data", str(train),
                   "--out", str(tmp_path / "p.jsonl")) == 2
        err = capsys.readouterr().err
        assert str(model) in err and "'rotate'" in err

    def test_model_file_misshaped_goal_weights_exits_2(self, tmp_path, capsys):
        train = gen(tmp_path, "train.jsonl")
        model = fit(tmp_path, train)
        doc = json.loads(model.read_text())
        doc["goal_model"]["weights"][1] = doc["goal_model"]["weights"][1][:-1]
        model.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"{model}: invalid model file"):
            load_model(str(model))
        assert run("predict", "--model", str(model), "--data", str(train),
                   "--out", str(tmp_path / "p.jsonl")) == 2
        assert str(model) in capsys.readouterr().err

    @pytest.mark.parametrize("corrupt", [
        lambda doc: json.dumps({**doc, "protocol": {**doc["protocol"], "fps": 5}}),
        lambda doc: json.dumps({**doc, "protocol": [0.2, 15, 25]}),
        lambda doc: json.dumps({**doc, "protocol": {**doc["protocol"], "dt": "0.2"}}),
        lambda doc: json.dumps([doc]),
        lambda doc: json.dumps(doc)[:-1],
    ], ids=["protocol-extra-key", "protocol-not-object", "protocol-string-value",
            "top-level-array", "invalid-json"])
    def test_malformed_model_file_exits_2(self, tmp_path, capsys, corrupt):
        train = gen(tmp_path, "train.jsonl", n=30)
        model = fit(tmp_path, train)
        model.write_text(corrupt(json.loads(model.read_text())))
        with pytest.raises(ValueError, match=f"^{model}: "):
            load_model(str(model))
        assert run("predict", "--model", str(model), "--data", str(train),
                   "--out", str(tmp_path / "p.jsonl")) == 2
        assert str(model) in capsys.readouterr().err

    def test_model_file_round_trip_matches_in_memory(self, tmp_path):
        train_ds = gen_synthetic("lane_change", 60, 0.2, seed=11)
        params = fit_predictor("ar", train_ds, lag=3)
        goal_params = fit_goal_model(train_ds, (5, 10, 15, 20, 25), 1e-6)
        path = tmp_path / "m.json"
        save_model(str(path), params, goal_params,
                   {"dt": 0.2, "tau": 15, "horizon": 25})
        loaded_params, loaded_goals, protocol = load_model(str(path))
        seg = train_ds.segments[0]
        a = rollout_refined(params, goal_params, seg.history)
        b = rollout_refined(loaded_params, loaded_goals, seg.history)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.mean, y.mean)
            assert x.cov == y.cov


class TestEvalAndAblate:
    def test_perfect_prediction_fixture_scores_zero(self, tmp_path):
        data = gen(tmp_path, "d.jsonl", scenario="cv", noise=0.0, n=5)
        ds = read_jsonl(str(data))
        preds = tmp_path / "p.jsonl"
        with open(preds, "w") as fh:
            for seg in ds.segments:
                fh.write(json.dumps({
                    "segment_id": seg.segment_id,
                    "means": [[float(x), float(y)] for x, y in seg.future],
                    "mode": "vanilla",
                }) + "\n")
        out = tmp_path / "m.csv"
        assert run("eval", "--predictions", str(preds), "--data", str(data),
                   "--out", str(out)) == 0
        header, row = out.read_text().strip().splitlines()
        assert header == "backbone,refine,rmse_overall,rmse_1s,rmse_2s,rmse_3s,rmse_4s,rmse_5s"
        cells = row.split(",")
        assert cells[1] == "off"
        assert all(float(c) == 0.0 for c in cells[2:])

    def test_missing_prediction_file_exits_1(self, tmp_path):
        data = gen(tmp_path, "d.jsonl", n=3)
        assert run("eval", "--predictions", str(tmp_path / "nope.jsonl"),
                   "--data", str(data), "--out", str(tmp_path / "m.csv")) == 1

    def test_prediction_id_mismatch_exits_2(self, tmp_path):
        data = gen(tmp_path, "d.jsonl", n=3)
        preds = tmp_path / "p.jsonl"
        preds.write_text(json.dumps({
            "segment_id": "other", "means": [[0.0, 0.0]] * 25, "mode": "vanilla",
        }) + "\n")
        assert run("eval", "--predictions", str(preds), "--data", str(data),
                   "--out", str(tmp_path / "m.csv")) == 2

    def test_one_prediction_for_a_repeated_data_id_exits_2(self, tmp_path):
        data = gen(tmp_path, "d.jsonl", n=2)
        first, second = [json.loads(line) for line in data.read_text().splitlines()]
        second["segment_id"] = first["segment_id"]
        data.write_text(json.dumps(first) + "\n" + json.dumps(second) + "\n")
        preds = tmp_path / "p.jsonl"
        preds.write_text(json.dumps({
            "segment_id": first["segment_id"], "means": first["future"], "mode": "vanilla",
        }) + "\n")
        assert run("eval", "--predictions", str(preds), "--data", str(data),
                   "--out", str(tmp_path / "m.csv")) == 2

    def predict_lines(self, tmp_path):
        train = gen(tmp_path, "train.jsonl", n=60)
        data = gen(tmp_path, "d.jsonl", seed=12, n=5)
        preds = tmp_path / "p.jsonl"
        assert run("predict", "--model", str(fit(tmp_path, train)), "--data", str(data),
                   "--out", str(preds)) == 0
        return data, preds, preds.read_text().splitlines()

    def test_repeated_prediction_id_exits_2(self, tmp_path, capsys):
        data, preds, lines = self.predict_lines(tmp_path)
        corrupt = json.loads(lines[0])
        corrupt["means"] = [[1e4, 1e4]] * 25
        preds.write_text("\n".join(lines + [json.dumps(corrupt)]) + "\n")
        assert run("eval", "--predictions", str(preds), "--data", str(data),
                   "--out", str(tmp_path / "m.csv")) == 2
        assert f"{preds}: line 6: repeated segment id" in capsys.readouterr().err

    @pytest.mark.parametrize("corrupt", [
        lambda means: means[:-1],
        lambda means: means[:3] + [[float("nan"), 0.0]] + means[4:],
    ], ids=["short", "nan"])
    def test_bad_prediction_means_name_line(self, tmp_path, capsys, corrupt):
        data, preds, lines = self.predict_lines(tmp_path)
        bad = json.loads(lines[2])
        bad["means"] = corrupt(bad["means"])
        lines[2] = json.dumps(bad)
        preds.write_text("\n".join(lines) + "\n")
        assert run("eval", "--predictions", str(preds), "--data", str(data),
                   "--out", str(tmp_path / "m.csv")) == 2
        err = capsys.readouterr().err
        assert f"{preds}: line 3: means must be a finite (25, 2) array" in err

    def test_ablate_report(self, tmp_path):
        train = gen(tmp_path, "train.jsonl", n=150, seed=21)
        test = gen(tmp_path, "test.jsonl", n=60, seed=22)
        out = tmp_path / "report.csv"
        assert run("ablate", "--train", str(train), "--test", str(test),
                   "--out", str(out), "--predictors", "ar,cv") == 0
        lines = out.read_text().strip().splitlines()
        assert "delta_5s" in lines[0]
        assert len(lines) == 1 + 4  # header + 2 rows per backbone
        assert sum(1 for l in lines[1:] if l.startswith("ar,")) == 2


class TestConfigFile:
    def test_precedence_cli_over_config_over_default(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 5\nn = 7\nnoise = 0.1  # inline comment\n")
        out_cfg = tmp_path / "a.jsonl"
        # n and noise come from the config, seed is overridden on the CLI
        assert run("gen-synth", "--scenario", "cv", "--out", str(out_cfg),
                   "--config", str(cfg), "--seed", "9") == 0
        expected = tmp_path / "b.jsonl"
        assert run("gen-synth", "--scenario", "cv", "--out", str(expected),
                   "--n", "7", "--noise", "0.1", "--seed", "9") == 0
        assert out_cfg.read_bytes() == expected.read_bytes()
        # defaults still apply for keys in neither source (seed defaults to 0)
        out_default = tmp_path / "c.jsonl"
        cfg2 = tmp_path / "run2.cfg"
        cfg2.write_text("n = 7\nnoise = 0.1\n")
        assert run("gen-synth", "--scenario", "cv", "--out", str(out_default),
                   "--config", str(cfg2)) == 0
        baseline = tmp_path / "d.jsonl"
        assert run("gen-synth", "--scenario", "cv", "--out", str(baseline),
                   "--n", "7", "--noise", "0.1", "--seed", "0") == 0
        assert out_default.read_bytes() == baseline.read_bytes()

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 7\nwibble = 3\n")
        assert run("gen-synth", "--scenario", "cv", "--out", str(tmp_path / "x.jsonl"),
                   "--config", str(cfg)) == 2
        assert "wibble" in capsys.readouterr().err

    def test_invalid_choice_from_config_exits_2(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("refine = sideways\n")
        train = gen(tmp_path, "train.jsonl", n=30)
        model = fit(tmp_path, train)
        assert run("predict", "--model", str(model), "--data", str(train),
                   "--out", str(tmp_path / "p.jsonl"), "--config", str(cfg)) == 2


class TestDefaultsFollowLibrary:
    @pytest.mark.parametrize("backbone", ["cv", "ca", "ar"])
    def test_fit_without_model_flags_equals_library_defaults(self, tmp_path, backbone):
        train = gen(tmp_path, "train.jsonl")
        model = fit(tmp_path, train, extra=("--predictor", backbone))
        train_ds = read_jsonl(str(train))
        expected = tmp_path / "expected.json"
        save_model(str(expected), fit_predictor(backbone, train_ds),
                   fit_goal_model(train_ds), {"dt": 0.2, "tau": 15, "horizon": 25})
        assert model.read_bytes() == expected.read_bytes()

    def test_predict_without_refine_flags_equals_default_config(self, tmp_path):
        train = gen(tmp_path, "train.jsonl")
        test = gen(tmp_path, "test.jsonl", seed=12, n=10)
        model = fit(tmp_path, train)
        out = tmp_path / "preds.jsonl"
        assert run("predict", "--model", str(model), "--data", str(test),
                   "--out", str(out)) == 0
        params, goal_params, _ = load_model(str(model))
        means, covs = rollout_batch(params, read_jsonl(str(test)).histories(),
                                    goal_params=goal_params, cfg=RefineConfig())
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert [line["means"] for line in lines] == [round_points(m) for m in means]
        sigmas = [[list(params_from_cov(Cov2.from_matrix(c))) for c in seg] for seg in covs]
        assert [line["sigmas"] for line in lines] == sigmas
