import json
import warnings
from pathlib import Path

import numpy as np
import pytest

import reference_data
from trajrefine.cli import COMMANDS, MODEL_SCHEMA, load_model, main, save_model
from trajrefine.data import SCENARIOS, gen_synthetic, read_jsonl, round6, write_jsonl
from trajrefine.gaussian import Cov2, params_from_cov, params_from_covs
from trajrefine.goals import fit_goal_model
from trajrefine.predictors import (BACKBONES, WINDOWS, RefineConfig, fit_predictor,
                                   rollout_batch, rollout_refined)


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


def command_inputs(tmp_path, command, train):
    """The input options of ``predict`` or ``ablate``, all on one dataset."""
    if command == "predict":
        return ("--model", str(fit(tmp_path, train)), "--data", str(train))
    return ("--train", str(train), "--test", str(train))


class TestGenSynth:
    def test_writes_n_lines(self, tmp_path):
        out = gen(tmp_path, "a.jsonl", n=25)
        assert len(out.read_text().splitlines()) == 25

    def test_deterministic_bytes(self, tmp_path):
        a = gen(tmp_path, "a.jsonl", seed=3)
        b = gen(tmp_path, "b.jsonl", seed=3)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_scenario_exits_2(self, tmp_path, capsys):
        # a choice is checked once, by the CLI, in its own message form and exit code
        out = tmp_path / "x.jsonl"
        assert run("gen-synth", "--scenario", "bogus", "--n", "1", "--out", str(out)) == 2
        assert capsys.readouterr().err == (
            "error: --scenario: invalid value 'bogus' (choose from cv, ca, lane-change, turn)\n")
        assert not out.exists()

    def test_missing_required_flag_exits_2(self, tmp_path):
        assert run("gen-synth", "--scenario", "cv",
                   "--out", str(tmp_path / "x.jsonl")) == 2

    @pytest.mark.parametrize("scenario,flags,message", [
        ("cv", ("--noise", "nan"), "noise_sigma must be finite and >= 0, got nan"),
        ("turn", ("--noise=-inf",), "noise_sigma must be finite and >= 0, got -inf"),
        ("cv", ("--tau", "-1"), "protocol needs a finite dt > 0, tau >= 0 and horizon >= 1, "
                                "got dt=0.2, tau=-1, horizon=25"),
        ("ca", ("--horizon", "0"), "protocol needs a finite dt > 0, tau >= 0 and horizon >= 1, "
                                   "got dt=0.2, tau=15, horizon=0"),
        ("cv", ("--dt", "nan"), "protocol needs a finite dt > 0, tau >= 0 and horizon >= 1, "
                                "got dt=nan, tau=15, horizon=25"),
        ("lane-change", ("--tau", "5", "--horizon", "4"),
         "lane_change needs a window of at least 3.0 s for its manoeuvre, "
         "got (tau + horizon) * dt = 1.8 s"),
    ], ids=["noise-nan", "noise-minus-inf", "tau-negative", "horizon-zero", "dt-nan",
            "lane-change-short-window"])
    def test_arguments_that_make_no_corpus_exit_2_naming_them(
            self, tmp_path, capsys, scenario, flags, message):
        out = tmp_path / "x.jsonl"
        assert run("gen-synth", "--scenario", scenario, "--n", "3",
                   "--out", str(out), *flags) == 2
        assert f"error: {message}\n" in capsys.readouterr().err
        assert not out.exists()

    def test_dt_written_as_zero_exits_2_before_writing(self, tmp_path, capsys):
        out = tmp_path / "x.jsonl"
        assert run("gen-synth", "--scenario", "cv", "--n", "2", "--dt", "1e-7",
                   "--out", str(out)) == 2
        assert capsys.readouterr().err == (
            "error: dt=1e-07 rounds to 0 at the 6 decimals a dataset file carries\n")
        assert not out.exists()

    def test_dt_read_back_as_another_exits_2_before_writing(self, tmp_path, capsys):
        out = tmp_path / "x.jsonl"
        assert run("gen-synth", "--scenario", "cv", "--n", "2", "--dt", "0.1234567",
                   "--out", str(out)) == 2
        assert capsys.readouterr().err == ("error: dt=0.1234567 reads back as 0.123457 "
                                           "at the 6 decimals a dataset file carries\n")
        assert not out.exists()


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

    # ngsim_tiny.csv: three vehicles in feet at 10 Hz, rows interleaved by
    # frame, a three-frame gap in vehicle 3, some ids written as "12.0" and a
    # blank row. The expected files were written by an earlier release's
    # per-element ingester, so they do not depend on the rounding code.
    @pytest.mark.parametrize("expected,flags", [
        ("ngsim_tiny_default.jsonl", ()),
        ("ngsim_tiny_s9.jsonl",
         ("--stride", "9", "--downsample", "1", "--tau", "10", "--horizon", "20")),
    ])
    def test_golden_fixture_bytes(self, tmp_path, expected, flags):
        data = Path(__file__).parent / "data"
        out = tmp_path / "out.jsonl"
        assert run("ingest-ngsim", "--csv", str(data / "ngsim_tiny.csv"),
                   "--out", str(out), *flags) == 0
        assert out.read_bytes() == (data / expected).read_bytes()

    def test_byte_order_mark_ingests(self, tmp_path):
        data = Path(__file__).parent / "data"
        marked = tmp_path / "bom.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + (data / "ngsim_tiny.csv").read_bytes())
        out = tmp_path / "out.jsonl"
        assert run("ingest-ngsim", "--csv", str(marked), "--out", str(out)) == 0
        assert out.read_bytes() == (data / "ngsim_tiny_default.jsonl").read_bytes()

    def test_undecodable_csv_exits_2_naming_file_and_line(self, tmp_path, capsys):
        data = Path(__file__).parent / "data"
        lines = (data / "ngsim_tiny.csv").read_bytes().splitlines(keepends=True)
        lines[3] = lines[3].replace(b",1\n", b",\xff\n")
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"".join(lines))
        assert run("ingest-ngsim", "--csv", str(bad), "--out", str(tmp_path / "o.jsonl")) == 2
        assert capsys.readouterr().err == (
            f"error: {bad}: line 4: 'utf-8' codec can't decode byte 0xff in position 41: "
            "invalid start byte\n")


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

    def test_one_point_history_exits_2_without_a_model_file(self, tmp_path, capsys):
        # gen-synth --tau 0 writes a valid file; fit failed inside numpy's reshape
        train = gen(tmp_path, "t0.jsonl", scenario="cv", n=20, extra=("--tau", "0"))
        model = tmp_path / "model.json"
        capsys.readouterr()
        assert run("fit", "--train", str(train), "--out", str(model)) == 2
        assert capsys.readouterr().err == "error: history_len must be at least 2, got 1 (tau=0)\n"
        assert not model.exists()

    def test_refit_identical_bytes(self, tmp_path):
        train = gen(tmp_path, "train.jsonl")
        a = fit(tmp_path, train, "m1.json")
        b = fit(tmp_path, train, "m2.json")
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("dt", ["NaN", "Infinity"])
    def test_non_finite_dt_in_training_file_exits_2_naming_line(self, tmp_path, capsys, dt):
        train = gen(tmp_path, "train.jsonl", n=3)
        lines = train.read_text().splitlines()
        lines[1] = lines[1].replace('"dt":0.2', f'"dt":{dt}')
        train.write_text("\n".join(lines) + "\n")
        out = tmp_path / "m.json"
        assert run("fit", "--train", str(train), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert f"error: {train}: line 2: dt must be finite and positive\n" in err
        assert not out.exists()

    def test_empty_training_file_exits_2(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert run("fit", "--train", str(empty),
                   "--out", str(tmp_path / "m.json")) == 2

    def test_anchor_beyond_horizon_exits_2(self, tmp_path):
        train = gen(tmp_path, "train.jsonl")
        assert run("fit", "--train", str(train), "--out", str(tmp_path / "m.json"),
                   "--anchors", "5,40") == 2

    @pytest.mark.parametrize("flag,value", [
        ("anchors", "5,x"), ("lag", "2.5"), ("anchors", "5,,10"), ("anchors", ","),
    ])
    def test_unconvertible_flag_names_option(self, tmp_path, capsys, flag, value):
        train = gen(tmp_path, "train.jsonl", n=30)
        assert run("fit", "--train", str(train), "--out", str(tmp_path / "m.json"),
                   f"--{flag}", value) == 2
        err = capsys.readouterr().err
        assert f"error: --{flag}: invalid value '{value}'" in err


    @pytest.mark.parametrize("predictor", ("cv", "ar"))
    @pytest.mark.parametrize("ridge", ("-1", "nan", "inf"))
    def test_invalid_ridge_exits_2_naming_it(self, tmp_path, capsys, predictor, ridge):
        train = gen(tmp_path, "train.jsonl", n=30)
        out = tmp_path / "m.json"
        assert run("fit", "--train", str(train), "--out", str(out),
                   "--predictor", predictor, "--ridge", ridge) == 2
        assert "error: ridge_lambda must be finite and >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_anchor_zero_exits_2(self, tmp_path, capsys):
        train = gen(tmp_path, "train.jsonl", n=30)
        assert run("fit", "--train", str(train), "--out", str(tmp_path / "m.json"),
                   "--anchors", "0,5") == 2
        assert "anchor steps must be non-empty and each >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [("dt", "0.1"), ("tau", "10")])
    def test_validation_protocol_mismatch_exits_2(self, tmp_path, capsys, flag, value):
        train = gen(tmp_path, "train.jsonl", n=30)
        val = gen(tmp_path, "val.jsonl", n=10, seed=12, extra=(f"--{flag}", value))
        assert run("fit", "--train", str(train), "--val", str(val),
                   "--out", str(tmp_path / "m.json")) == 2
        err = capsys.readouterr().err
        assert f"error: {val}: {flag}={value} differs from the training {flag}=" in err

    @pytest.mark.parametrize("predictor,flag,value,message", [
        ("ca", "--lag", "-5", "ca backbone needs lag >= 1"),
        ("ca", "--lag", "0", "ca backbone needs lag >= 1"),
        ("ar", "--window", "1", "ar backbone needs a window of at least 2 positions"),
    ], ids=["ca-lag-negative", "ca-lag-zero", "ar-window-1"])
    def test_size_a_backbone_does_not_read_is_still_checked(
            self, tmp_path, capsys, predictor, flag, value, message):
        # each field's rule holds for every backbone, also one that does not read it
        train = gen(tmp_path, "train.jsonl", n=30)
        out = tmp_path / "m.json"
        assert run("fit", "--train", str(train), "--out", str(out),
                   "--predictor", predictor, flag, value) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ("fit", "ablate"))
    def test_empty_validation_file_exits_2_naming_it(self, tmp_path, capsys, command):
        # an explicitly named --val must not fall back to in-sample calibration
        train = gen(tmp_path, "train.jsonl", n=30)
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        out = tmp_path / "out"
        extra = ("--test", str(train)) if command == "ablate" else ()
        assert run(command, "--train", str(train), "--val", str(empty),
                   "--out", str(out), *extra) == 2
        err = capsys.readouterr().err
        assert f"error: {empty}: validation file contains no segments" in err
        assert not out.exists()


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

    def test_empty_data_file_gives_an_empty_predictions_file(self, tmp_path, capsys):
        model = fit(tmp_path, gen(tmp_path, "train.jsonl"))
        empty, out = tmp_path / "empty.jsonl", tmp_path / "p.jsonl"
        empty.write_text("", encoding="utf-8")
        assert run("predict", "--model", str(model), "--data", str(empty),
                   "--out", str(out)) == 0
        assert out.read_text(encoding="utf-8") == ""
        assert f"wrote 0 refined predictions to {out}" in capsys.readouterr().out

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

    def test_ca_snapped_onto_goals_exits_0(self, tmp_path):
        # exited 2: the refined covariance lost definiteness to cancellation
        train = gen(tmp_path, "train.jsonl", n=100)
        test = gen(tmp_path, "test.jsonl", seed=12, n=20)
        model = fit(tmp_path, train, extra=("--predictor", "ca"))
        out = tmp_path / "preds.jsonl"
        assert run("predict", "--model", str(model), "--data", str(test),
                   "--out", str(out), "--goal-cov-scale", "1e-12") == 0
        sigmas = np.array([json.loads(line)["sigmas"] for line in out.read_text().splitlines()])
        assert np.all(sigmas[..., :2] > 0.0) and np.all(np.abs(sigmas[..., 2]) < 1.0)

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

    @pytest.mark.parametrize("corrupt,message", [
        (lambda doc: json.dumps({**doc, "protocol": {**doc["protocol"], "fps": 5}}), ""),
        (lambda doc: json.dumps({**doc, "protocol": [0.2, 15, 25]}), ""),
        (lambda doc: json.dumps({**doc, "protocol": {**doc["protocol"], "dt": "0.2"}}), ""),
        (lambda doc: json.dumps([doc]), ""),
        (lambda doc: json.dumps(doc)[:-1], ""),
        (lambda doc: json.dumps({**doc, "predictor": {
            **doc["predictor"], "step_covs": [c + [0.0] for c in doc["predictor"]["step_covs"]]}}),
         r"invalid model file: step_covs must be an array of \[sxx, sxy, syy\] triples$"),
        (lambda doc: json.dumps({**doc, "goal_model": {
            **doc["goal_model"], "residual_covs": [c[:2] for c in doc["goal_model"]["residual_covs"]]}}),
         r"invalid model file: residual_covs must be an array of \[sxx, sxy, syy\] triples$"),
        (lambda doc: json.dumps({**doc, "version": 2}),
         "invalid model file: unsupported model file version 2$"),
        (lambda doc: json.dumps({k: v for k, v in doc.items() if k != "version"}),
         "invalid model file: unsupported model file version None$"),
        # true and 1.0 loaded as version 1, and "1" was named as if it were 1
        (lambda doc: json.dumps({**doc, "version": True}),
         "invalid model file: unsupported model file version True$"),
        (lambda doc: json.dumps({**doc, "version": 1.0}),
         r"invalid model file: unsupported model file version 1\.0$"),
        (lambda doc: json.dumps({**doc, "version": "1"}),
         "invalid model file: unsupported model file version '1'$"),
        # each of these three loaded without a word
        (lambda doc: json.dumps({**doc, "extra": 1}), "invalid model file: unknown key 'extra'$"),
        (lambda doc: json.dumps({**doc, "predictor": {**doc["predictor"], "windw": 3}}),
         "invalid model file: unknown key 'windw' in predictor$"),
        (lambda doc: json.dumps({**doc, "goal_model": {**doc["goal_model"], "posterior_covs": []}}),
         "invalid model file: unknown key 'posterior_covs' in goal_model$"),
    ], ids=["protocol-extra-key", "protocol-not-object", "protocol-string-value",
            "top-level-array", "invalid-json", "step-covs-quadruples", "residual-covs-pairs",
            "version-2", "version-missing", "version-true", "version-float", "version-string",
            "unknown-top-level-key", "unknown-predictor-key",
            "unknown-goal-model-key"])
    def test_malformed_model_file_exits_2(self, tmp_path, capsys, corrupt, message):
        train = gen(tmp_path, "train.jsonl", n=30)
        model = fit(tmp_path, train)
        model.write_text(corrupt(json.loads(model.read_text())))
        with pytest.raises(ValueError, match=f"^{model}: {message}"):
            load_model(str(model))
        assert run("predict", "--model", str(model), "--data", str(train),
                   "--out", str(tmp_path / "p.jsonl")) == 2
        assert str(model) in capsys.readouterr().err

    @pytest.mark.parametrize("corrupt,message", [
        (lambda doc: doc["predictor"].update(lag=3.0), "lag must be a JSON integer, got 3.0"),
        (lambda doc: doc["goal_model"]["anchor_steps"].__setitem__(0, 5.5),
         "anchor steps must be integers, got [5.5, 10, 15, 20, 25]"),
        (lambda doc: doc["predictor"]["ar_weights"][1].__setitem__(0, None),
         "ar_weights must hold only JSON numbers"),
        (lambda doc: doc["goal_model"]["weights"][2][0].__setitem__(1, "0.5"),
         "weights must hold only JSON numbers"),
        # these two failed with "'int' (or 'NoneType') object is not iterable", naming nothing
        (lambda doc: doc["goal_model"].update(weights=5),
         "weights must be an array of tables of [x, y] pairs"),
        (lambda doc: doc["goal_model"].update(weights=None),
         "weights must be an array of tables of [x, y] pairs"),
        (lambda doc: doc["goal_model"].update(rotate="no"),
         'rotate must be a JSON boolean, got "no"'),
        (lambda doc: doc["protocol"].update(tau=True), "tau must be a JSON integer, got true"),
        (lambda doc: doc["predictor"].update(dt=float("nan")), "dt must be finite and positive"),
    ], ids=["lag-float", "anchor-float", "ar-weight-null", "goal-weight-string",
            "goal-weights-number", "goal-weights-null", "rotate-string", "tau-bool",
            "predictor-dt-nan"])
    def test_model_file_wrong_json_type_exits_2(self, tmp_path, capsys, corrupt, message):
        train = gen(tmp_path, "train.jsonl", n=30)
        model = fit(tmp_path, train)
        doc = json.loads(model.read_text())
        corrupt(doc)
        model.write_text(json.dumps(doc))
        with pytest.raises(ValueError) as exc:
            load_model(str(model))
        assert str(exc.value).startswith(f"{model}: invalid model file: {message}")
        assert run("predict", "--model", str(model), "--data", str(train),
                   "--out", str(tmp_path / "p.jsonl")) == 2
        assert f"{model}: invalid model file: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("corrupt,refine,message", [
        (lambda doc: doc["goal_model"]["weights"][0][3].__setitem__(1, np.inf), "on",
         "weights of anchor 5 must be finite"),
        (lambda doc: doc["predictor"]["ar_weights"][2].__setitem__(0, -np.inf), "off",
         "ar_weights must be finite"),
    ], ids=["goal-weight-1e999", "ar-weight-minus-1e999"])
    def test_non_finite_weight_exits_2_naming_it(self, tmp_path, capsys, corrupt, refine, message):
        # each loaded, and predict warned, then failed with "rollout produced
        # non-finite positions", naming neither the file nor the field
        train = gen(tmp_path, "train.jsonl", n=30)
        model = fit(tmp_path, train)
        doc = json.loads(model.read_text())
        corrupt(doc)
        model.write_text(json.dumps(doc).replace("Infinity", "1e999"))  # valid JSON, read as inf
        out = tmp_path / "p.jsonl"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("predict", "--model", str(model), "--data", str(train),
                       "--refine", refine, "--out", str(out)) == 2
        assert capsys.readouterr().err == f"error: {model}: invalid model file: {message}\n"
        assert not out.exists()

    def test_cv_model_with_ar_weights_exits_2_naming_it(self, tmp_path, capsys):
        # only an ar model holds weights, and a NaN in them is not even JSON
        train = gen(tmp_path, "train.jsonl", n=30)
        model = fit(tmp_path, train, "model_cv.json", extra=("--predictor", "cv"))
        doc = json.loads(model.read_text(encoding="utf-8"))
        doc["predictor"]["ar_weights"] = [[float("nan"), 1.0]]
        model.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "p.jsonl"
        assert run("predict", "--model", str(model), "--data", str(train),
                   "--out", str(out)) == 2
        assert capsys.readouterr().err == (
            f"error: {model}: invalid model file: cv backbone takes no ar_weights\n")
        assert not out.exists()

    def test_model_protocol_dt_nan_exits_2_naming_the_mismatch(self, tmp_path, capsys):
        train = gen(tmp_path, "train.jsonl", n=30)
        model = fit(tmp_path, train)
        doc = json.loads(model.read_text())
        doc["protocol"]["dt"] = float("nan")
        model.write_text(json.dumps(doc))
        out = tmp_path / "p.jsonl"
        assert run("predict", "--model", str(model), "--data", str(train),
                   "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert (f"error: {model}: invalid model file: protocol: dt=nan differs from "
                f"the models' dt=0.2\n") in err
        assert not out.exists()

    @pytest.mark.parametrize("key,value,message", [
        ("dt", -1.0, "protocol: dt=-1.0 differs from the models' dt=0.2"),
        ("dt", 0.3, "protocol: dt=0.3 differs from the models' dt=0.2"),
        ("horizon", 7, "protocol: horizon=7 differs from the models' horizon=25"),
        ("tau", 9, "protocol: tau=9 differs from the models' tau=15"),
    ])
    def test_model_protocol_must_describe_the_models(self, tmp_path, capsys, key, value,
                                                     message):
        model = fit(tmp_path, gen(tmp_path, "train.jsonl", n=30))
        doc = json.loads(model.read_text())
        doc["protocol"][key] = value
        model.write_text(json.dumps(doc))
        with pytest.raises(ValueError) as exc:
            load_model(str(model))
        assert str(exc.value) == f"{model}: invalid model file: {message}"
        empty, out = tmp_path / "empty.jsonl", tmp_path / "p.jsonl"
        empty.write_text("")
        assert run("predict", "--model", str(model), "--data", str(empty),
                   "--out", str(out)) == 2
        assert f"error: {model}: invalid model file: {message}\n" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("corrupt,message", [
        (lambda g: g.update(weights=[np.transpose(w).tolist() for w in g["weights"]]),
         "weights of anchor 5 must have shape (30, 2), got (2, 30)"),
        (lambda g: g.update(anchor_steps=[5, 10, 15, 20, 30]),
         "anchor step 30 exceeds the horizon 25"),
    ], ids=["weights-transposed", "anchor-past-horizon"])
    def test_model_goal_weights_and_anchors_checked(self, tmp_path, capsys, corrupt, message):
        train = gen(tmp_path, "train.jsonl", n=30)
        model = fit(tmp_path, train)
        doc = json.loads(model.read_text())
        corrupt(doc["goal_model"])
        model.write_text(json.dumps(doc))
        with pytest.raises(ValueError) as exc:
            load_model(str(model))
        assert str(exc.value) == f"{model}: invalid model file: {message}"
        out = tmp_path / "p.jsonl"
        assert run("predict", "--model", str(model), "--data", str(train),
                   "--out", str(out)) == 2
        assert f"error: {model}: invalid model file: {message}\n" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,value", [("predict", "raw"), ("ablate", "fused")])
    def test_feedback_flag_is_unrecognized(self, tmp_path, capsys, command, value):
        train = gen(tmp_path, "train.jsonl", n=30)
        inputs = command_inputs(tmp_path, command, train)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc_info:
            run(command, *inputs, "--out", str(out), "--feedback", value)
        assert exc_info.value.code == 2
        assert "unrecognized arguments: --feedback" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,flag,value", [("predict", "--epsilon", "0.1"),
                                                    ("ablate", "--beta", "1")])
    def test_measurement_flags_are_unrecognized(self, tmp_path, capsys, command, flag, value):
        train = gen(tmp_path, "train.jsonl", n=30)
        inputs = command_inputs(tmp_path, command, train)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc_info:
            run(command, *inputs, "--out", str(out), flag, value)
        assert exc_info.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not out.exists()

    def test_deeply_nested_model_file_exits_2_naming_it(self, tmp_path, capsys):
        train = gen(tmp_path, "train.jsonl", n=5)
        model = tmp_path / "model.json"
        model.write_text("[" * 100000 + "\n")
        assert run("predict", "--model", str(model), "--data", str(train),
                   "--out", str(tmp_path / "p.jsonl")) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {model}: invalid model file: maximum recursion depth exceeded")

    def test_model_file_is_json_dumps_of_its_document(self, tmp_path):
        model = fit(tmp_path, gen(tmp_path, "train.jsonl"))
        text = model.read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text)) + "\n"

    def test_model_file_round_trip_matches_in_memory(self, tmp_path):
        train_ds = gen_synthetic("lane_change", 60, 0.2, seed=11)
        params = fit_predictor("ar", train_ds, lag=3)
        goal_params = fit_goal_model(train_ds, (5, 10, 15, 20, 25), 1e-6)
        path = tmp_path / "m.json"
        save_model(str(path), params, goal_params)
        loaded_params, loaded_goals, protocol = load_model(str(path))
        seg = train_ds.segments[0]
        a = rollout_refined(params, goal_params, seg.history)
        b = rollout_refined(loaded_params, loaded_goals, seg.history)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.mean, y.mean)
            assert x.cov == y.cov

    def test_save_model_refuses_anchors_past_the_predictor_horizon(self, tmp_path):
        # a cv predictor of horizon-10 data with a goal model of horizon-25 data was
        # written (7771 bytes), and load_model then rejected the file
        predictor = fit_predictor("cv", gen_synthetic("lane_change", 30, 0.2, seed=11,
                                                      horizon=10))
        goal_model = fit_goal_model(gen_synthetic("lane_change", 30, 0.2, seed=12))
        path = tmp_path / "m.json"
        with pytest.raises(ValueError, match="^anchor step 25 exceeds the horizon 10$"):
            save_model(str(path), predictor, goal_model)
        assert not path.exists()


@pytest.fixture(scope="module")
def model_doc(tmp_path_factory):
    """A 30-segment training file and the document of the ar model fitted on it."""
    tmp_path = tmp_path_factory.mktemp("model")
    train = gen(tmp_path, "train.jsonl", n=30)
    return train, json.loads(fit(tmp_path, train).read_text())


def predict_with(tmp_path, train, doc) -> tuple[int, Path]:
    """The exit code of predict with doc as its model file, and the predictions path."""
    model, out = tmp_path / "model.json", tmp_path / "p.jsonl"
    model.write_text(json.dumps(doc), encoding="utf-8")
    return run("predict", "--model", str(model), "--data", str(train), "--out", str(out)), out


DECLARED_KEYS = [(section, key) for section, fields in MODEL_SCHEMA.items() for key in fields]


class TestModelSchema:
    """save_model and load_model go by one declared list, MODEL_SCHEMA."""

    def test_model_file_holds_the_declared_keys_in_order(self, model_doc):
        _, doc = model_doc
        assert list(doc) == ["version", *MODEL_SCHEMA]
        assert [(section, key) for section in MODEL_SCHEMA for key in doc[section]] == (
            DECLARED_KEYS)

    @pytest.mark.parametrize("section,key", [(None, section) for section in MODEL_SCHEMA]
                             + DECLARED_KEYS)
    def test_every_declared_key_is_required(self, tmp_path, capsys, model_doc, section, key):
        train, doc = model_doc
        doc = json.loads(json.dumps(doc))
        del (doc if section is None else doc[section])[key]
        code, out = predict_with(tmp_path, train, doc)
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'model.json'}: missing key '{key}' in model file\n")
        assert not out.exists()

    # each failed with "'int' object is not subscriptable" or the like, naming nothing
    @pytest.mark.parametrize("section", list(MODEL_SCHEMA))
    @pytest.mark.parametrize("value", [5, []], ids=["number", "array"])
    def test_a_section_that_is_not_an_object_is_named(self, tmp_path, capsys, model_doc,
                                                      section, value):
        train, doc = model_doc
        code, out = predict_with(tmp_path, train, {**doc, section: value})
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'model.json'}: invalid model file: {section} must be a JSON "
            f"object, got {json.dumps(value)}\n")
        assert not out.exists()

    def test_huge_residual_covariance_is_named_singular_quietly(self, tmp_path, capsys,
                                                                model_doc):
        # GoalModelParams accepts [1e160, 0, 1] (its determinant is finite); predict
        # printed three RuntimeWarnings and exited 2 with "rollout produced non-finite
        # positions", or ended in a traceback with warnings as errors
        train, doc = model_doc
        goal_model = doc["goal_model"]
        covs = [[1e160, 0.0, 1.0]] * len(goal_model["residual_covs"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = predict_with(tmp_path, train,
                                     {**doc, "goal_model": {**goal_model, "residual_covs": covs}})
        assert code == 2
        err = capsys.readouterr().err
        prefix = "error: step 1: innovation covariance is singular (det="
        assert err.startswith(prefix) and err.endswith(")\n")
        # det(S) / tr(S)^2 is below the float's precision, yet the det stated is
        # not the rounding noise it was (det=-1.410e+157, a negative det of a PSD sum)
        assert float(err[len(prefix):-2]) > 0.0
        assert not out.exists()


class TestEvalAndAblate:
    def test_full_precision_sigmas_of_older_files_give_the_same_csv(self, tmp_path):
        # older predict runs wrote the sigmas at full precision; eval reads only the means
        train = gen(tmp_path, "train.jsonl")
        test = gen(tmp_path, "test.jsonl", seed=12, n=10)
        model = fit(tmp_path, train)
        new, old = tmp_path / "new.jsonl", tmp_path / "old.jsonl"
        assert run("predict", "--model", str(model), "--data", str(test), "--out", str(new)) == 0
        params, goal_params, _ = load_model(str(model))
        ds = read_jsonl(str(test))
        means, covs = rollout_batch(params, ds.histories(), goal_params=goal_params,
                                    cfg=RefineConfig())
        old.write_text("".join(
            json.dumps({"segment_id": seg.segment_id, "means": round6(m).tolist(),
                        "sigmas": params_from_covs(c).tolist(), "mode": "refined"},
                       separators=(",", ":")) + "\n"
            for seg, m, c in zip(ds.segments, means, covs)), encoding="utf-8")
        old_lines, new_lines = ([json.loads(line) for line in path.read_text(encoding="utf-8")
                                 .splitlines()] for path in (old, new))
        assert [line["means"] for line in old_lines] == [line["means"] for line in new_lines]
        assert [line["sigmas"] for line in old_lines] != [line["sigmas"] for line in new_lines]
        for preds in (new, old):
            assert run("eval", "--predictions", str(preds), "--data", str(test),
                       "--out", str(tmp_path / f"{preds.stem}.csv")) == 0
        assert (tmp_path / "old.csv").read_bytes() == (tmp_path / "new.csv").read_bytes()

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

    def test_undecodable_predictions_exit_2_naming_file_and_line(self, tmp_path, capsys):
        data = gen(tmp_path, "d.jsonl", scenario="cv", noise=0.0, n=3)
        preds = tmp_path / "p.jsonl"
        preds.write_bytes(b"".join(
            json.dumps({"segment_id": seg.segment_id, "means": seg.future.tolist(),
                        "mode": "vanilla"}).encode() + b"\n"
            for seg in read_jsonl(str(data)).segments).replace(b'"cv-00002', b'"\xffcv-00002'))
        assert run("eval", "--predictions", str(preds), "--data", str(data),
                   "--out", str(tmp_path / "m.csv")) == 2
        assert capsys.readouterr().err == (
            f"error: {preds}: line 3: 'utf-8' codec can't decode byte 0xff in position 16: "
            "invalid start byte\n")

    def test_deeply_nested_predictions_exit_2_naming_file_and_line(self, tmp_path, capsys):
        data = gen(tmp_path, "d.jsonl", scenario="cv", noise=0.0, n=3)
        preds = tmp_path / "p.jsonl"
        seg = read_jsonl(str(data)).segments[0]
        preds.write_text(json.dumps({"segment_id": seg.segment_id, "means": seg.future.tolist(),
                                     "mode": "vanilla"}) + "\n" + "[" * 100000 + "\n")
        assert run("eval", "--predictions", str(preds), "--data", str(data),
                   "--out", str(tmp_path / "m.csv")) == 2
        assert capsys.readouterr().err == f"error: {preds}: line 2: JSON nested too deeply\n"

    @pytest.mark.parametrize("dt,horizon,seconds", [("0.3", "25", "rmse_3s,rmse_6s"),
                                                    ("2.5", "4", "rmse_5s,rmse_10s")])
    def test_columns_name_whole_seconds_of_dt(self, tmp_path, dt, horizon, seconds):
        data = gen(tmp_path, "d.jsonl", scenario="cv", n=5,
                   extra=("--dt", dt, "--horizon", horizon))
        preds = tmp_path / "p.jsonl"
        preds.write_text("".join(json.dumps({"segment_id": seg.segment_id,
                                             "means": seg.future.tolist(), "mode": "vanilla"}) + "\n"
                                 for seg in read_jsonl(str(data)).segments))
        out = tmp_path / "m.csv"
        assert run("eval", "--predictions", str(preds), "--data", str(data),
                   "--out", str(out)) == 0
        assert out.read_text().splitlines()[0] == f"backbone,refine,rmse_overall,{seconds}"

    # each wrote a row that does not fit the CSV's header: "cv,ca" shifted every
    # column right by one, and a quote or line break broke the row
    @pytest.mark.parametrize("label", ["cv,ca", 'cv"ca', "cv\rca", "cv\nca"],
                             ids=["comma", "quote", "cr", "lf"])
    def test_backbone_label_that_is_not_one_csv_cell_exits_2(self, tmp_path, capsys, label):
        data = gen(tmp_path, "d.jsonl", scenario="cv", n=3)
        preds, out = tmp_path / "p.jsonl", tmp_path / "m.csv"
        preds.write_text("")
        assert run("eval", "--predictions", str(preds), "--data", str(data),
                   "--backbone", label, "--out", str(out)) == 2
        assert capsys.readouterr().err == f"error: --backbone: invalid value {label!r}\n"
        assert not out.exists()

    def test_backbone_label_from_a_config_line_is_checked_alike(self, tmp_path, capsys):
        data, cfg = gen(tmp_path, "d.jsonl", scenario="cv", n=3), tmp_path / "eval.cfg"
        preds, out = tmp_path / "p.jsonl", tmp_path / "m.csv"
        preds.write_text("")
        cfg.write_text('backbone = ar "lag 3"\n')
        assert run("eval", "--predictions", str(preds), "--data", str(data),
                   "--config", str(cfg), "--out", str(out)) == 2
        assert capsys.readouterr().err == "error: --backbone: invalid value 'ar \"lag 3\"'\n"
        assert not out.exists()

    def test_any_other_backbone_label_is_written_as_is(self, tmp_path):
        data = gen(tmp_path, "d.jsonl", scenario="cv", noise=0.0, n=3)
        preds, out = tmp_path / "p.jsonl", tmp_path / "m.csv"
        preds.write_text("".join(
            json.dumps({"segment_id": seg.segment_id, "means": seg.future.tolist(),
                        "mode": "vanilla"}) + "\n" for seg in read_jsonl(str(data)).segments))
        label = "ar lag=3; ü\t'x'"
        assert run("eval", "--predictions", str(preds), "--data", str(data),
                   "--backbone", label, "--out", str(out)) == 0
        row = out.read_text(encoding="utf-8").splitlines()[1]
        assert row.startswith(f"{label},off,0.000000,")

    def test_empty_dataset_exits_2_naming_it(self, tmp_path, capsys):
        data, preds = tmp_path / "d.jsonl", tmp_path / "p.jsonl"
        data.write_text("")
        preds.write_text("")
        assert run("eval", "--predictions", str(preds), "--data", str(data),
                   "--out", str(tmp_path / "m.csv")) == 2
        assert f"error: {data}: dataset contains no segments" in capsys.readouterr().err

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

    @pytest.mark.parametrize("value", ["1.5", True, None])
    def test_non_number_prediction_means_name_line(self, tmp_path, capsys, value):
        data, preds, lines = self.predict_lines(tmp_path)
        bad = json.loads(lines[2])
        bad["means"][4][0] = value
        lines[2] = json.dumps(bad)
        preds.write_text("\n".join(lines) + "\n")
        assert run("eval", "--predictions", str(preds), "--data", str(data),
                   "--out", str(tmp_path / "m.csv")) == 2
        assert f"{preds}: line 3: means must hold only JSON numbers" in capsys.readouterr().err

    def test_mixed_prediction_modes_exit_2(self, tmp_path, capsys):
        data, preds, lines = self.predict_lines(tmp_path)
        vanilla = json.loads(lines[1])
        vanilla["mode"] = "vanilla"
        lines[1] = json.dumps(vanilla)
        preds.write_text("\n".join(lines) + "\n")
        out = tmp_path / "m.csv"
        assert run("eval", "--predictions", str(preds), "--data", str(data),
                   "--out", str(out)) == 2
        assert capsys.readouterr().err == (
            f"error: {preds}: mixed prediction modes ['refined', 'vanilla']\n")
        assert not out.exists()

    @pytest.mark.parametrize("field,value,message", [
        # str() used to turn null into "None" and 5 into "5"
        ("segment_id", None, "segment_id must be a JSON string"),
        ("segment_id", 5, "segment_id must be a JSON string"),
        ("segment_id", ["x"], "segment_id must be a JSON string"),
        # an unhashable mode used to crash, a typo to be scored as refine off
        ("mode", ["x"], "mode must be 'refined' or 'vanilla', got ['x']"),
        ("mode", "refind", "mode must be 'refined' or 'vanilla', got 'refind'"),
        ("mode", None, "mode must be 'refined' or 'vanilla', got None"),
        ("mode", {"m": 1}, "mode must be 'refined' or 'vanilla', got {'m': 1}"),
    ])
    def test_bad_prediction_id_or_mode_names_line(self, tmp_path, capsys, field, value,
                                                  message):
        data, preds, lines = self.predict_lines(tmp_path)
        out = tmp_path / "m.csv"
        bad = json.loads(lines[3])
        bad[field] = value
        lines[3] = json.dumps(bad)
        preds.write_text("\n".join(lines) + "\n")
        assert run("eval", "--predictions", str(preds), "--data", str(data),
                   "--out", str(out)) == 2
        assert f"{preds}: line 4: {message}" in capsys.readouterr().err
        assert not out.exists()

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


    @pytest.mark.parametrize("value", ("ar,ar", "cv,ar,cv", "ar, ar"))
    def test_repeated_backbone_exits_2_naming_option(self, tmp_path, capsys, value):
        # a repeated backbone was fitted once and reported as one pair
        train = gen(tmp_path, "train.jsonl", n=30)
        out = tmp_path / "r.csv"
        assert run("ablate", "--train", str(train), "--test", str(train),
                   "--out", str(out), "--predictors", value) == 2
        assert capsys.readouterr().err == f"error: --predictors: invalid value '{value}'\n"
        assert not out.exists()

    def test_unknown_backbone_exits_2_before_any_file_is_read(self, tmp_path, capsys,
                                                               monkeypatch):
        # every item of the list is a choice, checked before reading or fitting
        def no_work(*args, **kwargs):
            raise AssertionError("read or fitted before --predictors was checked")

        for name in ("read_jsonl", "fit_goal_model", "fit_predictor"):
            monkeypatch.setattr(f"trajrefine.cli.{name}", no_work)
        out = tmp_path / "r.csv"
        assert run("ablate", "--train", str(tmp_path / "train.jsonl"), "--test",
                   str(tmp_path / "test.jsonl"), "--predictors", "cv,foo", "--out", str(out)) == 2
        assert (capsys.readouterr().err
                == "error: --predictors: invalid value 'cv,foo' (choose from cv, ca, ar)\n")
        assert not out.exists()

    def test_ablate_test_protocol_mismatch_exits_2(self, tmp_path, capsys, monkeypatch):
        # the comparison needs only the two datasets, so it comes before any fit
        train = gen(tmp_path, "train.jsonl", n=30)
        test = gen(tmp_path, "test.jsonl", n=10, seed=12, extra=("--dt", "0.1"))

        def no_fit(*args, **kwargs):
            raise AssertionError("fitted before the test protocol was checked")

        monkeypatch.setattr("trajrefine.cli.fit_predictor", no_fit)
        monkeypatch.setattr("trajrefine.cli.fit_goal_model", no_fit)
        out = tmp_path / "r.csv"
        assert run("ablate", "--train", str(train), "--test", str(test),
                   "--predictors", "cv,ca,ar", "--out", str(out)) == 2
        assert (capsys.readouterr().err
                == f"error: {test}: dt=0.1 differs from the training dt=0.2\n")
        assert not out.exists()

    def test_ablate_empty_test_exits_2_naming_it_before_fitting(
            self, tmp_path, capsys, monkeypatch):
        train = gen(tmp_path, "train.jsonl", n=30)
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")

        def no_fit(*args, **kwargs):
            raise AssertionError("fitted before the test set was checked")

        monkeypatch.setattr("trajrefine.cli.fit_goal_model", no_fit)
        assert run("ablate", "--train", str(train), "--test", str(empty),
                   "--out", str(tmp_path / "r.csv")) == 2
        assert f"error: {empty}: dataset contains no segments" in capsys.readouterr().err


@pytest.mark.parametrize("path", ["fit-val", "predict-data", "ablate-test", "model-file"])
def test_every_protocol_mismatch_in_one_message_form(tmp_path, capsys, path):
    # "<what>: <key>=<got> differs from the <whose> <key>=<want>" on every path
    train = gen(tmp_path, "train.jsonl", n=30)
    other = gen(tmp_path, "other.jsonl", n=10, seed=12, extra=("--dt", "0.1"))
    model, out = fit(tmp_path, train), tmp_path / "out"
    where, whose = other, "training"
    if path == "fit-val":
        argv = ("fit", "--train", train, "--val", other)
    elif path == "ablate-test":
        argv = ("ablate", "--train", train, "--test", other)
    elif path == "predict-data":
        argv, whose = ("predict", "--model", model, "--data", other), "models'"
    else:
        doc = json.loads(model.read_text(encoding="utf-8"))
        doc["protocol"]["dt"] = 0.1
        model.write_text(json.dumps(doc), encoding="utf-8")
        argv, whose = ("predict", "--model", model, "--data", train), "models'"
        where = f"{model}: invalid model file: protocol"
    assert run(*map(str, argv), "--out", str(out)) == 2
    assert capsys.readouterr().err == f"error: {where}: dt=0.1 differs from the {whose} dt=0.2\n"
    assert not out.exists()


def test_choices_are_the_library_registries_and_help_lists_them(capsys, monkeypatch):
    options = {opt.flag: opt for opts, _, _ in COMMANDS.values() for opt in opts}
    assert options["scenario"].choices == tuple(s.replace("_", "-") for s in SCENARIOS)
    assert options["predictor"].choices == options["predictors"].choices == BACKBONES
    monkeypatch.setenv("COLUMNS", "100")  # argparse wraps help text to the terminal width
    for name, (opts, _, _) in COMMANDS.items():
        with pytest.raises(SystemExit) as exc_info:
            run(name, "--help")
        assert exc_info.value.code == 0
        text = capsys.readouterr().out
        for opt in opts:
            if opt.choices and opt.flag != "predictors":  # a list option keeps its name
                assert f"  --{opt.flag} {{{','.join(opt.choices)}}}" in text
    assert "  --predictors PREDICTORS" in text  # ablate's
    assert "(default {cv} for cv, {ca} for ca)".format_map(WINDOWS) in text


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

    @pytest.mark.parametrize("command", ("predict", "ablate"))
    def test_feedback_key_exits_2(self, tmp_path, capsys, command):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("feedback = fused\n")
        train = gen(tmp_path, "train.jsonl", n=30)
        inputs = command_inputs(tmp_path, command, train)
        out = tmp_path / "out"
        assert run(command, *inputs, "--out", str(out), "--config", str(cfg)) == 2
        assert "error: unknown config keys: feedback\n" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ("predict", "ablate"))
    def test_beta_key_exits_2(self, tmp_path, capsys, command):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("beta = 1\n")
        train = gen(tmp_path, "train.jsonl", n=30)
        inputs = command_inputs(tmp_path, command, train)
        out = tmp_path / "out"
        assert run(command, *inputs, "--out", str(out), "--config", str(cfg)) == 2
        assert "error: unknown config keys: beta\n" in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_choice_from_config_exits_2(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("refine = sideways\n")
        train = gen(tmp_path, "train.jsonl", n=30)
        model = fit(tmp_path, train)
        assert run("predict", "--model", str(model), "--data", str(train),
                   "--out", str(tmp_path / "p.jsonl"), "--config", str(cfg)) == 2


    def test_unconvertible_config_value_names_option(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lag = x\n")
        train = gen(tmp_path, "train.jsonl", n=30)
        assert run("fit", "--train", str(train), "--out", str(tmp_path / "m.json"),
                   "--config", str(cfg)) == 2
        assert "error: --lag: invalid value 'x'" in capsys.readouterr().err


    def test_empty_list_item_from_config_names_option(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("predictors = ar,,cv\n")
        train = gen(tmp_path, "train.jsonl", n=30)
        assert run("ablate", "--train", str(train), "--test", str(train),
                   "--out", str(tmp_path / "r.csv"), "--config", str(cfg)) == 2
        assert "error: --predictors: invalid value 'ar,,cv'" in capsys.readouterr().err

    def test_repeated_list_item_from_config_names_option(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("predictors = ar,cv,ar\n")
        train = gen(tmp_path, "train.jsonl", n=30)
        out = tmp_path / "r.csv"
        assert run("ablate", "--train", str(train), "--test", str(train),
                   "--out", str(out), "--config", str(cfg)) == 2
        assert capsys.readouterr().err == "error: --predictors: invalid value 'ar,cv,ar'\n"
        assert not out.exists()

    def test_undecodable_config_exits_2_naming_file_and_line(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_bytes(b"n = 5\n# caf\xe9\nnoise = 0.1\n")
        assert run("gen-synth", "--scenario", "cv", "--out", str(tmp_path / "o.jsonl"),
                   "--config", str(cfg)) == 2
        assert capsys.readouterr().err == (
            f"error: {cfg}: line 2: 'utf-8' codec can't decode byte 0xe9 in position 5: "
            "invalid continuation byte\n")


    def test_comment_and_blank_lines_skipped(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# a generated corpus\n\n   # indented comment\nn = 7\t# tab comment\n"
                       "\t\nnoise = 0.1\n#seed = 4\n")
        out, expected = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert run("gen-synth", "--scenario", "cv", "--out", str(out), "--config", str(cfg)) == 0
        assert run("gen-synth", "--scenario", "cv", "--out", str(expected),
                   "--n", "7", "--noise", "0.1") == 0
        assert out.read_bytes() == expected.read_bytes()

    def test_line_without_equals_names_file_and_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 7\nnoise 0.1\n")
        assert run("gen-synth", "--scenario", "cv", "--out", str(tmp_path / "o.jsonl"),
                   "--config", str(cfg)) == 2
        assert capsys.readouterr().err == f"error: {cfg}: line 2: expected 'key = value'\n"

    @pytest.mark.parametrize("text,line", [
        ("n = 3\nseed = 1\nn = 5\n", 1), ("noise = 0.1\nn = 3\n\n# again\nn = 3\n", 2),
        ("tau = 3\nhorizon = 4\nscenario = cv\nhorizon = 4 # same value\n", 2),
    ], ids=["different-value", "same-value", "after-comment"])
    def test_repeated_key_names_both_lines(self, tmp_path, capsys, text, line):
        # the last value used to win silently
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        out = tmp_path / "o.jsonl"
        assert run("gen-synth", "--scenario", "cv", "--n", "2", "--out", str(out),
                   "--config", str(cfg)) == 2
        key = text.splitlines()[line - 1].split(" = ")[0]
        last = len(text.splitlines())
        assert capsys.readouterr().err == (
            f"error: {cfg}: line {last}: key {key!r} repeats line {line}\n")
        assert not out.exists()

    def test_spelled_with_a_dash_and_an_underscore_is_one_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("goal-cov-scale = 2\ngoal_cov_scale = 3\n")
        train = gen(tmp_path, "train.jsonl", n=30)
        assert run("predict", "--model", str(fit(tmp_path, train)), "--data", str(train),
                   "--out", str(tmp_path / "p.jsonl"), "--config", str(cfg)) == 2
        assert f"{cfg}: line 2: key 'goal_cov_scale' repeats line 1" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["a#b.jsonl", "a#", "a#b#c.jsonl"])
    def test_hash_inside_a_value_is_kept(self, tmp_path, monkeypatch, value):
        # '#' started a comment anywhere: out = a#b.jsonl wrote to a
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"n = 2\nout = {value}  # the dataset\n")
        assert run("gen-synth", "--scenario", "cv", "--config", str(cfg)) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted([value, "run.cfg"])

    def test_byte_order_mark_is_skipped(self, tmp_path, monkeypatch, capsys):
        # the first key was read as '\ufeffscenario': "missing required option --scenario"
        monkeypatch.chdir(tmp_path)
        outputs = []
        for bom in ("", "\ufeff"):
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"{bom}scenario = cv\nn = 3\nout = b.jsonl\n", encoding="utf-8")
            code = run("gen-synth", "--config", str(cfg))
            outputs.append((code, capsys.readouterr(), (tmp_path / "b.jsonl").read_bytes()))
        assert outputs[0][0] == 0 and outputs[1] == outputs[0]


class TestDefaultsFollowLibrary:
    @pytest.mark.parametrize("backbone", ["cv", "ca", "ar"])
    def test_fit_without_model_flags_equals_library_defaults(self, tmp_path, backbone):
        train = gen(tmp_path, "train.jsonl")
        model = fit(tmp_path, train, extra=("--predictor", backbone))
        train_ds = read_jsonl(str(train))
        expected = tmp_path / "expected.json"
        save_model(str(expected), fit_predictor(backbone, train_ds), fit_goal_model(train_ds))
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
        assert [line["means"] for line in lines] == [round6(m).tolist() for m in means]
        sigmas = [reference_data.outward([params_from_cov(Cov2(c[0, 0], 0.5 * (c[0, 1] + c[1, 0]),
                                                               c[1, 1])) for c in seg])
                  for seg in covs]  # rounded outward at 6 decimals
        assert [line["sigmas"] for line in lines] == sigmas
