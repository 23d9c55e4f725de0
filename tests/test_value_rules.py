"""One rule per kind of input value, the same wherever a value of that kind is taken.

Integers (``data.whole``), finite numbers > 0 (``data.positive``) and >= 0
(``data.non_negative``) and valid covariances (``gaussian.cov_entries``) each
had copies that had drifted apart: a boolean passed as a number, a NaN or
infinite covariance passed as positive definite, and ``log_density`` read one
off-diagonal where the others average both. Each case below was accepted before
the copies were merged.
"""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trajrefine.metrics as metrics
from trajrefine.cli import load_model, main, save_model
from trajrefine.data import (Dataset, Segment, checked_positive, gen_synthetic, non_negative,
                             positive, read_jsonl, whole, write_jsonl)
from trajrefine.fusion import fuse
from trajrefine.gaussian import (Cov2, cov_from_params, log_density, params_from_cov,
                                 params_from_covs, pd_rule, psd_rule)
from trajrefine.goals import GoalModelParams, fit_goal_model, interpolate_covs, solve_ridge
from trajrefine.metrics import run_ablation
from trajrefine.predictors import PredictorParams, fit_ar_rls, fit_predictor, rollout_batch

POINTS = np.zeros((2, 2))
BOOLEANS = [True, False, np.True_, np.False_]


def raises(message: str):
    return pytest.raises(ValueError, match=f"^{re.escape(message)}$")


class TestRules:
    @pytest.mark.parametrize("value", [3, np.int64(3), np.uint8(3)])
    def test_whole_returns_a_plain_int(self, value):
        assert type(whole("n", value)) is int

    @pytest.mark.parametrize("value", BOOLEANS + [3.0, "3", None])
    def test_whole_rejects_a_non_integer_by_name(self, value):
        with raises(f"n must be an integer, got {value!r}"):
            whole("n", value)

    @pytest.mark.parametrize("value,is_positive,is_non_negative", [
        (1, True, True), (0.5, True, True), (np.float64(2.0), True, True),
        pytest.param(10**400, True, True, id="10**400"),
        (0, False, True), (-0.0, False, True), (-1e-300, False, False),
        (np.inf, False, False), (np.nan, False, False),
        (True, False, False), (False, False, False), (np.True_, False, False),
    ])
    def test_number_rules(self, value, is_positive, is_non_negative):
        assert bool(positive(value)) is is_positive
        assert bool(non_negative(value)) is is_non_negative

    @pytest.mark.parametrize("entries,ok", [
        ((1.0, 0.0, 1.0), True), ((1.0, 0.5, 1.0), True), ((0.0, 0.0, 0.0), False),
        ((1.0, 1.0, 1.0), False), ((-1.0, 0.0, -1.0), False), ((1e-300, 0.0, -1e-300), False),
        ((np.nan, 0.0, 1.0), False), ((1.0, np.nan, 1.0), False), ((1.0, 0.0, np.nan), False),
    ])
    def test_pd_rule_on_floats_and_arrays(self, entries, ok):
        assert bool(pd_rule(*entries)) is ok
        assert pd_rule(*(np.full(3, e) for e in entries)).tolist() == [ok] * 3


class TestBooleanIsNotANumber:
    @pytest.mark.parametrize("dt", BOOLEANS)
    def test_segment_dt(self, dt):
        with raises("dt must be finite and positive"):
            Segment("a", 1, dt, POINTS, POINTS)

    @pytest.mark.parametrize("dt", BOOLEANS)
    def test_dataset_dt(self, dt):
        with raises(f"protocol needs a finite dt > 0, tau >= 0 and horizon >= 1, "
                    f"got dt={dt}, tau=15, horizon=25"):
            Dataset([], dt)

    @pytest.mark.parametrize("dt", BOOLEANS)
    def test_predictor_params_dt(self, dt):
        with raises("dt must be finite and positive"):
            PredictorParams("cv", dt, np.eye(2)[None])

    @pytest.mark.parametrize("name", ["n", "tau", "seed"])
    @pytest.mark.parametrize("value", [True, np.True_])
    def test_gen_synthetic_sizes_and_seed(self, name, value):
        args = {"n": 3, "seed": 0, name: value}
        with raises(f"{name} must be an integer, got {value!r}"):
            gen_synthetic("cv", args.pop("n"), 0.0, **args)

    @pytest.mark.parametrize("value", [True, np.True_])
    def test_goal_cov_scale(self, value):
        with raises("goal_cov_scale must be finite and positive"):
            rollout_batch(PredictorParams("cv", 0.2, np.eye(2)[None]), np.zeros((1, 2, 2)),
                          None, None, value)

    @pytest.mark.parametrize("value", [True, np.True_])
    def test_rls_delta(self, value):
        with raises("delta must be finite and positive"):
            fit_ar_rls([(np.array([1.0]), 2.0)], delta=value)

    @pytest.mark.parametrize("value", [True, np.True_, float("nan")])
    def test_rls_forgetting(self, value):
        # True returned weights, as forgetting 1.0 does
        with raises("forgetting factor must be in (0, 1]"):
            fit_ar_rls([(np.array([1.0]), 2.0)], forgetting=value)

    @pytest.mark.parametrize("value", [True, False, np.True_])
    def test_ridge_lambda(self, value):
        train = gen_synthetic("cv", 8, 0.1, seed=4)
        message = f"ridge_lambda must be finite and >= 0, got {value!r}"
        with raises(message):
            solve_ridge(np.eye(2), np.ones((2, 2)), value)
        with raises(message):
            fit_goal_model(train, ridge_lambda=value)
        with raises(message):
            fit_predictor("cv", train, ridge_lambda=value)

    @pytest.mark.parametrize("value", ["no", 1, 0, None, np.True_])
    def test_goal_model_rotate_must_be_a_boolean(self, value):
        # "no" was accepted, and rotated
        with raises(f"rotate must be a boolean, got {value!r}"):
            GoalModelParams((5,), (np.zeros((2, 2)),), np.eye(2)[None], 2, rotate=value)


    @pytest.mark.parametrize("steps", [(True, 5), (1, np.True_)])
    def test_anchor_steps(self, steps):
        with raises(f"anchor steps must be integers, got {steps!r}"):
            GoalModelParams(steps, (np.zeros((2, 2)),) * 2, np.stack([np.eye(2)] * 2), 2)


class TestNanCovarianceIsNotPositiveDefinite:
    @pytest.mark.parametrize("entries", [(np.nan, 0.0, 1.0), (1.0, np.nan, 1.0),
                                         (1.0, 0.0, np.nan)])
    def test_params_from_cov(self, entries):
        # returned (nan, 1.0, nan) for the first
        with raises("covariance is not positive definite"):
            params_from_cov(Cov2(*entries))

    @pytest.mark.parametrize("entry", [(0, 0), (0, 1), (1, 1)])
    def test_log_density(self, entry):
        cov = np.stack([np.eye(2)] * 3)
        cov[1][entry] = np.nan
        with raises("covariance is not positive definite"):
            log_density(np.zeros((3, 2)), cov, np.ones((3, 2)))

    def test_scalar_params_from_cov_unchanged_for_valid_input(self):
        assert params_from_cov(Cov2(4.0, 1.0, 1.0)) == (2.0, 1.0, 0.5)
        entries = (2.0 / 3.0, 0.1, 7.0 / 9.0)
        assert (np.array(params_from_cov(Cov2(*map(np.float64, entries)))).tobytes()
                == np.array(params_from_cov(Cov2(*entries))).tobytes())


class TestOneCovarianceRule:
    """gaussian.cov_entries decides for every caller whether a covariance is valid."""

    @pytest.mark.parametrize("mean,point,cov,message", [
        ([np.nan, 0.0], [0.0, 0.0], np.eye(2), "mean and point must be finite"),
        ([0.0, 0.0], [np.inf, 0.0], np.eye(2), "mean and point must be finite"),
        ([0.0, 0.0], [0.0, 0.0], np.diag([np.inf, 1.0]), "covariance is not positive definite"),
    ], ids=["nan-mean", "inf-point", "inf-variance"])
    def test_log_density_rejects_non_finite_input(self, mean, point, cov, message):
        # each returned NaN
        with raises(message):
            log_density(np.array(mean), cov, np.array(point))

    def test_scalar_params_from_cov_rejects_an_infinite_entry(self):
        # returned (inf, 1.0, 0.0)
        with raises("covariance is not positive definite"):
            params_from_cov(Cov2(np.inf, 0.0, 1.0))
        with raises("covariance entries and determinants must be finite"):
            params_from_covs(np.diag([np.inf, 1.0]))

    def test_off_diagonals_are_averaged_everywhere(self):
        # log_density read only the upper one and scored this as positive definite
        cov = np.array([[1.0, 0.5], [-5.0, 1.0]])
        with raises("covariance is not positive definite"):
            log_density(np.zeros(2), cov, np.zeros(2))
        with raises("covariance must be positive semidefinite"):
            fuse(np.zeros(2), cov, np.zeros(2), np.eye(2))
        with raises("covariance is not positive definite"):
            params_from_covs(cov)


class TestOverflowingDeterminant:
    """A covariance whose determinant overflows is rejected, without a RuntimeWarning."""

    @pytest.fixture(autouse=True)
    def warnings_are_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    def test_log_density(self):
        # returned -inf
        with raises("covariance is not positive definite"):
            log_density(np.zeros(2), np.diag([1e200, 1e200]), np.zeros(2))

    def test_params_from_cov_and_covs(self):
        # both returned (1e100, 1e100, 0.0)
        with raises("covariance is not positive definite"):
            params_from_cov(Cov2(1e200, 0.0, 1e200))
        with raises("covariance is not positive definite"):  # raised the overflow warning
            params_from_cov(Cov2(np.float64(1e200), 0.0, np.float64(1e200)))
        with raises("covariance entries and determinants must be finite"):
            params_from_covs(np.diag([1e200, 1e200]))

    @pytest.mark.parametrize("sigmas", [(math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0)])
    def test_cov_from_params_needs_finite_sigmas(self, sigmas):
        # an infinite sigma gave NaN off-diagonals
        with raises("sigma_x and sigma_y must be finite and positive"):
            cov_from_params(*sigmas, 0.0)

    def test_stored_tables(self):
        with raises("step covariance 1 is not PSD"):
            PredictorParams("cv", 0.2, np.diag([1e200, 1e200])[None])
        with raises("residual covariance of anchor 1 is not positive definite"):
            GoalModelParams((1,), (np.zeros((2, 2)),), np.diag([1e200, 1e200])[None], 2)


ENTRIES = st.one_of(st.floats(-4.0, 4.0),
                    st.sampled_from([0.0, 1e-300, -1e-300, 1e200, -1e200, math.nan, math.inf,
                                     -math.inf]))


def accepted(call, *args) -> bool:
    """Whether call(*args) returns; a ValueError is a rejection."""
    try:
        call(*args)
    except ValueError:
        return False
    return True


@settings(max_examples=300, deadline=None)
@given(sxx=ENTRIES, a=ENTRIES, b=ENTRIES, syy=ENTRIES, symmetric=st.booleans())
def test_every_caller_keeps_the_one_rule(sxx, a, b, syy, symmetric):
    b = a if symmetric else b
    cov, scalar = np.array([[sxx, a], [b, syy]]), Cov2(sxx, (a + b) / 2, syy)
    valid = accepted(params_from_covs, cov)
    assert accepted(params_from_cov, scalar) == valid
    if valid:
        assert ([float(v).hex() for v in params_from_cov(scalar)]
                == [float(v).hex() for v in params_from_covs(cov)])
    assert accepted(log_density, np.zeros(2), cov, np.zeros(2)) == valid
    stored = a == b and math.isfinite(sxx * syy - a * b)  # and so every entry
    assert accepted(PredictorParams, "cv", 0.2, cov[None]) == bool(stored and psd_rule(sxx, a, syy))
    assert (accepted(GoalModelParams, (1,), (np.zeros((2, 2)),), cov[None], 2)
            == bool(stored and pd_rule(sxx, a, syy)))


class TestOneGoalCovScaleRule:
    """goal_cov_scale is a float argument of rollout_batch and run_ablation, with
    one rule and message (data.checked_positive) wherever it is taken."""

    MESSAGE = "goal_cov_scale must be finite and positive"

    @pytest.fixture(scope="class")
    def fitted(self):
        train = gen_synthetic("cv", 8, 0.1, seed=4)
        return train, fit_predictor("cv", train), fit_goal_model(train)

    # the floats -inf, 0.0 and -1.0 were RefineConfig.goal_cov_scale's cases before it went
    @pytest.mark.parametrize("value", [0, -0.0, -1, np.inf, np.nan, True, -np.inf, 0.0, -1.0])
    def test_every_taker_rejects_a_bad_scale(self, fitted, monkeypatch, value):
        train, params, goal_params = fitted
        for goals in (None, goal_params):  # with or without a goal model
            with raises(self.MESSAGE):
                rollout_batch(params, train.histories(), None, goals, value)

        def unrolled(*args, **kwargs):
            raise AssertionError("rolled out before the scale was checked")

        for name in ("rollout_batch", "_measure_goals", "_step"):
            monkeypatch.setattr(metrics, name, unrolled)
        with raises(self.MESSAGE):
            run_ablation(train, {"cv": (params, goal_params)}, value)

    @pytest.mark.parametrize("where", ["product", "sum"])
    def test_a_scale_that_overflows_is_named_quietly(self, fitted, where):
        # 1e308 warned "overflow encountered in multiply" at the scaled goal covariances,
        # a scale just below the largest float over their largest entry "overflow
        # encountered in reduce" at their trace with the step covariances; each then
        # failed with "rollout produced non-finite positions"
        train, params, fitted_goals = fitted
        goal_params = GoalModelParams(  # every goal covariance entry on the diagonal >= 4
            fitted_goals.anchor_steps, fitted_goals.weights,
            fitted_goals.residual_covs + 4.0 * np.eye(2), fitted_goals.history_len)
        ego = interpolate_covs(goal_params.anchor_steps, goal_params.residual_covs,
                               params.horizon)
        scale = 1e308 if where == "product" else float(0.999999 * np.finfo(float).max / ego.max())
        with np.errstate(over="ignore"):
            assert np.isfinite(scale * ego).all() == (where == "sum")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with raises(f"goal_cov_scale={scale!r} makes a goal measurement covariance, "
                        "or its sum with a step covariance, overflow"):
                rollout_batch(params, train.histories(), None, goal_params, scale)
            with raises(f"goal_cov_scale={scale!r} makes a goal measurement covariance, "
                        "or its sum with a step covariance, overflow"):
                run_ablation(train, {"cv": (params, goal_params)}, scale)
            # a scale that overflows nothing still refines, to the vanilla rollout's means
            means, covs = rollout_batch(params, train.histories(), None, goal_params, 1e300)
            vanilla, _ = rollout_batch(params, train.histories())
        assert np.isfinite(covs).all()
        np.testing.assert_allclose(means, vanilla, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("value,plain", [(np.float64(0.5), 0.5), (np.int64(2), 2), (3.0, 3.0)])
    def test_checked_positive_returns_a_plain_number(self, value, plain):
        got = checked_positive("x", value)
        assert got == plain and type(got) is type(plain)


class TestNumpyScalarDtIsStoredAsAPlainNumber:
    """write_jsonl and save_model raised ``TypeError: Object of type int64 is not
    JSON serializable`` for a numpy-scalar dt that the constructors had accepted."""

    @pytest.mark.parametrize("dt,text", [(np.int64(1), "1"), (np.float64(0.5), "0.5"),
                                         (np.float32(0.25), "0.25")])
    def test_dataset_and_segment(self, tmp_path, dt, text):
        points = np.zeros((3, 2))
        ds = Dataset([Segment("a", 1, dt, points, points)], dt, 2, 3)
        assert type(ds.dt) is type(ds.segments[0].dt) is type(dt.item())
        path = tmp_path / "d.jsonl"
        write_jsonl(ds, str(path))
        assert f'"dt":{text},' in path.read_text(encoding="utf-8")
        assert read_jsonl(str(path)).dt == dt

    @pytest.mark.parametrize("dt", [np.int64(1), np.float32(0.25)])
    def test_generated_and_predictor_dt(self, dt):
        ds = gen_synthetic("cv", 3, 0.0, seed=0, dt=dt)
        assert type(ds.dt) is type(ds.segments[0].dt) is type(dt.item())
        assert type(PredictorParams("cv", dt, np.eye(2)[None]).dt) is type(dt.item())


def corpus(dt) -> Dataset:
    """A lane-change corpus at ``dt`` whose agent ids are np.int64."""
    base = gen_synthetic("lane_change", 40, 0.2, seed=3, dt=dt)
    return Dataset([Segment(s.segment_id, np.int64(s.agent_id), dt, s.history, s.future)
                    for s in base.segments], dt, np.int64(base.tau), np.int64(base.horizon))


@pytest.mark.parametrize("dt", [1, np.int64(1), np.float64(0.2), 0.2],
                         ids=["int", "int64", "float64", "float"])
@pytest.mark.parametrize("backbone", ["cv", "ca", "ar"])
@pytest.mark.parametrize("rotate", [True, False])
def test_what_the_constructors_accept_the_model_reader_accepts(tmp_path, dt, backbone, rotate):
    ds = corpus(dt)
    predictor = fit_predictor(backbone, ds)
    goal_model = fit_goal_model(ds, anchor_steps=(5, 25), rotate=rotate)
    path = str(tmp_path / "model.json")
    save_model(path, predictor, goal_model)
    p, g, protocol = load_model(path)

    assert (p.backbone, p.dt, p.window, p.lag) == (backbone, dt, predictor.window, predictor.lag)
    assert all(type(v) is int for v in (p.window, p.lag, g.history_len, *g.anchor_steps))
    assert protocol == {"dt": dt, "tau": ds.tau, "horizon": ds.horizon}
    assert p.step_covs.tobytes() == predictor.step_covs.tobytes()
    if backbone == "ar":
        assert p.ar_weights.tobytes() == predictor.ar_weights.tobytes()
    assert (g.anchor_steps, g.history_len, g.rotate) == (goal_model.anchor_steps,
                                                          goal_model.history_len, rotate)
    assert type(g.rotate) is bool
    assert g.weight_matrix.tobytes() == goal_model.weight_matrix.tobytes()
    assert g.residual_covs.tobytes() == goal_model.residual_covs.tobytes()


class TestEmptyOptionValue:
    """An empty value names its option and exits 2 before any data file is opened."""

    def test_from_a_config_file(self, tmp_path, monkeypatch, capsys):
        # exited 1 with "[Errno 2] No such file or directory: ''"
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("scenario = cv\nn = 2\nout =\n", encoding="utf-8")
        assert main(["gen-synth", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == "error: --out: invalid value ''\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]

    def test_config_path(self, tmp_path, monkeypatch, capsys):
        # ran without a config file and exited 0
        monkeypatch.chdir(tmp_path)
        assert main(["gen-synth", "--config", "", "--scenario", "cv", "--n", "2",
                     "--out", "x.jsonl"]) == 2
        assert capsys.readouterr().err == "error: --config: invalid value ''\n"
        assert list(tmp_path.iterdir()) == []

    def test_from_the_command_line(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["gen-synth", "--scenario", "cv", "--n", "2", "--out", ""]) == 2
        assert capsys.readouterr().err == "error: --out: invalid value ''\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("source", ["cli", "config"])
    def test_empty_val_is_not_fitting_without_a_validation_set(self, tmp_path, capsys,
                                                                source):
        # fit ran without a validation set, silently; the training file is
        # missing here, so reading it first would exit 1
        out = tmp_path / "model.json"
        argv = ["fit", "--train", str(tmp_path / "missing.jsonl"), "--out", str(out)]
        if source == "cli":
            argv += ["--val", ""]
        else:
            cfg = tmp_path / "fit.cfg"
            cfg.write_text("val =   # calibration split\n", encoding="utf-8")
            argv += ["--config", str(cfg)]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: --val: invalid value ''\n"
        assert not out.exists()

    def test_empty_choice_still_lists_the_choices(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("rotate =\n", encoding="utf-8")
        train = tmp_path / "train.jsonl"
        write_jsonl(gen_synthetic("cv", 4, 0.0, seed=0), str(train))
        assert main(["fit", "--train", str(train), "--out", str(tmp_path / "m.json"),
                     "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            "error: --rotate: invalid value '' (choose from on, off)\n")
