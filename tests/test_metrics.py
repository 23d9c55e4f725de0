import numpy as np
import pytest

from trajrefine import predictors
from trajrefine.data import Dataset, Segment, gen_synthetic
from trajrefine.goals import fit_goal_model, goal_moments
from trajrefine.metrics import AblationReport, AblationRow, rmse, run_ablation
from trajrefine.predictors import fit_predictor, rollout_batch


def tiny_dataset(futures, dt=0.2):
    futures = np.asarray(futures, dtype=float)
    n, t, _ = futures.shape
    segments = [
        Segment(f"s{i}", i, dt, np.zeros((1, 2)), futures[i]) for i in range(n)
    ]
    return Dataset(segments, dt, tau=0, horizon=t)


class TestRmse:
    def test_perfect_predictions(self):
        ds = gen_synthetic("cv", 5, 0.0, seed=3)
        m = rmse(ds.futures(), ds)
        assert m.rmse_overall == 0.0
        assert np.all(m.rmse_per_step == 0.0)
        assert np.all(m.rmse_at_seconds == 0.0)

    def test_three_four_five(self):
        ds = tiny_dataset([[[0.0, 0.0]]])
        m = rmse([[[3.0, 4.0]]], ds)
        assert m.rmse_overall == pytest.approx(5.0, abs=1e-12)

    def test_mean_of_squares(self):
        ds = tiny_dataset([[[0.0, 0.0]], [[0.0, 0.0]]])
        m = rmse([[[3.0, 0.0]], [[0.0, 4.0]]], ds)
        assert m.rmse_overall == pytest.approx(np.sqrt(12.5), abs=1e-12)

    def test_overall_consistent_with_per_step(self):
        rng = np.random.default_rng(8)
        ds = gen_synthetic("turn", 20, 0.1, seed=8)
        preds = ds.futures() + rng.normal(0.0, 1.0, size=ds.futures().shape)
        m = rmse(preds, ds)
        assert m.rmse_overall ** 2 == pytest.approx(
            np.mean(m.rmse_per_step ** 2), abs=1e-9
        )

    def test_second_horizons_are_steps_5_to_25(self):
        ds = gen_synthetic("cv", 3, 0.0, seed=1)
        m = rmse(ds.futures(), ds)
        assert m.second_steps == (5, 10, 15, 20, 25)
        assert len(m.rmse_at_seconds) == 5

    @pytest.mark.parametrize("dt,horizon,steps,seconds", [
        (0.1, 25, (10, 20), (1, 2)),
        (0.2, 25, (5, 10, 15, 20, 25), (1, 2, 3, 4, 5)),
        (0.25, 25, (4, 8, 12, 16, 20, 24), (1, 2, 3, 4, 5, 6)),
        (0.5, 5, (2, 4), (1, 2)),
        (0.3, 25, (10, 20), (3, 6)),  # 3 steps are 0.9 s, not a second
        (2.5, 4, (2, 4), (5, 10)),  # under a step per second
        (0.3, 3, (), ()),
    ])
    def test_seconds_are_whole_multiples_of_dt(self, dt, horizon, steps, seconds):
        m = rmse(np.ones((2, horizon, 2)), tiny_dataset(np.zeros((2, horizon, 2)), dt))
        assert (m.second_steps, m.seconds) == (steps, seconds)
        assert m.rmse_at_seconds.tolist() == [np.sqrt(2.0)] * len(steps)
        csv = AblationReport((AblationRow("ar", True, m),)).to_csv()
        header = ["backbone", "refine", "rmse_overall"] + [f"rmse_{s}s" for s in seconds]
        assert csv.splitlines()[0] == ",".join(header)

    def test_translation_invariance(self):
        rng = np.random.default_rng(9)
        ds = gen_synthetic("ca", 10, 0.2, seed=9)
        preds = ds.futures() + rng.normal(0.0, 0.5, size=ds.futures().shape)
        shift = np.array([321.0, -87.0])
        shifted = Dataset(
            [
                Segment(s.segment_id, s.agent_id, s.dt, s.history + shift,
                        s.future + shift)
                for s in ds.segments
            ],
            ds.dt, ds.tau, ds.horizon,
        )
        a = rmse(preds, ds)
        b = rmse(preds + shift, shifted)
        assert abs(a.rmse_overall - b.rmse_overall) < 1e-12
        np.testing.assert_allclose(a.rmse_per_step, b.rmse_per_step, atol=1e-12)

    def test_symmetric_in_pred_and_truth(self):
        rng = np.random.default_rng(10)
        truth = rng.normal(size=(4, 25, 2))
        preds = rng.normal(size=(4, 25, 2))
        a = rmse(preds, tiny_dataset(truth))
        b = rmse(truth, tiny_dataset(preds))
        assert a.rmse_overall == pytest.approx(b.rmse_overall, abs=1e-15)

    def test_no_segments_rejected(self):
        with pytest.raises(ValueError, match="at least one segment"):
            rmse(np.zeros((0, 25, 2)), Dataset([]))

    def test_shape_mismatch(self):
        ds = tiny_dataset([[[0.0, 0.0]]])
        with pytest.raises(ValueError, match="shape"):
            rmse(np.zeros((2, 1, 2)), ds)

    @pytest.mark.parametrize("n,t", [(1, 1), (3, 25), (50, 7), (500, 25)])
    def test_bitwise_equal_to_the_axis_reduction(self, n, t):
        rng = np.random.default_rng(n * 31 + t)
        scales = 10.0 ** rng.integers(-3, 5, size=(n, t, 1))
        truth = rng.normal(0.0, 1.0, size=(n, t, 2)) * scales
        preds = truth + rng.normal(0.0, 1.0, size=(n, t, 2)) * scales
        m = rmse(preds, tiny_dataset(truth))
        per_step_mse = ((preds - truth) ** 2).sum(axis=2).mean(axis=0)
        assert m.rmse_per_step.tobytes() == np.sqrt(per_step_mse).tobytes()
        assert m.rmse_overall == float(np.sqrt(per_step_mse.mean()))


@pytest.fixture(scope="module")
def fitted():
    train = gen_synthetic("lane_change", 400, 0.2, seed=60)
    test = gen_synthetic("lane_change", 150, 0.2, seed=61)
    goal_params = fit_goal_model(train, (5, 10, 15, 20, 25), 1e-6)
    models = {
        "ar": (fit_predictor("ar", train, lag=3), goal_params),
        "cv": (fit_predictor("cv", train), goal_params),
    }
    return test, models


class TestRunAblation:
    def test_two_rows_per_backbone(self, fitted):
        test, models = fitted
        report = run_ablation(test, models)
        assert len(report.rows) == 4
        for backbone in models:
            assert report.metrics_for(backbone, False)
            assert report.metrics_for(backbone, True)

    def test_huge_goal_cov_makes_rows_identical(self, fitted):
        test, models = fitted
        report = run_ablation(test, models, goal_cov_scale=1e12)
        for backbone in models:
            off = report.metrics_for(backbone, False)
            on = report.metrics_for(backbone, True)
            np.testing.assert_allclose(
                on.rmse_per_step, off.rmse_per_step, atol=1e-6
            )

    def test_refinement_improves_lane_change_at_5s(self, fitted):
        test, models = fitted
        report = run_ablation(test, models)
        vanilla = report.metrics_for("ar", False).rmse_at_seconds[-1]
        refined = report.metrics_for("ar", True).rmse_at_seconds[-1]
        assert refined < vanilla

    def test_csv_layout(self, fitted):
        test, models = fitted
        report = run_ablation(test, models)
        lines = report.to_csv().strip().splitlines()
        assert lines[0].startswith("backbone,refine,rmse_overall,rmse_1s")
        assert "delta_5s" in lines[0]
        assert len(lines) == 1 + len(report.rows)
        refined_row = [l for l in lines[1:] if l.startswith("ar,on")][0]
        assert refined_row.count(",") == lines[0].count(",")

    def test_csv_has_deltas_only_when_every_refined_row_has_its_vanilla_row(self, fitted):
        test, models = fitted
        rows = run_ablation(test, models).rows
        full = AblationReport(rows).to_csv().splitlines()
        assert all("delta_" not in line for line in AblationReport(rows[:1]).to_csv().splitlines())
        for part in (rows[1:], rows[:1] + rows[3:], rows[1::2]):  # a refined row lacks its pair
            lines = AblationReport(part).to_csv().splitlines()
            assert "delta_" not in lines[0] and len(lines) == 1 + len(part)
        assert AblationReport(rows[:2]).to_csv().splitlines() == full[:3]

    def test_deterministic(self, fitted):
        test, models = fitted
        a = run_ablation(test, models).to_csv()
        b = run_ablation(test, models).to_csv()
        assert a == b

    def test_empty_test_set_rejected(self, fitted):
        _, models = fitted
        with pytest.raises(ValueError, match="empty"):
            run_ablation(Dataset([]), models)

    def test_no_models_rejected(self, fitted):
        # an empty report used to come back, whose to_csv() raised on max() of nothing
        test, _ = fitted
        with pytest.raises(ValueError, match="^no models to evaluate$"):
            run_ablation(test, {})

    def test_missing_row_named(self, fitted):
        test, models = fitted
        report = run_ablation(test, {"cv": models["cv"]})
        with pytest.raises(KeyError, match="no row for backbone='ar' refined=True"):
            report.metrics_for("ar", True)
        with pytest.raises(KeyError, match="no row for backbone='ca' refined=False"):
            report.deltas("ca")

    @pytest.mark.parametrize("key,value", [("dt", 0.1), ("tau", 10)])
    def test_models_of_another_protocol_named_before_rolling_out(self, monkeypatch, key,
                                                                 value):
        # models fitted at dt 0.1 were scored on dt-0.2 data without a word, and a
        # tau mismatch failed later, in goal_moments' history-shape check
        train = gen_synthetic("lane_change", 100, 0.2, seed=64, **{key: value})
        test = gen_synthetic("lane_change", 20, 0.2, seed=65)
        goal_params = fit_goal_model(train)
        models = {"cv": (fit_predictor("cv", train), goal_params),
                  "ar": (fit_predictor("ar", train, lag=3), goal_params)}

        def no_rollout(*args, **kwargs):
            raise AssertionError("rolled out before the protocol was checked")

        monkeypatch.setattr("trajrefine.metrics.rollout_batch", no_rollout)
        want = vars(test)[key]
        with pytest.raises(ValueError, match=f"^synthetic/lane_change: {key}={want} differs "
                                             f"from the ar models' {key}={value}$"):
            run_ablation(test, models)

    def test_goal_model_shared_by_backbones_is_measured_once(self, monkeypatch):
        train = gen_synthetic("turn", 200, 0.2, seed=62)
        test = gen_synthetic("turn", 40, 0.2, seed=63)
        kwargs = {"ar": {"lag": 3}, "ca": {"window": 3}, "cv": {}}
        params = {bb: fit_predictor(bb, train, **kw) for bb, kw in kwargs.items()}
        shared = fit_goal_model(train, (3, 10, 17))
        equal = [fit_goal_model(train, (3, 10, 17)) for _ in params]  # distinct objects
        scale = 3.0
        calls = []

        def counted(goal_params, histories):
            calls.append(goal_params)
            return goal_moments(goal_params, histories)

        monkeypatch.setattr(predictors, "goal_moments", counted)
        one = run_ablation(test, {bb: (p, shared) for bb, p in params.items()}, scale)
        assert calls == [shared]
        calls.clear()
        many = run_ablation(test, {bb: (p, g) for (bb, p), g in zip(params.items(), equal)}, scale)
        assert sorted(map(id, calls)) == sorted(map(id, equal))
        monkeypatch.undo()

        def bits(report):
            return [(r.backbone, r.refined, float.hex(r.metrics.rmse_overall),
                     r.metrics.rmse_per_step.tobytes(), r.metrics.rmse_at_seconds.tobytes())
                    for r in report.rows]

        rows = []
        for bb in sorted(params):
            for refined in (False, True):
                means, _ = rollout_batch(params[bb], test.histories(), test.horizon,
                                         shared if refined else None, scale)
                rows.append(AblationRow(bb, refined, rmse(means, test)))
        assert bits(one) == bits(many) == bits(AblationReport(tuple(rows)))
