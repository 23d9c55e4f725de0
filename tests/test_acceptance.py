"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

import trajrefine as tr
from trajrefine.cli import main as cli_main
from trajrefine.fusion import fuse, info_fuse
from trajrefine.gaussian import cov_from_params
from trajrefine.goals import GoalModelParams
from trajrefine.predictors import PredictorParams, rollout_batch, rollout_vanilla


@contextmanager
def verdict(num, name):
    try:
        yield
    except BaseException:
        print(f"[criterion {num}] {name}: FAIL")
        raise
    print(f"[criterion {num}] {name}: PASS")


def random_pairs(n=1000, seed=1234):
    """n (prior, measurement) pairs as arrays: (n, 2) means x and z, (n, 2, 2)
    covariances p and r."""
    rng = np.random.default_rng(seed)
    covs, means = np.empty((n, 2, 2, 2)), np.empty((n, 2, 2))
    for i in range(n):
        for j in range(2):
            covs[i, j] = cov_from_params(
                rng.uniform(0.2, 3.0), rng.uniform(0.2, 3.0), rng.uniform(-0.95, 0.95)
            )
        means[i] = rng.uniform(-10.0, 10.0, size=(2, 2))
    return means[:, 0], covs[:, 0], means[:, 1], covs[:, 1]


@pytest.fixture(scope="module")
def pd_pairs():
    return random_pairs()


def test_criterion_1_fusion_oracle_equivalence(pd_pairs):
    with verdict(1, "gain form equals information form over 1000 PD pairs"):
        start = time.perf_counter()
        (a_mean, a_cov), (b_mean, b_cov) = fuse(*pd_pairs), info_fuse(*pd_pairs)
        assert a_mean.shape == (1000, 2) and a_cov.shape == (1000, 2, 2)

        def per_pair_max(a):
            return np.abs(a).reshape(len(a), -1).max(axis=1)

        # each pair at its own scale
        mean_scale = np.maximum(1.0, np.maximum(per_pair_max(a_mean), per_pair_max(b_mean)))
        assert (per_pair_max(a_mean - b_mean) <= 1e-9 * mean_scale).all()
        cov_scale = np.maximum(1.0, np.maximum(per_pair_max(a_cov), per_pair_max(b_cov)))
        assert (per_pair_max(a_cov - b_cov) <= 1e-9 * cov_scale).all()
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f} s"


def test_criterion_2_covariance_dominance(pd_pairs):
    with verdict(2, "posterior never exceeds prior or measurement covariance"):
        _, p, _, r = pd_pairs
        post = fuse(*pd_pairs)[1]
        for other in (p, r):
            eigs = np.linalg.eigvalsh(other - post)  # (1000, 2), pair by pair
            assert eigs.min() >= -1e-12


def test_criterion_3_rls_forgetting_matches_batch_oracles():
    with verdict(3, "recursive fit matches batch and weighted-batch oracles"):
        rng = np.random.default_rng(77)
        x = rng.normal(size=(50, 4))
        true_w = rng.normal(size=(4, 2))
        y = x @ true_w + 0.1 * rng.normal(size=(50, 2))
        delta = 1e-8

        w1 = tr.fit_ar_rls(zip(x, y), forgetting=1.0, delta=delta)
        batch = np.linalg.solve(x.T @ x + delta * np.eye(4), x.T @ y)
        assert np.abs(w1 - batch).max() <= 1e-8

        lam = 0.9
        w2 = tr.fit_ar_rls(zip(x, y), forgetting=lam, delta=delta)
        weights = lam ** (len(x) - 1 - np.arange(len(x)))
        gram = (x * weights[:, None]).T @ x + (lam ** len(x)) * delta * np.eye(4)
        weighted = np.linalg.solve(gram, (x * weights[:, None]).T @ y)
        assert np.abs(w2 - weighted).max() <= 1e-8


def test_criterion_4_linear_gaussian_end_to_end_oracle():
    with verdict(4, "refined rollout equals brute-force joint-Gaussian conditioning"):
        start = time.perf_counter()
        horizon = 25
        rng = np.random.default_rng(4242)
        process = np.array([[0.35, 0.05], [0.05, 0.25]])
        meas_covs = [
            np.array([[1.0, -0.2], [-0.2, 0.8]]) * (1.0 + 0.05 * k)
            for k in range(1, horizon + 1)
        ]
        history = np.array([[-1.7, 0.3], [0.4, -1.3]])
        start_pos = history[-1]

        # sample a random-walk truth and noisy per-step observations
        chol_q = np.linalg.cholesky(process)
        observations = []
        position = start_pos.copy()
        for k in range(horizon):
            position = position + chol_q @ rng.standard_normal(2)
            noise = np.linalg.cholesky(meas_covs[k]) @ rng.standard_normal(2)
            observations.append(position + noise)

        # schedule the per-step prior covariances the exact filter would see
        priors = []
        post = np.zeros((2, 2))
        for k in range(horizon):
            prior = post + process
            priors.append(prior)
            post = np.linalg.inv(np.linalg.inv(prior) + np.linalg.inv(meas_covs[k]))
        traces = [p[0, 0] + p[1, 1] for p in priors]
        assert all(b >= a - 1e-12 for a, b in zip(traces, traces[1:]))

        # goal model that reproduces each observation as an anchor mean
        phi = np.diff(history, axis=0).ravel()
        norm = float(phi @ phi)
        goal_params = GoalModelParams(
            anchor_steps=tuple(range(1, horizon + 1)),
            weights=tuple(
                np.outer(phi, observations[k] - start_pos) / norm
                for k in range(horizon)
            ),
            residual_covs=meas_covs,
            history_len=2,
            rotate=False,
        )
        predictor = PredictorParams(
            "ar",
            0.2,
            [0.5 * (p + p.T) for p in priors],  # inverses are symmetric to rounding
            lag=1,
            ar_weights=np.zeros((2, 2)),
        )
        fused_means, fused_covs = rollout_batch(predictor, history[None], horizon, goal_params)

        # independent oracle: condition the explicit joint Gaussian
        cumulative = [np.zeros((2, 2))]
        for _ in range(horizon):
            cumulative.append(cumulative[-1] + process)
        for k in range(1, horizon + 1):
            n = 2 * k
            cov_zz = np.zeros((n, n))
            cov_yz = np.zeros((2, n))
            for i in range(1, k + 1):
                for j in range(1, k + 1):
                    cov_zz[2 * i - 2 : 2 * i, 2 * j - 2 : 2 * j] = cumulative[min(i, j)]
                cov_zz[2 * i - 2 : 2 * i, 2 * i - 2 : 2 * i] += meas_covs[i - 1]
                cov_yz[:, 2 * i - 2 : 2 * i] = cumulative[min(k, i)]
            z_obs = np.concatenate(observations[:k])
            resid = z_obs - np.tile(start_pos, k)
            mean_post = start_pos + cov_yz @ np.linalg.solve(cov_zz, resid)
            cov_post = cumulative[k] - cov_yz @ np.linalg.solve(cov_zz, cov_yz.T)

            assert np.abs(fused_means[0, k - 1] - mean_post).max() <= 1e-6
            rel = np.abs(fused_covs[0, k - 1] - cov_post).max()
            assert rel <= 1e-6 * max(1.0, np.abs(cov_post).max())
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.2f} s"


@pytest.fixture(scope="module")
def lane_change_models():
    train = tr.gen_synthetic("lane_change", 2000, 0.2, seed=101)
    test = tr.gen_synthetic("lane_change", 500, 0.2, seed=102)
    params = tr.fit_predictor("ar", train, lag=3)
    goal_params = tr.fit_goal_model(train, (5, 10, 15, 20, 25), 1e-6)
    dense_goals = tr.fit_goal_model(train, tuple(range(1, 26)), 1e-6)
    return train, test, params, goal_params, dense_goals


def test_criterion_5_limit_equivalences(lane_change_models):
    with verdict(5, "goal covariance scale limits recover vanilla and goal means"):
        _, test, params, goal_params, dense_goals = lane_change_models
        for seg in test.segments[:50]:
            vanilla = rollout_vanilla(params, seg.history)
            refined, _ = rollout_batch(params, seg.history[None], None, goal_params, 1e12)
            gap = refined[0] - np.array([v.mean for v in vanilla])
            assert np.abs(gap).max() <= 1e-6

            goal_means, _ = tr.goal_moments(dense_goals, seg.history[None])
            snapped, _ = rollout_batch(params, seg.history[None], None, dense_goals, 1e-12)
            gap = snapped[0] - goal_means[0]
            assert np.abs(gap).max() <= 1e-6


def test_criterion_6_directional_ablation(lane_change_models):
    with verdict(6, "refined ar beats vanilla at 5s by >=5% and at every horizon"):
        start = time.perf_counter()
        _, test, params, goal_params, _ = lane_change_models
        report = tr.run_ablation(test, {"ar": (params, goal_params)})
        vanilla = report.metrics_for("ar", False).rmse_at_seconds
        refined = report.metrics_for("ar", True).rmse_at_seconds
        assert refined[-1] <= 0.95 * vanilla[-1], (refined[-1], vanilla[-1])
        assert np.all(refined <= vanilla), (refined, vanilla)
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, f"took {elapsed:.2f} s"


def test_anchors_ending_before_the_horizon_beat_vanilla(lane_change_models):
    # past the last anchor the goal means continue the last node-to-node
    # velocity; holding the anchor there gave 18.7 m against vanilla's 6.2 m
    train, test, params, _, _ = lane_change_models
    early_goals = tr.fit_goal_model(train, (3, 17), 1e-6)
    report = tr.run_ablation(test, {"ar": (params, early_goals)})
    vanilla = report.metrics_for("ar", False).rmse_at_seconds[-1]
    refined = report.metrics_for("ar", True).rmse_at_seconds[-1]
    assert refined < vanilla, (refined, vanilla)


def test_criterion_7_protocol_conformance(tmp_path):
    with verdict(7, "ingestion emits the 16+25 @ 0.2 s protocol; split is 70/10/20"):
        csv_path = tmp_path / "raw.csv"
        rng = np.random.default_rng(5)
        with open(csv_path, "w") as fh:
            fh.write("Vehicle_ID,Frame_ID,Global_Time,Local_X,Local_Y,v_Vel\n")
            for vid in range(1, 11):
                speed_fps = rng.uniform(30.0, 60.0)
                for frame in range(140):
                    x = 5.0 + speed_fps * 0.1 * frame
                    y = 12.0 * vid + rng.normal(0.0, 0.1)
                    fh.write(f"{vid},{frame},0,{x:.4f},{y:.4f},{speed_fps:.2f}\n")
        out = tmp_path / "ngsim.jsonl"
        assert cli_main(["ingest-ngsim", "--csv", str(csv_path), "--out", str(out)]) == 0
        ds = tr.read_jsonl(str(out))
        assert len(ds) > 0
        assert ds.dt == pytest.approx(0.2, abs=1e-12)
        for seg in ds.segments:
            assert seg.history.shape == (16, 2)
            assert seg.future.shape == (25, 2)

        train, val, test = tr.split_dataset(ds, (0.7, 0.1, 0.2), seed=99)
        vehicle_sets = [
            {seg.agent_id for seg in part.segments} for part in (train, val, test)
        ]
        assert [len(s) for s in vehicle_sets] == [7, 1, 2]
        assert not (vehicle_sets[0] & vehicle_sets[1])
        assert not (vehicle_sets[0] & vehicle_sets[2])
        assert not (vehicle_sets[1] & vehicle_sets[2])

        again = tr.split_dataset(ds, (0.7, 0.1, 0.2), seed=99)
        for a, b in zip((train, val, test), again):
            assert [s.segment_id for s in a.segments] == [
                s.segment_id for s in b.segments
            ]


def test_criterion_8_metric_correctness():
    with verdict(8, "rmse matches hand-computed fixtures and is self-consistent"):
        one = tr.Dataset(
            [tr.Segment("a", 0, 0.2, np.zeros((1, 2)), np.zeros((1, 2)))],
            0.2, tau=0, horizon=1,
        )
        m = tr.rmse([[[3.0, 4.0]]], one)
        assert abs(m.rmse_overall - 5.0) <= 1e-12

        two = tr.Dataset(
            [
                tr.Segment("a", 0, 0.2, np.zeros((1, 2)), np.zeros((1, 2))),
                tr.Segment("b", 1, 0.2, np.zeros((1, 2)), np.zeros((1, 2))),
            ],
            0.2, tau=0, horizon=1,
        )
        m = tr.rmse([[[3.0, 0.0]], [[0.0, 4.0]]], two)
        assert abs(m.rmse_overall - np.sqrt(12.5)) <= 1e-12

        rng = np.random.default_rng(88)
        ds = tr.gen_synthetic("turn", 30, 0.1, seed=88)
        preds = ds.futures() + rng.normal(0.0, 0.7, size=ds.futures().shape)
        m = tr.rmse(preds, ds)
        assert abs(m.rmse_overall ** 2 - np.mean(m.rmse_per_step ** 2)) <= 1e-9
