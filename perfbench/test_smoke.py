"""Smoke test of the benchmark at a tiny size.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every metric named in BENCHMARK.json is printed with its unit,
that corrupted outputs trip the output checks and fail the command, and
that the runner refuses a directory without the program's sources.
"""

import json
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import trajrefine  # noqa: E402
from trajrefine import gaussian, predictors  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_benchmark(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_its_unit(workload, trace):
    proc = run_benchmark(workload, trace)
    assert proc.returncode == 0, proc.stderr
    record, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert record["record"]["failed_frac"] == 0.0
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: value["unit"] for name, value in result["metrics"].items()
    }
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float)) and np.isfinite(value["value"])
    if not trace:
        assert all(value["value"] > 0 for value in result["metrics"].values())


def _rollout():
    train = trajrefine.gen_synthetic("lane_change", 40, 0.2, seed=5)
    params = predictors.fit_predictor("ar", train, lag=3)
    goal_model = trajrefine.fit_goal_model(train)
    return predictors.rollout_refined(params, goal_model, train.segments[0].history)


def test_valid_rollout_passes_the_check():
    means = checks.check_estimates(_rollout(), 25, gaussian.params_from_cov, "ok")
    assert means.shape == (25, 2)


@pytest.mark.parametrize("corrupt", [
    lambda out: out[:-1],
    lambda out: out[:3] + [SimpleNamespace(mean=np.array([np.nan, 0.0]), cov=out[3].cov)],
    lambda out: out[:3] + [SimpleNamespace(mean=out[3].mean,
                                           cov=gaussian.Cov2(1.0, 2.0, 1.0))],
])
def test_corrupted_prediction_trips_the_check(corrupt):
    with pytest.raises(checks.CheckFailed):
        checks.check_estimates(corrupt(_rollout()), 25, gaussian.params_from_cov, "bad")


def test_corrupted_predictions_file_trips_the_check(tmp_path):
    line = {"segment_id": "a", "means": [[0.0, 0.0]] * 25,
            "sigmas": [[1.0, 1.0, 0.0]] * 24 + [[0.0, 1.0, 0.0]], "mode": "refined"}
    path = tmp_path / "preds.jsonl"
    path.write_text(json.dumps(line) + "\n")
    with pytest.raises(checks.CheckFailed):
        checks.check_predictions_file(str(path), ["a"], 25)


def test_failing_check_fails_the_command(monkeypatch, capsys):
    original = predictors.rollout

    def corrupted(*args, **kwargs):
        out = original(*args, **kwargs)
        return out[:-1]

    monkeypatch.setattr(predictors, "rollout", corrupted)
    code = run.main(["--workload", "online-refine", "--seed", "1", "--seconds", "0.2",
                     "--trace", "0", "--tiny"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] == 1


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_benchmark("refine-batch", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
