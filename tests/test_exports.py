import dataclasses
import importlib
import inspect

import pytest

import trajrefine
from trajrefine.data import extract_segments
from trajrefine.metrics import run_ablation
from trajrefine.predictors import RefineConfig, rollout_batch, rollout_refined

# the package API: the arrays rollout, the fitters, the goal and fusion functions
EXPORTS = [
    "AblationReport", "AblationRow", "Dataset", "GoalModelParams", "Metrics",
    "PredictorParams", "Segment", "SingularInnovationError", "Track",
    "cov_from_params", "downsample", "extract_segments", "fit_ar_rls", "fit_goal_model",
    "fit_predictor", "fuse", "gain_update", "gen_synthetic", "goal_moments", "info_fuse",
    "log_density", "parse_ngsim_csv", "read_jsonl", "rmse", "rollout_batch", "run_ablation",
    "split_dataset", "world_covs", "write_jsonl",
]
# the benchmark's one-segment entry points and their config, each bound only in its module
ONE_SEGMENT = {"rollout": "predictors", "rollout_vanilla": "predictors",
               "rollout_refined": "predictors", "RefineConfig": "predictors",
               "Estimate": "fusion", "Cov2": "gaussian", "params_from_cov": "gaussian"}


def test_every_exported_name_resolves():
    assert len(set(trajrefine.__all__)) == len(trajrefine.__all__)
    missing = [name for name in trajrefine.__all__ if not hasattr(trajrefine, name)]
    assert missing == []


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from trajrefine import *", namespace)
    assert set(trajrefine.__all__) <= set(namespace)


def test_the_package_exports_the_arrays_api():
    assert sorted(trajrefine.__all__) == sorted(EXPORTS)
    assert [name for name in EXPORTS if not hasattr(trajrefine, name)] == []


@pytest.mark.parametrize("name,module", ONE_SEGMENT.items())
def test_one_segment_entry_points_live_only_in_their_modules(name, module):
    assert not hasattr(trajrefine, name)
    assert name not in trajrefine.__all__
    assert hasattr(importlib.import_module(f"trajrefine.{module}"), name)


@pytest.mark.parametrize("func,names", [
    (rollout_batch, ["params", "histories", "horizon", "goal_params", "goal_cov_scale"]),
    (run_ablation, ["test", "models", "goal_cov_scale"]),
], ids=["rollout_batch", "run_ablation"])
def test_the_arrays_api_takes_the_goal_scale_as_a_float(func, names):
    parameters = inspect.signature(func).parameters
    assert list(parameters) == names
    assert parameters["goal_cov_scale"].default == 1.0


def test_refine_config_is_only_the_flag_rollout_dispatches_on():
    assert [field.name for field in dataclasses.fields(RefineConfig)] == ["refine_enabled"]


def test_rollout_refined_takes_no_config():
    parameters = inspect.signature(rollout_refined).parameters
    assert list(parameters) == ["params", "goal_params", "history", "horizon"]
    assert parameters["horizon"].default is None


def test_extract_segments_takes_no_source():
    assert list(inspect.signature(extract_segments).parameters) == [
        "tracks", "tau", "horizon", "stride"]
    assert extract_segments([]).source == "ngsim"
