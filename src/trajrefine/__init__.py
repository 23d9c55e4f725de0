"""Goal-anchored refinement of rollout trajectory predictors.

Rollout predictors accumulate error step by step; this package suppresses
that drift by fusing each raw rollout estimate with a pseudo-measurement
derived from goal points predicted once per segment, using gain-form
recursive least-squares updates over bivariate Gaussians.
"""

from .data import (
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
from .fusion import SingularInnovationError, fuse, gain_update, info_fuse
from .gaussian import cov_from_params, log_density
from .goals import GoalModelParams, fit_goal_model, goal_moments, world_covs
from .metrics import AblationReport, AblationRow, Metrics, rmse, run_ablation
from .predictors import (
    PredictorParams,
    fit_ar_rls,
    fit_predictor,
    rollout_batch,
)

__version__ = "0.1.0"

__all__ = [
    "AblationReport",
    "AblationRow",
    "Dataset",
    "GoalModelParams",
    "Metrics",
    "PredictorParams",
    "Segment",
    "SingularInnovationError",
    "Track",
    "cov_from_params",
    "downsample",
    "extract_segments",
    "fit_ar_rls",
    "fit_goal_model",
    "fit_predictor",
    "fuse",
    "gain_update",
    "gen_synthetic",
    "goal_moments",
    "info_fuse",
    "log_density",
    "parse_ngsim_csv",
    "read_jsonl",
    "rmse",
    "rollout_batch",
    "run_ablation",
    "split_dataset",
    "world_covs",
    "write_jsonl",
]
