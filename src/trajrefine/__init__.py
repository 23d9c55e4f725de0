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
from .fusion import (
    Estimate,
    SingularInnovationError,
    fuse,
    info_fuse,
    rls_gain,
    rls_update,
)
from .gaussian import (
    Cov2,
    Gaussian2D,
    cov_from_params,
    is_psd,
    log_density,
    params_from_cov,
)
from .goals import (
    GoalAnchor,
    GoalModelParams,
    GoalSet,
    fit_goal_model,
    goal_moments,
    predict_goals,
)
from .metrics import AblationReport, AblationRow, Metrics, rmse, run_ablation
from .predictors import (
    PredictorParams,
    RefineConfig,
    fit_ar_rls,
    fit_predictor,
    rollout,
    rollout_batch,
    rollout_refined,
    rollout_vanilla,
)

__version__ = "0.1.0"

__all__ = [
    "AblationReport",
    "AblationRow",
    "Cov2",
    "Dataset",
    "Estimate",
    "Gaussian2D",
    "GoalAnchor",
    "GoalModelParams",
    "GoalSet",
    "Metrics",
    "PredictorParams",
    "RefineConfig",
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
    "gen_synthetic",
    "goal_moments",
    "info_fuse",
    "is_psd",
    "log_density",
    "params_from_cov",
    "parse_ngsim_csv",
    "predict_goals",
    "read_jsonl",
    "rls_gain",
    "rls_update",
    "rmse",
    "rollout",
    "rollout_batch",
    "rollout_refined",
    "rollout_vanilla",
    "run_ablation",
    "split_dataset",
    "write_jsonl",
]
