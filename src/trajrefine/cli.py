"""Command-line pipeline: generate/ingest data, fit, predict, evaluate, ablate.

Subcommands: gen-synth, ingest-ngsim, fit, predict, eval, ablate.
Exit codes: 0 success, 1 I/O failure, 2 usage or validation error.

Every option can also come from a flat ``key = value`` config file passed
with --config; precedence is CLI flag > config file > built-in default, and
unknown config keys are rejected.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .data import (
    Dataset,
    downsample,
    extract_segments,
    gen_synthetic,
    parse_ngsim_csv,
    read_jsonl,
    write_jsonl,
)
from .gaussian import Cov2, params_from_cov
from .goals import GoalModelParams, fit_goal_model
from .metrics import rmse, run_ablation
from .predictors import (
    BACKBONES,
    PredictorParams,
    RefineConfig,
    fit_predictor,
    rollout_batch,
)

MODEL_VERSION = 1


# ---------------------------------------------------------------------------
# option handling: CLI flag > config file > default
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Opt:
    flag: str
    convert: Callable[[str], Any]
    default: Any = None
    required: bool = False
    choices: tuple[str, ...] | None = None
    help: str = ""

    @property
    def dest(self) -> str:
        return self.flag.replace("-", "_")


def _on_off(raw: str) -> bool:
    return raw == "on"


def _int_list(raw: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in raw.split(",") if tok.strip())


def _str_list(raw: str) -> tuple[str, ...]:
    return tuple(tok.strip() for tok in raw.split(",") if tok.strip())


def _load_config(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}: line {lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def _merge(options: list[Opt], args: argparse.Namespace) -> argparse.Namespace:
    config = _load_config(args.config) if args.config else {}
    merged = argparse.Namespace()
    for opt in options:
        raw = getattr(args, opt.dest)
        config_raw = config.pop(opt.dest, None)
        if raw is None:
            raw = config_raw
        if raw is None:
            value = opt.default
        else:
            raw = str(raw)
            if opt.choices is not None and raw not in opt.choices:
                raise ValueError(
                    f"--{opt.flag}: invalid value {raw!r} (choose from "
                    f"{', '.join(opt.choices)})"
                )
            value = opt.convert(raw)
        if value is None and opt.required:
            raise ValueError(f"missing required option --{opt.flag}")
        setattr(merged, opt.dest, value)
    if config:
        raise ValueError(f"unknown config keys: {', '.join(sorted(config))}")
    return merged


def _add_command(subparsers, name: str, options: list[Opt], func, help_text: str):
    sub = subparsers.add_parser(name, help=help_text)
    for opt in options:
        sub.add_argument(f"--{opt.flag}", choices=opt.choices, help=opt.help)
    sub.add_argument("--config", help="flat key = value config file")
    sub.set_defaults(func=func, options=options)


# ---------------------------------------------------------------------------
# model file serialization
# ---------------------------------------------------------------------------

def _cov_triplet(c: Cov2) -> list[float]:
    return [c.sxx, c.sxy, c.syy]


def save_model(
    path: str, predictor: PredictorParams, goal_model: GoalModelParams, protocol: dict
) -> None:
    doc = {
        "version": MODEL_VERSION,
        "protocol": protocol,
        "predictor": {
            "backbone": predictor.backbone,
            "dt": predictor.dt,
            "window": predictor.window,
            "lag": predictor.lag,
            "ar_weights": None
            if predictor.ar_weights is None
            else predictor.ar_weights.tolist(),
            "step_covs": [_cov_triplet(c) for c in predictor.step_covs],
        },
        "goal_model": {
            "anchor_steps": list(goal_model.anchor_steps),
            "weights": [w.tolist() for w in goal_model.weights],
            "residual_covs": [_cov_triplet(c) for c in goal_model.residual_covs],
            "history_len": goal_model.history_len,
            "rotate": goal_model.rotate,
        },
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def load_model(path: str) -> tuple[PredictorParams, GoalModelParams, dict]:
    """Read a model file; any missing key or invalid value names the file."""
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("version") != MODEL_VERSION:
        raise ValueError(f"{path}: unsupported model file version {doc.get('version')}")
    try:
        p = doc["predictor"]
        predictor = PredictorParams(
            backbone=p["backbone"],
            dt=p["dt"],
            step_covs=tuple(Cov2(*triple) for triple in p["step_covs"]),
            window=p["window"],
            lag=p["lag"],
            ar_weights=None if p["ar_weights"] is None else np.array(p["ar_weights"]),
        )
        g = doc["goal_model"]
        goal_model = GoalModelParams(
            anchor_steps=tuple(g["anchor_steps"]),
            weights=tuple(np.array(w) for w in g["weights"]),
            residual_covs=tuple(Cov2(*triple) for triple in g["residual_covs"]),
            history_len=g["history_len"],
            rotate=g["rotate"],
        )
        return predictor, goal_model, doc["protocol"]
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc} in model file") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: invalid model file: {exc}") from None


def _check_protocol(protocol: dict, ds: Dataset, path: str) -> None:
    actual = {"dt": ds.dt, "tau": ds.tau, "horizon": ds.horizon}
    for key, expected in protocol.items():
        if abs(actual[key] - expected) > 1e-9:
            raise ValueError(
                f"{path}: protocol mismatch: {key}={actual[key]} in data, "
                f"model expects {expected}"
            )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

_GEN_OPTS = [
    Opt("scenario", str, required=True, choices=("cv", "ca", "lane-change", "turn")),
    Opt("n", int, required=True, help="number of segments"),
    Opt("noise", float, 0.0, help="position noise std in meters"),
    Opt("seed", int, 0),
    Opt("out", str, required=True, help="output dataset JSONL"),
    Opt("tau", int, 15, help="history intervals (history points = tau+1)"),
    Opt("horizon", int, 25, help="future points"),
    Opt("dt", float, 0.2),
]


def cmd_gen_synth(o) -> int:
    ds = gen_synthetic(
        o.scenario.replace("-", "_"), o.n, o.noise, o.seed,
        tau=o.tau, horizon=o.horizon, dt=o.dt,
    )
    write_jsonl(ds, o.out)
    print(f"wrote {len(ds)} segments to {o.out}")
    return 0


_INGEST_OPTS = [
    Opt("csv", str, required=True, help="NGSIM-format CSV (feet, 10 Hz)"),
    Opt("out", str, required=True),
    Opt("stride", int, 10, help="window stride in (downsampled) samples"),
    Opt("downsample", int, 2),
    Opt("tau", int, 15),
    Opt("horizon", int, 25),
]


def cmd_ingest_ngsim(o) -> int:
    tracks = [downsample(t, o.downsample) for t in parse_ngsim_csv(o.csv)]
    ds = extract_segments(tracks, o.tau, o.horizon, o.stride)
    write_jsonl(ds, o.out)
    print(f"wrote {len(ds)} segments from {len(tracks)} tracks to {o.out}")
    return 0


_FIT_OPTS = [
    Opt("train", str, required=True, help="training dataset JSONL"),
    Opt("val", str, help="validation dataset JSONL (calibration split)"),
    Opt("out", str, required=True, help="output model JSON"),
    Opt("predictor", str, "ar", choices=BACKBONES),
    Opt("lag", int, 3, help="ar displacement order"),
    Opt("window", int, help="cv/ca position window (default 2 for cv, 3 for ca)"),
    Opt("ridge", float, 1e-6),
    Opt("anchors", _int_list, (5, 10, 15, 20, 25), help="goal anchor steps"),
    Opt("rotate", _on_off, True, choices=("on", "off"), help="ego-frame rotation"),
]


def _fit_models(o, train: Dataset, val: Dataset | None, backbone: str):
    window = o.window if o.window is not None else (3 if backbone == "ca" else 2)
    predictor = fit_predictor(
        backbone, train, val, window=window, lag=o.lag, ridge_lambda=o.ridge
    )
    goal_model = fit_goal_model(train, o.anchors, o.ridge, val, rotate=o.rotate)
    return predictor, goal_model


def cmd_fit(o) -> int:
    train = read_jsonl(o.train)
    if not train.segments:
        raise ValueError(f"{o.train}: training file contains no segments")
    val = read_jsonl(o.val) if o.val else None
    predictor, goal_model = _fit_models(o, train, val, o.predictor)
    save_model(
        o.out, predictor, goal_model,
        {"dt": train.dt, "tau": train.tau, "horizon": train.horizon},
    )
    print(f"fitted {o.predictor} on {len(train)} segments -> {o.out}")
    traces = " ".join(
        f"{k}:{predictor.step_covs[k - 1].trace:.4f}"
        for k in range(1, predictor.horizon + 1)
    )
    print(f"rollout error trace by step: {traces}")
    anchors = " ".join(
        f"{s}:{c.trace:.4f}"
        for s, c in zip(goal_model.anchor_steps, goal_model.residual_covs)
    )
    print(f"goal residual trace by anchor: {anchors}")
    return 0


_PREDICT_OPTS = [
    Opt("model", str, required=True),
    Opt("data", str, required=True),
    Opt("out", str, required=True, help="output predictions JSONL"),
    Opt("refine", _on_off, True, choices=("on", "off")),
    Opt("goal-cov-scale", float, 1.0),
    Opt("epsilon", float, 0.05),
    Opt("beta", float, 0.5),
    Opt("feedback", str, "fused", choices=("fused", "raw")),
]


def cmd_predict(o) -> int:
    predictor, goal_model, protocol = load_model(o.model)
    ds = read_jsonl(o.data)
    if ds.segments:
        _check_protocol(protocol, ds, o.data)
    cfg = RefineConfig(
        refine_enabled=o.refine,
        epsilon=o.epsilon,
        beta=o.beta,
        feedback=o.feedback,
        goal_cov_scale=o.goal_cov_scale,
    )
    mode = "refined" if o.refine else "vanilla"
    means, covs = [], []
    if ds.segments:
        goals = goal_model if o.refine else None
        means, covs = rollout_batch(predictor, ds.histories(), ds.horizon, goals, cfg)
    with open(o.out, "w") as fh:
        for seg, seg_means, seg_covs in zip(ds.segments, means, covs):
            rounded = [[round(float(x), 6), round(float(y), 6)] for x, y in seg_means]
            # full precision: a sigma rounded to 6 dp can become an invalid 0
            sigmas = [list(params_from_cov(Cov2.from_matrix(c))) for c in seg_covs]
            line = {"segment_id": seg.segment_id, "means": rounded,
                    "sigmas": sigmas, "mode": mode}
            fh.write(json.dumps(line, separators=(",", ":")) + "\n")
    print(f"wrote {len(ds)} {mode} predictions to {o.out}")
    return 0


_EVAL_OPTS = [
    Opt("predictions", str, required=True),
    Opt("data", str, required=True),
    Opt("out", str, required=True, help="output metrics CSV"),
    Opt("backbone", str, "-", help="backbone label for the CSV row"),
]


def _read_predictions(path: str) -> tuple[dict[str, np.ndarray], str]:
    means: dict[str, np.ndarray] = {}
    modes = set()
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: line {lineno}: invalid JSON ({exc.msg})") from None
            for key in ("segment_id", "means", "mode"):
                if key not in obj:
                    raise ValueError(f"{path}: line {lineno}: missing field '{key}'")
            means[str(obj["segment_id"])] = np.asarray(obj["means"], dtype=float)
            modes.add(obj["mode"])
    if len(modes) > 1:
        raise ValueError(f"{path}: mixed prediction modes {sorted(modes)}")
    return means, (modes.pop() if modes else "vanilla")


def cmd_eval(o) -> int:
    pred_means, mode = _read_predictions(o.predictions)
    ds = read_jsonl(o.data)
    ids = [seg.segment_id for seg in ds.segments]
    missing = [sid for sid in ids if sid not in pred_means]
    if missing or len(pred_means) != len(ids):
        raise ValueError(
            f"{o.predictions}: segment ids do not match {o.data} "
            f"({len(pred_means)} predictions vs {len(ids)} segments)"
        )
    stacked = np.stack([pred_means[sid] for sid in ids])
    m = rmse(stacked, ds)
    refine = "on" if mode == "refined" else "off"
    header = ["backbone", "refine", "rmse_overall"]
    header += [f"rmse_{i + 1}s" for i in range(len(m.rmse_at_seconds))]
    row = [o.backbone, refine, f"{m.rmse_overall:.6f}"]
    row += [f"{v:.6f}" for v in m.rmse_at_seconds]
    with open(o.out, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.write(",".join(row) + "\n")
    print(f"rmse_overall={m.rmse_overall:.6f} -> {o.out}")
    return 0


_ABLATE_OPTS = [
    Opt("train", str, required=True),
    Opt("val", str),
    Opt("test", str, required=True),
    Opt("out", str, required=True, help="output report CSV"),
    Opt("predictors", _str_list, ("ar",), help="comma-separated backbones"),
    Opt("lag", int, 3),
    Opt("window", int),
    Opt("ridge", float, 1e-6),
    Opt("anchors", _int_list, (5, 10, 15, 20, 25)),
    Opt("rotate", _on_off, True, choices=("on", "off")),
    Opt("goal-cov-scale", float, 1.0),
    Opt("epsilon", float, 0.05),
    Opt("beta", float, 0.5),
    Opt("feedback", str, "fused", choices=("fused", "raw")),
]


def cmd_ablate(o) -> int:
    train = read_jsonl(o.train)
    if not train.segments:
        raise ValueError(f"{o.train}: training file contains no segments")
    val = read_jsonl(o.val) if o.val else None
    test = read_jsonl(o.test)
    models = {}
    for backbone in o.predictors:
        if backbone not in BACKBONES:
            raise ValueError(f"unknown backbone {backbone!r}; valid: {BACKBONES}")
        models[backbone] = _fit_models(o, train, val, backbone)
    cfg = RefineConfig(
        epsilon=o.epsilon,
        beta=o.beta,
        feedback=o.feedback,
        goal_cov_scale=o.goal_cov_scale,
    )
    report = run_ablation(test, models, cfg)
    with open(o.out, "w") as fh:
        fh.write(report.to_csv())
    for backbone in sorted(models):
        deltas = report.deltas(backbone)
        print(f"{backbone}: improvement by second "
              + " ".join(f"{d:+.3f}" for d in deltas))
    print(f"report -> {o.out}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trajrefine",
        description="Goal-anchored refinement of rollout trajectory predictors",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_command(subparsers, "gen-synth", _GEN_OPTS, cmd_gen_synth,
                 "generate a synthetic dataset")
    _add_command(subparsers, "ingest-ngsim", _INGEST_OPTS, cmd_ingest_ngsim,
                 "ingest an NGSIM-format CSV")
    _add_command(subparsers, "fit", _FIT_OPTS, cmd_fit,
                 "fit a backbone and goal model")
    _add_command(subparsers, "predict", _PREDICT_OPTS, cmd_predict,
                 "predict futures for a dataset")
    _add_command(subparsers, "eval", _EVAL_OPTS, cmd_eval,
                 "score predictions against ground truth")
    _add_command(subparsers, "ablate", _ABLATE_OPTS, cmd_ablate,
                 "compare vanilla and refined rollouts")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        merged = _merge(args.options, args)
        return args.func(merged)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
