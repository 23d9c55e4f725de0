"""Command-line pipeline: generate/ingest data, fit, predict, evaluate, ablate.

Subcommands: gen-synth, ingest-ngsim, fit, predict, eval, ablate.
Exit codes: 0 success, 1 I/O failure, 2 usage or validation error.

Every option can also come from a flat ``key = value`` config file passed
with --config; precedence is CLI flag > config file > default (the
library's own wherever the CLI sets none), and unknown config keys are rejected.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable

import numpy as np

from .data import (
    Dataset,
    check_protocol,
    downsample,
    extract_segments,
    gen_synthetic,
    json_points,
    json_value,
    parse_ngsim_csv,
    protocol_mismatch,
    read_jsonl,
    read_predictions,
    reading,
    write_jsonl,
    write_predictions,
)
from .gaussian import params_from_covs
from .goals import GoalModelParams, fit_goal_model
from .metrics import AblationReport, AblationRow, rmse, run_ablation
from .predictors import (
    BACKBONES,
    PredictorParams,
    RefineConfig,
    fit_predictor,
    rollout_batch,
)

MODEL_VERSION = 1
PROTOCOL_KEYS = ("dt", "tau", "horizon")  # a model file's protocol, checked against data
# the keys a model file may hold, at its top level (None) and in each model's section
MODEL_KEYS = {None: ("version", "protocol", "predictor", "goal_model"),
              "predictor": ("backbone", "dt", "window", "lag", "ar_weights", "step_covs"),
              "goal_model": ("anchor_steps", "weights", "residual_covs", "history_len", "rotate")}


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


def _str_list(raw: str) -> tuple[str, ...]:
    tokens = tuple(tok.strip() for tok in raw.split(","))
    if not all(tokens):
        raise ValueError("empty list item")
    return tokens


def _int_list(raw: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in _str_list(raw))


def _load_config(path: str) -> dict[str, str]:
    """A config file's ``key = value`` lines; ``#`` at a line's start or after whitespace
    opens a comment, and a key may appear once."""
    values: dict[str, str] = {}
    first_line: dict[str, int] = {}
    with reading(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = re.split(r"(?<!\S)#", line, maxsplit=1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}: line {lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            if (first := first_line.setdefault(key, lineno)) != lineno:
                raise ValueError(f"{path}: line {lineno}: key {key!r} repeats line {first}")
            values[key] = value.strip()
    return values


def _merge(options: list[Opt], args: argparse.Namespace) -> argparse.Namespace:
    if args.config == "":
        raise ValueError("--config: invalid value ''")
    config = _load_config(args.config) if args.config is not None else {}
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
            try:  # an empty value, such as a config line "out =", is never meant
                if not raw or opt.choices is not None and raw not in opt.choices:
                    raise ValueError
                value = opt.convert(raw)
            except ValueError:
                choices = f" (choose from {', '.join(opt.choices)})" if opt.choices else ""
                raise ValueError(f"--{opt.flag}: invalid value {raw!r}{choices}") from None
        if value is None and opt.required:
            raise ValueError(f"missing required option --{opt.flag}")
        setattr(merged, opt.dest, value)
    if config:
        raise ValueError(f"unknown config keys: {', '.join(sorted(config))}")
    return merged


def _given(**kwargs) -> dict[str, Any]:
    """The keyword arguments that are set; the library's defaults apply to the rest."""
    return {key: value for key, value in kwargs.items() if value is not None}


def _add_command(subparsers, name: str, options: list[Opt], func, help_text: str):
    sub = subparsers.add_parser(name, help=help_text)
    for opt in options:
        sub.add_argument(f"--{opt.flag}", choices=opt.choices, help=opt.help)
    sub.add_argument("--config", help="flat key = value config file")
    # by name: main looks the function up per call, so a later rebinding of it takes effect
    sub.set_defaults(func=func.__name__, options=options)


# ---------------------------------------------------------------------------
# model file serialization
# ---------------------------------------------------------------------------

def _covs(triples, name: str) -> np.ndarray:
    """(K, 2, 2) covariances of [sxx, sxy, syy] triples."""
    rows = "[sxx, sxy, syy] triples"
    t = json_points(triples, name, rows)
    if t.ndim != 2 or t.shape[1] != 3:
        raise ValueError(f"{name} must be an array of {rows}")
    return t[:, [0, 1, 1, 2]].reshape(-1, 2, 2)


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
            "step_covs": predictor.step_covs[:, [0, 0, 1], [0, 1, 1]].tolist(),
        },
        "goal_model": {
            "anchor_steps": list(goal_model.anchor_steps),
            "weights": [w.tolist() for w in goal_model.weights],
            "residual_covs": goal_model.residual_covs[:, [0, 0, 1], [0, 1, 1]].tolist(),
            "history_len": goal_model.history_len,
            "rotate": goal_model.rotate,
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc) + "\n")  # json.dump would take the pure-Python encoder


def load_model(path: str) -> tuple[PredictorParams, GoalModelParams, dict]:
    """Read a model file; malformed JSON, a missing key or a bad value names the
    file. Sizes must be JSON integers, ``rotate`` a boolean, every array entry a
    number, the protocol the models' own dt, tau and horizon, the anchors within it."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError("expected a JSON object")
        if doc.get("version") != MODEL_VERSION:
            raise ValueError(f"unsupported model file version {doc.get('version')}")
        for section, keys in MODEL_KEYS.items():
            part = doc if section is None else doc.get(section)
            if isinstance(part, dict) and (unknown := [key for key in part if key not in keys]):
                where = "" if section is None else f" in {section}"
                raise ValueError(f"unknown key {unknown[0]!r}{where}")
        protocol = doc["protocol"]
        if not isinstance(protocol, dict) or set(protocol) != set(PROTOCOL_KEYS):
            raise ValueError("protocol must map exactly dt, tau and horizon")
        for key, kind in zip(PROTOCOL_KEYS, ("number", "integer", "integer")):
            json_value(protocol, key, kind)
        p = doc["predictor"]
        predictor = PredictorParams(
            backbone=p["backbone"],
            dt=json_value(p, "dt", "number"),
            step_covs=_covs(p["step_covs"], "step_covs"),
            window=json_value(p, "window", "integer"),
            lag=json_value(p, "lag", "integer"),
            ar_weights=None if p["ar_weights"] is None
            else json_points(p["ar_weights"], "ar_weights"),
        )
        g = doc["goal_model"]
        goal_model = GoalModelParams(
            anchor_steps=g["anchor_steps"],
            weights=tuple(json_points(w, "weights") for w in g["weights"]),
            residual_covs=_covs(g["residual_covs"], "residual_covs"),
            history_len=json_value(g, "history_len", "integer"),
            rotate=json_value(g, "rotate", "boolean"),
        )
        fitted = check_protocol(predictor.dt, goal_model.history_len - 1, predictor.horizon)
        if key := protocol_mismatch(protocol, fitted, PROTOCOL_KEYS):
            raise ValueError(f"protocol {key}={protocol[key]} does not match the "
                             f"models' {key}={fitted[key]}")
        check_protocol(**protocol)  # a models' dt of 1e-9 or less matches a dt <= 0
        if (last := goal_model.anchor_steps[-1]) > predictor.horizon:
            raise ValueError(
                f"anchor step {last} exceeds the protocol horizon {predictor.horizon}")
        return predictor, goal_model, protocol
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc} in model file") from None
    except (TypeError, ValueError, RecursionError) as exc:  # json.load: nested too deeply
        raise ValueError(f"{path}: invalid model file: {exc}") from None


def _check_protocol(protocol: dict, ds: Dataset, path: str) -> None:
    if key := protocol_mismatch(vars(ds), protocol, PROTOCOL_KEYS):
        raise ValueError(f"{path}: protocol mismatch: {key}={getattr(ds, key)} in data, "
                         f"model expects {protocol[key]}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

_GEN_OPTS = [
    Opt("scenario", str, required=True, choices=("cv", "ca", "lane-change", "turn")),
    Opt("n", int, required=True, help="number of segments"),
    Opt("noise", float, 0.0, help="position noise std in meters"),
    Opt("seed", int, 0),
    Opt("out", str, required=True, help="output dataset JSONL"),
    Opt("tau", int, help="history intervals (history points = tau+1)"),
    Opt("horizon", int, help="future points"),
    Opt("dt", float),
]


def cmd_gen_synth(o) -> int:
    ds = gen_synthetic(
        o.scenario.replace("-", "_"), o.n, o.noise, o.seed,
        **_given(tau=o.tau, horizon=o.horizon, dt=o.dt),
    )
    write_jsonl(ds, o.out)
    print(f"wrote {len(ds)} segments to {o.out}")
    return 0


_INGEST_OPTS = [
    Opt("csv", str, required=True, help="NGSIM-format CSV (feet, 10 Hz)"),
    Opt("out", str, required=True),
    Opt("stride", int, help="window stride in (downsampled) samples"),
    Opt("downsample", int),
    Opt("tau", int),
    Opt("horizon", int),
]


def cmd_ingest_ngsim(o) -> int:
    factor = _given(factor=o.downsample)
    tracks = [downsample(t, **factor) for t in parse_ngsim_csv(o.csv)]
    ds = extract_segments(tracks, **_given(tau=o.tau, horizon=o.horizon, stride=o.stride))
    write_jsonl(ds, o.out)
    print(f"wrote {len(ds)} segments from {len(tracks)} tracks to {o.out}")
    return 0


_MODEL_OPTS = [
    Opt("lag", int, help="ar displacement order"),
    Opt("window", int, help="cv/ca position window (default 2 for cv, 3 for ca)"),
    Opt("ridge", float),
    Opt("anchors", _int_list, help="goal anchor steps"),
    Opt("rotate", _on_off, choices=("on", "off"), help="ego-frame rotation"),
]

_REFINE_OPTS = [Opt("goal-cov-scale", float)]

_FIT_OPTS = [
    Opt("train", str, required=True, help="training dataset JSONL"),
    Opt("val", str, help="validation dataset JSONL (calibration split)"),
    Opt("out", str, required=True, help="output model JSON"),
    Opt("predictor", str, "ar", choices=BACKBONES),
    *_MODEL_OPTS,
]


def _read_segments(path: str, what: str = "dataset") -> Dataset:
    """Read a dataset file that must hold at least one segment."""
    if not (ds := read_jsonl(path)).segments:
        raise ValueError(f"{path}: {what} contains no segments")
    return ds


def _fit_models(o, backbones) -> tuple[Dataset, dict]:
    """Read --train/--val and fit one goal model plus each backbone on them."""
    train = _read_segments(o.train, "training file")
    val = _read_segments(o.val, "validation file") if o.val else None
    goal_model = fit_goal_model(train, val=val, **_given(
        anchor_steps=o.anchors, ridge_lambda=o.ridge, rotate=o.rotate))
    kwargs = _given(window=o.window, lag=o.lag, ridge_lambda=o.ridge)
    return train, {bb: (fit_predictor(bb, train, val, **kwargs), goal_model)
                   for bb in backbones}


def _refine_config(o) -> RefineConfig:
    return RefineConfig(**_given(goal_cov_scale=o.goal_cov_scale))


def _traces(steps, covs: np.ndarray) -> str:
    return " ".join(f"{s}:{t:.4f}" for s, t in zip(steps, covs[:, 0, 0] + covs[:, 1, 1]))


def cmd_fit(o) -> int:
    train, models = _fit_models(o, [o.predictor])
    predictor, goal_model = models[o.predictor]
    save_model(o.out, predictor, goal_model, check_protocol(train.dt, train.tau, train.horizon))
    print(f"fitted {o.predictor} on {len(train)} segments -> {o.out}")
    steps = range(1, predictor.horizon + 1)
    print(f"rollout error trace by step: {_traces(steps, predictor.step_covs)}")
    anchors = _traces(goal_model.anchor_steps, goal_model.residual_covs)
    print(f"goal residual trace by anchor: {anchors}")
    return 0


_PREDICT_OPTS = [
    Opt("model", str, required=True),
    Opt("data", str, required=True),
    Opt("out", str, required=True, help="output predictions JSONL"),
    Opt("refine", _on_off, True, choices=("on", "off")),
    *_REFINE_OPTS,
]


def cmd_predict(o) -> int:
    predictor, goal_model, protocol = load_model(o.model)
    ds = read_jsonl(o.data)
    cfg = _refine_config(o)
    mode = "refined" if o.refine else "vanilla"
    means = sigmas = ()
    if ds.segments:
        _check_protocol(protocol, ds, o.data)
        goals = goal_model if o.refine else None
        means, covs = rollout_batch(predictor, ds.histories(), ds.horizon, goals, cfg)
        sigmas = params_from_covs(covs)
    write_predictions(o.out, [seg.segment_id for seg in ds.segments], means, sigmas, mode)
    print(f"wrote {len(ds)} {mode} predictions to {o.out}")
    return 0


_EVAL_OPTS = [
    Opt("predictions", str, required=True),
    Opt("data", str, required=True),
    Opt("out", str, required=True, help="output metrics CSV"),
    Opt("backbone", str, "-", help="backbone label for the CSV row"),
]


def cmd_eval(o) -> int:
    ds = _read_segments(o.data)
    predictions = read_predictions(o.predictions, ds.horizon)
    if len(modes := {mode for *_, mode in predictions}) > 1:
        raise ValueError(f"{o.predictions}: mixed prediction modes {sorted(modes)}")
    pred_means = {sid: means for sid, means, _ in predictions}
    ids = [seg.segment_id for seg in ds.segments]
    if sorted(pred_means) != sorted(ids):
        raise ValueError(
            f"{o.predictions}: segment ids do not match {o.data} "
            f"({len(pred_means)} predictions vs {len(ids)} segments)"
        )
    m = rmse([pred_means[sid] for sid in ids], ds)
    row = AblationRow(o.backbone, modes == {"refined"}, m)
    with open(o.out, "w", encoding="utf-8") as fh:
        fh.write(AblationReport((row,)).to_csv(deltas=False))
    print(f"rmse_overall={m.rmse_overall:.6f} -> {o.out}")
    return 0


_ABLATE_OPTS = [
    Opt("train", str, required=True),
    Opt("val", str),
    Opt("test", str, required=True),
    Opt("out", str, required=True, help="output report CSV"),
    Opt("predictors", _str_list, ("ar",), help="comma-separated backbones"),
    *_MODEL_OPTS,
    *_REFINE_OPTS,
]


def cmd_ablate(o) -> int:
    test = _read_segments(o.test)
    train, models = _fit_models(o, o.predictors)
    _check_protocol(vars(train), test, o.test)
    report = run_ablation(test, models, _refine_config(o))
    with open(o.out, "w", encoding="utf-8") as fh:
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

@lru_cache(maxsize=None)  # built once a process: every command parses with the same parser
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
        return globals()[args.func](merged)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
