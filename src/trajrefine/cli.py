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
    SCENARIOS,
    Dataset,
    check_protocol,
    checked_positive,
    downsample,
    extract_segments,
    gen_synthetic,
    json_points,
    json_value,
    parse_ngsim_csv,
    read_jsonl,
    read_predictions,
    reading,
    require_protocol,
    write_jsonl,
    write_predictions,
)
from .gaussian import cov_entries, params_from_covs
from .goals import GoalModelParams, fit_goal_model
from .metrics import AblationReport, AblationRow, rmse, run_ablation
from .predictors import (
    BACKBONES,
    WINDOWS,
    PredictorParams,
    fit_predictor,
    model_protocol,
    rollout_batch,
)

MODEL_VERSION = 1
# The model file after its version: each section's keys in file order, each with the
# JSON form it is written and read in: a json_value kind; "rows", number rows (null for
# a backbone without them); "tables", an array of number rows per anchor; "covs",
# [sxx, sxy, syy] triples; or None, passed through to the model class that checks it.
# save_model and load_model take the sections in this order: protocol, predictor, goal model.
MODEL_SCHEMA = {
    "protocol": {"dt": "number", "tau": "integer", "horizon": "integer"},
    "predictor": {"backbone": None, "dt": "number", "window": "integer", "lag": "integer",
                  "ar_weights": "rows", "step_covs": "covs"},
    "goal_model": {"anchor_steps": None, "weights": "tables", "residual_covs": "covs",
                   "history_len": "integer", "rotate": "boolean"},
}


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
    """A comma-separated list whose items are non-empty and each given once:
    a repeated backbone would be fitted and reported once."""
    tokens = tuple(tok.strip() for tok in raw.split(","))
    if not all(tokens) or len(set(tokens)) < len(tokens):
        raise ValueError("empty or repeated list item")
    return tokens


def _int_list(raw: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in _str_list(raw))


def _csv_cell(raw: str) -> str:
    """A label written as one CSV cell as it is: no comma, quote or line break."""
    if any(ch in raw for ch in ',"\r\n'):
        raise ValueError("not a plain CSV cell")
    return raw


def _load_config(path: str) -> dict[str, str]:
    """A config file's ``key = value`` lines; ``#`` at a line's start or after whitespace
    opens a comment, and a key may appear once."""
    values: dict[str, str] = {}
    first_line: dict[str, int] = {}
    with reading(path, "utf-8-sig") as fh:  # a UTF-8 BOM is skipped
        for lineno, line in enumerate(fh, start=1):
            line = re.split(r"(?<!\S)#", line, maxsplit=1)[0].strip()
            if not line:
                continue
            key, eq, value = line.partition("=")
            if not (eq and (key := key.strip().replace("-", "_"))):  # no "=", or no key
                raise ValueError(f"{path}: line {lineno}: expected 'key = value'")
            if (first := first_line.setdefault(key, lineno)) != lineno:
                raise ValueError(f"{path}: line {lineno}: key {key!r} repeats line {first}")
            values[key] = value.strip()
    return values


def _merge(options: list[Opt], args: argparse.Namespace) -> argparse.Namespace:
    """Each option's value: its flag, else its config key, else its default. Here,
    and nowhere else, a value is checked against its choices, so a bad choice gets
    one message whether it comes from the command line or the config file:
    ``--scenario: invalid value 'bogus' (choose from cv, ca, lane-change, turn)``.
    A list value's every item is checked, before any file is read:
    ``--predictors: invalid value 'cv,foo' (choose from cv, ca, ar)``."""
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
            items = [tok.strip() for tok in raw.split(",")] if opt.convert is _str_list else [raw]
            choices = f" (choose from {', '.join(opt.choices)})" if opt.choices else ""
            try:  # an empty value, such as a config line "out =", is never meant
                if not raw or opt.choices is not None and not set(items) <= set(opt.choices):
                    raise ValueError
                choices = ""  # a failed conversion, such as a repeated item, names none
                value = opt.convert(raw)
            except ValueError:
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


# ---------------------------------------------------------------------------
# model file serialization
# ---------------------------------------------------------------------------

def _written(value, form: str | None):
    """A model attribute as the JSON value of its declared form."""
    if form == "covs":
        return value[:, [0, 0, 1], [0, 1, 1]].tolist()
    if form == "tables":
        return [table.tolist() for table in value]
    return value.tolist() if isinstance(value, np.ndarray) else value


def _read(part: dict, key: str, form: str | None):
    """part[key], read in its declared form; a value not in that form is named."""
    value = part[key]
    if form == "rows":
        return None if value is None else json_points(value, key)
    if form == "tables":
        if not isinstance(value, list):
            raise ValueError(f"{key} must be an array of tables of [x, y] pairs")
        return tuple(json_points(table, key) for table in value)
    if form == "covs":
        rows = "[sxx, sxy, syy] triples"
        if (t := json_points(value, key, rows)).ndim != 2 or t.shape[1] != 3:
            raise ValueError(f"{key} must be an array of {rows}")
        return t[:, [0, 1, 1, 2]].reshape(-1, 2, 2)
    return value if form is None else json_value(part, key, form)


def _known(part: dict, keys, where: str = "") -> None:
    if unknown := [key for key in part if key not in keys]:
        raise ValueError(f"unknown key {unknown[0]!r}{where}")


def _section(doc: dict, section: str) -> dict:
    """doc[section], a JSON object of exactly its declared keys, read key by key."""
    _known(part := json_value(doc, section, "object"), fields := MODEL_SCHEMA[section],
           f" in {section}")
    return {key: _read(part, key, form) for key, form in fields.items()}


def save_model(path: str, predictor: PredictorParams, goal_model: GoalModelParams) -> None:
    """Write the models and the protocol they share (:func:`model_protocol`), which
    is checked before the file is opened."""
    doc = {"version": MODEL_VERSION}
    for (section, fields), source in zip(MODEL_SCHEMA.items(), (
            model_protocol(predictor, goal_model), vars(predictor), vars(goal_model))):
        doc[section] = {key: _written(source[key], form) for key, form in fields.items()}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc) + "\n")  # json.dump would take the pure-Python encoder


def load_model(path: str) -> tuple[PredictorParams, GoalModelParams, dict]:
    """Read a model file; malformed JSON, a missing or unknown key, a section that
    is not a JSON object or a bad value names the file. Each value must be in its
    MODEL_SCHEMA form, and the protocol the one the models share
    (:func:`model_protocol`, the rule :func:`save_model` writes by)."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError("expected a JSON object")
        if type(version := doc.pop("version", None)) is not int or version != MODEL_VERSION:
            raise ValueError(f"unsupported model file version {version!r}")  # true is not 1
        _known(doc, MODEL_SCHEMA)
        protocol, p, g = (_section(doc, section) for section in MODEL_SCHEMA)
        predictor, goal_model = PredictorParams(**p), GoalModelParams(**g)
        require_protocol(protocol, model_protocol(predictor, goal_model), protocol,
                         "protocol", "models'")
        check_protocol(**protocol)  # a models' dt of 1e-9 or less matches a dt <= 0
        return predictor, goal_model, protocol
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc} in model file") from None
    except (TypeError, ValueError, RecursionError) as exc:  # json.load: nested too deeply
        raise ValueError(f"{path}: invalid model file: {exc}") from None


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

_GEN_OPTS = [
    Opt("scenario", str, required=True, choices=tuple(s.replace("_", "-") for s in SCENARIOS)),
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
    Opt("window", int, help="cv/ca position window (default {cv} for cv, {ca} for ca)"
        .format_map(WINDOWS)),
    Opt("ridge", float),
    Opt("anchors", _int_list, help="goal anchor steps"),
    Opt("rotate", _on_off, choices=("on", "off"), help="ego-frame rotation"),
]

# checked here, so a bad scale is rejected before any file is read
_REFINE_OPTS = [Opt("goal-cov-scale", lambda raw: checked_positive("goal_cov_scale", float(raw)))]

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


def _fit_models(o, backbones, test: Dataset | None = None) -> tuple[Dataset, dict]:
    """Read --train/--val, check a test set's protocol against the training set's,
    and only then fit one goal model plus each backbone on them."""
    train = _read_segments(o.train, "training file")
    val = _read_segments(o.val, "validation file") if o.val else None
    if test is not None:
        require_protocol(vars(test), vars(train), ("dt", "tau", "horizon"), o.test, "training")
    goal_model = fit_goal_model(train, val=val, **_given(
        anchor_steps=o.anchors, ridge_lambda=o.ridge, rotate=o.rotate))
    kwargs = _given(window=o.window, lag=o.lag, ridge_lambda=o.ridge)
    return train, {bb: (fit_predictor(bb, train, val, **kwargs), goal_model)
                   for bb in backbones}


def _traces(steps, covs: np.ndarray) -> str:
    return " ".join(f"{s}:{t:.4f}" for s, t in zip(steps, covs[:, 0, 0] + covs[:, 1, 1]))


def cmd_fit(o) -> int:
    train, models = _fit_models(o, [o.predictor])
    predictor, goal_model = models[o.predictor]
    save_model(o.out, predictor, goal_model)
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
    mode = "refined" if o.refine else "vanilla"
    means, sigmas = np.empty((0, ds.horizon, 2)), np.empty((0, ds.horizon, 3))
    if ds.segments:
        require_protocol(vars(ds), protocol, protocol, o.data, "models'")
        goals = goal_model if o.refine else None
        means, covs = rollout_batch(predictor, ds.histories(), ds.horizon, goals,
                                    **_given(goal_cov_scale=o.goal_cov_scale))
        try:
            sigmas = params_from_covs(covs)
        except ValueError as exc:  # name the first covariance at fault
            i, k = np.argwhere(~cov_entries(covs, definite=True)[4])[0]
            raise ValueError(f"{o.data}: segment {ds.segments[i].segment_id}: step {k + 1}: {exc} "
                             f"({mode}, goal_cov_scale={o.goal_cov_scale or 1.0!r})") from None
    write_predictions(o.out, [seg.segment_id for seg in ds.segments], means, sigmas, mode)
    print(f"wrote {len(ds)} {mode} predictions to {o.out}")
    return 0


_EVAL_OPTS = [
    Opt("predictions", str, required=True),
    Opt("data", str, required=True),
    Opt("out", str, required=True, help="output metrics CSV"),
    Opt("backbone", _csv_cell, "-", help="backbone label for the CSV row"),
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
        fh.write(AblationReport((row,)).to_csv())
    print(f"rmse_overall={m.rmse_overall:.6f} -> {o.out}")
    return 0


_ABLATE_OPTS = [
    Opt("train", str, required=True),
    Opt("val", str),
    Opt("test", str, required=True),
    Opt("out", str, required=True, help="output report CSV"),
    Opt("predictors", _str_list, ("ar",), choices=BACKBONES,
        help="comma-separated backbones, each once"),
    *_MODEL_OPTS,
    *_REFINE_OPTS,
]


def cmd_ablate(o) -> int:
    test = _read_segments(o.test)
    _, models = _fit_models(o, o.predictors, test)
    report = run_ablation(test, models, **_given(goal_cov_scale=o.goal_cov_scale))
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

# each subcommand: its options, the name of its function and its help line; by name,
# since main looks the function up per call, so a later rebinding of it takes effect
COMMANDS = {
    "gen-synth": (_GEN_OPTS, "cmd_gen_synth", "generate a synthetic dataset"),
    "ingest-ngsim": (_INGEST_OPTS, "cmd_ingest_ngsim", "ingest an NGSIM-format CSV"),
    "fit": (_FIT_OPTS, "cmd_fit", "fit a backbone and goal model"),
    "predict": (_PREDICT_OPTS, "cmd_predict", "predict futures for a dataset"),
    "eval": (_EVAL_OPTS, "cmd_eval", "score predictions against ground truth"),
    "ablate": (_ABLATE_OPTS, "cmd_ablate", "compare vanilla and refined rollouts"),
}


@lru_cache(maxsize=None)  # built once a process: every command parses with the same parser
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand in :data:`COMMANDS`. argparse parses the flags
    and lists each scalar option's choices in ``--help`` as it would list its own
    (``--predictor {cv,ca,ar}``; a list option keeps its name, ``--predictors
    PREDICTORS``), but checks none of them: :func:`_merge` checks each value once,
    from a flag or a config file alike."""
    parser = argparse.ArgumentParser(
        prog="trajrefine",
        description="Goal-anchored refinement of rollout trajectory predictors",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, (options, func, help_text) in COMMANDS.items():
        sub = subparsers.add_parser(name, help=help_text)
        for opt in options:
            scalar = opt.choices and opt.convert is not _str_list
            metavar = "{" + ",".join(opt.choices) + "}" if scalar else None
            sub.add_argument(f"--{opt.flag}", metavar=metavar, help=opt.help)
        sub.add_argument("--config", help="flat key = value config file")
        sub.set_defaults(func=func, options=options)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        merged = _merge(args.options, args)
        return globals()[args.func](merged)
    except (OSError, ValueError) as exc:  # 1 for an I/O failure, 2 for a bad value
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, OSError) else 2


if __name__ == "__main__":
    sys.exit(main())
