"""Span tracer that wraps the package's public functions from outside.

Each traced function is replaced, for the duration of a traced iteration,
at every name under which a ``trajrefine`` module binds it (the defining
module, every module that imported it by name, and the package
re-export). Callers keep looking the name up at call time, so the wrapper
sees every call without a line of ``src/`` changing.

A span records id, parent id, iteration, name, start and end. Spans stay in
memory and are written out by :meth:`Tracer.write_spans` when the run ends.
Self time is a span's duration minus the durations of its direct child
spans, accumulated as spans close.
"""

from __future__ import annotations

import functools
import os
import sys
from time import perf_counter

# (module, attribute, span name). Names follow the package's modules, which
# are the benchmark's layers. A function that a later version removes is
# skipped and its count reads 0.
TRACED = (
    ("data", "gen_synthetic", "data.gen_synthetic"),
    ("data", "parse_ngsim_csv", "data.parse_ngsim_csv"),
    ("data", "extract_segments", "data.extract_segments"),
    ("data", "write_jsonl", "data.write_jsonl"),
    ("data", "read_jsonl", "data.read_jsonl"),
    ("gaussian", "params_from_cov", "gaussian.params_from_cov"),
    ("fusion", "fuse", "fusion.fuse"),
    ("goals", "fit_goal_model", "goals.fit_goal_model"),
    ("goals", "predict_goals", "goals.predict_goals"),
    ("goals", "goal_measurement_at", "goals.goal_measurement_at"),
    ("predictors", "fit_predictor", "predictors.fit_predictor"),
    ("predictors", "rollout_vanilla", "predictors.rollout_vanilla"),
    ("predictors", "rollout_refined", "predictors.rollout_refined"),
    ("predictors", "rollout", "predictors.rollout"),
    ("metrics", "rmse", "metrics.rmse"),
    ("metrics", "run_ablation", "metrics.run_ablation"),
    ("cli", "save_model", "cli.save_model"),
    ("cli", "load_model", "cli.load_model"),
    ("cli", "cmd_ingest_ngsim", "cli.ingest_ngsim"),
    ("cli", "cmd_fit", "cli.fit"),
    ("cli", "cmd_predict", "cli.predict"),
    ("cli", "cmd_eval", "cli.eval"),
)

SPAN_NAMES = tuple(name for _, _, name in TRACED)

PACKAGE = "trajrefine"

# Counters recorded at the same boundaries as the spans.
COUNTERS = ("data.rows_ingested", "data.bytes_written")


def _count_rows(stats, args, kwargs, result) -> None:
    stats["data.rows_ingested"] += sum(len(track.points) for track in result)


def _count_bytes(stats, args, kwargs, result) -> None:
    path = kwargs["path"] if "path" in kwargs else args[1]
    stats["data.bytes_written"] += os.path.getsize(path)


_COUNTER_HOOKS = {
    "data.parse_ngsim_csv": _count_rows,
    "data.write_jsonl": _count_bytes,
}


class Tracer:
    """Collects spans and per-name call counts and self times."""

    def __init__(self):
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.iteration = -1
        self._stack: list[list] = []  # [span id, start, child seconds]
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []
        self.reset_stats()

    def reset_stats(self) -> None:
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        self.counters = dict.fromkeys(COUNTERS, 0)

    def _wrap(self, name: str, fn):
        hook = _COUNTER_HOOKS.get(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0, 0.0]
            stack.append(frame)
            frame[1] = start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                self.calls[name] += 1
                self.self_s[name] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                self.spans.append((span_id, parent, self.iteration, name, start, end))
            if hook is not None:
                hook(self.counters, args, kwargs, result)
            return result

        return traced

    def install(self, iteration: int) -> None:
        """Wrap every traced function at each name a package module binds."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        self.iteration = iteration
        modules = [
            mod
            for key, mod in list(sys.modules.items())
            if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for module_name, attr, name in TRACED:
            home = sys.modules.get(f"{PACKAGE}.{module_name}")
            original = getattr(home, attr, None) if home is not None else None
            if original is None:
                continue
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def snapshot(self) -> dict:
        """Per-name calls and self seconds plus counters, then reset them."""
        snap = {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counters": dict(self.counters)}
        self.reset_stats()
        return snap

    def write_spans(self, path: str, origin: float) -> None:
        """Write every span as CSV, times in seconds from ``origin``."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            fh.write("id,parent,iteration,name,start_s,end_s\n")
            for span_id, parent, iteration, name, start, end in self.spans:
                fh.write(f"{span_id},{parent},{iteration},{name},"
                         f"{start - origin:.9f},{end - origin:.9f}\n")
