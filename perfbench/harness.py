"""Measurement of one workload run: set-up, the timed loop, the checked
pass, and the metrics and record built from them. Imported by ``run.py``
after it has timed the import of ``trajrefine``.
"""

from __future__ import annotations

import contextlib
import os
import platform
import resource
import statistics
import tempfile
import traceback
from time import perf_counter

import numpy

import checks
import speed
import tracer as tracer_mod
from workloads import WORKLOADS

SETUP_REPEATS = 5

UNITS = {"setup_s": "s", "fit_s": "s", "rollouts_per_s": "1/s", "latency_p50_ms": "ms",
         "latency_p90_ms": "ms", "latency_p99_ms": "ms", "wall_s": "s", "rmse_5s_m": "m",
         "peak_rss_mb": "MiB"}
# Printed in the record only: bursts of host load decide the latency tail,
# so its run-to-run spread is too wide for a regression bound.
UNBOUNDED = ("latency_p90_ms", "latency_p99_ms")


def git_commit(root: str) -> str:
    """Commit of the checkout read from .git, or 'unknown' outside git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: str, thread_vars) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in thread_vars},
        "git_commit": git_commit(root),
    }


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def run_loop(workload, seconds: float, tracer):
    """Iterate while another iteration of average length still fits in
    ``seconds``; with a tracer, odd iterations are traced. Returns
    per-iteration samples and traced snapshots."""
    min_iterations = max(workload.min_iterations, 2 if tracer else 1)
    samples, snapshots = [], []
    start = perf_counter()
    index = 0
    while index < min_iterations or (perf_counter() - start) * (index + 1) / index <= seconds:
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.install(index)
        t0 = perf_counter()
        try:
            sample = workload.iteration(index)
        finally:
            wall = (t0, perf_counter())
            if traced:
                tracer.uninstall()
        sample["wall"] = wall
        sample["traced"] = traced
        samples.append(sample)
        if traced:
            snapshots.append(tracer.snapshot())
        index += 1
    return samples, snapshots


def raw(interval) -> float:
    return interval[1] - interval[0]


def timings(duration, import_iv, setup_ivs, samples) -> dict:
    """Every timing metric, with ``duration`` turning an interval into seconds.

    Latency percentiles are taken per iteration and their median reported,
    so a burst of host load during one iteration's calls does not move them.
    """
    median = statistics.median
    per_iteration = [[1e3 * duration(iv) for iv in s["latencies"]]
                     for s in samples if s["latencies"]]

    def latency(q: float) -> float:
        return median(percentile(ms, q) for ms in per_iteration)

    return {
        "setup_s": duration(import_iv) + median(duration(iv) for iv in setup_ivs),
        "fit_s": median(duration(s["fit"]) for s in samples),
        "rollouts_per_s": median(s["rollouts"] / sum(duration(iv) for iv in s["rollout"])
                                 for s in samples),
        "latency_p50_ms": latency(50),
        "latency_p90_ms": latency(90),
        "latency_p99_ms": latency(99),
        "wall_s": median(sum(duration(iv) for iv in s["program"]) for s in samples),
    }


def end_to_end_metrics(probe, import_iv, setup_ivs, samples, final):
    """Scaled timings plus quality and memory; the record gets raw timings
    and the unbounded latency tail."""
    values = timings(probe.scaled, import_iv, setup_ivs, samples)
    tail = {k: {"value": values.pop(k), "unit": UNITS[k]} for k in UNBOUNDED}
    values["rmse_5s_m"] = final["rmse_5s_m"]
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record = {
        "iterations": len(samples),
        "setup_samples": len(setup_ivs),
        "latency_samples": sum(len(s["latencies"]) for s in samples),
        "latency_tail": tail,
        "probe": {"samples": probe.samples(),
                  "median_s": float(statistics.median(probe.durations)),
                  "nominal_s": probe.nominal_s},
        "raw_timings": timings(raw, import_iv, setup_ivs, samples),
    }
    return {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}, record


def per_layer_metrics(setup_snapshot, samples, snapshots) -> dict:
    """Setup spans plus the median over traced iterations, per span name."""
    median, median_low = statistics.median, statistics.median_low
    metrics = {}
    for name in tracer_mod.SPAN_NAMES:
        calls = setup_snapshot["calls"][name] + median_low(s["calls"][name] for s in snapshots)
        self_s = setup_snapshot["self_s"][name] + median(s["self_s"][name] for s in snapshots)
        metrics[f"{name}.calls"] = {"value": calls, "unit": "count"}
        metrics[f"{name}.self_s"] = {"value": self_s, "unit": "s"}
    for name, unit in (("data.rows_ingested", "count"), ("data.bytes_written", "B")):
        value = median_low(s["counters"][name] for s in snapshots)
        metrics[name] = {"value": value, "unit": unit}
    traced = median(raw(s["wall"]) for s in samples if s["traced"])
    untraced = median(raw(s["wall"]) for s in samples if not s["traced"])
    metrics["trace.overhead_frac"] = {"value": traced / untraced - 1.0, "unit": "ratio"}
    return metrics


def measure(args, workload, import_iv, record: dict, root: str) -> dict:
    """Set up, loop, check; return the metrics and fill ``record``."""
    tracer = tracer_mod.Tracer() if args.trace else None
    origin = perf_counter()
    # Traced runs report raw per-layer times: the probe would add to them.
    probe = contextlib.nullcontext() if tracer else speed.SpeedProbe()
    if tracer:
        workload.time_latency = False
    else:
        workload.quiet = probe.paused
    with probe:
        setup_ivs = []
        for _ in range(1 if tracer else SETUP_REPEATS):
            if tracer:
                tracer.install(-1)
            t0 = perf_counter()
            try:
                record["inputs_sha256"] = workload.make_inputs()
            finally:
                setup_ivs.append((t0, perf_counter()))
                if tracer:
                    tracer.uninstall()
        setup_snapshot = tracer.snapshot() if tracer else None
        if not args.tiny:
            default_sha = (record["inputs_sha256"] if args.seed == 0
                           else workload.default_inputs_fingerprint())
            checks.check_reference(workload.name, "inputs_sha256", default_sha)
        samples, snapshots = run_loop(workload, args.seconds, tracer)
        final = workload.finish()
    if not tracer:
        metrics, counts = end_to_end_metrics(probe, import_iv, setup_ivs, samples, final)
        record.update(counts)
        return metrics
    spans_path = os.path.join(root, ".perfbench-out",
                              f"spans-{args.workload}-seed{args.seed}.csv")
    tracer.write_spans(spans_path, origin)
    record["spans"] = os.path.relpath(spans_path, root)
    record["span_count"] = len(tracer.spans)
    return per_layer_metrics(setup_snapshot, samples, snapshots)


def run(args, import_iv, root: str, thread_vars) -> tuple[dict, dict, int, str | None]:
    """One run: (record, metrics, attempted, error or None)."""
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny,
              "env": environment(root, thread_vars)}
    metrics, error = {}, None
    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=root) as workdir:
        workload = WORKLOADS[args.workload](args.seed, args.tiny, workdir)
        try:
            metrics = measure(args, workload, import_iv, record, root)
        except checks.CheckFailed as exc:
            error = f"output check failed: {exc}"
        except Exception:  # count it, report it, fail the run
            error = "exception raised:\n" + traceback.format_exc()
    return record, metrics, max(1, workload.attempted), error
