"""The benchmark's three workloads.

Each workload makes its inputs from the workload seed (timed as set-up),
then runs one timed *iteration* at a time in a closed loop with a single
caller, and ends with a checked pass. All calls into the program go through
module attributes looked up at call time, so the tracer's wrappers see them.

An iteration returns the intervals it timed: ``fit``, ``rollout`` (the
rollout phase, ``rollouts`` rollouts), ``program`` (every program call of
the iteration's work) and ``latencies`` (single-segment refined rollout
calls). Latency calls are spread over the iterations, a slice per
iteration, so that a burst of load on the shared host hits few of them.

Workload seed ``s`` maps to data seeds ``base + 1000 * s``; seed 0 gives the
corpora named in the acceptance criteria (lane_change 101/102).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from time import perf_counter

import numpy as np

from trajrefine import cli, data, gaussian, goals, metrics, predictors

from checks import (
    HORIZON,
    RMSE_TOL,
    STEP_5S,
    CheckFailed,
    check_estimates,
    check_predictions_file,
    check_reference,
    fingerprint,
    read_eval_rmse_5s,
    read_segments_jsonl,
    rmse_per_step,
)
from ngsim_csv import write_ngsim_csv

# The checks must not show up in the trace, so they hold the originals.
PARAMS_FROM_COV = gaussian.params_from_cov
LOAD_MODEL = cli.load_model

NOISE = 0.2  # m, position noise of the synthetic corpora
SPARSE_ANCHORS = (5, 10, 15, 20, 25)
DENSE_ANCHORS = tuple(range(1, 26))
LATENCY_SLICES = 3  # iterations that time every test segment once


def data_seed(base: int, seed: int) -> int:
    return base + 1000 * seed


def slice_bounds(index: int, n: int) -> tuple[int, int]:
    part = index % LATENCY_SLICES
    return part * n // LATENCY_SLICES, (part + 1) * n // LATENCY_SLICES


class Workload:
    """Shared bookkeeping for the workloads below."""

    name = ""
    min_iterations = 1
    # The runner turns latency slices off in traced runs, whose per-layer
    # counts must show the workload's own calls only.
    time_latency = True
    # Keeps the speed probe out of a single timed call; the runner swaps in
    # the probe's own while it runs.
    quiet = staticmethod(contextlib.nullcontext)

    def __init__(self, seed: int, tiny: bool, workdir: str):
        self.seed = seed
        self.tiny = tiny
        self.workdir = workdir
        self.attempted = 0
        self.at_reference = seed == 0 and not tiny

    def timed(self, fn, *args):
        """Call ``fn`` as one latency sample; return its output and interval."""
        with self.quiet():
            t0 = perf_counter()
            out = fn(*args)
            t1 = perf_counter()
        return out, (t0, t1)

    def reference(self, key: str, value, tol: float | None = None) -> None:
        if self.at_reference:
            check_reference(self.name, key, value, tol)


class RefineBatch(Workload):
    """Criterion-6 corpus: fit cv/ca/ar plus one goal model, then one
    run_ablation over all three backbones (3000 rollouts at full size)."""

    name = "refine-batch"
    min_iterations = LATENCY_SLICES  # every test segment timed once per backbone
    BACKBONES = (("cv", {}), ("ca", {"window": 3}), ("ar", {"lag": 3}))

    def make_inputs(self) -> str:
        n_train, n_test = (60, 20) if self.tiny else (2000, 500)
        self.train = data.gen_synthetic("lane_change", n_train, NOISE,
                                        seed=data_seed(101, self.seed))
        self.test = data.gen_synthetic("lane_change", n_test, NOISE,
                                       seed=data_seed(102, self.seed))
        self.refined = {bb: np.full((n_test, HORIZON, 2), np.nan) for bb, _ in self.BACKBONES}
        return fingerprint([self.train, self.test])

    def default_inputs_fingerprint(self) -> str:
        return fingerprint([data.gen_synthetic("lane_change", n, NOISE, seed=s)
                            for n, s in ((2000, 101), (500, 102))])

    def iteration(self, index: int) -> dict:
        t0 = perf_counter()
        goal_model = goals.fit_goal_model(self.train, anchor_steps=SPARSE_ANCHORS)
        models = {bb: (predictors.fit_predictor(bb, self.train, **kw), goal_model)
                  for bb, kw in self.BACKBONES}
        t1 = perf_counter()
        report = metrics.run_ablation(self.test, models)
        t2 = perf_counter()
        self.attempted += 1
        self._check_report(report)
        self.models, self.report = models, report
        latencies = []
        if self.time_latency:
            lo, hi = slice_bounds(index, len(self.test))
            for bb in models:
                latencies += [self._refined(bb, i, timed=True) for i in range(lo, hi)]
        return {"fit": (t0, t1), "rollout": [(t1, t2)], "program": [(t0, t2)],
                "rollouts": 2 * len(models) * len(self.test), "latencies": latencies}

    def _refined(self, bb: str, i: int, timed: bool):
        """Refined rollout of test segment i, checked and kept."""
        params, goal_model = self.models[bb]
        seg = self.test.segments[i]
        self.attempted += 1
        args = (params, goal_model, seg.history, HORIZON)
        if timed:
            out, interval = self.timed(predictors.rollout_refined, *args)
        else:
            out, interval = predictors.rollout_refined(*args), None
        self.refined[bb][i] = check_estimates(out, HORIZON, PARAMS_FROM_COV,
                                              f"{bb} segment {seg.segment_id}")
        return interval

    def _check_report(self, report) -> None:
        if len(report.rows) != 2 * len(self.BACKBONES):
            raise CheckFailed(f"ablation report has {len(report.rows)} rows, "
                              f"expected {2 * len(self.BACKBONES)}")
        for row in report.rows:
            per_step = np.asarray(row.metrics.rmse_per_step)
            if per_step.shape != (HORIZON,) or not np.all(np.isfinite(per_step)):
                raise CheckFailed(f"ablation row {row.backbone}/{row.refined}: "
                                  f"per-step RMSE is not {HORIZON} finite values")

    def finish(self) -> dict:
        """Complete the single-call rollouts, vanilla too, and recompute the
        report's per-step RMSE from them."""
        truth = self.test.futures()
        for bb, _ in self.BACKBONES:
            params, _ = self.models[bb]
            for i in np.flatnonzero(np.isnan(self.refined[bb][:, 0, 0])):
                self._refined(bb, int(i), timed=False)
            vanilla = np.empty_like(self.refined[bb])
            for i, seg in enumerate(self.test.segments):
                self.attempted += 1
                out = predictors.rollout_vanilla(params, seg.history, HORIZON)
                vanilla[i] = check_estimates(out, HORIZON, PARAMS_FROM_COV,
                                             f"{bb} vanilla segment {seg.segment_id}")
            for refined, means in ((True, self.refined[bb]), (False, vanilla)):
                mine = rmse_per_step(means, truth)
                theirs = np.asarray(self.report.metrics_for(bb, refined).rmse_per_step)
                if not np.allclose(mine, theirs, rtol=1e-9, atol=1e-12):
                    raise CheckFailed(f"{bb} refined={refined}: run_ablation RMSE "
                                      f"{theirs[-1]} != recomputed {mine[-1]} at 5 s")
            refined_5s = self.report.metrics_for(bb, True).rmse_per_step[STEP_5S - 1]
            vanilla_5s = self.report.metrics_for(bb, False).rmse_per_step[STEP_5S - 1]
            if not refined_5s < vanilla_5s:
                raise CheckFailed(f"{bb}: refined RMSE {refined_5s} at 5 s does not "
                                  f"beat vanilla {vanilla_5s}")
        rmse_5s = float(self.report.metrics_for("ar", True).rmse_per_step[STEP_5S - 1])
        self.reference("rmse_5s_m", rmse_5s, RMSE_TOL)
        return {"rmse_5s_m": rmse_5s}


class OnlineRefine(Workload):
    """Turn corpus, ca backbone with dense anchors 1..25: refit, then serve a
    block of single-segment rollout calls, each issued after the last returns."""

    name = "online-refine"

    def __init__(self, seed: int, tiny: bool, workdir: str):
        super().__init__(seed, tiny, workdir)
        self.n_train, self.n_queries, self.block = (60, 40, 20) if tiny else (2000, 2000, 500)
        self.min_iterations = self.n_queries // self.block  # one full pass over the queries
        self.first_pass = np.full((self.n_queries, HORIZON, 2), np.nan)

    def make_inputs(self) -> str:
        self.train = data.gen_synthetic("turn", self.n_train, NOISE,
                                        seed=data_seed(201, self.seed))
        self.queries = data.gen_synthetic("turn", self.n_queries, NOISE,
                                          seed=data_seed(202, self.seed))
        return fingerprint([self.train, self.queries])

    def default_inputs_fingerprint(self) -> str:
        return fingerprint([data.gen_synthetic("turn", 2000, NOISE, seed=s) for s in (201, 202)])

    def iteration(self, index: int) -> dict:
        t0 = perf_counter()
        self.params = predictors.fit_predictor("ca", self.train, window=3)
        self.goal_model = goals.fit_goal_model(self.train, anchor_steps=DENSE_ANCHORS)
        fit = (t0, perf_counter())
        cfg = predictors.RefineConfig()
        latencies = []
        first = (index % self.min_iterations) * self.block
        for q in range(first, first + self.block):
            history = self.queries.segments[q].history
            self.attempted += 1
            out, interval = self.timed(predictors.rollout, self.params, self.goal_model,
                                       history, None, cfg)
            latencies.append(interval)
            means = check_estimates(out, HORIZON, PARAMS_FROM_COV, f"query {q}")
            if np.isnan(self.first_pass[q, 0, 0]):
                self.first_pass[q] = means
            elif not np.array_equal(means, self.first_pass[q]):
                raise CheckFailed(f"query {q}: a repeated call returned other means")
        return {"fit": fit, "rollout": latencies, "program": [fit] + latencies,
                "rollouts": self.block, "latencies": latencies}

    def finish(self) -> dict:
        """RMSE of the first pass, guarded against the vanilla rollout."""
        truth = self.queries.futures()
        refined_5s = float(rmse_per_step(self.first_pass, truth)[STEP_5S - 1])
        vanilla_cfg = predictors.RefineConfig(refine_enabled=False)
        vanilla = np.empty_like(self.first_pass)
        for q, seg in enumerate(self.queries.segments):
            self.attempted += 1
            out = predictors.rollout(self.params, None, seg.history, None, vanilla_cfg)
            vanilla[q] = check_estimates(out, HORIZON, PARAMS_FROM_COV, f"vanilla query {q}")
        vanilla_5s = float(rmse_per_step(vanilla, truth)[STEP_5S - 1])
        if not refined_5s < vanilla_5s:
            raise CheckFailed(f"refined RMSE {refined_5s} at 5 s does not beat "
                              f"vanilla {vanilla_5s}")
        self.reference("rmse_5s_m", refined_5s, RMSE_TOL)
        return {"rmse_5s_m": refined_5s}


class CliPipeline(Workload):
    """NGSIM-format CSVs through the CLI: ingest train and test, fit ar,
    predict with refinement, eval. Runs cli.main in this process."""

    name = "cli-pipeline"
    min_iterations = LATENCY_SLICES  # every prediction replayed once, timed

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def make_inputs(self) -> str:
        n_train, n_test = (10, 4) if self.tiny else (150, 40)
        self.train_csv = write_ngsim_csv(self.path("train.csv"), self.seed, 1, n_train, 1)
        self.test_csv = write_ngsim_csv(self.path("test.csv"), self.seed, 2, n_test, 10001)
        return fingerprint(csv_hashes=[self.train_csv.sha256, self.test_csv.sha256])

    def default_inputs_fingerprint(self) -> str:
        hashes = [write_ngsim_csv(self.path("default.csv"), 0, stream, n, first).sha256
                  for stream, n, first in ((1, 150, 1), (2, 40, 10001))]
        os.remove(self.path("default.csv"))
        return fingerprint(csv_hashes=hashes)

    def command(self, argv: list[str]) -> tuple[float, float]:
        """Run one CLI command; return its (start, end) times."""
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        t1 = perf_counter()
        if code != 0:
            raise CheckFailed(f"trajrefine {argv[0]} exited {code}: {err.getvalue().strip()}")
        return t0, t1

    def ingest(self, csv, name: str) -> tuple[float, float]:
        interval = self.command(["ingest-ngsim", "--csv", csv.path, "--out", self.path(name)])
        with open(self.path(name)) as fh:
            n = sum(1 for _ in fh)
        if n != csv.expected_segments:
            raise CheckFailed(f"ingest of {csv.path} wrote {n} segments, "
                              f"expected {csv.expected_segments}")
        return interval

    def iteration(self, index: int) -> dict:
        p = self.path
        program = [
            self.ingest(self.train_csv, "train.jsonl"),
            self.ingest(self.test_csv, "test.jsonl"),
            self.command(["fit", "--train", p("train.jsonl"), "--out", p("model.json"),
                          "--predictor", "ar"]),
            self.command(["predict", "--model", p("model.json"), "--data", p("test.jsonl"),
                          "--out", p("preds.jsonl"), "--refine", "on"]),
            self.command(["eval", "--predictions", p("preds.jsonl"), "--data",
                          p("test.jsonl"), "--out", p("metrics.csv"), "--backbone", "ar"]),
        ]
        self.test_ids, truth = read_segments_jsonl(p("test.jsonl"))
        self.preds = check_predictions_file(p("preds.jsonl"), self.test_ids, HORIZON)
        self.rmse_5s = read_eval_rmse_5s(p("metrics.csv"))
        mine = float(rmse_per_step(self.preds, truth)[STEP_5S - 1])
        if abs(mine - self.rmse_5s) > 2e-6:
            raise CheckFailed(f"eval wrote rmse_5s={self.rmse_5s}, recomputed {mine}")
        self.model = LOAD_MODEL(p("model.json"))
        with open(p("test.jsonl")) as fh:
            self.histories = [np.asarray(json.loads(line)["history"]) for line in fh]
        self.replayed = np.zeros(len(self.test_ids), dtype=bool)
        latencies = []
        if self.time_latency:
            latencies = [self._replay(i, timed=True)
                         for i in range(*slice_bounds(index, len(self.test_ids)))]
        return {"fit": program[2], "rollout": [program[3]], "program": program,
                "rollouts": len(self.test_ids), "latencies": latencies}

    def _replay(self, i: int, timed: bool):
        """Re-run prediction i through the library from the saved model and
        compare it with the predictions file."""
        params, goal_model, _ = self.model
        self.attempted += 1
        args = (params, goal_model, self.histories[i], HORIZON, predictors.RefineConfig())
        if timed:
            out, interval = self.timed(predictors.rollout, *args)
        else:
            out, interval = predictors.rollout(*args), None
        where = f"test segment {self.test_ids[i]}"
        means = check_estimates(out, HORIZON, PARAMS_FROM_COV, where)
        if np.max(np.abs(means - self.preds[i])) > 1e-6:
            raise CheckFailed(f"{where}: predictions file differs from the library rollout")
        self.replayed[i] = True
        return interval

    def finish(self) -> dict:
        """Replay every prediction the last iteration did not."""
        for i in np.flatnonzero(~self.replayed):
            self._replay(int(i), timed=False)
        self.reference("rmse_5s_m", self.rmse_5s, RMSE_TOL)
        return {"rmse_5s_m": self.rmse_5s}


WORKLOADS = {w.name: w for w in (RefineBatch, OnlineRefine, CliPipeline)}
