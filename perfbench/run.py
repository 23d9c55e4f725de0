"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload refine-batch --seed 0 --seconds 30 --trace 0

Runs from the root of a source checkout and imports the package from its
``src/``. Set-up (import plus input generation) is repeated and its median
reported; then the workload's iterations run in a closed loop for about
``--seconds`` (no iteration starts that would not fit), and a checked pass
ends the run. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``. With ``--trace 0`` the metrics are the end-to-end ones;
with ``--trace 1`` untraced and traced iterations alternate and the metrics
are per-layer call counts and self times, with spans written to
``.perfbench-out/``. The line before it is a JSON record of the inputs'
fingerprint, sample counts, raw timings and the environment.

Exit codes: 0 success, 1 an output check or the program failed (the result
is printed with ``correct`` false), 2 the checkout or arguments are unusable.
"""

from __future__ import annotations

import os

# BLAS and OpenMP pools are pinned to one thread before numpy loads: the
# benchmark is one process with one thread.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs for the smoke test; references are not checked")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "trajrefine", "__init__.py")):
        print(f"error: no trajrefine package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    for path in (SRC, HERE):
        if path not in sys.path:
            sys.path.insert(0, path)

    t0 = perf_counter()
    import trajrefine
    import trajrefine.cli  # noqa: F401
    import_iv = (t0, perf_counter())
    if os.path.dirname(os.path.abspath(trajrefine.__file__)) != os.path.join(SRC, "trajrefine"):
        print(f"error: trajrefine was imported from {trajrefine.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    import harness

    if args.workload not in harness.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; valid: "
              f"{', '.join(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    record, metrics, attempted, error = harness.run(args, import_iv, ROOT, THREAD_VARS)
    failed = 1 if error else 0
    record["failed_frac"] = failed / attempted
    if error:
        print(f"error: {args.workload} seed {args.seed}: {error}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": error is None, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 1 if error else 0


if __name__ == "__main__":
    sys.exit(main())
