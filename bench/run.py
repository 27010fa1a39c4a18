"""grouptree benchmark: one workload per process, one thread, checked outputs.

Run from the root of a checkout:

    python3 bench/run.py --workload monks1-imbalanced --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --workload all

``protocol-light`` and ``clinic-sweep`` are left out of ``BENCHMARK.json`` and
run only when named (or with ``all``): on a small shared machine the
run-to-run spread needs runs of about a minute, and the benchmark's time
budget affords those for two workloads only.

``--trace 0`` prints the end-to-end metrics (set-up time, tasks per second,
median and tail task time, peak RSS); ``--trace 1`` runs the loop under the
span tracer and prints the per-layer metrics instead.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full result (environment, count fingerprint,
per-task records and, when traced, the spans) is written to
``.bench_out/<workload>-seed<seed>-trace<t>.json``.

The program under test is imported from ``src/`` of the checkout; without it
the benchmark exits with status 2.  BLAS and OpenMP thread counts are pinned
to 1 before numpy loads.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

THREAD_VARIABLES = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
WORKLOAD_NAMES = ("monks1-imbalanced", "protocol-light", "clinic-sweep", "verify-lp")
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS and set-up stay per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with status {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}:{key}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARIABLES:
        os.environ[var] = "1"
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "grouptree" / "__init__.py").is_file():
        print(f"error: no grouptree sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    t0 = perf_counter()
    import harness  # numpy and grouptree load here, inside set-up time

    import_s = perf_counter() - t0
    if not Path(harness.grouptree.__file__).resolve().is_relative_to(SRC):
        print(f"error: grouptree was imported from {harness.grouptree.__file__}", file=sys.stderr)
        return 2

    result = harness.measure(args.workload, args.seed, args.seconds, args.trace, import_s)
    path = harness.write_results(result)
    print("\n".join(harness.report(result)))
    print(f"  results: {path.relative_to(ROOT)}")
    summary = {key: result[key] for key in ("attempted", "failed", "metrics")}
    print(json.dumps({"correct": result["failed"] == 0, **summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
