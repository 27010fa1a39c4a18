"""Set-up, timed loop, metrics, count fingerprint and report for one workload.

``measure`` runs one workload in this process:

1. set-up, repeated ``SETUPS`` times: regenerate and encode the data, draw the
   task inputs from the seed;
2. warm-up: the workload's reference tasks at fixed inputs, traced for the
   count fingerprint and checked against ``expected.json``;
3. the timed loop: tasks in input order, one at a time, until ``seconds`` have
   passed (a closed loop with one client).  Only the task call is timed; its
   checks run after the clock stops.

With ``trace`` the loop runs under the span tracer; then the first inputs run
in traced/untraced pairs to measure the tracer's own cost.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import numpy as np

import grouptree
from grouptree import encoding, experiments, mps, oracle, solver
from grouptree import model as gt_model
from spans import Tracer
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR.parent / ".bench_out"
EXPECTED_PATH = BENCH_DIR / "expected.json"
SETUPS = 3
OVERHEAD_SHARE = 0.25  # time for the overhead pairs, as a share of the traced loop
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "tasks_per_s": "1/s",
    "task_p50_s": "s",
    "task_tail_s": "s",
    "peak_rss_mb": "MB",
}
LAYER_SPANS = (
    "solver.structured", "model.build", "encoding.subset", "solver.extract",
    "tree.evaluate", "solver.lp", "mps.export", "mps.parse", "mps.equal",
    "oracle.enumerate",
)
LAYER_COUNTS = (
    "solver.structured_nodes", "model.rows", "model.nnz", "solver.lp_nodes",
    "simplex.pivots", "mps.bytes", "oracle.trees",
)
SETUP_LAYERS = ("datasets.regen_s", "encoding.parse_s", "encoding.encode_s")


def _solver_span(args, kwargs):
    model = args[0]
    method = kwargs.get("method", args[2] if len(args) > 2 else "auto")
    lp = method == "lp" or model.structure is None
    return "solver.lp" if lp else "solver.structured"


def _solver_counts(result, args, kwargs):
    if _solver_span(args, kwargs) == "solver.lp":
        return {"solver.lp_nodes": result.nodes_processed, "simplex.pivots": result.lp_iterations}
    return {"solver.structured_nodes": result.nodes_processed}


def _model_counts(model, args, kwargs):
    return {
        "model.rows": len(model.constraints),
        "model.nnz": sum(len(c.coeffs) for c in model.constraints),
    }


def _oracle_counts(out, args, kwargs):
    data, topology = args[0], args[1]
    return {"oracle.trees": oracle.symmetry_reduced_count(topology, data.schema)}


def trace_targets():
    """Every public entry point the workloads reach, wrapped where they look it up."""
    return [
        (experiments, "train_test_run", "experiments.train_test_run", None),
        (experiments, "cross_validate_topology", "experiments.cross_validate_topology", None),
        (experiments, "sensitivity_sweep", "experiments.sensitivity_sweep", None),
        (experiments, "build_model", "model.build", _model_counts),
        (experiments, "solve_milp", _solver_span, _solver_counts),
        (experiments, "extract_tree", "solver.extract", None),
        (experiments, "evaluate", "tree.evaluate", None),
        (encoding.EncodedDataset, "subset", "encoding.subset", None),
        (gt_model, "build_model", "model.build", _model_counts),
        (gt_model.MilpModel, "semantically_equal", "mps.equal", None),
        (mps, "export_mps", "mps.export", lambda text, a, k: {"mps.bytes": len(text.encode())}),
        (mps, "parse_mps", "mps.parse", None),
        (solver, "solve_milp", _solver_span, _solver_counts),
        (solver, "extract_tree", "solver.extract", None),
        (oracle, "enumerate_optimal", "oracle.enumerate", _oracle_counts),
    ]


def _run_task(workload, inp, tracer=None, task=None):
    """One task: the timed call, then its checks.  Returns (seconds, record)."""
    problems: list[str] = []
    outcomes: list = []
    if tracer is not None:
        tracer.task = task
    t0 = perf_counter()
    try:
        out = tracer.call("task", workload.run, (inp,), {}) if tracer else workload.run(inp)
    except Exception as exc:  # a task that raises is a failed task, not a crash
        seconds = perf_counter() - t0
        problems.append(f"raised {type(exc).__name__}: {exc}")
    else:
        seconds = perf_counter() - t0
        try:
            outcomes = workload.check(inp, out, problems)
        except Exception as exc:
            problems.append(f"check raised {type(exc).__name__}: {exc}")
    record = {
        "task": task,
        "seconds": seconds,
        "objectives": [o[1] for o in outcomes],
        "outcomes_sha256": hashlib.sha256(json.dumps(outcomes).encode()).hexdigest(),
        "problems": problems,
    }
    return seconds, record


def _timed_once(workload, inp, with_tracer: bool) -> float:
    if not with_tracer:
        return _run_task(workload, inp)[0]
    tracer = Tracer()
    with tracer.patched(trace_targets()):
        return _run_task(workload, inp, tracer, 0)[0]


def _counts_fingerprint(tracer, tasks, records) -> dict:
    _, counts = tracer.layer_totals(tasks)
    fingerprint = {key: int(counts.get(key, 0)) for key in LAYER_COUNTS}
    joined = "".join(r["outcomes_sha256"] for r in records)
    fingerprint["outcomes_sha256"] = hashlib.sha256(joined.encode()).hexdigest()[:16]
    return fingerprint


def _tail(times):
    """Highest percentile with at least TAIL_BEYOND tasks beyond it.

    With fewer than 2 * TAIL_BEYOND tasks that percentile lies below the
    median, so the median stands in for it and the report says so.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return statistics.median(ordered), 50.0
    k = n - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / n


def environment(seed) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "grouptree": grouptree.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "seed": seed,
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")},
    }


def _check_reference(ref_records, expected) -> None:
    """Reference objectives must equal the committed ones."""
    for record, want in zip(ref_records, expected["objectives"], strict=True):
        if record["objectives"] != want:
            record["problems"].append(
                f"reference objectives {record['objectives']} differ from committed {want}"
            )


def _layer_metrics(workload, inputs, times, tracer, setup_layers) -> dict:
    n = len(times)
    seconds, counts = tracer.layer_totals(set(range(n)))
    metrics = {f"{span}_s": (seconds.get(span, 0.0) / n, "s/task") for span in LAYER_SPANS}
    experiments_s = sum(v for k, v in seconds.items() if k.startswith("experiments."))
    metrics["experiments.self_s"] = (experiments_s / n, "s/task")
    for key in LAYER_COUNTS:
        metrics[key] = (counts.get(key, 0) / n, "count/task")
    for key, work, span in (
        ("solver.structured_nodes_per_s", "solver.structured_nodes", "solver.structured"),
        ("simplex.pivots_per_s", "simplex.pivots", "solver.lp"),
    ):
        busy = seconds.get(span, 0.0)
        metrics[key] = (counts.get(work, 0) / busy if busy else 0.0, "1/s")
    for key in SETUP_LAYERS:
        metrics[key] = (statistics.median(t[key] for t in setup_layers), "s")

    # the tracer's own cost: each input once untraced and once traced, side by
    # side and in alternating order, so that machine drift hits both sides alike
    plain: list[float] = []
    traced: list[float] = []
    while not plain or (sum(plain) + sum(traced) < OVERHEAD_SHARE * sum(times) and len(plain) < n):
        inp = inputs[len(plain) % len(inputs)]
        for with_tracer in (False, True) if len(plain) % 2 == 0 else (True, False):
            (traced if with_tracer else plain).append(_timed_once(workload, inp, with_tracer))
    metrics["trace.overhead_frac"] = (sum(traced) / sum(plain) - 1, "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def measure(name, seed, seconds, trace, import_s=0.0, expected=None, setups=SETUPS) -> dict:
    """Set up, warm up and run one workload; returns metrics and records."""
    workload = WORKLOADS[name]()
    if expected is None:
        expected = json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))[name]

    prep_s, setup_layers = [], []
    for _ in range(1 if trace else setups):
        timings = dict.fromkeys(SETUP_LAYERS, 0.0)
        t0 = perf_counter()
        workload.prepare(timings)
        inputs = workload.inputs(seed, int(seconds * workload.tasks_per_s_cap) + 2)
        prep_s.append(perf_counter() - t0)
        setup_layers.append(timings)

    # warm-up: the reference tasks, traced for the count fingerprint
    tracer = Tracer()
    refs = [f"ref{i}" for i in range(len(workload.reference_inputs))]
    t0 = perf_counter()
    with tracer.patched(trace_targets()):
        ref_records = [_run_task(workload, inp, tracer, task)[1]
                       for task, inp in zip(refs, workload.reference_inputs)]
    warm_s = perf_counter() - t0
    _check_reference(ref_records, expected)
    fingerprint = _counts_fingerprint(tracer, set(refs), ref_records)

    # the timed loop: one client, next task when the last one is done
    loop_tracer = Tracer() if trace else None
    times, records = [], []
    start = perf_counter()
    with loop_tracer.patched(trace_targets()) if trace else nullcontext():
        while not times or perf_counter() - start < seconds:
            i = len(times)
            t, record = _run_task(workload, inputs[i % len(inputs)], loop_tracer, i)
            times.append(t)
            records.append(record)

    attempted = ref_records + records
    failed = sum(1 for r in attempted if r["problems"])
    result = {
        "workload": name,
        "why": workload.why,
        "input_size": workload.size,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(seed),
        "attempted": len(attempted),
        "failed": failed,
        "failed_frac": failed / len(attempted),
        "fingerprint": fingerprint,
        "fingerprint_committed": expected.get("fingerprint"),
        "inputs_cycled": len(times) > len(inputs),
        "reference_tasks": ref_records,
        "tasks": records,
    }
    if trace:
        result["metrics"] = _layer_metrics(workload, inputs, times, loop_tracer, setup_layers)
        result["loop_counts"] = _counts_fingerprint(loop_tracer, set(range(len(times))), records)
        result["spans"] = [s.as_dict() for s in loop_tracer.spans]
        return result
    tail, result["tail_percentile"] = _tail(times)
    values = {
        "setup_s": import_s + statistics.median(prep_s) + warm_s,
        "tasks_per_s": len(times) / sum(times),
        "task_p50_s": statistics.median(times),
        "task_tail_s": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    result["metrics"] = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    result["setup_parts_s"] = {"import": import_s, "prepare": prep_s, "warm_up": warm_s}
    return result


def report(result) -> list[str]:
    """Human-readable lines for one workload's result."""
    env = result["environment"]
    loop = len(result["tasks"])
    lines = [
        f"workload {result['workload']}  seed {env['seed']}  seconds {result['seconds']}  trace {result['trace']}",
        f"  why: {result['why']}",
        f"  input size: {result['input_size']}",
        f"  environment: python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, "
        f"cpu {env['cpu']}, threads {env['threads']}",
        f"  tasks: {loop} timed + {len(result['reference_tasks'])} reference; "
        f"failed {result['failed']} of {result['attempted']} (failed_frac {result['failed_frac']:.4f})",
    ]
    if result["inputs_cycled"]:
        lines.append("  note: the loop ran past its pre-drawn inputs and reused them")
    task_s = 0.0
    if result["trace"]:
        task_s = sum(r["seconds"] for r in result["tasks"]) / loop
    for key, metric in result["metrics"].items():
        line = f"  {key:32s} {metric['value']:.6g} {metric['unit']}"
        if key == "task_tail_s":
            line += f"  (p{result['tail_percentile']:.1f} of {loop} tasks"
            line += ": too few tasks for a tail, so the median)" if loop < 2 * TAIL_BEYOND else ")"
        elif metric["unit"] == "s/task" and task_s:
            line += f"  ({100 * metric['value'] / task_s:.1f}% of traced task time)"
        lines.append(line)
    fp, committed = result["fingerprint"], result["fingerprint_committed"]
    verdict = "no committed fingerprint" if committed is None else (
        "matches the committed one" if fp == committed else "DIFFERS from the committed one: behaviour change")
    lines.append(f"  count fingerprint (reference tasks): {json.dumps(fp)}: {verdict}")
    if "loop_counts" in result:
        lines.append(f"  counts over the {loop} timed tasks: {json.dumps(result['loop_counts'])}")
    problems = [p for r in result["reference_tasks"] + result["tasks"] for p in r["problems"]]
    lines += [f"  problem: {p}" for p in problems[:10]]
    return lines


def write_results(result) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    env = result["environment"]
    path = OUT_DIR / f"{result['workload']}-seed{env['seed']}-trace{result['trace']}.json"
    path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return path
