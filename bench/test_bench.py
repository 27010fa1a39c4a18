"""Tests of the benchmark itself: run with ``python -m pytest bench``.

They check that wrong answers raise ``failed``, that the tracer's self times
add up, and that the printed metrics are the ones ``BENCHMARK.json`` names.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import workloads  # noqa: E402
from grouptree import oracle  # noqa: E402
from spans import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_workload_names_agree():
    import run

    assert run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOAD_NAMES)


def test_clean_run_reports_every_end_to_end_metric():
    result = harness.measure("verify-lp", seed=3, seconds=0.01, trace=0, setups=1)
    assert result["failed"] == 0 and result["attempted"] >= 2
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["fingerprint"] == result["fingerprint_committed"]


def test_traced_run_reports_every_per_layer_metric():
    result = harness.measure("verify-lp", seed=3, seconds=0.01, trace=1)
    assert result["failed"] == 0
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == units
    assert result["metrics"]["solver.lp_s"]["value"] > 0
    assert result["metrics"]["tree.evaluate_s"]["value"] == 0  # never called: 0, not an error


def test_wrong_committed_reference_counts_as_failed():
    expected = {"objectives": [[325.0]]}  # the committed value is 326
    result = harness.measure("clinic-sweep", seed=1, seconds=0.01, trace=0, expected=expected, setups=1)
    assert result["failed"] == 1 and result["failed_frac"] > 0
    assert "differ from committed" in result["reference_tasks"][0]["problems"][0]


def test_wrong_oracle_counts_every_task_as_failed(monkeypatch):
    exact = oracle.enumerate_optimal

    def off_by_one(*args, **kwargs):
        value, tree = exact(*args, **kwargs)
        return value + 1, tree

    monkeypatch.setattr(oracle, "enumerate_optimal", off_by_one)
    result = harness.measure("verify-lp", seed=3, seconds=0.01, trace=0, setups=1)
    assert result["failed"] == result["attempted"] and result["failed_frac"] == 1


def test_rescoring_catches_an_objective_that_the_tree_does_not_earn():
    wl = workloads.Monks1Imbalanced()
    wl.prepare(dict.fromkeys(harness.SETUP_LAYERS, 0.0))
    run = workloads.experiments.train_test_run(wl.data, workloads.preset("depth2"), seed=4)
    problems = []
    workloads.check_train_run(problems, "true", wl.data, run)
    assert problems == []
    wrong = dataclasses.replace(run, solve=dataclasses.replace(run.solve, objective=run.solve.objective + 1))
    workloads.check_train_run(problems, "inflated", wl.data, wrong)
    assert len(problems) == 1 and problems[0].startswith("inflated")


class _Box:
    @staticmethod
    def inner(x):
        return sum(range(x))

    @staticmethod
    def outer(x):
        return _Box.inner(x) + _Box.inner(x)


def test_spans_self_time_and_restore():
    tracer = Tracer()
    original = _Box.__dict__["inner"]  # the staticmethod object itself
    targets = [(_Box, "outer", "outer", None), (_Box, "inner", "inner", lambda out, a, k: {"calls": 1})]
    with tracer.patched(targets):
        tracer.task = 7
        _Box.outer(20000)
    assert _Box.__dict__["inner"] is original
    outer, first, second = tracer.spans
    assert (first.parent, second.parent, outer.parent) == (outer.sid, outer.sid, None)
    assert {s.task for s in tracer.spans} == {7}
    assert abs(outer.self_s + first.duration + second.duration + outer.bookkeeping - outer.duration) < 1e-9
    seconds, counts = tracer.layer_totals({7})
    assert counts == {"calls": 2} and seconds["inner"] == first.self_s + second.self_s


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert harness._tail([3.0, 1.0, 2.0]) == (2.0, 50.0)  # too few: the median
    value, pct = harness._tail([float(i) for i in range(40)])
    assert value == 29.0 and pct == 75.0  # ten values, 30..39, lie beyond it


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "verify-lp", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
