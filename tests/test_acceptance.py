"""Acceptance suite: one test per shipped criterion, printed pass lines.

The random-instance pool is seeded and regenerated identically on every run.
Every model built anywhere in these tests funnels through ``build_checked``,
which also round-trips it through the MPS writer/reader and requires semantic
equality (criterion 11 counts those checks).
"""

import json
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import grouptree.experiments as experiments_mod
from grouptree.cli import main as cli_main
from grouptree.datasets import monks, synthetic_clinic, tic_tac_toe, to_csv
from grouptree.encoding import binarize_for_simple_branching, build_schema, encode
from grouptree.experiments import sensitivity_sweep, train_test_run
from grouptree.model import BuildConfig, build_model
from grouptree.mps import export_mps, parse_mps
from grouptree.oracle import enumerate_optimal
from grouptree.rng import SplitMix64
from grouptree.solver import OPTIMAL, SolveConfig, solve_lp, solve_milp
from grouptree.topology import preset
from tests.conftest import random_dataset

ROUND_TRIPS = {"count": 0}


def build_checked(data, topology, config=None):
    """build_model plus the criterion-11 MPS round trip on every model."""
    model = build_model(data, topology, config)
    again = parse_mps(export_mps(model))
    assert model.semantically_equal(again), "MPS round trip lost model content"
    ROUND_TRIPS["count"] += 1
    return model


@pytest.fixture(autouse=True)
def _check_all_builds(monkeypatch):
    monkeypatch.setattr(experiments_mod, "build_model", build_checked)
    yield


def _instance_pool():
    """The criterion-1 suite: 100 instances, fixed seed, both small shapes."""
    rng = random.Random(8172025)
    pool = []
    for t in range(100):
        n = rng.randrange(10, 51)
        sizes = [rng.randrange(2, 5) for _ in range(rng.randrange(2, 5))]
        topo = preset("depth2" if t % 2 == 0 else "depth2_5")
        pool.append((random_dataset(rng, n, sizes), topo))
    return pool


POOL = _instance_pool()
FAST_SOLVE = SolveConfig(time_limit=300.0)


def test_criterion_1_oracle_equivalence():
    mismatches = 0
    for data, topo in POOL:
        expected, _ = enumerate_optimal(data, topo, budget=10**10)
        result = solve_milp(build_checked(data, topo), FAST_SOLVE)
        assert result.status == OPTIMAL
        if result.objective != float(expected):
            mismatches += 1
    assert mismatches == 0
    print(f"\nACCEPTANCE 1 PASS - solver equals oracle on {len(POOL)} instances")


def test_criterion_2_config_invariance():
    generic_checked = 0
    for idx, (data, topo) in enumerate(POOL[:20]):
        reference = None
        for strengthen in (True, False):
            for anchor in (True, False):
                for relax in (True, False):
                    cfg = BuildConfig(
                        strengthen=strengthen, anchor=anchor, relax_integrality=relax
                    )
                    model = build_checked(data, topo, cfg)
                    result = solve_milp(model, FAST_SOLVE)
                    assert result.status == OPTIMAL
                    if reference is None:
                        reference = result.objective
                    assert result.objective == reference
                    small = data.n_samples <= 25 and topo.name == "depth2"
                    if small:
                        lp_result = solve_milp(model, FAST_SOLVE, method="lp")
                        assert lp_result.status == OPTIMAL
                        assert abs(lp_result.objective - reference) < 1e-7
                        generic_checked += 1
    assert generic_checked > 0
    print(
        "\nACCEPTANCE 2 PASS - 20 instances x 8 configurations agree "
        f"({generic_checked} also re-solved by the LP engine)"
    )


def test_criterion_3_lp_relaxation_value():
    for idx, (data, topo) in enumerate(POOL[:20]):
        weight = Fraction(1) if idx < 15 else Fraction(3, 2)
        cfg = BuildConfig(anchor=False, class_weight=weight)
        value, _, status = solve_lp(build_checked(data, topo, cfg))
        assert status == OPTIMAL
        n_pos = int((data.labels == 1).sum())
        n_neg = data.n_samples - n_pos
        assert abs(value - (n_pos + float(weight) * n_neg)) <= 1e-6
    print("\nACCEPTANCE 3 PASS - relaxation value equals the weighted sample count")


def test_criterion_4_relaxed_solutions_integral():
    leaf_z = {}
    for data, topo in POOL[:30]:
        result = solve_milp(build_checked(data, topo), FAST_SOLVE)
        _assert_integral(result.assignment, topo, data.schema)
    # the LP engine must produce integral vertices as well
    lp_work = []
    for data, topo in POOL[:6]:
        result = solve_milp(build_checked(data, topo), FAST_SOLVE, method="lp")
        _assert_integral(result.assignment, topo, data.schema)
        lp_work.append((result.nodes_processed, result.lp_iterations))
    # its search on tableaux of up to 300 rows, node for node and pivot for pivot
    assert lp_work == [(7, 335), (271, 14445), (11, 578), (335, 59500), (11, 296), (71, 2375)]
    print("\nACCEPTANCE 4 PASS - relaxed variables land on 0/1 in every solution")


def _assert_integral(assignment, topo, schema):
    for name, value in assignment.items():
        role = name.split("_")[0]
        if role == "V" or role == "C":
            assert abs(value - round(value)) <= 1e-6, (name, value)
        elif role == "Z":
            k = int(name.split("_")[1])
            if k in topo.leaf_adjacent:
                assert abs(value - round(value)) <= 1e-6, (name, value)


def _protocol_accuracy(table, topo_name, seeds, time_limit=900.0):
    data = encode(table, build_schema(table))
    runs = []
    for seed in seeds:
        run = train_test_run(
            data,
            preset(topo_name),
            solve_config=SolveConfig(time_limit=time_limit),
            seed=seed,
        )
        runs.append(run)
    return runs


def test_criterion_5_monks3_depth3():
    runs = _protocol_accuracy(monks(3), "depth3", seeds=[1, 2, 3, 4, 5])
    train = [r.train_metrics.accuracy for r in runs]
    test = [r.test_metrics.accuracy for r in runs]
    assert sum(train) / 5 == 1.0
    assert sum(test) / 5 >= 0.97
    print(
        f"\nACCEPTANCE 5 PASS - monks-3 depth3 mean train 100.0, "
        f"mean test {100 * sum(test) / 5:.1f}"
    )


def test_criterion_6_monks1_imbalanced():
    runs = _protocol_accuracy(monks(1), "imbalanced", seeds=[1, 2, 3, 4, 5])
    flagged = sum(1 for r in runs if r.hit_time_limit)
    mean_train = 100 * sum(r.train_metrics.accuracy for r in runs) / 5
    mean_test = 100 * sum(r.test_metrics.accuracy for r in runs) / 5
    assert abs(mean_train - 97.9) <= 3.0
    assert mean_test >= 90.0
    print(
        f"\nACCEPTANCE 6 PASS - monks-1 imbalanced mean train {mean_train:.1f} "
        f"(band 97.9 +/- 3), mean test {mean_test:.1f}, {flagged} runs flagged"
    )


def test_criterion_7_ttt_depth2():
    runs = _protocol_accuracy(tic_tac_toe(), "depth2", seeds=[1, 2, 3, 4, 5])
    mean_train = 100 * sum(r.train_metrics.accuracy for r in runs) / 5
    assert abs(mean_train - 71.7) <= 3.0
    print(f"\nACCEPTANCE 7 PASS - ttt depth2 mean train {mean_train:.1f} (band 71.7 +/- 3)")


def _clinical_table():
    """Real two-class clinical data when provided, else the bundled stand-in."""
    path = Path(__file__).resolve().parent.parent / "data" / "bc.csv"
    if path.exists():
        from grouptree.encoding import parse_table

        return parse_table(path.read_text(encoding="utf-8")), "bc.csv"
    return synthetic_clinic(), "synthetic stand-in"


def test_criterion_8_specificity_sweep():
    table, source = _clinical_table()
    data = encode(table, build_schema(table))
    floors = [Fraction(x) for x in ("0.95", "0.96", "0.97", "0.98", "0.99", "1.0")]
    rows = sensitivity_sweep(
        data,
        preset("depth2"),
        floors,
        solve_config=SolveConfig(time_limit=900.0),
        seed=2,
    )
    for row in rows:
        assert row.status == OPTIMAL
        assert row.train_specificity >= float(row.floor) - 1e-12
    tprs = [row.train_sensitivity for row in rows]
    assert all(a >= b - 1e-9 for a, b in zip(tprs, tprs[1:]))
    print(
        f"\nACCEPTANCE 8 PASS - sweep on {source}: floors hold, "
        f"sensitivity falls {100 * tprs[0]:.1f} -> {100 * tprs[-1]:.1f}"
    )


def test_criterion_9_grouped_dominates_simple():
    checks = 0
    for table in (tic_tac_toe(), monks(1)):
        data = encode(table, build_schema(table))
        for seed in (1, 2, 3):
            rng = SplitMix64(seed)
            idx = list(range(data.n_samples))
            rng.shuffle(idx)
            sub = data.subset(sorted(idx[:200]))
            grouped = solve_milp(build_checked(sub, preset("depth2")), FAST_SOLVE)
            simple_data = binarize_for_simple_branching(sub)
            simple = solve_milp(
                build_checked(simple_data, preset("depth2")), FAST_SOLVE
            )
            assert grouped.status == OPTIMAL and simple.status == OPTIMAL
            assert grouped.objective >= simple.objective
            checks += 1
    assert checks == 6
    print("\nACCEPTANCE 9 PASS - grouped branching dominates in all 6 runs")


def test_criterion_10_byte_determinism(tmp_path):
    csv_path = tmp_path / "monks3.csv"
    csv_path.write_text(to_csv(monks(3)), encoding="utf-8")
    artifacts = []
    for tag in ("a", "b"):
        run_json = tmp_path / f"run_{tag}.json"
        model_mps = tmp_path / f"model_{tag}.mps"
        assert cli_main(
            ["train", "--data", str(csv_path), "--label-col", "class",
             "--topology", "depth2_5", "--seed", "17", "--out", str(run_json)]
        ) == 0
        assert cli_main(
            ["export", "--data", str(csv_path), "--label-col", "class",
             "--topology", "depth2_5", "--out", str(model_mps)]
        ) == 0
        artifacts.append((run_json.read_bytes(), model_mps.read_bytes()))
    assert artifacts[0][0] == artifacts[1][0]
    assert artifacts[0][1] == artifacts[1][1]
    print("\nACCEPTANCE 10 PASS - reruns are byte-identical (JSON and MPS)")


def test_criterion_11_round_trips_happened():
    # build_checked round-trips every model built above; this is the tally
    assert ROUND_TRIPS["count"] >= 150
    print(
        f"\nACCEPTANCE 11 PASS - {ROUND_TRIPS['count']} models round-tripped "
        "through MPS with semantic equality"
    )
