import itertools
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import grouptree.solver as solver_mod
from grouptree.encoding import EncodedDataset
from grouptree.errors import (
    FractionalSelectionError,
    NumericalFailureError,
    TimeLimitNoIncumbentError,
)
from grouptree.model import BuildConfig, Constraint, MilpModel, Variable, build_model
from grouptree.mps import export_mps, parse_mps
from grouptree.oracle import enumerate_optimal
from grouptree.simplex import BoundedSimplex
from grouptree.solver import (
    FEASIBLE_TIME_LIMIT,
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    SolveConfig,
    extract_tree,
    solve_lp,
    solve_milp,
)
from grouptree.topology import preset
from grouptree.tree import evaluate
from tests.conftest import random_dataset


def random_sized_dataset(rng, max_n=30):
    n = rng.randrange(10, max_n)
    sizes = [rng.randrange(2, 5) for _ in range(rng.randrange(2, 5))]
    return random_dataset(rng, n, sizes)


def test_structured_matches_oracle(rng):
    for name in ("depth2", "depth2_5"):
        topo = preset(name)
        for _ in range(8):
            data = random_sized_dataset(rng)
            expected, _ = enumerate_optimal(data, topo, budget=10**10)
            result = solve_milp(build_model(data, topo))
            assert result.status == OPTIMAL
            assert result.objective == float(expected)


def test_forced_branching_matches_oracle(rng, monkeypatch):
    monkeypatch.setattr(solver_mod, "ENUM_BUDGET", 4)
    for name in ("depth2", "depth3"):
        topo = preset(name)
        for _ in range(4):
            data = random_dataset(rng, rng.randrange(10, 22), [2, 3])
            expected, _ = enumerate_optimal(data, topo, budget=10**12)
            result = solve_milp(build_model(data, topo))
            assert result.status == OPTIMAL
            assert result.objective == float(expected)
            assert result.nodes_processed > 1


def test_lp_branch_and_bound_matches_oracle(rng):
    topo = preset("depth2")
    for strengthen in (True, False):
        for anchor in (True, False):
            data = random_dataset(rng, 14, [2, 2])
            expected, _ = enumerate_optimal(data, topo)
            for relax in (True, False):
                cfg = BuildConfig(
                    strengthen=strengthen, anchor=anchor, relax_integrality=relax
                )
                result = solve_milp(build_model(data, topo, cfg), method="lp")
                assert result.status == OPTIMAL
                assert abs(result.objective - float(expected)) < 1e-7


def test_lp_relaxation_value(rng):
    # aggregated routing rows without anchoring: the relaxation is exactly
    # the weighted sample count, attained by half-half splits
    for name in ("depth2", "depth2_5", "depth3"):
        topo = preset(name)
        data = random_sized_dataset(rng)
        n_pos = int((data.labels == 1).sum())
        model = build_model(data, topo, BuildConfig(anchor=False))
        value, assignment, status = solve_lp(model)
        assert status == OPTIMAL
        assert value == pytest.approx(n_pos + (data.n_samples - n_pos), abs=1e-6)


def test_lp_relaxation_weighted(rng):
    data = random_dataset(rng, 12, [2, 3])
    n_pos = int((data.labels == 1).sum())
    n_neg = 12 - n_pos
    cfg = BuildConfig(anchor=False, class_weight=Fraction(5, 2))
    value, _, status = solve_lp(build_model(data, preset("depth2"), cfg))
    assert status == OPTIMAL
    assert value == pytest.approx(n_pos + 2.5 * n_neg, abs=1e-6)


def test_lp_toy_value():
    rng = random.Random(1)
    data = random_dataset(rng, 6, [2, 2], labels=[1, 1, 1, 1, -1, -1])
    model = build_model(data, preset("depth2"), BuildConfig(anchor=False))
    value, _, status = solve_lp(model)
    assert status == OPTIMAL
    assert value == pytest.approx(6.0, abs=1e-6)


def test_lp_infeasible_with_contradictory_rows(rng):
    data = random_dataset(rng, 8, [2, 2])
    model = build_model(data, preset("depth2"))
    model.constraints = list(model.constraints) + [
        Constraint("FIX_A", (("V_1_0", 1.0),), "=", 1.0),
        Constraint("FIX_B", (("V_1_1", 1.0),), "=", 1.0),
    ]
    value, assignment, status = solve_lp(model)
    assert status == INFEASIBLE
    assert value is None


def test_branch_indicator_is_binary_for_integral_tests(rng):
    # with one-hot rows, the left-branch expression sums exactly one bit of
    # the selected group, so it is 0 or 1 for any integral test
    for _ in range(10):
        data = random_sized_dataset(rng)
        schema = data.schema
        for k in range(3):
            g = rng.randrange(schema.n_groups)
            feats = schema.features_of(g)
            subset = [j for j in feats if rng.random() < 0.5]
            z = np.zeros(data.n_features)
            z[subset] = 1.0
            left = data.matrix @ z
            assert set(np.unique(left)) <= {0.0, 1.0}


def test_fixed_tests_route_like_the_classifier(rng):
    # pin integral (v, z) in the basic full model: the relaxation forces the
    # routing variables to the replay indicators
    topo = preset("depth2")
    data = random_dataset(rng, 10, [2, 3])
    cfg = BuildConfig(strengthen=False, drop_unused_c=False, anchor=False)
    model = build_model(data, topo, cfg)
    # choose tests deterministically
    tests = {1: (0, frozenset({0})), 2: (1, frozenset({2, 3})), 3: (1, frozenset())}
    fixed = {}
    for k, (g, subset) in tests.items():
        for gg in range(data.schema.n_groups):
            fixed[f"V_{k}_{gg}"] = 1.0 if gg == g else 0.0
        for j in range(data.n_features):
            fixed[f"Z_{k}_{j}"] = 1.0 if j in subset else 0.0
    model.variables = [
        replace(v, lower=fixed[v.name], upper=fixed[v.name]) if v.name in fixed else v
        for v in model.variables
    ]
    value, assignment, status = solve_lp(model)
    assert status == OPTIMAL
    from grouptree.tree import DecisionTree

    tree = DecisionTree(
        topology=topo, tests=tests, n_features=data.n_features,
        group_sizes=data.schema.group_sizes,
    )
    leaves = tree.route_all(data.matrix)
    for i in range(data.n_samples):
        for b in topo.leaves:
            want = 1.0 if leaves[i] == b else 0.0
            assert assignment[f"C_{i}_{b}"] == pytest.approx(want, abs=1e-6)


def test_returned_assignment_is_integral(rng):
    for method in ("structured", "lp"):
        data = random_dataset(rng, 16, [2, 3])
        model = build_model(data, preset("depth2"))
        result = solve_milp(model, method=method)
        assert result.status == OPTIMAL
        for name, val in result.assignment.items():
            assert abs(val - round(val)) < 1e-6, (method, name, val)


def test_solution_c_matches_replay(rng):
    data = random_dataset(rng, 20, [3, 2])
    topo = preset("depth2")
    model = build_model(data, topo)
    result = solve_milp(model)
    tree = extract_tree(result, topo, data.schema)
    leaves = tree.route_all(data.matrix)
    for var in model.variables:
        if var.role != "c":
            continue
        _, i_s, b_s = var.name.split("_")
        want = 1.0 if leaves[int(i_s)] == int(b_s) else 0.0
        assert result.assignment[var.name] == pytest.approx(want, abs=1e-6)


def test_objective_equals_training_accuracy(rng):
    data = random_dataset(rng, 25, [2, 2, 3])
    topo = preset("depth2")
    result = solve_milp(build_model(data, topo))
    tree = extract_tree(result, topo, data.schema)
    metrics = evaluate(tree, data)
    assert result.objective == metrics.accuracy * data.n_samples


def test_bounds_monotone_and_incumbent_improves(rng, monkeypatch):
    monkeypatch.setattr(solver_mod, "ENUM_BUDGET", 4)
    events = []
    data = random_dataset(rng, 24, [3, 3])
    cfg = SolveConfig(callback=events.append)
    result = solve_milp(build_model(data, preset("depth2")), cfg)
    assert result.status == OPTIMAL
    best = None
    for e in events:
        if e["incumbent"] is not None:
            v = float(e["incumbent"])
            assert best is None or v >= best
            best = v
    bounds = [e["bound"] for e in events]
    assert all(a >= b - 1e-9 for a, b in zip(bounds, bounds[1:]))
    assert result.best_bound == result.objective


def test_generic_child_lp_below_parent(rng):
    events = []
    data = random_dataset(rng, 14, [2, 2])
    cfg = SolveConfig(callback=events.append)
    result = solve_milp(build_model(data, preset("depth2")), cfg, method="lp")
    assert result.status == OPTIMAL
    deeper = [e for e in events if "lp_value" in e and np.isfinite(e["parent_bound"])]
    assert deeper, "expected branched nodes"
    for e in deeper:
        assert e["lp_value"] <= e["parent_bound"] + 1e-6


def test_config_invariance(rng):
    data = random_dataset(rng, 22, [3, 2])
    topo = preset("depth2_5")
    expected, _ = enumerate_optimal(data, topo, budget=10**10)
    for strengthen in (True, False):
        for anchor in (True, False):
            for relax in (True, False):
                cfg = BuildConfig(
                    strengthen=strengthen, anchor=anchor, relax_integrality=relax
                )
                result = solve_milp(build_model(data, topo, cfg))
                assert result.objective == float(expected)


def test_constrained_solves_match_oracle(rng):
    # depth2_5 and depth3 merge tables below the root; the LP engine runs
    # only the small depth2 models
    for name in ("depth2", "depth2_5", "depth3"):
        topo = preset(name)
        methods = ("structured", "lp") if name == "depth2" else ("structured",)
        for _ in range(5 if name == "depth2" else 3):
            data = random_dataset(rng, 16 if name == "depth2" else 12, [2, 3])
            if (data.labels == 1).sum() == 0 or (data.labels == -1).sum() == 0:
                continue
            for beta in (Fraction(1, 2), Fraction(1)):
                expected, _ = enumerate_optimal(
                    data, topo, mode="max_sensitivity", min_specificity=beta
                )
                cfg = BuildConfig(mode="max_sensitivity", min_specificity=beta)
                for method in methods:
                    result = solve_milp(build_model(data, topo, cfg), method=method)
                    assert result.status == OPTIMAL
                    assert abs(result.objective - float(expected)) < 1e-7


def test_extract_tree_reads_assignment():
    schema_data = random_dataset(random.Random(0), 8, [3, 2])
    topo = preset("depth2")
    result = solve_milp(build_model(schema_data, topo))
    tree = extract_tree(result, topo, schema_data.schema)
    for k in topo.decision_nodes:
        g, subset = tree.tests[k]
        assert result.assignment[f"V_{k}_{g}"] == pytest.approx(1.0)
        for j in subset:
            assert result.assignment[f"Z_{k}_{j}"] == pytest.approx(1.0)


def test_extract_tree_fractional_selection():
    from grouptree.solver import SolveResult

    data = random_dataset(random.Random(0), 6, [2, 2])
    topo = preset("depth2")
    assignment = {f"V_{k}_{g}": 0.5 for k in topo.decision_nodes for g in range(2)}
    result = SolveResult(OPTIMAL, 0.0, 0.0, assignment)
    with pytest.raises(FractionalSelectionError):
        extract_tree(result, topo, data.schema)


def test_time_limit_without_incumbent(rng):
    data = random_dataset(rng, 12, [2, 2])
    for method in ("structured", "lp"):
        with pytest.raises(TimeLimitNoIncumbentError):
            solve_milp(
                build_model(data, preset("depth2")),
                SolveConfig(time_limit=0.0),
                method=method,
            )


def test_node_limit_returns_incumbent(rng, monkeypatch):
    monkeypatch.setattr(solver_mod, "ENUM_BUDGET", 1)
    base = random_dataset(rng, 10, [3, 3])
    # contradictory duplicates keep every tree imperfect, so the search
    # cannot prune everything after its first incumbent
    matrix = np.vstack([base.matrix, base.matrix])
    labels = np.concatenate([base.labels, -base.labels])
    data = EncodedDataset(matrix=matrix, labels=labels, schema=base.schema)
    for method in ("structured", "lp"):
        result = solve_milp(
            build_model(data, preset("depth2")), SolveConfig(node_limit=8), method=method
        )
        assert result.status == FEASIBLE_TIME_LIMIT
        assert result.objective is not None
        assert result.best_bound >= result.objective
        assert result.nodes_processed == 8


def _integer_program(sense, objective, rows, upper):
    """Integer X and Y in [0, upper] under rows of (coefficients, sense, rhs)."""
    return MilpModel(
        name="HAND",
        sense=sense,
        variables=[Variable(v, 0.0, upper, True, "x") for v in ("X", "Y")],
        constraints=[
            Constraint(f"R{t}", coeffs, con_sense, rhs)
            for t, (coeffs, con_sense, rhs) in enumerate(rows)
        ],
        objective=objective,
    )


def test_lp_engine_unbounded_integer_program():
    model = _integer_program(
        "max", (("X", 1.0),), [((("X", 1.0), ("Y", -1.0)), "<=", 0.5)], float("inf")
    )
    result = solve_milp(model, method="lp")
    assert result.status == UNBOUNDED
    assert result.objective is None
    assert result.best_bound == float("inf")
    assert result.nodes_processed == 1
    assert result.lp_iterations > 0


def test_lp_engine_min_sense_integer_program():
    model = _integer_program(
        "min", (("X", 1.0), ("Y", 1.0)), [((("X", 2.0), ("Y", 2.0)), ">=", 3.0)], 10.0
    )
    result = solve_milp(model, method="lp")
    assert result.status == OPTIMAL
    assert result.objective == 2.0
    assert result.best_bound == 2.0
    assert result.nodes_processed == 2
    assert result.assignment["X"] + result.assignment["Y"] == 2.0
    with pytest.raises(TimeLimitNoIncumbentError):
        solve_milp(model, SolveConfig(node_limit=0), method="lp")


def _general_integer_program(rng):
    """Integer variables on [0, U], U of 3, 5 or 8, under random <= rows."""
    names = [f"X{j}" for j in range(rng.randint(2, 3))]
    upper = float(rng.choice((3, 5, 8)))
    rows = [
        Constraint(f"R{t}", tuple((v, float(rng.randint(1, 9))) for v in names), "<=",
                   rng.randint(5, 40) + 0.5 * rng.randint(0, 1))
        for t in range(rng.randint(2, 3))
    ]
    objective = tuple((v, float(rng.randint(1, 9))) for v in names)
    variables = [Variable(v, 0.0, upper, True, "x") for v in names]
    return MilpModel("GENINT", "max", variables, rows, objective)


def _brute_force(model):
    values = range(int(model.variables[0].upper) + 1)
    best = -np.inf
    for point in itertools.product(values, repeat=len(model.variables)):
        x = dict(zip((v.name for v in model.variables), point))
        if all(sum(c * x[v] for v, c in row.coeffs) <= row.rhs for row in model.constraints):
            best = max(best, sum(c * x[v] for v, c in model.objective))
    return best


def test_lp_branching_nests_boxes(monkeypatch):
    # Branching twice on one general-integer variable must narrow the box the
    # node already has, not reopen the variable's original range.
    split = solver_mod._LpBranchAndBound.split
    looser = []

    def checked_split(self, patch, work):
        out = split(self, patch, work)
        for child in out[2]:
            for j, (lo, up) in child.items():
                parent_lo, parent_up = patch.get(j, (self.lower0[j], self.upper0[j]))
                if lo < parent_lo or up > parent_up:
                    looser.append((patch, child))
        return out

    monkeypatch.setattr(solver_mod._LpBranchAndBound, "split", checked_split)
    rng = random.Random(0)
    for _ in range(300):
        model = _general_integer_program(rng)
        result = solve_milp(model, SolveConfig(node_limit=500), method="lp")
        assert result.status == OPTIMAL
        assert result.objective == pytest.approx(_brute_force(model), abs=1e-6)
    assert not looser


def test_lp_branching_terminates_on_a_reopened_range():
    # With each child's box reset to the variable's original range, this
    # program branched on X1 <= 0 and then X1 >= 1 under it, and so on,
    # without ever finding an incumbent.
    names = ("X0", "X1", "X2")
    rows = [((8.0, 7.0, 1.0), 28.0), ((9.0, 5.0, 1.0), 23.5), ((5.0, 5.0, 6.0), 5.5)]
    model = MilpModel(
        "REOPEN", "max", [Variable(v, 0.0, 3.0, True, "x") for v in names],
        [Constraint(f"R{t}", tuple(zip(names, coeffs)), "<=", rhs)
         for t, (coeffs, rhs) in enumerate(rows)],
        tuple(zip(names, (9.0, 9.0, 3.0))),
    )
    result = solve_milp(model, SolveConfig(node_limit=500), method="lp")
    assert (result.status, result.objective) == (OPTIMAL, 9.0)
    assert result.nodes_processed == 10


def test_failed_resolve_pivots_are_counted(rng, monkeypatch):
    # Every dual re-solve does its pivots and then fails, so each node after
    # the root pays for a failed re-solve and a fresh solve; both are counted.
    spent = {"resolve": 0, "fresh": 0}
    resolve_dual, solve = BoundedSimplex.resolve_dual, BoundedSimplex.solve

    def failing_resolve(self):
        before = self.iterations
        resolve_dual(self)
        spent["resolve"] += self.iterations - before
        raise NumericalFailureError("forced")

    def counted_solve(self):
        status = solve(self)
        spent["fresh"] += self.iterations
        return status

    monkeypatch.setattr(BoundedSimplex, "resolve_dual", failing_resolve)
    monkeypatch.setattr(BoundedSimplex, "solve", counted_solve)
    data = random_dataset(rng, 16, [2, 3])
    result = solve_milp(build_model(data, preset("depth2")), method="lp")
    assert result.status == OPTIMAL
    assert result.nodes_processed > 1 and spent["resolve"] > 0
    assert result.lp_iterations == spent["fresh"] + spent["resolve"]


def test_parsed_model_solves_identically(rng):
    data = random_dataset(rng, 15, [2, 3])
    model = build_model(data, preset("depth2"))
    parsed = parse_mps(export_mps(model))
    assert parsed.structure is None
    r1 = solve_milp(model)
    r2 = solve_milp(parsed)
    assert abs(r1.objective - r2.objective) < 1e-7


def test_empty_subset_tree_is_legal(rng):
    # a dataset whose optimum routes everything one way must still extract
    data = random_dataset(rng, 9, [2], labels=[1] * 9)
    topo = preset("depth2")
    result = solve_milp(build_model(data, topo, BuildConfig(anchor=False)))
    assert result.objective == 9.0
    tree = extract_tree(result, topo, data.schema)
    m = evaluate(tree, data)
    assert m.accuracy == 1.0


def test_data_without_feature_groups_is_infeasible():
    from grouptree.encoding import build_schema, encode, parse_table
    from grouptree.topology import parse_shape

    table = parse_table("class\n1\n-1\n1\n", label_column="class")
    data = encode(table, build_schema(table))
    for topo in (preset("depth2"), parse_shape("(# #)", name="stump")):
        # without anchors no propagation step rules the root out
        for cfg in (BuildConfig(), BuildConfig(anchor=False)):
            result = solve_milp(build_model(data, topo, cfg))
            assert result.status == INFEASIBLE


def test_structured_search_is_freed_without_the_cycle_collector(rng):
    # a reference cycle would keep every solved model alive until the cyclic
    # collector happens to run, so repeated solves would hold several at once
    import gc
    import weakref

    model = build_model(random_dataset(rng, 20, [3, 2]), preset("depth2_5"))
    gc.disable()
    try:
        search = solver_mod._StructuredSearch(model, SolveConfig())
        search.run()
        ref = weakref.ref(search)
        del search
        assert ref() is None
    finally:
        gc.enable()


def test_determinism_same_result(rng):
    data = random_dataset(rng, 26, [3, 3, 2])
    model = build_model(data, preset("depth2_5"))
    a = solve_milp(model)
    b = solve_milp(build_model(data, preset("depth2_5")))
    assert a.objective == b.objective
    assert a.assignment == b.assignment
    assert a.nodes_processed == b.nodes_processed


def test_weighted_objective_matches_oracle(rng):
    # non-integer weights are scaled to integers inside the structured engine
    for name in ("depth2", "depth2_5", "depth3"):
        topo = preset(name)
        methods = ("structured", "lp") if name == "depth2" else ("structured",)
        weights = (Fraction(5, 2),) * (4 if name == "depth2" else 1)
        for weight in weights + (Fraction(3, 2), Fraction(1, 3)):
            data = random_dataset(rng, 18 if name == "depth2" else 12, [3, 2])
            expected, _ = enumerate_optimal(data, topo, class_weight=weight)
            cfg = BuildConfig(class_weight=weight)
            for method in methods:
                result = solve_milp(build_model(data, topo, cfg), method=method)
                assert result.status == OPTIMAL
                assert abs(result.objective - float(expected)) < 1e-7
                tree = extract_tree(result, topo, data.schema)
                m = evaluate(tree, data)
                earned = m.true_positive + weight * m.true_negative
                assert abs(result.objective - float(earned)) < 1e-7


def test_progress_log_line_format(rng, caplog):
    import logging
    import re

    data = random_dataset(rng, 14, [2, 2])
    with caplog.at_level(logging.INFO, logger="grouptree.solver"):
        solve_milp(
            build_model(data, preset("depth2")),
            SolveConfig(log_progress=True),
            method="lp",
        )
    lines = [r.getMessage() for r in caplog.records]
    assert lines
    pattern = re.compile(
        r"^node=\d+ incumbent=(-|[-\d.e+]+) bound=[-\d.e+]+ gap=(-|[-\d.e+]+) time=\d+\.\d\d$"
    )
    assert all(pattern.match(line) for line in lines), lines[:3]


def test_custom_single_node_shape(rng):
    from grouptree.topology import parse_shape

    topo = parse_shape("(# #)", name="stump")
    data = random_dataset(rng, 20, [3, 2])
    expected, _ = enumerate_optimal(data, topo)
    for method in ("structured", "lp"):
        result = solve_milp(build_model(data, topo), method=method)
        assert result.status == OPTIMAL
        assert abs(result.objective - float(expected)) < 1e-9
    tree = extract_tree(result, topo, data.schema)
    m = evaluate(tree, data)
    assert m.true_positive + m.true_negative == int(expected)


def test_generic_assignment_matches_replay(rng):
    data = random_dataset(rng, 14, [2, 3])
    topo = preset("depth2")
    model = build_model(data, topo)
    result = solve_milp(model, method="lp")
    tree = extract_tree(result, topo, data.schema)
    leaves = tree.route_all(data.matrix)
    for var in model.variables:
        if var.role != "c":
            continue
        _, i_s, b_s = var.name.split("_")
        want = 1.0 if leaves[int(i_s)] == int(b_s) else 0.0
        assert result.assignment[var.name] == pytest.approx(want, abs=1e-6)


def _brute_force_nontrivial(data, topo, weight=1, floor=None, floored="tn"):
    """Test-local reference: enumerate non-trivial tests at every node.

    With a ``floor``, the ``floored`` count ("tn" or "tp") must reach it and
    the other count is maximized.
    """
    from itertools import combinations, product

    from grouptree.tree import DecisionTree

    options = []
    for g in range(data.schema.n_groups):
        feats = data.schema.features_of(g)
        for size in range(1, len(feats)):
            for combo in combinations(feats, size):
                options.append((g, frozenset(combo)))
    best = None
    for choice in product(options, repeat=topo.n_decision_nodes):
        tests = {k: choice[k - 1] for k in topo.decision_nodes}
        tree = DecisionTree(
            topology=topo, tests=tests, n_features=data.n_features,
            group_sizes=data.schema.group_sizes,
        )
        m = evaluate(tree, data)
        if floor is None:
            value = m.true_positive + weight * m.true_negative
        else:
            kept, value = (
                (m.true_negative, m.true_positive)
                if floored == "tn"
                else (m.true_positive, m.true_negative)
            )
            if kept < floor:
                continue
        if best is None or value > best:
            best = value
    return best


def _assert_nontrivial(tree):
    for g, subset in tree.tests.values():
        assert 0 < len(subset) < tree.group_sizes[g]


def test_forbid_trivial_against_brute_force(rng):
    # deeper shapes merge tables below the root; weights check the scaling
    weights = (Fraction(3, 2), Fraction(1, 3))
    cases = [("depth2", 1)] * 3 + [("depth2", w) for w in weights]
    cases += [("depth2_5", w) for w in (1,) + weights] + [("depth3", 1)]
    for name, weight in cases:
        topo = preset(name)
        data = random_dataset(rng, 14 if name == "depth2" else 10, [2, 2])
        expected = _brute_force_nontrivial(data, topo, weight=weight)
        cfg = BuildConfig(forbid_trivial_branch=True, class_weight=weight)
        methods = ("structured", "lp") if name == "depth2" else ("structured",)
        for method in methods:
            result = solve_milp(build_model(data, topo, cfg), method=method)
            assert result.status == OPTIMAL
            assert abs(result.objective - float(expected)) < 1e-7, method
            _assert_nontrivial(extract_tree(result, topo, data.schema))


def test_forbid_trivial_constrained_against_brute_force(rng):
    cases = [("depth2", "max_sensitivity")] * 3 + [("depth2", "max_specificity")] * 2
    cases += [("depth2_5", "max_sensitivity"), ("depth2_5", "max_specificity")]
    cases += [("depth3", "max_sensitivity")]
    for name, mode in cases:
        topo = preset(name)
        data = random_dataset(rng, 12 if name == "depth2" else 10, [2, 2])
        floored = (data.labels == (-1 if mode == "max_sensitivity" else 1)).sum()
        if floored == 0 or floored == data.n_samples:
            continue
        floor_rate = Fraction(1, 2)
        floor = -(-int(floored) // 2)
        expected = _brute_force_nontrivial(
            data, topo, floor=floor, floored="tn" if mode == "max_sensitivity" else "tp"
        )
        rate_key = "min_specificity" if mode == "max_sensitivity" else "min_sensitivity"
        cfg = BuildConfig(
            forbid_trivial_branch=True, mode=mode, **{rate_key: floor_rate}
        )
        model = build_model(data, topo, cfg)
        methods = ("structured", "lp") if name == "depth2" else ("structured",)
        for method in methods:
            result = solve_milp(model, method=method)
            if expected is None:
                assert result.status == INFEASIBLE, method
            else:
                assert result.status == OPTIMAL
                assert abs(result.objective - float(expected)) < 1e-7, method
                _assert_nontrivial(extract_tree(result, topo, data.schema))


def test_forbid_trivial_constrained_large_group_is_feasible():
    # a group wider than 16 categories must not turn a feasible problem
    # into an infeasible one
    data = random_dataset(random.Random(5), 40, [2, 3, 17])
    topo = preset("depth2")
    beta = Fraction(1, 2)
    cfg = BuildConfig(
        mode="max_sensitivity", min_specificity=beta, forbid_trivial_branch=True
    )
    result = solve_milp(build_model(data, topo, cfg))
    assert result.status == OPTIMAL
    assert result.objective >= 15
    tree = extract_tree(result, topo, data.schema)
    m = evaluate(tree, data)
    n_neg = int((data.labels == -1).sum())
    assert m.true_negative >= beta * n_neg
    assert m.true_positive == result.objective
    _assert_nontrivial(tree)


def test_max_specificity_matches_oracle(rng):
    for name in ("depth2", "depth2_5", "depth3"):
        topo = preset(name)
        methods = ("structured", "lp") if name == "depth2" else ("structured",)
        for _ in range(4 if name == "depth2" else 2):
            data = random_dataset(rng, 14 if name == "depth2" else 12, [2, 3])
            if (data.labels == 1).sum() == 0 or (data.labels == -1).sum() == 0:
                continue
            for alpha in (Fraction(1, 2), Fraction(1)):
                expected, _ = enumerate_optimal(
                    data, topo, mode="max_specificity", min_sensitivity=alpha
                )
                cfg = BuildConfig(mode="max_specificity", min_sensitivity=alpha)
                for method in methods:
                    result = solve_milp(build_model(data, topo, cfg), method=method)
                    assert result.status == OPTIMAL
                    assert abs(result.objective - float(expected)) < 1e-7, method


def test_decided_box_over_budget_is_closed(rng, monkeypatch):
    # Every bit of a box can be decided while its test count, which sums one
    # all-right test per group, still exceeds the budget: such a box has no
    # bit left to branch on and is closed.
    monkeypatch.setattr(solver_mod, "ENUM_BUDGET", 4)
    topo = preset("depth3")
    for t in range(6):
        data = random_dataset(rng, rng.randrange(10, 16), [(2, 2), (3, 2)][t % 2])
        expected, _ = enumerate_optimal(data, topo, budget=10**12)
        result = solve_milp(build_model(data, topo, BuildConfig(anchor=False)))
        assert result.status == OPTIMAL
        assert result.objective == float(expected)


def test_wide_unanchored_search_is_optimal():
    # 17 groups at the shipped budget: three decided unpinned nodes count
    # 17**3 tests, over ENUM_BUDGET
    data = random_dataset(random.Random(0), 60, [2] * 17)
    topo = preset("depth3")
    result = solve_milp(build_model(data, topo, BuildConfig(anchor=False)))
    assert result.status == OPTIMAL
    assert result.objective == solve_milp(build_model(data, topo)).objective


@pytest.mark.parametrize("store_cells", [None, 40], ids=["store", "tiny-store"])
@pytest.mark.parametrize(
    "cfg",
    [
        BuildConfig(),
        BuildConfig(
            mode="max_sensitivity", min_specificity=Fraction(1, 2), forbid_trivial_branch=True
        ),
    ],
    ids=["accuracy", "floored"],
)
def test_leaf_tables_match_the_kernel(monkeypatch, store_cells, cfg):
    # Leaf-adjacent tables served from the per-solve store are the kernel's
    # own, for repeated and new masks alike, also when a tiny store (a few
    # rows) is refilled on almost every batch.
    if store_cells is not None:
        monkeypatch.setattr(solver_mod, "_TABLE_STORE_CELLS", store_cells)
    data = random_dataset(random.Random(3), 40, [3, 2, 4])
    search = solver_mod._StructuredSearch(
        build_model(data, preset("depth2"), cfg), SolveConfig()
    )
    leaf = ("node", min(search.topo.leaf_adjacent))
    gen = np.random.default_rng(3)
    pool = np.vstack([np.zeros((1, 40), bool), np.ones((1, 40), bool),
                      gen.random((10, 40)) < 0.5])
    seen = set()
    for _ in range(8):
        masks = np.vstack([pool[gen.integers(0, len(pool), 25)], gen.random((3, 40)) < 0.5])
        seen.update(row.tobytes() for row in masks)
        best, winners = search._tables(leaf, masks, None)
        tables = search._group_tables(search._gains(masks))
        assert np.array_equal(best, tables.max(axis=1))
        assert np.array_equal(winners, tables.argmax(axis=1))
    if store_cells is None:
        assert len(search.store_index) == len(seen)  # each mask stored once
    else:
        assert len(search.store_best) < len(seen)


def _direct_tables(search, child, masks, options):
    """Test-local reference: a subtree's tables from their definition, mask by mask.

    A branched node's entry ``u`` is the best ``left[t] + right[u - t]`` over
    its options; its winner is the first option reaching it.
    """
    k = child[1]
    if k in search.topo.leaf_adjacent:
        tables = search._group_tables(search._gains(masks))
        return tables.max(axis=1), tables.argmax(axis=1)
    tests = options[search.decl_pos[k]]
    go = search._go_left(tests)
    left_child, right_child = search.topo.children[k]
    best = np.empty((len(masks), search.floor + 1))
    winners = np.empty(best.shape, dtype=np.int64)
    for i, mask in enumerate(masks):
        left = _direct_tables(search, left_child, mask & go, options)[0]
        right = _direct_tables(search, right_child, mask & ~go, options)[0]
        merged = np.stack(
            [np.max([left[:, t] + right[:, u - t] for t in range(u + 1)], axis=0)
             for u in range(search.floor + 1)],
            axis=1,
        )
        best[i], winners[i] = merged.max(axis=0), merged.argmax(axis=0)
    return best, winners


@pytest.mark.parametrize("store_cells", [None, 40], ids=["store", "tiny-store"])
@pytest.mark.parametrize(
    "cfg",
    [
        BuildConfig(),
        BuildConfig(
            mode="max_sensitivity", min_specificity=Fraction(1, 2), forbid_trivial_branch=True
        ),
    ],
    ids=["accuracy", "floored"],
)
@pytest.mark.parametrize("shape", ["depth3", "imbalanced"])
def test_branched_tables_match_direct_ones(monkeypatch, shape, store_cells, cfg):
    # A non-root branched node's tables served from the per-solve store are
    # its tables by definition, for repeated and new masks, under closures
    # whose boxes differ at the node or only below it, and also when a tiny
    # store (a few rows) is cleared inside the nested calls that compute them.
    if store_cells is not None:
        monkeypatch.setattr(solver_mod, "_TABLE_STORE_CELLS", store_cells)
    n = 24
    data = random_dataset(random.Random(4), n, [3, 2, 3])
    search = solver_mod._StructuredSearch(
        build_model(data, preset(shape), cfg), SolveConfig()
    )
    closures = []
    # nothing pinned; group 2 pinned at every branched node but the root; and
    # pinned at the deepest one only, which is below node 2 in "imbalanced"
    for pinned in (slice(0), slice(1, None), slice(-1, None)):
        zlo = np.zeros((search.n_decl, search.d), dtype=np.int8)
        zhi = np.ones_like(zlo)
        zlo[pinned, data.schema.features_of(2)[1]] = 1
        allowed = search._allowed(zlo, zhi)
        options = [search._options(node) for node in allowed]
        closures.append((options, search._signatures(zlo, zhi)))
    assert all(closures[0][1][k] != closures[1][1][k] for k in search.subtree_rows)
    gen = np.random.default_rng(4)
    pool = np.vstack([np.ones((1, n), bool), gen.random((6, n)) < 0.6])
    seen = {k: set() for k in search.subtree_rows}  # the store keys fed to each node
    for batch in range(9):
        masks = np.vstack([pool[gen.integers(0, len(pool), 7)], gen.random((2, n)) < 0.6])
        closure = closures[batch % 3]
        for k in search.subtree_rows:
            sig = closure[1][k]
            seen[k].update(sig + np.packbits(row).tobytes() for row in masks)
            best, winners = search._tables(("node", k), masks, closure)
            expected_best, expected_winners = _direct_tables(
                search, ("node", k), masks, closure[0]
            )
            assert np.array_equal(best, expected_best)
            assert np.array_equal(winners, expected_winners)
    stored = set(search.store_index)
    for k, keys in seen.items():
        if store_cells is not None:
            assert not keys <= stored  # the tiny store dropped some of them
        elif ("node", k) in search.topo.children[search.topo.root]:
            # only this test feeds the root's children: each key stored once
            assert {key for key in stored if key[:4] == k.to_bytes(4, "little")} == keys
        else:
            assert keys <= stored


@pytest.mark.parametrize(
    "mode", ["accuracy", "max_sensitivity", "max_specificity"]
)
def test_solves_under_a_tiny_store_match_oracle(monkeypatch, mode):
    # A store of a few rows is cleared inside the nested calls of almost
    # every closure; the optimum must not move.
    monkeypatch.setattr(solver_mod, "_TABLE_STORE_CELLS", 60)
    rng = random.Random(11)
    for name in ("depth3", "imbalanced"):
        topo = preset(name)
        for _ in range(2):
            data = random_dataset(rng, rng.randrange(10, 15), [2, 3])
            if (data.labels == 1).sum() == 0 or (data.labels == -1).sum() == 0:
                continue
            floor = {"max_sensitivity": {"min_specificity": Fraction(1, 2)},
                     "max_specificity": {"min_sensitivity": Fraction(2, 3)}}.get(mode, {})
            expected, _ = enumerate_optimal(data, topo, mode=mode, **floor)
            result = solve_milp(build_model(data, topo, BuildConfig(mode=mode, **floor)))
            assert result.status == OPTIMAL
            assert abs(result.objective - float(expected)) < 1e-7
            tree = extract_tree(result, topo, data.schema)
            m = evaluate(tree, data)
            earned = {"accuracy": m.true_positive + m.true_negative,
                      "max_sensitivity": m.true_positive,
                      "max_specificity": m.true_negative}[mode]
            assert earned == int(expected)


def test_go_left_follows_its_definition():
    # Sample i goes left under (g, subset) exactly when its feature in group
    # g is in the subset.  Checked on whole option lists spanning several
    # groups, with the all-right test (unanchored root) and fixed anchors
    # (anchored node 2), after a bit pins a group, and on the slices that
    # _tables passes.
    data = random_dataset(random.Random(5), 30, [3, 1, 2, 4])
    search = solver_mod._StructuredSearch(build_model(data, preset("depth2_5")), SolveConfig())
    schema = data.schema
    active = {
        (i, g): next(j for j in schema.features_of(g) if data.matrix[i, j] == 1)
        for i in range(data.n_samples)
        for g in range(schema.n_groups)
    }

    def check(options):
        go = search._go_left(options)
        assert go.shape == (len(options), data.n_samples) and go.dtype == bool
        for o, (g, subset) in enumerate(options):
            assert go[o].tolist() == [active[i, g] in subset for i in range(data.n_samples)]

    zlo = np.zeros((search.n_decl, search.d), dtype=np.int8)
    root, anchored = [search._options(node) for node in search._allowed(zlo, np.ones_like(zlo))]
    assert len({g for g, _ in root}) == len({g for g, _ in anchored}) == 4
    assert any(not subset for _, subset in root)
    assert all(schema.anchor_feature(g) in subset for g, subset in anchored)
    zlo[1, schema.features_of(3)[2]] = 1
    pinned = search._options(search._allowed(zlo, np.ones_like(zlo))[1])
    assert {g for g, _ in pinned} == {3}
    for options in (root, anchored, pinned):
        check(options)
        for start in range(0, len(options), 7):
            check(options[start:start + 7])
    check([(2, ()), (1, (schema.features_of(1)[0],)), root[-1], anchored[0]])


def test_structured_search_is_pinned(monkeypatch):
    # Exact figures of the structured engine: any change to propagation, the
    # bound, the closure count or the branching order shows up here before it
    # shows in a fingerprint.
    _check_pinned_figures(monkeypatch, None)


def test_structured_search_is_pinned_with_a_tiny_store(monkeypatch):
    # A table store of a few rows, refilled on almost every batch, must not
    # change the pinned figures.
    _check_pinned_figures(monkeypatch, 200)


def test_structured_search_is_pinned_with_a_store_cleared_mid_batch(monkeypatch):
    # A store of some hundred rows keeps a branched node's rows across
    # batches but is cleared while that node computes the rows of its new
    # masks; the rows it already held must still be served.
    _check_pinned_figures(monkeypatch, 30000)


def _check_pinned_figures(monkeypatch, store_cells):
    from grouptree.datasets import monks
    from grouptree.encoding import build_schema, encode
    from grouptree.experiments import train_test_run

    if store_cells is not None:
        monkeypatch.setattr(solver_mod, "_TABLE_STORE_CELLS", store_cells)
    table = monks(1)
    run = train_test_run(encode(table, build_schema(table)), preset("imbalanced"), seed=1)
    assert (run.solve.status, run.solve.objective) == (OPTIMAL, 389.0)
    assert run.solve.nodes_processed == 39

    monkeypatch.setattr(solver_mod, "ENUM_BUDGET", 2)
    monkeypatch.setattr(solver_mod, "ENUM_BUDGET_CONSTRAINED", 2)
    data = random_dataset(random.Random(1), 20, [3, 3])
    cfg = BuildConfig(
        mode="max_sensitivity", min_specificity=Fraction(1, 2), forbid_trivial_branch=True
    )
    records = []
    model = build_model(data, preset("depth2_5"), cfg)
    result = solve_milp(model, SolveConfig(callback=records.append))
    assert (result.status, result.objective, result.best_bound) == (OPTIMAL, 12.0, 12.0)
    assert result.nodes_processed == 20
    # nodes 9, 11 and 16 hold no test and report nothing
    bounded = [1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 13, 14, 15, 17, 18, 19]
    expected = [(k, None, 12.0) for k in bounded] + [(20, 9.0, 12.0)]
    assert [(r["node"], r["incumbent"], r["bound"]) for r in records] == expected
    assert all(set(r) == {"node", "incumbent", "bound", "time"} for r in records)
