import itertools
import math
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import grouptree.solver as solver_mod
from grouptree.encoding import EncodedDataset
from grouptree.errors import (
    FractionalSelectionError,
    InfeasibleError,
    InvalidConfigError,
    MalformedTreeError,
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
from grouptree.topology import PRESET_SHAPES, parse_shape, preset
from grouptree.tree import evaluate
from tests.conftest import make_schema, random_dataset


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
    # the LP engine returns an integral vertex; the structured engine returns
    # a test per decision node instead of variable values
    topo = preset("depth2")
    for method in ("auto", "lp"):
        data = random_dataset(rng, 16, [2, 3])
        model = build_model(data, topo)
        result = solve_milp(model, method=method)
        assert result.status == OPTIMAL
        if method == "lp":
            assert result.tests is None
            for name, val in result.assignment.items():
                assert abs(val - round(val)) < 1e-6, (name, val)
        else:
            assert result.assignment == {}
            assert sorted(result.tests) == sorted(topo.decision_nodes)
            assert all(isinstance(s, frozenset) for _, s in result.tests.values())


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
        methods = ("auto", "lp") if name == "depth2" else ("auto",)
        for _ in range(5 if name == "depth2" else 3):
            data = random_dataset(rng, 16 if name == "depth2" else 12, [2, 3])
            if (data.labels == 1).sum() == 0 or (data.labels == -1).sum() == 0:
                continue
            for beta in (Fraction(1, 2), Fraction(1)):
                expected, _ = enumerate_optimal(
                    data, topo, min_specificity=beta
                )
                cfg = BuildConfig(min_specificity=beta)
                for method in methods:
                    result = solve_milp(build_model(data, topo, cfg), method=method)
                    assert result.status == OPTIMAL
                    assert abs(result.objective - float(expected)) < 1e-7


def test_extract_tree_reads_assignment():
    schema_data = random_dataset(random.Random(0), 8, [3, 2])
    topo = preset("depth2")
    result = solve_milp(build_model(schema_data, topo), method="lp")
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


def test_extract_tree_checks_structured_tests_against_the_topology(rng):
    # a structured result holds tests for its own shape's nodes; read with
    # another shape's, it is refused, not parsed from names that are absent
    data = random_dataset(rng, 12, [2, 3])
    for solved, other in (("depth2", "depth3"), ("depth3", "depth2")):
        result = solve_milp(build_model(data, preset(solved)))
        assert result.tests is not None
        with pytest.raises(MalformedTreeError):
            extract_tree(result, preset(other), data.schema)


def test_time_limit_without_incumbent(rng):
    data = random_dataset(rng, 12, [2, 2])
    for method in ("auto", "lp"):
        with pytest.raises(TimeLimitNoIncumbentError):
            solve_milp(
                build_model(data, preset("depth2")),
                SolveConfig(time_limit=0.0),
                method=method,
            )


@pytest.mark.parametrize(
    "limits",
    [{"time_limit": float("nan")}, {"time_limit": -1.0}, {"node_limit": -1},
     {"node_limit": 2.5}, {"node_limit": float("nan")}],
    ids=["time-nan", "time-negative", "nodes-negative", "nodes-fraction", "nodes-nan"],
)
def test_invalid_limits_are_rejected(limits):
    # a NaN time limit compares false with every elapsed time, so it would
    # run without a limit
    with pytest.raises(InvalidConfigError):
        SolveConfig(**limits)


def test_unknown_method_is_rejected(rng):
    # "auto" runs the structured engine on a built model; there is no
    # separate name for it
    model = build_model(random_dataset(rng, 8, [2]), preset("depth2"))
    with pytest.raises(ValueError):
        solve_milp(model, method="structured")


def test_valid_limits_are_kept():
    assert SolveConfig(time_limit=0.0, node_limit=0).node_limit == 0
    assert SolveConfig(time_limit=float("inf")).time_limit == float("inf")


def test_node_limit_returns_incumbent(rng, monkeypatch):
    monkeypatch.setattr(solver_mod, "ENUM_BUDGET", 1)
    base = random_dataset(rng, 10, [3, 3])
    # contradictory duplicates keep every tree imperfect, so the search
    # cannot prune everything after its first incumbent
    matrix = np.vstack([base.matrix, base.matrix])
    labels = np.concatenate([base.labels, -base.labels])
    data = EncodedDataset(matrix=matrix, labels=labels, schema=base.schema)
    for method in ("auto", "lp"):
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
        variables=[Variable(v, 0.0, upper, True) for v in ("X", "Y")],
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


def _rowless_mps(sense, columns):
    """MPS text of a model with no rows: columns ``(cost, lower, upper, integer)``."""
    lines = ["NAME          NOROWS", "OBJSENSE", f"    {sense.upper()}", "ROWS", " N  OBJ",
             "COLUMNS"]
    bounds = []
    for j, (cost, lower, upper, integer) in enumerate(columns):
        marker = "INTORG" if integer else "INTEND"
        lines.append(f"    MARKER{j}   'MARKER'   '{marker}'")
        lines.append(f"    X{j}   OBJ   {cost}")
        bounds.append(f" LO BND   X{j}   {lower}")
        if upper is not None:
            bounds.append(f" UP BND   X{j}   {upper}")
    return "\n".join(lines + ["BOUNDS"] + bounds + ["ENDATA", ""])


@pytest.mark.parametrize("sense", ["min", "max"])
def test_lp_engine_solves_a_model_without_rows(sense):
    # With no rows each column sits at one of its bounds, an integer
    # column's rounded inwards, so the optimum is the best corner of the box;
    # a column without an upper bound that the objective pushes upwards makes
    # the model unbounded.  A fractional upper bound on an integer column
    # makes the LP engine branch: one child re-solves with the dual simplex,
    # the other is left no range.
    rng = random.Random(12)
    cases = [[(1.0, 0, 3, True)], [(1.0, 0, None, False)], [(-1.0, 1, None, True)]]
    for _ in range(12):
        cases.append([])
        for _ in range(rng.randint(1, 3)):
            integer = rng.random() < 0.5
            lower = rng.choice((0, 1) if integer else (0, 1, 1.5))
            cost = rng.choice((-3.0, -1.5, 0.0, 1.0, 2.5))
            cases[-1].append((cost, lower, lower + rng.choice((0, 1, 2.5, 4)), integer))
    sign = 1.0 if sense == "max" else -1.0
    for columns in cases:
        model = parse_mps(_rowless_mps(sense, columns))
        assert not model.constraints
        value, _, lp_status = solve_lp(model)
        result = solve_milp(model, method="lp")
        if any(up is None and sign * cost > 0 for cost, _, up, _ in columns):
            assert lp_status == result.status == UNBOUNDED
            continue
        # an unbounded column is best at its lower bound here
        relaxed = [(lo, lo if up is None else up) for _, lo, up, _ in columns]
        integral = [(math.ceil(lo), math.floor(up)) if integer else (lo, up)
                    for (_, _, _, integer), (lo, up) in zip(columns, relaxed)]
        for box, got in ((relaxed, value), (integral, result.objective)):
            best = max(sign * sum(c * x for (c, _, _, _), x in zip(columns, point))
                       for point in itertools.product(*box))
            assert got == sign * best
        for got in (value, result.objective, result.best_bound):
            assert got != 0.0 or math.copysign(1.0, got) == 1.0  # 0.0, not -0.0
        assert lp_status == result.status == OPTIMAL
        x = [result.assignment[f"X{j}"] for j in range(len(columns))]
        assert sum(c * v for (c, _, _, _), v in zip(columns, x)) == result.objective
        for (_, lo, up, integer), v in zip(columns, x):
            assert lo <= v <= (np.inf if up is None else up)
            assert not integer or v == round(v)


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
    variables = [Variable(v, 0.0, upper, True) for v in names]
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
        "REOPEN", "max", [Variable(v, 0.0, 3.0, True) for v in names],
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

    def failing_resolve(self, lower, upper):
        before = self.iterations
        resolve_dual(self, lower, upper)
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


def test_failed_resolves_fall_back_to_the_node_box(monkeypatch):
    # Every dual re-solve fails, so each node after the root is solved fresh.
    # That solve must keep to the node's own box, raised lower bounds
    # included, or the search prunes and accepts on a wrong relaxation.
    resolve_dual, bound = BoundedSimplex.resolve_dual, solver_mod._LpBranchAndBound.bound
    outside = []

    def failing_resolve(self, lower, upper):
        resolve_dual(self, lower, upper)
        raise NumericalFailureError("forced")

    def checked_bound(self, patch, parent_bound):
        bounded = bound(self, patch, parent_bound)
        if bounded is not None and bounded[2] is not None:
            x = bounded[2][1]
            lower, upper = self.lower0.copy(), self.upper0.copy()
            for j, (lo, up) in patch.items():
                lower[j], upper[j] = lo, up
            if np.any(x < lower - 1e-6) or np.any(x > upper + 1e-6):
                outside.append(patch)
        return bounded

    monkeypatch.setattr(BoundedSimplex, "resolve_dual", failing_resolve)
    monkeypatch.setattr(solver_mod._LpBranchAndBound, "bound", checked_bound)
    rng = random.Random(3)
    topo = preset("depth2")
    for _ in range(6):
        data = random_dataset(rng, rng.randrange(10, 18), [2, 3])
        expected, _ = enumerate_optimal(data, topo)
        result = solve_milp(build_model(data, topo), method="lp")
        assert result.status == OPTIMAL
        assert result.objective == pytest.approx(float(expected), abs=1e-7)
    assert not outside


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
    assert a.tests == b.tests
    assert a.nodes_processed == b.nodes_processed


def test_weighted_objective_matches_oracle(rng):
    # non-integer weights are scaled to integers inside the structured engine
    for name in ("depth2", "depth2_5", "depth3"):
        topo = preset(name)
        methods = ("auto", "lp") if name == "depth2" else ("auto",)
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
    for method in ("auto", "lp"):
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
        if not var.name.startswith("C_"):
            continue
        _, i_s, b_s = var.name.split("_")
        want = 1.0 if leaves[int(i_s)] == int(b_s) else 0.0
        assert result.assignment[var.name] == pytest.approx(want, abs=1e-6)


def _oracle_nontrivial(data, topo, **objective):
    """The oracle's optimum with trivial tests forbidden; None if infeasible."""
    try:
        return enumerate_optimal(data, topo, forbid_trivial=True, **objective)[0]
    except InfeasibleError:
        return None


def _assert_nontrivial(tree):
    for g, subset in tree.tests.values():
        assert 0 < len(subset) < tree.group_sizes[g]


def _lowers(data, topo, expected, **objective):
    """Whether forbidding trivial tests lowers the optimum (None: no tree at all)."""
    allowed = enumerate_optimal(data, topo, **objective)[0]
    return expected is None or expected < allowed


def test_forbid_trivial_against_brute_force(rng):
    # deeper shapes merge tables below the root; weights check the scaling.
    # A node below the root can send all of its samples one way by a test on
    # an ancestor's group, so only the root can lose by the rule: on the
    # stumps over one class every allowed test is trivial, so there the
    # forbidding optimum must be the lower one.
    weights = (Fraction(3, 2), Fraction(1, 3))
    cases = [("depth2", 1)] * 3 + [("depth2", w) for w in weights]
    cases += [("depth2_5", w) for w in (1,) + weights] + [("depth3", 1)]
    cases += [("(# #)", w) for w in (1,) + weights]
    lowered = 0
    for name, weight in cases:
        if name == "(# #)":
            topo = parse_shape(name)
            data = random_dataset(rng, 10, [2, 2], labels=[rng.choice((-1, 1))] * 10)
        else:
            topo = preset(name)
            data = random_dataset(rng, 14 if name == "depth2" else 10, [2, 2])
        expected = _oracle_nontrivial(data, topo, class_weight=weight)
        lowered += _lowers(data, topo, expected, class_weight=weight)
        cfg = BuildConfig(forbid_trivial_branch=True, class_weight=weight)
        methods = ("auto", "lp") if name in ("depth2", "(# #)") else ("auto",)
        for method in methods:
            result = solve_milp(build_model(data, topo, cfg), method=method)
            assert result.status == OPTIMAL
            assert abs(result.objective - float(expected)) < 1e-7, method
            _assert_nontrivial(extract_tree(result, topo, data.schema))
    assert lowered == 3


def test_forbid_trivial_constrained_against_brute_force(rng):
    # The stumps last: each category holds one sample of each class and
    # every floored-class sample must be right, which only a trivial test
    # does, so with trivial tests forbidden there is no tree at all.
    cases = [("depth2", "max_sensitivity")] * 3 + [("depth2", "max_specificity")] * 2
    cases += [("depth2_5", "max_sensitivity"), ("depth2_5", "max_specificity")]
    cases += [("depth3", "max_sensitivity")]
    cases += [("(# #)", "max_sensitivity"), ("(# #)", "max_specificity")]
    lowered = 0
    for name, mode in cases:
        floored_label = -1 if mode == "max_sensitivity" else 1
        if name == "(# #)":
            topo, rate = parse_shape(name), Fraction(1)
            data = EncodedDataset(
                matrix=np.array([[1, 0], [0, 1], [1, 0], [0, 1]], dtype=np.uint8),
                labels=np.array([1, 1, -1, -1], dtype=np.int8) * floored_label,
                schema=make_schema([2]),
            )
        else:
            topo, rate = preset(name), Fraction(1, 2)
            data = random_dataset(rng, 12 if name == "depth2" else 10, [2, 2])
        floored = (data.labels == floored_label).sum()
        if floored == 0 or floored == data.n_samples:
            continue
        rate_key = "min_specificity" if mode == "max_sensitivity" else "min_sensitivity"
        expected = _oracle_nontrivial(data, topo, **{rate_key: rate})
        lowered += _lowers(data, topo, expected, **{rate_key: rate})
        cfg = BuildConfig(forbid_trivial_branch=True, **{rate_key: rate})
        model = build_model(data, topo, cfg)
        methods = ("auto", "lp") if name in ("depth2", "(# #)") else ("auto",)
        for method in methods:
            result = solve_milp(model, method=method)
            if expected is None:
                assert result.status == INFEASIBLE, method
            else:
                assert result.status == OPTIMAL
                assert abs(result.objective - float(expected)) < 1e-7, method
                _assert_nontrivial(extract_tree(result, topo, data.schema))
    assert lowered == 2


def test_forbid_trivial_constrained_large_group_is_feasible():
    # a group wider than 16 categories must not turn a feasible problem
    # into an infeasible one
    data = random_dataset(random.Random(5), 40, [2, 3, 17])
    topo = preset("depth2")
    beta = Fraction(1, 2)
    cfg = BuildConfig(
        min_specificity=beta, forbid_trivial_branch=True
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
        methods = ("auto", "lp") if name == "depth2" else ("auto",)
        for _ in range(4 if name == "depth2" else 2):
            data = random_dataset(rng, 14 if name == "depth2" else 12, [2, 3])
            if (data.labels == 1).sum() == 0 or (data.labels == -1).sum() == 0:
                continue
            for alpha in (Fraction(1, 2), Fraction(1)):
                expected, _ = enumerate_optimal(
                    data, topo, min_sensitivity=alpha
                )
                cfg = BuildConfig(min_sensitivity=alpha)
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


def _class_counts(search, masks):
    """Test-local reference: per mask and feature slot, the routed [negatives, positives]."""
    counts = np.zeros((len(masks), 2) + search.slot_used.shape)
    for c, label in enumerate((-1, 1)):
        routed = (masks & (search.data.labels == label)).astype(np.int64)
        per_feature = routed @ search.data.matrix.astype(np.int64)
        for g, feats in enumerate(search.group_feats):
            counts[:, c, g, : len(feats)] = per_feature[:, feats]
    return counts


@pytest.mark.parametrize("store_cells", [None, 40], ids=["store", "tiny-store"])
@pytest.mark.parametrize(
    "cfg",
    [
        BuildConfig(),
        BuildConfig(
            min_specificity=Fraction(1, 2), forbid_trivial_branch=True
        ),
    ],
    ids=["accuracy", "floored"],
)
def test_leaf_tables_match_the_kernel(monkeypatch, store_cells, cfg):
    # Leaf-adjacent tables served from the per-solve store, and the winners
    # that _computed names, are the knapsack's, which in accuracy mode is not
    # the kernel the search runs, for repeated and new masks alike, also when
    # a tiny store (a few rows) is refilled on almost every batch.  The
    # kernel's gains are the class counts, counted in integers, times the
    # mode's weights.
    if store_cells is not None:
        monkeypatch.setattr(solver_mod, "_TABLE_STORE_CELLS", store_cells)
    data = random_dataset(random.Random(3), 40, [3, 2, 4])
    search = solver_mod._StructuredSearch(
        build_model(data, preset("depth2"), cfg), SolveConfig()
    )
    leaf = min(search.topo.leaf_adjacent)
    gen = np.random.default_rng(3)
    pool = np.vstack([np.zeros((1, 40), bool), np.ones((1, 40), bool),
                      gen.random((10, 40)) < 0.5])
    seen = set()
    for _ in range(8):
        masks = np.vstack([pool[gen.integers(0, len(pool), 25)], gen.random((3, 40)) < 0.5])
        seen.update(row.tobytes() for row in masks)
        best = search._stored(leaf, masks, None)
        winners = search._computed(leaf, masks, None)[1]
        gains = search._gains(masks)
        counts = _class_counts(search, masks)
        assert np.array_equal(gains[:, :2], counts * search.side_weights[0, :, None, None])
        assert np.array_equal(gains[:, 2:], counts * search.side_weights[1, :, None, None])
        tables = search._group_tables(gains)
        assert np.array_equal(best, tables.max(axis=1))
        assert np.array_equal(winners, tables.argmax(axis=1))
    if store_cells is None:
        assert len(search.store_index) == len(seen)  # each mask stored once
    else:
        assert len(search.store_best) < len(seen)


@pytest.mark.parametrize("forbid", [False, True], ids=["any-test", "forbid-trivial"])
def test_closed_form_leaf_tables_match_the_knapsack(forbid):
    # With no floor the leaf kernel is a closed form; its tables, their
    # signs and the winning groups are the knapsack's bit for bit, also with
    # a slot kept to one side by -inf, as the recovery does it.
    rng = random.Random(13)
    gen = np.random.default_rng(13)
    for t in range(60):
        sizes = [rng.randint(1, 6) for _ in range(rng.randint(1, 4))]
        data = random_dataset(rng, rng.randrange(5, 40), sizes)
        weight = (Fraction(1), Fraction(3, 2), Fraction(2, 5), Fraction(7))[t % 4]
        cfg = BuildConfig(class_weight=weight, forbid_trivial_branch=forbid)
        search = solver_mod._StructuredSearch(build_model(data, preset("depth2"), cfg),
                                              SolveConfig())
        assert search.floor == 0
        gains = search._gains(gen.random((30, data.n_samples)) < gen.random((30, 1)))
        for row in range(15):
            g = rng.randrange(len(sizes))
            gains[row, rng.randrange(2), g, rng.randrange(sizes[g])] = -np.inf
        closed, knapsack = search._leaf_tables(gains), search._group_tables(gains)
        assert closed.shape == knapsack.shape
        assert np.array_equal(closed, knapsack)
        assert np.array_equal(np.signbit(closed), np.signbit(knapsack))
        assert np.array_equal(closed.argmax(axis=1), knapsack.argmax(axis=1))


@pytest.mark.parametrize("store_cells", [None, 40], ids=["store", "tiny-store"])
@pytest.mark.parametrize("forbid", [False, True], ids=["any-test", "forbid-trivial"])
def test_pair_tables_match_routed_tables(monkeypatch, store_cells, forbid):
    # A depth-2 node in accuracy mode (the depth2 root, node 3 of
    # imbalanced) takes its tables from pair counts, without routing a child
    # mask or reading the store.  Its tables, their signs and its winners
    # are those of routing each test's child masks through the leaf kernel
    # and merging, bit for bit: weights 1, 3/2, 2/5 and 7, anchored and
    # unanchored tests, a group of one feature (-inf tables when trivial
    # tests are forbidden; with two such groups there is no test at all),
    # empty and full masks, and node 3's rows served from a tiny store.
    if store_cells is not None:
        monkeypatch.setattr(solver_mod, "_TABLE_STORE_CELLS", store_cells)
    rng = random.Random(23)
    gen = np.random.default_rng(23)
    checked = 0
    for t in range(9):
        weight = (1, Fraction(3, 2), Fraction(2, 5), 7)[t % 4]
        sizes = [1, 1] if t == 8 else [rng.randint(2, 4), 1, rng.randint(2, 5)]
        n = rng.randrange(6, 30)
        data = random_dataset(rng, n, sizes)
        masks = np.vstack([np.zeros((1, n), bool), np.ones((1, n), bool),
                           gen.random((12, n)) < gen.random((12, 1))])
        cfg = BuildConfig(class_weight=weight, forbid_trivial_branch=forbid, anchor=t % 2 == 0)
        for shape, k in (("depth2", 1), ("imbalanced", 3)):
            search = solver_mod._StructuredSearch(build_model(data, preset(shape), cfg),
                                                  SolveConfig())
            assert search.pair_nodes == {k}
            zlo = np.zeros((search.n_decl, search.d), dtype=np.int8)
            states = [search._tested(state) for state in _derived(search, zlo, np.ones_like(zlo))]
            closure = states, search._signatures(zlo, np.ones_like(zlo))
            state = states[search.decl_pos[k]]
            with monkeypatch.context() as m:
                for name in ("_go_left", "_stored"):
                    m.setattr(search, name, None)
                best, winners = search._computed(k, masks, closure)
            if not state.tests:
                assert forbid and sizes == [1, 1]
                assert (best == -np.inf).all() and not winners.any()
                continue
            go = search._go_left(state, slice(None))
            leaf = [search._leaf_tables(search._gains(children.reshape(-1, n))).max(axis=1)
                    for children in (masks[:, None] & go, masks[:, None] & ~go)]
            merged = search._merge(*leaf, 0).reshape(len(masks), len(state.tests), 1)
            assert np.array_equal(best, merged.max(axis=1))
            assert np.array_equal(np.signbit(best), np.signbit(merged.max(axis=1)))
            assert np.array_equal(winners, merged.argmax(axis=1))
            if k != search.topo.root:
                assert np.array_equal(search._stored(k, masks, closure), best)
            checked += 1
    assert checked == (16 if forbid else 18)


def _sends_left(data, tests):
    """Test-local reference: per (group, subset) test, the samples it sends left.

    A sample goes left when one of its features is in the subset.
    """
    return np.array([data.matrix[:, list(subset)].any(axis=1) for _, subset in tests],
                    dtype=bool).reshape(len(tests), data.n_samples)


def _direct_tables(search, child, masks, options):
    """Test-local reference: a subtree's tables from their definition, mask by mask.

    Leaf-adjacent tables come from the knapsack, in every mode.  A branched
    node's entry ``u`` is the best ``left[t] + right[u - t]`` over its
    options; its winner is the first option reaching it.
    """
    k = child[1]
    if k in search.topo.leaf_adjacent:
        tables = search._group_tables(search._gains(masks))
        return tables.max(axis=1), tables.argmax(axis=1)
    tests = options[search.decl_pos[k]]
    go = _sends_left(search.data, tests)
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
            min_specificity=Fraction(1, 2), forbid_trivial_branch=True
        ),
    ],
    ids=["accuracy", "floored"],
)
@pytest.mark.parametrize("shape", ["depth3", "imbalanced"])
def test_branched_tables_match_direct_ones(monkeypatch, shape, store_cells, cfg):
    # A non-root branched node's tables served from the per-solve store, and
    # the winners that _computed names, are its tables and winners by
    # definition, for repeated and new masks, under closures
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
        states = [search._tested(state) for state in _derived(search, zlo, zhi)]
        closures.append((states, search._signatures(zlo, zhi)))
    # the root's table is not stored, so subtree_rows leaves the root out
    below_root = list(search.subtree_rows)
    assert search.topo.root not in below_root
    assert all(closures[0][1][k] != closures[1][1][k] for k in below_root)
    gen = np.random.default_rng(4)
    pool = np.vstack([np.ones((1, n), bool), gen.random((6, n)) < 0.6])
    seen = {k: set() for k in below_root}  # the store keys fed to each node
    for batch in range(9):
        masks = np.vstack([pool[gen.integers(0, len(pool), 7)], gen.random((2, n)) < 0.6])
        closure = closures[batch % 3]
        for k in below_root:
            sig = closure[1][k]
            seen[k].update(sig + np.packbits(row).tobytes() for row in masks)
            best = search._stored(k, masks, closure)
            winners = search._computed(k, masks, closure)[1]
            expected_best, expected_winners = _direct_tables(
                search, ("node", k), masks, [state.tests for state in closure[0]]
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
            expected, _ = enumerate_optimal(data, topo, **floor)
            result = solve_milp(build_model(data, topo, BuildConfig(**floor)))
            assert result.status == OPTIMAL
            assert abs(result.objective - float(expected)) < 1e-7
            tree = extract_tree(result, topo, data.schema)
            m = evaluate(tree, data)
            earned = {"accuracy": m.true_positive + m.true_negative,
                      "max_sensitivity": m.true_positive,
                      "max_specificity": m.true_negative}[mode]
            assert earned == int(expected)


_OBJECTIVES = ({}, {"class_weight": Fraction(3, 2)}, {"min_specificity": Fraction(1, 2)},
               {"min_sensitivity": Fraction(2, 3)}, {"min_sensitivity": Fraction(1, 2)})


def test_engines_agree_on_every_objective_and_forbid_setting():
    # The structured engine against the oracle on every shape, and against
    # the LP engine too on depth2: each mode, weights 1 and 3/2, trivial
    # tests allowed or forbidden, anchors on or off (anchoring filters the
    # tests that a closure reads); imbalanced holds a depth-2 node two
    # levels down.  Groups of one category leave some forbidding solves
    # without any test, so some answers are infeasible.  A structured
    # result carries its tests and no variable values, and the tree read
    # from them earns exactly the objective it reports.
    rng = random.Random(19)
    statuses = []
    for name in ("depth2", "depth2_5", "depth3", "imbalanced"):
        topo = preset(name)
        for objective, forbid in itertools.product(_OBJECTIVES, (False, True)):
            for draw in range(6):
                sizes = [rng.randint(1, 3) for _ in range(2)]
                data = random_dataset(rng, rng.randrange(8, 13), sizes)
                if len(set(data.labels.tolist())) < 2:
                    continue
                try:
                    expected = enumerate_optimal(data, topo, forbid_trivial=forbid,
                                                 budget=10**12, **objective)[0]
                except InfeasibleError:
                    expected = None
                cfg = BuildConfig(forbid_trivial_branch=forbid, anchor=draw % 2 == 0,
                                  **objective)
                model = build_model(data, topo, cfg)
                for method in ("auto", "lp") if name == "depth2" else ("auto",):
                    result = solve_milp(model, method=method)
                    statuses.append(result.status)
                    if expected is None:
                        assert result.status == INFEASIBLE, (name, objective, method)
                        continue
                    assert result.status == OPTIMAL
                    assert abs(result.objective - float(expected)) < 1e-7, (name, method)
                    assert (result.assignment == {}) == (method == "auto")
                    tree = extract_tree(result, topo, data.schema)
                    if forbid:
                        _assert_nontrivial(tree)
                    m = evaluate(tree, data)
                    earned = {
                        "accuracy": m.true_positive + cfg.class_weight * m.true_negative,
                        "max_sensitivity": m.true_positive,
                        "max_specificity": m.true_negative,
                    }[cfg.mode]
                    assert earned == expected
                    if method == "auto":
                        assert earned == result.objective
    assert len(statuses) > 200 and statuses.count(INFEASIBLE) >= 5


def test_go_left_follows_its_definition():
    # Sample i goes left under (g, subset) exactly when its feature in group
    # g is in the subset.  Checked on whole test lists spanning several
    # groups, with the all-right test (unanchored root) and fixed anchors
    # (anchored node 2), after a bit pins a group, on the slices that
    # _computed passes, on the single rows that _recover passes, and on a
    # state whose allowed groups are written by hand.
    data = random_dataset(random.Random(5), 30, [3, 1, 2, 4])
    search = solver_mod._StructuredSearch(build_model(data, preset("depth2_5")), SolveConfig())
    schema = data.schema
    active = {
        (i, g): next(j for j in schema.features_of(g) if data.matrix[i, j] == 1)
        for i in range(data.n_samples)
        for g in range(schema.n_groups)
    }

    def check(state, at):
        go = search._go_left(state, at)
        indices = range(len(state.tests))[at] if isinstance(at, slice) else at
        tests = [state.tests[t] for t in indices]
        assert go.shape == (len(tests), data.n_samples) and go.dtype == bool
        for o, (g, subset) in enumerate(tests):
            assert go[o].tolist() == [active[i, g] in subset for i in range(data.n_samples)]

    zlo = np.zeros((search.n_decl, search.d), dtype=np.int8)
    root_state, anchored_state = [
        search._tested(state) for state in _derived(search, zlo, np.ones_like(zlo))
    ]
    root, anchored = root_state.tests, anchored_state.tests
    assert len({g for g, _ in root}) == len({g for g, _ in anchored}) == 4
    assert any(not subset for _, subset in root)
    assert all(schema.anchor_feature(g) in subset for g, subset in anchored)
    zlo[1, schema.features_of(3)[2]] = 1
    pinned_state = search._tested(_derived(search, zlo, np.ones_like(zlo))[1])
    assert {g for g, _ in pinned_state.tests} == {3}
    for state in (root_state, anchored_state, pinned_state):
        check(state, slice(None))
        for start in range(0, len(state.tests), 7):
            check(state, slice(start, start + 7))
            check(state, [start])
    f = schema.features_of(1)[0]
    by_hand = solver_mod._NodeState(
        [(2, [], []), (1, [f], []), (root[-1][0], list(root[-1][1]), []),
         (anchored[0][0], list(anchored[0][1]), [])]
    )
    assert search._tested(by_hand).tests == [(2, ()), (1, (f,)), root[-1], anchored[0]]
    check(by_hand, slice(None))


def _derived(search, zlo, zhi):
    """Each branched node's state under the box, derived row by row in place."""
    return [search._derive(p, zlo[p], zhi[p]) for p in range(search.n_decl)]


def _solve_record(data, topo, cfg):
    """Everything a solve reports: progress payloads but their times, figures, tree."""
    records = []
    result = solve_milp(build_model(data, topo, cfg), SolveConfig(callback=records.append))
    payloads = [{key: v for key, v in r.items() if key != "time"} for r in records]
    tree = None
    if result.status == OPTIMAL:
        tree = extract_tree(result, topo, data.schema).to_json()
    return payloads, result.status, result.objective, result.nodes_processed, tree


_FLOORS = {"accuracy": {}, "max_sensitivity": {"min_specificity": Fraction(1, 2)},
           "max_specificity": {"min_sensitivity": Fraction(1, 2)}}


def _count_derivations(monkeypatch):
    """Patch ``_derive`` to count its calls; returns the running count."""
    derived = [0]
    derive = solver_mod._StructuredSearch._derive

    def counted(self, p, lo, hi):
        derived[0] += 1
        return derive(self, p, lo, hi)

    monkeypatch.setattr(solver_mod._StructuredSearch, "_derive", counted)
    return derived


def test_node_state_reuse_is_exact(monkeypatch):
    # A search node carries its branched nodes' states, and a child derives
    # only the row it branched on.  The same solves with every node deriving
    # every row afresh report the same progress, node counts, objectives and
    # trees, in every mode, with trivial tests forbidden or not, anchors on
    # or off, and budgets that close at once or branch.
    derived = _count_derivations(monkeypatch)
    bound = solver_mod._StructuredSearch.bound

    def every_row(self, node, parent_bound):
        return bound(self, node[:3] + (range(self.n_decl),), parent_bound)

    rng = random.Random(15)
    compared = [0, 0]  # derivations as shipped, and of every row at every node
    # groups wide enough that the default budgets branch depth3 and
    # imbalanced; narrow ones where a budget of 4 branches every search
    for budget, constrained, sizes, n in ((4096, 20000, [5, 4, 3], 12), (4, 4, [2, 2], 8)):
        monkeypatch.setattr(solver_mod, "ENUM_BUDGET", budget)
        monkeypatch.setattr(solver_mod, "ENUM_BUDGET_CONSTRAINED", constrained)
        for name in ("depth2", "depth2_5", "depth3", "imbalanced"):
            for mode, floor in _FLOORS.items():
                for forbid, anchor in itertools.product((False, True), repeat=2):
                    data = random_dataset(rng, rng.randrange(n, n + 4), sizes)
                    if len(set(data.labels.tolist())) < 2:
                        continue
                    cfg = BuildConfig(forbid_trivial_branch=forbid,
                                      anchor=anchor, **floor)
                    before = derived[0]
                    shipped = _solve_record(data, preset(name), cfg)
                    compared[0] += derived[0] - before
                    with monkeypatch.context() as m:
                        m.setattr(solver_mod._StructuredSearch, "bound", every_row)
                        before = derived[0]
                        fresh = _solve_record(data, preset(name), cfg)
                        compared[1] += derived[0] - before
                    assert shipped == fresh
    # children reuse their parents' states, so deriving every row at every
    # node derives more often
    assert compared[0] < compared[1]


def test_each_search_node_derives_only_its_branched_row(monkeypatch):
    # The root derives each branched node's state once, and every other
    # processed node the one row it branched on: over seeded solves that a
    # budget of 4 forces to branch, the derivations number exactly
    # n_decl + nodes - 1 per solve.
    derived = _count_derivations(monkeypatch)
    monkeypatch.setattr(solver_mod, "ENUM_BUDGET", 4)
    monkeypatch.setattr(solver_mod, "ENUM_BUDGET_CONSTRAINED", 4)
    rng = random.Random(18)
    expected = branched = 0
    for name in ("depth2", "depth2_5", "depth3", "imbalanced"):
        topo = preset(name)
        n_decl = len(set(topo.decision_nodes) - set(topo.leaf_adjacent))
        for mode, floor in _FLOORS.items():
            for _ in range(3):
                data = random_dataset(rng, rng.randrange(8, 12), [2, 3, 2])
                if len(set(data.labels.tolist())) < 2:
                    continue
                result = solve_milp(build_model(data, topo, BuildConfig(**floor)))
                expected += n_decl + result.nodes_processed - 1
                branched += result.nodes_processed > 1
    assert branched >= 30
    assert derived[0] == expected


def test_node_states_hold_no_per_sample_matrix(monkeypatch):
    # A state keeps, per test, a row over the features; never a tests x
    # samples array.  The instance has a 17-category group: the whole solve,
    # then a search whose root box keeps 14 of its categories, the anchor
    # fixed, so that its one closure holds thousands of tests.
    data = random_dataset(random.Random(5), 40, [2, 3, 17])
    cfg = BuildConfig(min_specificity=Fraction(1, 2),
                      forbid_trivial_branch=True)
    model = build_model(data, preset("depth2"), cfg)
    search = solver_mod._StructuredSearch(model, SolveConfig())
    states = []
    derive = search._derive
    monkeypatch.setattr(search, "_derive", lambda *args: states.append(derive(*args)) or states[-1])
    assert search.run().status == OPTIMAL
    zlo = np.zeros((search.n_decl, search.d), dtype=np.int8)
    zhi = np.ones_like(zlo)
    zhi[:, data.schema.features_of(2)[1:4]] = 0  # the anchor stays
    root = (zlo, zhi, [None] * search.n_decl, range(search.n_decl))
    result = solver_mod._best_first(search, root, search.all_correct)
    assert (result.status, result.nodes_processed) == (OPTIMAL, 1)
    states = [state for state in states if state is not None]
    assert max(len(state.tests or ()) for state in states) > 8000
    for state in states:
        if state.member is not None:
            assert state.member.shape[1] == search.d != data.n_samples


@pytest.mark.parametrize("shape", ["depth2", "depth3", "imbalanced", "(# #)"])
def test_node_bound_is_every_sample_correct(shape):
    # A leaf-adjacent node may send any sample to either leaf, so no box
    # keeps a sample from a leaf of its class: every node's bound is its
    # parent's, capped at every sample correct.  That cap is the samples'
    # weights summed exactly and rounded once, and never below the optimum.
    from grouptree.topology import parse_shape

    topo = preset(shape) if shape in PRESET_SHAPES else parse_shape(shape)
    rng = random.Random(14)
    gen = np.random.default_rng(14)
    checked = 0
    for t in range(12):
        data = random_dataset(rng, rng.randrange(8, 30), [rng.randint(1, 4) for _ in range(3)])
        cfg = (BuildConfig(class_weight=Fraction(3, 2)), BuildConfig(anchor=False),
               BuildConfig(min_sensitivity=Fraction(1, 2)))[t % 3]
        model = build_model(data, topo, cfg)
        search = solver_mod._StructuredSearch(model, SolveConfig())
        weights = {"accuracy": (1, Fraction(3, 2) if t % 3 == 0 else 1),
                   "max_specificity": (0, 1)}[cfg.mode]
        n_pos = int((data.labels == 1).sum())
        c = float(n_pos * weights[0] + (data.n_samples - n_pos) * weights[1])
        assert search.all_correct == c
        result = solve_milp(model)
        if result.status == OPTIMAL:
            assert result.objective <= c
        zlo = np.zeros((search.n_decl, search.d), dtype=np.int8)
        zhi = np.ones_like(zlo)
        for box in range(16):
            # every row drawn afresh, then every row but the first
            drawn = slice(box % 2, None)
            zlo[drawn] = gen.random(zlo[drawn].shape) < 0.05
            zhi[drawn] = np.maximum(zlo[drawn], gen.random(zlo[drawn].shape) < 0.7)
            node = (zlo, zhi, [None] * search.n_decl, range(search.n_decl))
            bounded = search.bound(node, np.inf)
            if bounded is None:
                continue
            assert bounded[0] == c
            # a node that carries those states and derives none keeps a
            # lower parent bound
            assert search.bound((zlo, zhi, bounded[2], ()), c - 1)[0] == c - 1
            checked += 1
    assert checked >= 80


@pytest.mark.parametrize("weight", [Fraction(7, 3), Fraction(1, 3), Fraction(2, 7)])
def test_a_perfect_optimum_meets_its_bound_exactly(monkeypatch, weight):
    # On data that a depth2 tree classifies perfectly, the optimum is every
    # sample correct, so every progress record's bound, and the best bound,
    # equal the objective bit for bit.  Summing per-sample floats of a weight
    # that is not dyadic can round away from that exact constant.
    monkeypatch.setattr(solver_mod, "ENUM_BUDGET", 4)
    rng = random.Random(21)
    topo = preset("depth2")
    for t in range(24):
        data = random_dataset(rng, rng.randrange(4, 24), [2, 3])
        # positive exactly when the group-0 feature is the group's first,
        # or exactly when it is not
        first = data.matrix[:, data.schema.features_of(0)[0]] == 1
        data = replace(data, labels=np.where(first == t % 2, 1, -1).astype(np.int8))
        records = []
        result = solve_milp(build_model(data, topo, BuildConfig(class_weight=weight)),
                            SolveConfig(callback=records.append))
        n_pos = int((data.labels == 1).sum())
        exact = float(n_pos + (data.n_samples - n_pos) * weight)
        assert (result.status, result.objective, result.best_bound) == (OPTIMAL, exact, exact)
        assert records and all(r["bound"] == exact for r in records)


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
    import hashlib

    from grouptree.datasets import monks
    from grouptree.encoding import build_schema, encode
    from grouptree.experiments import train_test_run

    if store_cells is not None:
        monkeypatch.setattr(solver_mod, "_TABLE_STORE_CELLS", store_cells)
    table = monks(1)
    run = train_test_run(encode(table, build_schema(table)), preset("imbalanced"), seed=1)
    assert (run.solve.status, run.solve.objective) == (OPTIMAL, 389.0)
    assert run.solve.nodes_processed == 39
    # the recovered tree, read from a store that may have been cleared
    tree_hash = hashlib.sha256(run.tree.to_json().encode()).hexdigest()
    assert tree_hash.startswith("a800f4a7f5672cec")

    monkeypatch.setattr(solver_mod, "ENUM_BUDGET", 2)
    monkeypatch.setattr(solver_mod, "ENUM_BUDGET_CONSTRAINED", 2)
    data = random_dataset(random.Random(1), 20, [3, 3])
    cfg = BuildConfig(
        min_specificity=Fraction(1, 2), forbid_trivial_branch=True
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


def test_constrained_clinic_solve_is_pinned():
    # The floored side of the leaf kernel (the knapsack) on the clinic
    # sweep's reference input: depth2, specificity floor 0.95, split 2.
    import hashlib

    from grouptree.datasets import synthetic_clinic
    from grouptree.encoding import build_schema, encode
    from grouptree.experiments import protocol_split

    table = synthetic_clinic()
    data = encode(table, build_schema(table))
    train = data.subset(protocol_split(data.n_samples, 2)[0])
    cfg = BuildConfig(min_specificity=Fraction("0.95"))
    result = solve_milp(build_model(train, preset("depth2"), cfg))
    assert (result.status, result.objective) == (OPTIMAL, 326.0)
    tree = extract_tree(result, preset("depth2"), train.schema)
    assert hashlib.sha256(tree.to_json().encode()).hexdigest().startswith("7f07a172ac93fbb5")
