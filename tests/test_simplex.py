import copy
import random

import numpy as np
import pytest

from grouptree import simplex
from grouptree.errors import NumericalFailureError
from grouptree.model import build_model
from grouptree.simplex import AT_LO, AT_UP, BASIC, BoundedSimplex, INFEASIBLE, OPTIMAL, UNBOUNDED
from grouptree.solver import solve_milp
from grouptree.topology import preset
from tests.conftest import random_dataset


def solve(A, senses, rhs, obj, lower, upper):
    s = BoundedSimplex(
        np.array(A, dtype=float),
        senses,
        np.array(rhs, dtype=float),
        np.array(obj, dtype=float),
        np.array(lower, dtype=float),
        np.array(upper, dtype=float),
    )
    status = s.solve()
    return status, s


def test_basic_max():
    status, s = solve(
        [[1, 1], [1, 0]], ["<=", "<="], [4, 2], [3, 2], [0, 0], [np.inf, np.inf]
    )
    assert status == OPTIMAL
    assert np.allclose(s.solution(), [2, 2])
    assert s.objective_value() == pytest.approx(10.0)


def test_equality_and_ge_rows():
    status, s = solve(
        [[1, 1], [1, 0]], ["=", ">="], [3, 1], [1, 1], [0, 0], [np.inf, np.inf]
    )
    assert status == OPTIMAL
    assert s.objective_value() == pytest.approx(3.0)


def test_infeasible():
    status, _ = solve([[1], [1]], ["<=", ">="], [1, 2], [1], [0], [np.inf])
    assert status == INFEASIBLE


def test_unbounded():
    status, _ = solve([[-1]], ["<="], [0], [1], [0], [np.inf])
    assert status == UNBOUNDED


def test_upper_bounds_bind():
    status, s = solve([[1, 1]], ["<="], [5], [1, 1], [0, 0], [1, 1])
    assert status == OPTIMAL
    assert np.allclose(s.solution(), [1, 1])


def test_fixed_variable_via_bounds():
    status, s = solve([[1, 1]], ["<="], [1.5], [1, 2], [1, 0], [1, 1])
    assert status == OPTIMAL
    assert np.allclose(s.solution(), [1, 0.5])


def test_negative_rhs_normalization():
    # -x <= -2 is x >= 2
    status, s = solve([[-1]], ["<="], [-2], [-1], [0], [np.inf])
    assert status == OPTIMAL
    assert s.solution()[0] == pytest.approx(2.0)


def test_beale_degenerate_cycle_guard():
    A = [
        [0.25, -60.0, -0.04, 9.0, 1.0, 0.0, 0.0],
        [0.5, -90.0, -0.02, 3.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
    ]
    c = [0.75, -150.0, 0.02, -6.0, 0.0, 0.0, 0.0]
    status, s = solve(A, ["=", "=", "="], [0, 0, 1], c, [0] * 7, [np.inf] * 7)
    assert status == OPTIMAL
    assert s.objective_value() == pytest.approx(0.05)


def test_free_variables_rejected():
    with pytest.raises(NumericalFailureError):
        solve([[1.0]], ["<="], [1], [1], [-np.inf], [np.inf])


def test_dual_resolve_after_bound_change():
    # solve, then tighten a variable's bounds and re-optimize from the basis
    A = [[1, 1, 0], [0, 1, 1]]
    status, s = solve(A, ["<=", "<="], [2, 2], [2, 3, 1], [0, 0, 0], [2, 2, 2])
    assert status == OPTIMAL
    base = s.objective_value()
    s.set_bounds(1, 0.0, 0.0)  # forbid the most valuable variable
    status2 = s.resolve_dual()
    assert status2 == OPTIMAL
    assert s.objective_value() <= base
    # compare against a fresh solve with the same bounds
    status3, fresh = solve(A, ["<=", "<="], [2, 2], [2, 3, 1], [0, 0, 0], [2, 0, 2])
    assert fresh.objective_value() == pytest.approx(s.objective_value())


def test_dual_resolve_to_infeasible():
    status, s = solve([[1, 1]], ["="], [1], [1, 1], [0, 0], [1, 1])
    assert status == OPTIMAL
    s.set_bounds(0, 0.0, 0.3)
    s.set_bounds(1, 0.0, 0.3)
    assert s.resolve_dual() == INFEASIBLE


def test_deterministic_pivoting():
    rng = np.random.default_rng(12)
    A = rng.integers(-3, 4, size=(12, 8)).astype(float)
    rhs = rng.integers(1, 10, size=12).astype(float)
    obj = rng.integers(-5, 6, size=8).astype(float)
    runs = []
    for _ in range(2):
        status, s = solve(A, ["<="] * 12, rhs, obj, [0] * 8, [10] * 8)
        runs.append((status, tuple(s.solution()), s.iterations))
    assert runs[0] == runs[1]


def _reference_pivot(s, r, e, t, direction, leave_status):
    """The row-at-a-time tableau update the vectorised kernel must reproduce."""
    col = s.T[:, e].copy()
    leaving = s.basis[r]
    new_val = (s.value[e] if s.status_col[e] != BASIC else s.beta[r]) + direction * t
    s.beta -= direction * t * col
    s.T[r] /= s.T[r, e]
    for i in np.flatnonzero(np.abs(col) > 0):
        if i != r:
            s.T[i] -= col[i] * s.T[r]
    s.zc -= s.zc[e] * s.T[r, : s.n_total]
    s.zc[e] = 0.0
    s.basis[r] = e
    s.beta[r] = new_val
    s.status_col[e] = BASIC
    s.status_col[leaving] = leave_status
    bound = s.lower[leaving] if leave_status == AT_LO else s.upper[leaving]
    s.value[leaving] = bound if np.isfinite(bound) else 0.0


def _random_tableau_pair(rng, m, n):
    """Two identical simplex states over a sparse random tableau with -0.0 entries."""
    s = BoundedSimplex(np.ones((m, n)), ["<="] * m, np.ones(m), np.ones(n),
                       np.zeros(n), np.full(n, 4.0))
    width = s.T.shape[1]
    T = rng.integers(-4, 5, size=(m, width)) * rng.choice([1.0, 0.1, 1 / 3, 1e-12], size=(m, width))
    T[rng.random((m, width)) < 0.7] = 0.0
    T[rng.random((m, width)) < 0.3] *= -1.0  # turns some zeros into -0.0
    T[:, rng.choice(width - 1, size=3, replace=False)] = rng.uniform(-2, 2, size=(m, 3))  # dense
    T[rng.integers(m), :] = -0.0
    s.T = T
    s.beta = rng.uniform(-1, 1, size=m)
    s.beta[rng.random(m) < 0.3] = -0.0
    s.zc = rng.uniform(-1, 1, size=s.n_total)
    s.zc[rng.random(s.n_total) < 0.5] = -0.0
    return s, copy.deepcopy(s)


@pytest.mark.parametrize("m, n", [(6, 5), (40, 30), (150, 150)])
def test_pivot_matches_row_by_row_reference(m, n):
    rng = np.random.default_rng(m * 1000 + n)
    s, ref = _random_tableau_pair(rng, m, n)
    blocks = []
    for step in range(12):
        # alternate the densest and the sparsest nonbasic pivot column
        usable = np.abs(s.T[:, : s.n_total]) > 0.05
        usable[:, s.status_col == BASIC] = False
        nnz = np.abs(s.T[:, : s.n_total]).astype(bool).sum(axis=0)
        cols = np.flatnonzero(usable.any(axis=0))
        e = int(cols[np.argmax(nnz[cols]) if step % 2 == 0 else np.argmin(nnz[cols])])
        r = int(rng.choice(np.flatnonzero(usable[:, e])))
        blocks.append((nnz[e] - 1) * s.T.shape[1])
        t = float(rng.choice([0.0, -0.0, 0.5, 2.0]))
        direction = int(rng.choice([1, -1]))
        leave = int(rng.choice([AT_LO, AT_UP]))
        s._pivot(r, e, t, direction, leave)
        _reference_pivot(ref, r, e, t, direction, leave)
        for name in ("T", "beta", "zc", "value"):
            got, want = getattr(s, name), getattr(ref, name)
            assert np.array_equal(got, want), name
            assert np.array_equal(np.signbit(got), np.signbit(want)), name
        assert np.array_equal(s.basis, ref.basis)
        assert np.array_equal(s.status_col, ref.status_col)
    if m == 150:  # both the gathered and the in-place run update were taken
        assert min(blocks) < simplex._BLOCK <= max(blocks)


def test_lp_engine_search_is_pinned():
    # Exact figures of the row-at-a-time kernel; any change to the pivot
    # arithmetic or order shows up here before it shows in a fingerprint.
    data = random_dataset(random.Random(3), 30, [3, 3, 2])
    result = solve_milp(build_model(data, preset("depth2")), method="lp")
    assert result.status == OPTIMAL
    assert result.objective == 19.999999999999993
    assert (result.nodes_processed, result.lp_iterations) == (19, 932)


def test_primal_iteration_limit_is_per_call():
    # Branch and bound reuses one simplex across nodes, so its running count
    # may pass the per-call limit without any single solve stalling.
    A = [[1, 1, 0], [0, 1, 1]]
    status, s = solve(A, ["<=", "<="], [2, 2], [2, 3, 1], [0, 0, 0], [2, 2, 2])
    assert status == OPTIMAL
    s.iterations = 20000 + 200 * (s.m + s.n_total)
    s.set_bounds(1, 0.0, 0.0)
    assert s.resolve_dual() == OPTIMAL
    assert s.objective_value() == pytest.approx(6.0)
