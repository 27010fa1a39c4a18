import copy
import hashlib
import random
from math import ceil, floor

import numpy as np
import pytest

from grouptree import simplex
from grouptree.errors import NumericalFailureError
from grouptree.model import build_model
from grouptree.simplex import AT_LO, AT_UP, BASIC, BoundedSimplex, INFEASIBLE, OPTIMAL, UNBOUNDED
from grouptree.solver import _model_arrays, solve_milp
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


class _ReferenceLoops(BoundedSimplex):
    """The simplex loops the leaner ones must reproduce, step for step.

    Kept as they were before the loops were rewritten, with a count of the
    primal bound flips added.
    """

    flips = 0

    def _recompute_beta(self):
        rhs = self.T[:, -1].copy()
        for j in np.flatnonzero(self.status_col != BASIC):
            v = self.value[j]
            if v != 0.0:
                rhs -= self.T[:, j] * v
        self.beta = rhs

    def _max_violation(self):
        below = self.lo_b - self.beta
        above = self.beta - self.up_b
        viol = np.maximum(below, above)
        r = int(np.argmax(viol))
        return float(viol[r]), r

    def _primal(self):
        limit = 20000 + 200 * (self.m + self.n_total)
        steps = 0
        self._basic_bounds()
        movable = self.upper - self.lower > simplex.ZERO_STEP
        while True:
            steps += 1
            self.iterations += 1
            if steps > limit:
                raise NumericalFailureError("primal simplex iteration limit")
            idx = np.flatnonzero((simplex._SIGN[self.status_col] * self.zc > simplex.OPT_TOL) & movable)
            if len(idx) == 0:
                return OPTIMAL
            if self.bland:
                e = int(idx[0])
            else:
                e = int(idx[np.argmax(np.abs(self.zc[idx]))])
            direction = +1 if self.status_col[e] == AT_LO else -1
            col = self.T[:, e]
            a = direction * col

            with np.errstate(divide="ignore", invalid="ignore"):
                drop = (self.beta - self.lo_b) / a
                rise = (self.up_b - self.beta) / (-a)
            ratios = np.full(self.m, np.inf)
            dn = a > simplex.PIVOT_TOL
            up = a < -simplex.PIVOT_TOL
            ratios[dn] = np.maximum(drop[dn], 0.0)
            ratios[up] = np.maximum(rise[up], 0.0)
            ratios = np.where(np.isnan(ratios), np.inf, ratios)
            t_rows = float(np.min(ratios)) if self.m else np.inf
            own = self.upper[e] - self.lower[e]
            t_own = own if np.isfinite(own) else np.inf

            if t_own <= t_rows + simplex.ZERO_STEP and np.isfinite(t_own):
                self.flips += 1
                self.beta -= a * t_own
                self.status_col[e] = AT_UP if direction == +1 else AT_LO
                self.value[e] = self.upper[e] if direction == +1 else self.lower[e]
                self._note_step(t_own)
                continue
            if not np.isfinite(t_rows):
                return UNBOUNDED
            r = self._leaving_row(ratios, t_rows)
            hits_lower = a[r] > 0
            self._note_step(t_rows)
            self._pivot(r, e, t_rows, direction, AT_LO if hits_lower else AT_UP)

    def _leaving_row(self, ratios, t):
        ties = np.flatnonzero(ratios <= t + simplex.ZERO_STEP)
        if self.bland:
            return int(ties[np.argmin(self.basis[ties])])
        return int(ties[0])

    def _dual(self):
        limit = 20000 + 200 * (self.m + self.n_total)
        steps = 0
        self._basic_bounds()
        movable = self.upper - self.lower > simplex.ZERO_STEP
        while True:
            steps += 1
            self.iterations += 1
            if steps > limit:
                raise NumericalFailureError("dual simplex iteration limit")
            viol, r = self._max_violation()
            if viol <= simplex.FEAS_TOL:
                return OPTIMAL
            b = self.basis[r]
            below = self.beta[r] < self.lower[b]
            target = self.lower[b] if below else self.upper[b]
            leave_status = AT_LO if below else AT_UP
            row = self.T[r, : self.n_total]
            sign = -simplex._SIGN[self.status_col] if below else simplex._SIGN[self.status_col]
            idx = np.flatnonzero((sign * row > simplex.PIVOT_TOL) & movable)
            if len(idx) == 0:
                return INFEASIBLE
            ratios = np.abs(self.zc[idx] / row[idx])
            e = int(idx[np.argmin(ratios)]) if not self.bland else int(idx[0])

            direction = +1 if self.status_col[e] == AT_LO else -1
            t = (self.beta[r] - target) / (direction * self.T[r, e])
            self._note_step(t)
            self._pivot(r, e, t, direction, leave_status)


def _random_lp(rng):
    """A small LP with <=, >= and = rows, integral bounds and some infinite uppers.

    The rows hold at an integral point within the bounds, so the LP is
    feasible.
    """
    m, n = int(rng.integers(2, 12)), int(rng.integers(2, 12))
    A = rng.integers(-4, 5, size=(m, n)) * rng.choice([1.0, 0.5, 1 / 3], size=(m, n))
    A[rng.random((m, n)) < 0.3] = 0.0
    senses = rng.choice(["<=", ">=", "="], size=m, p=[0.5, 0.3, 0.2])
    obj = rng.integers(-5, 6, size=n).astype(float)
    lower = rng.integers(0, 2, size=n).astype(float)
    upper = np.where(rng.random(n) < 0.5, np.inf, lower + rng.integers(0, 5, size=n))
    point = lower + rng.integers(0, 3, size=n).clip(max=upper - lower)
    slack = rng.integers(0, 4, size=m)
    rhs = A @ point + np.select([senses == "<=", senses == ">="], [slack, -slack], 0)
    return A, [str(x) for x in senses], rhs, obj, lower, upper


def _outcome(s, method):
    try:
        return getattr(s, method)()
    except NumericalFailureError as exc:
        return str(exc)


def _assert_same_state(s, ref):
    for name in ("T", "beta", "zc", "value", "lo_b", "up_b", "lower", "upper"):
        got, want = getattr(s, name), getattr(ref, name)
        assert np.array_equal(got, want, equal_nan=True), name
        assert np.array_equal(np.signbit(got), np.signbit(want)), name
    for name in ("basis", "status_col", "art_cols", "iterations", "bland", "_stall"):
        assert np.array_equal(getattr(s, name), getattr(ref, name)), name


@pytest.mark.parametrize("bland", [False, True])
def test_loops_match_reference(bland):
    rng = np.random.default_rng(41 + bland)
    fixed = [  # one infeasible and one unbounded LP ahead of the random ones
        ([[1.0], [1.0]], ["<=", ">="], [1.0, 2.0], [1.0], [0.0], [np.inf]),
        ([[-1.0, 1.0]], ["<="], [0.0], [1.0, 0.0], [0.0, 0.0], [np.inf, 1.0]),
    ]
    statuses, flips, negative_zeros = set(), 0, 0
    for args in fixed + [_random_lp(rng) for _ in range(80)]:
        s, ref = BoundedSimplex(*args), _ReferenceLoops(*args)
        s.bland = ref.bland = bland
        status = _outcome(s, "solve")
        assert _outcome(ref, "solve") == status
        _assert_same_state(s, ref)
        statuses.add(status)
        for _ in range(3):  # tighten one bound around the optimum, re-solve from the basis
            if status != OPTIMAL:
                break
            j = int(rng.integers(s.n_struct))
            x = s.solution()[j]
            lo, up = (s.lower[j], floor(x)) if rng.random() < 0.5 else (ceil(x), s.upper[j])
            s.set_bounds(j, lo, up)
            ref.set_bounds(j, lo, up)
            status = _outcome(s, "resolve_dual")
            assert _outcome(ref, "resolve_dual") == status
            _assert_same_state(s, ref)
            statuses.add(status)
        flips += ref.flips
        negative_zeros += sum(int(np.signbit(a[a == 0]).sum()) for a in (s.T, s.beta, s.zc))
    assert {OPTIMAL, INFEASIBLE, UNBOUNDED} <= statuses
    assert flips > 0 and negative_zeros > 0


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


def test_large_tableau_relaxation_is_pinned(monkeypatch):
    # A 339-row relaxation whose dense pivot columns take the in-place run
    # update of _pivot, which no benchmark workload reaches.
    data = random_dataset(random.Random(5), 40, [3, 3, 2, 2])
    s = BoundedSimplex(*_model_arrays(build_model(data, preset("depth2_5"))))
    in_place = []
    runs = simplex._runs
    monkeypatch.setattr(simplex, "_runs", lambda rows: in_place.append(len(rows)) or runs(rows))
    assert s.solve() == OPTIMAL
    assert s.T.shape == (339, 535)
    assert (s.iterations, len(in_place)) == (362, 213)
    assert s.objective_value() == 40.00000000000001
    digest = hashlib.sha256(s.solution().tobytes()).hexdigest()
    assert digest == "b7fa12b8474c0864aa1cd58601efc1a8b6e890476e2605f85bd9c859b1150905"
