"""Dense two-phase simplex for bounded variables, with a dual-simplex restart.

Maximizes c.x subject to rows of sense <=, =, >= and finite lower bounds on
every variable (upper bounds may be +inf).  The tableau is kept dense; this is
meant for desk-scale problems, not production LP workloads.

Pivot selection is Dantzig pricing with lowest-index tie-breaks, switching to
Bland's rule after a run of 1000 degenerate pivots so that stalling cannot
cycle.  All choices are index-based, so repeated runs are bit-identical.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .errors import NumericalFailureError

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-7
OPT_TOL = 1e-7
ZERO_STEP = 1e-12
STALL_LIMIT = 1000
# Pivot updates of fewer entries than this gather their rows into one block.
# Larger ones (256 KB of float64 and up, a dense column of a big tableau)
# update runs of rows in place: copying such a block out and back costs more
# than the row loop it replaces.
_BLOCK = 1 << 15
# pivots between two reads of the clock: a pivot costs far more than a read
_CHECK_EVERY = 32

BASIC, AT_LO, AT_UP = 0, 1, 2
# per column status, the direction in which a nonbasic column may move off
# its bound: a sign times a reduced cost or a row entry is one comparison
_SIGN = np.array([0.0, 1.0, -1.0])
_SIGN_DOWN = -_SIGN  # for a dual step whose leaving row lies below its lower bound

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class OutOfTime(Exception):
    """A solve's deadline passed, and the work in hand is abandoned.

    Not a ``GroupTreeError``: the best-bound loop of ``solve_milp``, which
    sets the deadline, catches it and reports the time limit.
    """


class BoundedSimplex:
    """One LP instance; supports re-solving after bound changes.

    Rows are normalized to ``<=`` or ``=`` (``>=`` rows are negated), a slack
    column is appended per row, and infeasible starting rows get artificial
    columns that phase 1 drives to zero.  The primal and dual loops read the
    clock every ``_CHECK_EVERY`` pivots; once ``deadline`` (+inf unless set)
    has passed, they raise ``OutOfTime`` and leave the instance mid-solve.
    """

    deadline = math.inf  # a ``time.perf_counter`` reading

    def __init__(self, A, senses, rhs, obj, lower, upper):
        A = np.asarray(A, dtype=float)
        rhs = np.asarray(rhs, dtype=float).copy()
        m, n = A.shape
        rows = A.copy()
        eq_row = np.zeros(m, dtype=bool)
        for r, sense in enumerate(senses):
            if sense == ">=":
                rows[r] *= -1.0
                rhs[r] *= -1.0
            elif sense == "=":
                eq_row[r] = True
            elif sense != "<=":
                raise ValueError(f"bad row sense {sense!r}")

        self.m = m
        self.n_struct = n
        self.n_total = n + m  # structurals + slacks; artificials appended later
        self.obj_struct = np.asarray(obj, dtype=float).copy()
        if np.any(np.isneginf(np.asarray(lower, dtype=float))):
            raise NumericalFailureError("free variables are not supported")

        self.T = np.zeros((m, self.n_total + 1))
        self.T[:, :n] = rows
        self.T[:, n : n + m] = np.eye(m)
        self.T[:, -1] = rhs

        self.lower = np.concatenate([np.asarray(lower, dtype=float), np.zeros(m)])
        self.upper = np.concatenate(
            [np.asarray(upper, dtype=float), np.full(m, np.inf)]
        )
        self.upper[n + np.flatnonzero(eq_row)] = 0.0

        self.status_col = np.full(self.n_total, AT_LO, dtype=np.int8)
        self.basis = np.arange(n, n + m)
        self.status_col[self.basis] = BASIC
        self.value = np.where(np.isfinite(self.lower), self.lower, 0.0)
        self.beta = np.zeros(m)
        self._basic_bounds()

        self.iterations = 0
        self.bland = False
        self._stall = 0
        self.art_cols: list[int] = []

    # ---- public API ----

    def solve(self) -> str:
        """Fresh two-phase solve from the all-slack basis."""
        self._basic_bounds()
        self._recompute_beta()
        if self.m and self._violation().max() > FEAS_TOL:
            status = self._phase_one()
            if status != OPTIMAL:
                return status
        self._load_objective()
        return self._primal()

    def resolve_dual(self, lower, upper) -> str:
        """Re-optimize under the structural box ``[lower, upper]`` from the current basis.

        Each nonbasic column moves to its bound in the new box before the
        dual simplex restores the basic rows.
        """
        self.lower[: self.n_struct] = lower
        self.upper[: self.n_struct] = upper
        kind = self.status_col
        kind[(kind == AT_UP) & ~np.isfinite(self.upper)] = AT_LO
        at_lo = kind == AT_LO
        at_up = kind == AT_UP
        self.value[at_lo] = self.lower[at_lo]
        self.value[at_up] = self.upper[at_up]
        self._recompute_beta()
        status = self._dual()
        if status == OPTIMAL:
            return self._primal()  # mop up any dual-tolerance slack
        return status

    def solution(self) -> np.ndarray:
        x = self.value.copy()
        x[self.basis] = self.beta
        return x[: self.n_struct]

    def objective_value(self) -> float:
        return float(self.obj_struct @ self.solution())

    # ---- internals ----

    def _recompute_beta(self) -> None:
        T, value = self.T, self.value
        rhs = T[:, -1].copy()
        # column by column in index order: a matmul sums in another order
        for j in ((self.status_col != BASIC) & (value != 0.0)).nonzero()[0].tolist():
            rhs -= T[:, j] * value[j]
        self.beta = rhs

    def _basic_bounds(self) -> None:
        """Cache the bounds of the basic variables, row by row.

        Bounds change only between calls, so each call refreshes the cache
        once and a pivot sets the entry of its row.
        """
        self.lo_b = self.lower[self.basis]
        self.up_b = self.upper[self.basis]

    def _violation(self) -> np.ndarray:
        """How far each basic variable lies outside its bounds, row by row."""
        return np.maximum(self.lo_b - self.beta, self.beta - self.up_b)

    def _load_objective(self) -> None:
        c = np.zeros(self.n_total)
        c[: self.n_struct] = self.obj_struct
        self._set_costs(c)

    def _set_costs(self, c: np.ndarray) -> None:
        self.cost = c
        cb = c[self.basis]
        self.zc = c - cb @ self.T[:, : self.n_total]

    def _phase_one(self) -> str:
        n0 = self.n_total
        art_rows = []
        for r in range(self.m):
            b = self.basis[r]
            if self.beta[r] < self.lower[b] - FEAS_TOL or self.beta[r] > self.upper[b] + FEAS_TOL:
                art_rows.append(r)
        n_art = len(art_rows)
        ext = np.zeros((self.m, n_art))
        new_T = np.concatenate([self.T[:, :n0], ext, self.T[:, -1:]], axis=1)
        self.T = new_T
        self.lower = np.concatenate([self.lower, np.zeros(n_art)])
        self.upper = np.concatenate([self.upper, np.full(n_art, np.inf)])
        self.status_col = np.concatenate(
            [self.status_col, np.full(n_art, AT_LO, dtype=np.int8)]
        )
        self.value = np.concatenate([self.value, np.zeros(n_art)])
        self.art_cols = list(range(n0, n0 + n_art))
        self.n_total = n0 + n_art

        for t, r in enumerate(art_rows):
            col = n0 + t
            old = self.basis[r]
            # Park the old basic at its nearest bound, absorb the residue.
            if self.beta[r] < self.lower[old]:
                parked = self.lower[old]
            else:
                parked = self.upper[old] if np.isfinite(self.upper[old]) else self.lower[old]
            resid = self.beta[r] - parked
            sign = 1.0 if resid >= 0 else -1.0
            self.T[r, col] = sign
            if sign < 0:
                self.T[r] *= -1.0  # keep the basis columns an identity
            self.status_col[old] = AT_LO if parked == self.lower[old] else AT_UP
            self.value[old] = parked
            self.basis[r] = col
            self.status_col[col] = BASIC

        # Row-reduce the new artificial columns against the current tableau:
        # each artificial column must be a unit column in its own row, which
        # it already is only if the basis rows are untouched; since we swapped
        # basics without pivoting, rebuild beta and costs directly.
        self._recompute_beta()
        c = np.zeros(self.n_total)
        c[self.art_cols] = -1.0
        self._set_costs(c)
        status = self._primal()
        if status != OPTIMAL:
            return status
        if self.objective_current() < -1e-6:
            return INFEASIBLE
        self._evict_artificials()
        for col in self.art_cols:
            self.lower[col] = 0.0
            self.upper[col] = 0.0
            if self.status_col[col] != BASIC:
                self.value[col] = 0.0
        return OPTIMAL

    def objective_current(self) -> float:
        x = self.value.copy()
        x[self.basis] = self.beta
        return float(self.cost @ x[: self.n_total])

    def _evict_artificials(self) -> None:
        art = set(self.art_cols)
        for r in range(self.m):
            if self.basis[r] not in art:
                continue
            row = self.T[r, : self.n_total]
            candidates = np.flatnonzero(np.abs(row) > PIVOT_TOL)
            pivot_col = -1
            for j in candidates:
                if j not in art and self.status_col[j] != BASIC:
                    pivot_col = int(j)
                    break
            if pivot_col >= 0:
                self._pivot(r, pivot_col, 0.0, +1, AT_LO)
        # any remaining basic artificials sit at zero in redundant rows

    def _primal(self) -> str:
        limit = 20000 + 200 * (self.m + self.n_total)
        steps = 0
        self._basic_bounds()
        # bound to locals: within a call these arrays change only in place
        T, zc, beta, lo_b, up_b = self.T, self.zc, self.beta, self.lo_b, self.up_b
        status_col, value, lower, upper = self.status_col, self.value, self.lower, self.upper
        movable = upper - lower > ZERO_STEP
        all_inf = np.full(self.m, np.inf)
        while True:
            steps += 1
            self.iterations += 1
            if steps > limit:
                raise NumericalFailureError("primal simplex iteration limit")
            if self.iterations % _CHECK_EVERY == 0:
                self._check_time()
            # a column at its lower bound may rise, one at its upper may fall
            idx = ((_SIGN.take(status_col) * zc > OPT_TOL) & movable).nonzero()[0]
            if len(idx) == 0:
                return OPTIMAL
            if self.bland:
                e = int(idx[0])
            else:
                e = int(idx[np.abs(zc[idx]).argmax()])
            direction = +1 if status_col[e] == AT_LO else -1
            col = T[:, e]
            a = direction * col

            # each row's step to its bound along a, only where |a| passes the
            # pivot tolerance: no division by zero, every other row stays inf
            ratios = all_inf.copy()
            np.divide(beta - lo_b, a, out=ratios, where=a > PIVOT_TOL)
            np.divide(up_b - beta, -a, out=ratios, where=a < -PIVOT_TOL)
            np.maximum(ratios, 0.0, out=ratios)
            np.fmin(ratios, np.inf, out=ratios)  # NaN to inf
            t_rows = float(ratios.min()) if self.m else math.inf
            own = float(upper[e] - lower[e])

            if math.isfinite(own) and own <= t_rows + ZERO_STEP:
                # bound flip, no basis change
                beta -= a * own
                status_col[e] = AT_UP if direction == +1 else AT_LO
                value[e] = upper[e] if direction == +1 else lower[e]
                self._note_step(own)
                continue
            if not math.isfinite(t_rows):
                return UNBOUNDED
            r = self._leaving_row(ratios, t_rows)
            hits_lower = a[r] > 0
            self._note_step(t_rows)
            self._pivot(r, e, t_rows, direction, AT_LO if hits_lower else AT_UP)

    def _check_time(self) -> None:
        """Raise ``OutOfTime`` once the deadline has passed."""
        if time.perf_counter() > self.deadline:
            raise OutOfTime

    def _leaving_row(self, ratios: np.ndarray, t: float) -> int:
        ties = ratios <= t + ZERO_STEP
        if self.bland:
            ties = ties.nonzero()[0]
            return int(ties[self.basis[ties].argmin()])
        return int(ties.argmax())  # the first tie

    def _note_step(self, t: float) -> None:
        if t <= ZERO_STEP:
            self._stall += 1
            if self._stall >= STALL_LIMIT:
                self.bland = True
        else:
            self._stall = 0

    def _pivot(self, r: int, e: int, t: float, direction: int, leave_status: int) -> None:
        T, beta, status_col, value = self.T, self.beta, self.status_col, self.value
        col = T[:, e].copy()
        leaving = int(self.basis[r])
        new_val = (value[e] if status_col[e] != BASIC else beta[r]) + direction * t

        beta -= direction * t * col
        pivot_row = T[r]
        pivot_row /= pivot_row[e]
        col[r] = 0.0
        rows = col.nonzero()[0]
        # Each row with a nonzero in the pivot column gets T[i] - col[i] * T[r]
        # over its full width, the same product and difference per entry as a
        # row-at-a-time update: skipping zero columns would leave -0.0 entries
        # that x - (-0.0) turns into +0.0.  Rows with a zero are not touched.
        if len(rows) * len(pivot_row) < _BLOCK:
            T[rows] -= np.multiply.outer(col[rows], pivot_row)
        else:  # in place, one slice per run of consecutive rows: no gathered copy
            for a, b in _runs(rows):
                T[a:b] -= np.multiply.outer(col[a:b], pivot_row)
        zc = self.zc
        zc -= zc[e] * pivot_row[: self.n_total]
        zc[e] = 0.0

        self.basis[r] = e
        self.lo_b[r] = self.lower[e]
        self.up_b[r] = self.upper[e]
        beta[r] = new_val
        status_col[e] = BASIC
        status_col[leaving] = leave_status
        bound = self.lower[leaving] if leave_status == AT_LO else self.upper[leaving]
        value[leaving] = bound if math.isfinite(bound) else 0.0

    def _dual(self) -> str:
        if not self.m:
            return OPTIMAL  # no basic variable to lie outside its bounds
        limit = 20000 + 200 * (self.m + self.n_total)
        steps = 0
        self._basic_bounds()
        # bound to locals: within a call these arrays change only in place
        T, zc, beta, lo_b, up_b = self.T, self.zc, self.beta, self.lo_b, self.up_b
        status_col, n = self.status_col, self.n_total
        movable = self.upper - self.lower > ZERO_STEP
        while True:
            steps += 1
            self.iterations += 1
            if steps > limit:
                raise NumericalFailureError("dual simplex iteration limit")
            if self.iterations % _CHECK_EVERY == 0:
                self._check_time()
            viol = self._violation()
            r = int(viol.argmax())
            if viol[r] <= FEAS_TOL:
                return OPTIMAL
            below = beta[r] < lo_b[r]
            target = lo_b[r] if below else up_b[r]
            row = T[r, :n]
            # the entering column moves the leaving row towards its bound: up
            # from below, down from above
            sign = _SIGN_DOWN if below else _SIGN
            idx = ((sign.take(status_col) * row > PIVOT_TOL) & movable).nonzero()[0]
            if len(idx) == 0:
                return INFEASIBLE
            if self.bland:
                e = int(idx[0])
            else:
                e = int(idx[np.abs(zc[idx] / row[idx]).argmin()])

            direction = +1 if status_col[e] == AT_LO else -1
            t = float((beta[r] - target) / (direction * row[e]))
            self._note_step(t)
            self._pivot(r, e, t, direction, AT_LO if below else AT_UP)


def _runs(rows: np.ndarray):
    """(start, stop) of each run of consecutive indices in sorted ``rows``."""
    breaks = np.flatnonzero(np.diff(rows) != 1) + 1
    starts = rows[np.concatenate(([0], breaks))]
    stops = rows[np.concatenate((breaks - 1, [len(rows) - 1]))] + 1
    return zip(starts.tolist(), stops.tolist())
