"""Branch-and-bound over the tree-training integer programs.

Two engines share one result contract and one best-bound loop
(``_best_first``): node order, the gap prune, the time and node limits,
progress records, incumbent updates and the reported statuses are the same
code for both.  An engine supplies only its node work, a bound step and a
split step:

* a structured search used for models produced by ``build_model``: it
  branches on the integral feature-selection bits, propagates the one-group
  implications, and closes a node exactly once the remaining assignments are
  few enough.  One closure serves every mode: it enumerates the tests at
  branched nodes in batches and completes the leaf-adjacent tests with an
  exact per-group knapsack;
* a generic LP-driven search for any model (e.g. parsed from MPS): most
  fractional declared variable, bounds from the dense simplex.

Nodes are taken best bound first; on equal bounds the child pushed last is
taken first, so the search plunges depth-first.  In both engines bounds are
monotone along the search tree and the incumbent is a feasible integral
assignment, so ``optimal`` results carry a proof.  The gap is fixed: under
one unit for integral objectives, whose values differ by whole units, and
1e-6 otherwise.
"""

from __future__ import annotations

import heapq
import logging
import time
from dataclasses import dataclass, field
from math import ceil, floor, prod

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import simplex
from .encoding import GroupSchema
from .errors import (
    FractionalSelectionError,
    NumericalFailureError,
    TimeLimitNoIncumbentError,
)
from .model import MilpModel
from .simplex import BoundedSimplex
from .topology import TreeTopology
from .tree import DecisionTree

log = logging.getLogger("grouptree.solver")

OPTIMAL = "optimal"
FEASIBLE_TIME_LIMIT = "feasible_time_limit"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

# how far a solved value may sit from an integer and still count as one
_TOL = 1e-6

ENUM_BUDGET = 4096
ENUM_BUDGET_CONSTRAINED = 20000
# closure batch limits: routed masks per batch, and floats per array in the
# leaf kernel (bounds the float copy of the masks and the knapsack state)
CHUNK_ROWS = 256
CHUNK_CELLS = 1 << 16
# the subtree tables kept during one solve: a stored row costs its table's
# floor + 1 cells and one cell per byte of its packed mask
_TABLE_STORE_CELLS = 4 * CHUNK_CELLS


@dataclass(frozen=True)
class SolveConfig:
    time_limit: float = 1800.0
    node_limit: int | None = None
    log_progress: bool = False
    callback: object = None  # callable(dict) per processed node


@dataclass
class SolveResult:
    status: str
    objective: float | None
    best_bound: float
    assignment: dict[str, float] = field(default_factory=dict)
    nodes_processed: int = 0
    lp_iterations: int = 0
    wall_time: float = 0.0

    def as_dict(self) -> dict:
        return {
            "status": self.status,
            "objective": self.objective,
            "best_bound": self.best_bound,
            "nodes_processed": self.nodes_processed,
            "lp_iterations": self.lp_iterations,
        }


def _model_arrays(model: MilpModel):
    index = model.variable_index()
    n = len(model.variables)
    m = len(model.constraints)
    A = np.zeros((m, n))
    senses = []
    rhs = np.zeros(m)
    for r, con in enumerate(model.constraints):
        for name, coef in con.coeffs:
            A[r, index[name]] += coef
        senses.append(con.sense)
        rhs[r] = con.rhs
    obj = np.zeros(n)
    for name, coef in model.objective:
        obj[index[name]] += coef
    if model.sense == "min":
        obj = -obj
    lower = np.array([v.lower for v in model.variables])
    upper = np.array([v.upper for v in model.variables])
    return A, senses, rhs, obj, lower, upper


def solve_lp(model: MilpModel):
    """Optimal basic solution of the model's continuous relaxation.

    Returns ``(value, assignment, status)`` with status one of ``optimal``,
    ``infeasible``, ``unbounded``; value and assignment are None unless
    optimal.
    """
    A, senses, rhs, obj, lower, upper = _model_arrays(model)
    solver = BoundedSimplex(A, senses, rhs, obj, lower, upper)
    status = solver.solve()
    if status != simplex.OPTIMAL:
        return None, None, status
    x = solver.solution()
    value = float(obj @ x)
    if model.sense == "min":
        value = -value
    assignment = {v.name: float(x[j]) for j, v in enumerate(model.variables)}
    return value, assignment, OPTIMAL


def solve_milp(
    model: MilpModel, config: SolveConfig | None = None, method: str = "auto"
) -> SolveResult:
    """Solve the integer program to proven optimality (or best within limits).

    ``method`` picks the engine: ``auto`` uses the structured search whenever
    the model carries its build structure, ``lp`` forces the generic LP-based
    branch and bound, ``structured`` requires the structure.
    """
    config = config or SolveConfig()
    if method not in ("auto", "structured", "lp"):
        raise ValueError(f"unknown method {method!r}")
    if method == "structured" and model.structure is None:
        raise ValueError("model has no build structure attached")
    if model.structure is not None and method in ("auto", "structured"):
        return _StructuredSearch(model, config).run()
    return _LpBranchAndBound(model, config).run()


def extract_tree(
    result: SolveResult,
    topology: TreeTopology,
    schema: GroupSchema,
) -> DecisionTree:
    """Read the classifier out of a solved assignment."""
    assignment = result.assignment
    tests = {}
    for k in topology.decision_nodes:
        chosen = None
        best_val = -1.0
        for g in range(schema.n_groups):
            val = assignment.get(f"V_{k}_{g}", 0.0)
            if val > best_val + 1e-12:
                best_val = val
                chosen = g
        if chosen is None or best_val < 1.0 - _TOL:
            raise FractionalSelectionError(
                f"no group within tolerance of 1 at node {k} (max {best_val:.6f})"
            )
        subset = frozenset(
            j
            for j in schema.features_of(chosen)
            if assignment.get(f"Z_{k}_{j}", 0.0) > 1.0 - _TOL
        )
        tests[k] = (chosen, subset)
    return DecisionTree(
        topology=topology,
        tests=tests,
        n_features=schema.n_features,
        group_sizes=schema.group_sizes,
    )


# ---------------------------------------------------------------------------
# the best-bound loop shared by both engines
# ---------------------------------------------------------------------------


def _best_first(engine, root, root_bound: float) -> SolveResult:
    """Best-bound branch and bound over the nodes of ``engine``.

    The engine maximises and supplies the node work:

    * ``engine.bound(node, parent_bound)``: None for an infeasible node, else
      ``(bound, progress fields, work)``.  A bound of +inf is an unbounded
      relaxation and ends the search;
    * ``engine.split(node, work)`` on a node that survived the gap prune:
      ``(value, solution, children)``, a candidate incumbent (``value`` -inf
      for none) and the children to push, in order;
    * ``engine.assignment(solution)`` of the winner, ``engine.sign`` to turn
      the maximised value back to the model's sense, and
      ``engine.iterations`` for the pivots spent.
    """
    config = engine.config
    # a bound within the gap of the incumbent cannot beat it: by less than
    # one unit when every objective value is an integer
    gap = 0.999 if engine.model.objective_is_integral() else 1e-6
    start = time.perf_counter()
    best, best_at = -np.inf, None  # incumbent value and its solution
    nodes = counter = 0
    heap = [(-root_bound, 0, root)]  # (-bound, -counter, node)
    hit_limit = unbounded = False

    while heap:
        entry = heapq.heappop(heap)
        neg_bound, _, node = entry
        parent_bound = -neg_bound
        incumbent = None if best_at is None else best
        if incumbent is not None and parent_bound <= incumbent + gap:
            continue
        if time.perf_counter() - start > config.time_limit or (
            config.node_limit is not None and nodes >= config.node_limit
        ):
            hit_limit = True
            heapq.heappush(heap, entry)
            break
        nodes += 1

        bounded = engine.bound(node, parent_bound)
        if bounded is None:
            continue
        bound, fields, work = bounded
        if bound == np.inf:
            unbounded = True
            break
        _emit_progress(config, nodes, incumbent, bound, start, fields)
        if incumbent is not None and bound <= incumbent + gap:
            continue

        value, solution, children = engine.split(node, work)
        if value > best:
            best, best_at = value, solution
        for child in children:
            counter += 1
            heapq.heappush(heap, (-bound, -counter, child))

    elapsed = time.perf_counter() - start
    if unbounded:
        return SolveResult(
            UNBOUNDED, None, np.inf, {}, nodes, engine.iterations, elapsed
        )
    if best_at is None:
        if hit_limit:
            raise TimeLimitNoIncumbentError(
                f"no feasible solution within limits ({nodes} nodes)"
            )
        return SolveResult(
            INFEASIBLE, None, -np.inf, {}, nodes, engine.iterations, elapsed
        )
    bound = best
    if hit_limit:
        bound = max(best, max(-b for b, _, _ in heap))
    return SolveResult(
        FEASIBLE_TIME_LIMIT if hit_limit else OPTIMAL,
        engine.sign * best,
        engine.sign * bound,
        engine.assignment(best_at),
        nodes,
        engine.iterations,
        elapsed,
    )


def _emit_progress(config, node, incumbent, bound, start, extra=None):
    if not (config.log_progress or config.callback):
        return
    elapsed = time.perf_counter() - start
    inc = "-" if incumbent is None else f"{float(incumbent):.6g}"
    gap = "-" if incumbent is None else f"{bound - float(incumbent):.6g}"
    if config.log_progress:
        log.info(
            "node=%d incumbent=%s bound=%.6g gap=%s time=%.2f",
            node, inc, bound, gap, elapsed,
        )
    if config.callback:
        payload = {"node": node, "incumbent": incumbent, "bound": bound, "time": elapsed}
        if extra:
            payload.update(extra)
        config.callback(payload)


# ---------------------------------------------------------------------------
# generic LP-based branch and bound
# ---------------------------------------------------------------------------


class _LpBranchAndBound:
    def __init__(self, model: MilpModel, config: SolveConfig):
        self.model = model
        self.config = config
        self.arrays = _model_arrays(model)
        _, _, _, self.obj, self.lower0, self.upper0 = self.arrays
        self.declared = np.array(
            [j for j, v in enumerate(model.variables) if v.is_integer], dtype=np.int64
        )
        self.sign = -1.0 if model.sense == "min" else 1.0
        self.iterations = 0  # pivots spent so far
        self._hot = None
        self._hot_patch = {}

    def run(self) -> SolveResult:
        return _best_first(self, {}, np.inf)

    def _node_lp(self, patch):
        """Re-optimize the shared simplex under a node's bound patch.

        The basis stays dual-feasible across bound changes, so a dual restart
        usually suffices; numerical trouble falls back to a fresh solve.
        Returns (solver, status, iterations spent on this node).
        """
        A, senses, rhs, obj, lower0, upper0 = self.arrays

        def fresh():
            solver = BoundedSimplex(A, senses, rhs, obj, lower0.copy(), upper0.copy())
            for j, (lo, up) in patch.items():
                solver.set_bounds(j, lo, up)
            status = solver.solve()
            # only a clean phase-2 end leaves re-optimizable costs behind
            self._hot = solver if status == simplex.OPTIMAL else None
            self._hot_patch = dict(patch)
            return solver, status, solver.iterations

        if self._hot is None:
            return fresh()
        solver = self._hot
        for j in self._hot_patch:
            if j not in patch:
                solver.set_bounds(j, lower0[j], upper0[j])
        for j, (lo, up) in patch.items():
            solver.set_bounds(j, lo, up)
        self._hot_patch = dict(patch)
        before = solver.iterations
        try:
            status = solver.resolve_dual()
        except NumericalFailureError:
            failed = solver.iterations - before  # pivots spent before the failure
            solver, status, spent = fresh()
            return solver, status, failed + spent
        if status == simplex.UNBOUNDED:
            self._hot = None
        return solver, status, solver.iterations - before

    def bound(self, patch, parent_bound):
        """The node LP's value, capped at the parent's bound."""
        solver, status, spent = self._node_lp(patch)
        self.iterations += spent
        if status == simplex.INFEASIBLE:
            return None
        if status == simplex.UNBOUNDED:
            return np.inf, None, None
        x = solver.solution()
        val = float(self.obj @ x)
        fields = {"lp_value": val, "parent_bound": parent_bound}
        return min(val, parent_bound), fields, (val, x)

    def split(self, patch, work):
        """An integral LP optimum, or two children on the most fractional variable."""
        val, x = work
        frac_j, frac_dist = -1, -1.0
        xd = x[self.declared]
        # the declared variables off an integer, in declaration order
        for j in self.declared[np.abs(xd - np.round(xd)) > _TOL].tolist():
            dist = min(x[j] - floor(x[j]), ceil(x[j]) - x[j])
            if dist > frac_dist + 1e-12:
                frac_dist = dist
                frac_j = j
        if frac_j < 0:
            return val, x, ()

        # each child narrows the node's own box, which may already bound frac_j
        lo, hi = patch.get(frac_j, (self.lower0[frac_j], self.upper0[frac_j]))
        down = dict(patch)
        down[frac_j] = (lo, float(floor(x[frac_j] + _TOL)))
        up = dict(patch)
        up[frac_j] = (float(ceil(x[frac_j] - _TOL)), hi)
        prefer_up = x[frac_j] - floor(x[frac_j]) >= 0.5
        return -np.inf, None, ((down, up) if prefer_up else (up, down))

    def assignment(self, x) -> dict[str, float]:
        return {v.name: float(x[j]) for j, v in enumerate(self.model.variables)}


# ---------------------------------------------------------------------------
# structured search for built models
# ---------------------------------------------------------------------------


class _StructuredSearch:
    """Branch over the integral feature bits of a built model.

    A search node is a box of per-(decision node, feature) 0/1 bounds on the
    branched (non-leaf-adjacent) nodes.  Fixing a bit to 1 pins that node's
    group, which zeroes every other group's bits there; anchored nodes must
    keep their group's anchor bit set.  Each search node derives once which
    groups, and which fixed and free features, each branched node still
    allows (``_allowed``); the bound, the test count and the closure all read
    that.  Once the number of remaining test assignments at the branched
    nodes is at most a budget, the node is closed exactly.

    The closure is the same in every mode; the mode is data fixed here:
    what a correct positive and a correct negative add to the objective
    (integers over ``scale``), which of them counts towards the floor, and
    the floor (0 in accuracy mode).  Every subtree gets one table per routed
    sample set: the best objective with at least ``t`` floored-class samples
    correct, for ``t = 0 .. floor``.  Leaf-adjacent tables come from a
    per-group knapsack over the features (``_group_tables``).  A branched
    node sends the child sample sets of all of its tests through its children
    as one batch and merges their tables (``_merge``).  Every subtree but the
    root's is served from one per-solve store (``_stored``), keyed by the
    routed set and, at a branched node, by the box rows that fix its
    subtree's tests, so each distinct table is computed once per solve.  The
    winning tests are recovered afterwards along the winning path
    (``_recover``).
    """

    sign = 1.0  # built models maximise
    iterations = 0  # no simplex runs here

    def __init__(self, model: MilpModel, config: SolveConfig):
        st = model.structure
        self.model = model
        self.config = config
        self.data = st.data
        self.topo = st.topology
        self.bcfg = st.config
        self.schema = st.data.schema

        self.decl = sorted(set(self.topo.decision_nodes) - set(self.topo.leaf_adjacent))
        self.decl_pos = {k: p for p, k in enumerate(self.decl)}
        self.n_decl = len(self.decl)
        self.d = self.schema.n_features
        self.n_groups = self.schema.n_groups
        self.labels = self.data.labels.astype(np.int8)
        self.n = self.data.n_samples

        self.group_feats = [
            np.array(self.schema.features_of(g), dtype=np.int64)
            for g in range(self.n_groups)
        ]
        # per group, the feature id of each sample within it
        self.fidx = np.zeros((self.n_groups, self.n), dtype=np.int64)
        for g, feats in enumerate(self.group_feats):
            self.fidx[g] = feats[np.argmax(self.data.matrix[:, feats], axis=1)]
        self.anchor = [self.schema.anchor_feature(g) for g in range(self.n_groups)]
        self.anchored = self.topo.anchor_eligible if self.bcfg.anchor else frozenset()
        self.group_of = np.array([self.schema.group_of(j) for j in range(self.d)])

        # Each mode as data.  A correct positive sits in a right (even) leaf,
        # a correct negative in a left (odd) one.  ``gain_*`` is what each adds
        # to the objective, in integers: the objective is their sum over
        # ``scale``.  ``counted_*`` is whether it is of the floored class.
        weight, mode = self.bcfg.class_weight, self.bcfg.mode
        n_neg = int((self.labels == -1).sum())
        n_pos = self.n - n_neg
        if mode == "accuracy":
            gain_pos, gain_neg = weight.denominator, weight.numerator
            counted_pos = counted_neg = 0
            self.floor = 0
        elif mode == "max_sensitivity":
            gain_pos, gain_neg = 1, 0
            counted_pos, counted_neg = 0, 1
            self.floor = ceil(self.bcfg.min_specificity * n_neg)
        else:
            gain_pos, gain_neg = 0, 1
            counted_pos, counted_neg = 1, 0
            self.floor = ceil(self.bcfg.min_sensitivity * n_pos)
        self.scale = weight.denominator if mode == "accuracy" else 1
        self.enum_budget = (
            ENUM_BUDGET if mode == "accuracy" else ENUM_BUDGET_CONSTRAINED
        )
        pos_w, neg_w = gain_pos / self.scale, gain_neg / self.scale
        self.sample_w = np.where(self.labels == 1, pos_w, neg_w)
        # the DP bound's leaf scores by leaf parity: 2 where a sample's class
        # is the leaf's (even leaves predict positive), else 0
        self.leaf_scores = (
            np.where(self.labels == 1, 2.0, 0.0),
            np.where(self.labels == -1, 2.0, 0.0),
        )
        self.trivial_bound = float(n_pos * pos_w + n_neg * neg_w)
        forbid = self.bcfg.forbid_trivial_branch
        # final knapsack states [some feature went left, some went right]
        self.accept = np.array([[False, not forbid], [not forbid, True]])

        # feature slots of each group, padded to the widest group
        width = max(self.schema.group_sizes, default=1)
        slots = np.zeros((self.n_groups, width), dtype=np.int64)
        self.slot_used = np.zeros((self.n_groups, width), dtype=bool)
        for g, feats in enumerate(self.group_feats):
            slots[g, : len(feats)] = feats
            self.slot_used[g, : len(feats)] = True
        slot_cols = self.data.matrix[:, slots.ravel()] * self.slot_used.ravel()
        pos = self.labels[:, None] == 1
        self.columns = np.hstack([slot_cols * ~pos, slot_cols * pos]).astype(float)
        # routed [negatives, positives] per slot -> left/right gain, left/right count
        self.side_weights = np.array(
            [[gain_neg, gain_pos], [counted_neg, counted_pos]], dtype=float
        )
        self.leaf_rows = max(
            1, CHUNK_CELLS // max(self.n, 8 * self.n_groups * (self.floor + 1))
        )
        # per non-root branched node, the positions of the branched nodes in
        # its subtree: their box rows fix the subtree's options
        self.subtree_rows = {
            k: self._subtree_rows(k) for k in self.decl if k != self.topo.root
        }
        # subtree tables of the masks routed so far: signature + packed mask
        # -> row.  A winner is a group, or an option of a non-root branched
        # node, which allows at most max(budget, groups) of them.
        self.store_index: dict[bytes, int] = {}
        self.store_best = np.empty((0, self.floor + 1))
        most = max(self.n_groups, self.enum_budget if self.subtree_rows else 0)
        self.store_winners = np.empty(
            self.store_best.shape, dtype=np.min_scalar_type(max(most - 1, 0))
        )
        row_cells = self.floor + 1 + (self.n + 7) // 8
        self.store_capacity = max(1, _TABLE_STORE_CELLS // row_cells)

    # -- node work for the shared loop ----------------------------------------

    def run(self) -> SolveResult:
        root = (
            np.zeros((self.n_decl, self.d), dtype=np.int8),
            np.ones((self.n_decl, self.d), dtype=np.int8),
        )
        return _best_first(self, root, self.trivial_bound)

    def bound(self, box, parent_bound):
        """Propagate the box in place; the DP bound unless some node allows no test.

        What each branched node allows is the work handed on to ``split``.
        """
        zlo, zhi = box
        allowed = self._allowed(zlo, zhi)
        if allowed is None:
            return None
        return min(parent_bound, self._dp_bound(zhi, allowed)), None, allowed

    def split(self, box, allowed):
        """Close the box exactly if it holds few enough tests, else branch a bit."""
        zlo, zhi = box
        count = prod(sum(1 << len(free) for _, _, free in node) for node in allowed)
        bit = self._branch_bit(zlo, zhi) if count > self.enum_budget else None
        if bit is None:
            # the best scaled objective meeting the floor (-inf if none), and
            # the first root test (or group, for a one-node tree) reaching it
            # each branched node's tests, and the signatures that key the
            # stored tables of the non-root ones
            closure = [self._options(node) for node in allowed], self._signatures(zlo, zhi)
            everyone = np.ones((1, self.n), dtype=bool)
            tables, winners = self._tables(("node", self.topo.root), everyone, closure)
            value, winner = float(tables[0, self.floor]), int(winners[0, self.floor])
            # the loop compares objectives; _recover wants the scaled value
            return value / self.scale, (value, winner, closure), ()
        p_star, j_star = bit
        child_hi = zhi.copy()
        child_hi[p_star, j_star] = 0
        child_lo = zlo.copy()
        child_lo[p_star, j_star] = 1  # pushed last: plunges first on ties
        return -np.inf, None, ((zlo.copy(), child_hi), (child_lo, zhi.copy()))

    def assignment(self, solution) -> dict[str, float]:
        """The winning closure's tests, recovered and written as an assignment."""
        value, winner, closure = solution
        tests: dict = {}
        everyone = np.ones(self.n, dtype=bool)
        root = ("node", self.topo.root)
        self._recover(root, everyone, self.floor, value, winner, closure, tests)
        return self._assignment_from_tests(tests)

    def _branch_bit(self, zlo, zhi):
        """The first undecided bit, or None when the box decides every bit.

        The test count sums one all-right test per group, so a decided box
        can count over the budget; its nodes each allow at most one test per
        group, few enough to close.
        """
        for p in range(self.n_decl):
            undecided = np.flatnonzero((zlo[p] == 0) & (zhi[p] == 1))
            if undecided.size:
                return p, int(undecided[0])
        return None

    # -- what a box allows ----------------------------------------------------

    def _allowed(self, zlo, zhi):
        """Propagate the box in place; what each branched node still allows.

        A set bit pins its node's group and clears the other groups' bits; at
        an anchored node the pinned group's anchor bit is set, and only
        groups whose anchor bit may be set are allowed.  Returns, per
        branched node, ``(group, fixed features, free features)`` of each
        allowed group, an anchored node's anchor among the fixed ones; None
        when some node allows no test.
        """
        allowed = []
        for p, k in enumerate(self.decl):
            lo, hi = zlo[p], zhi[p]
            pinned = set(self.group_of[lo == 1].tolist())
            if len(pinned) > 1:
                return None
            for g in pinned:
                hi[self.group_of != g] = 0
            anchored = k in self.anchored
            node = []
            for g in pinned or range(self.n_groups):
                feats = self.group_feats[g]
                fixed = lo[feats] == 1
                if anchored:
                    a = self.anchor[g]
                    if hi[a] == 0:
                        continue
                    if pinned:
                        lo[a] = 1
                    fixed |= feats == a
                free = (hi[feats] == 1) & ~fixed
                node.append((g, feats[fixed].tolist(), feats[free].tolist()))
            if not node:
                return None
            allowed.append(node)
        return allowed

    def _options(self, node):
        """Deterministic (group, subset tuple) tests of one node's allowed groups."""
        options = []
        emitted_empty = False
        for g, fixed, free in node:
            size = len(self.group_feats[g])
            for bits in range(1 << len(free)):
                subset = fixed + [j for t, j in enumerate(free) if bits >> t & 1]
                if self.bcfg.forbid_trivial_branch and (
                    len(subset) == 0 or len(subset) == size
                ):
                    continue
                if not subset:
                    if emitted_empty:
                        continue  # the all-right test does not depend on the group
                    emitted_empty = True
                options.append((g, tuple(sorted(subset))))
        return options

    def _subtree_rows(self, k: int) -> np.ndarray:
        """Positions of the branched nodes in node ``k``'s subtree, ``k`` included."""
        rows, stack = [], [k]
        while stack:
            kk = stack.pop()
            if kk in self.decl_pos:
                rows.append(self.decl_pos[kk])
                stack.extend(c for kind, c in self.topo.children[kk] if kind == "node")
        return np.array(sorted(rows), dtype=np.int64)

    def _signatures(self, zlo, zhi) -> dict[int, bytes]:
        """Per non-root branched node: its id and its subtree's propagated box rows.

        Those rows fix the options of every branched node in the subtree
        (``_allowed`` reads a node's own rows only, and propagating them again
        changes nothing), so two closures whose signatures agree at a node
        have the same table there for each routed mask.
        """
        return {
            k: k.to_bytes(4, "little") + np.packbits([zlo[rows], zhi[rows]]).tobytes()
            for k, rows in self.subtree_rows.items()
        }

    # -- per-sample relaxation bound ------------------------------------------

    def _dp_bound(self, zhi, allowed) -> float:
        """Valid upper bound: each sample routed as well as its boxes allow."""
        h = np.minimum(self._dp_scores(("node", self.topo.root), zhi, allowed), 1.0)
        return float(np.dot(self.sample_w, h))

    def _dp_scores(self, child, zhi, allowed) -> np.ndarray:
        # a method, not a nested function: a self-referencing closure would
        # keep the search, and its model, alive until the cyclic collector runs
        kind, kk = child
        if kind == "leaf":
            return self.leaf_scores[kk % 2]
        hl = self._dp_scores(self.topo.children[kk][0], zhi, allowed)
        hr = self._dp_scores(self.topo.children[kk][1], zhi, allowed)
        lo, hi = self._branch_interval(kk, zhi, allowed)
        best = None
        for cand in (lo, hi, np.clip(hl, lo, hi), np.clip(1.0 - hr, lo, hi)):
            val = np.minimum(cand, hl) + np.minimum(1.0 - cand, hr)
            best = val if best is None else np.maximum(best, val)
        return best

    def _branch_interval(self, k: int, zhi, allowed):
        """Per sample, 1 if node ``k`` surely sends it left, and 1 if it may."""
        if k not in self.decl_pos:
            return np.zeros(self.n), np.ones(self.n)
        p = self.decl_pos[k]
        # surely left: its feature is fixed in every group the node allows
        surely = np.zeros(self.d, dtype=bool)
        surely[[j for _, fixed, _ in allowed[p] for j in fixed]] = True
        groups = [g for g, _, _ in allowed[p]]
        lo = surely[self.fidx[groups]].all(axis=0).astype(float)
        hi = np.max(zhi[p][self.fidx], axis=0).astype(float)
        return lo, hi

    # -- closure: one exact table kernel for every mode ---------------------
    #
    # A table holds, for ``t = 0 .. floor``, the best scaled objective of a
    # subtree with at least ``t`` floored-class samples correct.

    def _tables(self, child, masks, closure):
        """``(len(masks), floor + 1)`` tables of the subtree, one per routed mask.

        Also returns, per entry, the first option (or group, at a
        leaf-adjacent node) that reaches it.  ``closure`` holds each branched
        node's options and each non-root branched node's signature.  The
        root's tables are computed directly, since a closure routes only the
        all-samples mask there; every other subtree's come from the store.
        """
        k = child[1]
        if k == self.topo.root:
            return self._computed(k, masks, closure)
        return self._stored(k, masks, closure)

    def _stored(self, k, masks, closure):
        """Node ``k``'s tables, each (signature, mask) computed once per solve.

        A non-root table depends only on the routed mask, on what fixes the
        options in the subtree, and on the mode and the floor, which are
        fixed for the solve.  A leaf-adjacent node's test is never branched
        and its children are leaves, so its signature is empty and its table
        is shared by every leaf-adjacent node; a branched node's signature is
        its closure's (``_signatures``).  A row's winner does not depend on
        the other masks of its batch, so one store serves every closure of a
        solve and the recovery.  It grows geometrically up to
        ``store_capacity`` rows; a batch that overfills it starts it afresh.
        """
        packed = np.packbits(masks, axis=1)
        keys = packed.view(f"V{packed.shape[1]}").ravel().tolist()
        if k in self.decl_pos:
            sig = closure[1][k]
            keys = [sig + key for key in keys]
        # each distinct key -> the position of its first mask in the batch
        first = dict(zip(reversed(keys), range(len(keys) - 1, -1, -1)))
        index = self.store_index
        new = [key for key in first if key not in index]
        if new:
            # the batch's stored rows are read first: a branched node's new
            # rows recurse into the store, which may clear it meanwhile
            old = [key for key in first if key in index]
            at = np.fromiter(map(index.__getitem__, old), np.int64, len(old))
            old_best, old_winners = self.store_best[at], self.store_winners[at]
            fresh = np.fromiter(map(first.__getitem__, new), np.int64, len(new))
            best, winners = self._computed(k, masks[fresh], closure)
            if len(index) + len(new) > self.store_capacity or not all(
                map(index.__contains__, old)
            ):
                index.clear()  # full, or cleared meanwhile: this batch starts it afresh
                new = old + new
                best = np.concatenate([old_best, best])
                winners = np.concatenate([old_winners, winners])
            start = len(index)
            index.update(zip(new, range(start, start + len(new))))
            if len(index) > len(self.store_best):
                size = max(len(index), min(2 * len(self.store_best), self.store_capacity))
                for name in ("store_best", "store_winners"):
                    stored = getattr(self, name)
                    grown = np.empty((size,) + stored.shape[1:], dtype=stored.dtype)
                    grown[:start] = stored[:start]
                    setattr(self, name, grown)
            self.store_best[start:len(index)] = best
            self.store_winners[start:len(index)] = winners
        rows = np.fromiter(map(index.__getitem__, keys), np.int64, len(keys))
        return self.store_best[rows], self.store_winners[rows]

    def _computed(self, k, masks, closure):
        """Node ``k``'s tables computed here; its children's come from ``_tables``.

        A leaf-adjacent node runs the per-group knapsack in ``leaf_rows``
        chunks.  A branched node sends the child masks of a chunk of its
        options through each child as one batch; the root keeps only the
        entry that meets the floor.
        """
        best = np.full((len(masks), self.floor + 1), -np.inf)
        winners = np.zeros(best.shape, dtype=np.int64)
        if k in self.topo.leaf_adjacent:
            if not self.n_groups:
                return best, winners  # with no group there is no test at all
            for r in range(0, len(masks), self.leaf_rows):
                at = slice(r, r + self.leaf_rows)
                tables = self._group_tables(self._gains(masks[at]))
                best[at] = tables.max(axis=1)
                winners[at] = tables.argmax(axis=1)
            return best, winners
        tests = closure[0][self.decl_pos[k]]
        keep = self.floor if k == self.topo.root else 0
        left_child, right_child = self.topo.children[k]
        step = max(1, CHUNK_ROWS // len(masks))
        for lo in range(0, len(tests), step):
            go = self._go_left(tests[lo:lo + step])
            left = (masks[:, None] & go).reshape(-1, self.n)
            right = (masks[:, None] & ~go).reshape(-1, self.n)
            merged = self._merge(
                self._tables(left_child, left, closure)[0],
                self._tables(right_child, right, closure)[0],
                keep,
            ).reshape(len(masks), len(go), -1)
            chunk_best = merged.max(axis=1)
            better = chunk_best > best
            best[better] = chunk_best[better]
            winners[better] = merged.argmax(axis=1)[better] + lo
        return best, winners

    def _go_left(self, options) -> np.ndarray:
        """``(len(options), n)``: the samples each (group, subset) test sends left."""
        count = len(options)
        groups = np.fromiter((g for g, _ in options), np.int64, count)
        sizes = np.fromiter((len(subset) for _, subset in options), np.int64, count)
        feats = np.fromiter((j for _, subset in options for j in subset), np.int64)
        member = np.zeros((count, self.d), dtype=bool)
        member[np.repeat(np.arange(count), sizes), feats] = True
        # each option's row, read at each sample's feature in the option's group
        return member[np.arange(count)[:, None], self.fidx[groups]]

    def _merge(self, left, right, keep: int) -> np.ndarray:
        """Parent tables: the best split of the count between the two children.

        Entries below ``keep`` are left at -inf.
        """
        top = self.floor
        out = np.full(left.shape, -np.inf)
        for t in range(top + 1):
            lo = max(t, keep)
            np.maximum(out[:, lo:], left[:, t, None] + right[:, lo - t:top + 1 - t],
                       out=out[:, lo:])
        return out

    def _gains(self, masks) -> np.ndarray:
        """``(len(masks), 4, groups, width)`` from the routed class counts per slot.

        Per feature slot: objective gain if it sends its samples left, if it
        sends them right, then the floored count it adds on each side.
        """
        shape = (len(masks), 1, 2) + self.slot_used.shape
        counts = (masks @ self.columns).reshape(shape)
        gains = counts * self.side_weights[:, :, None, None]
        return gains.reshape((len(masks), 4) + self.slot_used.shape)

    def _group_tables(self, gains) -> np.ndarray:
        """``(len(gains), groups, floor + 1)`` best leaf-adjacent test of each group.

        A knapsack over the group's features, vectorised across groups padded
        to the widest: each feature sends its samples to the left or the
        right leaf.  The state is [some feature went left, some went right],
        so a forbidden trivial test is only a rejected final state.  The
        count axis carries ``floor`` leading copies of its first entry, so
        that a shift is a window into it.
        """
        left_gain, right_gain, left_count, right_count = np.moveaxis(gains, 1, 0)
        pad = self.floor
        table = np.full((len(gains), self.n_groups, 2, 2, pad + pad + 1), -np.inf)
        table[:, :, 0, 0, : pad + 1] = 0.0
        for t in range(self.slot_used.shape[1]):
            # slot t sent left sets "went left" and keeps "went right"
            left = np.maximum(table[:, :, 0], table[:, :, 1])
            left = self._shift(left, left_count[..., t])
            left += left_gain[..., t, None, None]
            # slot t sent right sets "went right" and keeps "went left"
            right = np.maximum(table[:, :, :, 0], table[:, :, :, 1])
            right = self._shift(right, right_count[..., t])
            right += right_gain[..., t, None, None]
            step = np.empty_like(table)
            step[:, :, 0, 0] = -np.inf
            step[:, :, 1, 0, pad:] = left[:, :, 0]
            step[:, :, 0, 1, pad:] = right[:, :, 0]
            step[:, :, 1, 1, pad:] = np.maximum(left[:, :, 1], right[:, :, 1])
            step[..., :pad] = step[..., pad, None]
            table = np.where(self.slot_used[:, t, None, None, None], step, table)
        accepted = np.where(self.accept[..., None], table[..., pad:], -np.inf)
        return accepted.max(axis=(2, 3))

    def _shift(self, padded, counts) -> np.ndarray:
        """``padded[b, g, x]`` after ``counts[b, g]`` more samples are counted.

        Entry ``t`` takes entry ``max(t - count, 0)``.
        """
        if self.floor == 0:
            return padded  # nothing is counted towards a floor
        windows = sliding_window_view(padded, self.floor + 1, axis=-1)
        b, g, x = np.ogrid[: len(padded), : self.n_groups, :2]
        start = self.floor - np.minimum(counts, self.floor).astype(np.int64)
        return windows[b, g, x, start[..., None]]

    # -- recovering the winning tests ---------------------------------------------

    def _recover(self, child, mask, key: int, value, winner: int, closure, tests):
        """Put into ``tests`` the tests that earn ``value`` at ``key``.

        ``winner`` is the option (or group) that the subtree's table names
        for that entry.  Splits of the count are taken in order; within a
        group each feature goes right unless that loses ``value``.
        """
        k = child[1]
        if k in self.topo.leaf_adjacent:
            g = winner
            gains = self._gains(mask[None])
            subset = []
            for t, j in enumerate(self.schema.features_of(g)):
                right = gains.copy()
                right[0, 0, g, t] = -np.inf  # j may not go left
                if self._group_tables(right)[0, g, key] == value:
                    gains = right
                else:
                    gains[0, 1, g, t] = -np.inf
                    subset.append(j)
            tests[k] = (g, tuple(subset))
            return
        tests[k] = closure[0][self.decl_pos[k]][winner]
        go = self._go_left([tests[k]])[0]
        left_child, right_child = self.topo.children[k]
        left_mask, right_mask = mask & go, mask & ~go
        left, left_win = self._tables(left_child, left_mask[None], closure)
        right, right_win = self._tables(right_child, right_mask[None], closure)
        t = int(np.flatnonzero(left[0, : key + 1] + right[0, key::-1] == value)[0])
        u = key - t
        self._recover(left_child, left_mask, t, left[0, t], int(left_win[0, t]),
                      closure, tests)
        self._recover(right_child, right_mask, u, right[0, u], int(right_win[0, u]),
                      closure, tests)

    # -- incumbent assignment ------------------------------------------------------

    def _assignment_from_tests(self, tests) -> dict[str, float]:
        tree = DecisionTree(
            topology=self.topo,
            tests={k: (g, frozenset(s)) for k, (g, s) in tests.items()},
            n_features=self.d,
            group_sizes=self.schema.group_sizes,
        )
        leaves = tree.route_all(self.data.matrix)
        assignment: dict[str, float] = {}
        for k in self.topo.decision_nodes:
            g, subset = tests[k]
            for gg in range(self.n_groups):
                assignment[f"V_{k}_{gg}"] = 1.0 if gg == g else 0.0
            member = set(subset)
            for j in range(self.d):
                assignment[f"Z_{k}_{j}"] = 1.0 if j in member else 0.0
        for var in self.model.variables:
            if var.role != "c":
                continue
            _, i_s, b_s = var.name.split("_")
            assignment[var.name] = 1.0 if leaves[int(i_s)] == int(b_s) else 0.0
        return assignment

