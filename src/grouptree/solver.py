"""Branch-and-bound over the tree-training integer programs.

Two engines share one result contract and one best-bound loop
(``_best_first``): node order, the gap prune, the time and node limits,
progress records, incumbent updates and the reported statuses are the same
code for both.  A ``SolveResult`` carries the status, the objective, the
best bound and the work counters, and the winner in one of two forms: the
structured search returns its (group, feature subset) test per decision
node in ``tests`` and no variable values; the LP engine returns every
variable's value in ``assignment`` and ``tests`` None.  ``extract_tree``
reads ``tests`` when they are set and parses the ``V``/``Z`` names only
when they are not.  An engine supplies only its node work, a bound step
and a split step:

* a structured search used for models produced by ``build_model``: it
  branches on the integral feature-selection bits, propagates the one-group
  implications, and closes a node exactly once the remaining assignments are
  few enough.  One closure serves every mode: it enumerates the tests at
  branched nodes in batches and completes the leaf-adjacent tests exactly
  per group, in closed form without a floor and by a knapsack with one;
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
    InfeasibleError,
    InvalidConfigError,
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

    def __post_init__(self):
        # not ``< 0``: a NaN limit compares false with every elapsed time
        seconds, nodes = self.time_limit, self.node_limit
        if not (seconds >= 0 and (nodes is None or isinstance(nodes, int) and nodes >= 0)):
            raise InvalidConfigError(
                f"time_limit must be >= 0 and node_limit None or an integer >= 0, "
                f"got {seconds!r} and {nodes!r}"
            )


@dataclass
class SolveResult:
    status: str
    objective: float | None
    best_bound: float
    assignment: dict[str, float] = field(default_factory=dict)
    nodes_processed: int = 0
    lp_iterations: int = 0
    # node -> (group, features): set by the structured search, None otherwise
    tests: dict[int, tuple[int, frozenset[int]]] | None = None

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
    value += 0.0  # an optimum of 0 reads 0.0, not -0.0
    assignment = {v.name: float(x[j]) for j, v in enumerate(model.variables)}
    return value, assignment, OPTIMAL


def solve_milp(
    model: MilpModel, config: SolveConfig | None = None, method: str = "auto"
) -> SolveResult:
    """Solve the integer program to proven optimality (or best within limits).

    ``method`` picks the engine: ``auto`` uses the structured search whenever
    the model carries its build structure, and the generic LP-based branch
    and bound otherwise; ``lp`` forces the latter.
    """
    config = config or SolveConfig()
    if method not in ("auto", "lp"):
        raise ValueError(f"unknown method {method!r}")
    if model.structure is not None and method == "auto":
        return _StructuredSearch(model, config).run()
    return _LpBranchAndBound(model, config).run()


def extract_tree(
    result: SolveResult,
    topology: TreeTopology,
    schema: GroupSchema,
) -> DecisionTree:
    """Read the classifier out of a solve: its tests, or its variable values.

    A structured result's tests are taken as they are; an LP result's are
    parsed from the ``V_k_g`` and ``Z_k_j`` values, each within 1e-6 of 1.
    Either way the tree is checked against ``topology`` and ``schema``: a
    result read with a topology of other decision nodes raises
    ``MalformedTreeError``.
    """
    if result.status not in (OPTIMAL, FEASIBLE_TIME_LIMIT):
        raise InfeasibleError(f"the solve found no tree: status {result.status}")
    tests = result.tests
    if tests is None:  # an LP result: per node, the group whose V is highest
        tests, assignment = {}, result.assignment
        for k in topology.decision_nodes:
            chosen, best_val = None, -1.0
            for g in range(schema.n_groups):
                val = assignment.get(f"V_{k}_{g}", 0.0)
                if val > best_val + 1e-12:
                    best_val, chosen = val, g
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
        tests=dict(tests),
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
    * ``engine.answer(solution)`` of the winner: ``(assignment, tests)``,
      the values of the model's variables or the tests of the tree, as the
      result carries them; ``engine.sign`` to turn the maximised value back
      to the model's sense, and ``engine.iterations`` for the pivots spent.
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

    if unbounded:
        return SolveResult(UNBOUNDED, None, np.inf, {}, nodes, engine.iterations)
    if best_at is None:
        if hit_limit:
            raise TimeLimitNoIncumbentError(
                f"no feasible solution within limits ({nodes} nodes)"
            )
        return SolveResult(INFEASIBLE, None, -np.inf, {}, nodes, engine.iterations)
    bound = best
    if hit_limit:
        bound = max(best, max(-b for b, _, _ in heap))
    assignment, tests = engine.answer(best_at)
    # + 0.0: a minimum of 0 reads 0.0, not -0.0
    return SolveResult(
        FEASIBLE_TIME_LIMIT if hit_limit else OPTIMAL,
        engine.sign * best + 0.0,
        engine.sign * bound + 0.0,
        assignment,
        nodes,
        engine.iterations,
        tests,
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

    def run(self) -> SolveResult:
        return _best_first(self, {}, np.inf)

    def _node_lp(self, patch):
        """Re-optimize the shared simplex over a node's box: the root's, patched.

        The basis stays dual-feasible across bound changes, so a dual restart
        usually suffices; numerical trouble falls back to a fresh solve of the
        same box.  Returns (solver, status, iterations spent on this node).
        """
        A, senses, rhs, obj, lower, upper = self.arrays
        lower, upper = lower.copy(), upper.copy()
        for j, (lo, up) in patch.items():
            lower[j], upper[j] = lo, up
        failed = 0  # pivots of a failed re-solve
        if self._hot is not None:
            solver = self._hot
            before = solver.iterations
            try:
                status = solver.resolve_dual(lower, upper)
            except NumericalFailureError:
                failed = solver.iterations - before
            else:
                if status == simplex.UNBOUNDED:
                    self._hot = None
                return solver, status, solver.iterations - before
        solver = BoundedSimplex(A, senses, rhs, obj, lower, upper)
        status = solver.solve()
        # only a clean phase-2 end leaves re-optimizable costs behind
        self._hot = solver if status == simplex.OPTIMAL else None
        return solver, status, failed + solver.iterations

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
        children = (down, up) if prefer_up else (up, down)
        # a fractional bound on an integer variable can leave a child no range
        return -np.inf, None, [c for c in children if c[frac_j][0] <= c[frac_j][1]]

    def answer(self, x):
        """Every variable's value at the winning vertex, and no tests."""
        return {v.name: float(x[j]) for j, v in enumerate(self.model.variables)}, None


# ---------------------------------------------------------------------------
# structured search for built models
# ---------------------------------------------------------------------------


class _NodeState:
    """What one branched node allows under one propagated box row.

    ``allowed`` holds ``(group, fixed features, free features)`` per allowed
    group, ``count`` their number of tests.  The first closure that needs
    them fills ``tests`` and each test's 0/1 feature row ``member``, and
    ``_pair_tables`` each test's ``pair_member`` row; no field has a column
    per sample.
    """

    __slots__ = ("allowed", "count", "tests", "member", "pair_member")

    def __init__(self, allowed):
        self.allowed = allowed
        self.count = sum(1 << len(free) for _, _, free in allowed)
        self.tests = self.member = self.pair_member = None


class _StructuredSearch:
    """Branch over the integral feature bits of a built model.

    A search node is ``(zlo, zhi, states, changed)``: a box of
    per-(decision node, feature) 0/1 bounds on the branched
    (non-leaf-adjacent) nodes, each branched node's state (``_NodeState``:
    which groups, and which fixed and free features, it allows and, once a
    closure needs them, its tests), and the rows whose states are still to
    be derived.  Fixing a bit to 1 pins that node's group, which zeroes every
    other group's bits there; anchored nodes must keep their group's anchor
    bit set.  The root derives every row; a child carries its parent's
    states and derives again only the row it branched on (``_derive``).  The
    test count, the closure and the recovery read the states.  A node's
    bound is its parent's, capped at every sample correct (``all_correct``,
    one exact constant): the leaf-adjacent tests are never branched, so any
    box lets each sample reach a leaf of its class.  Once the number of
    remaining test assignments at the branched nodes is at most a budget,
    the node is closed exactly.

    The closure is the same in every mode; the mode is data read once from
    ``BuildConfig.objective``: what a correct positive and a correct
    negative add to the objective (integers over ``scale``), which of them
    counts towards the floor, and the floor (0 in accuracy mode).  Every
    subtree gets one table per routed sample set: the best objective with
    at least ``t`` floored-class samples correct, for ``t = 0 .. floor``.
    Leaf-adjacent tables come per group from a knapsack over the features
    (``_group_tables``), or in closed form when the floor is 0
    (``_leaf_tables``).  A branched node sends the child sample sets of all
    of its tests through its children as one batch and merges their tables
    (``_merge``).  With no floor, a branched node whose two children are
    leaf-adjacent (a depth-2 node) routes no child set: its children's
    class counts are sums of pair counts, one product per routed set
    (``_pair_tables``).  Every subtree's tables but the root's
    are served from one per-solve store of tables (``_stored``), keyed by the
    routed set and, at a branched node, by the box rows that fix its
    subtree's tests, so each distinct table is computed once per solve.  The
    root's table is computed directly: no other closure has its box.  The
    winning tests are recovered afterwards along the winning path, where each
    node's winner is computed again for its one routed set (``_recover``).
    They are the search's answer: its result carries them as ``tests``, with
    no variable values.
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
        # per feature, 1 for the samples that have it
        self.feature_samples = np.ascontiguousarray(self.data.matrix.T, dtype=np.float32)
        self.anchor = [self.schema.anchor_feature(g) for g in range(self.n_groups)]
        self.anchored = self.topo.anchor_eligible if self.bcfg.anchor else frozenset()
        self.group_of = np.array([self.schema.group_of(j) for j in range(self.d)])

        # The mode as data (``BuildConfig.objective``): a correct positive
        # sits in a right (even) leaf, a correct negative in a left (odd) one
        n_neg = int((self.labels == -1).sum())
        n_pos = self.n - n_neg
        gain_pos, gain_neg, self.scale, floored, self.floor = self.bcfg.objective(n_pos, n_neg)
        self.enum_budget = ENUM_BUDGET_CONSTRAINED if floored else ENUM_BUDGET
        # the root's bound and every node's cap: exactly what a closure
        # scores for a tree that gets every sample right
        self.all_correct = (n_pos * gain_pos + n_neg * gain_neg) / self.scale
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
        # float32 class counts are exact below 2**24 samples
        count_type = np.float32 if self.n < 1 << 24 else float
        self.columns = np.hstack([slot_cols * ~pos, slot_cols * pos]).astype(count_type)
        # routed [negatives, positives] per slot -> left/right gain, left/right
        # count of the floored class
        self.side_weights = np.array(
            [[gain_neg, gain_pos], [floored == -1, floored == 1]], dtype=float
        )
        self.leaf_rows = max(
            1, CHUNK_CELLS // max(self.n, 8 * self.n_groups * (self.floor + 1))
        )
        # with no floor, a branched node whose children are both leaf-adjacent
        # takes its tables from pair counts (``_pair_tables``): those of each
        # feature but the groups' anchors, then of the whole mask
        self.pair_nodes = frozenset() if self.floor else frozenset(
            k for k in self.decl
            if {c for _, c in self.topo.children[k]} <= self.topo.leaf_adjacent
        )
        self.pair_features = np.delete(np.arange(self.d), self.anchor)
        self.pair_samples = np.vstack(
            [self.feature_samples[self.pair_features], np.ones((1, self.n), np.float32)]
        ) if self.pair_nodes else None
        # per branched node below the root, the positions of the branched
        # nodes in its subtree: their box rows fix the subtree's tests
        self.subtree_rows = {k: self._subtree_rows(k) for k in self.decl if k != self.topo.root}
        # subtree tables of the masks routed so far: signature + packed mask -> row
        self.store_index: dict[bytes, int] = {}
        self.store_best = np.empty((0, self.floor + 1))
        row_cells = self.floor + 1 + (self.n + 7) // 8
        self.store_capacity = max(1, _TABLE_STORE_CELLS // row_cells)

    # -- node work for the shared loop ----------------------------------------

    def run(self) -> SolveResult:
        zlo = np.zeros((self.n_decl, self.d), dtype=np.int8)
        root = (zlo, np.ones_like(zlo), [None] * self.n_decl, range(self.n_decl))
        return _best_first(self, root, self.all_correct)

    def bound(self, node, parent_bound):
        """Derive the node's changed rows in place; None if some node allows no test.

        The other branched nodes keep the states that came with the node.
        The bound is the parent's, capped at every sample correct, and the
        states are the work handed on to ``split``.
        """
        zlo, zhi, states, changed = node
        states = list(states)
        for p in changed:
            states[p] = self._derive(p, zlo[p], zhi[p])
            if states[p] is None:
                return None
        return min(parent_bound, self.all_correct), None, states

    def split(self, node, states):
        """Close the box exactly if it holds few enough tests, else branch a bit.

        Both children carry ``states``: they differ from it in the branched
        row only.
        """
        zlo, zhi = node[:2]
        count = prod(state.count for state in states)
        bit = self._branch_bit(zlo, zhi) if count > self.enum_budget else None
        if bit is None:
            # each branched node's state with its tests, and the signatures
            # that key their stored tables
            closure = [self._tested(state) for state in states], self._signatures(zlo, zhi)
            everyone = np.ones((1, self.n), dtype=bool)
            # the best scaled objective meeting the floor (-inf if none)
            value = float(self._computed(self.topo.root, everyone, closure)[0][0, self.floor])
            return value / self.scale, closure, ()
        p_star, j_star = bit
        child_hi = zhi.copy()
        child_hi[p_star, j_star] = 0
        child_lo = zlo.copy()
        child_lo[p_star, j_star] = 1  # pushed last: plunges first on ties
        changed = (p_star,)
        return -np.inf, None, (
            (zlo.copy(), child_hi, states, changed),
            (child_lo, zhi.copy(), states, changed),
        )

    def answer(self, solution):
        """No variable values, and the winning closure's tests, recovered."""
        tests: dict = {}
        everyone = np.ones(self.n, dtype=bool)
        self._recover(("node", self.topo.root), everyone, self.floor, solution, tests)
        return {}, tests

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

    def _derive(self, p, lo, hi):
        """Propagate node ``p``'s row in place; its state, None if it allows no test.

        A set bit pins the node's group and clears the other groups' bits; at
        an anchored node the pinned group's anchor bit is set, and only
        groups whose anchor bit may be set are allowed, each with its anchor
        among the fixed features.
        """
        pinned = set(self.group_of[lo == 1].tolist())
        if len(pinned) > 1:
            return None
        for g in pinned:
            hi[self.group_of != g] = 0
        anchored = self.decl[p] in self.anchored
        allowed = []
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
            allowed.append((g, feats[fixed].tolist(), feats[free].tolist()))
        if not allowed:
            return None
        return _NodeState(allowed)

    def _tested(self, state):
        """``state`` with its tests filled in once, in a fixed order.

        Per allowed group, the fixed features with each subset of the free
        ones.  A subset names its group, but for the all-right test, which
        comes once; forbidden trivial tests are left out.
        """
        if state.tests is None:
            forbid = self.bcfg.forbid_trivial_branch
            tests = {}  # subset -> group
            for g, fixed, free in state.allowed:
                for bits in range(1 << len(free)):
                    subset = tuple(sorted(fixed + [j for t, j in enumerate(free) if bits >> t & 1]))
                    if not forbid or 0 < len(subset) < len(self.group_feats[g]):
                        tests.setdefault(subset, g)
            state.tests = [(g, subset) for subset, g in tests.items()]
            state.member = np.zeros((len(tests), self.d), dtype=np.float32)
            rows = np.repeat(np.arange(len(tests)), list(map(len, tests)))
            state.member[rows, [j for subset in tests for j in subset]] = 1
        return state

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
        """Per branched node below the root: its id and its subtree's box rows.

        Those rows fix the tests of every branched node in the subtree
        (``_derive`` reads a node's own row only, and propagating it again
        changes nothing), so two closures whose signatures agree at a node
        have the same table there for each routed mask.
        """
        return {
            k: k.to_bytes(4, "little") + np.packbits([zlo[rows], zhi[rows]]).tobytes()
            for k, rows in self.subtree_rows.items()
        }

    # -- closure: one exact table kernel for every mode ---------------------
    #
    # A table holds, for ``t = 0 .. floor``, the best scaled objective of a
    # subtree with at least ``t`` floored-class samples correct.

    def _stored(self, k, masks, closure):
        """Node ``k``'s tables, one per routed mask, each computed once per solve.

        ``k`` is any node but a branched root, whose table ``split`` computes
        directly.  ``closure`` holds each branched node's state and
        signature.  A table depends only on the routed mask, on what fixes
        the tests in the subtree, and on the mode and the floor, which are
        fixed for the solve.  A leaf-adjacent node's test is never branched
        and its children are leaves, so its signature is empty and its table
        is shared by every leaf-adjacent node; a branched node's signature is
        its closure's (``_signatures``).  A row does not depend on the other
        masks of its batch, so one store serves every closure of a solve and
        the recovery.  It grows geometrically up to ``store_capacity`` rows;
        a batch that overfills it starts it afresh.
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
            old_best = self.store_best[at]
            fresh = np.fromiter(map(first.__getitem__, new), np.int64, len(new))
            best = self._computed(k, masks[fresh], closure)[0]
            if len(index) + len(new) > self.store_capacity or not all(
                map(index.__contains__, old)
            ):
                index.clear()  # full, or cleared meanwhile: this batch starts it afresh
                new = old + new
                best = np.concatenate([old_best, best])
            start = len(index)
            index.update(zip(new, range(start, start + len(new))))
            if len(index) > len(self.store_best):
                size = max(len(index), min(2 * len(self.store_best), self.store_capacity))
                grown = np.empty((size, self.floor + 1))
                grown[:start] = self.store_best[:start]
                self.store_best = grown
            self.store_best[start:len(index)] = best
        rows = np.fromiter(map(index.__getitem__, keys), np.int64, len(keys))
        return self.store_best[rows]

    def _computed(self, k, masks, closure):
        """Node ``k``'s tables computed here; its children's come from ``_stored``.

        Also returns, per entry, the first test (or group, at a
        leaf-adjacent node) that reaches it.  A leaf-adjacent node runs the
        leaf kernel in ``leaf_rows`` chunks.  A depth-2 node with no floor
        (``pair_nodes``) computes its children's tables too, from pair counts.
        Any other branched node sends the child masks of a chunk of its tests
        through each child as one batch; the root keeps only the entry that
        meets the floor.
        """
        best = np.full((len(masks), self.floor + 1), -np.inf)
        winners = np.zeros(best.shape, dtype=np.int64)
        if k in self.topo.leaf_adjacent:
            if not self.n_groups:
                return best, winners  # with no group there is no test at all
            for r in range(0, len(masks), self.leaf_rows):
                at = slice(r, r + self.leaf_rows)
                tables = self._leaf_tables(self._gains(masks[at]))
                best[at] = tables.max(axis=1)
                winners[at] = tables.argmax(axis=1)
            return best, winners
        state = closure[0][self.decl_pos[k]]
        if k in self.pair_nodes:
            return self._pair_tables(state, masks)
        keep = self.floor if k == self.topo.root else 0
        left_child, right_child = self.topo.children[k]
        step = max(1, CHUNK_ROWS // len(masks))
        for lo in range(0, len(state.tests), step):
            go = self._go_left(state, slice(lo, lo + step))
            left = (masks[:, None] & go).reshape(-1, self.n)
            right = (masks[:, None] & ~go).reshape(-1, self.n)
            merged = self._merge(
                self._stored(left_child[1], left, closure),
                self._stored(right_child[1], right, closure),
                keep,
            ).reshape(len(masks), len(go), -1)
            chunk_best = merged.max(axis=1)
            better = chunk_best > best
            best[better] = chunk_best[better]
            winners[better] = merged.argmax(axis=1)[better] + lo
        return best, winners

    def _pair_tables(self, state, masks):
        """A depth-2 node's tables and winners from pair counts, with no floor.

        One product per chunk of masks gives, per mask, the class counts of
        every (pair row, feature slot) pair.  Every sample has exactly one
        feature per group (``EncodedDataset`` checks it), so a test's left
        child counts are a sum of pair rows (``_pair_member``) and its right
        child's are the mask's less those.  Both children get the closed
        form of ``_leaf_tables``; the node's table is their sum, best over
        the tests in order.  The counts are integers, so tables and winners
        are those of routing each child mask, bit for bit.
        """
        best = np.full((len(masks), 1), -np.inf)
        winners = np.zeros(best.shape, dtype=np.int64)
        member = self._pair_member(state)
        # class counts -> left and right gains, slot axes first
        sides = (2,) + self.slot_used.shape + (-1,)
        weights = self.side_weights[0, :, None, None, None]
        # chunks of masks whose product with the pair rows fits CHUNK_CELLS
        rows = max(1, CHUNK_CELLS // self.pair_samples.size)
        for r in range(0, len(masks), rows):
            at = slice(r, r + rows)
            chunk = masks[at]
            routed = (chunk[:, None] * self.pair_samples).reshape(-1, self.n)
            # (class, slot x mask, pair row)
            pairs = (self.columns.T @ routed.T).reshape(2, -1, len(self.pair_samples))
            totals = pairs[..., -1].reshape(2, -1, len(chunk))
            step = max(1, CHUNK_CELLS // (2 * self.slot_used.size * len(chunk)))
            for lo in range(0, len(member), step):
                left = pairs @ member[lo:lo + step].T
                right = totals[..., None] - left.reshape(totals.shape + (-1,))
                left_best, right_best = (
                    self._closed_form(*(counts.reshape(sides) * weights)).max(axis=0)
                    for counts in (left, right)
                )
                merged = (left_best + right_best).reshape(len(chunk), -1)
                chunk_best = merged.max(axis=1)
                better = chunk_best > best[at, 0]
                best[at, 0][better] = chunk_best[better]
                winners[at, 0][better] = merged.argmax(axis=1)[better] + lo
        return best, winners

    def _pair_member(self, state):
        """Per test of ``state``, the weights of the pair rows that it sends left.

        A test that holds its group's anchor sends left the whole mask less
        the group's other features; any other test, its own features.
        """
        if state.pair_member is None:
            groups = np.array([g for g, _ in state.tests], dtype=np.int64)
            member = state.member[:, self.pair_features]
            held = state.member[np.arange(len(groups)), np.array(self.anchor)[groups]][:, None]
            others = self.group_of[self.pair_features] == groups[:, None]
            state.pair_member = np.hstack([np.where(held == 1, member - others, member), held])
        return state.pair_member

    def _go_left(self, state, at) -> np.ndarray:
        """Per test of ``state.tests[at]``, the samples it sends left.

        A test's membership row holds features of its own group only, so its
        product with ``feature_samples`` is 1 exactly where a sample's feature
        in that group is in the subset, and 0 elsewhere.
        """
        return state.member[at] @ self.feature_samples > 0

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
        counts = (masks.astype(self.columns.dtype) @ self.columns).reshape(shape)
        gains = counts * self.side_weights[:, :, None, None]
        return gains.reshape((len(masks), 4) + self.slot_used.shape)

    def _leaf_tables(self, gains) -> np.ndarray:
        """``_group_tables(gains)``, in closed form when the floor is 0.

        With no floor each feature sends its samples to the better leaf, so a
        group's table is the sum over its slots of ``max(left, right)``.  A
        forbidden trivial test then costs the cheapest move of one feature to
        the side that none chose, and a group of one feature has no other
        test.  Accuracy gains are integers, so every sum is exact and the
        tables equal the knapsack's bit for bit.
        """
        if self.floor:
            return self._group_tables(gains)
        return self._closed_form(*gains[:, :2].transpose(1, 2, 3, 0)).T[..., None]

    def _closed_form(self, left, right) -> np.ndarray:
        """``(groups, ...)`` accuracy tables from ``(groups, width, ...)`` gains.

        The slot axes come first, so that each step runs over the rest.
        """
        best = np.maximum(left, right).sum(axis=1)
        if self.bcfg.forbid_trivial_branch:
            # padding slots hold no feature to move
            used = self.slot_used[..., None]
            to_right = np.where(used, left - right, np.inf).min(axis=1)
            to_left = np.where(used, right - left, np.inf).min(axis=1)
            best -= np.maximum(to_right, 0.0) + np.maximum(to_left, 0.0)
            best[self.slot_used.sum(axis=1) < 2] = -np.inf
        return best

    def _group_tables(self, gains) -> np.ndarray:
        """``(len(gains), groups, floor + 1)`` best leaf-adjacent test of each group.

        A knapsack over the group's features, vectorised across groups padded
        to the widest: each feature sends its samples to the left or the
        right leaf.  The state is [some feature went left, some went right],
        so a forbidden trivial test is only a rejected final state.  The
        count axis carries ``floor`` leading copies of its first entry, so
        that a shift is a window into it.  It serves every floor above 0, and
        is the reference that tests hold the closed form to.
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
        windows = sliding_window_view(padded, self.floor + 1, axis=-1)
        b, g, x = np.ogrid[: len(padded), : self.n_groups, :2]
        start = self.floor - np.minimum(counts, self.floor).astype(np.int64)
        return windows[b, g, x, start[..., None]]

    # -- recovering the winning tests ---------------------------------------------

    def _recover(self, child, mask, key: int, closure, tests):
        """Put into ``tests`` the tests that earn entry ``key`` of the subtree's table.

        Each node's test (its group, at a leaf-adjacent node) is the first to
        reach the entry, computed again for this one mask.  An entry above 0
        is split between the children in the first way that reaches it, read
        from their stored tables; entry 0 has only one split.  Within a group
        each feature goes right unless that loses the entry.
        """
        k = child[1]
        best, winners = self._computed(k, mask[None], closure)
        value, winner = best[0, key], int(winners[0, key])
        if k in self.topo.leaf_adjacent:
            g = winner
            gains = self._gains(mask[None])
            subset = []
            for t, j in enumerate(self.schema.features_of(g)):
                right = gains.copy()
                right[0, 0, g, t] = -np.inf  # j may not go left
                if self._leaf_tables(right)[0, g, key] == value:
                    gains = right
                else:
                    gains[0, 1, g, t] = -np.inf
                    subset.append(j)
            tests[k] = (g, frozenset(subset))
            return
        state = closure[0][self.decl_pos[k]]
        g, subset = state.tests[winner]
        tests[k] = (g, frozenset(subset))
        go = self._go_left(state, [winner])[0]
        left_child, right_child = self.topo.children[k]
        left_mask, right_mask = mask & go, mask & ~go
        t = 0
        if key:
            left = self._stored(left_child[1], left_mask[None], closure)
            right = self._stored(right_child[1], right_mask[None], closure)
            t = int(np.flatnonzero(left[0, : key + 1] + right[0, key::-1] == value)[0])
        self._recover(left_child, left_mask, t, closure, tests)
        self._recover(right_child, right_mask, key - t, closure, tests)
