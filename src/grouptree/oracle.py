"""Brute-force optimum over every (group, subset) assignment of a fixed shape.

This is the trusted reference for small instances: it enumerates every
allowed test at each decision node, re-routing the sample multiset by bitset
intersection at each step, and keeps the first assignment attaining the maximum.  No
memoization, no pruning beyond the up-front work budget.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, prod

from .encoding import EncodedDataset, GroupSchema
from .errors import BudgetExceededError, InfeasibleError, InvalidConfigError
from .topology import TreeTopology
from .tree import DecisionTree

DEFAULT_BUDGET = 100_000_000


def node_option_count(schema: GroupSchema, anchored: bool = False) -> int:
    """Number of (group, subset) tests at one node; anchored halves each group."""
    if anchored:
        return sum(2 ** (size - 1) for size in schema.group_sizes)
    return sum(2**size for size in schema.group_sizes)


def symmetry_reduced_count(topology: TreeTopology, schema: GroupSchema) -> int:
    """Enumeration size once anchor features are pinned at eligible nodes."""
    return prod(
        node_option_count(schema, anchored=(k in topology.anchor_eligible))
        for k in topology.decision_nodes
    )


def enumerate_optimal(
    data: EncodedDataset,
    topology: TreeTopology,
    class_weight: int | Fraction = 1,
    min_specificity: Fraction | None = None,
    min_sensitivity: Fraction | None = None,
    forbid_trivial: bool = False,
    budget: int = DEFAULT_BUDGET,
):
    """Exact optimum of the training objective over all trees of one shape.

    Returns ``(objective, DecisionTree)``.  Without a floor the objective is
    correct-positives + class_weight * correct-negatives.  A floor, which
    refuses a weight, makes it the count of correct positives (negatives)
    with at least ``min_specificity`` of the negatives (``min_sensitivity``
    of the positives) correct.  With ``forbid_trivial`` no subset is empty
    or a whole group.  Raises ``InfeasibleError`` if no tree is allowed.
    """
    total = prod(node_option_count(data.schema) for _ in topology.decision_nodes)
    if total > budget:
        raise BudgetExceededError(
            f"enumeration needs {total} branch evaluations, budget is {budget}"
        )

    schema = data.schema
    n = data.n_samples
    all_mask = (1 << n) - 1
    feature_mask = []
    for j in range(schema.n_features):
        mask = 0
        col = data.matrix[:, j]
        for i in range(n):
            if col[i]:
                mask |= 1 << i
        feature_mask.append(mask)
    pos_mask = 0
    for i in range(n):
        if data.labels[i] == 1:
            pos_mask |= 1 << i
    neg_mask = all_mask & ~pos_mask

    weight = Fraction(class_weight)
    if weight <= 0:
        raise InvalidConfigError("class weight must be positive")
    if weight.denominator == 1:
        weight = int(weight)
    if min_specificity is not None and min_sensitivity is not None:
        raise InvalidConfigError("min_specificity and min_sensitivity are exclusive")
    # per group, the bits of the feature subsets a test may take
    bit_ranges = [
        range(1, (1 << size) - 1) if forbid_trivial else range(1 << size)
        for size in schema.group_sizes
    ]
    if not any(bit_ranges):
        raise InfeasibleError("no test is allowed: no group has two categories")

    if min_specificity is None and min_sensitivity is None:
        value, tests = _search_accuracy(
            topology, schema, bit_ranges, feature_mask, pos_mask, neg_mask, weight
        )
        tree = _as_tree(topology, schema, tests)
        return value, tree

    if weight != 1:
        raise InvalidConfigError("class weight applies only without a floor")
    # the floored modes: the rate, the floored class, its noun
    if min_specificity is not None:
        rate, floored_mask, noun = min_specificity, neg_mask, "negatives"
    else:
        rate, floored_mask, noun = min_sensitivity, pos_mask, "positives"
    floor = ceil(Fraction(rate) * floored_mask.bit_count())
    table = _search_pareto(
        topology, schema, bit_ranges, feature_mask, pos_mask, neg_mask,
        key_is_tn=min_specificity is not None,
    )
    best = None
    for key in sorted(table):
        if key < floor:
            continue
        value, tests = table[key]
        if best is None or value > best[0]:
            best = (value, tests)
    if best is None:
        raise InfeasibleError(f"no tree reaches {floor} correct {noun}")
    return best[0], _as_tree(topology, schema, best[1])


def _subsets(schema: GroupSchema, bit_ranges, routed: int, feature_mask: list[int]):
    """Yield (group, feature frozenset, left bitset) in deterministic order."""
    for g in range(schema.n_groups):
        feats = schema.features_of(g)
        masks = [feature_mask[j] & routed for j in feats]
        for bits in bit_ranges[g]:
            left = 0
            chosen = []
            rest = bits
            t = 0
            while rest:
                if rest & 1:
                    left |= masks[t]
                    chosen.append(feats[t])
                rest >>= 1
                t += 1
            yield g, frozenset(chosen), left


def _search_accuracy(topology, schema, bit_ranges, feature_mask, pos_mask, neg_mask, weight):
    def leaf_value(leaf: int, routed: int):
        if leaf % 2 == 0:
            return (routed & pos_mask).bit_count()
        return weight * (routed & neg_mask).bit_count()

    def search(child, routed: int):
        kind, k = child
        if kind == "leaf":
            return leaf_value(k, routed), {}
        left_child, right_child = topology.children[k]
        best_value = None
        best_tests = None
        for g, subset, left in _subsets(schema, bit_ranges, routed, feature_mask):
            lv, lt = search(left_child, left)
            rv, rt = search(right_child, routed & ~left)
            value = lv + rv
            if best_value is None or value > best_value:
                best_value = value
                best_tests = {k: (g, subset), **lt, **rt}
        return best_value, best_tests

    return search(("node", topology.root), (pos_mask | neg_mask))


def _search_pareto(topology, schema, bit_ranges, feature_mask, pos_mask, neg_mask, key_is_tn):
    """Map from constrained-count to (best objective-count, tests)."""

    def leaf_table(leaf: int, routed: int):
        if leaf % 2 == 0:
            tp, tn = (routed & pos_mask).bit_count(), 0
        else:
            tp, tn = 0, (routed & neg_mask).bit_count()
        key, val = (tn, tp) if key_is_tn else (tp, tn)
        return {key: (val, {})}

    def merge(into, key, val, tests):
        cur = into.get(key)
        if cur is None or val > cur[0]:
            into[key] = (val, tests)

    def search(child, routed: int):
        kind, k = child
        if kind == "leaf":
            return leaf_table(k, routed)
        left_child, right_child = topology.children[k]
        table: dict[int, tuple[int, dict]] = {}
        for g, subset, left in _subsets(schema, bit_ranges, routed, feature_mask):
            lt = search(left_child, left)
            rt = search(right_child, routed & ~left)
            for lk, (lval, ltests) in lt.items():
                for rk, (rval, rtests) in rt.items():
                    merge(
                        table,
                        lk + rk,
                        lval + rval,
                        {k: (g, subset), **ltests, **rtests},
                    )
        return table

    return search(("node", topology.root), (pos_mask | neg_mask))


def _as_tree(topology, schema, tests) -> DecisionTree:
    return DecisionTree(
        topology=topology,
        tests=dict(sorted(tests.items())),
        n_features=schema.n_features,
        group_sizes=schema.group_sizes,
    )
