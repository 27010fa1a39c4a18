"""The trained classifier: per-node feature subsets, routing, and metrics."""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .encoding import EncodedDataset, GroupSchema
from .errors import DimensionMismatchError, MalformedTopologyError, MalformedTreeError
from .topology import TreeTopology, parse_shape

PRED_POSITIVE = 1
PRED_NEGATIVE = -1
_JSON_KEYS = ("shape", "n_features", "group_sizes", "tests")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_node_key(key: str) -> bool:
    """Whether ``key`` is a node number as ``to_json`` writes it: ASCII
    digits with no leading zero (nodes count from 1), so that no two keys
    name one node."""
    return key.isascii() and key.isdecimal() and key[0] != "0"


@dataclass(frozen=True)
class DecisionTree:
    """A fixed-shape tree with a (group, feature subset) test at each node.

    A sample branches left at node ``k`` exactly when its active feature is in
    ``tests[k]``'s subset.  Empty and full subsets are legal; they route every
    sample the same way.  Leaf labels are fixed by leaf parity (even -> +1).
    Group ``g`` owns the contiguous features after the first ``g`` groups; a
    test's features must lie in its group, and every decision node, and no
    other, has a test.  A tree that breaks this raises ``MalformedTreeError``.
    """

    topology: TreeTopology
    tests: dict[int, tuple[int, frozenset[int]]]  # node -> (group, features)
    n_features: int
    group_sizes: tuple[int, ...]

    def __post_init__(self):
        if self.n_features != sum(self.group_sizes):
            raise MalformedTreeError(
                f"{self.n_features} features, but the group sizes "
                f"{list(self.group_sizes)} add up to {sum(self.group_sizes)}"
            )
        for k in self.topology.decision_nodes:
            if k not in self.tests:
                raise MalformedTreeError(f"no test for decision node {k}")
        starts = (0, *accumulate(self.group_sizes))
        for k, (g, subset) in self.tests.items():
            if k not in self.topology.children:
                raise MalformedTreeError(f"test for node {k}, which is not a decision node")
            if not 0 <= g < len(self.group_sizes):
                raise MalformedTreeError(
                    f"node {k} tests group {g}; the tree has {len(self.group_sizes)} groups"
                )
            if any(not starts[g] <= j < starts[g + 1] for j in subset):
                raise MalformedTreeError(
                    f"node {k} tests features {sorted(subset)}, not all in group {g} "
                    f"(features {starts[g]}..{starts[g + 1] - 1})"
                )

    def route(self, sample: np.ndarray) -> int:
        """Leaf id reached by one encoded sample."""
        if sample.shape[-1] != self.n_features:
            raise DimensionMismatchError(
                f"sample has {sample.shape[-1]} features, tree expects {self.n_features}"
            )
        kind, k = "node", self.topology.root
        while kind == "node":
            _, subset = self.tests[k]
            go_left = bool(sum(int(sample[j]) for j in subset) == 1)
            kind, k = self.topology.children[k][0 if go_left else 1]
        return k

    def route_all(self, matrix: np.ndarray) -> np.ndarray:
        """Leaf ids for every row of an encoded matrix."""
        if matrix.shape[1] != self.n_features:
            raise DimensionMismatchError(
                f"matrix has {matrix.shape[1]} features, tree expects {self.n_features}"
            )
        n = matrix.shape[0]
        leaves = np.zeros(n, dtype=np.int64)
        stack = [(("node", self.topology.root), np.arange(n))]
        while stack:
            (kind, k), idx = stack.pop()
            if len(idx) == 0:
                continue
            if kind == "leaf":
                leaves[idx] = k
                continue
            _, subset = self.tests[k]
            if subset:
                go_left = matrix[np.ix_(idx, sorted(subset))].sum(axis=1) == 1
            else:
                go_left = np.zeros(len(idx), dtype=bool)
            left, right = self.topology.children[k]
            stack.append((left, idx[go_left]))
            stack.append((right, idx[~go_left]))
        return leaves

    def predict(self, matrix: np.ndarray) -> np.ndarray:
        leaves = self.route_all(matrix)
        return np.where(leaves % 2 == 0, PRED_POSITIVE, PRED_NEGATIVE).astype(np.int8)

    def to_json(self) -> str:
        payload = {
            "shape": self.topology.shape_text(),
            "topology_name": self.topology.name,
            "n_features": self.n_features,
            "group_sizes": list(self.group_sizes),
            "tests": {
                str(k): {"group": g, "features": sorted(subset)}
                for k, (g, subset) in sorted(self.tests.items())
            },
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "DecisionTree":
        """Read a tree written by ``to_json``; bad input raises ``MalformedTreeError``."""
        try:
            payload = json.loads(text)
        except (ValueError, RecursionError) as exc:
            raise MalformedTreeError(f"tree is not JSON: {exc}") from None
        if not isinstance(payload, dict) or any(key not in payload for key in _JSON_KEYS):
            raise MalformedTreeError(f"a tree is a JSON object with keys {list(_JSON_KEYS)}")
        shape, name = payload["shape"], payload.get("topology_name", "custom")
        sizes, tests = payload["group_sizes"], payload["tests"]
        if not (
            isinstance(shape, str)
            and isinstance(name, str)
            and _is_int(payload["n_features"])
            and isinstance(sizes, list)
            and all(_is_int(size) and size > 0 for size in sizes)
            and isinstance(tests, dict)
            and all(
                _is_node_key(k)
                and isinstance(entry, dict)
                and _is_int(entry.get("group"))
                and isinstance(entry.get("features"), list)
                and all(_is_int(j) for j in entry["features"])
                for k, entry in tests.items()
            )
        ):
            raise MalformedTreeError(
                "a tree needs a shape text, integer n_features, positive integer "
                "group_sizes, and tests of the form {node: {group, features}}"
            )
        try:
            topo = parse_shape(shape, name=name)
        except MalformedTopologyError as exc:
            raise MalformedTreeError(f"bad tree shape: {exc}") from None
        return DecisionTree(
            topology=topo,
            tests={
                int(k): (entry["group"], frozenset(entry["features"]))
                for k, entry in tests.items()
            },
            n_features=payload["n_features"],
            group_sizes=tuple(sizes),
        )

    def render(self, schema: GroupSchema | None = None) -> str:
        """Human-readable nested rendering with category names when available."""
        lines: list[str] = []

        def describe(k: int) -> str:
            g, subset = self.tests[k]
            if schema is not None:
                cats = [
                    cat
                    for f, _, cat in schema.groups[g]
                    if f in subset
                ]
                return f"{schema.group_name(g)} in {{{', '.join(cats)}}}?"
            return f"group {g} in {{{', '.join(str(j) for j in sorted(subset))}}}?"

        def walk(child, indent: str, tag: str) -> None:
            kind, k = child
            if kind == "leaf":
                label = "+1" if k % 2 == 0 else "-1"
                lines.append(f"{indent}{tag}leaf {k}: predict {label}")
                return
            lines.append(f"{indent}{tag}[{describe(k)}]")
            left, right = self.topology.children[k]
            walk(left, indent + "  ", "yes-> ")
            walk(right, indent + "  ", "no--> ")

        walk(("node", self.topology.root), "", "")
        return "\n".join(lines)


@dataclass(frozen=True)
class Metrics:
    true_positive: int
    false_positive: int
    true_negative: int
    false_negative: int

    @property
    def n(self) -> int:
        return (
            self.true_positive
            + self.false_positive
            + self.true_negative
            + self.false_negative
        )

    @property
    def accuracy(self) -> float:
        return (self.true_positive + self.true_negative) / self.n if self.n else 0.0

    @property
    def sensitivity(self) -> float:
        """True positive rate."""
        denom = self.true_positive + self.false_negative
        return self.true_positive / denom if denom else 0.0

    @property
    def specificity(self) -> float:
        """True negative rate."""
        denom = self.true_negative + self.false_positive
        return self.true_negative / denom if denom else 0.0

    def as_dict(self) -> dict:
        return {
            "tp": self.true_positive,
            "fp": self.false_positive,
            "tn": self.true_negative,
            "fn": self.false_negative,
            "accuracy": self.accuracy,
            "sensitivity": self.sensitivity,
            "specificity": self.specificity,
        }


def evaluate(tree: DecisionTree, data: EncodedDataset) -> Metrics:
    """Confusion counts of ``tree`` over every sample in ``data``."""
    if data.n_features != tree.n_features:
        raise DimensionMismatchError(
            f"dataset has {data.n_features} features, tree expects {tree.n_features}"
        )
    if data.schema.group_sizes != tree.group_sizes:
        raise DimensionMismatchError(
            f"dataset groups {data.schema.group_sizes} do not match the "
            f"tree's {tree.group_sizes}"
        )
    preds = tree.predict(data.matrix)
    actual = data.labels
    tp = int(np.sum((preds == 1) & (actual == 1)))
    fp = int(np.sum((preds == 1) & (actual == -1)))
    tn = int(np.sum((preds == -1) & (actual == -1)))
    fn = int(np.sum((preds == -1) & (actual == 1)))
    return Metrics(tp, fp, tn, fn)
