"""Fixed tree shapes: node layout, root-to-leaf paths, leaf parity.

A shape is a strict binary tree in which every decision node has either two
decision-node children or two leaf children.  Decision nodes are numbered in
depth-first preorder starting at 1; leaves are numbered left to right starting
at 1.  Even-numbered leaves predict the positive class, odd-numbered leaves
the negative class.

The text form uses ``#`` for a leaf and ``(left right)`` for a decision node,
e.g. ``((# #) (# #))`` is the 4-leaf depth-2 shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import MalformedTopologyError, UnknownTopologyError

PRESET_SHAPES = {
    "depth2": "((# #) (# #))",
    "depth2_5": "(((# #) (# #)) (# #))",
    "depth3": "(((# #) (# #)) ((# #) (# #)))",
    "imbalanced": "((((# #) (# #)) (# #)) (# #))",
}

# Deepest nesting of parentheses parse_shape accepts.  Parsing, numbering and
# path-building recurse once per level, so far deeper text would exhaust the
# interpreter stack; a tree this deep is far past anything trainable anyway.
_MAX_DEPTH = 100

# Child slots hold ("node", id) or ("leaf", id).
Child = tuple[str, int]


@dataclass(frozen=True)
class TreeTopology:
    name: str
    children: dict[int, tuple[Child, Child]]
    root: int = 1
    left_path: dict[int, frozenset[int]] = field(default_factory=dict)
    right_path: dict[int, frozenset[int]] = field(default_factory=dict)
    leaf_adjacent: frozenset[int] = frozenset()
    anchor_eligible: frozenset[int] = frozenset()

    @property
    def n_decision_nodes(self) -> int:
        return len(self.children)

    @property
    def decision_nodes(self) -> range:
        return range(1, len(self.children) + 1)

    @property
    def n_leaves(self) -> int:
        return len(self.children) + 1

    @property
    def leaves(self) -> range:
        return range(1, self.n_leaves + 1)

    @property
    def positive_leaves(self) -> tuple[int, ...]:
        return tuple(b for b in self.leaves if b % 2 == 0)

    @property
    def negative_leaves(self) -> tuple[int, ...]:
        return tuple(b for b in self.leaves if b % 2 == 1)

    def leaf_depth(self, leaf: int) -> int:
        return len(self.left_path[leaf]) + len(self.right_path[leaf])

    def shape_text(self) -> str:
        return self.subtree_shape(("node", self.root))

    def subtree_shape(self, child: Child) -> str:
        kind, k = child
        if kind == "leaf":
            return "#"
        left, right = self.children[k]
        return f"({self.subtree_shape(left)} {self.subtree_shape(right)})"


def parse_shape(text: str, name: str = "custom") -> TreeTopology:
    """Build a topology from the parenthesis text form."""
    tokens = _tokenize(text)
    pos = 0

    def parse_node():
        nonlocal pos
        if pos >= len(tokens):
            raise MalformedTopologyError("unexpected end of shape text")
        tok = tokens[pos]
        pos += 1
        if tok == "#":
            return "#"
        if tok != "(":
            raise MalformedTopologyError(f"unexpected token {tok!r}")
        left = parse_node()
        right = parse_node()
        if pos >= len(tokens) or tokens[pos] != ")":
            raise MalformedTopologyError("missing ')'")
        pos += 1
        return [left, right]

    tree = parse_node()
    if pos != len(tokens):
        raise MalformedTopologyError("trailing tokens after shape")
    if tree == "#":
        raise MalformedTopologyError("shape must contain at least one decision node")

    children: dict[int, tuple[Child, Child]] = {}
    next_node = [0]
    next_leaf = [0]

    def number(node) -> Child:
        if node == "#":
            next_leaf[0] += 1
            return ("leaf", next_leaf[0])
        left_raw, right_raw = node
        if (left_raw == "#") != (right_raw == "#"):
            raise MalformedTopologyError(
                "a decision node must have two leaves or two decision children"
            )
        next_node[0] += 1
        k = next_node[0]
        children[k] = (None, None)  # reserve preorder slot
        left = number(left_raw)
        right = number(right_raw)
        children[k] = (left, right)
        return ("node", k)

    number(tree)
    topo = TreeTopology(name=name, children=children)
    left_path, right_path = compute_paths(topo)
    leaf_adj = frozenset(
        k for k, (l, r) in children.items() if l[0] == "leaf" and r[0] == "leaf"
    )
    eligible = frozenset(anchor_eligible_nodes(topo))
    return TreeTopology(
        name=name,
        children=children,
        left_path={b: frozenset(s) for b, s in left_path.items()},
        right_path={b: frozenset(s) for b, s in right_path.items()},
        leaf_adjacent=leaf_adj,
        anchor_eligible=eligible,
    )


def preset(name: str) -> TreeTopology:
    """One of the four built-in shapes: depth2, depth2_5, depth3, imbalanced."""
    try:
        shape = PRESET_SHAPES[name]
    except KeyError:
        raise UnknownTopologyError(
            f"unknown topology {name!r}; presets are {sorted(PRESET_SHAPES)}"
        ) from None
    return parse_shape(shape, name=name)


def compute_paths(topology: TreeTopology) -> tuple[dict[int, set[int]], dict[int, set[int]]]:
    """Per-leaf sets of decision nodes passed on the left / right branch.

    Also validates the node graph: every node reachable exactly once from the
    root, children either both leaves or both decision nodes, no cycles.
    """
    children = topology.children
    left_path: dict[int, set[int]] = {}
    right_path: dict[int, set[int]] = {}
    seen_nodes: set[int] = set()
    seen_leaves: set[int] = set()

    def walk(child: Child, lefts: set[int], rights: set[int]) -> None:
        kind, k = child
        if kind == "leaf":
            if k in seen_leaves:
                raise MalformedTopologyError(f"leaf {k} appears twice")
            seen_leaves.add(k)
            left_path[k] = set(lefts)
            right_path[k] = set(rights)
            return
        if k in seen_nodes:
            raise MalformedTopologyError(f"decision node {k} appears twice")
        if k not in children:
            raise MalformedTopologyError(f"decision node {k} has no children")
        seen_nodes.add(k)
        left, right = children[k]
        if (left[0] == "leaf") != (right[0] == "leaf"):
            raise MalformedTopologyError(
                f"decision node {k} mixes a leaf child with a decision child"
            )
        walk(left, lefts | {k}, rights)
        walk(right, lefts, rights | {k})

    walk(("node", topology.root), set(), set())
    if seen_nodes != set(children):
        orphans = sorted(set(children) - seen_nodes)
        raise MalformedTopologyError(f"unreachable decision nodes: {orphans}")
    return left_path, right_path


def anchor_eligible_nodes(topology: TreeTopology) -> set[int]:
    """Decision nodes not adjacent to a leaf whose two subtrees share a shape."""
    eligible = set()
    for k, (left, right) in topology.children.items():
        if left[0] == "leaf" or right[0] == "leaf":
            continue
        if topology.subtree_shape(left) == topology.subtree_shape(right):
            eligible.add(k)
    return eligible


def _tokenize(text: str) -> list[str]:
    """The shape's tokens; nesting is capped so the recursive walks stay shallow."""
    tokens = []
    depth = 0
    for ch in text:
        if ch not in "()#":
            if not ch.isspace():
                raise MalformedTopologyError(f"unexpected character {ch!r} in shape text")
            continue
        tokens.append(ch)
        depth += (ch == "(") - (ch == ")")
        if depth > _MAX_DEPTH:
            raise MalformedTopologyError(f"shape nests deeper than {_MAX_DEPTH} levels")
    return tokens
