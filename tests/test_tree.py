import json
import random

import numpy as np
import pytest

from grouptree.datasets import monks
from grouptree.encoding import EncodedDataset, GroupSchema, build_schema, encode
from grouptree.errors import DimensionMismatchError, GroupTreeError, MalformedTreeError
from grouptree.experiments import train_test_run
from grouptree.topology import preset
from grouptree.tree import DecisionTree, Metrics, evaluate
from tests.conftest import corrupt, make_schema, random_dataset

# Worked example: six bits in two groups {a1..a4} and {a5, a6}; the root
# tests membership in {a1, a2}, the left child tests {a6}, the right {a3}.
SCHEMA_6 = GroupSchema(
    groups=(
        tuple((j, "first", f"a{j+1}") for j in range(4)),
        tuple((j, "second", f"a{j+1}") for j in (4, 5)),
    )
)


def worked_tree():
    return DecisionTree(
        topology=preset("depth2"),
        tests={1: (0, frozenset({0, 1})), 2: (1, frozenset({5})), 3: (0, frozenset({2}))},
        n_features=6,
        group_sizes=(4, 2),
    )


def test_route_worked_example():
    tree = worked_tree()
    assert tree.route(np.array([1, 0, 0, 0, 0, 1], dtype=np.uint8)) == 1
    assert tree.route(np.array([0, 0, 1, 0, 1, 0], dtype=np.uint8)) == 3


def test_route_empty_subsets_go_right():
    topo = preset("depth2")
    tree = DecisionTree(
        topology=topo,
        tests={k: (0, frozenset()) for k in topo.decision_nodes},
        n_features=6,
        group_sizes=(4, 2),
    )
    sample = np.array([1, 0, 0, 0, 1, 0], dtype=np.uint8)
    assert tree.route(sample) == topo.n_leaves


def test_route_dimension_mismatch():
    tree = worked_tree()
    with pytest.raises(DimensionMismatchError):
        tree.route(np.zeros(5, dtype=np.uint8))
    with pytest.raises(DimensionMismatchError):
        tree.route_all(np.zeros((3, 7), dtype=np.uint8))


def test_route_all_matches_route(rng):
    data = random_dataset(rng, 60, [4, 2])
    tree = worked_tree()
    leaves = tree.route_all(data.matrix)
    for i in range(60):
        assert leaves[i] == tree.route(data.matrix[i])


def test_evaluate_all_negative():
    # full subsets everywhere route every sample to leaf 1 (odd: negative)
    topo = preset("depth2")
    schema = make_schema([2, 2])
    tree = DecisionTree(
        topology=topo,
        tests={1: (0, frozenset({0, 1})), 2: (0, frozenset({0, 1})), 3: (0, frozenset())},
        n_features=4,
        group_sizes=(2, 2),
    )
    matrix = np.array([[1, 0, 1, 0], [0, 1, 0, 1]], dtype=np.uint8)
    data = EncodedDataset(
        matrix=matrix, labels=np.array([-1, -1], dtype=np.int8), schema=schema
    )
    m = evaluate(tree, data)
    assert m.accuracy == 1.0
    assert m.specificity == 1.0
    assert m.true_negative == 2 and m.true_positive == 0


def test_metrics_identities(rng):
    data = random_dataset(rng, 80, [3, 3])
    tree = DecisionTree(
        topology=preset("depth2"),
        tests={1: (0, frozenset({0})), 2: (1, frozenset({3})), 3: (1, frozenset({4}))},
        n_features=6,
        group_sizes=(3, 3),
    )
    m = evaluate(tree, data)
    assert m.n == 80
    assert 0.0 <= m.accuracy <= 1.0
    assert 0.0 <= m.sensitivity <= 1.0
    assert 0.0 <= m.specificity <= 1.0
    assert m.true_positive + m.false_negative == int((data.labels == 1).sum())


def test_metrics_rates_empty_class():
    m = Metrics(true_positive=0, false_positive=0, true_negative=3, false_negative=0)
    assert m.sensitivity == 0.0
    assert m.specificity == 1.0


def test_tree_json_round_trip():
    tree = worked_tree()
    again = DecisionTree.from_json(tree.to_json())
    assert again.tests == tree.tests
    assert again.n_features == tree.n_features
    assert again.topology.children == tree.topology.children
    assert again.to_json() == tree.to_json()


def test_render_uses_category_names():
    text = worked_tree().render(SCHEMA_6)
    assert "first in {a1, a2}?" in text
    assert "leaf 1: predict -1" in text
    assert "leaf 2: predict +1" in text


def test_evaluate_rejects_mismatched_groups(rng):
    data = random_dataset(rng, 10, [2, 2, 2])
    tree = DecisionTree(
        topology=preset("depth2"),
        tests={1: (0, frozenset({0})), 2: (0, frozenset()), 3: (0, frozenset())},
        n_features=6,
        group_sizes=(3, 3),  # same width, different grouping
    )
    with pytest.raises(DimensionMismatchError):
        evaluate(tree, data)


def _edited(edit) -> str:
    payload = json.loads(worked_tree().to_json())
    edit(payload)
    return json.dumps(payload)


def _set_test(node, group, features):
    return lambda p: p["tests"].__setitem__(node, {"group": group, "features": features})


@pytest.mark.parametrize(
    "text",
    [
        "not json",
        "[" * 100_000,
        "[1, 2]",
        _edited(lambda p: p.pop("tests")),
        _edited(lambda p: p.pop("shape")),
        _edited(lambda p: p["tests"].pop("3")),
        _edited(_set_test("9", 0, [0])),
        _edited(_set_test("1", 0, [99])),
        _edited(_set_test("1", 17, [0])),
        _edited(_set_test("1", 0, [0, 5])),
        _edited(_set_test("1", 0, ["0"])),
        _edited(_set_test("x", 0, [0])),
        _edited(lambda p: p["tests"].__setitem__("1", [0, [0]])),
        _edited(lambda p: p.__setitem__("n_features", 7)),
        _edited(lambda p: p.__setitem__("n_features", True)),
        _edited(lambda p: p.__setitem__("group_sizes", [4, 0, 2])),
        _edited(lambda p: p.__setitem__("shape", "((# #)")),
        _edited(lambda p: p.__setitem__("shape", 3)),
        _edited(lambda p: p.__setitem__("shape", "(" * 3000)),
    ],
    ids=["not-json", "deep-nesting", "not-object", "no-tests", "no-shape", "missing-node", "unknown-node",
         "feature-99", "group-17", "two-groups", "string-feature", "bad-node-key",
         "test-not-object", "feature-count", "bool-feature-count", "empty-group",
         "bad-shape", "shape-not-text", "deep-shape"],
)
def test_malformed_tree_json_is_rejected(text):
    with pytest.raises(MalformedTreeError):
        DecisionTree.from_json(text)


@pytest.mark.parametrize("keys", [("01", "1"), ("1", "01"), ("01",), ("\uff11",)],
                         ids=["padded-first", "padded-last", "padded", "full-width"])
def test_node_keys_are_canonical_decimals(keys):
    # "01" and "1" would both name node 1, and the test kept would depend on
    # the order of the keys; any key that int() reads but to_json never
    # writes is refused
    payload = json.loads(worked_tree().to_json())
    test = payload["tests"].pop("1")
    payload["tests"] = {**{key: test for key in keys}, **payload["tests"]}
    with pytest.raises(MalformedTreeError):
        DecisionTree.from_json(json.dumps(payload))


def test_malformed_tree_is_a_value_error():
    with pytest.raises(ValueError, match="no test for decision node 3"):
        DecisionTree(
            topology=preset("depth2"),
            tests={1: (0, frozenset({0})), 2: (1, frozenset({5}))},
            n_features=6,
            group_sizes=(4, 2),
        )


def test_corrupted_tree_json_raises_only_grouptree_errors():
    table = monks(3)
    data = encode(table, build_schema(table))
    text = train_test_run(data, preset("depth2"), seed=1).tree.to_json()
    parsed = 0
    for case in range(1000):
        bad = corrupt(text, random.Random(f"tree:{case}"))
        try:
            tree = DecisionTree.from_json(bad)
            evaluate(tree, data)
        except GroupTreeError:
            continue
        parsed += 1
        starts = np.cumsum((0,) + tree.group_sizes)
        for g, subset in tree.tests.values():
            assert all(starts[g] <= j < starts[g + 1] for j in subset), case
    assert 0 < parsed < 1000
