import random
from fractions import Fraction

import numpy as np
import pytest

from grouptree.encoding import EncodedDataset
from grouptree.errors import BudgetExceededError, InfeasibleError, InvalidConfigError
from grouptree.oracle import enumerate_optimal, node_option_count, symmetry_reduced_count
from grouptree.topology import parse_shape, preset
from grouptree.tree import DecisionTree, evaluate
from tests.conftest import make_schema, random_dataset


def test_all_positive_toy():
    rng = random.Random(3)
    data = random_dataset(rng, 10, [2, 2], labels=[1] * 10)
    value, tree = enumerate_optimal(data, preset("depth2"))
    assert value == 10
    assert evaluate(tree, data).accuracy == 1.0


def test_worked_six_bit_example():
    # two groups {a1..a4}, {a5,a6}; labels follow the tree that splits on
    # {a1,a2}, then {a6} / {a3}: the enumeration recovers a perfect tree
    schema = make_schema([4, 2])
    matrix = np.array(
        [
            [1, 0, 0, 0, 0, 1],  # left-left  -> leaf 1 (negative)
            [0, 0, 1, 0, 1, 0],  # right-left -> leaf 3 (negative)
            [0, 1, 0, 0, 1, 0],  # left-right -> leaf 2 (positive)
            [0, 0, 0, 1, 0, 1],  # right-right-> leaf 4 (positive)
        ],
        dtype=np.uint8,
    )
    labels = np.array([-1, -1, 1, 1], dtype=np.int8)
    data = EncodedDataset(matrix=matrix, labels=labels, schema=schema)
    value, tree = enumerate_optimal(data, preset("depth2"))
    assert value == 4
    assert evaluate(tree, data).accuracy == 1.0
    reference = DecisionTree(
        topology=preset("depth2"),
        tests={1: (0, frozenset({0, 1})), 2: (1, frozenset({5})), 3: (0, frozenset({2}))},
        n_features=6,
        group_sizes=(4, 2),
    )
    assert reference.route(matrix[0]) == 1
    assert reference.route(matrix[1]) == 3


def test_budget_guard():
    rng = random.Random(5)
    data = random_dataset(rng, 10, [4, 4, 4, 4])
    with pytest.raises(BudgetExceededError):
        enumerate_optimal(data, preset("depth3"))  # (4 * 2^4)^7 >> 1e8


def test_symmetry_reduced_count_single_group():
    schema = make_schema([3])
    full = node_option_count(schema) ** 7
    reduced = symmetry_reduced_count(preset("depth3"), schema)
    assert full // reduced == 2 ** 3  # eligible nodes {1, 2, 5}
    reduced_imb = symmetry_reduced_count(preset("imbalanced"), schema)
    assert full // reduced_imb == 2  # only node 3 is eligible


def test_symmetry_reduced_count_example():
    schema = make_schema([2, 3])
    assert node_option_count(schema) == 12
    assert node_option_count(schema, anchored=True) == 6
    assert symmetry_reduced_count(preset("depth2"), schema) == 6 * 12 * 12


def test_flip_symmetry_invariance(rng):
    # complementing the test at the root (whose child subtrees share a shape)
    # and swapping those subtrees yields the identical classifier: each child
    # subtree holds an even number of leaves, so leaf parity is preserved
    for _ in range(5):
        data = random_dataset(rng, 24, [3, 2])
        value, tree = enumerate_optimal(data, preset("depth2"))
        g, subset = tree.tests[1]
        complement = frozenset(data.schema.features_of(g)) - subset
        flipped = DecisionTree(
            topology=tree.topology,
            tests={1: (g, complement), 2: tree.tests[3], 3: tree.tests[2]},
            n_features=tree.n_features,
            group_sizes=tree.group_sizes,
        )
        assert np.array_equal(tree.predict(data.matrix), flipped.predict(data.matrix))
        assert evaluate(flipped, data).accuracy == evaluate(tree, data).accuracy


def test_minor_monotonicity(rng):
    for _ in range(4):
        data = random_dataset(rng, 30, [2, 3])
        v2, _ = enumerate_optimal(data, preset("depth2"), budget=10**10)
        v25, _ = enumerate_optimal(data, preset("depth2_5"), budget=10**10)
        v3, _ = enumerate_optimal(data, preset("depth3"), budget=10**12)
        assert v2 <= v25 <= v3


def test_class_weight(rng):
    data = random_dataset(rng, 20, [2, 2])
    n_neg = int((data.labels == -1).sum())
    n_pos = 20 - n_neg
    value, _ = enumerate_optimal(data, preset("depth2"), class_weight=Fraction(3, 2))
    assert value <= n_pos + Fraction(3, 2) * n_neg
    v1, _ = enumerate_optimal(data, preset("depth2"), class_weight=1)
    assert isinstance(v1, int)


def test_constrained_modes_tiny(rng):
    for _ in range(4):
        data = random_dataset(rng, 16, [2, 2])
        if (data.labels == 1).sum() == 0 or (data.labels == -1).sum() == 0:
            continue
        n_neg = int((data.labels == -1).sum())
        acc_val, _ = enumerate_optimal(data, preset("depth2"))
        # no floor: sensitivity can always reach every positive via one leaf
        tp_free, _ = enumerate_optimal(
            data, preset("depth2"), min_specificity=0
        )
        assert tp_free == int((data.labels == 1).sum())
        # full floor: all negatives must be right
        tp_strict, tree = enumerate_optimal(
            data, preset("depth2"), min_specificity=1
        )
        m = evaluate(tree, data)
        assert m.true_negative == n_neg
        assert tp_strict <= tp_free
        # symmetric mode
        tn_strict, tree2 = enumerate_optimal(
            data, preset("depth2"), min_sensitivity=1
        )
        assert evaluate(tree2, data).true_positive == int((data.labels == 1).sum())


def test_deterministic(rng):
    data = random_dataset(rng, 25, [3, 3])
    v1, t1 = enumerate_optimal(data, preset("depth2"))
    v2, t2 = enumerate_optimal(data, preset("depth2"))
    assert v1 == v2
    assert t1.tests == t2.tests


def test_transformed_optimum_never_beats_grouped():
    # single-bit tests are a restriction of subset tests: compare exact
    # optima on a 100-sample slice of the tic-tac-toe endgames
    from grouptree.datasets import tic_tac_toe
    from grouptree.encoding import binarize_for_simple_branching, build_schema, encode
    from grouptree.rng import SplitMix64

    table = tic_tac_toe()
    data = encode(table, build_schema(table))
    order = list(range(data.n_samples))
    SplitMix64(99).shuffle(order)
    sub = data.subset(sorted(order[:100]))
    grouped, _ = enumerate_optimal(sub, preset("depth2"))
    simple, _ = enumerate_optimal(
        binarize_for_simple_branching(sub), preset("depth2"), budget=10**9
    )
    assert simple <= grouped


def test_forbidden_trivial_tests_are_not_enumerated():
    # four positives over two categories: the empty subset sends all of
    # them to the positive leaf, but with trivial tests forbidden a stump
    # must send one category to the negative leaf
    data = EncodedDataset(
        matrix=np.array([[1, 0], [0, 1], [1, 0], [0, 1]], dtype=np.uint8),
        labels=np.ones(4, dtype=np.int8),
        schema=make_schema([2]),
    )
    stump = parse_shape("(# #)")
    assert enumerate_optimal(data, stump)[0] == 4
    value, tree = enumerate_optimal(data, stump, forbid_trivial=True)
    assert value == 2
    assert len(tree.tests[1][1]) == 1
    # one category per group leaves no test at all
    single = EncodedDataset(
        matrix=np.ones((4, 2), dtype=np.uint8),
        labels=np.array([1, -1, 1, -1], dtype=np.int8),
        schema=make_schema([1, 1]),
    )
    for floor in ({}, {"min_specificity": 0}):
        with pytest.raises(InfeasibleError, match="no test"):
            enumerate_optimal(single, stump, forbid_trivial=True, **floor)
    assert enumerate_optimal(single, stump)[0] == 2


def test_objective_settings_that_would_not_be_read_are_refused(rng):
    data = random_dataset(rng, 12, [2, 2])
    with pytest.raises(InvalidConfigError, match="class weight"):
        enumerate_optimal(data, preset("depth2"), class_weight=Fraction(3, 2),
                          min_specificity=Fraction(1, 2))
    with pytest.raises(InvalidConfigError, match="exclusive"):
        enumerate_optimal(data, preset("depth2"), min_specificity=Fraction(1, 2),
                          min_sensitivity=Fraction(1, 2))
