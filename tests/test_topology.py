import pytest

from grouptree.errors import MalformedTopologyError, UnknownTopologyError
from grouptree.topology import (
    PRESET_SHAPES,
    anchor_eligible_nodes,
    compute_paths,
    parse_shape,
    preset,
)


def test_preset_shapes():
    expect = {
        "depth2": (3, 4),
        "depth2_5": (5, 6),
        "depth3": (7, 8),
        "imbalanced": (7, 8),
    }
    for name, (k, b) in expect.items():
        topo = preset(name)
        assert topo.n_decision_nodes == k
        assert topo.n_leaves == b


def test_depth3_layout():
    topo = preset("depth3")
    assert topo.children[1] == (("node", 2), ("node", 5))
    assert sorted(topo.leaf_adjacent) == [3, 4, 6, 7]
    assert sorted(topo.left_path[1]) == [1, 2, 3]
    assert topo.right_path[1] == frozenset()
    assert topo.left_path[8] == frozenset()
    assert sorted(topo.right_path[8]) == [1, 5, 7]


def test_depth2_paths():
    topo = preset("depth2")
    assert topo.left_path[1] == frozenset({1, 2})
    assert topo.right_path[4] == frozenset({1, 3})


def test_imbalanced_paths_by_replay():
    # brute-force check: walking each leaf's recorded branch directions from
    # the root reaches exactly that leaf (for every preset)
    for name in PRESET_SHAPES:
        topo = preset(name)
        for b in topo.leaves:
            node = ("node", topo.root)
            while node[0] == "node":
                k = node[1]
                assert (k in topo.left_path[b]) != (k in topo.right_path[b])
                node = topo.children[k][0 if k in topo.left_path[b] else 1]
            assert node == ("leaf", b)
            depth = len(topo.left_path[b]) + len(topo.right_path[b])
            assert depth == topo.leaf_depth(b)


def test_imbalanced_leaf3():
    topo = preset("imbalanced")
    assert topo.left_path[3] == frozenset({1, 2, 5})
    assert topo.right_path[3] == frozenset({3})


def test_anchor_eligible():
    assert sorted(preset("depth2").anchor_eligible) == [1]
    assert sorted(preset("depth2_5").anchor_eligible) == [2]
    assert sorted(preset("depth3").anchor_eligible) == [1, 2, 5]
    assert sorted(preset("imbalanced").anchor_eligible) == [3]


def test_leaf_parity_split():
    for name in PRESET_SHAPES:
        topo = preset(name)
        assert len(topo.positive_leaves) == len(topo.negative_leaves)
        assert all(b % 2 == 0 for b in topo.positive_leaves)
    assert len(preset("depth2_5").positive_leaves) == 3


def _is_minor(small: str, big: str) -> bool:
    if small == "#":
        return True
    if big == "#":
        return False
    sl, sr = _split(small)
    bl, br = _split(big)
    if (_is_minor(sl, bl) and _is_minor(sr, br)) or (
        _is_minor(sl, br) and _is_minor(sr, bl)
    ):
        return True
    return _is_minor(small, bl) or _is_minor(small, br)


def _split(shape: str):
    inner = shape[1:-1].strip()
    depth = 0
    for t, ch in enumerate(inner):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == " " and depth == 0:
            return inner[:t], inner[t + 1 :].strip()
    raise AssertionError(shape)


def test_smaller_presets_are_minors_of_depth3():
    d3 = preset("depth3").shape_text()
    imb = preset("imbalanced").shape_text()
    for name in ("depth2", "depth2_5"):
        small = preset(name).shape_text()
        assert _is_minor(small, d3)
        assert _is_minor(small, imb)


def test_parse_shape_round_trip():
    for name, shape in PRESET_SHAPES.items():
        topo = preset(name)
        assert topo.shape_text() == shape
        again = parse_shape(topo.shape_text(), name=name)
        assert again.children == topo.children


def test_unknown_preset():
    with pytest.raises(UnknownTopologyError):
        preset("depth9")


def test_mixed_children_rejected():
    with pytest.raises(MalformedTopologyError):
        parse_shape("(# (# #))")


def test_malformed_text():
    with pytest.raises(MalformedTopologyError):
        parse_shape("((# #) (# #)")
    with pytest.raises(MalformedTopologyError):
        parse_shape("#")
    with pytest.raises(MalformedTopologyError):
        parse_shape("((# #) (# #)) extra")


def _caterpillar(depth: int) -> str:
    """A valid shape ``depth`` decision levels deep, nested down the left side."""
    text = "(# #)"
    for _ in range(depth - 1):
        text = f"({text} (# #))"
    return text


def test_deep_nesting_is_malformed():
    with pytest.raises(MalformedTopologyError, match="deeper than"):
        parse_shape("(" * 3000)
    with pytest.raises(MalformedTopologyError, match="deeper than"):
        parse_shape(_caterpillar(101))
    deepest = parse_shape(_caterpillar(100))
    assert deepest.shape_text() == _caterpillar(100)
    assert max(deepest.leaf_depth(b) for b in deepest.leaves) == 100


def test_compute_paths_validates():
    topo = preset("depth3")
    left, right = compute_paths(topo)
    assert left.keys() == set(topo.leaves)
    broken = dict(topo.children)
    broken[7] = (("node", 2), ("node", 5))  # node reused: cycle/duplication
    bad = type(topo)(name="bad", children=broken)
    with pytest.raises(MalformedTopologyError):
        compute_paths(bad)


def test_anchor_rule_matches_eligibility_definition():
    for name in PRESET_SHAPES:
        topo = preset(name)
        expected = set()
        for k, (left, right) in topo.children.items():
            if left[0] == "leaf" or right[0] == "leaf":
                continue
            if topo.subtree_shape(left) == topo.subtree_shape(right):
                expected.add(k)
        assert anchor_eligible_nodes(topo) == expected
        assert set(topo.anchor_eligible) == expected
