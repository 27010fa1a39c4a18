import copy
import hashlib
import pickle
import random
from fractions import Fraction

import pytest

from grouptree.datasets import monks, tic_tac_toe
from grouptree.encoding import build_schema, encode
from grouptree.errors import EmptyClassError, InvalidConfigError
from grouptree.experiments import protocol_split
from grouptree.model import BuildConfig, Constraint, build_model, model_stats
from grouptree.mps import export_lp, export_mps, parse_mps
from grouptree.topology import PRESET_SHAPES, preset
from tests.conftest import random_dataset


def monks_data(problem=1, n=None):
    table = monks(problem)
    data = encode(table, build_schema(table))
    return data if n is None else data.subset(range(n))


def test_integer_columns_reduced_set():
    # only the feature bits above the leaf-adjacent level stay integral
    data = monks_data()
    stats = model_stats(build_model(data, preset("depth3")))
    assert stats["integer_columns"] == 3 * 17  # nodes 1, 2, 5

    ttt = encode(tic_tac_toe(), build_schema(tic_tac_toe()))
    stats2 = model_stats(build_model(ttt.subset(range(50)), preset("depth2")))
    assert stats2["integer_columns"] == 27  # root only


def test_variable_count_all_flags_off():
    data = monks_data(n=30)
    cfg = BuildConfig(
        strengthen=False, anchor=False, relax_integrality=False, drop_unused_c=False
    )
    model = build_model(data, preset("depth2"), cfg)
    stats = model_stats(model)
    k, g, d, n, b = 3, 6, 17, 30, 4
    assert stats["columns"] == k * g + k * d + n * b
    assert stats["integer_columns"] == stats["columns"]
    # dropping wrong-class routing variables halves the c count
    cfg2 = BuildConfig(
        strengthen=False, anchor=False, relax_integrality=False, drop_unused_c=True
    )
    stats2 = model_stats(build_model(data, preset("depth2"), cfg2))
    assert stats["columns"] - stats2["columns"] == n * b // 2


def test_row_families():
    data = monks_data(n=20)
    model = build_model(data, preset("depth2"))
    names = [c.name for c in model.constraints]
    assert sum(1 for n in names if n.startswith("ONEGRP_")) == 3
    assert sum(1 for n in names if n.startswith("LINK_")) == 3 * 17
    assert any(n.startswith("LEFT_") for n in names)
    assert any(n.startswith("RIGHT_") for n in names)
    # anchor equalities only at the eligible node (the root for this shape)
    anch = [n for n in names if n.startswith("ANCH_")]
    assert anch == [f"ANCH_1_{g}" for g in range(6)]
    assert not any(n.startswith("PICK_") for n in names)


def test_pick_rows_only_in_basic_full_model():
    data = monks_data(n=12)
    cfg = BuildConfig(strengthen=False, drop_unused_c=False)
    model = build_model(data, preset("depth2"), cfg)
    picks = [c for c in model.constraints if c.name.startswith("PICK_")]
    assert len(picks) == 12
    assert all(c.sense == "=" and c.rhs == 1.0 for c in picks)
    # per-leaf routing rows carry the leaf id
    assert any(c.name.startswith("LEFTB_") for c in model.constraints)
    # dropping variables removes the equality as well
    cfg2 = BuildConfig(strengthen=False, drop_unused_c=True)
    model2 = build_model(data, preset("depth2"), cfg2)
    assert not any(c.name.startswith("PICK_") for c in model2.constraints)


def test_anchor_rows_per_preset():
    data = monks_data(n=15)
    expect = {"depth2": {1}, "depth2_5": {2}, "depth3": {1, 2, 5}, "imbalanced": {3}}
    for name, nodes in expect.items():
        model = build_model(data, preset(name))
        got = {int(c.name.split("_")[1]) for c in model.constraints if c.name.startswith("ANCH_")}
        assert got == nodes


def test_forbid_trivial_rows():
    data = monks_data(n=10)
    model = build_model(data, preset("depth2"), BuildConfig(forbid_trivial_branch=True))
    mins = [c for c in model.constraints if c.name.startswith("MINPICK_")]
    maxs = [c for c in model.constraints if c.name.startswith("MAXPICK_")]
    assert len(mins) == len(maxs) == 3 * 6


def test_objective_weights():
    data = monks_data().subset(range(0, 432, 18))
    assert {int(v) for v in data.labels} == {-1, 1}
    model = build_model(data, preset("depth2"), BuildConfig(class_weight=Fraction(3, 2)))
    weights = {coef for _, coef in model.objective}
    assert weights == {1.0, 1.5}
    assert not model.objective_is_integral()
    assert build_model(data, preset("depth2")).objective_is_integral()


def test_spec_floor_value(rng):
    data = random_dataset(rng, 40, [2, 3])
    n_neg = int((data.labels == -1).sum())
    cfg = BuildConfig(min_specificity=Fraction(19, 20))
    model = build_model(data, preset("depth2"), cfg)
    spec = [c for c in model.constraints if c.name == "SPEC"]
    assert len(spec) == 1
    assert spec[0].sense == ">="
    assert spec[0].rhs == float(-(-19 * n_neg // 20))  # ceil(0.95 * n_neg)
    # constrained modes keep every feature bit integral
    stats = model_stats(model)
    assert stats["integer_columns"] == 3 * data.n_features


def test_empty_class_error(rng):
    # raised by build_model itself, before any row is read
    data = random_dataset(rng, 10, [2, 2], labels=[1] * 10)
    with pytest.raises(EmptyClassError):
        build_model(
            data,
            preset("depth2"),
            BuildConfig(min_specificity=Fraction(1, 2)),
        )
    data = random_dataset(rng, 10, [2, 2], labels=[-1] * 10)
    with pytest.raises(EmptyClassError):
        build_model(
            data,
            preset("depth2"),
            BuildConfig(min_sensitivity=Fraction(1, 2)),
        )


def test_invalid_configs():
    with pytest.raises(InvalidConfigError):
        BuildConfig(class_weight=0)
    # a weight whose numerator or denominator does not fit in a float
    for weight in ("1e400", "1e-400", Fraction(10**400 + 1, 10**400)):
        with pytest.raises(InvalidConfigError, match="class_weight"):
            BuildConfig(class_weight=Fraction(weight))
    BuildConfig(class_weight=Fraction("1e300"))
    BuildConfig(class_weight=Fraction("1e-300"))
    for name in ("min_specificity", "min_sensitivity"):
        # a floor is a rate
        for rate in (Fraction(3, 2), Fraction(-1, 2), 5):
            with pytest.raises(InvalidConfigError, match=name):
                BuildConfig(**{name: rate})
        # the floored modes never read a class weight
        with pytest.raises(InvalidConfigError, match="^class_weight"):
            BuildConfig(class_weight=Fraction(3, 2), **{name: Fraction(1, 2)})
        BuildConfig(class_weight=1, **{name: Fraction(1, 2)})
    # one floor chooses one mode
    with pytest.raises(InvalidConfigError, match="exclusive"):
        BuildConfig(min_specificity=Fraction(1, 2), min_sensitivity=Fraction(1, 2))
    with pytest.raises(InvalidConfigError):
        BuildConfig(min_specificity=Fraction(1, 2), min_sensitivity=5)


def test_the_floor_chooses_the_mode():
    cfg = BuildConfig(min_specificity=Fraction(1, 2))
    assert cfg.mode == "max_sensitivity"
    assert cfg.objective(10, 10) == (1, 0, 1, -1, 5)
    cfg = BuildConfig(min_sensitivity=0.5)
    assert (cfg.mode, cfg.min_sensitivity) == ("max_specificity", Fraction(1, 2))
    assert cfg.objective(10, 10) == (0, 1, 1, 1, 5)
    assert BuildConfig(class_weight=Fraction(3, 2)).mode == "accuracy"
    assert BuildConfig().as_dict()["mode"] == "accuracy"
    assert BuildConfig(min_specificity=1).as_dict() == {
        **BuildConfig().as_dict(), "mode": "max_sensitivity", "min_specificity": "1"
    }


def test_build_deterministic(rng):
    data = monks_data(n=25)
    m1 = build_model(data, preset("depth2_5"))
    m2 = build_model(data, preset("depth2_5"))
    assert m1.semantically_equal(m2)
    assert export_mps(m1) == export_mps(m2)


def test_left_rows_carry_sample_bits():
    data = monks_data(n=6)
    model = build_model(data, preset("depth2"))
    row = next(c for c in model.constraints if c.name == "LEFT_0_1")
    z_coeffs = {n: v for n, v in row.coeffs if n.startswith("Z_")}
    hot = {f"Z_1_{j}" for j in range(17) if data.matrix[0, j] == 1}
    assert set(z_coeffs) == hot
    assert all(v == -1.0 for v in z_coeffs.values())
    assert row.sense == "<=" and row.rhs == 0.0


# -- the lowering, pinned byte for byte ------------------------------------------

PINNED_CONFIGS = {
    "default": BuildConfig(),
    "no-strengthen": BuildConfig(strengthen=False),
    "no-anchor": BuildConfig(anchor=False),
    "integral": BuildConfig(relax_integrality=False),
    "keep-unused-c": BuildConfig(drop_unused_c=False),
    "basic-full": BuildConfig(strengthen=False, drop_unused_c=False),
    "forbid-trivial": BuildConfig(forbid_trivial_branch=True),
    "weight-3/2": BuildConfig(class_weight=Fraction(3, 2)),
    "max-sensitivity": BuildConfig(min_specificity=Fraction(9, 10)),
    "max-specificity": BuildConfig(min_sensitivity=Fraction(3, 4)),
}

# sha256 (first 16 hex digits) of the MPS and LP texts of every preset, in
# preset order.  Exported models are artifacts: a faster lowering must not
# move a byte of them.
PINNED_EXPORTS = {
    ("seeded", "default"): ("9b6aaee9f738f43a", "dcdf2b943ef98684"),
    ("seeded", "no-strengthen"): ("253558f2447403ff", "1cf7f9a841dce245"),
    ("seeded", "no-anchor"): ("282bf84c576d110d", "d666b99ab355cdf2"),
    ("seeded", "integral"): ("39beac5dfe5d9e49", "aaa66247c81fa09a"),
    ("seeded", "keep-unused-c"): ("99159107a89d74ae", "20dc5075bc96d14c"),
    ("seeded", "basic-full"): ("4730e079a46ca135", "e86425296fe1e85d"),
    ("seeded", "forbid-trivial"): ("4c4140dd12a92ad1", "a7bc843b2ccfc4f4"),
    ("seeded", "weight-3/2"): ("a8ddeca218652f4d", "380304c716de6153"),
    ("seeded", "max-sensitivity"): ("b274547d5edb9d33", "16bb18fde2746c2e"),
    ("seeded", "max-specificity"): ("7fb50dda62b926de", "8067b92430b176ec"),
    ("monks1-split1", "default"): ("c49018ed17b499d3", "e1bd9b7ac8bc08c3"),
    ("monks1-split1", "no-strengthen"): ("1838f291098a58cb", "2444a60d0a1cfa48"),
    ("monks1-split1", "no-anchor"): ("ae7aea299141d139", "6976974b5684baa5"),
    ("monks1-split1", "integral"): ("923bdd4df523d99f", "e2885982180f8fa3"),
    ("monks1-split1", "keep-unused-c"): ("95e8d6ce2063d16e", "1b9548fd8ea0204a"),
    ("monks1-split1", "basic-full"): ("f72e3c784d41759c", "937b7ae2573f3ad7"),
    ("monks1-split1", "forbid-trivial"): ("526810e924271f58", "b9ce71286b3f8b84"),
    ("monks1-split1", "weight-3/2"): ("093eb6d8939ea805", "4d7fb52454612a80"),
    ("monks1-split1", "max-sensitivity"): ("df9caea71087b938", "b1b777c1e7ebb2b2"),
    ("monks1-split1", "max-specificity"): ("cb46c25157b092f0", "7773d0d92d715d76"),
}


def pinned_inputs():
    table = monks(1)
    data = encode(table, build_schema(table))
    return {
        # a one-feature group makes MAXPICK write a zero V coefficient
        "seeded": random_dataset(random.Random(20240817), 24, (3, 1, 2, 4)),
        "monks1-split1": data.subset(protocol_split(data.n_samples, 1)[0]),
    }


def export_digests(data, config):
    mps, lp = hashlib.sha256(), hashlib.sha256()
    for name in PRESET_SHAPES:
        model = build_model(data, preset(name), config)
        mps.update(export_mps(model).encode())
        lp.update(export_lp(model).encode())
    return mps.hexdigest()[:16], lp.hexdigest()[:16]


@pytest.mark.parametrize("config_name", list(PINNED_CONFIGS))
def test_lowering_is_pinned(config_name):
    config = PINNED_CONFIGS[config_name]
    for data_name, data in pinned_inputs().items():
        got = export_digests(data, config)
        assert got == PINNED_EXPORTS[data_name, config_name], (data_name, got)


def test_monks1_imbalanced_size_is_pinned():
    data = pinned_inputs()["monks1-split1"]
    stats = model_stats(build_model(data, preset("imbalanced")))
    assert (stats["rows"], stats["nonzeros"]) == (4022, 28689)


@pytest.mark.parametrize(
    "cfg",
    [
        BuildConfig(),
        BuildConfig(strengthen=False, drop_unused_c=False, forbid_trivial_branch=True),
        BuildConfig(min_specificity=Fraction(1, 2)),
    ],
    ids=["default", "basic-forbid", "max-sensitivity"],
)
def test_rows_built_on_first_read_behave_like_a_list(cfg):
    # A built model's rows are made the first time they are read; every kind
    # of read gives the rows of a plain list, and of a second build.
    data = monks_data(n=60)
    plain = list(build_model(data, preset("depth2_5"), cfg).constraints)
    assert type(plain[0]) is Constraint and len(plain) > 100
    model = build_model(data, preset("depth2_5"), cfg)
    other = build_model(data, preset("depth2_5"), cfg)
    assert model.constraints == other.constraints  # both unread until here
    assert model.constraints == plain and plain == model.constraints
    assert not model.constraints != plain
    assert model.constraints != plain[:-1] and model.constraints != tuple(plain)
    assert len(model.constraints) == len(plain)
    assert list(model.constraints) == [row for row in model.constraints] == plain
    assert model.constraints[0] == plain[0] and model.constraints[-1] == plain[-1]
    assert model.constraints[3:9] == plain[3:9]
    # the rows are made once and kept
    assert all(a is b for a, b in zip(model.constraints, model.constraints))
    assert export_mps(model) == export_mps(other)
    fresh = build_model(data, preset("depth2_5"), cfg)
    assert pickle.loads(pickle.dumps(fresh)).constraints == plain
    assert copy.deepcopy(build_model(data, preset("depth2_5"), cfg)).constraints == plain


def test_rows_are_those_of_the_data_at_the_call():
    data = monks_data(n=20)
    plain = build_model(data, preset("depth2"), BuildConfig())
    copy = data.subset(range(data.n_samples))
    model = build_model(copy, preset("depth2"), BuildConfig())
    for array in (copy.matrix, copy.labels):
        array.setflags(write=True)
    copy.matrix[:] = 0  # no part reads the data again
    copy.labels[:] = -copy.labels
    assert model.constraints == list(plain.constraints)
    assert model.variables == list(plain.variables)
    assert model.objective == tuple(plain.objective)


@pytest.mark.parametrize("first", ["variables", "objective", "constraints"])
def test_the_first_read_of_any_part_builds_all_three_once(monkeypatch, first):
    import grouptree.model as model_mod

    data = monks_data(n=30)
    plain = build_model(data, preset("depth2_5"), BuildConfig())
    sizes = {"Variable": len(plain.variables), "Constraint": len(plain.constraints)}
    made = {"Variable": 0, "Constraint": 0}
    for kind in made:
        def counted(*args, _kind=kind, _make=getattr(model_mod, kind), **kwargs):
            made[_kind] += 1
            return _make(*args, **kwargs)

        monkeypatch.setattr(model_mod, kind, counted)
    model = build_model(data, preset("depth2_5"), BuildConfig())
    assert made == {"Variable": 0, "Constraint": 0}
    getattr(model, first)[0]
    assert made == sizes and sizes["Constraint"] > 0
    # the other parts were built by that read; a second read of any part
    # returns the same objects
    parts = {name: getattr(model, name) for name in ("variables", "objective", "constraints")}
    assert parts["objective"] == plain.objective and len(parts["objective"]) > 0
    for name, part in parts.items():
        assert all(a is b for a, b in zip(part, getattr(model, name))), name
    assert made == sizes


def test_copied_parts_keep_their_types():
    # a built model's parts are those of a parsed one: on first read, and
    # after a pickle or a copy of a model whose parts were never read
    cfg = BuildConfig()
    data = monks_data(n=20)
    plain = build_model(data, preset("depth2"), cfg)
    types = {"variables": list, "objective": tuple, "constraints": list}
    parsed = parse_mps(export_mps(plain))
    assert {name: type(getattr(parsed, name)) for name in types} == types
    for copied in (
        build_model(data, preset("depth2"), cfg),
        pickle.loads(pickle.dumps(build_model(data, preset("depth2"), cfg))),
        copy.deepcopy(build_model(data, preset("depth2"), cfg)),
    ):
        for name, kind in types.items():
            assert type(getattr(copied, name)) is kind
            assert getattr(copied, name) == kind(getattr(plain, name))


def test_a_row_appended_to_a_built_model_is_exported():
    data = monks_data(n=20)
    model = build_model(data, preset("depth2"))
    row = Constraint("EXTRA", (("V_1_0", 1.0), ("Z_1_0", -1.0)), "<=", 0.0)
    model.constraints.append(row)
    parsed = parse_mps(export_mps(model))
    assert parsed.constraints[-1].name == "EXTRA"
    assert dict(parsed.constraints[-1].coeffs) == dict(row.coeffs)
    assert parsed.semantically_equal(model)


def test_a_part_set_before_the_first_read_stays():
    data = monks_data(n=20)
    plain = build_model(data, preset("depth2"))
    model = build_model(data, preset("depth2"))
    assert not hasattr(model, "nosuch")  # reads no part
    model.objective = ()
    assert model.constraints == plain.constraints  # builds the other parts
    assert model.objective == () and model.variables == plain.variables


def test_reassigned_rows_are_used():
    data = monks_data(n=12)
    model = build_model(data, preset("depth2"))
    extra = Constraint("EXTRA", (("V_1_0", 1.0),), "<=", 1.0)
    rows = list(model.constraints)
    model.constraints = list(model.constraints) + [extra]
    assert model.constraints == rows + [extra]
    assert model_stats(model)["rows"] == len(rows) + 1
    assert " EXTRA" in export_mps(model)
