import math
import random

import pytest

from grouptree.errors import GroupTreeError, MpsParseError, NameOverflowError
from grouptree.model import BuildConfig, MilpModel, Variable, build_model, model_stats
from grouptree.mps import export_lp, export_mps, parse_mps
from grouptree.solver import solve_lp
from grouptree.topology import preset
from tests.conftest import corrupt, random_dataset

ALL_CONFIGS = [
    BuildConfig(),
    BuildConfig(strengthen=False),
    BuildConfig(anchor=False),
    BuildConfig(strengthen=False, drop_unused_c=False),
    BuildConfig(relax_integrality=False),
    BuildConfig(forbid_trivial_branch=True),
]


def test_round_trip_all_configs(rng):
    data = random_dataset(rng, 12, [2, 3])
    for cfg in ALL_CONFIGS:
        for name in ("depth2", "imbalanced"):
            model = build_model(data, preset(name), cfg)
            again = parse_mps(export_mps(model))
            assert model.semantically_equal(again)
            assert model_stats(model) == model_stats(again)


def test_round_trip_twice_is_stable(rng):
    data = random_dataset(rng, 10, [2, 2])
    model = build_model(data, preset("depth2"))
    text1 = export_mps(model)
    text2 = export_mps(parse_mps(text1))
    assert text1 == text2


def test_export_deterministic(rng):
    data = random_dataset(rng, 15, [3, 2])
    a = export_mps(build_model(data, preset("depth2_5")))
    b = export_mps(build_model(data, preset("depth2_5")))
    assert a == b


def test_onegrp_row_count(rng):
    data = random_dataset(rng, 4, [2, 2])
    text = export_mps(build_model(data, preset("depth2")))
    assert sum(1 for line in text.splitlines() if line.startswith(" E  ONEGRP_")) == 3


def test_truncated_input():
    data_text = "NAME          X\nROWS\n N  OBJ\n L  R1\nCOLUMNS\n    X1              R1              1\n"
    with pytest.raises(MpsParseError):
        parse_mps(data_text)  # no ENDATA


def test_minimal_hand_written():
    text = """NAME          TINY
ROWS
 N  COST
 L  CAP
COLUMNS
    X1              COST            2
    X1              CAP             1
    X2              COST            3
    X2              CAP             1
RHS
    RHS             CAP             4
BOUNDS
 UP BND             X1              2
ENDATA
"""
    model = parse_mps(text)
    assert len(model.variables) == 2
    assert len(model.constraints) == 1
    assert model.sense == "min"  # no OBJSENSE given
    assert model.variables[0].upper == 2.0
    assert dict(model.objective) == {"X1": 2.0, "X2": 3.0}


def test_bound_types():
    text = """NAME          B
ROWS
 N  OBJ
 L  R1
COLUMNS
    A               R1              1
    B               R1              1
    C               R1              1
RHS
    RHS             R1              2
BOUNDS
 FX BND             A               1
 BV BND             B
 LO BND             C               0.5
ENDATA
"""
    model = parse_mps(text)
    by_name = {v.name: v for v in model.variables}
    assert by_name["A"].lower == by_name["A"].upper == 1.0
    assert by_name["B"].is_integer and by_name["B"].upper == 1.0
    assert by_name["C"].lower == 0.5


@pytest.mark.parametrize(
    "line",
    [" UP BND             A", " LO BND             A               abc",
     " FX BND             A               1e"],
    ids=["missing", "abc", "1e"],
)
def test_short_or_non_numeric_bound_reports_line(line):
    text = f"NAME          B\nROWS\n N  OBJ\nCOLUMNS\n    A               OBJ             1\nBOUNDS\n{line}\nENDATA\n"
    with pytest.raises(MpsParseError) as err:
        parse_mps(text)
    assert "line 7" in str(err.value)


SENSE_MODEL = """NAME          S
{sense}
ROWS
 N  OBJ
 L  R1
COLUMNS
    X               OBJ             1
    X               R1              1
RHS
    RHS             R1              1
BOUNDS
 UP BND             X               5
ENDATA
"""


@pytest.mark.parametrize(
    "sense, value",
    [("OBJSENSE MIN", 0.0), ("OBJSENSE MINIMIZE", 0.0), ("OBJSENSE\n    MINIMIZE", 0.0),
     ("OBJSENSE MAXIMIZE", 1.0), ("OBJSENSE\n    MAX", 1.0)],
)
def test_objective_sense_on_one_or_two_lines(sense, value):
    model = parse_mps(SENSE_MODEL.format(sense=sense))
    assert model.sense == ("min" if value == 0.0 else "max")
    assert solve_lp(model)[0] == value


@pytest.mark.parametrize("sense", ["OBJSENSE BOGUS", "OBJSENSE\n    BOGUS"])
def test_bad_objective_sense_is_rejected(sense):
    with pytest.raises(MpsParseError, match="bad objective sense"):
        parse_mps(SENSE_MODEL.format(sense=sense))


def test_corrupted_mps_raises_only_grouptree_errors(rng):
    text = export_mps(build_model(random_dataset(rng, 6, [2, 2]), preset("depth2")))
    for case in range(1000):
        bad = corrupt(text, random.Random(f"mps:{case}"))
        try:
            model = parse_mps(bad)
        except GroupTreeError:
            continue
        values = [coef for _, coef in model.objective]
        for con in model.constraints:
            values += [con.rhs] + [coef for _, coef in con.coeffs]
        assert all(math.isfinite(v) for v in values), case


def test_ranges_rejected():
    text = "NAME X\nROWS\n N  OBJ\nRANGES\nENDATA\n"
    with pytest.raises(MpsParseError):
        parse_mps(text)


def test_unknown_row_reports_line():
    text = """NAME          X
ROWS
 N  OBJ
COLUMNS
    A               NOPE            1
ENDATA
"""
    with pytest.raises(MpsParseError) as err:
        parse_mps(text)
    assert "line 5" in str(err.value)


def test_name_overflow():
    model = MilpModel(
        name="X",
        sense="max",
        variables=[Variable("THIS_NAME_IS_TOO_LONG", 0.0, 1.0, False)],
        constraints=[],
        objective=(("THIS_NAME_IS_TOO_LONG", 1.0),),
    )
    with pytest.raises(NameOverflowError):
        export_mps(model)


def test_integrality_markers_round_trip(rng):
    data = random_dataset(rng, 10, [2, 2])
    for cfg in (BuildConfig(), BuildConfig(relax_integrality=False)):
        model = build_model(data, preset("depth3"), cfg)
        again = parse_mps(export_mps(model))
        assert [v.is_integer for v in again.variables] == [
            v.is_integer for v in model.variables
        ]


def test_lp_export_smoke(rng):
    data = random_dataset(rng, 6, [2, 2])
    model = build_model(data, preset("depth2"))
    text = export_lp(model)
    assert text.startswith("\\ written by grouptree\nMaximize")
    assert " ONEGRP_1: " in text
    assert "General" in text
    assert text.rstrip().endswith("End")
    # weighted objective renders fractional coefficients
    from fractions import Fraction

    model2 = build_model(data, preset("depth2"), BuildConfig(class_weight=Fraction(3, 2)))
    assert "1.5 C_" in export_lp(model2)


def test_fractional_coefficients_round_trip(rng):
    from fractions import Fraction

    data = random_dataset(rng, 9, [2, 2])
    model = build_model(
        data, preset("depth2"), BuildConfig(class_weight=Fraction(1, 3))
    )
    again = parse_mps(export_mps(model))
    assert model.semantically_equal(again)


VALUE_MODEL = """NAME          V
OBJSENSE MAX
ROWS
 N  OBJ
 L  R1
COLUMNS
    X               OBJ             1
    X               R1              {coef}
RHS
    RHS             R1              {rhs}
BOUNDS
 {btype} BND             X               {bound}
ENDATA
"""


@pytest.mark.parametrize(
    "values, line",
    [
        (dict(coef="nan"), 8),
        (dict(coef="inf"), 8),
        (dict(coef="-inf"), 8),
        (dict(rhs="nan"), 10),
        (dict(rhs="inf"), 10),
        (dict(bound="nan"), 12),
        (dict(btype="UP", bound="-inf"), 12),
        (dict(btype="LO", bound="inf"), 12),
        (dict(btype="LO", bound="-inf"), 12),
        (dict(btype="FX", bound="inf"), 12),
    ],
    ids=["coef-nan", "coef-inf", "coef-minus-inf", "rhs-nan", "rhs-inf", "bound-nan",
         "up-minus-inf", "lo-inf", "lo-minus-inf", "fx-inf"],
)
def test_non_finite_numbers_are_rejected(values, line):
    fields = dict(coef="1", rhs="1", btype="UP", bound="5") | values
    with pytest.raises(MpsParseError, match=f"line {line}: bad"):
        parse_mps(VALUE_MODEL.format(**fields))


def test_infinite_upper_bound_means_no_limit():
    model = parse_mps(VALUE_MODEL.format(coef="1", rhs="1", btype="UP", bound="inf"))
    assert model.variables[0].upper == math.inf
    assert solve_lp(model)[0] == 1.0


@pytest.mark.parametrize(
    "old, new, line",
    [(" L  R1\n", " L  R1\n L  R1\n", 6),
     (" N  OBJ\n", " N  OBJ\n N  OBJ\n", 5),
     (" L  R1\n", " L  OBJ\n", 5)],
    ids=["constraint", "objective", "constraint-named-like-objective"],
)
def test_row_declared_twice_is_rejected(old, new, line):
    text = VALUE_MODEL.format(coef="1", rhs="1", btype="UP", bound="5").replace(old, new)
    with pytest.raises(MpsParseError, match=f"line {line}: row .* declared twice"):
        parse_mps(text)


@pytest.mark.parametrize("row", ["R1", "OBJ"])
def test_repeated_column_entry_is_rejected(row):
    entry = f"    X               {row:<16}1\n"
    text = VALUE_MODEL.format(coef="1", rhs="1", btype="UP", bound="5")
    text = text.replace("RHS\n", entry + "RHS\n", 1)
    with pytest.raises(MpsParseError, match=f"line 9: column 'X' has two entries in row '{row}'"):
        parse_mps(text)
