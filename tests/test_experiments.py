import random
from fractions import Fraction

import numpy as np
import pytest

from grouptree.datasets import monks, tic_tac_toe
from grouptree.encoding import EncodedDataset, build_schema, encode
from grouptree.errors import InfeasibleError, InvalidConfigError
from grouptree.experiments import (
    cross_validate_topology,
    protocol_split,
    sensitivity_sweep,
    train_test_run,
)
from grouptree.model import BuildConfig, build_model
from grouptree.oracle import enumerate_optimal
from grouptree.rng import SplitMix64
from grouptree.solver import INFEASIBLE, solve_milp
from grouptree.topology import parse_shape, preset
from tests.conftest import make_schema, random_dataset


def test_protocol_split_sizes():
    train, test = protocol_split(958, seed=3)
    assert len(train) == 600 and len(test) == 358
    train2, test2 = protocol_split(432, seed=3)
    assert len(train2) == 389  # ceil(0.9 * 432)
    assert sorted(train2 + test2) == list(range(432))


def test_protocol_split_deterministic():
    assert protocol_split(100, seed=9) == protocol_split(100, seed=9)
    assert protocol_split(100, seed=9) != protocol_split(100, seed=10)


def test_split_too_small():
    with pytest.raises(InvalidConfigError):
        protocol_split(5, seed=0)


def test_splitmix_reference_values():
    # first outputs for seed 0; pins the generator across platforms
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4


def test_train_test_run_deterministic(rng):
    data = random_dataset(rng, 40, [3, 2])
    a = train_test_run(data, preset("depth2"), seed=5)
    b = train_test_run(data, preset("depth2"), seed=5)
    assert a.train_indices == b.train_indices
    assert a.tree.to_json() == b.tree.to_json()
    assert a.train_metrics == b.train_metrics
    c = train_test_run(data, preset("depth2"), seed=6)
    assert c.train_indices != a.train_indices


@pytest.mark.parametrize("method", ["auto", "lp"])
def test_infeasible_training_names_its_status(monkeypatch, method):
    # One category only: with trivial tests forbidden no tree exists.  Both
    # engines say so, and training reports that, not a fractional selection.
    import grouptree.experiments as experiments_mod

    solve = experiments_mod.solve_milp
    statuses = []

    def recorded(model, config=None):
        result = solve(model, config, method=method)
        statuses.append(result.status)
        return result

    monkeypatch.setattr(experiments_mod, "solve_milp", recorded)
    data = random_dataset(random.Random(0), 11, [1], labels=[1, -1] * 5 + [1])
    cfg = BuildConfig(forbid_trivial_branch=True)
    with pytest.raises(InfeasibleError, match="status infeasible"):
        train_test_run(data, preset("depth2"), cfg, seed=1)
    assert statuses == [INFEASIBLE]


def test_train_metrics_match_objective(rng):
    data = random_dataset(rng, 45, [2, 3])
    run = train_test_run(data, preset("depth2"), seed=2)
    m = run.train_metrics
    assert run.solve.objective == m.true_positive + m.true_negative
    assert m.n == len(run.train_indices)
    assert not run.hit_time_limit


def test_cv_tie_break_prefers_fewer_leaves(rng):
    # labels depend on a single group: every shape validates perfectly, so
    # the tie-break picks the smallest leaf count: depth2
    schema = make_schema([2, 3])
    r = random.Random(4)
    matrix = np.zeros((48, 5), dtype=np.uint8)
    labels = []
    for i in range(48):
        v = r.randrange(2)
        matrix[i, v] = 1
        matrix[i, 2 + r.randrange(3)] = 1
        labels.append(1 if v == 0 else -1)
    data = EncodedDataset(
        matrix=matrix, labels=np.array(labels, dtype=np.int8), schema=schema
    )
    topos = [preset(n) for n in ("depth2", "depth2_5", "depth3", "imbalanced")]
    result = cross_validate_topology(data, topos, seed=1)
    assert result.chosen == "depth2"
    assert result.chosen_leaf_count == 4
    assert all(acc == 1.0 for acc in result.mean_validation_accuracy.values())
    assert result.final.train_metrics.accuracy == 1.0


def test_cv_requires_multiple_topologies(rng):
    data = random_dataset(rng, 40, [2, 2])
    with pytest.raises(InvalidConfigError):
        cross_validate_topology(data, [preset("depth2")], seed=0)


def test_cv_refuses_two_topologies_with_one_name(rng):
    # every parenthesis shape is named "custom": two of them would share one
    # validation accuracy, and the choice could fall on the worse shape
    data = random_dataset(rng, 40, [2, 2])
    shapes = [parse_shape("((# #) (# #))"), parse_shape("(((# #) (# #)) ((# #) (# #)))")]
    with pytest.raises(InvalidConfigError, match="'custom'"):
        cross_validate_topology(data, shapes, seed=0)
    with pytest.raises(InvalidConfigError, match="'depth2'"):
        cross_validate_topology(data, [preset("depth2"), preset("depth2")], seed=0)
    # one custom shape next to a preset is told apart from it
    result = cross_validate_topology(data, [shapes[1], preset("depth2")], seed=0)
    assert set(result.mean_validation_accuracy) == {"custom", "depth2"}


def test_cv_folds_partition_pool(rng, monkeypatch):
    import grouptree.experiments as exp

    seen = {}
    orig = exp.build_model

    def spy(data, topo, cfg=None):
        seen.setdefault(topo.name, []).append(data.n_samples)
        return orig(data, topo, cfg)

    monkeypatch.setattr(exp, "build_model", spy)
    data = random_dataset(rng, 40, [2, 2])
    cross_validate_topology(data, [preset("depth2"), preset("depth2_5")], seed=3)
    # 40 samples -> pool 36, folds of 9: each fit uses 27
    assert seen["depth2"][:4] == [27, 27, 27, 27]
    assert seen["depth2_5"][:4] == [27, 27, 27, 27]
    assert seen["depth2"][-1] == 36 or seen["depth2_5"][-1] == 36  # winner refit


def test_sweep_floor_and_order(rng):
    data = random_dataset(rng, 60, [2, 3, 2])
    if (data.labels == 1).sum() == 0 or (data.labels == -1).sum() == 0:
        pytest.skip("degenerate draw")
    floors = [Fraction(0), Fraction(1, 2), Fraction(1)]
    rows = sensitivity_sweep(data, preset("depth2"), floors, seed=7)
    assert [r.floor for r in rows] == floors
    for r in rows:
        assert r.train_specificity >= float(r.floor) - 1e-12
    # no floor lets one positive leaf absorb everything
    assert rows[0].train_sensitivity == 1.0
    # tightening the floor cannot raise the optimum
    tprs = [r.train_sensitivity for r in rows]
    assert all(a >= b - 1e-12 for a, b in zip(tprs, tprs[1:]))


def test_grouped_beats_simple_on_subsamples():
    from grouptree.encoding import binarize_for_simple_branching

    table = tic_tac_toe()
    data = encode(table, build_schema(table))
    rng = SplitMix64(41)
    idx = list(range(data.n_samples))
    rng.shuffle(idx)
    sub = data.subset(sorted(idx[:120]))
    grouped = solve_milp(build_model(sub, preset("depth2")))
    simple = solve_milp(
        build_model(binarize_for_simple_branching(sub), preset("depth2"))
    )
    assert grouped.objective >= simple.objective


def test_monks3_small_run_reaches_perfection():
    table = monks(3)
    data = encode(table, build_schema(table))
    run = train_test_run(data, preset("depth3"), seed=0)
    assert run.train_metrics.accuracy == 1.0


def test_training_lowers_no_rows(monkeypatch):
    # The structured search reads a model's build structure only; no
    # protocol makes a single variable, objective term or row.
    import grouptree.experiments as experiments_mod
    import grouptree.model as model_mod

    made = {"Variable": [], "Constraint": []}
    for kind, names in made.items():
        def counted(*args, _names=names, _make=getattr(model_mod, kind), **kwargs):
            _names.append(args[0])
            return _make(*args, **kwargs)

        monkeypatch.setattr(model_mod, kind, counted)
    models = []

    def recorded(*args, **kwargs):
        models.append(build_model(*args, **kwargs))
        return models[-1]

    monkeypatch.setattr(experiments_mod, "build_model", recorded)
    data = random_dataset(random.Random(16), 30, [2, 3, 2])
    assert set(data.labels.tolist()) == {-1, 1}
    train_test_run(data, preset("depth2"), seed=1)
    cross_validate_topology(data, [preset("depth2"), preset("depth2_5")], seed=1)
    sensitivity_sweep(data, preset("depth2"), [Fraction(1, 2), Fraction(1)], seed=1)
    assert made == {"Variable": [], "Constraint": []} and len(models) == 1 + 9 + 2
    # nor an objective: no model has any part set
    parts = ("variables", "objective", "constraints")
    assert not any(name in vars(m) for m in models for name in parts)
    # the counts do see the parts of a model that something reads
    model = build_model(data, preset("depth2"))
    assert len(model.objective) > 0
    assert len(model.variables) == len(made["Variable"]) > 0
    assert len(model.constraints) == len(made["Constraint"]) > 0
