"""Training protocols: seeded splits, topology cross-validation, rate sweeps.

Every split draws from one SplitMix64 stream seeded by the run seed, so a
(dataset, seed) pair fixes the training set, the folds, and therefore the
whole artifact chain bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import ceil

from .encoding import EncodedDataset
from .errors import InvalidConfigError
from .model import BuildConfig, build_model
from .rng import SplitMix64
from .solver import OPTIMAL, SolveConfig, SolveResult, extract_tree, solve_milp
from .topology import TreeTopology
from .tree import DecisionTree, Metrics, evaluate

TRAIN_CAP = 600


@dataclass(frozen=True)
class TrainTestResult:
    seed: int
    train_indices: tuple[int, ...]
    test_indices: tuple[int, ...]
    train_metrics: Metrics
    test_metrics: Metrics
    tree: DecisionTree
    solve: SolveResult

    @property
    def hit_time_limit(self) -> bool:
        return self.solve.status != OPTIMAL


@dataclass(frozen=True)
class CrossValidationResult:
    seed: int
    chosen: str
    mean_validation_accuracy: dict[str, float]
    final: TrainTestResult
    chosen_leaf_count: int


@dataclass(frozen=True)
class SweepRow:
    floor: Fraction
    train_sensitivity: float
    train_specificity: float
    test_sensitivity: float
    test_specificity: float
    status: str
    objective: float


def protocol_split(n_samples: int, seed: int, rng: SplitMix64 | None = None):
    """Training set of size min(ceil(0.9 n), 600) drawn without replacement."""
    if n_samples < 10:
        raise InvalidConfigError("need at least 10 samples to split")
    rng = rng or SplitMix64(seed)
    idx = list(range(n_samples))
    rng.shuffle(idx)
    train_size = min(ceil(0.9 * n_samples), TRAIN_CAP)
    return sorted(idx[:train_size]), sorted(idx[train_size:])


def _fit(train: EncodedDataset, topology, config, solve_config):
    """Build the integer program, solve it, read the tree back.

    The structured search reads only the model's build structure, so
    training builds none of its variables, objective or rows
    (``build_model`` makes them on first read).  Every protocol trains
    through here.  ``build_model``, ``solve_milp`` and ``extract_tree`` are
    module globals looked up at call time, so callers can wrap them in this
    module.
    """
    model = build_model(train, topology, config)
    result = solve_milp(model, solve_config)
    return extract_tree(result, topology, train.schema), result


def _train_test(data, train_idx, test_idx, topology, config, solve_config, seed):
    """Train on ``train_idx`` and score the tree on both sides."""
    train = data.subset(train_idx)
    test = data.subset(test_idx)
    tree, result = _fit(train, topology, config, solve_config)
    return TrainTestResult(
        seed=seed,
        train_indices=tuple(train_idx),
        test_indices=tuple(test_idx),
        train_metrics=evaluate(tree, train),
        test_metrics=evaluate(tree, test),
        tree=tree,
        solve=result,
    )


def train_test_run(
    data: EncodedDataset,
    topology: TreeTopology,
    config: BuildConfig | None = None,
    solve_config: SolveConfig | None = None,
    seed: int = 0,
) -> TrainTestResult:
    """One protocol run: split, train to (near-)optimality, score both sides."""
    train_idx, test_idx = protocol_split(data.n_samples, seed)
    config, solve_config = config or BuildConfig(), solve_config or SolveConfig()
    return _train_test(data, train_idx, test_idx, topology, config, solve_config, seed)


def cross_validate_topology(
    data: EncodedDataset,
    topologies: list[TreeTopology],
    config: BuildConfig | None = None,
    solve_config: SolveConfig | None = None,
    seed: int = 0,
) -> CrossValidationResult:
    """Pick a shape by 4-fold cross-validation, then train it on the pool.

    Ties go to the shape with fewer leaves, then to list order.  Shapes are
    told apart by name, so two with the same name (every parenthesis shape
    is ``custom``) are refused.
    """
    if len(topologies) < 2:
        raise InvalidConfigError("cross-validation needs at least two topologies")
    names = [topo.name for topo in topologies]
    for name in names:
        if names.count(name) > 1:
            raise InvalidConfigError(f"two topologies are named {name!r}; cross-validation "
                                     "tells its candidates apart by name")
    config = config or BuildConfig()
    solve_config = solve_config or SolveConfig()
    rng = SplitMix64(seed)
    pool_idx, test_idx = protocol_split(data.n_samples, seed, rng)
    fold_order = list(pool_idx)
    rng.shuffle(fold_order)
    folds = [sorted(fold_order[f::4]) for f in range(4)]

    mean_acc: dict[str, float] = {}
    for topo in topologies:
        accs = []
        for val_idx in folds:
            fit_idx = sorted(set(pool_idx) - set(val_idx))
            fit, val = data.subset(fit_idx), data.subset(val_idx)
            tree, _ = _fit(fit, topo, config, solve_config)
            accs.append(evaluate(tree, val).accuracy)
        mean_acc[topo.name] = sum(accs) / len(accs)

    def rank(item):
        pos, topo = item
        return (-mean_acc[topo.name], topo.n_leaves, pos)

    _, chosen = min(enumerate(topologies), key=rank)

    final = _train_test(data, pool_idx, test_idx, chosen, config, solve_config, seed)
    return CrossValidationResult(
        seed=seed,
        chosen=chosen.name,
        mean_validation_accuracy=mean_acc,
        final=final,
        chosen_leaf_count=chosen.n_leaves,
    )


def sensitivity_sweep(
    data: EncodedDataset,
    topology: TreeTopology,
    floors: list[Fraction],
    config: BuildConfig | None = None,
    solve_config: SolveConfig | None = None,
    seed: int = 0,
) -> list[SweepRow]:
    """Maximize training sensitivity at a sweep of specificity floors.

    One solve per floor, all on the same protocol split, rows in input order.
    """
    base = config or BuildConfig()
    solve_config = solve_config or SolveConfig()
    train_idx, test_idx = protocol_split(data.n_samples, seed)
    rows = []
    for beta in map(Fraction, floors):
        cfg = replace(base, min_specificity=beta, min_sensitivity=None)
        run = _train_test(data, train_idx, test_idx, topology, cfg, solve_config, seed)
        train_m, test_m = run.train_metrics, run.test_metrics
        rows.append(
            SweepRow(
                floor=beta,
                train_sensitivity=train_m.sensitivity,
                train_specificity=train_m.specificity,
                test_sensitivity=test_m.sensitivity,
                test_specificity=test_m.specificity,
                status=run.solve.status,
                objective=run.solve.objective,
            )
        )
    return rows
