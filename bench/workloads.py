"""The benchmark's workloads: inputs drawn from the seed, one task, its checks.

A workload prepares its data once (regenerate, CSV round trip through
``parse_table``, ``encode``), draws its task inputs from the workload seed,
and then runs tasks through grouptree's public functions.  Each task returns
what the library returned; ``check`` then judges it without help from the
library's own scoring: every returned tree is re-scored by ``route_leaves``
below, and objectives are compared with the oracle or with committed values.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import ceil
from time import perf_counter

import numpy as np

from grouptree import datasets, encoding, experiments, mps, oracle, solver
from grouptree import model as gt_model
from grouptree.topology import preset

TOL = 1e-6
FLOORS = tuple(Fraction(x) for x in ("0.95", "0.96", "0.97", "0.98", "0.99", "1.0"))


def load_table(regen, timings: dict) -> encoding.EncodedDataset:
    """Regenerate a built-in table, round-trip it through CSV, encode it."""
    t0 = perf_counter()
    table = regen()
    text = datasets.to_csv(table)
    t1 = perf_counter()
    parsed = encoding.parse_table(text)
    t2 = perf_counter()
    data = encoding.encode(parsed, encoding.build_schema(parsed))
    t3 = perf_counter()
    if parsed != table:
        raise RuntimeError("CSV round trip changed the table")
    timings["datasets.regen_s"] += t1 - t0
    timings["encoding.parse_s"] += t2 - t1
    timings["encoding.encode_s"] += t3 - t2
    return data


def random_instance(rng: random.Random, n: int, sizes) -> encoding.EncodedDataset:
    """Uniform one-hot samples over groups of the given sizes, random ±1 labels."""
    groups, f = [], 0
    for c, size in enumerate(sizes):
        groups.append(tuple((f + t, f"col{c}", f"v{t}") for t in range(size)))
        f += size
    schema = encoding.GroupSchema(groups=tuple(groups))
    matrix = np.zeros((n, f), dtype=np.uint8)
    for i in range(n):
        for members in groups:
            matrix[i, members[rng.randrange(len(members))][0]] = 1
    labels = np.array([rng.choice((-1, 1)) for _ in range(n)], dtype=np.int8)
    return encoding.EncodedDataset(matrix=matrix, labels=labels, schema=schema)


def route_leaves(tree, matrix: np.ndarray) -> np.ndarray:
    """Leaf reached by each row: left when the row's feature is in the node's subset."""
    leaves = np.zeros(len(matrix), dtype=np.int64)
    children = tree.topology.children

    def walk(child, rows):
        kind, k = child
        if kind == "leaf":
            leaves[rows] = k
            return
        feats = sorted(tree.tests[k][1])
        left = matrix[np.ix_(rows, feats)].any(axis=1) if feats else np.zeros(len(rows), bool)
        walk(children[k][0], rows[left])
        walk(children[k][1], rows[~left])

    walk(("node", tree.topology.root), np.arange(len(matrix)))
    return leaves


def rescore(tree, data, rows=None) -> tuple[int, int, int]:
    """(correct positives, correct negatives, negatives) over ``rows``; even leaves predict +1."""
    matrix = data.matrix if rows is None else data.matrix[np.asarray(rows, dtype=int)]
    labels = data.labels if rows is None else data.labels[np.asarray(rows, dtype=int)]
    positive = route_leaves(tree, matrix) % 2 == 0
    negatives = labels == -1
    return int(np.sum(positive & ~negatives)), int(np.sum(~positive & negatives)), int(negatives.sum())


def check_optimal(problems: list, what: str, result, expected: float) -> None:
    if result.status != solver.OPTIMAL:
        problems.append(f"{what}: status {result.status}")
    elif abs(result.objective - expected) > TOL:
        problems.append(f"{what}: objective {result.objective} but expected {expected}")


def outcome(result, tree_text: str = "") -> tuple:
    objective = None if result.objective is None else round(float(result.objective), 6)
    return (result.status, objective, tree_text)


def check_train_run(problems: list, what: str, data, run) -> list:
    """A ``TrainTestResult`` must be optimal and its tree must score its objective."""
    tp, tn, _ = rescore(run.tree, data, run.train_indices)
    check_optimal(problems, what, run.solve, tp + tn)
    return [outcome(run.solve, run.tree.to_json())]


def split_seeds(name: str, seed: int, count: int) -> list[int]:
    rng = random.Random(f"{name}:{seed}")
    return [rng.randrange(1, 2**31) for _ in range(count)]


class Monks1Imbalanced:
    name = "monks1-imbalanced"
    why = "accuracy mode with a real search tree: the structured engine's leaf completion dominates"
    size = "monks-1, 432 rows x 17 features in 6 groups, 389 training rows, imbalanced shape (4 decision nodes)"
    tasks_per_s_cap = 2
    reference_inputs = (1,)

    def prepare(self, timings):
        self.data = load_table(lambda: datasets.monks(1), timings)
        self.topology = preset("imbalanced")

    def inputs(self, seed, count):
        return split_seeds(self.name, seed, count)

    def run(self, split):
        return experiments.train_test_run(self.data, self.topology, seed=split)

    def check(self, split, run, problems):
        return check_train_run(problems, f"split {split}", self.data, run)


class ProtocolLight:
    name = "protocol-light"
    why = "short solves, so MILP lowering, subset, extraction and evaluation are half of task time"
    size = (
        "tic-tac-toe 958 rows x 27 features, 600 training rows, depth2; monks-3 432 rows x 17 features, "
        "389 training rows, depth3; monks-3 4-fold cv over depth2, depth2_5, depth3"
    )
    tasks_per_s_cap = 60
    kinds = ("ttt-depth2", "monks3-depth3", "monks3-cv")
    reference_inputs = (("ttt-depth2", 1), ("monks3-depth3", 1), ("monks3-cv", 1))

    def prepare(self, timings):
        self.ttt = load_table(datasets.tic_tac_toe, timings)
        self.monks3 = load_table(lambda: datasets.monks(3), timings)
        self.shapes = [preset(s) for s in ("depth2", "depth2_5", "depth3")]

    def inputs(self, seed, count):
        seeds = split_seeds(self.name, seed, count // len(self.kinds) + 1)
        k = len(self.kinds)
        return [(self.kinds[i % k], seeds[i // k]) for i in range(count)]

    def run(self, inp):
        kind, split = inp
        if kind == "ttt-depth2":
            return experiments.train_test_run(self.ttt, self.shapes[0], seed=split)
        if kind == "monks3-depth3":
            return experiments.train_test_run(self.monks3, self.shapes[2], seed=split)
        return experiments.cross_validate_topology(self.monks3, self.shapes, seed=split)

    def check(self, inp, run, problems):
        kind, split = inp
        what = f"{kind} split {split}"
        if kind == "ttt-depth2":
            return check_train_run(problems, what, self.ttt, run)
        if kind == "monks3-depth3":
            return check_train_run(problems, what, self.monks3, run)
        if run.chosen not in {s.name for s in self.shapes}:
            problems.append(f"{what}: chose unknown shape {run.chosen}")
        (status, objective, tree_text), = check_train_run(problems, what, self.monks3, run.final)
        return [(status, objective, f"{run.chosen}:{tree_text}")]


class ClinicSweep:
    name = "clinic-sweep"
    why = "constrained max_sensitivity mode: the DP-table closure at the root, one floor per task"
    size = "synthetic_clinic 695 rows x 54 features in 9 groups, 626 training rows, depth2, six specificity floors"
    tasks_per_s_cap = 5
    reference_inputs = ((FLOORS[0], 2),)

    def prepare(self, timings):
        self.data = load_table(datasets.synthetic_clinic, timings)
        self.topology = preset("depth2")

    def inputs(self, seed, count):
        seeds = split_seeds(self.name, seed, count)
        return [(FLOORS[i % len(FLOORS)], s) for i, s in enumerate(seeds)]

    def run(self, inp):
        floor, split = inp
        trees = []
        extract = experiments.extract_tree

        def keep(*args, **kwargs):
            trees.append(extract(*args, **kwargs))
            return trees[-1]

        experiments.extract_tree = keep
        try:
            (row,) = experiments.sensitivity_sweep(self.data, self.topology, [floor], seed=split)
        finally:
            experiments.extract_tree = extract
        return row, trees[0]

    def check(self, inp, out, problems):
        floor, split = inp
        row, tree = out
        train, _ = experiments.protocol_split(self.data.n_samples, split)
        tp, tn, negatives = rescore(tree, self.data, train)
        what = f"floor {floor} split {split}"
        check_optimal(problems, what, row, tp)
        if tn < ceil(floor * negatives):
            problems.append(f"{what}: {tn} of {negatives} negatives is below the floor")
        return [outcome(row, tree.to_json())]


class VerifyLp:
    name = "verify-lp"
    why = "the checking path: MPS round trip, LP-engine branch and bound and the oracle on small random instances"
    size = "batches of 4 depth2 instances (14 rows, groups 2+3+3) and 1 depth2_5 instance (10 rows, groups 2+3)"
    tasks_per_s_cap = 10
    batch = (("depth2", 14, (2, 3, 3)),) * 4 + (("depth2_5", 10, (2, 3)),)

    def prepare(self, timings):
        self.shapes = {s: preset(s) for s in ("depth2", "depth2_5")}
        # three batches: a single one is timed over too short a span for a steady set-up time
        rng = random.Random(f"{self.name}:reference")
        self.reference_inputs = tuple(self.make_batch(rng) for _ in range(3))

    def make_batch(self, rng):
        return [(random_instance(rng, n, sizes), self.shapes[s]) for s, n, sizes in self.batch]

    def inputs(self, seed, count):
        rng = random.Random(f"{self.name}:{seed}")
        return [self.make_batch(rng) for _ in range(count)]

    def run(self, batch):
        out = []
        for data, topology in batch:
            model = gt_model.build_model(data, topology)
            parsed = mps.parse_mps(mps.export_mps(model))
            same = model.semantically_equal(parsed)
            lp = solver.solve_milp(parsed, method="lp")
            best, best_tree = oracle.enumerate_optimal(data, topology, budget=10**10)
            structured = solver.solve_milp(model)
            tree = solver.extract_tree(structured, topology, data.schema)
            out.append((data, same, lp, float(best), best_tree, structured, tree))
        return out

    def check(self, batch, out, problems):
        outcomes = []
        for i, (data, same, lp, best, best_tree, structured, tree) in enumerate(out):
            what = f"instance {i}"
            if not same:
                problems.append(f"{what}: MPS round trip is not semantically equal")
            for who, scored in (("oracle", best_tree), ("structured", tree)):
                tp, tn, _ = rescore(scored, data)
                if tp + tn != best:
                    problems.append(f"{what}: {who} tree scores {tp + tn}, oracle says {best}")
            check_optimal(problems, f"{what} structured", structured, best)
            check_optimal(problems, f"{what} LP engine", lp, best)
            outcomes += [outcome(structured, tree.to_json()), outcome(lp)]
        return outcomes


WORKLOADS = {w.name: w for w in (Monks1Imbalanced, ProtocolLight, ClinicSweep, VerifyLp)}
