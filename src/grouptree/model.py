"""Neutral integer-program representation of the tree-training problem.

``build_model`` lowers (dataset, topology, config) to named variables, linear
rows, and an objective: plain lists and a tuple, as ``grouptree.mps``
parses them.  A built model makes all three the first time one of them is
read: export and the LP engine read them, training with the structured
search reads none of them.  The representation is solver- and
format-agnostic; ``grouptree.mps`` serializes it and ``grouptree.solver``
optimizes it.

Naming scheme (all deterministic):
  variables  V_<node>_<group>, Z_<node>_<feature>, C_<sample>_<leaf>
  rows       ONEGRP_<node>, LINK_<node>_<feature>,
             LEFT_<sample>_<node>, RIGHT_<sample>_<node>     (aggregated form)
             LEFTB/RIGHTB_<sample>_<node>_<leaf>             (per-leaf form)
             ANCH_<node>_<group>, PICK_<sample>,
             MINPICK/MAXPICK_<node>_<group>, SPEC
Nodes and leaves are 1-based (topology ids); groups, features, and samples
are 0-based (schema/dataset ids).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil

import numpy as np

from .encoding import EncodedDataset
from .errors import EmptyClassError, InvalidConfigError
from .topology import TreeTopology


@dataclass(frozen=True)
class BuildConfig:
    """Switches for the model variants, and the objective.

    The defaults build the tightened form: aggregated routing rows, anchor
    equalities at eligible nodes, wrong-class routing variables dropped, and
    integrality kept only where it is actually needed.  At most one floor
    is set, and it chooses the ``mode``; only accuracy mode, with no floor,
    reads ``class_weight``, so a weight other than 1 with a floor is refused.
    """

    strengthen: bool = True
    anchor: bool = True
    relax_integrality: bool = True
    drop_unused_c: bool = True
    forbid_trivial_branch: bool = False
    class_weight: Fraction = Fraction(1)
    min_specificity: Fraction | None = None
    min_sensitivity: Fraction | None = None

    def __post_init__(self):
        object.__setattr__(self, "class_weight", Fraction(self.class_weight))
        if self.class_weight <= 0:
            raise InvalidConfigError("class_weight must be positive")
        # both engines read its numerator and denominator as floats;
        # ``objective`` checks their sums over the classes of the data
        try:
            float(self.class_weight.numerator), float(self.class_weight.denominator)
        except OverflowError:
            raise InvalidConfigError(
                "class_weight is too large or too small: its numerator and "
                "denominator must each fit in a float"
            ) from None
        floors = [f for f in ("min_specificity", "min_sensitivity") if getattr(self, f) is not None]
        if len(floors) > 1:
            raise InvalidConfigError("min_specificity and min_sensitivity are exclusive")
        for name in floors:
            object.__setattr__(self, name, Fraction(getattr(self, name)))
            if not 0 <= getattr(self, name) <= 1:
                raise InvalidConfigError(f"{name} must be in [0, 1]")
        if floors and self.class_weight != 1:
            raise InvalidConfigError(
                f"class_weight applies only in accuracy mode, not with {floors[0]}"
            )

    @property
    def mode(self) -> str:
        """``max_sensitivity`` under ``min_specificity``, ``max_specificity``
        under ``min_sensitivity``, else ``accuracy``."""
        if self.min_specificity is None:
            return "accuracy" if self.min_sensitivity is None else "max_specificity"
        return "max_sensitivity"

    def objective(self, n_pos: int, n_neg: int) -> tuple[int, int, int, int, int]:
        """This mode for ``n_pos`` positives and ``n_neg`` negatives.

        Returns ``(gain_pos, gain_neg, scale, floored, floor)``: a correct
        positive adds ``gain_pos / scale`` to the objective, a correct
        negative ``gain_neg / scale``, and at least ``floor`` samples labelled
        ``floored`` must be correct (both 0 in accuracy mode).  This is the
        one definition that ``build_model`` and the structured search read.
        Raises ``InvalidConfigError`` when the sum of the gains over every
        sample does not convert to a float.
        """
        weight = self.class_weight
        if self.mode == "accuracy":
            goal = weight.denominator, weight.numerator, weight.denominator, 0, 0
        elif self.mode == "max_sensitivity":
            goal = 1, 0, 1, -1, ceil(self.min_specificity * n_neg)
        else:
            goal = 0, 1, 1, 1, ceil(self.min_sensitivity * n_pos)
        try:
            float(n_pos * goal[0] + n_neg * goal[1])
        except OverflowError:
            raise InvalidConfigError(
                f"class_weight is too large or too small for {n_pos} positives "
                f"and {n_neg} negatives: its weighted sums overflow a float"
            ) from None
        return goal

    def as_dict(self) -> dict:
        return {
            "strengthen": self.strengthen,
            "anchor": self.anchor,
            "relax_integrality": self.relax_integrality,
            "drop_unused_c": self.drop_unused_c,
            "forbid_trivial_branch": self.forbid_trivial_branch,
            "class_weight": str(self.class_weight),
            "mode": self.mode,
            "min_specificity": None
            if self.min_specificity is None
            else str(self.min_specificity),
            "min_sensitivity": None
            if self.min_sensitivity is None
            else str(self.min_sensitivity),
        }


@dataclass(frozen=True)
class Variable:
    name: str
    lower: float
    upper: float
    is_integer: bool


@dataclass(frozen=True)
class Constraint:
    name: str
    coeffs: tuple[tuple[str, float], ...]
    sense: str  # "<=", "=", ">="
    rhs: float


@dataclass(frozen=True)
class ModelStructure:
    """Link back to the problem a model was built from (not serialized)."""

    data: EncodedDataset
    topology: TreeTopology
    config: BuildConfig


# a model's parts, in the order that ``build_model``'s builder returns them
_PARTS = ("variables", "objective", "constraints")


@dataclass
class MilpModel:
    """A mixed-integer program.  ``build_model`` leaves ``variables``,
    ``objective`` and ``constraints`` unset and keeps its builder: the first
    read of any of them sets all three as plain attributes (``__getattr__``).
    """

    name: str
    sense: str  # "max" or "min"
    variables: list[Variable]
    constraints: list[Constraint]
    objective: tuple[tuple[str, float], ...]
    structure: ModelStructure | None = None

    def __getattr__(self, name: str):
        # runs only for an attribute that is not set
        build = self.__dict__.pop("_build", None) if name in _PARTS else None
        if build is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        for part, value in zip(_PARTS, build()):
            self.__dict__.setdefault(part, value)  # a part set before this read stays
        return self.__dict__[name]

    def __getstate__(self) -> dict:
        # the builder is a local function: a pickle or a copy holds the parts
        if "_build" in self.__dict__:
            self.__getattr__("variables")  # sets all three
        return self.__dict__

    def variable_index(self) -> dict[str, int]:
        return {v.name: idx for idx, v in enumerate(self.variables)}

    def semantically_equal(self, other: "MilpModel") -> bool:
        """Equality of names, bounds, integrality, rows, and objective.

        Coefficient order within a row is immaterial (serialization is
        column-major while rows are built row-major).
        """
        if self.sense != other.sense or self.variables != other.variables:
            return False
        if len(self.constraints) != len(other.constraints):
            return False
        for a, b in zip(self.constraints, other.constraints):
            if (a.name, a.sense, a.rhs) != (b.name, b.sense, b.rhs):
                return False
            if dict(a.coeffs) != dict(b.coeffs):
                return False
        return dict(self.objective) == dict(other.objective)

    def objective_is_integral(self) -> bool:
        return all(float(c).is_integer() for _, c in self.objective)


def build_model(
    data: EncodedDataset, topology: TreeTopology, config: BuildConfig | None = None
) -> MilpModel:
    """Lower the training problem to a mixed-integer program.

    Per decision node, exactly one group is selected and a feature subset of
    it; a sample goes left when its active feature is in the subset.  Routing
    variables tie samples to leaves; the objective weighs the samples routed
    to a leaf of their own class, and the ``SPEC`` row floors one class, as
    ``config.objective`` defines them.

    Only validation is done at the call (``EmptyClassError``, and
    ``InvalidConfigError`` for a ``class_weight`` whose weighted sums
    overflow a float), with a snapshot of the labels and active features.
    The model keeps a builder in place of its parts: the variables,
    objective and rows are built together from that snapshot the first time
    any of them is read (``MilpModel.__getattr__``), so a caller that reads
    none of them, such as training with the structured search, builds none.
    Names and ``(name, coefficient)`` pairs are built once per model and
    shared by every row that uses them; rows only assemble tuples of them.
    """
    config = config or BuildConfig()
    n, d = data.n_samples, data.n_features
    n_pos = int((data.labels == 1).sum())
    n_neg = n - n_pos
    if config.mode != "accuracy" and (n_pos == 0 or n_neg == 0):
        raise EmptyClassError(f"mode {config.mode} needs both classes present")
    gain_pos, gain_neg, scale, floored, floor = config.objective(n_pos, n_neg)
    # all that the parts read of the data, as it is at the call
    schema, labels = data.schema, data.labels.tolist()
    rows, cols = np.nonzero(data.matrix == 1)

    def build() -> tuple[list[Variable], tuple[tuple[str, float], ...], list[Constraint]]:
        nodes = topology.decision_nodes
        groups = range(schema.n_groups)
        v_names = {k: [f"V_{k}_{g}" for g in groups] for k in nodes}
        z_names = {k: [f"Z_{k}_{j}" for j in range(d)] for k in nodes}
        # the leaves each sample keeps a routing variable for, with its pairs
        pos_leaves, neg_leaves = topology.positive_leaves, topology.negative_leaves
        if config.drop_unused_c:
            sample_leaves = [pos_leaves if y == 1 else neg_leaves for y in labels]
        else:
            sample_leaves = [tuple(topology.leaves)] * n
        c_plus = [
            {b: (f"C_{i}_{b}", 1.0) for b in leaves}
            for i, leaves in enumerate(sample_leaves)
        ]
        # each sample's active features, in feature order
        flat = cols.tolist()
        ends = np.bincount(rows, minlength=n).cumsum().tolist()
        active = [flat[a:b] for a, b in zip([0] + ends, ends)]
        group_of = [schema.group_of(j) for j in range(d)]
        anchors = [schema.anchor_feature(g) for g in groups]
        group_feats = [schema.features_of(g) for g in groups]

        # With the accuracy objective, integrality can be dropped everywhere
        # except the feature bits above the leaf-adjacent level.  The floored
        # modes lose that property (a fractional leaf-level test can beat every
        # integral one while meeting the floor), so there all z stay integral.
        integral = not config.relax_integrality
        relax_leaf_z = config.relax_integrality and config.mode == "accuracy"
        variables = [Variable(name, 0.0, 1.0, integral) for k in nodes for name in v_names[k]]
        for k in nodes:
            is_int = integral or k not in topology.leaf_adjacent or not relax_leaf_z
            variables += [Variable(name, 0.0, 1.0, is_int) for name in z_names[k]]
        variables += [
            Variable(name, 0.0, 1.0, integral)
            for pairs in c_plus
            for name, _ in pairs.values()
        ]

        # the routing variables that count a sample correct, per label
        correct = {
            label: tuple(
                c_plus[i][b][0] for i, y in enumerate(labels) if y == label for b in leaves
            )
            for label, leaves in ((1, pos_leaves), (-1, neg_leaves))
        }
        terms = (correct[1], gain_pos / scale), (correct[-1], gain_neg / scale)
        objective = tuple((name, coef) for names, coef in terms if coef for name in names)

        v_minus = {k: [(name, -1.0) for name in v_names[k]] for k in nodes}
        z_plus = {k: [(name, 1.0) for name in z_names[k]] for k in nodes}
        z_minus = {k: [(name, -1.0) for name in z_names[k]] for k in nodes}
        constraints = [
            Constraint(f"ONEGRP_{k}", tuple((name, 1.0) for name in v_names[k]), "=", 1.0)
            for k in nodes
        ]
        for k in nodes:
            constraints += [
                Constraint(f"LINK_{k}_{j}", (z_plus[k][j], v_minus[k][group_of[j]]), "<=", 0.0)
                for j in range(d)
            ]

        if config.strengthen:
            # per node, the sample's leaves below its left and its right branch
            below = {
                leaves: {
                    k: (
                        [b for b in leaves if k in topology.left_path[b]],
                        [b for b in leaves if k in topology.right_path[b]],
                    )
                    for k in nodes
                }
                for leaves in set(sample_leaves)
            }
            for i in range(n):
                hot, pairs, sides = active[i], c_plus[i], below[sample_leaves[i]]
                for k in nodes:
                    left_bs, right_bs = sides[k]
                    if left_bs:
                        minus = z_minus[k]
                        coeffs = tuple([pairs[b] for b in left_bs] + [minus[j] for j in hot])
                        constraints.append(Constraint(f"LEFT_{i}_{k}", coeffs, "<=", 0.0))
                    if right_bs:
                        plus = z_plus[k]
                        coeffs = tuple([pairs[b] for b in right_bs] + [plus[j] for j in hot])
                        constraints.append(Constraint(f"RIGHT_{i}_{k}", coeffs, "<=", 1.0))
        else:
            left_nodes = {b: sorted(topology.left_path[b]) for b in topology.leaves}
            right_nodes = {b: sorted(topology.right_path[b]) for b in topology.leaves}
            for i in range(n):
                hot, pairs = active[i], c_plus[i]
                for b, pair in pairs.items():
                    for k in left_nodes[b]:
                        minus = z_minus[k]
                        coeffs = tuple([pair] + [minus[j] for j in hot])
                        constraints.append(Constraint(f"LEFTB_{i}_{k}_{b}", coeffs, "<=", 0.0))
                    for k in right_nodes[b]:
                        plus = z_plus[k]
                        coeffs = tuple([pair] + [plus[j] for j in hot])
                        constraints.append(Constraint(f"RIGHTB_{i}_{k}_{b}", coeffs, "<=", 1.0))
            if not config.drop_unused_c:
                constraints += [
                    Constraint(f"PICK_{i}", tuple(pairs.values()), "=", 1.0)
                    for i, pairs in enumerate(c_plus)
                ]

        if config.anchor:
            for k in sorted(topology.anchor_eligible):
                constraints += [
                    Constraint(f"ANCH_{k}_{g}", (z_plus[k][anchors[g]], v_minus[k][g]), "=", 0.0)
                    for g in groups
                ]

        if config.forbid_trivial_branch:
            for k in nodes:
                for g in groups:
                    feats = group_feats[g]
                    z_terms = tuple(z_plus[k][j] for j in feats)
                    constraints.append(
                        Constraint(f"MINPICK_{k}_{g}", z_terms + (v_minus[k][g],), ">=", 0.0)
                    )
                    constraints.append(
                        Constraint(
                            f"MAXPICK_{k}_{g}",
                            z_terms + ((v_names[k][g], -(len(feats) - 1.0)),),
                            "<=",
                            0.0,
                        )
                    )

        if floored:
            spec = tuple((name, 1.0) for name in correct[floored])
            constraints.append(Constraint("SPEC", spec, ">=", float(floor)))
        return variables, objective, constraints

    model = object.__new__(MilpModel)  # its parts stay unset until read
    model.__dict__.update(
        name=f"GT_{topology.name}_N{n}_d{d}",
        sense="max",
        structure=ModelStructure(data=data, topology=topology, config=config),
        _build=build,
    )
    return model


def model_stats(model: MilpModel) -> dict:
    """Row/column/integrality/nonzero counts of a model."""
    return {
        "rows": len(model.constraints),
        "columns": len(model.variables),
        "integer_columns": sum(1 for v in model.variables if v.is_integer),
        "nonzeros": sum(len(c.coeffs) for c in model.constraints),
    }
