"""Categorical tables and their grouped one-hot binary encoding.

Each categorical column becomes a *group* of binary features, one feature per
category observed in that column.  In the encoded matrix exactly one feature
per group is 1 for every sample.  Feature and group order is fixed by
(column order, category value) so every downstream artifact is deterministic.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyTableError,
    MalformedRowError,
    NonBinaryLabelError,
    UnknownCategoryError,
)


@dataclass(frozen=True)
class RawTable:
    """Categorical rows plus ±1 labels, prior to binary encoding."""

    column_names: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]
    labels: tuple[int, ...]

    def __post_init__(self):
        for r, row in enumerate(self.rows):
            if len(row) != len(self.column_names):
                raise MalformedRowError(
                    f"row {r} has {len(row)} fields, expected {len(self.column_names)}"
                )
        if len(self.labels) != len(self.rows):
            raise MalformedRowError("labels length does not match row count")
        if any(y not in (-1, 1) for y in self.labels):
            raise NonBinaryLabelError("labels must be -1 or +1")

    @property
    def n_rows(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class GroupSchema:
    """Feature layout: one ordered group of (feature, column, category) per column.

    The features are numbered ``0 .. d-1`` in group order: a tree, and its
    JSON, which stores only the group sizes, read group ``g`` as the
    features that follow the first ``g`` groups.  Any other numbering is a
    ``MalformedRowError``.
    """

    groups: tuple[tuple[tuple[int, str, str], ...], ...]

    def __post_init__(self):
        ids = [f for members in self.groups for f, _, _ in members]
        if ids != list(range(len(ids))):
            raise MalformedRowError(
                f"feature ids must be 0..{len(ids) - 1} in group order, got {ids}"
            )

    @property
    def n_groups(self) -> int:
        return len(self.groups)

    @property
    def n_features(self) -> int:
        return sum(len(g) for g in self.groups)

    @property
    def group_sizes(self) -> tuple[int, ...]:
        return tuple(len(g) for g in self.groups)

    def group_of(self, feature: int) -> int:
        return self._feature_to_group()[feature]

    def features_of(self, group: int) -> tuple[int, ...]:
        return tuple(f for f, _, _ in self.groups[group])

    def anchor_feature(self, group: int) -> int:
        return self.groups[group][0][0]

    def feature_label(self, feature: int) -> str:
        g = self.group_of(feature)
        for f, col, cat in self.groups[g]:
            if f == feature:
                return f"{col}={cat}"
        raise KeyError(feature)

    def group_name(self, group: int) -> str:
        return self.groups[group][0][1]

    def categories_of(self, group: int) -> tuple[str, ...]:
        return tuple(cat for _, _, cat in self.groups[group])

    def _feature_to_group(self) -> dict[int, int]:
        mapping = getattr(self, "_f2g", None)
        if mapping is None:
            mapping = {}
            for g, members in enumerate(self.groups):
                for f, _, _ in members:
                    mapping[f] = g
            object.__setattr__(self, "_f2g", mapping)
        return mapping


@dataclass(frozen=True)
class EncodedDataset:
    """One-hot sample matrix with group structure and ±1 labels.

    Construction checks what the solvers rely on: the matrix has one column
    per feature of the schema and the labels are one per row
    (``MalformedRowError``), every label is -1 or +1
    (``NonBinaryLabelError``), and every sample has exactly one feature set
    in each group (``UnknownCategoryError``).
    """

    matrix: np.ndarray  # N x d, uint8, read-only
    labels: np.ndarray  # N, int8, read-only
    schema: GroupSchema

    def __post_init__(self):
        matrix, labels = self.matrix, self.labels
        if matrix.ndim != 2 or matrix.shape[1] != self.schema.n_features:
            raise MalformedRowError(
                f"a matrix of shape {matrix.shape} for {self.schema.n_features} features"
            )
        if labels.shape != matrix.shape[:1]:
            raise MalformedRowError(f"labels of shape {labels.shape} for {len(matrix)} rows")
        if np.count_nonzero(np.abs(labels) != 1):
            raise NonBinaryLabelError("labels must be -1 or +1")
        matrix.setflags(write=False)
        labels.setflags(write=False)
        _check_one_hot(matrix, self.schema)

    @property
    def n_samples(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_features(self) -> int:
        return self.matrix.shape[1]

    def subset(self, indices) -> "EncodedDataset":
        idx = np.asarray(indices, dtype=int)
        return EncodedDataset(
            matrix=self.matrix[idx].copy(),
            labels=self.labels[idx].copy(),
            schema=self.schema,
        )

    def decode_row(self, i: int) -> tuple[str, ...]:
        """Recover the categorical cell values of sample ``i``."""
        values = []
        for g, members in enumerate(self.schema.groups):
            feats = [f for f, _, _ in members]
            on = [cat for (f, _, cat) in members if self.matrix[i, f] == 1]
            if len(on) != 1:
                raise UnknownCategoryError(
                    f"sample {i} is not one-hot in group {g} (features {feats})"
                )
            values.append(on[0])
        return tuple(values)

    def to_json(self) -> str:
        payload = {
            "schema": {
                "groups": [
                    {
                        "column": members[0][1],
                        "categories": [cat for _, _, cat in members],
                    }
                    for members in self.schema.groups
                ]
            },
            "labels": [int(y) for y in self.labels],
            "matrix": ["".join(str(int(v)) for v in row) for row in self.matrix],
        }
        return json.dumps(payload, indent=2)

    @staticmethod
    def from_json(text: str) -> "EncodedDataset":
        """Read a dataset written by ``to_json``; bad input raises a ``GroupTreeError``.

        A label other than -1 or +1 is a ``NonBinaryLabelError``, a row that
        is not one-hot an ``UnknownCategoryError``, anything else a
        ``MalformedRowError``.
        """
        try:
            payload = json.loads(text)
        except (ValueError, RecursionError) as exc:
            raise MalformedRowError(f"dataset is not JSON: {exc}") from None
        if not (
            isinstance(payload, dict)
            and isinstance(payload.get("schema"), dict)
            and _is_list(payload["schema"].get("groups"), dict)
            and all(
                isinstance(entry.get("column"), str)
                and _is_list(entry.get("categories"), str)
                and 0 < len(entry["categories"]) == len(set(entry["categories"]))
                for entry in payload["schema"]["groups"]
            )
            and isinstance(payload.get("labels"), list)
            and _is_list(payload.get("matrix"), str)
        ):
            raise MalformedRowError(
                "a dataset is a JSON object with schema.groups of {column, distinct "
                "categories}, a labels list and a matrix of text rows"
            )
        groups, d = [], 0
        for entry in payload["schema"]["groups"]:
            cats = entry["categories"]
            groups.append(tuple((d + t, entry["column"], c) for t, c in enumerate(cats)))
            d += len(cats)
        rows, labels = payload["matrix"], payload["labels"]
        if not all(type(y) is int for y in labels):
            raise NonBinaryLabelError("labels must be -1 or +1")
        for i, row in enumerate(rows):
            if len(row) != d or not set(row) <= {"0", "1"}:
                raise MalformedRowError(f"row {i} is not {d} characters 0 or 1")
        cells = np.frombuffer("".join(rows).encode("ascii"), dtype=np.uint8)
        try:
            labels = np.array(labels, dtype=np.int8)
        except OverflowError:  # beyond int8, so not -1 or +1 either
            raise NonBinaryLabelError("labels must be -1 or +1") from None
        return EncodedDataset(
            matrix=(cells - ord("0")).reshape(len(rows), d),
            labels=labels,
            schema=GroupSchema(groups=tuple(groups)),
        )


def parse_table(
    text: str,
    format: str = "csv",
    label_column: str | int | None = None,
    positive_label: str | None = None,
) -> RawTable:
    """Read a character stream into a RawTable.

    ``csv`` expects an RFC 4180 file with a header row; ``label_column`` names
    (or indexes) the label column and defaults to the last one.  ``monks``
    expects whitespace-separated integer attributes with the label first and a
    trailing identifier field that is ignored.

    Labels are mapped to ±1.  ``positive_label``, when given, is the raw
    value mapped to +1.  Otherwise values among ``-1``, ``1`` and ``+1`` map
    by value, and of any other two the lexicographically larger is +1.
    """
    if format == "csv":
        header, cells = _read_csv(text)
    elif format == "monks":
        header, cells = _read_monks(text)
        if label_column is None:
            label_column = 0
    else:
        raise ValueError(f"unknown format {format!r}")

    if not cells:
        raise EmptyTableError("no data rows")
    width = len(header)
    for r, row in enumerate(cells):
        if len(row) != width:
            raise MalformedRowError(f"row {r} has {len(row)} fields, expected {width}")

    if label_column is None:
        label_idx = width - 1
    elif isinstance(label_column, int):
        label_idx = label_column
    else:
        try:
            label_idx = header.index(label_column)
        except ValueError:
            raise MalformedRowError(f"no column named {label_column!r}") from None
    if not 0 <= label_idx < width:
        raise MalformedRowError(f"label column index {label_idx} out of range")

    raw_labels = [row[label_idx] for row in cells]
    labels = _map_labels(raw_labels, positive_label)
    column_names = tuple(c for i, c in enumerate(header) if i != label_idx)
    rows = tuple(
        tuple(v for i, v in enumerate(row) if i != label_idx) for row in cells
    )
    return RawTable(column_names=column_names, rows=rows, labels=labels)


def build_schema(table: RawTable) -> GroupSchema:
    """One group per column, categories sorted; the first feature anchors its group."""
    groups = []
    feature = 0
    for c, name in enumerate(table.column_names):
        categories = sorted({row[c] for row in table.rows})
        members = []
        for cat in categories:
            members.append((feature, name, cat))
            feature += 1
        groups.append(tuple(members))
    return GroupSchema(groups=tuple(groups))


def encode(table: RawTable, schema: GroupSchema) -> EncodedDataset:
    """One-hot encode ``table`` against ``schema``.

    Raises UnknownCategoryError when a cell value is absent from the schema,
    which is how schema/data mismatches (e.g. unseen test categories) surface.
    """
    n, d = table.n_rows, schema.n_features
    feature_of: list[dict[str, int]] = []
    for members in schema.groups:
        feature_of.append({cat: f for f, _, cat in members})
    matrix = np.zeros((n, d), dtype=np.uint8)
    for i, row in enumerate(table.rows):
        for c, value in enumerate(row):
            try:
                matrix[i, feature_of[c][value]] = 1
            except KeyError:
                raise UnknownCategoryError(
                    f"value {value!r} in column {schema.group_name(c)!r} "
                    "is not in the schema"
                ) from None
            except IndexError:
                raise UnknownCategoryError(
                    f"row {i} has more columns than the schema"
                ) from None
    labels = np.array(table.labels, dtype=np.int8)
    return EncodedDataset(matrix=matrix, labels=labels, schema=schema)


def binarize_for_simple_branching(data: EncodedDataset) -> EncodedDataset:
    """Rewrite so that every test can only look at a single original bit.

    Each original feature j becomes its own 2-member group (bit, complement),
    with the original bit first so it is the group's anchor.  The result has
    2d features in d groups and the same samples and labels.
    """
    n, d = data.matrix.shape
    matrix = np.zeros((n, 2 * d), dtype=np.uint8)
    matrix[:, 0::2] = data.matrix
    matrix[:, 1::2] = 1 - data.matrix
    groups = []
    for j in range(d):
        label = data.schema.feature_label(j)
        groups.append(
            (
                (2 * j, f"bit:{label}", "1"),
                (2 * j + 1, f"bit:{label}", "0"),
            )
        )
    schema = GroupSchema(groups=tuple(groups))
    return EncodedDataset(matrix=matrix, labels=data.labels.copy(), schema=schema)


def _is_list(value, kind) -> bool:
    return isinstance(value, list) and all(isinstance(v, kind) for v in value)


def _check_one_hot(matrix: np.ndarray, schema: GroupSchema) -> None:
    # per sample and group, the features set to 1; a cell neither 0 nor 1 fails its group
    sizes = schema.group_sizes
    groups = np.zeros((matrix.shape[1], len(sizes)), dtype=np.float32)
    features = [f for members in schema.groups for f, _, _ in members]
    groups[features, np.repeat(np.arange(len(sizes)), sizes)] = 1
    ones = matrix == 1
    bad = ones @ groups != 1
    if np.count_nonzero(ones) != np.count_nonzero(matrix):
        bad |= (ones != matrix) @ groups != 0
    if bad.any():
        g = int(np.flatnonzero(bad.any(axis=0))[0])
        raise UnknownCategoryError(
            f"sample {int(np.flatnonzero(bad[:, g])[0])} does not have exactly one "
            f"feature set in group {g}"
        )


def _map_labels(raw_labels: list[str], positive_label: str | None) -> tuple[int, ...]:
    distinct = sorted(set(raw_labels))
    if len(distinct) > 2:
        raise NonBinaryLabelError(
            f"label column has {len(distinct)} distinct values: {distinct[:5]}..."
        )
    if positive_label is not None:
        if positive_label not in distinct:
            raise NonBinaryLabelError(
                f"positive label {positive_label!r} not among {distinct}"
            )
        return tuple(1 if v == positive_label else -1 for v in raw_labels)
    if set(distinct) <= {"-1", "1", "+1"}:
        return tuple(-1 if v == "-1" else 1 for v in raw_labels)
    positive = distinct[-1]  # lexicographically larger value maps to +1
    return tuple(1 if v == positive else -1 for v in raw_labels)


def _read_csv(text: str) -> tuple[list[str], list[list[str]]]:
    reader = csv.reader(io.StringIO(text))
    rows = [row for row in reader if row]
    if not rows:
        raise EmptyTableError("empty CSV input")
    return rows[0], rows[1:]


def _read_monks(text: str) -> tuple[list[str], list[list[str]]]:
    cells = []
    for line in text.splitlines():
        parts = line.split()
        if not parts:
            continue
        cells.append(parts[:-1])  # drop the trailing identifier column
    if not cells:
        raise EmptyTableError("empty input")
    width = len(cells[0])
    header = ["label"] + [f"a{i}" for i in range(1, width)]
    return header, cells
