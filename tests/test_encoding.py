import random

import numpy as np
import pytest

from grouptree.datasets import monks, to_csv
from grouptree.encoding import (
    EncodedDataset,
    GroupSchema,
    RawTable,
    binarize_for_simple_branching,
    build_schema,
    encode,
    parse_table,
)
from grouptree.errors import (
    EmptyTableError,
    GroupTreeError,
    MalformedRowError,
    NonBinaryLabelError,
    UnknownCategoryError,
)
from tests.conftest import corrupt, make_schema, random_dataset

CSV_YESNO = """color,size,verdict
red,small,yes
blue,small,no
red,large,no
yellow,large,yes
"""


def test_parse_csv_label_mapping():
    table = parse_table(CSV_YESNO, format="csv", label_column="verdict")
    assert table.column_names == ("color", "size")
    assert table.n_rows == 4
    assert table.labels == (1, -1, -1, 1)  # yes is lexicographically larger


def test_parse_csv_explicit_positive():
    table = parse_table(CSV_YESNO, label_column="verdict", positive_label="no")
    assert table.labels == (-1, 1, 1, -1)


@pytest.mark.parametrize(
    "column, positive, expected",
    [
        (["-1", "+1"], None, (-1, 1)),
        (["+1", "-1"], None, (1, -1)),
        (["-1", "1"], None, (-1, 1)),
        (["-1", "-1"], None, (-1, -1)),
        (["+1", "+1"], None, (1, 1)),
        (["1", "+1"], None, (1, 1)),
        (["-1", "1"], "-1", (1, -1)),
        (["-1", "+1"], "-1", (1, -1)),
        (["-1", "1"], "1", (-1, 1)),
    ],
    ids=["minus-plus", "plus-minus", "minus-one", "only-minus", "only-plus",
         "one-and-plus", "positive-minus", "positive-minus-plus", "positive-one"],
)
def test_signed_labels_map_by_value(column, positive, expected):
    # -1, 1 and +1 map by value unless a positive label is named, which is
    # used first; lexicographic order would put "-1" above "+1"
    text = "a,y\n" + "".join(f"x{i},{v}\n" for i, v in enumerate(column))
    assert parse_table(text, positive_label=positive).labels == expected


def test_positive_label_must_be_present():
    with pytest.raises(NonBinaryLabelError):
        parse_table("a,y\nx,-1\nz,1\n", positive_label="+1")


def test_malformed_row():
    text = "a,b,c\n1,2,3\n1,2\n"
    with pytest.raises(MalformedRowError):
        parse_table(text)


def test_non_binary_label():
    text = "a,y\n1,x\n2,y\n3,z\n"
    with pytest.raises(NonBinaryLabelError):
        parse_table(text)


def test_empty_table():
    with pytest.raises(EmptyTableError):
        parse_table("a,b\n")


def test_monks_format():
    text = " 1 1 1 1 1 3 1 data_5\n 0 1 1 1 1 3 2 data_6\n"
    table = parse_table(text, format="monks")
    assert table.column_names == ("a1", "a2", "a3", "a4", "a5", "a6")
    assert table.rows[0] == ("1", "1", "1", "1", "3", "1")
    assert table.labels == (1, -1)


def test_monks_dataset_shape():
    table = monks(1)
    assert table.n_rows == 432
    assert len(table.column_names) == 6
    schema = build_schema(table)
    assert schema.n_features == 17
    assert schema.n_groups == 6


def test_schema_orders_categories():
    table = parse_table(CSV_YESNO, label_column="verdict")
    schema = build_schema(table)
    assert schema.categories_of(0) == ("blue", "red", "yellow")
    assert schema.categories_of(1) == ("large", "small")
    assert schema.anchor_feature(0) == 0
    assert schema.group_sizes == (3, 2)


@pytest.mark.parametrize(
    "ids",
    [((1, 2), (0, 3)), ((1, 0), (2, 3)), ((0, 1), (3, 4)), ((1, 2), (3, 4))],
    ids=["groups-interleaved", "group-reversed", "gap", "from-one"],
)
def test_a_schema_numbers_its_features_in_group_order(ids):
    # a tree stores only group sizes and reads group g as the features after
    # the first g groups, so a schema numbered otherwise would train trees
    # that extract_tree refuses
    groups = tuple(
        tuple((f, f"col{g}", f"v{t}") for t, f in enumerate(members))
        for g, members in enumerate(ids)
    )
    with pytest.raises(MalformedRowError, match="in group order"):
        GroupSchema(groups=groups)


def test_single_category_column():
    table = RawTable(
        column_names=("c", "k"),
        rows=(("x", "a"), ("x", "b"), ("x", "a")),
        labels=(1, -1, 1),
    )
    schema = build_schema(table)
    assert schema.group_sizes == (1, 2)
    data = encode(table, schema)
    assert np.all(data.matrix[:, 0] == 1)


def test_encode_one_hot_and_decode(rng):
    table = monks(2)
    schema = build_schema(table)
    data = encode(table, schema)
    for g in range(schema.n_groups):
        feats = list(schema.features_of(g))
        assert np.all(data.matrix[:, feats].sum(axis=1) == 1)
    for i in rng.sample(range(table.n_rows), 25):
        assert data.decode_row(i) == table.rows[i]


def test_unknown_category():
    train = parse_table(CSV_YESNO, label_column="verdict")
    schema = build_schema(train)
    test = RawTable(
        column_names=("color", "size"),
        rows=(("green", "small"),),
        labels=(1,),
    )
    with pytest.raises(UnknownCategoryError):
        encode(test, schema)


def test_encode_own_schema_never_fails(rng):
    from tests.conftest import random_dataset

    data = random_dataset(rng, 30, [3, 2, 4])
    # re-encode from the decoded table
    rows = tuple(data.decode_row(i) for i in range(30))
    names = tuple(f"col{c}" for c in range(3))
    table = RawTable(
        column_names=names, rows=rows, labels=tuple(int(v) for v in data.labels)
    )
    again = encode(table, build_schema(table))
    assert np.array_equal(again.matrix, data.matrix)


def test_binarize():
    table = monks(1)
    data = encode(table, build_schema(table))
    simple = binarize_for_simple_branching(data)
    assert simple.n_features == 2 * data.n_features
    assert simple.schema.n_groups == data.n_features
    assert simple.n_samples == data.n_samples
    assert np.array_equal(simple.labels, data.labels)
    assert all(size == 2 for size in simple.schema.group_sizes)
    # original bit first (anchor), complement second
    assert np.array_equal(simple.matrix[:, 0::2], data.matrix)
    assert np.array_equal(simple.matrix[:, 1::2], 1 - data.matrix)
    for g in range(simple.schema.n_groups):
        assert simple.schema.anchor_feature(g) == 2 * g


def test_dataset_json_round_trip():
    table = parse_table(CSV_YESNO, label_column="verdict")
    data = encode(table, build_schema(table))
    again = EncodedDataset.from_json(data.to_json())
    assert np.array_equal(again.matrix, data.matrix)
    assert np.array_equal(again.labels, data.labels)
    assert again.schema == data.schema


ONE_FEATURE = '{"schema": {"groups": [{"column": "c", "categories": ["x"]}]}, '


@pytest.mark.parametrize(
    "text, error",
    [
        ('{"schema": {"groups": [{"column": "c", "categories": ["x", "y"]}]}, '
         '"labels": [1, 5], "matrix": ["10", "01"]}', NonBinaryLabelError),
        (ONE_FEATURE + '"labels": [300], "matrix": ["1"]}', NonBinaryLabelError),
        (ONE_FEATURE + '"labels": [1, -1], "matrix": ["1", "10"]}', MalformedRowError),
        ("not json", MalformedRowError),
        ('{"labels": [1], "matrix": ["1"]}', MalformedRowError),
        (ONE_FEATURE + '"labels": [1], "matrix": ["a"]}', MalformedRowError),
        ("[1, -1]", MalformedRowError),
        (ONE_FEATURE + '"labels": [1, -1], "matrix": ["1"]}', MalformedRowError),
        (ONE_FEATURE + '"labels": [true], "matrix": ["1"]}', NonBinaryLabelError),
        (ONE_FEATURE + '"labels": [1], "matrix": ["0"]}', UnknownCategoryError),
        ('{"schema": {"groups": [{"column": "c", "categories": []}]}, '
         '"labels": [], "matrix": []}', MalformedRowError),
    ],
    ids=["label-5", "label-300", "row-too-wide", "not-json", "no-schema", "cell-a",
         "not-object", "label-count", "bool-label", "not-one-hot", "empty-group"],
)
def test_malformed_dataset_json_is_rejected(text, error):
    with pytest.raises(error):
        EncodedDataset.from_json(text)


def test_corrupted_dataset_json_raises_only_grouptree_errors():
    table = parse_table(CSV_YESNO, label_column="verdict")
    data = encode(table, build_schema(table))
    text = data.to_json()
    parsed = 0
    for case in range(1000):
        try:
            again = EncodedDataset.from_json(corrupt(text, random.Random(f"data:{case}")))
        except GroupTreeError:
            continue
        parsed += 1
        assert again.matrix.shape == (len(again.labels), again.schema.n_features), case
        assert set(again.labels.tolist()) <= {-1, 1}, case
    assert 0 < parsed < 1000


def test_matrix_is_read_only():
    table = parse_table(CSV_YESNO, label_column="verdict")
    data = encode(table, build_schema(table))
    with pytest.raises(ValueError):
        data.matrix[0, 0] = 0


def test_a_matrix_that_is_not_one_hot_is_refused():
    # Random 10-sample instances with groups (3, 2) and each bit set with
    # probability 1/2: built directly, they used to be accepted, and the
    # oracle, the LP engine and the structured engine gave three answers on
    # them, the structured one above the sample count.  Every one is refused
    # now, naming the first such sample of the first group that has one.
    rng = random.Random(7)
    schema = make_schema([3, 2])
    for _ in range(40):
        matrix = np.array([[rng.random() < 0.5 for _ in range(5)] for _ in range(10)],
                          dtype=np.uint8)
        labels = np.array([rng.choice((-1, 1)) for _ in range(10)], dtype=np.int8)
        sums = [matrix[:, :3].sum(axis=1), matrix[:, 3:].sum(axis=1)]
        g = next(g for g in (0, 1) if (sums[g] != 1).any())
        i = int(np.flatnonzero(sums[g] != 1)[0])
        message = f"sample {i} does not have exactly one feature set in group {g}"
        with pytest.raises(UnknownCategoryError, match=f"^{message}$"):
            EncodedDataset(matrix=matrix, labels=labels, schema=schema)
    # a group whose cells sum to 1 but are not 0 and 1 is no one-hot group
    # either (the structured engine scored 13 on 8 such samples)
    for row in ([2, -1, 0, 1, 0], [0, 2, -1, 0, 1], [1, 2, -2, 0, 1]):
        with pytest.raises(UnknownCategoryError, match="^sample 1 .* in group 0$"):
            EncodedDataset(matrix=np.array([[1, 0, 0, 1, 0], row], dtype=np.int8),
                           labels=np.ones(2, dtype=np.int8), schema=schema)
    # a one-hot matrix, and any subset of it, is accepted
    data = random_dataset(rng, 10, [3, 2])
    assert data.subset([1, 3]).matrix.shape == (2, 5)


def test_a_dataset_of_bad_shape_or_labels_is_refused():
    # Each of these used to be accepted.  On the 0/1 labels the structured
    # engine, the oracle and the LP engine gave 8, 8 and 7 on depth2; a label
    # count short of the rows failed in build_model with a raw numpy error,
    # and a matrix narrower than its schema with a raw IndexError.
    good = random_dataset(random.Random(3), 12, [2, 3])
    m, y, schema = good.matrix.copy(), good.labels.copy(), good.schema
    two = make_schema([1, 1])
    cases = [
        (m, (y > 0).astype(np.int8), schema, NonBinaryLabelError),  # labels 0 and 1
        (m, np.where(y > 0, 127, -1).astype(np.int8), schema, NonBinaryLabelError),
        (m, y[:11].copy(), schema, MalformedRowError),  # 11 labels for 12 rows
        (np.ones((2, 3), dtype=np.uint8), np.ones(2, dtype=np.int8), two, MalformedRowError),
        (np.ones((2, 2), dtype=np.uint8), np.ones((2, 1), dtype=np.int8), two, MalformedRowError),
        (m[:, :4].copy(), y, schema, MalformedRowError),  # narrower than its schema
        (m[0].copy(), y[:1].copy(), schema, MalformedRowError),  # one row, not a matrix
    ]
    for matrix, labels, sch, error in cases:
        with pytest.raises(error):
            EncodedDataset(matrix=matrix, labels=labels, schema=sch)
    # so is a raw table with a short row, a label count that does not match
    # its rows, or a label of 0
    for rows, labels, error in (
        ((("a", "b"), ("c",)), (1, -1), MalformedRowError),
        ((("a", "b"),), (1, -1), MalformedRowError),
        ((("a", "b"), ("c", "d")), (1, 0), NonBinaryLabelError),
    ):
        with pytest.raises(error):
            RawTable(column_names=("x", "y"), rows=rows, labels=labels)


def test_csv_round_trip_via_to_csv():
    table = monks(3)
    again = parse_table(to_csv(table), label_column="class")
    assert again.rows == table.rows
    assert again.labels == table.labels


def test_monks_format_full_file():
    # UCI-style lines: label, six attributes, trailing identifier
    table = monks(1)
    lines = []
    for t, (row, y) in enumerate(zip(table.rows, table.labels)):
        cls = "1" if y == 1 else "0"
        lines.append(f" {cls} " + " ".join(row) + f" data_{t}")
    parsed = parse_table("\n".join(lines), format="monks")
    assert parsed.n_rows == 432
    assert len(parsed.column_names) == 6
    assert parsed.labels == table.labels
    assert parsed.rows == table.rows


def test_corrupted_tables_raise_only_grouptree_errors():
    table = monks(1)
    csv_text = "\n".join(to_csv(table).split("\n")[:21]) + "\n"
    monks_text = "".join(
        f" {1 if y == 1 else 0} " + " ".join(row) + f" data_{t}\n"
        for t, (row, y) in enumerate(zip(table.rows[:20], table.labels[:20]))
    )
    for name, text in (("csv", csv_text), ("monks", monks_text)):
        for case in range(1000):
            bad = corrupt(text, random.Random(f"{name}:{case}"))
            for fmt in ("csv", "monks"):
                try:
                    parse_table(bad, format=fmt)
                except GroupTreeError:
                    pass
