import random
import re

import numpy as np
import pytest

from grouptree.encoding import EncodedDataset, GroupSchema


def make_schema(sizes):
    groups, f = [], 0
    for c, size in enumerate(sizes):
        groups.append(tuple((f + t, f"col{c}", f"v{t}") for t in range(size)))
        f += size
    return GroupSchema(groups=tuple(groups))


def random_dataset(rng: random.Random, n_samples, sizes, labels=None):
    """Uniform one-hot dataset with the given group sizes."""
    schema = make_schema(sizes)
    matrix = np.zeros((n_samples, schema.n_features), dtype=np.uint8)
    for i in range(n_samples):
        for g, size in enumerate(sizes):
            feats = schema.features_of(g)
            matrix[i, feats[rng.randrange(size)]] = 1
    if labels is None:
        labels = [rng.choice([-1, 1]) for _ in range(n_samples)]
    return EncodedDataset(
        matrix=matrix,
        labels=np.array(labels, dtype=np.int8),
        schema=schema,
    )


def corrupt(text: str, rng: random.Random) -> str:
    """``text`` after one to three seeded edits of the kind a damaged file shows."""
    for _ in range(rng.randint(1, 3)):
        lines = text.split("\n")
        i = rng.randrange(len(lines))
        line = lines[i]
        kind = rng.choice(("drop", "duplicate", "field", "digit", "line", "text"))
        if kind == "drop":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, line)
        elif kind == "field":
            spans = [m.span() for m in re.finditer(r"[^\s,]+", line)]
            if spans:
                a, b = rng.choice(spans)
                lines[i] = line[:a] + line[b:]
        elif kind == "digit":
            digits = [t for t, ch in enumerate(line) if ch.isdigit()]
            if digits:
                t = rng.choice(digits)
                lines[i] = line[:t] + rng.choice(("x", "1e", "nan", "")) + line[t + 1:]
        elif kind == "line":
            lines[i] = line[: rng.randrange(len(line) + 1)]
        text = "\n".join(lines)
        if kind == "text":
            text = text[: rng.randrange(len(text) + 1)]
    return text


@pytest.fixture
def rng():
    return random.Random(20240817)
