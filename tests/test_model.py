import itertools
import json
import random
import re
from pathlib import Path

import numpy as np
import pytest

import planarcc
from planarcc import (
    BinaryMRF,
    SizeMismatchError,
    SymmetricIsing,
    WeightRangeError,
    build_expanded_dual,
    complement,
    cycle,
    energy,
    faces,
    ising_energy,
    load_model,
    save_model,
    scale_to_integer,
)

PATH_MODEL = BinaryMRF(3, ((0, 1, 2), (1, 2, -1)), (0, 1, 0), 0)


def test_energy_examples():
    assert energy(PATH_MODEL, (0, 1, 0)) == 2
    assert energy(PATH_MODEL, (0, 0, 0)) == 0
    best = min(
        (energy(PATH_MODEL, x), x) for x in itertools.product((0, 1), repeat=3)
    )
    assert best == (-1, (0, 0, 1))


def test_energy_size_mismatch():
    with pytest.raises(SizeMismatchError):
        energy(PATH_MODEL, (0, 1))


def test_energy_includes_constant():
    m = BinaryMRF(2, ((0, 1, 3),), (0, 0), 7)
    assert energy(m, (0, 0)) == 7
    assert energy(m, (0, 1)) == 10


def test_model_validation():
    with pytest.raises(ValueError):
        BinaryMRF(3, ((0, 0, 1),), (0, 0, 0), 0)  # self loop
    with pytest.raises(ValueError):
        BinaryMRF(3, ((1, 0, 1),), (0, 0, 0), 0)  # not i<j
    with pytest.raises(ValueError):
        BinaryMRF(3, ((0, 1, 1), (0, 1, 2)), (0, 0, 0), 0)  # duplicate
    with pytest.raises(ValueError):
        BinaryMRF(3, ((0, 5, 1),), (0, 0, 0), 0)  # out of range
    with pytest.raises(ValueError):
        BinaryMRF(3, ((0, 1, float("nan")),), (0, 0, 0), 0)
    with pytest.raises(SizeMismatchError):
        BinaryMRF(3, (), (0, 0), 0)
    with pytest.raises(ValueError):
        BinaryMRF(3, ((0, 1, 1, 9), (1, 2, 1)), (0, 0, 0), 0)  # not (i, j, w)
    # A non-integer endpoint, and one past int64.
    for end in (1.5, 2**70):
        with pytest.raises(ValueError, match="edges must list integer endpoints"):
            BinaryMRF(3, ((0, end, 1),), (0, 0, 0), 0)


SINGLE_FAULTS = [
    ("self-loop", ((0, 0, 1),), "self-loop at node 0"),
    ("not i<j", ((1, 0, 1),), "edge (1,0) out of range or not i<j"),
    ("past the nodes", ((0, 5, 1),), "edge (0,5) out of range or not i<j"),
    ("negative", ((-1, 2, 1),), "edge (-1,2) out of range or not i<j"),
    ("duplicate", ((0, 1, 1), (1, 2, 1), (0, 1, 2)), "duplicate edge (0,1)"),
    ("non-finite", ((0, 1, 1), (1, 2, float("inf"))), "edge (1,2) has non-finite weight"),
]
EDGE_FORMS = {
    "BinaryMRF": lambda edges: BinaryMRF(3, edges, (0, 0, 0), 0),
    "SymmetricIsing": lambda edges: SymmetricIsing(3, edges),
    # The port-graph builder's form: endpoint arrays, no weights.
    "topology": lambda edges: build_expanded_dual(
        tuple(np.array(ends, dtype=np.int64) for ends in list(zip(*edges))[:2]),
        faces(cycle(3)[1]),
    ),
}


@pytest.mark.parametrize(
    "form, edges, message",
    [
        pytest.param(form, edges, message, id=f"{form}-{name}")
        for name, edges, message in SINGLE_FAULTS
        for form in EDGE_FORMS
        if form != "topology" or "weight" not in message
    ],
)
def test_one_edge_validator(form, edges, message):
    with pytest.raises(ValueError) as raised:
        EDGE_FORMS[form](edges)
    assert str(raised.value) == message


def test_one_int64_rule():
    # Every int64 exactness decision goes through model._sums_fit_int64.
    root = Path(planarcc.__file__).parent
    holders = sorted(
        path.relative_to(root).as_posix()
        for path in root.rglob("*.py")
        if re.search(r"2\s*\*\*\s*62", path.read_text())
    )
    assert holders == ["model.py"]


def test_flip_symmetry():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randint(2, 6)
        edges = tuple(
            (i, j, rng.randint(-9, 9))
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.7
        )
        sym = SymmetricIsing(n, edges)
        x = tuple(rng.randint(0, 1) for _ in range(n))
        assert ising_energy(sym, x) == ising_energy(sym, complement(x))


def test_complement():
    assert complement((0, 1, 0)) == (1, 0, 1)
    x = (0, 1, 1, 0)
    assert complement(complement(x)) == x


def test_scale_to_integer_examples():
    m = BinaryMRF(2, ((0, 1, 0.4031),), (-0.0010, 0.0), 0)
    s = scale_to_integer(m, 500)
    assert s.edges == ((0, 1, 202),)
    assert s.unary == (-1, 0)
    assert s.is_integer
    assert scale_to_integer(BinaryMRF(1, (), (0.0,), 0), 123).unary == (0,)


def test_scale_rounds_half_away_from_zero():
    m = BinaryMRF(2, ((0, 1, 0.5),), (-0.5, 1.5), 0)
    s = scale_to_integer(m, 1)
    assert s.edges[0][2] == 1
    assert s.unary == (-1, 2)


def test_scale_constant_and_range():
    m = BinaryMRF(1, (), (0,), 1.2)
    assert scale_to_integer(m, 500).constant == 600
    big = BinaryMRF(2, ((0, 1, 2.0**53),), (0, 0), 0)
    with pytest.raises(WeightRangeError):
        scale_to_integer(big, 1)


def test_scaled_energies_are_exact_integers():
    rng = random.Random(7)
    m = BinaryMRF(
        4,
        tuple((i, j, rng.uniform(-1, 1)) for i, j in [(0, 1), (1, 2), (2, 3)]),
        tuple(rng.uniform(-1, 1) for _ in range(4)),
        0,
    )
    s = scale_to_integer(m, 500)
    for x in itertools.product((0, 1), repeat=4):
        assert isinstance(energy(s, x), int)


def test_model_json_roundtrip(tmp_path):
    m = BinaryMRF(3, ((0, 1, 2), (1, 2, -1)), (0, 1, 0), 4)
    path = tmp_path / "m.json"
    save_model(path, m, rotations=[[1], [0, 2], [1]], meta={"seed": 1})
    loaded, rotations, meta = load_model(path)
    assert loaded == m
    assert rotations == [[1], [0, 2], [1]]
    assert meta == {"seed": 1}
    # integer weights survive the round trip as ints
    assert all(isinstance(w, int) for (_, _, w) in loaded.edges)


def test_model_json_merges_parallel_edges(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({
        "num_nodes": 2,
        "edges": [[0, 1, 2], [1, 0, 3]],
        "unary": [0, 0],
    }))
    m, _, _ = load_model(path)
    assert m.edges == ((0, 1, 5),)


def test_model_json_defaults(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({
        "num_nodes": 2,
        "edges": [[0, 1, 1.5]],
        "unary": [0, 0],
    }))
    m, rotations, meta = load_model(path)
    assert m.constant == 0
    assert rotations is None
    assert meta == {}
    assert not m.is_integer
