import itertools
import random
import tracemalloc

import pytest

from planarcc import (
    BinaryMRF,
    SymmetricIsing,
    TooLargeError,
    WeightedMatchGraph,
    brute_force_map,
    brute_force_map_ising,
    brute_force_mwpm,
    energy,
    min_weight_perfect_matching,
)
from planarcc.errors import NoPerfectMatchingError
from planarcc.harness import InstanceSpec, generate_grid_instance

from conftest import random_match_graph


def test_empty_model():
    m = BinaryMRF(0, (), (), 0)
    res = brute_force_map(m)
    assert res.energy == 0
    assert res.assignment == ()


def test_unary_only():
    m = BinaryMRF(2, (), (-2, 3), 0)
    res = brute_force_map(m)
    assert res.energy == -2
    assert res.assignment == (1, 0)


def test_path_model():
    m = BinaryMRF(3, ((0, 1, 2), (1, 2, -1)), (0, 1, 0), 0)
    res = brute_force_map(m)
    assert res.energy == -1
    assert res.assignment == (0, 0, 1)


def test_constant_included():
    m = BinaryMRF(1, (), (5,), -3)
    assert brute_force_map(m).energy == -3


def test_lexicographically_smallest_tie():
    # two optima: (0,0) and (1,1); the lex-smallest wins
    m = BinaryMRF(2, ((0, 1, 1),), (0, 0), 0)
    assert brute_force_map(m).assignment == (0, 0)


# Weight draws: random integers and floats, and small sets of integers and
# dyadic floats (exact sums) that force ties between minimizers.
WEIGHTS = {
    "int": lambda rng: rng.randint(-9, 9),
    "float": lambda rng: rng.uniform(-9, 9),
    "tie": lambda rng: rng.choice((-1, 0, 1)),
    "dyadic tie": lambda rng: rng.choice((-0.5, 0.0, 0.5)),
}


def random_edges(rng, n, weight):
    return tuple(
        (i, j, weight(rng))
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.5
    )


def oracle_inputs(rng, count, max_n):
    """(kind, n) of ``count`` integer models of 1..max_n nodes, then of 5
    models of each other kind and of one 13- or 14-node model of each kind.
    The oracle runs a 14-node model's high codes in two blocks."""
    yield from (("int", rng.randint(1, max_n)) for _ in range(count))
    for kind in WEIGHTS:
        if kind != "int":
            yield from ((kind, rng.randint(1, max_n)) for _ in range(5))
    for k, kind in enumerate(WEIGHTS):
        yield kind, 14 - k % 2


def test_matches_exhaustive_loop():
    rng = random.Random(15)
    for kind, n in oracle_inputs(rng, 20, 7):
        weight = WEIGHTS[kind]
        edges = random_edges(rng, n, weight)
        m = BinaryMRF(n, edges, tuple(weight(rng) for _ in range(n)), rng.randint(-3, 3))
        res = brute_force_map(m)
        energies = [energy(m, x) for x in itertools.product((0, 1), repeat=n)]
        want = min(energies)
        if kind == "float":
            assert res.energy == pytest.approx(want, rel=1e-9)
        else:
            assert res.energy == want
        assert energy(m, res.assignment) == want
        # product() runs in lexicographic order: the first minimizer wins.
        first = energies.index(want)
        assert res.assignment == tuple((first >> (n - 1 - i)) & 1 for i in range(n))


def test_ising_oracle_matches_unary_free_map():
    rng = random.Random(29)
    for kind, n in oracle_inputs(rng, 20, 6):
        edges = random_edges(rng, n, WEIGHTS[kind])
        sym = brute_force_map_ising(SymmetricIsing(n, edges))
        assert sym.energy == brute_force_map(BinaryMRF(n, edges, (0,) * n, 0)).energy


def test_map_memory_at_the_cap():
    model, _ = generate_grid_instance(InstanceSpec(4, 6, 0.8, 1, 500))
    tracemalloc.start()
    try:
        brute_force_map(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20


def test_map_size_cap():
    with pytest.raises(TooLargeError):
        brute_force_map(BinaryMRF(25, (), (0,) * 25, 0))


def test_mwpm_examples():
    assert brute_force_mwpm(WeightedMatchGraph(2, ((0, 1, -5),))).total_weight == -5
    g = WeightedMatchGraph(4, ((0, 1, 1), (1, 2, 2), (2, 3, 3), (0, 3, 4)))
    assert brute_force_mwpm(g).total_weight == 4


def test_mwpm_errors():
    with pytest.raises(NoPerfectMatchingError):
        brute_force_mwpm(WeightedMatchGraph(4, ((0, 1, 1), (0, 2, 1), (0, 3, 1))))
    with pytest.raises(TooLargeError):
        brute_force_mwpm(WeightedMatchGraph(14, ()))


def test_mwpm_cross_check_with_blossom():
    rng = random.Random(33)
    checked = 0
    while checked < 200:
        n = rng.choice([4, 6, 8, 10])
        edges = random_match_graph(rng, n, rng.uniform(0.4, 1.0))
        if not edges:
            continue
        g = WeightedMatchGraph(n, tuple(edges))
        try:
            want = brute_force_mwpm(g)
        except NoPerfectMatchingError:
            continue
        got = min_weight_perfect_matching(g)
        assert got.total_weight == want.total_weight
        checked += 1
