import itertools
import random

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


def test_matches_exhaustive_loop():
    rng = random.Random(15)
    for _ in range(20):
        n = rng.randint(1, 7)
        edges = tuple(
            (i, j, rng.randint(-9, 9))
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.5
        )
        m = BinaryMRF(n, edges, tuple(rng.randint(-9, 9) for _ in range(n)), rng.randint(-3, 3))
        res = brute_force_map(m)
        want = min(energy(m, x) for x in itertools.product((0, 1), repeat=n))
        assert res.energy == want
        assert energy(m, res.assignment) == want


def test_ising_oracle_matches_unary_free_map():
    rng = random.Random(29)
    for _ in range(20):
        n = rng.randint(1, 6)
        edges = tuple(
            (i, j, rng.randint(-9, 9))
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.5
        )
        sym = brute_force_map_ising(SymmetricIsing(n, edges))
        assert sym.energy == brute_force_map(BinaryMRF(n, edges, (0,) * n, 0)).energy


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
