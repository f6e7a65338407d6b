import functools
import random

import numpy as np
import pytest

from planarcc import (
    Matching,
    NoPerfectMatchingError,
    PlanarCCError,
    WeightedMatchGraph,
    WeightRangeError,
    min_weight_perfect_matching,
)
from planarcc.matching import (
    COMPILED_UNAVAILABLE,
    MAX_ABS_WEIGHT,
    available_engines,
    engine_kernel,
    has_compiled_kernel,
)
from planarcc.oracle import brute_force_mwpm
from planarcc.pcc import build_pcc

from conftest import assert_same, random_grid_model, random_match_graph

needs_compiled = pytest.mark.skipif(
    not has_compiled_kernel(),
    reason=f"compiled kernel unavailable: {COMPILED_UNAVAILABLE}",
)

FOUR_CYCLE = WeightedMatchGraph(4, ((0, 1, 1), (1, 2, 2), (2, 3, 3), (0, 3, 4)))


def test_single_edge(engine):
    g = WeightedMatchGraph(2, ((0, 1, -5),))
    m = min_weight_perfect_matching(g, engine)
    assert m.pairs == ((0, 1),)
    assert m.total_weight == -5


def test_four_cycle(engine):
    m = min_weight_perfect_matching(FOUR_CYCLE, engine)
    assert m.total_weight == 4
    assert set(m.pairs) == {(0, 1), (2, 3)}


def test_k4_with_cheap_pair(engine):
    g = WeightedMatchGraph(
        4, ((0, 1, 1), (2, 3, 1), (0, 2, 10), (0, 3, 10), (1, 2, 10), (1, 3, 10))
    )
    m = min_weight_perfect_matching(g, engine)
    assert m.total_weight == 2


def test_random_vs_brute_force(engine):
    rng = random.Random(12345)
    checked = 0
    while checked < 250:
        n = rng.choice([2, 4, 6, 8, 10, 12])
        edges = random_match_graph(rng, n, rng.uniform(0.3, 1.0))
        if not edges:
            continue
        g = WeightedMatchGraph(n, tuple(edges))
        try:
            want = brute_force_mwpm(g)
        except NoPerfectMatchingError:
            with pytest.raises(NoPerfectMatchingError):
                min_weight_perfect_matching(g, engine)
            continue
        got = min_weight_perfect_matching(g, engine)
        covered = sorted(v for pair in got.pairs for v in pair)
        assert covered == list(range(n))
        weight = {(min(u, v), max(u, v)): w for (u, v, w) in edges}
        assert sum(weight[pair] for pair in got.pairs) == got.total_weight
        assert got.total_weight == want.total_weight
        checked += 1


def test_engines_agree_exactly():
    engines = available_engines()
    if len(engines) < 2:
        pytest.skip("compiled kernel not built")
    rng = random.Random(99)
    for _ in range(100):
        n = rng.choice([6, 8, 10, 12, 14])
        edges = random_match_graph(rng, n, 0.5)
        if not edges:
            continue
        g = WeightedMatchGraph(n, tuple(edges))
        results = []
        for engine in engines:
            try:
                results.append(min_weight_perfect_matching(g, engine))
            except NoPerfectMatchingError:
                results.append(None)
        first = results[0]
        for other in results[1:]:
            if first is None:
                assert other is None
            else:
                assert other is not None
                assert other.total_weight == first.total_weight
                assert other.pairs == first.pairs


@needs_compiled
def test_engines_agree_at_weight_limit():
    # The compiled kernel scales weights by 4 inside int64; the Python one
    # uses unbounded ints.  Raw mates and duals must still agree at the
    # edge of the accepted range, and totals must match brute force.
    rng = random.Random(52)
    big = MAX_ABS_WEIGHT
    choices = (-big, -big + 1, -1, 0, 1, big - 1, big)
    checked = 0
    for _ in range(80):
        n = rng.choice([4, 6, 8, 10])
        edges = [
            (i, j, rng.choice(choices))
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.6
        ]
        if not edges:
            continue
        eu, ev, ew = (list(col) for col in zip(*edges))
        neg = [-w for w in ew]
        raw = {
            e: engine_kernel(e).solve_max_weight_matching(n, eu, ev, neg)
            for e in ("python", "compiled")
        }
        assert_same(raw["compiled"], raw["python"])
        g = WeightedMatchGraph(n, tuple(edges))
        try:
            want = brute_force_mwpm(g).total_weight
        except NoPerfectMatchingError:
            continue
        for e in ("python", "compiled"):
            assert min_weight_perfect_matching(g, e).total_weight == want
        checked += 1
    assert checked >= 30


def test_odd_vertex_count_rejected(engine):
    g = WeightedMatchGraph(3, ((0, 1, 1),))
    with pytest.raises(NoPerfectMatchingError):
        min_weight_perfect_matching(g, engine)


def test_no_perfect_matching_detected(engine):
    # star: three leaves share one center
    g = WeightedMatchGraph(4, ((0, 1, 1), (0, 2, 1), (0, 3, 1)))
    with pytest.raises(NoPerfectMatchingError):
        min_weight_perfect_matching(g, engine)


def test_graph_validation():
    with pytest.raises(ValueError):
        WeightedMatchGraph(2, ((0, 0, 1),))
    with pytest.raises(ValueError):
        WeightedMatchGraph(2, ((0, 1, 1), (1, 0, 2)))
    with pytest.raises(ValueError):
        WeightedMatchGraph(2, ((0, 1, 1.5),))
    with pytest.raises(WeightRangeError):
        WeightedMatchGraph(2, ((0, 1, 2**60),))


def test_unloaded_engine_reports_why(monkeypatch):
    import planarcc.matching

    monkeypatch.delitem(planarcc.matching._ENGINES, "compiled", raising=False)
    monkeypatch.setattr(planarcc.matching, "COMPILED_UNAVAILABLE", "no cc here")
    with pytest.raises(PlanarCCError, match=r"'compiled' unavailable; have: \['python'\].*no cc here"):
        min_weight_perfect_matching(FOUR_CYCLE, "compiled")


def test_empty_graph():
    assert min_weight_perfect_matching(WeightedMatchGraph(0, ())) == Matching((), 0)


def test_total_weight_unique_across_engines_and_orders():
    # weight is contractual even when the pair set is not unique
    g = WeightedMatchGraph(4, ((0, 1, 1), (2, 3, 1), (0, 2, 1), (1, 3, 1)))
    weights = {
        min_weight_perfect_matching(g, e).total_weight
        for e in available_engines()
    }
    assert weights == {2}


def test_cross_check_against_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(2718)
    checked = 0
    while checked < 25:
        n = rng.choice([10, 14, 18])
        edges = random_match_graph(rng, n, 0.45, -50, 50)
        if not edges:
            continue
        g = WeightedMatchGraph(n, tuple(edges))
        G = nx.Graph()
        G.add_nodes_from(range(n))
        for (i, j, w) in edges:
            G.add_edge(i, j, weight=-w)
        pairs = nx.max_weight_matching(G, maxcardinality=True)
        if 2 * len(pairs) < n:
            with pytest.raises(NoPerfectMatchingError):
                min_weight_perfect_matching(g)
            continue
        want = sum(-G[u][v]["weight"] for (u, v) in pairs)
        assert min_weight_perfect_matching(g).total_weight == want
        checked += 1


def max_cardinality(n, edges):
    """Size of a maximum matching, by brute force (small n only)."""
    adj = [[] for _ in range(n)]
    for (i, j, _) in edges:
        adj[i].append(j)
        adj[j].append(i)

    @functools.lru_cache(maxsize=None)
    def best(used):
        i = next((v for v in range(n) if not used >> v & 1), None)
        if i is None:
            return 0
        used |= 1 << i
        return max(
            [best(used)]
            + [1 + best(used | 1 << j) for j in adj[i] if not used >> j & 1]
        )

    return best(0)


def test_max_cardinality_without_perfect_matching(engine):
    # Without a perfect matching only the cardinality is promised: the
    # greedy start gives each vertex its own dual, so the weight may fall
    # short of the best among maximum-cardinality matchings (here 4, not 5).
    cases = [(6, [(0, 4, 0), (1, 2, 4), (1, 3, 2), (2, 4, 3)])]
    rng = random.Random(404)
    while len(cases) < 150:
        n = rng.randint(3, 14)
        edges = random_match_graph(rng, n, rng.uniform(0.1, 0.5))
        if 2 * max_cardinality(n, edges) < n:
            cases.append((n, edges))
    kernel = engine_kernel(engine)
    for (n, edges) in cases:
        eu = [i for (i, j, w) in edges]
        ev = [j for (i, j, w) in edges]
        ew = [w for (i, j, w) in edges]
        mate, _ = kernel.solve_max_weight_matching(n, eu, ev, ew)
        pairs = {(v, mate[v]) for v in range(n) if v < mate[v]}
        assert all(m == -1 or mate[m] == v for v, m in enumerate(mate))
        assert pairs <= {(min(i, j), max(i, j)) for (i, j, w) in edges}
        assert len(pairs) == max_cardinality(n, edges)


def planted_graph(rng, n, density, lo, hi):
    """Random graph with a perfect matching planted on a random pairing."""
    edges = {(i, j): w for (i, j, w) in random_match_graph(rng, n, density, lo, hi)}
    order = list(range(n))
    rng.shuffle(order)
    for a in range(0, n, 2):
        i, j = sorted(order[a:a + 2])
        edges.setdefault((i, j), rng.randint(lo, hi))
    return n, [(i, j, w) for (i, j), w in sorted(edges.items())]


def test_many_trees_agree_with_networkx():
    # Port graphs and planted random graphs leave dozens of free vertices
    # after the greedy start, so many alternating trees live at once and
    # augmentations dissolve some while others are kept.
    nx = pytest.importorskip("networkx")
    rng = random.Random(606)
    graphs = []
    for _ in range(4):
        model, emb = random_grid_model(rng, 6, 6, 300)
        dual = build_pcc(model, emb).dual
        weights = np.array([rng.randint(-800, 800) for _ in range(len(dual.edge_u))])
        port_w = dual.port_weights(weights)
        graphs.append((dual.num_ports, list(zip(
            dual.port_u.tolist(), dual.port_v.tolist(), (-port_w).tolist()
        ))))
    for n in (30, 40, 60):
        for (lo, hi) in ((-50, 50), (-MAX_ABS_WEIGHT, MAX_ABS_WEIGHT)):
            for _ in range(2):
                graphs.append(planted_graph(rng, n, rng.uniform(0.05, 0.3), lo, hi))
    for (n, edges) in graphs:
        G = nx.Graph()
        G.add_weighted_edges_from(edges)
        want = sum(G[u][v]["weight"] for (u, v) in nx.max_weight_matching(G, maxcardinality=True))
        weight = {(min(i, j), max(i, j)): w for (i, j, w) in edges}
        for engine in available_engines():
            mate, _ = engine_kernel(engine).solve_max_weight_matching(
                n, *(list(col) for col in zip(*edges))
            )
            assert all(mate[v] >= 0 for v in range(n)), engine
            got = sum(weight[min(v, m), max(v, m)] for v, m in enumerate(mate) if v < m)
            assert got == want, (engine, n)


def tied_sparse_graph(seed):
    """40, 48 or 64 vertices, sparse, weights in {-1, 0, 1}: the greedy start
    leaves many free vertices, so many trees live at once and augmentations
    dissolve trees next to kept ones."""
    rng = random.Random(seed)
    n = rng.choice([40, 48, 64])
    density = rng.uniform(0.04, 0.2)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density]
    eu, ev = (list(col) for col in zip(*edges))
    return n, eu, ev, [rng.randint(-1, 1) for _ in edges]


# Mates of the seed-138329 graph (48 vertices, 123 edges, 24 pairs).  When
# an augmentation dissolves two trees, both kernels requeue the kept
# S-vertices next to them and drop inner T marks set from them.  Dropping
# the requeue changes this mate in both kernels; dropping the mark repair
# makes both fail an internal check.  Among the first 237,700 seeds of
# this family, none gives a graph where dropping the mark repair changes the
# mate without failing a check.
DISSOLVE_REPAIR_MATE = [
    2, 4, 0, 13, 1, 30, 25, 19, 24, 18, 17, 21, 29, 3, 34, 47,
    22, 10, 9, 7, 38, 11, 16, 44, 8, 6, 35, 43, 36, 12, 5, 33,
    37, 31, 14, 26, 28, 32, 20, 45, 42, 46, 40, 27, 23, 39, 41, 15,
]


def test_dissolve_repairs_keep_the_pinned_mate(engine):
    mate, _ = engine_kernel(engine).solve_max_weight_matching(*tied_sparse_graph(138329))
    assert list(mate) == DISSOLVE_REPAIR_MATE


def planted_limit_graph(seed):
    """A planted graph of 30, 40 or 60 vertices with weights up to
    +-MAX_ABS_WEIGHT."""
    rng = random.Random(seed)
    n, edges = planted_graph(
        rng, rng.choice([30, 40, 60]), rng.uniform(0.05, 0.3), -MAX_ABS_WEIGHT, MAX_ABS_WEIGHT
    )
    return n, *(list(col) for col in zip(*edges))


# Seeds 706 and 1924 of planted_limit_graph expand a T-blossom whose freed
# leaves have a least-slack edge that later binds; without the heap push for
# those leaves both kernels return a lighter perfect matching.  A seeded
# search over 3,000 seeds found them.
PLANTED_REFREED_SEEDS = (706, 1924)


def test_candidate_heap_finds_every_adjustment(engine):
    # The candidate heap keeps stale entries: a pop drops lapsed ones and
    # re-pushes those whose key changed.  A missed or stale key shows as a
    # smaller matching, or a lighter perfect one, than networkx finds.
    nx = pytest.importorskip("networkx")
    graphs = [tied_sparse_graph(seed) for seed in range(12)]
    graphs += [planted_limit_graph(seed) for seed in (*range(6), *PLANTED_REFREED_SEEDS)]
    kernel = engine_kernel(engine)
    for (n, eu, ev, ew) in graphs:
        G = nx.Graph()
        G.add_nodes_from(range(n))
        G.add_weighted_edges_from(zip(eu, ev, ew))
        want = nx.max_weight_matching(G, maxcardinality=True)
        mate, _ = kernel.solve_max_weight_matching(n, eu, ev, ew)
        pairs = [(v, m) for v, m in enumerate(mate) if v < m]
        assert all(m == -1 or mate[m] == v for v, m in enumerate(mate))
        assert len(pairs) == len(want), (engine, n)
        if 2 * len(want) == n:
            got = sum(G[v][m]["weight"] for v, m in pairs)
            assert got == sum(G[u][v]["weight"] for u, v in want), (engine, n)
