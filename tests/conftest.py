import random

import numpy as np
import pytest

import planarcc.matching
from planarcc import BinaryMRF, SymmetricIsing
from planarcc.matching import available_engines


@pytest.fixture(params=available_engines())
def engine(request, monkeypatch):
    """Each loaded kernel in turn, made the one every solve goes through."""
    monkeypatch.setattr(planarcc.matching, "DEFAULT_ENGINE", request.param)
    return request.param


def assert_same(got, want):
    """Two kernel results (mate, duals) hold the same int64 arrays."""
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    assert got[0].dtype == got[1].dtype == np.int64


def decode_tree(dual):
    """An ``ExpandedDual``'s decode tree as (vertex, parent, model edge)
    triples, in the tree's order."""
    v = dual.tree_vertex
    return tuple(zip(v.tolist(), dual.parent[v].tolist(), dual.tree_edge.tolist()))


def random_match_graph(rng: random.Random, n: int, density: float, lo=-20, hi=20):
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                edges.append((i, j, rng.randint(lo, hi)))
    return edges


def random_tree(rng: random.Random, n: int):
    """Random tree edges plus adjacency-order rotations (valid embedding)."""
    adj = [[] for _ in range(n)]
    edges = []
    for v in range(1, n):
        p = rng.randrange(v)
        edges.append((p, v))
        adj[p].append(v)
        adj[v].append(p)
    return edges, tuple(tuple(a) for a in adj)


def random_grid_ising(rng: random.Random, rows: int, cols: int, lo=-10, hi=10):
    from planarcc import grid

    edges, emb = grid(rows, cols)
    ising = SymmetricIsing(
        rows * cols, tuple((i, j, rng.randint(lo, hi)) for (i, j) in edges)
    )
    return ising, emb


def random_grid_model(rng, rows, cols, a_scaled: int, pair_scaled: int = 500):
    """Integer grid model with weights ~ U(-pair, pair) and U(-a, a)."""
    from planarcc import grid

    edges, emb = grid(rows, cols)
    model = BinaryMRF(
        rows * cols,
        tuple((i, j, rng.randint(-pair_scaled, pair_scaled)) for (i, j) in edges),
        tuple(rng.randint(-a_scaled, a_scaled) for _ in range(rows * cols)),
        0,
    )
    return model, emb


def random_polygon_triangulation(rng: random.Random, n: int):
    """Random triangulation of a convex n-gon with its rotation system.

    Vertices sit on a circle, so sorting each vertex's neighbors by angle
    gives a valid counterclockwise rotation system; faces are n-2 triangles
    plus the outer n-cycle.
    """
    import math

    edges = {(i, (i + 1) % n) if i < (i + 1) % n else ((i + 1) % n, i)
             for i in range(n)}

    def split(lo_chain):
        # lo_chain: polygon vertex indices forming a sub-polygon boundary
        if len(lo_chain) < 4:
            return
        k = rng.randrange(2, len(lo_chain) - 1)
        a, b = lo_chain[0], lo_chain[k]
        edges.add((min(a, b), max(a, b)))
        split(lo_chain[: k + 1])
        split([lo_chain[0]] + lo_chain[k:])

    split(list(range(n)))
    angles = [2 * math.pi * i / n for i in range(n)]
    neighbors = [[] for _ in range(n)]
    for (i, j) in edges:
        neighbors[i].append(j)
        neighbors[j].append(i)
    rotations = []
    for v in range(n):
        def rel(u):
            return (math.atan2(
                math.sin(angles[u]) - math.sin(angles[v]),
                math.cos(angles[u]) - math.cos(angles[v]),
            )) % (2 * math.pi)
        rotations.append(tuple(sorted(neighbors[v], key=rel)))
    return sorted(edges), rotations
