import random

import numpy as np
import pytest

from planarcc import (
    NotPlanarEmbeddingError,
    PlanarEmbedding,
    cycle,
    faces,
    grid,
)
from planarcc.embedding import euler_check


def test_faces_2x2_grid():
    _, emb = grid(2, 2)
    fs = faces(emb)
    assert len(fs) == 2
    assert sorted(np.diff(fs.starts).tolist()) == [4, 4]


def test_faces_3x3_grid():
    _, emb = grid(3, 3)
    fs = faces(emb)
    assert len(fs) == 5
    assert sorted(np.diff(fs.starts).tolist()) == [4, 4, 4, 4, 8]


def test_faces_cycle():
    for k in (3, 5, 8):
        _, emb = cycle(k)
        fs = faces(emb)
        assert len(fs) == 2
        assert np.diff(fs.starts).tolist() == [k, k]


def test_grid_examples():
    edges, emb = grid(1, 2)
    assert len(edges) == 1
    assert len(faces(emb)) == 1
    edges, emb = grid(2, 2)
    assert len(edges) == 4
    assert len(faces(emb)) == 2
    edges, emb = grid(32, 32)
    assert emb.num_vertices == 1024
    assert len(edges) == 1984
    assert len(faces(emb)) == 962


def test_euler_check():
    assert euler_check(9, 12, 5)
    assert euler_check(4, 4, 2)
    assert euler_check(4, 6, 4)  # K4 is planar
    assert not euler_check(5, 10, 6)


def test_k4_rotations_pass():
    # K4 with a consistent planar rotation system: vertex 3 in the middle.
    emb = PlanarEmbedding((
        (1, 3, 2),
        (2, 3, 0),
        (0, 3, 1),
        (0, 1, 2),
    ))
    assert len(faces(emb)) == 4


def test_k5_fails_euler():
    # No rotation system of K5 can satisfy Euler's formula.
    rotations = tuple(
        tuple(j for j in range(5) if j != i) for i in range(5)
    )
    with pytest.raises(NotPlanarEmbeddingError):
        faces(PlanarEmbedding(rotations))
    # Nor K4 with vertex 3's rotation reversed: two faces, genus 1.
    toroidal_k4 = ((1, 3, 2), (2, 3, 0), (0, 3, 1), (0, 2, 1))
    with pytest.raises(NotPlanarEmbeddingError, match="Euler check failed: V=4 E=6 F=2"):
        faces(PlanarEmbedding(toroidal_k4))


def test_invalid_rotations_rejected():
    with pytest.raises(NotPlanarEmbeddingError):
        PlanarEmbedding(((0,),))  # self
    with pytest.raises(NotPlanarEmbeddingError):
        PlanarEmbedding(((1,), ()))  # asymmetric
    with pytest.raises(NotPlanarEmbeddingError):
        PlanarEmbedding(((1, 1), (0,)))  # repeated neighbor
    with pytest.raises(NotPlanarEmbeddingError, match="invalid vertex -1"):
        PlanarEmbedding(((1, -1), (0,)))
    with pytest.raises(NotPlanarEmbeddingError, match="invalid vertex 2"):
        PlanarEmbedding(((1, 2), (0,)))
    with pytest.raises(NotPlanarEmbeddingError, match="integer vertex ids"):
        PlanarEmbedding(((1.5,), (0,)))


def test_disconnected_rejected():
    emb = PlanarEmbedding(((1,), (0,), (3,), (2,)))
    with pytest.raises(NotPlanarEmbeddingError):
        faces(emb)


def test_single_vertex_special_case():
    fs = faces(PlanarEmbedding(((),)))
    # One face without darts, on which vertex 0 lies.
    assert len(fs) == 1
    assert fs.starts.tolist() == [0, 0]
    assert fs.walk.size == 0 and fs.num_vertices == 1


def test_every_dart_on_exactly_one_face():
    for rows, cols in [(2, 3), (3, 4), (1, 5)]:
        _, emb = grid(rows, cols)
        fs = faces(emb)
        assert len(fs.walk) == 2 * emb.num_edges
        assert sorted(fs.walk.tolist()) == list(range(len(fs.walk)))
        on = np.repeat(np.arange(len(fs)), np.diff(fs.starts))
        assert fs.face_of[fs.walk].tolist() == on.tolist()


def test_face_traversal_deterministic():
    _, emb = grid(3, 4)
    a = faces(emb)
    b = faces(emb)
    for name in ("walk", "starts", "face_of", "tail", "head"):
        assert getattr(a, name).tolist() == getattr(b, name).tolist()


def test_bridge_face_repeats_vertices():
    # path graph: one face whose walk visits interior vertices twice
    emb = PlanarEmbedding(((1,), (0, 2), (1,)))
    fs = faces(emb)
    assert len(fs) == 1
    assert len(fs.walk) == 4
    assert list(dict.fromkeys(fs.tail[fs.walk].tolist())) == [0, 1, 2]


def test_boundary_darts_chain():
    _, emb = grid(3, 3)
    fs = faces(emb)
    for f in range(len(fs)):
        darts = fs.walk[fs.starts[f] : fs.starts[f + 1]]
        assert fs.head[darts].tolist() == fs.tail[np.roll(darts, -1)].tolist()


def test_random_trees_have_one_face():
    rng = random.Random(0)
    for _ in range(20):
        n = rng.randint(2, 12)
        adj = [[] for _ in range(n)]
        for v in range(1, n):
            p = rng.randrange(v)
            adj[p].append(v)
            adj[v].append(p)
        emb = PlanarEmbedding(tuple(tuple(a) for a in adj))
        fs = faces(emb)
        assert len(fs) == 1
        assert len(fs.walk) == 2 * (n - 1)
