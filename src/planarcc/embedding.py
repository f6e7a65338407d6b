"""Combinatorial planar embeddings as rotation systems.

An embedding is given by the counterclockwise cyclic order of each vertex's
neighbors.  Faces are recovered by the next-dart rule: after traversing the
directed edge i->j, continue with (j, k) where k follows i in the rotation of
j.  For a rotation system that corresponds to a plane drawing this partitions
all directed edges into face boundaries and V - E + F = 2 holds; rotation
systems of non-planar graphs fail that check.

A ``PlanarEmbedding`` indexes its directed edges (darts) once, when it is
validated; ``faces`` walks that index and, in the same call, finds the
breadth-first spanning tree that decodes cuts into labels.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import NotPlanarEmbeddingError


def _dart_arrays(rotations) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(offset, tail, head) of a rotation system's darts.

    Dart d is entry d of the concatenated rotations, so darts are ordered
    by (vertex id, rotation position): it runs from tail[d] to head[d], and
    vertex v's darts are offset[v] to offset[v + 1] - 1.
    """
    n = len(rotations)
    deg = np.fromiter(map(len, rotations), dtype=np.int64, count=n)
    offset = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(deg, out=offset[1:])
    head = np.array([j for rot in rotations for j in rot])
    if head.size and head.dtype.kind not in "iu":
        raise NotPlanarEmbeddingError("rotations must list integer vertex ids")
    return offset, _tails(offset), head.astype(np.int64)


def _tails(offset: np.ndarray) -> np.ndarray:
    """tail[d] of every dart, from the dart offsets of ``_dart_arrays``."""
    return np.repeat(np.arange(len(offset) - 1, dtype=np.int64), np.diff(offset))


@dataclass(frozen=True)
class PlanarEmbedding:
    """Rotation system: rotations[i] lists the neighbors of vertex i in
    counterclockwise order.

    Validation indexes the darts once (see ``_dart_arrays``) and keeps, for
    ``faces``, the dart offsets, each dart's twin (j -> i for dart i -> j)
    and the darts in order of their key tail * n + head.  Tails, heads and
    rotation successors follow from these without a sort, so they are not
    kept.  ``from_darts`` builds an embedding from dart arrays directly.
    """

    rotations: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        self._index(*_dart_arrays(self.rotations))

    @classmethod
    def from_darts(cls, offset: np.ndarray, head: np.ndarray) -> "PlanarEmbedding":
        """The embedding whose vertex v lists head[offset[v]:offset[v + 1]]
        counterclockwise, from int64 arrays, validated as the constructor
        validates ``rotations`` but without flattening them."""
        emb = object.__new__(cls)
        emb._index(offset, _tails(offset), head)
        bounds, heads = offset.tolist(), head.tolist()
        emb.__dict__["rotations"] = tuple(
            tuple(heads[a:b]) for a, b in zip(bounds, bounds[1:])
        )
        return emb

    def _index(self, offset: np.ndarray, tail: np.ndarray, head: np.ndarray) -> None:
        """Validate the darts and keep their index (see the class doc)."""
        n = len(offset) - 1
        loop = np.flatnonzero(head == tail)
        if loop.size:
            raise NotPlanarEmbeddingError(f"vertex {tail[loop[0]]} appears in its own rotation")
        bad = np.flatnonzero((head < 0) | (head >= n))
        if bad.size:
            d = bad[0]
            raise NotPlanarEmbeddingError(
                f"rotation of {tail[d]} mentions invalid vertex {head[d]}"
            )
        keys = tail * n + head
        by_key = np.argsort(keys, kind="stable")
        keys = keys[by_key]
        repeated = np.flatnonzero(keys[1:] == keys[:-1])
        if repeated.size:
            i, j = divmod(int(keys[repeated[0]]), n)
            raise NotPlanarEmbeddingError(f"vertex {j} repeated in rotation of {i}")
        twin_keys = head * n + tail
        at = np.minimum(np.searchsorted(keys, twin_keys), len(keys) - 1)
        missing = np.flatnonzero(keys[at] != twin_keys)
        if missing.size:
            i, j = tail[missing[0]], head[missing[0]]
            raise NotPlanarEmbeddingError(
                f"rotations not symmetric: {j} lists {i}? "
                f"edge ({i},{j}) present only one way"
            )
        # Plain attributes, not fields: equality and hashing see rotations only.
        self.__dict__.update(_offset=offset, _twin=by_key[at], _by_key=by_key)

    @property
    def num_vertices(self) -> int:
        return len(self._offset) - 1

    @property
    def num_edges(self) -> int:
        return len(self._twin) // 2


@dataclass(frozen=True)
class Face:
    """One face of an embedded graph.

    boundary is the cyclic sequence of directed edges (darts) around the
    face; boundary_vertices deduplicates the walk's vertices in first-visit
    order (a face may visit a cut vertex, or both sides of a bridge, more
    than once).
    """

    id: int
    boundary: tuple[tuple[int, int], ...]
    boundary_vertices: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.boundary)


class Faces(Sequence[Face]):
    """The faces of a connected embedded graph, backed by dart arrays.

    Dart d runs from tail[d] to head[d]; darts are numbered by (vertex id,
    rotation position), vertex v's darts are offset[v] to offset[v + 1] - 1,
    and succ[d] is the dart after d in its tail's rotation.  Face f's
    boundary is the darts walk[starts[f]:starts[f + 1]] in walk order, and
    face_of[d] is the face of dart d.  ``tree`` is a spanning tree as
    (vertex, parent, dart parent -> vertex) triples, in breadth-first order
    from vertex 0 with each rotation scanned in order.  A ``Face`` is built
    only when indexed or iterated.
    """

    def __init__(self, offset, tail, head, succ, by_key, walk, starts, face_of, tree):
        self.offset = offset
        self.tail = tail
        self.head = head
        self.succ = succ
        # The darts in order of their key tail * n + head.
        self._by_key = by_key
        self.walk = walk
        self.starts = starts
        self.face_of = face_of
        self.tree = tree

    def __len__(self) -> int:
        return len(self.starts) - 1

    def __getitem__(self, f):
        if isinstance(f, slice):
            return [self[k] for k in range(len(self))[f]]
        f = range(len(self))[f]
        darts = self.walk[self.starts[f] : self.starts[f + 1]]
        tails = self.tail[darts].tolist()
        # Only the single-vertex graph has a face without darts; vertex 0
        # lies on it.
        verts = tuple(dict.fromkeys(tails)) or (0,)
        return Face(f, tuple(zip(tails, self.head[darts].tolist())), verts)

    def darts(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Index of dart u[t] -> v[t] for each t; each pair must be an edge."""
        n = len(self.offset) - 1
        key = self.tail * n + self.head
        return self._by_key[np.searchsorted(key, u * n + v, sorter=self._by_key)]

    def has_edges(self, u: np.ndarray, v: np.ndarray) -> bool:
        """True when the embedded graph's edges are exactly the pairs
        (u[t], v[t]), given with u < v and without repeats."""
        n, d = len(self.offset) - 1, self._by_key
        own = (self.tail[d] * n + self.head[d])[self.tail[d] < self.head[d]]
        return np.array_equal(own, np.sort(u * n + v, kind="stable"))


def euler_check(num_vertices: int, num_edges: int, num_faces: int) -> bool:
    """Euler's formula for a connected plane graph."""
    return num_vertices - num_edges + num_faces == 2


def faces(embedding: PlanarEmbedding) -> Faces:
    """Enumerate the faces of a connected embedded graph, by one walk over
    the embedding's dart index, as a lazy ``Faces`` sequence.

    Deterministic: faces are numbered in order of their smallest starting
    dart (vertex id, then rotation position).  A single vertex lies on one
    face without darts.  The breadth-first search that checks connectivity
    also yields ``Faces.tree``.  Raises NotPlanarEmbeddingError when the
    graph is empty or disconnected, or when the rotation system does not
    describe a plane graph (Euler check fails).
    """
    n = embedding.num_vertices
    if n == 0:
        raise NotPlanarEmbeddingError("empty embedding")
    offset, twin = embedding._offset, embedding._twin
    tail = _tails(offset)
    head = tail[twin]
    start = offset[tail]
    succ = start + (np.arange(len(tail)) - start + 1) % np.diff(offset)[tail]

    offset_list, head_list = offset.tolist(), head.tolist()
    seen = [False] * n
    seen[0] = True
    order: list[int] = [0]
    tree = []
    for v in order:
        for d in range(offset_list[v], offset_list[v + 1]):
            u = head_list[d]
            if not seen[u]:
                seen[u] = True
                order.append(u)
                tree.append((u, v, d))
    if len(order) != n:
        raise NotPlanarEmbeddingError("graph is disconnected; split components first")

    # After dart a -> b comes the successor of its twin b -> a in b's
    # rotation.  Twins and successors are permutations of the darts, so
    # each walk closes on its first dart.
    nxt = succ[twin].tolist()
    m = len(nxt)
    face_of = [-1] * m
    walk: list[int] = []
    starts: list[int] = []
    for d in range(m):
        if face_of[d] >= 0:
            continue
        f = len(starts)
        starts.append(len(walk))
        e = d
        while face_of[e] < 0:
            face_of[e] = f
            walk.append(e)
            e = nxt[e]
    if not starts:
        starts.append(0)
    starts.append(m)

    num_faces = len(starts) - 1
    if not euler_check(n, m // 2, num_faces):
        raise NotPlanarEmbeddingError(
            f"Euler check failed: V={n} E={m // 2} F={num_faces}; "
            "rotation system is not a planar embedding"
        )
    return Faces(
        offset,
        tail,
        head,
        succ,
        embedding._by_key,
        np.array(walk, dtype=np.int64),
        np.array(starts, dtype=np.int64),
        np.array(face_of, dtype=np.int64),
        tuple(tree),
    )


def grid(rows: int, cols: int) -> tuple[list[tuple[int, int]], PlanarEmbedding]:
    """4-connected grid with row-major vertex ids and a canonical embedding.

    Rotations list the present neighbors in the cyclic order up, left, down,
    right.  Returns (edge list, embedding); edges are emitted all horizontal
    ones row-major, then all vertical ones row-major.
    """
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be >= 1")
    edges = []
    for r in range(rows):
        for c in range(cols - 1):
            v = r * cols + c
            edges.append((v, v + 1))
    for r in range(rows - 1):
        for c in range(cols):
            v = r * cols + c
            edges.append((v, v + cols))
    rotations = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            rot = []
            if r > 0:
                rot.append(v - cols)
            if c > 0:
                rot.append(v - 1)
            if r < rows - 1:
                rot.append(v + cols)
            if c < cols - 1:
                rot.append(v + 1)
            rotations.append(tuple(rot))
    return edges, PlanarEmbedding(tuple(rotations))


def cycle(length: int) -> tuple[list[tuple[int, int]], PlanarEmbedding]:
    """Simple cycle 0-1-...-(k-1)-0 with its (unique) embedding."""
    if length < 3:
        raise ValueError("cycle length must be >= 3")
    edges = [(i, i + 1) for i in range(length - 1)] + [(0, length - 1)]
    rotations = tuple(
        ((i - 1) % length, (i + 1) % length) for i in range(length)
    )
    return edges, PlanarEmbedding(rotations)
