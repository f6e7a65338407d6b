"""Combinatorial planar embeddings as rotation systems.

An embedding is given by the counterclockwise cyclic order of each vertex's
neighbors.  Faces are recovered by the next-dart rule: after traversing the
directed edge i->j, continue with (j, k) where k follows i in the rotation of
j.  For a rotation system that corresponds to a plane drawing this partitions
all directed edges into face boundaries and V - E + F = 2 holds; rotation
systems of non-planar graphs fail that check.

A ``PlanarEmbedding`` indexes its directed edges (darts) once, when it is
validated.  ``faces`` finds the breadth-first spanning tree that decodes
cuts into labels, then the faces, on arrays: the next-dart rule is a
permutation of the darts whose cycles are the faces, and pointer doubling
(Wyllie's list ranking, 1979) gives every dart its face's smallest dart and
its place in that face's walk.  ``pcc.build_pcc`` walks the darts of its
augmented graph with the same function.

An embedding is immutable, so its topology is computed once: ``faces``
keeps its ``Faces`` on the embedding, the builders of ``ising`` and ``pcc``
keep what they derive from those faces on the ``Faces`` object, and
``grid`` hands out one embedding per size while any caller holds it.
Every array kept this way is read-only.
"""

from __future__ import annotations

import weakref
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


def _read_only(*arrays: np.ndarray) -> None:
    """Make ``arrays`` read-only: they are kept and shared between calls."""
    for a in arrays:
        a.flags.writeable = False


def _tails(offset: np.ndarray) -> np.ndarray:
    """tail[d] of every dart, from the dart offsets of ``_dart_arrays``."""
    return np.repeat(np.arange(len(offset) - 1, dtype=np.int64), offset[1:] - offset[:-1])


@dataclass(frozen=True)
class PlanarEmbedding:
    """Rotation system: rotations[i] lists the neighbors of vertex i in
    counterclockwise order.

    Validation indexes the darts once (see ``_dart_arrays``) and keeps, for
    ``faces``, the dart offsets, each dart's twin (j -> i for dart i -> j)
    and the darts in order of their key tail * n + head.  Tails, heads and
    rotation successors follow from these without a sort, so they are not
    kept.  ``faces`` keeps the embedding's ``Faces`` on it once walked.
    ``from_darts`` builds an embedding from dart arrays directly.
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
        # Plain attributes, not fields: equality and hashing see rotations
        # only.  ``faces`` fills _faces.
        self.__dict__.update(_offset=offset, _twin=by_key[at], _by_key=by_key, _faces=None)

    @property
    def num_vertices(self) -> int:
        return len(self._offset) - 1

    @property
    def num_edges(self) -> int:
        return len(self._twin) // 2


class Faces:
    """The faces of a connected embedded graph, backed by dart arrays.

    Dart d runs from tail[d] to head[d]; darts are numbered by (vertex id,
    rotation position), vertex v's darts are offset[v] to offset[v + 1] - 1,
    twin[d] is the dart head[d] -> tail[d], and succ[d] is the dart after d
    in its tail's rotation.  Face f's boundary is the darts
    walk[starts[f]:starts[f + 1]] in walk order (the single-vertex graph
    has one face, without darts), and face_of[d] is the face of dart d.
    ``tree`` is a spanning tree as the int64 array of its darts
    parent -> vertex; ``faces`` finds it breadth-first from vertex 0 with
    each rotation scanned in order.

    The arrays are read-only.  Two slots keep what the builders derive from
    these faces for one edge order of the model, the last one they were
    called with: ``ising.build_expanded_dual``'s weight-free port graph in
    ``_port_graph`` and ``pcc.build_pcc``'s augmented topology in ``_pcc``.
    """

    def __init__(self, offset, tail, head, twin, succ, by_key, walk, starts, face_of, tree):
        self.offset = offset
        self.tail = tail
        self.head = head
        self.twin = twin
        self.succ = succ
        # The darts in order of their key tail * n + head, and those keys.
        self._by_key = by_key
        self._keys = (tail * (len(offset) - 1) + head)[by_key]
        self.walk = walk
        self.starts = starts
        self.face_of = face_of
        self.tree = tree
        _read_only(offset, tail, head, twin, succ, by_key, self._keys, walk, starts, face_of, tree)
        self._port_graph = None
        self._pcc = None

    def __len__(self) -> int:
        return len(self.starts) - 1

    @property
    def num_vertices(self) -> int:
        return len(self.offset) - 1

    def edge_darts(self, u: np.ndarray, v: np.ndarray) -> np.ndarray | None:
        """Index of dart u[t] -> v[t] for each t when the embedded graph's
        edges are exactly the pairs (u[t], v[t]), given with u < v and
        without repeats; else None.

        One search of the sorted dart keys: when every pair is a dart and
        there are as many pairs as edges, the two edge sets are equal.
        """
        keys = u * (len(self.offset) - 1) + v
        if 2 * len(keys) != len(self._keys):
            return None
        at = np.minimum(np.searchsorted(self._keys, keys), len(self._keys) - 1)
        if not np.array_equal(self._keys[at], keys):
            return None
        return self._by_key[at]


def euler_check(num_vertices: int, num_edges: int, num_faces: int) -> bool:
    """Euler's formula for a connected plane graph."""
    return num_vertices - num_edges + num_faces == 2


def faces(embedding: PlanarEmbedding) -> Faces:
    """Enumerate the faces of a connected embedded graph, from the
    embedding's dart index, as ``Faces`` arrays.

    Deterministic: faces are numbered in order of their smallest dart
    (vertex id, then rotation position), and each walk starts there.  A
    single vertex lies on one face without darts.  The breadth-first search
    that checks connectivity also yields ``Faces.tree``.  Raises
    NotPlanarEmbeddingError when the graph is empty or disconnected, or when
    the rotation system does not describe a plane graph (Euler check fails).

    The first call on an embedding walks its faces and keeps them on it;
    every later call returns that same ``Faces`` object.
    """
    if embedding._faces is not None:
        return embedding._faces
    n = embedding.num_vertices
    if n == 0:
        raise NotPlanarEmbeddingError("empty embedding")
    offset, twin = embedding._offset, embedding._twin
    tail = _tails(offset)
    head = tail[twin]

    offset_list, head_list = offset.tolist(), head.tolist()
    seen = [False] * n
    seen[0] = True
    order: list[int] = [0]
    tree: list[int] = []
    for v in order:
        for d in range(offset_list[v], offset_list[v + 1]):
            u = head_list[d]
            if not seen[u]:
                seen[u] = True
                order.append(u)
                tree.append(d)
    if len(order) != n:
        raise NotPlanarEmbeddingError("graph is disconnected; split components first")
    fs = _walk(offset, tail, head, twin, embedding._by_key, np.array(tree, dtype=np.int64))
    embedding.__dict__["_faces"] = fs
    return fs


def _walk(offset, tail, head, twin, by_key, tree) -> Faces:
    """The ``Faces`` of the darts given by ``offset``, ``tail``, ``head``,
    ``twin`` and ``by_key`` (see ``Faces``), with spanning ``tree``.

    After dart a -> b comes the successor of its twin b -> a in b's
    rotation; twins and successors are permutations of the darts, so each
    face is a cycle of that next-dart permutation.  Pointer doubling
    (Wyllie's list ranking) finds, for every dart at once, its face's
    smallest dart and how many darts the face's walk passes from there to
    it.  Raises NotPlanarEmbeddingError when Euler's formula fails.
    """
    n, m = len(offset) - 1, len(head)
    darts = np.arange(m)
    start = offset[tail]
    succ = start + (darts - start + 1) % (offset[tail + 1] - start)
    prev = np.empty(m, dtype=np.int64)
    prev[succ[twin]] = darts

    # Pointer doubling.  key[d] packs low << shift | behind: after round k,
    # low is the smallest of the 2**k darts up to d along its face and
    # behind how far back from d it lies (the nearest copy once the window
    # wraps round the face); jump[d] is the dart 2**k back.  The smaller key
    # wins, so when a round lowers no key, every low is equal along its face
    # and is the face's smallest dart.  A round of step s runs only when a
    # face is longer than s / 2, so behind stays below 4m, under the shift.
    shift = m.bit_length() + 2
    key, jump, step = darts << shift, prev, 1
    while True:
        earlier = key[jump] + step
        if not np.count_nonzero(earlier < key):
            break
        np.minimum(key, earlier, out=key)
        jump, step = jump[jump], 2 * step

    # Faces are numbered by smallest dart, and a dart lies behind[d] darts
    # into its face's walk.
    low, behind = key >> shift, key & ((1 << shift) - 1)
    face_of = np.searchsorted(np.flatnonzero(behind == 0), low)
    size = np.bincount(face_of, minlength=1)
    starts = np.zeros(len(size) + 1, dtype=np.int64)
    np.cumsum(size, out=starts[1:])
    walk = np.empty(m, dtype=np.int64)
    walk[starts[face_of] + behind] = darts

    if not euler_check(n, m // 2, len(size)):
        raise NotPlanarEmbeddingError(
            f"Euler check failed: V={n} E={m // 2} F={len(size)}; "
            "rotation system is not a planar embedding"
        )
    return Faces(offset, tail, head, twin, succ, by_key, walk, starts, face_of, tree)


# The grid embeddings some caller still holds, by (rows, cols).
_GRIDS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def grid(rows: int, cols: int) -> tuple[list[tuple[int, int]], PlanarEmbedding]:
    """4-connected grid with row-major vertex ids and a canonical embedding.

    Rotations list the present neighbors in the cyclic order up, left, down,
    right.  Returns (edge list, embedding); edges are emitted all horizontal
    ones row-major, then all vertical ones row-major.

    While any caller holds the embedding of a size, every call for that
    size returns that same object, so models on one grid share its faces
    and port graph (see the module doc).  The edge list is new on each
    call.
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
    embedding = _GRIDS.get((rows, cols))
    if embedding is None:
        embedding = _GRIDS[rows, cols] = _grid_embedding(rows, cols)
    return edges, embedding


def _grid_embedding(rows: int, cols: int) -> PlanarEmbedding:
    """The embedding of ``grid``."""
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
    return PlanarEmbedding(tuple(rotations))


def cycle(length: int) -> tuple[list[tuple[int, int]], PlanarEmbedding]:
    """Simple cycle 0-1-...-(k-1)-0 with its (unique) embedding."""
    if length < 3:
        raise ValueError("cycle length must be >= 3")
    edges = [(i, i + 1) for i in range(length - 1)] + [(0, length - 1)]
    rotations = tuple(
        ((i - 1) % length, (i + 1) % length) for i in range(length)
    )
    return edges, PlanarEmbedding(rotations)
