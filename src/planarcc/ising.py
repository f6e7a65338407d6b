"""Exact ground states of symmetric planar Ising models.

A labeling of a planar graph cuts a set of edges; cut sets correspond
exactly to even-degree edge subsets of the dual graph.  Minimum-weight even
subgraphs are found by perfect matching on a port graph: each face gets one
port per boundary dart, the ports of a face are joined by a zero-weight
gadget, and the two ports of each edge are joined by an edge carrying minus
the edge weight.  A port pair matched across an edge means "uncut"; leftover
(cut) ports are matched inside their face's gadget, which has a perfect
matching on any even set of its ports and on no odd one, so cut parity is
even around every face.

A face of at most 6 ports gets a clique.  A longer face is folded: an
adjacent pair of ports (a, b) joins a new vertex c in a triangle, a new
vertex c' hangs off c and takes the pair's place, until 6 remain for a
clique.  c' is left to the rest of the face exactly when one of a, b is,
so the fold keeps the parity rule; it is a zero-weight chord of the face,
which changes no labeling's energy.  A clique on L ports has L(L - 1)/2
edges and a folded face 4L - 9, equal at L = 6.  So the port graph stays
linear in the model's size, as it does where Schraudolph & Kamenetsky
triangulate with zero-weight edges ("Efficient exact inference in planar
Ising models", NIPS 2008).

A bridge borders the same face twice, so its dual edge is a self-loop and
its cut state is parity-free: its two ports get a single edge with weight
min(-w, 0), which replaces their gadget edge when the gadget has one, and
the bridge is decoded as cut exactly when w < 0.

``ground_state`` and the PCC loop share this one reduction: the port graph
is built once per embedded topology, from the darts and faces of
``faces(embedding)`` (for the PCC loop, from the augmented darts that
``pcc.build_pcc`` builds and walks as ``faces`` walks an embedding's), and
``ExpandedDual.solve`` maps edge weights to port weights, runs the matching
kernel and decodes the matching.  The PCC loop solves one port graph at many weights, on one
kernel session.  The decode labels node 0 with 0 and propagates the cut along ``Faces.tree`` by
pointer jumping.  For an embedding it is the breadth-first tree that
``faces`` finds while checking connectivity; for a PCC graph, the base
graph's breadth-first tree and one spoke per chosen face, from the face's
first incidence to its vertex (see ``pcc.build_pcc``).  Each round of pointer
jumping folds every vertex's label into the path to its current ancestor
and doubles how far that ancestor lies, so a tree of depth d takes
ceil(log2 d) rounds of array operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .embedding import Faces, PlanarEmbedding, _read_only, faces
from .errors import NotPlanarEmbeddingError, WeightRangeError
from .matching import (
    MAX_ABS_WEIGHT,
    Matching,
    WeightedMatchGraph,
    engine_kernel,
    min_weight_perfect_matching,  # noqa: F401  (perfbench/tracing.py wraps it here)
    perfect_matching,
)
from .model import Labels, SymmetricIsing, _check_endpoints, _max_abs, _sums_fit_int64


@dataclass(frozen=True, eq=False)
class ExpandedDual:
    """Matching reduction of a symmetric planar model.

    The port graph has ``num_ports`` vertices: one per dart, numbered by
    position in the face walks, then two per fold of each face of more than
    6 ports (see the module doc).  Port edge t joins ports port_u[t] and
    port_v[t].  For t below the model's edge count it stands for model edge
    t (bridge[t] marks merged bridge edges), and only those port edges are
    decoded; the rest are the zero-weight face gadgets.  edge_u and edge_v
    hold the model edges' endpoints.  The decode tree is ``Faces.tree``
    with each dart replaced by its model edge: tree_vertex lists the
    vertices other than node 0 in the tree's order (breadth-first from
    node 0 for an embedding's faces), tree_edge the model edge to each
    one's parent, and parent[v] is the parent of vertex v (node 0 is its
    own).  ``weights`` are the model's int64 edge weights, from its exact
    reading: the minimum matching weight of ``match_graph`` plus their sum
    equals the ground-state energy, which a decode checks in int64 under
    ``model._sums_fit_int64`` and in Python ints past it.
    """

    weights: np.ndarray
    num_ports: int
    port_u: np.ndarray
    port_v: np.ndarray
    bridge: np.ndarray
    edge_u: np.ndarray
    edge_v: np.ndarray
    tree_vertex: np.ndarray
    tree_edge: np.ndarray
    parent: np.ndarray

    @cached_property
    def match_graph(self) -> WeightedMatchGraph:
        """The port graph at the model's weights."""
        return WeightedMatchGraph(
            self.num_ports,
            tuple(
                zip(
                    self.port_u.tolist(),
                    self.port_v.tolist(),
                    self.port_weights(self.weights).tolist(),
                )
            ),
        )

    def port_weights(self, weights: Sequence[int] | np.ndarray) -> np.ndarray:
        """Port-edge weights for model edge weights ``weights``: -w on each
        model edge's port edge, min(-w, 0) on a bridge's (its cut state is
        parity-free: it is cut exactly when w < 0), 0 on gadget edges."""
        w = np.asarray(weights, dtype=np.int64)
        if w.shape != self.bridge.shape:
            raise ValueError(f"expected {len(self.bridge)} weights, got {len(w)}")
        out = np.zeros(len(self.port_u), dtype=np.int64)
        out[: len(w)] = np.where(self.bridge, np.minimum(-w, 0), -w)
        return out

    def open_session(self):
        """A session of the matching kernel on the port graph, for
        ``solve``; close it with its ``close()``."""
        return engine_kernel().open_session(self.num_ports, self.port_u, self.port_v)

    def solve(
        self, weights: Sequence[int] | np.ndarray, session=None
    ) -> tuple[int, np.ndarray]:
        """(energy, labels as an int8 array) of a minimum cut at model edge
        weights ``weights``: one minimum perfect matching of the port graph,
        on ``session`` (from ``open_session``) or cold when None, decoded.
        Node 0 is labeled 0.

        Raises NoPerfectMatchingError when the kernel leaves a port
        unmatched or pairs ports that share no port edge (see
        ``perfect_matching``).
        """
        # Every solve starts cold: between PCC iterates subgradient steps
        # perturb most incidence weights, so a warm start repairs more than
        # it reuses.  A session keeps only the graph's buffers.
        w = np.asarray(weights, dtype=np.int64)
        port_w = self.port_weights(w)
        matched = perfect_matching(
            engine_kernel(), self.num_ports, self.port_u, self.port_v, port_w, session
        )
        return self._decode(w, port_w, matched)

    def decode(
        self, weights: Sequence[int] | np.ndarray, mate: Sequence[int]
    ) -> tuple[int, Labels]:
        """(energy, labels) of the cut that a minimum perfect matching of
        the port graph at model edge weights ``weights`` encodes; mate[p] is
        the partner of port p.  Node 0 is labeled 0.

        A port pair matched across a plain edge means "uncut".  Raises
        AssertionError when the cut is inconsistent on some edge or the
        labels' energy differs from the matching's.
        """
        w = np.asarray(weights, dtype=np.int64)
        mate = np.asarray(mate, dtype=np.int64)
        energy, labels = self._decode(w, self.port_weights(w), mate[self.port_u] == self.port_v)
        return energy, tuple(labels.tolist())

    def _decode(
        self, w: np.ndarray, port_w: np.ndarray, matched: np.ndarray
    ) -> tuple[int, np.ndarray]:
        """``decode`` given the int64 model weights ``w``, their port
        weights and the mask of matched port edges; labels as int8."""
        cut = np.where(self.bridge, w < 0, ~matched[: len(w)])
        # lab[v] is the cut parity of the tree path from v up to p[v].
        lab = np.zeros(len(self.parent), dtype=bool)
        lab[self.tree_vertex] = cut[self.tree_edge]
        p = self.parent
        while p.any():
            lab ^= lab[p]
            p = p[p]
        if not np.array_equal(lab[self.edge_u] != lab[self.edge_v], cut):
            raise AssertionError("matching produced an inconsistent cut; this is a bug")
        # Past the int64 rule, Python-int sums stay exact.
        if _sums_fit_int64(_max_abs(w), len(w) + self.num_ports):
            energy = int(w @ cut)
            expected = int(port_w @ matched) + int(w.sum())
        else:
            energy = sum(w[cut].tolist())
            expected = sum(port_w[matched].tolist()) + sum(w.tolist())
        if energy != expected:
            raise AssertionError(
                f"decoded energy {energy} != matching weight + offset {expected}"
            )
        return energy, lab.view(np.int8)


@dataclass(frozen=True)
class GroundState:
    """A global minimizer of a symmetric model, with exact energy."""

    labels: Labels
    energy: int


# A face of L ports costs L(L - 1)/2 clique edges, or 4L - 9 when folded
# (below); the two are equal at L = 6, so only longer faces are folded.
CLIQUE_MAX_PORTS = 6
_SLOTS = np.arange(CLIQUE_MAX_PORTS)
_PAIR_I, _PAIR_J = np.triu_indices(CLIQUE_MAX_PORTS, 1)


def _face_gadgets(starts: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """(vertex count, u, v) of the zero-weight gadgets on each face's ports
    starts[f] to starts[f + 1] - 1, every edge with u < v.

    A face of L > ``CLIQUE_MAX_PORTS`` ports is folded as a queue of its
    ports in walk order: fold i takes queue items 2i and 2i + 1 (a, b), adds
    the triangle (a, b, c) and the edge (c, c'), and c' joins the queue as
    item L + i.  After L - 6 folds, 6 items remain.  Each face's last items
    (all of its ports when it has at most 6) form a clique.  The cliques
    come first, in face order and then (u, v) order, then the fold edges:
    every (a, b), every (a, c), every (b, c), every (c, c').  Fold j, over
    all faces in order, has c = num_darts + 2j and c' = c + 1.
    """
    num_darts = int(starts[-1])
    first, lengths = starts[:-1], starts[1:] - starts[:-1]
    slot = first[:, None] + _SLOTS
    extra = lengths - CLIQUE_MAX_PORTS
    long = extra > 0
    fold_u, fold_v, folds = (), (), 0
    if long.any():
        # Pick p of all folds' queue items (2j and 2j + 1 for fold j) is
        # item q = p - 2J of its face, J the folds of the faces before it:
        # while q < L (p < limit) the port first + q = port + p, else c' of
        # the face's fold q - L, num_darts + 2(J + q - L) + 1 = 2p - odd.
        # Its last 6 items are q = 2(L - 6) + r, that is p = 2 end + r.
        extra = extra[long]
        end = extra.cumsum()
        done = 2 * (end - extra)
        port = first[long] - done
        limit = done + extra + CLIQUE_MAX_PORTS
        odd = limit + extra + (CLIQUE_MAX_PORTS - 1 - num_darts)
        folds = int(end[-1])
        p = np.arange(2 * folds)
        twice = 2 * extra
        picks = np.where(
            p < limit.repeat(twice), port.repeat(twice) + p, 2 * p - odd.repeat(twice)
        )
        a, b, c = picks[::2], picks[1::2], num_darts + p[::2]
        fold_u, fold_v = (a, a, b, c), (b, c, c, c + 1)
        last = 2 * end[:, None] + _SLOTS
        slot[long] = np.where(last < limit[:, None], port[:, None] + last, 2 * last - odd[:, None])
    # A folded face's 6 slots are all filled, so j < L picks its 15 pairs.
    pairs = _PAIR_J < lengths[:, None]
    u = np.concatenate((slot[:, _PAIR_I][pairs], *fold_u))
    v = np.concatenate((slot[:, _PAIR_J][pairs], *fold_v))
    return num_darts + 2 * folds, u, v


def build_expanded_dual(
    ising: SymmetricIsing | tuple[np.ndarray, np.ndarray],
    embedding: PlanarEmbedding | Faces,
) -> ExpandedDual:
    """Construct the port graph whose minimum perfect matching encodes the
    minimum cut of the embedded symmetric model.

    ``ising`` is the model, whose kept endpoint arrays and exact weights are
    used, or a topology whose weights every solve supplies: int64 endpoint
    arrays (u, v), checked as a model's are and taken as weight 0.
    ``embedding`` is the model's embedding, whose faces are walked here, or
    its ``Faces`` when the caller has them (``build_pcc`` walks the
    augmented graph's); the decode tree is ``Faces.tree``.

    The port graph depends only on the faces and the order of the edges'
    endpoints, not on the weights.  It is kept, with read-only arrays, in
    the ``Faces`` object's one slot for it, for the last edge order built;
    a call with the same endpoint arrays reuses it, and any other order is
    built as on the first call and replaces it.  Each call returns a new
    ``ExpandedDual`` that carries its own ``weights``.
    """
    topology = not isinstance(ising, SymmetricIsing)
    if topology:
        edge_u, edge_v = ising
        weights = np.zeros(len(edge_u), dtype=np.int64)
    else:
        if not ising.is_integer:
            raise ValueError("matching reduction requires integer weights; scale first")
        edge_u, edge_v = ising.edge_u, ising.edge_v
        _, weights, _ = ising.exact_weights
        if _max_abs(weights) > MAX_ABS_WEIGHT:
            raise WeightRangeError("edge weight outside the matching kernel's safe range")
        weights = weights.astype(np.int64, copy=False)
        if embedding.num_vertices != ising.num_nodes:
            raise NotPlanarEmbeddingError(
                f"embedding has {embedding.num_vertices} vertices, model has {ising.num_nodes}"
            )
    fs = embedding if isinstance(embedding, Faces) else faces(embedding)
    kept = fs._port_graph
    if kept is None or not (
        np.array_equal(kept["edge_u"], edge_u) and np.array_equal(kept["edge_v"], edge_v)
    ):
        if topology:
            _check_endpoints(fs.num_vertices, edge_u, edge_v)
        kept = fs._port_graph = _port_graph(fs, edge_u, edge_v)
    return ExpandedDual(weights=weights, **kept)


def _port_graph(fs: Faces, edge_u: np.ndarray, edge_v: np.ndarray) -> dict[str, object]:
    """The fields of ``ExpandedDual`` other than ``weights`` for the edges
    (edge_u[t], edge_v[t]) on the faces ``fs``, every array read-only."""
    forward = fs.edge_darts(edge_u, edge_v)
    if forward is None:
        raise NotPlanarEmbeddingError("embedding edge set differs from model edge set")

    # A dart's port is its position in the face walk, so each face's ports
    # are consecutive.  Port edge t joins the ports of model edge t's two
    # darts; a bridge's darts share a face, and its edge replaces their
    # gadget edge where the gadget has one.
    num_darts = len(fs.walk)
    port = np.empty(num_darts, dtype=np.int64)
    port[fs.walk] = np.arange(num_darts)
    backward = fs.twin[forward]
    p1, p2 = port[forward], port[backward]
    bridge = fs.face_of[forward] == fs.face_of[backward]
    num_ports, gadget_u, gadget_v = _face_gadgets(fs.starts)
    if bridge.any():
        lo, hi = np.minimum(p1, p2)[bridge], np.maximum(p1, p2)[bridge]
        keep = ~np.isin(gadget_u * num_ports + gadget_v, lo * num_ports + hi)
        gadget_u, gadget_v = gadget_u[keep], gadget_v[keep]
    edge_of = np.empty(num_darts, dtype=np.int64)
    edge_of[forward] = edge_of[backward] = np.arange(len(edge_u))
    tree_vertex = fs.head[fs.tree]
    parent = np.zeros(fs.num_vertices, dtype=np.int64)
    parent[tree_vertex] = fs.tail[fs.tree]

    arrays = dict(
        port_u=np.concatenate((p1, gadget_u)),
        port_v=np.concatenate((p2, gadget_v)),
        bridge=bridge,
        edge_u=edge_u,
        edge_v=edge_v,
        tree_vertex=tree_vertex,
        tree_edge=edge_of[fs.tree],
        parent=parent,
    )
    _read_only(*arrays.values())
    return dict(num_ports=num_ports, **arrays)


def decode_matching(
    ising: SymmetricIsing, dual: ExpandedDual, matching: Matching
) -> GroundState:
    """Recover a minimum-energy labeling from a minimum perfect matching."""
    mate = [-1] * dual.num_ports
    for (u, v) in matching.pairs:
        mate[u] = v
        mate[v] = u
    energy, labels = dual.decode(ising.exact_weights[1], mate)
    return GroundState(labels, energy)


def ground_state(ising: SymmetricIsing, embedding: PlanarEmbedding) -> GroundState:
    """Exact global minimizer of a symmetric planar model.

    Labels are normalized so node 0 has label 0 (any labeling and its
    complement have equal energy).
    """
    dual = build_expanded_dual(ising, embedding)
    energy, labels = dual.solve(dual.weights)
    return GroundState(tuple(labels.tolist()), energy)
