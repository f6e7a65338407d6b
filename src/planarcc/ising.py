"""Exact ground states of symmetric planar Ising models.

A labeling of a planar graph cuts a set of edges; cut sets correspond
exactly to even-degree edge subsets of the dual graph.  Minimum-weight even
subgraphs are found by perfect matching on a port graph: each face gets one
port per boundary dart, ports of a face form a zero-weight clique, and the
two ports of each edge are joined by an edge carrying minus the edge weight.
A port pair matched across an edge means "uncut"; leftover (cut) ports pair
up inside their face's clique, which enforces even cut parity around every
face.

A bridge borders the same face twice, so its dual edge is a self-loop and
its cut state is parity-free: its two ports get a single merged edge with
weight min(-w, 0), and the bridge is decoded as cut exactly when w < 0.

``ground_state`` and the PCC loop share this one reduction: the port graph
is built once per embedded topology, from the darts and faces of
``faces(embedding)``, and ``ExpandedDual.solve`` maps edge weights to port
weights, runs the matching kernel and decodes the matching.  The PCC loop
solves one port graph at many weights, on one kernel session.  The decode
labels node 0 with 0 and propagates the cut along ``Faces.tree``, the
breadth-first tree that ``faces`` finds while checking connectivity, by
pointer jumping: each round folds every vertex's label into the path to
its current ancestor and doubles how far that ancestor lies, so a tree of
depth d takes ceil(log2 d) rounds of array operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .embedding import PlanarEmbedding, faces
from .errors import NotPlanarEmbeddingError, WeightRangeError
from .matching import (
    MAX_ABS_WEIGHT,
    Matching,
    WeightedMatchGraph,
    engine_kernel,
    min_weight_perfect_matching,  # noqa: F401  (perfbench/tracing.py wraps it here)
    perfect_matching,
)
from .model import Labels, SymmetricIsing


@dataclass(frozen=True, eq=False)
class ExpandedDual:
    """Matching reduction of a symmetric planar model.

    Port edge t joins ports port_u[t] and port_v[t].  For t below the
    model's edge count it stands for model edge t (bridge[t] marks merged
    bridge edges); the rest are the zero-weight face cliques.  edge_u and
    edge_v hold the model edges' endpoints.  The decode tree is
    ``Faces.tree`` with each dart replaced by its model edge: tree_vertex
    lists the vertices other than node 0 in breadth-first order from node
    0, tree_edge the model edge to each one's parent, and parent[v] is the
    parent of vertex v (node 0 is its own).  ``weights`` are the model's
    edge weights: the minimum matching weight of ``match_graph`` plus
    their sum equals the ground-state energy.
    """

    weights: tuple[int, ...]
    num_ports: int
    port_u: np.ndarray
    port_v: np.ndarray
    bridge: np.ndarray
    edge_u: np.ndarray
    edge_v: np.ndarray
    tree_vertex: np.ndarray
    tree_edge: np.ndarray
    parent: np.ndarray

    @property
    def tree(self) -> tuple[tuple[int, int, int], ...]:
        """The decode tree as (vertex, parent, model edge) triples."""
        v = self.tree_vertex
        return tuple(zip(v.tolist(), self.parent[v].tolist(), self.tree_edge.tolist()))

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
        parity-free: it is cut exactly when w < 0), 0 on clique edges."""
        w = np.asarray(weights, dtype=np.int64)
        if w.shape != self.bridge.shape:
            raise ValueError(f"expected {len(self.bridge)} weights, got {len(w)}")
        out = np.zeros(len(self.port_u), dtype=np.int64)
        out[: len(w)] = np.where(self.bridge, np.minimum(-w, 0), -w)
        return out

    def open_session(self, engine: str | None = None):
        """A session of ``engine``'s kernel on the port graph, for
        ``solve_array``; close it with its ``close()``."""
        return engine_kernel(engine).open_session(self.num_ports, self.port_u, self.port_v)

    def solve(
        self, weights: Sequence[int] | np.ndarray, engine: str | None = None
    ) -> tuple[int, Labels]:
        """(energy, labels) of a minimum cut at model edge weights
        ``weights``: one cold minimum perfect matching of the port graph by
        ``engine``'s kernel, decoded.  Node 0 is labeled 0.

        Raises NoPerfectMatchingError when the kernel leaves a port
        unmatched or pairs ports that share no port edge (see
        ``perfect_matching``).
        """
        energy, labels = self.solve_array(weights, engine)
        return energy, tuple(labels.tolist())

    def solve_array(
        self, weights: Sequence[int] | np.ndarray, engine: str | None = None, session=None
    ) -> tuple[int, np.ndarray]:
        """``solve``, with the labels as an int8 array, on ``session``
        (from ``open_session`` with the same engine) when given."""
        # Every solve starts cold: between PCC iterates subgradient steps
        # perturb most incidence weights, so a warm start repairs more than
        # it reuses.  A session keeps only the graph's buffers.
        w = np.asarray(weights, dtype=np.int64)
        port_w = self.port_weights(w)
        matched = perfect_matching(
            self.num_ports, self.port_u, self.port_v, port_w, engine, session
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
        # int64 sums are exact while no partial sum can reach 2**63; past
        # that, Python-int sums stay exact.
        if int(np.abs(w).max(initial=0)) * (len(w) + self.num_ports) < 2**62:
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


def _endpoints(
    edges: Sequence[tuple[int, int, object]]
) -> tuple[np.ndarray, np.ndarray]:
    """The (i, j) columns of an edge list, as int64 arrays."""
    u, v, _ = zip(*edges) if edges else ((), (), ())
    return np.array(u, dtype=np.int64), np.array(v, dtype=np.int64)


def _face_cliques(starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Edges (u, v), u < v, of a clique on each face's ports starts[f] to
    starts[f + 1] - 1, sorted by (u, v)."""
    lengths = np.diff(starts)
    us, vs = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for length in sorted(set(lengths.tolist())):
        first = starts[:-1][lengths == length, None]
        a, b = np.triu_indices(length, 1)
        us.append((first + a).ravel())
        vs.append((first + b).ravel())
    u, v = np.concatenate(us), np.concatenate(vs)
    order = np.argsort(u * int(starts[-1]) + v, kind="stable")
    return u[order], v[order]


def _check_endpoints(num_nodes: int, u: np.ndarray, v: np.ndarray) -> None:
    """Reject endpoints not 0 <= u[t] < v[t] < num_nodes and repeated
    edges, as ``SymmetricIsing`` does."""
    bad = np.flatnonzero((u < 0) | (u >= v) | (v >= num_nodes))
    if bad.size:
        t = bad[0]
        raise ValueError(f"edge ({u[t]},{v[t]}) out of range or not i<j")
    key = np.sort(u * num_nodes + v)
    repeated = np.flatnonzero(key[1:] == key[:-1])
    if repeated.size:
        i, j = divmod(int(key[repeated[0]]), num_nodes)
        raise ValueError(f"duplicate edge ({i},{j})")


def build_expanded_dual(
    ising: SymmetricIsing | tuple[np.ndarray, np.ndarray], embedding: PlanarEmbedding
) -> ExpandedDual:
    """Construct the port graph whose minimum perfect matching encodes the
    minimum cut of the embedded symmetric model.

    ``ising`` is the model, or a topology whose weights every solve
    supplies: the int64 endpoint arrays (u, v) of its edges, each with
    u < v, taken as weight 0.
    """
    if isinstance(ising, SymmetricIsing):
        if not ising.is_integer:
            raise ValueError("matching reduction requires integer weights; scale first")
        weights = tuple(w for (_, _, w) in ising.edges)
        if max(map(abs, weights), default=0) > MAX_ABS_WEIGHT:
            raise WeightRangeError("edge weight outside the matching kernel's safe range")
        if embedding.num_vertices != ising.num_nodes:
            raise NotPlanarEmbeddingError(
                f"embedding has {embedding.num_vertices} vertices, model has {ising.num_nodes}"
            )
        edge_u, edge_v = _endpoints(ising.edges)
    else:
        edge_u, edge_v = ising
        _check_endpoints(embedding.num_vertices, edge_u, edge_v)
        weights = (0,) * len(edge_u)
    fs = faces(embedding)
    if not fs.has_edges(edge_u, edge_v):
        raise NotPlanarEmbeddingError("embedding edge set differs from model edge set")

    # A dart's port is its position in the face walk, so each face's ports
    # are consecutive.  Port edge t joins the ports of model edge t's two
    # darts; a bridge's darts share a face, and its edge replaces their
    # clique edge.
    num_ports = len(fs.walk)
    port = np.empty(num_ports, dtype=np.int64)
    port[fs.walk] = np.arange(num_ports)
    forward, backward = fs.darts(edge_u, edge_v), fs.darts(edge_v, edge_u)
    edge_of = np.empty(num_ports, dtype=np.int64)
    edge_of[forward] = edge_of[backward] = np.arange(len(edge_u))
    p1, p2 = port[forward], port[backward]
    bridge = fs.face_of[forward] == fs.face_of[backward]
    clique_u, clique_v = _face_cliques(fs.starts)
    merged = np.minimum(p1, p2)[bridge] * num_ports + np.maximum(p1, p2)[bridge]
    keep = np.ones(len(clique_u), dtype=bool)
    keep[np.searchsorted(clique_u * num_ports + clique_v, merged)] = False
    tree = np.array(fs.tree, dtype=np.int64).reshape(-1, 3)
    parent = np.zeros(embedding.num_vertices, dtype=np.int64)
    parent[tree[:, 0]] = tree[:, 1]

    return ExpandedDual(
        weights=weights,
        num_ports=num_ports,
        port_u=np.concatenate((p1, clique_u[keep])),
        port_v=np.concatenate((p2, clique_v[keep])),
        bridge=bridge,
        edge_u=edge_u,
        edge_v=edge_v,
        tree_vertex=tree[:, 0],
        tree_edge=edge_of[tree[:, 2]],
        parent=parent,
    )


def decode_matching(
    ising: SymmetricIsing, dual: ExpandedDual, matching: Matching
) -> GroundState:
    """Recover a minimum-energy labeling from a minimum perfect matching."""
    mate = [-1] * dual.num_ports
    for (u, v) in matching.pairs:
        mate[u] = v
        mate[v] = u
    energy, labels = dual.decode([w for (_, _, w) in ising.edges], mate)
    return GroundState(labels, energy)


def ground_state(
    ising: SymmetricIsing, embedding: PlanarEmbedding, engine: str | None = None
) -> GroundState:
    """Exact global minimizer of a symmetric planar model.

    Labels are normalized so node 0 has label 0 (any labeling and its
    complement have equal energy).
    """
    dual = build_expanded_dual(ising, embedding)
    energy, labels = dual.solve(dual.weights, engine)
    return GroundState(labels, energy)
