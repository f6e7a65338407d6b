"""Certified bounds for planar binary MRFs via per-face unary splitting.

The unary term of each node is split across auxiliary nodes, each placed
inside a chosen face of the embedding and connected to the distinct
vertices on that face's boundary.  Because the copies may disagree, the
augmented model's exact ground state (computable by matching, the graph
stays planar) is a lower bound on the original minimum energy.

The paper places a node in every face; here the chosen faces are an edge
cover of the faces, so that every edge lies on a chosen face (see
``_face_cover``).  A face node whose spokes all weigh 0 changes no energy,
and each chosen face still gives every edge on it the triangle (face node,
i, j) on which the cycle-relaxation argument rests, so the bound's optimum
is kept (README says why) while each solve runs on a port graph about 30%
smaller.

The split weights are improved by projected subgradient steps with
Polyak's step size, while each iterate's restriction to the original nodes
supplies an upper bound.  The augmented weights are integers, floored, with
each node's splits summing exactly to its floored unary, so the bound holds by
construction and "optimal" is proved in integers (see ``certificate_of``).
A step is capped where it would carry a scaled split out of the matching
kernel's weight range (see ``_step_cap``).

Polyak's rule aims at the best upper bound, so a poor one makes the first
steps overshoot.  Each candidate that beats the best upper bound is
therefore polished by iterated conditional modes (``_Upper.polish``)
before it is kept; its energy stays exact.  The model's one exact weight
reading (``BinaryMRF.exact_weights``), kept on the model, gives the scaled
weights, the upper bounds and ICM's flip gains.

The step factor follows Held, Wolfe & Crowder ("Validation of subgradient
optimization", Math. Prog. 1974): it starts at 1.5 and is halved, down to
0.05, after every ``STALL_PATIENCE`` (5) iterations in a row whose lower
bound does not beat the best one so far.  Large early steps lift the bound
fast; halving on a stall lets it settle near the optimum of the relaxation.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .embedding import Faces, PlanarEmbedding, _read_only, _tails, _walk, faces
from .errors import NotPlanarEmbeddingError, WeightRangeError
from .ising import ExpandedDual, build_expanded_dual
from .matching import MAX_ABS_WEIGHT
from .model import BinaryMRF, Labels, _max_abs, complement, energy

DEFAULT_MATCHING_SCALE = 10**6

# Iterations in a row without a better lower bound before the step factor
# is halved.  Polyak's target is the ICM-polished best upper bound, close to
# the optimum early on, and at factor 1.5 the lower bound then oscillates
# about it: 3 or 4 stalls in a row come early and halve the factor to its
# floor while the bound is still far off.  5 is the smallest patience on the
# plateau of summed iterations to certify (24x24 and 32x32 grids, a=0.2).
STALL_PATIENCE = 5


@dataclass(frozen=True, eq=False)
class PCCGraph:
    """The augmented graph: one auxiliary vertex per chosen face of the base
    model (see ``_face_cover``).

    The chosen faces are numbered 0..num_faces - 1 in face order, and face
    f's vertex is num_nodes + f.  Incidence t joins node inc_node[t] to
    chosen face inc_face[t]; incidences run in face order (walk order within
    each face), and inc_count[i] is the number of incidences of node i (the
    size of its N_i, at least 1); by_node lists them grouped by node, node
    i's group from by_node[node_start[i]].  These are int64 arrays;
    ``unary`` is the model's, as float64.  ``augmented_faces`` are the faces
    of the augmented graph, which is planar by construction: its darts are
    derived from the base faces and walked as ``faces`` walks an
    embedding's.  The unchosen base faces are faces of it unchanged.
    ``embedding``, its rotation system, is built from those darts when
    first read.  ``dual`` is the port-graph reduction of its topology, whose
    edges are listed by ``augmented_edges``.
    """

    model: BinaryMRF
    num_faces: int
    inc_node: np.ndarray
    inc_face: np.ndarray
    inc_count: np.ndarray
    by_node: np.ndarray
    node_start: np.ndarray
    unary: np.ndarray
    augmented_faces: Faces = field(repr=False)
    dual: ExpandedDual = field(repr=False)

    @cached_property
    def embedding(self) -> PlanarEmbedding:
        """The augmented graph's rotation system."""
        fs = self.augmented_faces
        return PlanarEmbedding.from_darts(fs.offset, fs.head)

    @property
    def num_vertices(self) -> int:
        return self.model.num_nodes + self.num_faces

    @property
    def num_edges(self) -> int:
        return len(self.model.edges) + len(self.inc_node)

    def augmented_edges(self) -> list[tuple[int, int]]:
        """Edge endpoints of the augmented graph: base edges first, then one
        edge per incidence, in incidence order."""
        return list(zip(self.dual.edge_u.tolist(), self.dual.edge_v.tolist()))


@dataclass
class VariationalParams:
    """Split unary weights, one value per (node, face) incidence.

    The splits of node i always sum to its unary weight; updates go through
    ``apply_step`` which re-projects onto that constraint subspace.
    """

    pcc: PCCGraph
    values: np.ndarray

    def node_sums(self) -> np.ndarray:
        pcc = self.pcc
        return np.bincount(
            pcc.inc_node, weights=self.values, minlength=pcc.model.num_nodes
        )

    def apply_step(self, step: float, direction: np.ndarray) -> None:
        self.values += step * direction
        # Exact re-projection: distribute each node's residual uniformly.
        pcc = self.pcc
        residual = pcc.unary - self.node_sums()
        self.values += residual[pcc.inc_node] / pcc.inc_count[pcc.inc_node]


@dataclass(frozen=True)
class TraceRow:
    iteration: int
    lower_bound: float
    upper_bound: float
    best_upper: float
    step_size: float
    subgrad_norm2: float
    elapsed_ms: float


@dataclass
class BoundTrace:
    rows: list[TraceRow] = field(default_factory=list)

    def to_csv(self, path: str | Path, timed: bool = False) -> None:
        """Write the trace.

        By default elapsed_ms is written as 0 so that identical inputs give
        byte-identical files; pass timed=True for measured wall-clock times.
        """
        lines = ["iter,lower_bound,upper_bound,best_upper,step_size,subgrad_norm2,elapsed_ms"]
        for r in self.rows:
            ms = r.elapsed_ms if timed else 0.0
            lines.append(
                f"{r.iteration},{r.lower_bound!r},{r.upper_bound!r},"
                f"{r.best_upper!r},{r.step_size!r},{r.subgrad_norm2!r},{ms!r}"
            )
        Path(path).write_text("\n".join(lines) + "\n")


@dataclass(frozen=True)
class SolveResult:
    best_assignment: Labels
    best_upper: float
    best_lower: float
    certificate: str  # "optimal" or "gap"
    gap: float
    iterations: int
    trace: BoundTrace


def build_pcc(model: BinaryMRF, embedding: PlanarEmbedding) -> PCCGraph:
    """Attach one auxiliary vertex per chosen face (``_face_cover``: every
    edge lies on a chosen face) to the distinct vertices on that face's
    boundary, and build the port graph of the combined planar graph.  A
    single vertex keeps its one face.

    ``faces`` runs once, on ``embedding``.  The augmented graph's darts and
    decode tree (the base tree and one spoke per chosen face) are derived
    from the base faces' arrays, and its faces are found from those darts
    by the same walk (see ``_checked_walk``).

    That topology (the chosen faces, the incidence arrays and the augmented
    faces) depends only on the base faces and the order of the model's edge
    endpoints.  It is kept, with read-only arrays, in the base ``Faces``
    object's one slot for it, for the last edge order built; a model with
    the same endpoint order reuses it, and any other order is built as on
    the first call and replaces it.  Each call binds its own model and
    unaries, and calls ``faces`` and ``build_expanded_dual`` (which keeps
    the port graph on the augmented faces)."""
    if embedding.num_vertices != model.num_nodes:
        raise ValueError(
            f"embedding has {embedding.num_vertices} vertices, model has {model.num_nodes}"
        )
    fs = faces(embedding)
    base_u, base_v = model.edge_u, model.edge_v
    kept = fs._pcc
    if kept is None or not (np.array_equal(kept[0], base_u) and np.array_equal(kept[1], base_v)):
        kept = fs._pcc = _pcc_topology(fs, base_u, base_v)
    *_, edges, fields = kept
    return PCCGraph(
        model=model,
        unary=np.asarray(model.unary, dtype=np.float64),
        dual=build_expanded_dual(edges, fields["augmented_faces"]),
        **fields,
    )


def _pcc_topology(fs: Faces, base_u: np.ndarray, base_v: np.ndarray) -> tuple:
    """The weight-free part of ``build_pcc``'s graph for the edges
    (base_u[t], base_v[t]) on the base faces ``fs``, every array read-only:
    (base_u, base_v, the augmented edges' endpoint arrays (u, v), the
    ``PCCGraph`` fields num_faces, the incidence arrays and
    augmented_faces).  Raises ValueError when the edges are not the
    faces'."""
    if fs.edge_darts(base_u, base_v) is None:
        raise ValueError("embedding edge set differs from model edge set")
    n = fs.num_vertices

    if n == 1:
        # Single vertex: no darts; its one face connects to it directly.
        num_faces = 1
        inc_node, inc_face = np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64)
        # Darts 0 -> 1 and 1 -> 0, twins, bound its one face.
        offset, head = np.array([0, 1, 2], dtype=np.int64), np.array([1, 0], dtype=np.int64)
        twin, tree = head, np.zeros(1, dtype=np.int64)
    else:
        # Chosen faces are numbered 0..num_faces - 1 in face order.
        chosen = _face_cover(fs)
        rank = np.cumsum(chosen) - 1
        num_faces = int(rank[-1]) + 1
        # A chosen face connects to each boundary vertex at the corner where
        # its walk first visits the vertex: incidences are those first
        # visits, in walk order, and their departure darts are the corners.
        m = len(fs.walk)
        walk_face, walk_tail = fs.face_of[fs.walk], fs.tail[fs.walk]
        on_chosen = np.flatnonzero(chosen[walk_face])
        key = walk_face[on_chosen] * n + walk_tail[on_chosen]
        by_key = np.argsort(key, kind="stable")
        first = np.ones(len(key), dtype=bool)
        first[1:] = key[by_key[1:]] != key[by_key[:-1]]
        visit = on_chosen[np.sort(by_key[first], kind="stable")]
        inc_node, inc_face = walk_tail[visit], rank[walk_face[visit]]
        corner = np.zeros(m, dtype=bool)
        corner[fs.walk[visit]] = True

        # Face vertex f goes after neighbour u in v's rotation when the
        # rotation successor of dart v -> u is a corner of face f.
        insert = corner[fs.succ]
        at = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(1 + insert, out=at[1:])
        flat = np.empty(at[-1], dtype=np.int64)
        flat[at[:-1]] = fs.head
        flat[at[:-1][insert] + 1] = n + rank[fs.face_of[fs.succ[insert]]]
        # Face walks run clockwise under the traversal rule, so a vertex
        # placed inside the face sees the boundary counterclockwise in
        # reversed walk order.
        bounds = np.searchsorted(inc_face, np.arange(num_faces + 1))
        reverse = bounds[inc_face] + bounds[inc_face + 1] - 1 - np.arange(len(inc_face))
        offset = np.concatenate((at[fs.offset], at[-1] + bounds[1:]))
        head = np.concatenate((flat, inc_node[reverse]))
        # Base dart d is augmented dart at[d].  Incidence t joins x_t =
        # inc_node[t] to face vertex F: spoke x_t -> F follows the dart whose
        # rotation successor is x_t's corner, and F -> x_t is F's dart
        # reverse[t].
        pred = np.empty(m, dtype=np.int64)
        pred[fs.succ] = np.arange(m)
        out = at[pred[fs.walk[visit]]] + 1
        into = at[-1] + reverse
        twin = np.empty(len(head), dtype=np.int64)
        twin[at[:-1]] = at[fs.twin]
        twin[out], twin[into] = into, out
        # The decode tree is the base tree and, per chosen face, the spoke
        # from its first incidence.
        tree = np.concatenate((at[fs.tree], out[bounds[:-1]]))

    # Only the topology matters: each solve supplies the edge weights.
    topology = (np.concatenate((base_u, inc_node)), np.concatenate((base_v, n + inc_face)))
    aug_faces = _checked_walk(offset, head, twin, tree)

    inc_count = np.bincount(inc_node, minlength=n)
    arrays = dict(
        inc_node=inc_node,
        inc_face=inc_face,
        inc_count=inc_count,
        by_node=np.argsort(inc_node, kind="stable"),
        node_start=np.cumsum(inc_count) - inc_count,
    )
    _read_only(*topology, *arrays.values())
    return base_u, base_v, topology, dict(num_faces=num_faces, augmented_faces=aug_faces, **arrays)


def _face_cover(fs: Faces) -> np.ndarray:
    """Which faces of ``fs`` get a face node, as a bool array: every face
    but a greedy maximal independent set of the dual graph, so that every
    edge lies on a chosen face.

    Two faces are adjacent when they share an edge, and a face with a bridge
    on its boundary is adjacent to itself, so it is always chosen.  The
    greedy pass visits faces by (boundary darts, face index), ascending; on
    a grid it leaves one colour of the inner faces' checkerboard and the
    outer face chosen."""
    own, across = fs.face_of[fs.walk], fs.face_of[fs.twin[fs.walk]]
    blocked = np.zeros(len(fs), dtype=bool)
    blocked[own[own == across]] = True
    blocked, starts, across = blocked.tolist(), fs.starts.tolist(), across.tolist()
    chosen = np.ones(len(fs), dtype=bool)
    for f in np.argsort(np.diff(fs.starts), kind="stable").tolist():
        if not blocked[f]:
            chosen[f] = False
            for g in across[starts[f] : starts[f + 1]]:
                blocked[g] = True
    return chosen


def _checked_walk(offset: np.ndarray, head: np.ndarray, twin: np.ndarray, tree: np.ndarray) -> Faces:
    """The ``Faces`` of the derived darts given by ``offset``, ``head`` and
    ``twin``, with spanning ``tree``, walked as ``faces`` walks an
    embedding's darts.

    Raises AssertionError when the twins are not an involution pairing
    opposite darts, a dart key repeats or Euler's formula fails.
    """
    n, m = len(offset) - 1, len(head)
    tail = _tails(offset)
    if not (np.array_equal(twin[twin], np.arange(m)) and np.array_equal(head[twin], tail)):
        raise AssertionError("derived augmented darts: twins are not paired; this is a bug")
    try:
        fs = _walk(offset, tail, head, twin, np.argsort(tail * n + head, kind="stable"), tree)
    except NotPlanarEmbeddingError:
        raise AssertionError("derived augmented darts: Euler's formula fails; this is a bug") from None
    if (fs._keys[1:] == fs._keys[:-1]).any():
        raise AssertionError("derived augmented darts: a dart key repeats; this is a bug")
    return fs


def init_params(model: BinaryMRF, pcc: PCCGraph) -> VariationalParams:
    """Uniform split: theta_i^f = theta_i / |N_i|.  Raises ValueError when
    ``model`` is not the model ``pcc`` was built for."""
    if model != pcc.model:
        raise ValueError("model differs from the model the PCC graph was built for")
    return VariationalParams(pcc, pcc.unary[pcc.inc_node] / pcc.inc_count[pcc.inc_node])


def _scale_base(exact: tuple, matching_scale: int) -> tuple[np.ndarray, np.ndarray]:
    """Base edge weights and each node's unary target in matching-scale
    units, as int64 arrays: the floor of each weight of ``exact`` (a
    model's ``exact_weights``) times ``matching_scale``.  Raises WeightRangeError
    when one passes ``MAX_ABS_WEIGHT``, edge weights checked first."""
    if matching_scale < 1:
        raise ValueError("matching_scale must be >= 1")
    scale = int(matching_scale)
    den, *weights = exact
    messages = (
        "scaled edge weight exceeds safe range; lower matching_scale",
        "sum of scaled split weights exceeds safe range; lower matching_scale",
    )
    scaled = []
    for w, message in zip(weights, messages):
        if w.dtype == np.int64 and scale <= MAX_ABS_WEIGHT:
            # den is 1: an int64 multiply, once the largest product fits.
            if _max_abs(w) * scale > MAX_ABS_WEIGHT:
                raise WeightRangeError(message)
            scaled.append(w * scale)
        else:
            w = w.astype(object) * scale // den
            if _max_abs(w) > MAX_ABS_WEIGHT:
                raise WeightRangeError(message)
            scaled.append(w.astype(np.int64))
    return tuple(scaled)


def _bound(
    pcc: PCCGraph,
    params: VariationalParams,
    matching_scale: int,
    base: tuple[np.ndarray, np.ndarray],
    session=None,
) -> tuple[int, np.ndarray]:
    """One exact solve of the augmented model at the current splits, with
    ``base`` from ``_scale_base``: (integer ground-state energy, augmented
    labels as an int8 array), on ``session`` when given (see
    ``ExpandedDual.solve``).  Each node's splits are rounded to
    matching-scale units and its first one takes up the difference to the
    node's unary target."""
    base_scaled, target = base
    # Clipped so that the cast cannot wrap: a clipped split fails the range
    # check, unless it is a node's first, which the difference overwrites.
    limit = MAX_ABS_WEIGHT + 1
    units = np.clip(np.rint(params.values * matching_scale), -limit, limit).astype(np.int64)
    grouped = units[pcc.by_node]
    grouped[pcc.node_start] += target - np.add.reduceat(grouped, pcc.node_start)
    units[pcc.by_node] = grouped
    if np.abs(units).max(initial=0) > MAX_ABS_WEIGHT:
        raise WeightRangeError("scaled split weight exceeds safe range; lower matching_scale")
    return pcc.dual.solve(np.concatenate((base_scaled, units)), session)


def lower_bound(
    model: BinaryMRF,
    pcc: PCCGraph,
    params: VariationalParams,
    matching_scale: int = DEFAULT_MATCHING_SCALE,
) -> tuple[float, Labels]:
    """Exact minimum of the augmented model at the given splits: a valid
    lower bound on the original minimum energy.

    Returns (value, config); config labels the original nodes followed by
    the face nodes.  value is gs / matching_scale + constant, with gs the
    augmented model's integer ground-state energy; its weights are floored
    and each node's splits sum exactly to its floored unary, so the bound
    holds by construction.  The port-graph reduction is built once per
    ``PCCGraph``, by ``build_pcc``; each call scales the weights and runs
    one matching.  Raises ValueError when ``model`` is not the model
    ``pcc`` was built for.
    """
    if model != pcc.model:
        raise ValueError("model differs from the model the PCC graph was built for")
    scale = int(matching_scale)
    gs, labels = _bound(pcc, params, scale, _scale_base(model.exact_weights, scale))
    return gs / scale + pcc.model.constant, tuple(labels.tolist())


def certificate_of(model: BinaryMRF, best_gs: int, scale: int, best_upper: float) -> str:
    """"optimal" when ``model`` is integer (its stored ``is_integer``) and
    its optimum, at least ceil(best_gs / scale) + constant for a best
    augmented ground state best_gs at matching scale ``scale``, is
    best_upper; else "gap".  Decided in Python integers.  tol plays no
    part: ``optimize`` stops at the first iteration where this reads
    "optimal"."""
    ceil_gs = -(-best_gs // scale)
    return "optimal" if model.is_integer and ceil_gs + model.constant >= best_upper else "gap"


def subgradient(pcc: PCCGraph, config: Sequence[int]) -> np.ndarray:
    """Projected subgradient of the lower bound in the split weights.

    For incidence (i, f): [X_i != X_0^f] minus the mean disagreement of node
    i's copies; each node's coordinates sum to zero, so steps preserve the
    split-sum constraint.
    """
    cfg = np.asarray(config)
    if len(cfg) != pcc.num_vertices:
        raise ValueError(
            f"config has {len(cfg)} labels, expected {pcc.num_vertices}"
        )
    n = pcc.model.num_nodes
    disagree = (cfg[pcc.inc_node] != cfg[n + pcc.inc_face]).astype(np.float64)
    sums = np.bincount(pcc.inc_node, weights=disagree, minlength=n)
    return disagree - (sums / pcc.inc_count)[pcc.inc_node]


def polyak_step(
    best_upper: float, lower: float, grad_sq_norm: float, factor: float
) -> float:
    """Polyak's rule: factor * (best upper - current lower) / |g|^2."""
    if grad_sq_norm <= 0:
        raise ValueError("zero subgradient: no step possible (bound is stationary)")
    return factor * (best_upper - lower) / grad_sq_norm


def _step_cap(pcc: PCCGraph, values: np.ndarray, direction: np.ndarray, matching_scale: int) -> float:
    """The largest step along ``direction`` after which every split of
    ``values``, scaled as ``_bound`` scales it, stays within
    ``MAX_ABS_WEIGHT``; inf when ``direction`` is zero.

    Node i's first scaled split takes up the rounding of its others (half a
    unit each) and the floor of its target (under one unit); one unit more
    covers float error, so each split of node i keeps inc_count[i] + 1
    units of slack.  A split that already lies in its slack caps the step
    at 0."""
    slack = pcc.inc_count[pcc.inc_node] + 1
    room = (MAX_ABS_WEIGHT - slack) / matching_scale - np.copysign(values, direction)
    steps = np.full(len(room), math.inf)
    np.divide(room, np.abs(direction), out=steps, where=direction != 0)
    return max(float(steps.min(initial=math.inf)), 0.0)


def decode_upper(model: BinaryMRF, config: Sequence[int]) -> tuple[Labels, float]:
    """Candidate solution from a relaxed configuration: restrict to the
    original nodes and take the better of the restriction and its complement."""
    x = tuple(int(v) for v in config[: model.num_nodes])
    e = energy(model, x)
    xbar = complement(x)
    ebar = energy(model, xbar)
    if ebar < e:
        return xbar, ebar
    return x, e


class _Upper:
    """Each iterate's upper bound: the labels x of the model's nodes, an
    int8 array, decode to a candidate as ``decode_upper`` picks it, and a
    candidate is polished by iterated conditional modes (Besag, "On the
    statistical analysis of dirty pictures", JRSS B 1986).

    Built once per run from the model's exact weight reading and endpoint
    arrays.  On an integer model ``energies`` gives exact energies from the
    arrays, equal to ``energy()``'s: x and its complement cut the same
    edges, and the complement pays the unary of the nodes x labels 0.  Any other model
    decodes with ``decode_upper`` and measures with ``energy()``, so its
    float energies are ``energy()``'s bit for bit.

    ICM sweeps the nodes in index order and flips each one whose flip
    strictly lowers the energy, until a sweep flips nothing: a single-flip
    local minimum.  Flipping node i changes the energy by delta[i] =
    +-theta_i (+ when x_i is 0) plus theta_ij for each neighbour j with
    x_j = x_i, less theta_ij for each other.  Over den every delta is an
    exact integer (an int64 reading, under the one int64 rule, cannot
    overflow), so the sweeps end.  A
    flip of i negates delta[i] and moves each neighbour's delta by
    2 theta_ij.  Node i's neighbours are col[start[i]:start[i + 1]], with
    twice the edge weights in w2.
    """

    def __init__(self, model: BinaryMRF):
        _, edge_w, unary = model.exact_weights
        u, v = model.edge_u, model.edge_v
        self.model, self.u, self.v, self.edge_w, self.unary = model, u, v, edge_w, unary
        self.unary_total = int(unary.sum())
        rows = np.concatenate((u, v))
        by_row = np.argsort(rows, kind="stable")
        self.rows, self.cols = rows[by_row], np.concatenate((v, u))[by_row]
        self.weight = np.concatenate((edge_w, edge_w))[by_row]
        self.start = [0, *np.cumsum(np.bincount(rows, minlength=model.num_nodes)).tolist()]
        self.col, self.w2 = self.cols.tolist(), (2 * self.weight).tolist()

    def energies(self, x: np.ndarray) -> tuple[int, int]:
        """(energy of x, energy of its complement), on an integer model."""
        cut_sum = self.model.constant + int(self.edge_w @ (x[self.u] != x[self.v]))
        ones = int(self.unary @ x.view(bool))
        return cut_sum + ones, cut_sum + self.unary_total - ones

    def decode(self, x: np.ndarray) -> tuple[Sequence[int], float]:
        """(candidate, energy): the complement of x when its energy is
        strictly lower, else x."""
        if not self.model.is_integer:
            return decode_upper(self.model, x.tolist())
        e, ebar = self.energies(x)
        return (1 - x, ebar) if ebar < e else (x, e)

    def icm(self, x: np.ndarray) -> list[int] | None:
        """The labels after ICM from the int8 labels ``x``, or None when no
        node flips."""
        delta = np.where(x.view(bool), -self.unary, self.unary)
        same = x[self.rows] == x[self.cols]
        np.add.at(delta, self.rows, np.where(same, self.weight, -self.weight))
        if not (delta < 0).any():
            return None
        y, delta = x.tolist(), delta.tolist()
        start, col, w2 = self.start, self.col, self.w2
        swept = False
        while not swept:
            swept = True
            for i, d in enumerate(delta):
                if d < 0:
                    swept = False
                    yi = y[i] = 1 - y[i]
                    delta[i] = -d
                    for k in range(start[i], start[i + 1]):
                        j = col[k]
                        delta[j] += w2[k] if y[j] == yi else -w2[k]
        return y

    def polish(self, cand: Sequence[int], ub: float) -> tuple[Labels, float]:
        """(labels, energy): the candidate ``cand`` of energy ``ub`` after
        ICM when its energy, from ``energies`` on an integer model and from
        ``energy()`` on any other, is strictly lower; else ``cand``."""
        x = np.asarray(cand, dtype=np.int8)
        y = self.icm(x)
        if y is not None:
            if self.model.is_integer:
                e = self.energies(np.array(y, dtype=np.int8))[0]
            else:
                e = energy(self.model, y)
            if e < ub:
                return tuple(y), e
        return tuple(x.tolist()), ub


def optimize(
    model: BinaryMRF,
    embedding: PlanarEmbedding,
    max_iters: int = 1000,
    tol: float = 1.0,
    matching_scale: int = DEFAULT_MATCHING_SCALE,
    on_iteration: Callable[[int, VariationalParams, float, float], None] | None = None,
) -> SolveResult:
    """Full solve: iterate exact lower bounds and decoded upper bounds,
    improving the splits by projected subgradient with Polyak steps.

    Each iterate's decoded candidate that beats best_upper is polished by
    ICM (``_Upper.polish``), and the polished one is kept when its exact
    energy is lower; a trace row's upper_bound is the candidate before the
    polish.  The step is factor * (best_upper - lb) / |g|^2, capped by
    ``_step_cap`` so that every scaled split stays within the kernel's
    weight range.  The factor starts at 1.5; after ``STALL_PATIENCE`` (5) iterations in a row whose lb
    does not beat best_lower it is halved (never below 0.05) and the count
    restarts.  Where the cap does not bind, a trace row's factor is
    step_size * subgrad_norm2 / (best_upper - lower_bound).

    Stops at the first iteration where the certificate, ``certificate_of``
    at the best integer ground state, reads "optimal" (only integer-weight
    models get one), when best_upper - best_lower < tol, at max_iters, or on
    a zero subgradient.  The model's one exact weight reading
    (``exact_weights``) serves the scaling, the upper bound and ICM.
    """
    if not model.is_integer:
        warnings.warn(
            "model weights are not integers; the gap is reported but no "
            "optimality certificate will be issued",
            stacklevel=2,
        )
    pcc = build_pcc(model, embedding)
    params = init_params(model, pcc)
    scale, n = int(matching_scale), model.num_nodes
    base = _scale_base(model.exact_weights, scale)
    upper = _Upper(model)

    trace = BoundTrace()
    best_upper: float | None = None
    best_assignment: Labels = ()
    best_gs: int | None = None
    best_lower = -np.inf
    factor = 1.5
    stalls = 0
    start = time.perf_counter()
    limit = max(1, max_iters)
    iteration = 0
    session = pcc.dual.open_session()
    try:
        while iteration < limit:
            iteration += 1
            gs, config = _bound(pcc, params, scale, base, session)
            lb = gs / scale + model.constant
            cand, ub = upper.decode(config[:n])
            if best_upper is None or ub < best_upper:
                best_assignment, best_upper = upper.polish(cand, ub)
            if best_gs is None or gs > best_gs:
                best_gs, best_lower = gs, lb
                stalls = 0
            else:
                stalls += 1
                if stalls == STALL_PATIENCE:
                    factor = max(factor / 2, 0.05)
                    stalls = 0
            gap = best_upper - best_lower
            certificate = certificate_of(model, best_gs, scale, best_upper)

            g = subgradient(pcc, config)
            gn2 = float(g @ g)
            stop = certificate == "optimal" or gap < tol or iteration == limit or gn2 == 0.0
            lam = 0.0
            if not stop:
                lam = polyak_step(best_upper, lb, gn2, factor)
                lam = min(lam, _step_cap(pcc, params.values, g, scale))
                params.apply_step(lam, g)
            trace.rows.append(
                TraceRow(
                    iteration,
                    lb,
                    float(ub),
                    float(best_upper),
                    lam,
                    gn2,
                    (time.perf_counter() - start) * 1000.0,
                )
            )
            if on_iteration is not None:
                on_iteration(iteration, params, lb, float(ub))
            if stop:
                break
    finally:
        session.close()

    gap = float(best_upper - best_lower)
    return SolveResult(
        best_assignment=best_assignment,
        best_upper=best_upper,
        best_lower=best_lower,
        certificate=certificate,
        gap=gap,
        iterations=iteration,
        trace=trace,
    )
