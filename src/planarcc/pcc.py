"""Certified bounds for planar binary MRFs via per-face unary splitting.

The unary term of each node is split across auxiliary nodes, one placed
inside every face of the embedding (outer face included) and connected to
the distinct vertices on that face's boundary.  Because the copies may
disagree, the augmented model's exact ground state (computable by matching,
the graph stays planar) is a lower bound on the original minimum energy.
The split weights are then improved by projected subgradient steps with
Polyak's step size, while each iterate's restriction to the original nodes
supplies an upper bound.  The augmented weights are integers, floored, with
each node's splits summing exactly to its floored unary, so the bound holds by
construction and "optimal" is proved in integers (see ``certificate_of``).

The step factor follows Held, Wolfe & Crowder ("Validation of subgradient
optimization", Math. Prog. 1974): it starts at 1.5 and is halved, down to
0.05, after every 3 iterations in a row whose lower bound does not beat the
best one so far.  Large early steps lift the bound fast; halving on a stall
lets it settle near the optimum of the relaxation.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .embedding import PlanarEmbedding, faces
from .errors import WeightRangeError
from .ising import ExpandedDual, _endpoints, build_expanded_dual
from .matching import MAX_ABS_WEIGHT
from .model import BinaryMRF, Labels, complement, energy

DEFAULT_MATCHING_SCALE = 10**6


@dataclass(frozen=True, eq=False)
class PCCGraph:
    """The augmented graph: one auxiliary vertex per face of the base model.

    Incidence t joins node inc_node[t] to face inc_face[t], whose vertex is
    num_nodes + inc_face[t]; incidences run in face order (walk order within
    each face), and inc_count[i] is the number of incidences of node i (the
    size of its N_i); by_node lists them grouped by node, node i's group
    from by_node[node_start[i]].  These are int64 arrays; ``unary`` is the
    model's, as float64.  ``embedding`` is the
    combined rotation system of the augmented graph, which is planar by
    construction; ``dual`` is the port-graph reduction of its topology,
    whose edges are listed by ``augmented_edges``.
    """

    model: BinaryMRF
    num_faces: int
    inc_node: np.ndarray
    inc_face: np.ndarray
    inc_count: np.ndarray
    by_node: np.ndarray
    node_start: np.ndarray
    unary: np.ndarray
    embedding: PlanarEmbedding
    dual: ExpandedDual = field(repr=False)

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
    """Attach one auxiliary vertex per face (outer face included) to the
    distinct vertices on that face's boundary, and build the combined
    planar embedding."""
    if embedding.num_vertices != model.num_nodes:
        raise ValueError(
            f"embedding has {embedding.num_vertices} vertices, model has {model.num_nodes}"
        )
    fs = faces(embedding)
    base_u, base_v = _endpoints(model.edges)
    if not fs.has_edges(base_u, base_v):
        raise ValueError("embedding edge set differs from model edge set")
    n = model.num_nodes
    num_faces = len(fs)

    if n == 1:
        # Single vertex: no darts; its one face connects to it directly.
        inc_node, inc_face = np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64)
        offset, head = np.array([0, 1, 2], dtype=np.int64), np.array([1, 0], dtype=np.int64)
    else:
        # A face connects to each boundary vertex at the corner where its
        # walk first visits the vertex: incidences are those first visits,
        # in walk order, and their departure darts are the corners.
        m = len(fs.walk)
        walk_face, walk_tail = fs.face_of[fs.walk], fs.tail[fs.walk]
        key = walk_face * n + walk_tail
        by_key = np.argsort(key, kind="stable")
        first = np.ones(m, dtype=bool)
        first[1:] = key[by_key[1:]] != key[by_key[:-1]]
        visit = np.sort(by_key[first], kind="stable")
        inc_node, inc_face = walk_tail[visit], walk_face[visit]
        corner = np.zeros(m, dtype=bool)
        corner[fs.walk[visit]] = True

        # Face vertex f goes after neighbour u in v's rotation when the
        # rotation successor of dart v -> u is a corner of face f.
        insert = corner[fs.succ]
        at = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(1 + insert, out=at[1:])
        flat = np.empty(at[-1], dtype=np.int64)
        flat[at[:-1]] = fs.head
        flat[at[:-1][insert] + 1] = n + fs.face_of[fs.succ[insert]]
        # Face walks run clockwise under the traversal rule, so a vertex
        # placed inside the face sees the boundary counterclockwise in
        # reversed walk order.
        bounds = np.searchsorted(inc_face, np.arange(num_faces + 1))
        reverse = bounds[inc_face] + bounds[inc_face + 1] - 1 - np.arange(len(inc_face))
        offset = np.concatenate((at[fs.offset], at[-1] + bounds[1:]))
        head = np.concatenate((flat, inc_node[reverse]))

    aug_embedding = PlanarEmbedding.from_darts(offset, head)
    # Only the topology matters: each solve supplies the edge weights.
    topology = (np.concatenate((base_u, inc_node)), np.concatenate((base_v, n + inc_face)))

    inc_count = np.bincount(inc_node, minlength=n)
    return PCCGraph(
        model=model,
        num_faces=num_faces,
        inc_node=inc_node,
        inc_face=inc_face,
        inc_count=inc_count,
        by_node=np.argsort(inc_node, kind="stable"),
        node_start=np.cumsum(inc_count) - inc_count,
        unary=np.asarray(model.unary, dtype=np.float64),
        embedding=aug_embedding,
        dual=build_expanded_dual(topology, aug_embedding),
    )


def init_params(model: BinaryMRF, pcc: PCCGraph) -> VariationalParams:
    """Uniform split: theta_i^f = theta_i / |N_i|.  Raises ValueError when
    ``model`` is not the model ``pcc`` was built for."""
    if model != pcc.model:
        raise ValueError("model differs from the model the PCC graph was built for")
    return VariationalParams(pcc, pcc.unary[pcc.inc_node] / pcc.inc_count[pcc.inc_node])


def _scale_base(model: BinaryMRF, matching_scale: int) -> tuple[np.ndarray, np.ndarray]:
    """Base edge weights and each node's unary target in matching-scale
    units, as int64 arrays: the floor of each exact scaled value."""
    if matching_scale < 1:
        raise ValueError("matching_scale must be >= 1")
    scale = int(matching_scale)

    def floor_scaled(w: float) -> int:
        if isinstance(w, int):
            return w * scale
        num, den = float(w).as_integer_ratio()  # exact
        return num * scale // den

    base = [floor_scaled(w) for (_, _, w) in model.edges]
    target = [floor_scaled(w) for w in model.unary]
    if max(map(abs, base), default=0) > MAX_ABS_WEIGHT:
        raise WeightRangeError("scaled edge weight exceeds safe range; lower matching_scale")
    if max(map(abs, target), default=0) > MAX_ABS_WEIGHT:
        raise WeightRangeError("sum of scaled split weights exceeds safe range; lower matching_scale")
    return np.array(base, dtype=np.int64), np.array(target, dtype=np.int64)


def _bound(
    pcc: PCCGraph,
    params: VariationalParams,
    matching_scale: int,
    base: tuple[np.ndarray, np.ndarray],
    engine: str | None,
    session=None,
) -> tuple[int, np.ndarray]:
    """One exact solve of the augmented model at the current splits, with
    ``base`` from ``_scale_base``: (integer ground-state energy, augmented
    labels as an int8 array), on ``session`` when given (see
    ``ExpandedDual.solve_array``).  Each node's splits are rounded to
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
    return pcc.dual.solve_array(np.concatenate((base_scaled, units)), engine, session)


def lower_bound(
    model: BinaryMRF,
    pcc: PCCGraph,
    params: VariationalParams,
    matching_scale: int = DEFAULT_MATCHING_SCALE,
    engine: str | None = None,
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
    gs, labels = _bound(pcc, params, scale, _scale_base(pcc.model, scale), engine)
    return gs / scale + pcc.model.constant, tuple(labels.tolist())


def certificate_of(model: BinaryMRF, best_gs: int, scale: int, best_upper: float) -> str:
    """"optimal" when ``model`` is integer and its optimum, at least
    ceil(best_gs / scale) + constant for a best augmented ground state
    best_gs at matching scale ``scale``, is best_upper; else "gap".  Decided
    in Python integers.  It is a proof, not a stopping decision: tol plays
    no part."""
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


class _UpperBound:
    """``decode_upper`` on arrays, for an integer model whose energies int64
    holds exactly (``fits``): the labels x of the model's nodes are an int8
    array, ``energies`` gives the energies of x and of its complement, equal
    to ``energy()``, and ``decode`` picks the candidate as ``decode_upper``
    does.  x and its complement cut the same edges; the complement pays the
    unary of the nodes x labels 0.
    """

    @staticmethod
    def fits(model: BinaryMRF) -> bool:
        """True when no partial sum of ``model``'s energies can reach 2**63."""
        terms = [*(w for (_, _, w) in model.edges), *model.unary, model.constant]
        return model.is_integer and max(map(abs, terms)) * len(terms) < 2**62

    def __init__(self, model: BinaryMRF):
        self.u, self.v = _endpoints(model.edges)
        self.constant = model.constant
        self.edge_w = np.array([w for (_, _, w) in model.edges], dtype=np.int64)
        self.unary = np.array(model.unary, dtype=np.int64)
        self.unary_total = int(self.unary.sum())

    def energies(self, x: np.ndarray) -> tuple[int, int]:
        """(energy of x, energy of its complement)."""
        cut_sum = self.constant + int(self.edge_w @ (x[self.u] != x[self.v]))
        ones = int(self.unary @ x.view(bool))
        return cut_sum + ones, cut_sum + self.unary_total - ones

    def decode(self, x: np.ndarray) -> tuple[np.ndarray, int]:
        """(candidate, energy): the complement of x when its energy is
        strictly lower, else x."""
        e, ebar = self.energies(x)
        return (1 - x, ebar) if ebar < e else (x, e)


def optimize(
    model: BinaryMRF,
    embedding: PlanarEmbedding,
    max_iters: int = 1000,
    tol: float = 1.0,
    matching_scale: int = DEFAULT_MATCHING_SCALE,
    engine: str | None = None,
    on_iteration: Callable[[int, VariationalParams, float, float], None] | None = None,
) -> SolveResult:
    """Full solve: iterate exact lower bounds and decoded upper bounds,
    improving the splits by projected subgradient with Polyak steps.

    The step is factor * (best_upper - lb) / |g|^2.  The factor starts at
    1.5; after 3 iterations in a row whose lb does not beat best_lower it is
    halved (never below 0.05) and the count restarts.  A trace row's factor
    is step_size * subgrad_norm2 / (best_upper - lower_bound).

    Stops when best_upper - best_lower < tol, at max_iters, or on a zero
    subgradient.  The certificate is ``certificate_of`` at the best integer
    ground state; it reads "optimal" only for integer-weight models.
    """
    if not model.is_integer:
        warnings.warn(
            "model weights are not integers; the gap is reported but no "
            "optimality certificate will be issued",
            stacklevel=2,
        )
    pcc = build_pcc(model, embedding)
    params = init_params(model, pcc)
    scale = int(matching_scale)
    base = _scale_base(model, scale)
    upper = _UpperBound(model) if _UpperBound.fits(model) else None
    n = model.num_nodes

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
    session = pcc.dual.open_session(engine)
    try:
        while iteration < limit:
            iteration += 1
            gs, config = _bound(pcc, params, scale, base, engine, session)
            lb = gs / scale + model.constant
            x = config[:n]
            cand, ub = upper.decode(x) if upper is not None else decode_upper(model, x.tolist())
            if best_upper is None or ub < best_upper:
                best_upper = ub
                best_assignment = tuple(np.asarray(cand).tolist())
            if best_gs is None or gs > best_gs:
                best_gs, best_lower = gs, lb
                stalls = 0
            else:
                stalls += 1
                if stalls == 3:
                    factor = max(factor / 2, 0.05)
                    stalls = 0
            gap = best_upper - best_lower

            g = subgradient(pcc, config)
            gn2 = float(g @ g)
            stop = gap < tol or iteration == limit or gn2 == 0.0
            lam = 0.0
            if not stop:
                lam = polyak_step(best_upper, lb, gn2, factor)
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
        certificate=certificate_of(model, best_gs, scale, best_upper),
        gap=gap,
        iterations=iteration,
        trace=trace,
    )
