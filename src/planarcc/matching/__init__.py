"""Exact minimum-weight perfect matching on general graphs, integer weights.

Two interchangeable kernels implement the blossom algorithm: a C kernel
(``_blossom.c``, compiled with the system C compiler on first import and
cached, see ``_blossom_c``) and a pure-Python fallback.  The kernel is
chosen once, at import: the compiled one when it builds and loads, else
the Python one, with the reason in COMPILED_UNAVAILABLE.  PLANARCC_NO_EXT=1
skips the build.  Both kernels are deterministic and produce identical
matchings, returned as int64 arrays.  Each solves through sessions: its
``open_session`` validates a graph and builds the kernel's buffers once,
a caller that solves one graph at many weights passes that session to
``perfect_matching``, and a cold solve is a session opened for it alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import NoPerfectMatchingError, PlanarCCError, WeightRangeError
from . import _blossom_c, _blossom_py
from ._blossom_py import MAX_ABS_WEIGHT

#: Why the compiled kernel could not be built or loaded; None when it loaded.
COMPILED_UNAVAILABLE = _blossom_c.UNAVAILABLE


def _select_engines(unavailable: str | None) -> tuple[dict, str]:
    """The engine table and the default engine: the compiled kernel when it
    loaded (``unavailable`` is None), else the Python one."""
    engines = {"python": _blossom_py}
    if unavailable is None:
        engines["compiled"] = _blossom_c
    return engines, "compiled" if unavailable is None else "python"


_ENGINES, DEFAULT_ENGINE = _select_engines(COMPILED_UNAVAILABLE)


def available_engines() -> list[str]:
    return sorted(_ENGINES)


def has_compiled_kernel() -> bool:
    return "compiled" in _ENGINES


def engine_kernel(engine: str | None = None):
    """The kernel module of ``engine`` (DEFAULT_ENGINE when None): its
    ``open_session(n, eu, ev)`` opens a session on a graph, and its
    ``solve_max_weight_matching(n, eu, ev, ew, session=None)`` returns
    (mate, duals) as int64 arrays, cold or on that session.

    Raises PlanarCCError, naming the available engines and why the compiled
    kernel is missing, when ``engine`` is not loaded.
    """
    name = engine or DEFAULT_ENGINE
    if name not in _ENGINES:
        why = f"; compiled kernel: {COMPILED_UNAVAILABLE}" if COMPILED_UNAVAILABLE else ""
        raise PlanarCCError(
            f"matching engine {name!r} unavailable; have: {sorted(_ENGINES)}{why}"
        )
    return _ENGINES[name]


@dataclass(frozen=True)
class WeightedMatchGraph:
    """Undirected graph with integer edge weights for matching."""

    num_vertices: int
    edges: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        seen = set()
        for (u, v, w) in self.edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < self.num_vertices and 0 <= v < self.num_vertices):
                raise ValueError(f"edge ({u},{v}) out of range")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)
            if isinstance(w, bool) or not isinstance(w, int):
                raise ValueError(f"edge ({u},{v}) weight must be an integer")
            if abs(w) > MAX_ABS_WEIGHT:
                raise WeightRangeError(
                    f"edge ({u},{v}) weight {w} outside safe range"
                )


@dataclass(frozen=True)
class Matching:
    """A perfect matching: vertex pairs plus the exact total weight."""

    pairs: tuple[tuple[int, int], ...]
    total_weight: int


def perfect_matching(
    kernel,
    num_vertices: int,
    eu: np.ndarray,
    ev: np.ndarray,
    weights: np.ndarray,
    session=None,
) -> np.ndarray:
    """Mask over the edges (eu[k], ev[k]) of a minimum-weight perfect
    matching at int64 ``weights``, found by one call to the entry of
    ``kernel`` (from ``engine_kernel``): on ``session``, opened on this
    graph by the same kernel's ``open_session``, or cold when None.  The
    entry is looked up at call time.

    Raises NoPerfectMatchingError when the kernel leaves a vertex unmatched
    or pairs vertices that share no edge.
    """
    # Maximum-weight maximum-cardinality matching on negated weights is a
    # minimum-weight perfect matching whenever a perfect matching exists.
    mate, _ = kernel.solve_max_weight_matching(num_vertices, eu, ev, -weights, session)
    # A no-op on the kernels' int64 arrays.
    mate = np.asarray(mate, dtype=np.int64)
    matched = (mate[eu] == ev) & (mate[ev] == eu)
    if 2 * matched.sum() != num_vertices:
        raise NoPerfectMatchingError("matching kernel returned no perfect matching")
    return matched


def min_weight_perfect_matching(
    g: WeightedMatchGraph, engine: str | None = None
) -> Matching:
    """Exact minimum-weight perfect matching, by the kernel of ``engine``
    (see ``engine_kernel``; DEFAULT_ENGINE when None).

    Raises NoPerfectMatchingError when the vertex count is odd or no perfect
    matching exists.  total_weight is computed in exact integer arithmetic.
    """
    eu, ev, w = np.array(g.edges, dtype=np.int64).reshape(-1, 3).T
    matched = perfect_matching(engine_kernel(engine), g.num_vertices, eu, ev, w)
    lo = np.minimum(eu, ev)[matched]
    hi = np.maximum(eu, ev)[matched]
    order = np.argsort(lo, kind="stable")
    pairs = tuple(zip(lo[order].tolist(), hi[order].tolist()))
    return Matching(pairs, sum(w[matched].tolist()))

