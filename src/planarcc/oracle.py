"""Brute-force reference solvers.

Exhaustive enumeration with hard size caps, so every fast path in the
library can be checked against an implementation that is obviously
correct.

``brute_force_map`` splits the nodes in two.  The last L = min(ceil(n/2),
12) form the low part, whose energies over all 2^L assignments are
computed once.  Assignments of the other nodes, the high part, run in
blocks of 64, and a block's 64 x 2^L energies are its high part's energies
plus the low part's plus the edges between the parts, which for a fixed
high assignment are linear in the low bits.  Memory is O(2^L (L + 64)),
not O(n 2^n): at the 24-node cap one call took 75 ms and a 3.4 MiB
tracemalloc peak on a 2-vCPU Xeon VM, where one int64 array per node over
2^20-assignment chunks took 4.1-4.6 s and 408 MiB.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoPerfectMatchingError, TooLargeError
from .matching import Matching, WeightedMatchGraph
from .model import BinaryMRF, Labels, SymmetricIsing

MAX_MAP_NODES = 24
MAX_MWPM_VERTICES = 12

_LOW_BITS = 12
_BLOCK = 64


@dataclass(frozen=True)
class OracleResult:
    assignment: Labels
    energy: float


def _bit_table(k: int) -> np.ndarray:
    """The 2^k x k table of all k-bit codes in order, most significant bit
    first."""
    codes = np.arange(1 << k, dtype=np.int64)
    return (codes[:, None] >> np.arange(k - 1, -1, -1)) & 1


def _enumerate_min(model: BinaryMRF | SymmetricIsing, constant: int | float) -> OracleResult:
    """Exhaustive minimum over all 2^n assignments of ``model`` plus
    ``constant``.

    Assignments are encoded with x_0 as the most significant bit, and codes
    are scanned in order, keeping the first minimum, so the lexicographically
    smallest minimizer wins.  Nodes 0..H-1 are the high part and the last L
    the low part.  An edge (i high, j low) costs w*x_i + w*(1 - 2*x_i)*x_j,
    so under one high code the cross edges add a constant plus a coefficient
    per low node times its bit.  Each of those terms is at most its |w| in
    magnitude, so no partial sum exceeds the sum of all |w|.  Integer
    weights are summed as the model's exact reading holds them: in int64
    under its one int64 rule, past it in Python ints (object arrays), so
    sums of integers are always exact.  Other weights are summed in float64.
    Sums run in a fixed order with no BLAS call, so results do not depend
    on thread counts.
    """
    n = model.num_nodes
    if n == 0:
        return OracleResult((), constant)
    den, edge_w, unary = model.exact_weights
    if model.is_integer:
        dtype = edge_w.dtype
    else:
        dtype = np.float64
        edge_w, unary = edge_w / den, unary / den
    low = min((n + 1) // 2, _LOW_BITS)
    high = n - low
    high_bits, low_bits = _bit_table(high), _bit_table(low)
    # Each part's own energies: its unaries and the edges inside it.
    high_energy = np.zeros(1 << high, dtype=dtype)
    low_energy = np.zeros(1 << low, dtype=dtype)
    # cross[h, k]: coefficient of low node k's bit under high code h.
    cross = np.zeros((1 << high, low), dtype=dtype)
    for i, w in enumerate(unary.tolist()):
        if w != 0:
            w = np.asarray(w, dtype=dtype)
            if i < high:
                high_energy += w * high_bits[:, i]
            else:
                low_energy += w * low_bits[:, i - high]
    # i < j, so only i can be high in a cross edge.
    for i, j, w in zip(model.edge_u.tolist(), model.edge_v.tolist(), edge_w.tolist()):
        w = np.asarray(w, dtype=dtype)
        if j < high:
            high_energy += w * (high_bits[:, i] ^ high_bits[:, j])
        elif i >= high:
            low_energy += w * (low_bits[:, i - high] ^ low_bits[:, j - high])
        else:
            x = high_bits[:, i]
            high_energy += w * x
            cross[:, j - high] += w * (1 - 2 * x)

    best_val = None
    best_code = -1
    block = min(_BLOCK, 1 << high)
    energies = np.empty((block, 1 << low), dtype=dtype)
    for start in range(0, 1 << high, block):
        # Column 0 (all low bits 0) holds the high energies; prepending low
        # node k as the next more significant bit doubles the filled columns.
        energies[:, 0] = high_energy[start:start + block]
        for k in range(low - 1, -1, -1):
            m = 1 << (low - 1 - k)
            np.add(energies[:, :m], cross[start:start + block, k, None],
                   out=energies[:, m:2 * m])
        energies += low_energy
        flat = int(np.argmin(energies))
        val = energies.flat[flat]
        if best_val is None or val < best_val:
            best_val = val
            best_code = (start << low) + flat
    assignment = tuple((best_code >> (n - 1 - i)) & 1 for i in range(n))
    value = int(best_val) if model.is_integer else float(best_val)
    return OracleResult(assignment, value + constant)


def brute_force_map(model: BinaryMRF) -> OracleResult:
    """Global minimum-energy assignment by exhaustive enumeration."""
    if model.num_nodes > MAX_MAP_NODES:
        raise TooLargeError(
            f"{model.num_nodes} nodes exceeds brute-force cap {MAX_MAP_NODES}"
        )
    return _enumerate_min(model, model.constant)


def brute_force_map_ising(ising: SymmetricIsing) -> OracleResult:
    """Exhaustive ground state of a symmetric (unary-free) model."""
    if ising.num_nodes > MAX_MAP_NODES:
        raise TooLargeError(
            f"{ising.num_nodes} nodes exceeds brute-force cap {MAX_MAP_NODES}"
        )
    return _enumerate_min(ising, 0)


def brute_force_mwpm(g: WeightedMatchGraph) -> Matching:
    """Exhaustive minimum-weight perfect matching."""
    n = g.num_vertices
    if n > MAX_MWPM_VERTICES:
        raise TooLargeError(
            f"{n} vertices exceeds brute-force cap {MAX_MWPM_VERTICES}"
        )
    if n % 2 != 0:
        raise NoPerfectMatchingError(f"odd vertex count {n}")
    if n == 0:
        return Matching((), 0)
    adj: dict[int, dict[int, int]] = {v: {} for v in range(n)}
    for (u, v, w) in g.edges:
        adj[u][v] = w
        adj[v][u] = w

    best: list = [None, None]  # [weight, pairs]

    def recurse(unmatched: list[int], weight: int, pairs: list[tuple[int, int]]):
        if not unmatched:
            if best[0] is None or weight < best[0]:
                best[0] = weight
                best[1] = [*pairs]
            return
        u = unmatched[0]
        rest = unmatched[1:]
        for idx, v in enumerate(rest):
            if v in adj[u]:
                pairs.append((u, v))
                recurse(rest[:idx] + rest[idx + 1:], weight + adj[u][v], pairs)
                pairs.pop()

    recurse(list(range(n)), 0, [])
    if best[0] is None:
        raise NoPerfectMatchingError("graph admits no perfect matching")
    return Matching(tuple(best[1]), best[0])
