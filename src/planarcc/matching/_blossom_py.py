"""Pure-Python blossom kernel: maximum-cardinality matching, of maximum weight
among the perfect matchings when the graph has one.

This is the primal-dual blossom algorithm (Edmonds' algorithm with Galil's
bookkeeping): alternating trees are grown from unmatched vertices, odd
cycles are shrunk into blossoms, and dual variables are adjusted between
growth steps.  Three refinements keep the cost per augmentation low:

  - Persistent trees (the Blossom IV scheme of Cook & Rohe, INFORMS J.
    Comput. 1999): every unmatched vertex roots a tree once, at the start,
    and trees survive augmentations.  An augmentation dissolves only the
    two trees it joins (``troot`` names each labeled top-level blossom's
    tree, and ``members`` lists per root the blossoms it was assigned, so
    only those two trees are visited), and repairs what the kept trees
    recorded about them: tight-edge marks, least-slack edges and inner T
    marks.  All trees share one dual adjustment.
  - Lazy dual updates: instead of sweeping every vertex after each dual
    adjustment, an accumulator ``cum`` advances and each vertex stores
    (value, sign, timestamp); the effective dual is reconstructed on
    demand and materialized whenever the vertex's tree role changes.
  - One lazy heap of dual-adjustment candidates, as in Blossom V
    (Kolmogorov, Math. Prog. Comp. 2009): free vertices with a least-slack
    edge to an S-vertex, top-level S-blossoms with a least-slack edge to
    another, and T-blossoms.  Each entry is keyed by the value of ``cum``
    at which its candidate becomes binding; that value stays fixed while
    labels hold, so an adjustment pops entries instead of rescanning them.

The structure follows the classic array-based formulation so that the
compiled twin in _blossom.c is a line-for-line translation; keep the
two in sync.  Both share one shape: a ``Session`` validates a graph and
builds its endpoint and adjacency lists once, each ``Session.solve`` runs
the algorithm from scratch at new weights, and a cold solve is a session
opened for one solve.

Conventions:
  - Edge weights are integers.  Internally all weights are scaled by 4, and
    vertex duals start at half the maximum incident scaled weight, so every
    dual starts even and all dual updates stay integral throughout (the
    slack of an S-S edge is always even).
  - mate[v] is an edge *endpoint* index p (edge p//2, side p%2), or -1.
  - Blossoms are numbered n..2n-1; vertices double as trivial blossoms.
  - The result is a maximum-cardinality matching, and a maximum-weight
    perfect matching whenever the graph has a perfect matching.  Without
    one, its weight need not be the largest among maximum-cardinality
    matchings, because the greedy start gives each vertex its own starting
    dual.  Used for minimum-weight perfect matching by negating weights.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Sequence

import numpy as np

#: largest |weight| accepted; leaves headroom for doubled weights, dual
#: variables and total-weight sums in 64-bit arithmetic.
MAX_ABS_WEIGHT = 2**52

_INVALID = "invalid graph: endpoint out of range, self-loop, or |weight| > 2**52"

# Labels of top-level blossoms.
_FREE = 0
_S = 1
_T = 2


class KernelResult(tuple):
    """(mate, duals) of one solve, as int64 arrays.  It equals any pair of
    sequences holding the same values, so results compare with ==."""

    __slots__ = ()

    def __new__(cls, mate: np.ndarray, duals: np.ndarray):
        return super().__new__(cls, (mate, duals))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, tuple)
            and len(other) == 2
            and all(np.array_equal(a, b) for a, b in zip(self, other))
        )

    def __ne__(self, other) -> bool:
        return not self == other


class Session:
    """One simple graph with n vertices and edges (eu[k], ev[k]), validated
    and indexed once; ``solve`` runs a solve at new weights, and ``close``
    releases the graph.  Raises ValueError on an endpoint out of range or
    a self-loop."""

    def __init__(self, n: int, eu: Sequence[int], ev: Sequence[int]):
        # Plain ints: numpy scalars would slow every step and could overflow.
        eu, ev = [int(x) for x in eu], [int(x) for x in ev]
        if n < 0 or len(eu) != len(ev):
            raise ValueError("n must be >= 0, and eu and ev of equal length")
        if any(not (0 <= i < n and 0 <= j < n) or i == j for i, j in zip(eu, ev)):
            raise ValueError(_INVALID)
        nedge = len(eu)
        # endpoint[p]: vertex at endpoint p (p = 2k is the u side of edge k).
        endpoint = [0] * (2 * nedge)
        for k in range(nedge):
            endpoint[2 * k] = eu[k]
            endpoint[2 * k + 1] = ev[k]
        # neighbend[v]: remote endpoints of edges incident to v, in edge order.
        neighbend: list[list[int]] = [[] for _ in range(n)]
        for k in range(nedge):
            neighbend[eu[k]].append(2 * k + 1)
            neighbend[ev[k]].append(2 * k)
        self.n = n
        self.num_edges = nedge
        self._graph: tuple | None = (eu, ev, endpoint, neighbend)

    def solve(self, ew: Sequence[int]) -> KernelResult:
        """(mate, duals) at integer edge weights ``ew``: see
        ``solve_max_weight_matching``.  Raises ValueError when a weight is
        outside +-MAX_ABS_WEIGHT or the session is closed."""
        if self._graph is None:
            raise ValueError("matching session is closed")
        ew = [int(w) for w in ew]
        if len(ew) != self.num_edges:
            raise ValueError(f"expected {self.num_edges} weights, got {len(ew)}")
        if any(abs(w) > MAX_ABS_WEIGHT for w in ew):
            raise ValueError(_INVALID)
        mate, duals = _solve(self.n, *self._graph, ew)
        return KernelResult(np.array(mate, dtype=np.int64), np.array(duals, dtype=np.int64))

    def close(self) -> None:
        self._graph = None


def open_session(n: int, eu: Sequence[int], ev: Sequence[int]) -> Session:
    """A session on the graph (n, eu, ev): see ``Session``."""
    return Session(n, eu, ev)


def solve_max_weight_matching(
    n: int,
    eu: Sequence[int],
    ev: Sequence[int],
    ew: Sequence[int],
    session: Session | None = None,
) -> KernelResult:
    """Return (mate, duals) as int64 arrays: mate[v] is the matched partner
    of v or -1; duals are the final vertex duals in internal (4x) units.

    mate is a maximum-cardinality matching; when the graph has a perfect
    matching, it is a maximum-weight perfect matching.

    eu, ev and ew are lists or int64 arrays of a simple graph (no
    duplicates); weights must be integers within +-MAX_ABS_WEIGHT.  Without
    ``session`` the solve is cold: a session opened for it alone.  With
    one, opened by ``open_session(n, eu, ev)``, it runs on that session's
    graph.  Raises ValueError on an invalid graph or weight.
    """
    if session is None:
        session = Session(n, eu, ev)
        try:
            return session.solve(ew)
        finally:
            session.close()
    if (n, len(eu)) != (session.n, session.num_edges):
        raise ValueError("graph differs from the one the session was opened on")
    return session.solve(ew)


def _solve(
    n: int,
    eu: list[int],
    ev: list[int],
    endpoint: list[int],
    neighbend: list[list[int]],
    ew: list[int],
) -> tuple[list[int], list[int]]:
    """One solve from scratch on a session's graph: (mate, duals)."""
    nedge = len(eu)
    # Weights are scaled by 4 so that the greedy initial duals (half the
    # maximum incident weight, feasible for any sign) are even integers.
    weight = [4 * w for w in ew]

    mate = [-1] * n
    label = [_FREE] * (2 * n)
    labelend = [-1] * (2 * n)
    inblossom = list(range(n))
    blossomparent = [-1] * (2 * n)
    blossomchilds: list[list[int] | None] = [None] * (2 * n)
    blossombase = list(range(n)) + [-1] * n
    blossomendps: list[list[int] | None] = [None] * (2 * n)
    bestedge = [-1] * (2 * n)
    blossombestedges: list[list[int] | None] = [None] * (2 * n)
    unusedblossoms = list(range(n, 2 * n))
    dualvar = [0] * (2 * n)
    allowedge = [False] * nedge
    queue: list[int] = []
    # troot[b]: root vertex of the tree that labeled top-level blossom b
    # belongs to; -1 for unlabeled and non-top-level blossoms.
    troot = [-1] * (2 * n)
    # members[r]: every b whose troot was set to r, with stale entries and
    # repeats; dissolve filters it.  None once r's tree has dissolved.
    members: list[list[int] | None] = [[] for _ in range(n)]
    # Per-dissolution marks: seen[x] == epoch once x has been repaired.
    seen = [0] * (2 * n)
    epoch = 0

    # Lazy dual bookkeeping: effective dual of entity x is
    # dualvar[x] + dsgn[x] * (cum - dt0[x]).  Vertices use sign -1 when
    # their top-level blossom is S-labeled and +1 when T-labeled; blossom
    # duals move the other way.
    cum = 0
    dsgn = [0] * (2 * n)
    dt0 = [0] * (2 * n)

    def vdual(v: int) -> int:
        return dualvar[v] + dsgn[v] * (cum - dt0[v])

    def materialize(x: int, sgn: int) -> None:
        dualvar[x] = dualvar[x] + dsgn[x] * (cum - dt0[x])
        dsgn[x] = sgn
        dt0[x] = cum

    def slack(k: int) -> int:
        return vdual(eu[k]) + vdual(ev[k]) - weight[k]

    def least_slack(x: int, k2: int) -> None:
        if bestedge[x] == -1 or slack(k2) < slack(bestedge[x]):
            bestedge[x] = k2

    def join_tree(b: int, r: int) -> None:
        assert r >= 0
        troot[b] = r
        members[r].append(b)

    # Dual-adjustment candidates (t, type, x), where t is the value of cum
    # at which the candidate becomes binding:
    #   type 2: free vertex x, whose bestedge leads to an S-vertex;
    #   type 3: top-level S-blossom x, whose bestedge leads to another;
    #   type 4: top-level nontrivial T-blossom x (expand when its dual hits 0).
    # While labels hold, a free-S slack falls by 1 per unit of cum, an S-S
    # slack by 2 and a T-blossom dual by 1, so t stays fixed.  Entries are
    # never removed in place: a pop drops an entry whose condition lapsed,
    # and re-pushes one whose recomputed t differs.  This is exact because
    # a stored key never exceeds its candidate's true key unless bestedge
    # changes, and every such change pushes a new entry (as does an
    # expansion that frees a leaf whose bestedge is still set).  Ties go to
    # the smallest (t, type, x).
    heap: list[tuple[int, int, int]] = []

    def key(typ: int, x: int) -> int:
        if typ == 2:
            return slack(bestedge[x]) + cum
        if typ == 3:
            kslack = slack(bestedge[x])
            assert kslack % 2 == 0
            return kslack // 2 + cum
        return dualvar[x] + dsgn[x] * (cum - dt0[x]) + cum

    def push(typ: int, x: int) -> None:
        heappush(heap, (key(typ, x), typ, x))

    # Greedy initialization: dual = half the max incident weight satisfies
    # du_i + du_j >= weight(i,j) for every edge regardless of signs, and is
    # even.  Then match tight edges between free vertices.
    for v in range(n):
        if neighbend[v]:
            dualvar[v] = max(weight[p // 2] for p in neighbend[v]) // 2
    for k in range(nedge):
        i, j = eu[k], ev[k]
        if mate[i] == -1 and mate[j] == -1 and slack(k) == 0:
            mate[i] = 2 * k + 1
            mate[j] = 2 * k
    # Second pass: where an unmatched vertex's least-slack edge leads to
    # another free vertex, drop its dual to tightness (stays feasible and
    # even) and match the pair.
    for v in range(n):
        if mate[v] == -1 and neighbend[v]:
            best_p = -1
            best_s = -1
            for p in neighbend[v]:
                s = slack(p // 2)
                if best_p == -1 or s < best_s:
                    best_s = s
                    best_p = p
            if mate[endpoint[best_p]] == -1:
                if best_s > 0:
                    dualvar[v] -= best_s
                k = best_p // 2
                mate[eu[k]] = 2 * k + 1
                mate[ev[k]] = 2 * k

    def blossom_leaves(b: int):
        if b < n:
            yield b
        else:
            for t in blossomchilds[b]:
                if t < n:
                    yield t
                else:
                    yield from blossom_leaves(t)

    def assign_label(w: int, t: int, p: int) -> None:
        b = inblossom[w]
        assert label[w] == _FREE and label[b] == _FREE
        label[w] = label[b] = t
        labelend[w] = labelend[b] = p
        bestedge[w] = bestedge[b] = -1
        join_tree(b, w if p == -1 else troot[inblossom[endpoint[p]]])
        if t == _S:
            if b >= n:
                materialize(b, 1)
            for leaf in blossom_leaves(b):
                materialize(leaf, -1)
                queue.append(leaf)
        else:
            if b >= n:
                materialize(b, -1)
                push(4, b)
            for leaf in blossom_leaves(b):
                materialize(leaf, 1)
            base = blossombase[b]
            assert mate[base] >= 0
            assign_label(endpoint[mate[base]], _S, mate[base] ^ 1)

    def scan_blossom(v: int, w: int) -> int:
        """Trace back from v and w; return their trees' common ancestor
        base vertex, or -1 if the paths hit distinct roots (augmenting)."""
        path = []
        base = -1
        while v != -1 or w != -1:
            b = inblossom[v]
            if label[b] & 4:
                base = blossombase[b]
                break
            assert label[b] == _S
            path.append(b)
            label[b] = 5
            assert labelend[b] == mate[blossombase[b]]
            if labelend[b] == -1:
                v = -1
            else:
                v = endpoint[labelend[b]]
                b = inblossom[v]
                assert label[b] == _T
                assert labelend[b] >= 0
                v = endpoint[labelend[b]]
            if w != -1:
                v, w = w, v
        for b in path:
            label[b] = _S
        return base

    def add_blossom(base: int, k: int) -> None:
        """Shrink the odd cycle through edge k and blossom base into a new
        S-blossom."""
        v, w = eu[k], ev[k]
        bb = inblossom[base]
        bv = inblossom[v]
        bw = inblossom[w]
        b = unusedblossoms.pop()
        blossombase[b] = base
        blossomparent[b] = -1
        blossomparent[bb] = b
        path = []
        endps = []
        while bv != bb:
            blossomparent[bv] = b
            path.append(bv)
            endps.append(labelend[bv])
            assert label[bv] == _T or (
                label[bv] == _S and labelend[bv] == mate[blossombase[bv]]
            )
            assert labelend[bv] >= 0
            v = endpoint[labelend[bv]]
            bv = inblossom[v]
        path.append(bb)
        path.reverse()
        endps.reverse()
        endps.append(2 * k)
        while bw != bb:
            blossomparent[bw] = b
            path.append(bw)
            endps.append(labelend[bw] ^ 1)
            assert label[bw] == _T or (
                label[bw] == _S and labelend[bw] == mate[blossombase[bw]]
            )
            assert labelend[bw] >= 0
            w = endpoint[labelend[bw]]
            bw = inblossom[w]
        blossomchilds[b] = path
        blossomendps[b] = endps
        assert label[bb] == _S
        label[b] = _S
        labelend[b] = labelend[bb]
        join_tree(b, troot[bb])
        dualvar[b] = 0
        dsgn[b] = 1
        dt0[b] = cum
        # Children stop being top-level: freeze their blossom duals; every
        # vertex inside is now (or stays) an S-vertex.
        for c in path:
            troot[c] = -1
            if c >= n:
                materialize(c, 0)
        for leaf in blossom_leaves(b):
            if label[inblossom[leaf]] == _T:
                # Former T-vertices become S-vertices; scan them.
                queue.append(leaf)
            materialize(leaf, -1)
            inblossom[leaf] = b
        # Merge least-slack edge lists toward other S-blossoms, keyed by
        # the far top-level blossom in the order first reached.
        bestedgeto: dict[int, int] = {}
        for bv in path:
            if blossombestedges[bv] is None:
                nblists = [
                    [p // 2 for p in neighbend[leaf]]
                    for leaf in blossom_leaves(bv)
                ]
            else:
                nblists = [blossombestedges[bv]]
            for nblist in nblists:
                for k2 in nblist:
                    i, j = eu[k2], ev[k2]
                    if inblossom[j] == b:
                        i, j = j, i
                    bj = inblossom[j]
                    if (
                        bj != b
                        and label[bj] == _S
                        and (bj not in bestedgeto or slack(k2) < slack(bestedgeto[bj]))
                    ):
                        bestedgeto[bj] = k2
            blossombestedges[bv] = None
            bestedge[bv] = -1
        blossombestedges[b] = list(bestedgeto.values())
        bestedge[b] = -1
        for k2 in blossombestedges[b]:
            least_slack(b, k2)
        if bestedge[b] != -1:
            push(3, b)

    def expand_blossom(b: int, dissolving: bool) -> None:
        """Undo blossom b: promote its children to top level.  In a live
        tree (dissolving=False) b is a T-blossom with zero dual; the path
        from its entry child to its base is relabeled.  In a dissolved
        tree, children with zero dual are expanded too."""
        for s in blossomchilds[b]:
            blossomparent[s] = -1
            if s < n:
                inblossom[s] = s
                materialize(s, 0)
            elif dissolving and dualvar[s] + dsgn[s] * (cum - dt0[s]) == 0:
                expand_blossom(s, dissolving)
            else:
                for v in blossom_leaves(s):
                    inblossom[v] = s
                    materialize(v, 0)
        if (not dissolving) and label[b] == _T:
            entrychild = inblossom[endpoint[labelend[b] ^ 1]]
            j = blossomchilds[b].index(entrychild)
            if j & 1:
                j -= len(blossomchilds[b])
                jstep = 1
                endptrick = 0
            else:
                jstep = -1
                endptrick = 1
            # Walk from the entry child to the base, relabeling alternately.
            p = labelend[b]
            while j != 0:
                label[endpoint[p ^ 1]] = _FREE
                label[endpoint[blossomendps[b][j - endptrick] ^ endptrick ^ 1]] = _FREE
                assign_label(endpoint[p ^ 1], _T, p)
                allowedge[blossomendps[b][j - endptrick] // 2] = True
                j += jstep
                p = blossomendps[b][j - endptrick] ^ endptrick
                allowedge[p // 2] = True
                j += jstep
            # Relabel the base T-sub-blossom without stepping to its mate.
            bv = blossomchilds[b][j]
            label[endpoint[p ^ 1]] = label[bv] = _T
            labelend[endpoint[p ^ 1]] = labelend[bv] = p
            bestedge[bv] = -1
            join_tree(bv, troot[b])
            if bv >= n:
                materialize(bv, -1)
                push(4, bv)
            for v in blossom_leaves(bv):
                materialize(v, 1)
            # Continue along the cycle; off-path sub-blossoms become free.
            j += jstep
            while blossomchilds[b][j] != entrychild:
                bv = blossomchilds[b][j]
                if label[bv] == _S:
                    j += jstep
                    continue
                for v in blossom_leaves(bv):
                    if label[v] != _FREE:
                        break
                if label[v] != _FREE:
                    assert label[v] == _T
                    assert inblossom[v] == bv
                    label[v] = _FREE
                    label[endpoint[mate[blossombase[bv]]]] = _FREE
                    assign_label(v, _T, labelend[v])
                else:
                    # bv stays free: its leaves' least-slack edges bind again.
                    for v in blossom_leaves(bv):
                        if bestedge[v] != -1:
                            push(2, v)
                j += jstep
        label[b] = -1
        labelend[b] = -1
        troot[b] = -1
        blossomchilds[b] = None
        blossomendps[b] = None
        blossombase[b] = -1
        blossombestedges[b] = None
        bestedge[b] = -1
        unusedblossoms.append(b)

    def augment_blossom(b: int, v: int) -> None:
        """Flip the matching inside blossom b so that vertex v becomes its
        base (exposed toward the augmenting path)."""
        t = v
        while blossomparent[t] != b:
            t = blossomparent[t]
        if t >= n:
            augment_blossom(t, v)
        i = j = blossomchilds[b].index(t)
        if i & 1:
            j -= len(blossomchilds[b])
            jstep = 1
            endptrick = 0
        else:
            jstep = -1
            endptrick = 1
        while j != 0:
            j += jstep
            t = blossomchilds[b][j]
            p = blossomendps[b][j - endptrick] ^ endptrick
            if t >= n:
                augment_blossom(t, endpoint[p])
            j += jstep
            t = blossomchilds[b][j]
            if t >= n:
                augment_blossom(t, endpoint[p ^ 1])
            mate[endpoint[p]] = p ^ 1
            mate[endpoint[p ^ 1]] = p
        blossomchilds[b] = blossomchilds[b][i:] + blossomchilds[b][:i]
        blossomendps[b] = blossomendps[b][i:] + blossomendps[b][:i]
        blossombase[b] = blossombase[blossomchilds[b][0]]
        assert blossombase[b] == v

    def augment_matching(k: int) -> None:
        """Augment along the path root(v) ... v -- w ... root(w)."""
        for (s, p) in ((eu[k], 2 * k + 1), (ev[k], 2 * k)):
            while True:
                bs = inblossom[s]
                assert label[bs] == _S
                assert labelend[bs] == mate[blossombase[bs]]
                if bs >= n:
                    augment_blossom(bs, s)
                mate[s] = p
                if labelend[bs] == -1:
                    break
                t = endpoint[labelend[bs]]
                bt = inblossom[t]
                assert label[bt] == _T
                assert labelend[bt] >= 0
                s = endpoint[labelend[bt]]
                j = endpoint[labelend[bt] ^ 1]
                assert blossombase[bt] == t
                if bt >= n:
                    augment_blossom(bt, j)
                mate[j] = labelend[bt]
                p = labelend[bt] ^ 1

    def refresh_s_bestedge(b: int) -> None:
        """Recompute the least-slack edge of kept top-level S-blossom b to
        the other S-blossoms, dropping those of dissolved trees."""
        bestedge[b] = -1
        if blossombestedges[b] is not None:
            kept = []
            for k2 in blossombestedges[b]:
                j = ev[k2] if inblossom[eu[k2]] == b else eu[k2]
                if label[inblossom[j]] == _S:
                    kept.append(k2)
                    least_slack(b, k2)
            blossombestedges[b] = kept
        else:
            for leaf in blossom_leaves(b):
                for p in neighbend[leaf]:
                    bj = inblossom[endpoint[p]]
                    if bj != b and label[bj] == _S:
                        least_slack(b, p // 2)
        if bestedge[b] != -1:
            push(3, b)

    def refresh_free_bestedge(w: int) -> None:
        """Drop w's inner T mark if a dissolved vertex set it; then, if w is
        unlabeled, recompute its least-slack edge to an S-vertex."""
        if label[w] == _T and label[inblossom[endpoint[labelend[w]]]] != _S:
            label[w] = _FREE
            labelend[w] = -1
        if label[w] != _FREE:
            return
        bestedge[w] = -1
        for p in neighbend[w]:
            bj = inblossom[endpoint[p]]
            if bj != inblossom[w] and label[bj] == _S:
                least_slack(w, p // 2)
        if bestedge[w] != -1:
            push(2, w)

    def dissolve(r1: int, r2: int) -> None:
        """Unlabel the trees rooted at r1 and r2, just joined by an
        augmenting path, and repair the kept trees' view of them."""
        nonlocal epoch
        # The blossoms troot still assigns to r1 or r2, ascending.
        tops = sorted({
            b for r in (r1, r2) for b in members[r] if troot[b] == r1 or troot[b] == r2
        })
        members[r1] = members[r2] = None  # a matched root never roots again
        expand = []
        gone = []
        for b in tops:
            if b >= n:
                materialize(b, 0)
                if label[b] == _S:
                    expand.append(b)
            troot[b] = -1
            blossombestedges[b] = None
            stack = [b]
            while stack:
                x = stack.pop()
                label[x] = _FREE
                labelend[x] = -1
                bestedge[x] = -1
                if x < n:
                    materialize(x, 0)
                    gone.append(x)
                else:
                    stack.extend(blossomchilds[x])
        # Expand the dissolved S-blossoms whose dual is zero, as the
        # classic algorithm does at the end of each stage.
        for b in expand:
            if dualvar[b] == 0:
                expand_blossom(b, True)
        epoch += 1
        for v in gone:
            for p in neighbend[v]:
                allowedge[p // 2] = False
                w = endpoint[p]
                bw = inblossom[w]
                if label[bw] == _S:
                    if seen[w] != epoch:
                        seen[w] = epoch
                        queue.append(w)
                        if bw == w:
                            refresh_s_bestedge(bw)
                    if bw != w and seen[bw] != epoch:
                        seen[bw] = epoch
                        refresh_s_bestedge(bw)
                elif seen[w] != epoch:
                    seen[w] = epoch
                    refresh_free_bestedge(w)

    # Every unmatched vertex roots a tree.
    for v in range(n):
        if mate[v] == -1 and label[inblossom[v]] == _FREE:
            assign_label(v, _S, -1)

    while True:
        while queue:
            v = queue.pop()
            if label[inblossom[v]] != _S:
                continue  # its tree was dissolved
            for p in neighbend[v]:
                k = p // 2
                w = endpoint[p]
                if inblossom[v] == inblossom[w]:
                    continue
                kslack = 0
                if not allowedge[k]:
                    kslack = slack(k)
                    if kslack <= 0:
                        allowedge[k] = True
                if allowedge[k]:
                    if label[inblossom[w]] == _FREE:
                        assign_label(w, _T, p ^ 1)
                    elif label[inblossom[w]] == _S:
                        base = scan_blossom(v, w)
                        if base >= 0:
                            add_blossom(base, k)
                        else:
                            r1 = troot[inblossom[v]]
                            r2 = troot[inblossom[w]]
                            augment_matching(k)
                            dissolve(r1, r2)
                            break
                    elif label[w] == _FREE:
                        assert label[inblossom[w]] == _T
                        label[w] = _T
                        labelend[w] = p ^ 1
                elif label[inblossom[w]] == _S:
                    b = inblossom[v]
                    if bestedge[b] == -1 or kslack < slack(bestedge[b]):
                        bestedge[b] = k
                        push(3, b)
                elif label[w] == _FREE:
                    if bestedge[w] == -1 or kslack < slack(bestedge[w]):
                        bestedge[w] = k
                        push(2, w)

        # Queue exhausted: pop the binding dual adjustment.  In
        # max-cardinality mode vertex duals themselves give no bound.
        deltatype = -1
        delta = deltaedge = deltablossom = 0
        while heap:
            t, typ, x = heappop(heap)
            if typ == 2:
                lapsed = bestedge[x] == -1 or label[inblossom[x]] != _FREE
            elif typ == 3:
                lapsed = bestedge[x] == -1 or blossomparent[x] != -1 or label[x] != _S
            else:
                lapsed = blossombase[x] < 0 or blossomparent[x] != -1 or label[x] != _T
            if lapsed:
                continue
            if key(typ, x) != t:
                push(typ, x)
                continue
            deltatype = typ
            delta = t - cum
            if typ == 4:
                deltablossom = x
            else:
                deltaedge = bestedge[x]
            break

        if deltatype == -1:
            # No further progress possible: maximum cardinality reached.
            break

        # All labeled duals move together; one accumulator records it.
        cum += delta

        if deltatype == 2:
            allowedge[deltaedge] = True
            i = eu[deltaedge]
            if label[inblossom[i]] == _FREE:
                i = ev[deltaedge]
            assert label[inblossom[i]] == _S
            queue.append(i)
        elif deltatype == 3:
            allowedge[deltaedge] = True
            i = eu[deltaedge]
            assert label[inblossom[i]] == _S
            assert label[inblossom[ev[deltaedge]]] == _S
            queue.append(i)
        else:
            expand_blossom(deltablossom, False)

    # Materialize final duals and translate endpoint mates to vertex mates.
    for v in range(n):
        dualvar[v] += dsgn[v] * (cum - dt0[v])
        dsgn[v] = 0
        dt0[v] = cum
    out = [-1] * n
    for v in range(n):
        if mate[v] >= 0:
            out[v] = endpoint[mate[v]]
    for v in range(n):
        assert out[v] == -1 or out[out[v]] == v
    return out, dualvar[:n]
