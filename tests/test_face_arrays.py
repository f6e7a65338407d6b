"""The setup structures built on integer darts against reference builders.

``faces``, ``build_expanded_dual`` and ``build_pcc`` walk dart arrays.  The
reference functions below are plain-Python builders over dicts and lists:
the array code must reproduce their faces, port graphs (face gadgets
included, see ``reference_gadget``) and augmented rotation systems element
by element, so that the matching kernel sees exactly the graphs the rules
describe.  ``reference_tree`` states the decode tree's rule: breadth-first
from node 0, each vertex scanning its rotation in order.
"""

import math
import random
from itertools import combinations

import numpy as np
import pytest

from planarcc import (
    BinaryMRF,
    PlanarEmbedding,
    SymmetricIsing,
    build_expanded_dual,
    build_pcc,
    cycle,
    faces,
    grid,
)

from conftest import decode_tree, random_grid_model, random_polygon_triangulation, random_tree


def reference_faces(rotations):
    """[(boundary, boundary_vertices)] by the next-dart rule on dicts."""
    n = len(rotations)
    if n == 1:
        return [((), (0,))]
    pos = [{v: k for k, v in enumerate(rot)} for rot in rotations]
    visited = set()
    result = []
    for i in range(n):
        for j in rotations[i]:
            if (i, j) in visited:
                continue
            walk = []
            a, b = i, j
            while (a, b) not in visited:
                visited.add((a, b))
                walk.append((a, b))
                rot = rotations[b]
                a, b = b, rot[(pos[b][a] + 1) % len(rot)]
            assert (a, b) == (i, j)
            verts = tuple(dict.fromkeys(u for (u, _) in walk))
            result.append((tuple(walk), verts))
    return result


def reference_gadget(ports, next_vertex):
    """(clique edges, fold triangles) of one face's gadget: a clique on at
    most 6 ports; a longer face is folded as a queue, each fold joining the
    front pair (a, b) to a new vertex c in a triangle (a, b, c), hanging a
    new c' = c + 1 off c and appending c', until 6 items remain."""
    queue, folds = list(ports), []
    while len(queue) > 6:
        (a, b), queue = queue[:2], queue[2:]
        c = next_vertex + 2 * len(folds)
        folds.append((a, b, c))
        queue.append(c + 1)
    return list(combinations(queue, 2)), folds


def reference_port_graph(edges, rotations):
    """(num_ports, port_u, port_v, bridge): one port per (face, dart) and
    each face's gadget vertices after them, in face order; model edge t's
    port pair first, then every face's clique, then the folds' (a, b),
    (a, c), (b, c) and (c, c') edges, minus the gadget edges that merged
    bridges replace."""
    face_list = reference_faces(rotations)
    port_of_dart, face_of_dart, face_ports = {}, {}, []
    for fid, (boundary, _) in enumerate(face_list):
        ports = []
        for dart in boundary:
            port_of_dart[dart] = len(port_of_dart)
            face_of_dart[dart] = fid
            ports.append(port_of_dart[dart])
        face_ports.append(ports)
    port_edges, bridge = [], []
    for (i, j, _) in edges:
        port_edges.append((port_of_dart[(i, j)], port_of_dart[(j, i)]))
        bridge.append(face_of_dart[(i, j)] == face_of_dart[(j, i)])
    merged = {(min(e), max(e)) for e, b in zip(port_edges, bridge) if b}
    num_ports, cliques, folds = len(port_of_dart), [], []
    for ports in face_ports:
        clique, fold = reference_gadget(ports, num_ports)
        cliques += clique
        folds += fold
        num_ports += 2 * len(fold)
    gadget = cliques + [(a, b) for (a, b, _) in folds] + [(a, c) for (a, _, c) in folds]
    gadget += [(b, c) for (_, b, c) in folds] + [(c, c + 1) for (_, _, c) in folds]
    port_edges += [e for e in gadget if e not in merged]
    return (
        num_ports,
        [u for (u, _) in port_edges],
        [v for (_, v) in port_edges],
        bridge,
    )


def reference_tree(edges, rotations):
    """Breadth-first (vertex, parent, edge index) triples from node 0, each
    vertex scanning its rotation in order."""
    edge_index = {}
    for t, (i, j, _) in enumerate(edges):
        edge_index[(i, j)] = edge_index[(j, i)] = t
    seen = {0}
    order, tree = [0], []
    for v in order:
        for u in rotations[v]:
            if u not in seen:
                seen.add(u)
                order.append(u)
                tree.append((u, v, edge_index[(v, u)]))
    return tuple(tree)


def reference_cover(rotations):
    """Indices of the faces that get a face node: all but a greedy maximal
    independent set of the dual graph, whose faces are adjacent when they
    share an edge, a face with a bridge being adjacent to itself; faces are
    visited by (boundary darts, index).  A single vertex keeps its face."""
    face_list = reference_faces(rotations)
    if len(rotations) == 1:
        return [0]
    face_of_dart = {d: f for f, (boundary, _) in enumerate(face_list) for d in boundary}
    blocked = {f for (a, b), f in face_of_dart.items() if face_of_dart[(b, a)] == f}
    independent = set()
    for f in sorted(range(len(face_list)), key=lambda f: (len(face_list[f][0]), f)):
        if f not in blocked:
            independent.add(f)
            blocked |= {face_of_dart[(b, a)] for (a, b) in face_list[f][0]}
    return [f for f in range(len(face_list)) if f not in independent]


def reference_pcc(rotations):
    """(inc_node, inc_face, node_incidences, augmented rotations): the
    chosen faces of ``reference_cover`` are face nodes n, n + 1, ... in
    face order."""
    face_list = reference_faces(rotations)
    n = len(rotations)
    face_vertex = {f: n + k for k, f in enumerate(reference_cover(rotations))}
    inc_node, inc_face = [], []
    node_incidences = [[] for _ in range(n)]
    corner, face_of_dart = {}, {}
    for fid, (boundary, verts) in enumerate(face_list):
        for dart in boundary:
            corner.setdefault((fid, dart[0]), dart)
            face_of_dart[dart] = fid
        if fid not in face_vertex:
            continue
        for u in verts:
            node_incidences[u].append(len(inc_node))
            inc_node.append(u)
            inc_face.append(face_vertex[fid] - n)
    if n == 1:
        aug = [(face_vertex[0],)]
    else:
        aug = []
        for v, rot in enumerate(rotations):
            new_rot = []
            for t, u in enumerate(rot):
                new_rot.append(u)
                w = rot[(t + 1) % len(rot)]
                fid = face_of_dart[(v, w)]
                if fid in face_vertex and corner[(fid, v)] == (v, w):
                    new_rot.append(face_vertex[fid])
            aug.append(tuple(new_rot))
    aug += [tuple(reversed(face_list[f][1])) for f in face_vertex]
    return (
        tuple(inc_node),
        tuple(inc_face),
        tuple(tuple(t) for t in node_incidences),
        tuple(aug),
    )


def by_angle(points, edges):
    """Counterclockwise rotations of a straight-line drawing."""
    nbrs = [[] for _ in points]
    for (i, j) in edges:
        nbrs[i].append(j)
        nbrs[j].append(i)

    def angle(v, u):
        return math.atan2(points[u][1] - points[v][1], points[u][0] - points[v][0])

    return tuple(tuple(sorted(nb, key=lambda u: angle(v, u))) for v, nb in enumerate(nbrs))


def bowtie_with_pendant_path():
    """Triangles 0-1-2 and 0-3-4 share the cut vertex 0, and the path
    1-5-6 hangs off 1: the path edges are bridges, 0 and 1 cut vertices."""
    points = [(0, 0), (2, 1), (2, -1), (-2, 1), (-2, -1), (3, 2), (4, 3)]
    edges = [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4), (1, 5), (5, 6)]
    return edges, by_angle(points, edges)


def graphs():
    """(name, edges, rotations) over every family the builders must match."""
    for rows, cols in [(1, 2), (1, 5), (2, 2), (2, 3), (3, 3), (4, 6), (8, 8)]:
        edges, emb = grid(rows, cols)
        yield f"grid{rows}x{cols}", edges, emb.rotations
    rng = random.Random(11)
    for k in range(12):
        edges, rotations = random_tree(rng, rng.randint(2, 14))
        yield f"tree{k}", [(min(e), max(e)) for e in edges], rotations
    for k in range(10):
        edges, rotations = random_polygon_triangulation(rng, rng.randint(3, 12))
        yield f"triangulation{k}", edges, tuple(rotations)
    # Faces of 257 and 300 darts take 9 rounds of pointer doubling.
    for length in (3, 4, 7, 257, 300):
        edges, emb = cycle(length)
        yield f"cycle{length}", edges, emb.rotations
    # A path or a star has one face, of 2(n - 1) darts.
    for n in (3, 40, 200):
        rotations = ((1,),) + tuple((v - 1, v + 1) for v in range(1, n - 1)) + ((n - 2,),)
        yield f"path{n}", [(v, v + 1) for v in range(n - 1)], rotations
    for n in (4, 33):
        yield f"star{n}", [(0, v) for v in range(1, n)], (tuple(range(1, n)),) + ((0,),) * (n - 1)
    k4 = ((1, 3, 2), (2, 3, 0), (0, 3, 1), (0, 1, 2))
    yield "K4", [(i, j) for i in range(4) for j in range(i + 1, 4)], k4
    yield "single", [], ((),)
    yield ("bowtie", *bowtie_with_pendant_path())


GRAPHS = list(graphs())


@pytest.mark.parametrize("name,edges,rotations", GRAPHS, ids=[g[0] for g in GRAPHS])
def test_faces_match_reference(name, edges, rotations):
    fs = faces(PlanarEmbedding(rotations))
    want = reference_faces(rotations)
    assert len(fs) == len(want)
    got = []
    for f in range(len(fs)):
        darts = fs.walk[fs.starts[f] : fs.starts[f + 1]]
        assert (fs.face_of[darts] == f).all()
        tails = fs.tail[darts].tolist()
        # The single vertex lies on its one face, which has no darts.
        verts = tuple(dict.fromkeys(tails)) or (0,)
        got.append((tuple(zip(tails, fs.head[darts].tolist())), verts))
    assert got == want


@pytest.mark.parametrize("name,edges,rotations", GRAPHS, ids=[g[0] for g in GRAPHS])
def test_port_graph_matches_reference(name, edges, rotations):
    rng = random.Random(name)
    shuffled = edges[:]
    rng.shuffle(shuffled)
    ising = SymmetricIsing(
        len(rotations), tuple((i, j, rng.randint(-9, 9)) for (i, j) in shuffled)
    )
    dual = build_expanded_dual(ising, PlanarEmbedding(rotations))
    num_ports, port_u, port_v, bridge = reference_port_graph(ising.edges, rotations)
    assert dual.num_ports == num_ports
    assert dual.port_u.tolist() == port_u
    assert dual.port_v.tolist() == port_v
    assert dual.bridge.tolist() == bridge
    assert decode_tree(dual) == reference_tree(ising.edges, rotations)
    assert dual.edge_u.tolist() == [i for (i, _, _) in ising.edges]
    assert dual.edge_v.tolist() == [j for (_, j, _) in ising.edges]
    for a in (dual.port_u, dual.port_v, dual.edge_u, dual.edge_v):
        assert a.dtype == np.int64
    assert dual.bridge.dtype == bool
    if name == "bowtie":
        assert sum(bridge) == 2


@pytest.mark.parametrize("name,edges,rotations", GRAPHS, ids=[g[0] for g in GRAPHS])
def test_pcc_graph_matches_reference(name, edges, rotations):
    n = len(rotations)
    model = BinaryMRF(n, tuple((i, j, 1) for (i, j) in edges), (1,) * n, 0)
    g = build_pcc(model, PlanarEmbedding(rotations))
    inc_node, inc_face, node_incidences, aug = reference_pcc(rotations)
    assert g.inc_node.tolist() == list(inc_node)
    assert g.inc_face.tolist() == list(inc_face)
    assert g.inc_count.tolist() == [len(ts) for ts in node_incidences]
    for i, ts in enumerate(node_incidences):
        assert np.flatnonzero(g.inc_node == i).tolist() == list(ts)
    for a in (g.inc_node, g.inc_face, g.inc_count):
        assert a.dtype == np.int64
    assert g.embedding.rotations == aug
    aug_edges = list(edges) + [(u, n + f) for u, f in zip(inc_node, inc_face)]
    num_ports, port_u, port_v, bridge = reference_port_graph(
        [(i, j, 0) for (i, j) in aug_edges], aug
    )
    assert g.augmented_edges() == aug_edges
    assert (g.dual.num_ports, g.dual.port_u.tolist(), g.dual.port_v.tolist()) == (
        num_ports, port_u, port_v,
    )
    assert g.dual.bridge.tolist() == bridge
    # The decode tree is the base graph's breadth-first tree, then one
    # spoke per chosen face, from its first incidence to the face vertex.
    first = [inc_face.index(f) for f in range(g.num_faces)]
    spokes = tuple((n + f, inc_node[t], len(edges) + t) for f, t in enumerate(first))
    base = [(i, j, 0) for (i, j) in edges]
    assert decode_tree(g.dual) == reference_tree(base, rotations) + spokes


def chosen_faces(g, rotations):
    """The indices into ``reference_faces(rotations)`` of the base faces
    that got a face node in ``g``: a base face without one stays a face of
    the augmented graph, with no face vertex on it."""
    n = len(rotations)
    aug = reference_faces(g.embedding.rotations)
    whole = {frozenset(walk) for walk, verts in aug if max(verts) < n}
    return {f for f, (walk, _) in enumerate(reference_faces(rotations)) if frozenset(walk) not in whole}


@pytest.mark.parametrize("name,edges,rotations", GRAPHS, ids=[g[0] for g in GRAPHS])
def test_chosen_faces_cover_every_edge_and_leave_a_maximal_independent_set(name, edges, rotations):
    n = len(rotations)
    model = BinaryMRF(n, tuple((i, j, 1) for (i, j) in edges), (1,) * n, 0)
    g = build_pcc(model, PlanarEmbedding(rotations))
    chosen = chosen_faces(g, rotations)
    assert len(chosen) == g.num_faces
    face_list = reference_faces(rotations)
    face_of_dart = {d: f for f, (walk, _) in enumerate(face_list) for d in walk}
    # Every base edge lies on a chosen face, so it gets the triangle of the
    # chosen face's node and its two ends.
    for (i, j) in edges:
        assert {face_of_dart[(i, j)], face_of_dart[(j, i)]} & chosen, (i, j)
    # The unchosen faces share no edge, and none has a bridge ...
    unchosen = set(range(len(face_list))) - chosen
    for (a, b), f in face_of_dart.items():
        assert f in chosen or face_of_dart[(b, a)] in chosen, (a, b)
    # ... and no chosen face could join them: each has a bridge or shares an
    # edge with an unchosen face.
    for f in chosen:
        across = {face_of_dart[(b, a)] for (a, b) in face_list[f][0]}
        assert f in across or across & unchosen or n == 1, f
    # Every node has an edge or a unary of 1, and each gets an incidence.
    assert (g.inc_count >= 1).all()


def random_grids():
    """(name, edges, rotations) of random grid shapes."""
    rng = random.Random(23)
    for k in range(9):
        rows, cols = rng.randint(1, 9), rng.randint(1, 9)
        edges, emb = grid(rows, cols)
        yield f"grid{rows}x{cols}-{k}", edges, emb.rotations


FACE_ARRAYS = (
    "offset", "tail", "head", "twin", "succ", "walk", "starts", "face_of", "_by_key", "_keys",
)


@pytest.mark.parametrize(
    "name,edges,rotations",
    GRAPHS + list(random_grids()),
    ids=[g[0] for g in GRAPHS + list(random_grids())],
)
def test_build_pcc_hands_on_the_faces_a_walk_finds(monkeypatch, name, edges, rotations):
    import planarcc.pcc as pcc_module

    walked, handed = [], []

    def counting_faces(embedding):
        walked.append(embedding)
        return faces(embedding)

    def capturing_dual(topology, fs):
        handed.append(fs)
        return build_expanded_dual(topology, fs)

    monkeypatch.setattr(pcc_module, "faces", counting_faces)
    monkeypatch.setattr(pcc_module, "build_expanded_dual", capturing_dual)
    n = len(rotations)
    model = BinaryMRF(n, tuple((i, j, 1) for (i, j) in edges), (1,) * n, 0)
    g = build_pcc(model, PlanarEmbedding(rotations))
    # ``faces`` runs once, on the base embedding; the augmented darts are
    # derived from its arrays and walked as ``faces`` walks an embedding.
    assert len(walked) == 1 and walked[0].rotations == rotations
    [derived] = handed
    assert derived is g.augmented_faces
    want = faces(g.embedding)
    for attr in FACE_ARRAYS:
        got, expected = getattr(derived, attr), getattr(want, attr)
        assert got.dtype == expected.dtype == np.int64, attr
        assert got.tolist() == expected.tolist(), attr


def derived_3x3():
    """The darts ``_checked_walk`` checks for the augmented 3x3 grid:
    (offset, head, twin)."""
    edges, emb = grid(3, 3)
    g = build_pcc(BinaryMRF(9, tuple((i, j, 1) for (i, j) in edges), (1,) * 9, 0), emb)
    fs = g.augmented_faces
    return [a.copy() for a in (fs.offset, fs.head, fs.twin)]


def unpaired_twins():
    offset, head, twin = derived_3x3()
    twin[[0, 1]] = twin[[1, 0]]
    return offset, head, twin


def twins_of_other_darts():
    # An involution, but dart 0's twin is dart 1, which leaves vertex 0 too.
    offset, head, twin = derived_3x3()
    a, b = twin[0], twin[1]
    twin[[0, 1, a, b]] = [1, 0, b, a]
    return offset, head, twin


def digon():
    # Two parallel edges between vertices 0 and 1: twins pair up and the
    # two faces obey Euler's formula, but the keys 0 -> 1 and 1 -> 0 repeat.
    return tuple(np.array(a) for a in ([0, 2, 4], [1, 1, 0, 0], [3, 2, 1, 0]))


def toroidal_k4():
    # K4 with vertex 3's rotation reversed: two faces, genus 1.
    emb = PlanarEmbedding(((1, 3, 2), (2, 3, 0), (0, 3, 1), (0, 2, 1)))
    offset, twin = emb._offset, emb._twin
    tail = np.repeat(np.arange(len(offset) - 1), np.diff(offset))
    return offset, tail[twin], twin


CORRUPTIONS = [
    (unpaired_twins, "twins are not paired"),
    (twins_of_other_darts, "twins are not paired"),
    (digon, "a dart key repeats"),
    (toroidal_k4, "Euler's formula fails"),
]


@pytest.mark.parametrize("corrupt,problem", CORRUPTIONS, ids=[c.__name__ for c, _ in CORRUPTIONS])
def test_checks_of_derived_faces_fire(corrupt, problem):
    from planarcc.pcc import _checked_walk

    no_tree = np.zeros(0, np.int64)
    # Two chosen inner faces split into 4 faces each and the outer face into
    # 8; the two other inner faces stay whole.
    assert len(_checked_walk(*derived_3x3(), no_tree)) == 18
    with pytest.raises(AssertionError, match=f"{problem}; this is a bug"):
        _checked_walk(*corrupt(), no_tree)


@pytest.mark.parametrize("name,edges,rotations", GRAPHS, ids=[g[0] for g in GRAPHS])
def test_edge_darts_find_each_edge_or_reject_the_set(name, edges, rotations):
    fs = faces(PlanarEmbedding(rotations))
    shuffled = edges[:]
    random.Random(name).shuffle(shuffled)
    u = np.array([i for (i, _) in shuffled], dtype=np.int64)
    v = np.array([j for (_, j) in shuffled], dtype=np.int64)
    forward = fs.edge_darts(u, v)
    assert fs.tail[forward].tolist() == u.tolist()
    assert fs.head[forward].tolist() == v.tolist()
    assert fs.tail[fs.twin[forward]].tolist() == v.tolist()
    assert fs.head[fs.twin[forward]].tolist() == u.tolist()
    if edges:
        # One edge short, or one edge swapped for a pair that is no edge.
        assert fs.edge_darts(u[1:], v[1:]) is None
        present = set(edges)
        others = [p for p in combinations(range(len(rotations)), 2) if p not in present]
        if others:
            u[0], v[0] = others[0]
            assert fs.edge_darts(u, v) is None
