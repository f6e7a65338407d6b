import random

import numpy as np
import pytest

from planarcc import (
    NoPerfectMatchingError,
    NotPlanarEmbeddingError,
    PlanarEmbedding,
    SymmetricIsing,
    WeightRangeError,
    build_expanded_dual,
    build_pcc,
    cycle,
    grid,
    ground_state,
    init_params,
    ising_energy,
    lower_bound,
    min_weight_perfect_matching,
)
from planarcc import faces as faces_of
from planarcc.ising import decode_matching
from planarcc.matching import MAX_ABS_WEIGHT, engine_kernel
from planarcc.oracle import brute_force_map_ising

from conftest import decode_tree, random_grid_ising, random_grid_model, random_tree
from test_face_arrays import GRAPHS

SINGLE_EDGE_EMB = PlanarEmbedding(((1,), (0,)))


def test_single_edge_positive():
    ising = SymmetricIsing(2, ((0, 1, 3),))
    gs = ground_state(ising, SINGLE_EDGE_EMB)
    assert gs.energy == 0
    assert gs.labels == (0, 0)


def test_single_edge_negative():
    ising = SymmetricIsing(2, ((0, 1, -3),))
    gs = ground_state(ising, SINGLE_EDGE_EMB)
    assert gs.energy == -3
    assert gs.labels == (0, 1)


def test_gadget_size_regression_3x3():
    # One port per (face, dart): 24 for the 3x3 grid's 12 edges.  A face of
    # at most 6 ports gets a clique; a longer one is folded down to 6 ports
    # (6 is where a clique's L(L - 1)/2 edges equal a fold's 4L - 9).  The 4
    # inner faces have 4 ports each, 4 * 6 clique edges; the outer face's 8
    # ports take 2 folds, each adding 2 vertices and 4 edges, and a clique
    # on the 6 left: 4 * 8 - 9 = 23 edges.
    edges, emb = grid(3, 3)
    ising = SymmetricIsing(9, tuple((i, j, 1) for (i, j) in edges))
    dual = build_expanded_dual(ising, emb)
    assert dual.num_ports == 24 + 2 * 2
    assert len(dual.match_graph.edges) == 59
    assert len(dual.port_u) - len(ising.edges) == 4 * 6 + 23


def test_triangle_examples():
    edges, emb = cycle(3)
    gs = ground_state(SymmetricIsing(3, tuple((i, j, -1) for (i, j) in edges)), emb)
    assert gs.energy == -2
    gs = ground_state(SymmetricIsing(3, tuple((i, j, 1) for (i, j) in edges)), emb)
    assert gs.energy == 0
    assert gs.labels == (0, 0, 0)


def test_four_cycle_fully_cut():
    edges, emb = cycle(4)
    gs = ground_state(SymmetricIsing(4, tuple((i, j, -1) for (i, j) in edges)), emb)
    assert gs.energy == -4
    assert gs.labels == (0, 1, 0, 1)


def test_ground_state_vs_oracle_random():
    rng = random.Random(2024)
    checked = 0
    for _ in range(120):
        kind = rng.randrange(3)
        if kind == 0:
            rows, cols = rng.choice([(2, 2), (2, 3), (3, 3), (3, 4)])
            ising, emb = random_grid_ising(rng, rows, cols)
        elif kind == 1:
            k = rng.randint(3, 10)
            edges, emb = cycle(k)
            ising = SymmetricIsing(
                k, tuple((i, j, rng.randint(-10, 10)) for (i, j) in edges)
            )
        else:
            k = rng.randint(2, 10)
            edges, rotations = random_tree(rng, k)
            emb = PlanarEmbedding(rotations)
            ising = SymmetricIsing(
                k,
                tuple(
                    (min(i, j), max(i, j), rng.randint(-10, 10))
                    for (i, j) in edges
                ),
            )
        gs = ground_state(ising, emb)
        want = brute_force_map_ising(ising)
        assert gs.energy == want.energy
        assert gs.labels[0] == 0
        # cut consistency: evaluating the labels reproduces the energy
        assert ising_energy(ising, gs.labels) == gs.energy
        checked += 1
    assert checked == 120


def test_ground_state_on_polygon_triangulations():
    from conftest import random_polygon_triangulation

    rng = random.Random(909)
    for _ in range(60):
        n = rng.randint(4, 12)
        edges, rotations = random_polygon_triangulation(rng, n)
        emb = PlanarEmbedding(tuple(rotations))
        fs = faces_of(emb)
        assert len(fs) == (n - 2) + 1
        ising = SymmetricIsing(
            n, tuple((i, j, rng.randint(-10, 10)) for (i, j) in edges)
        )
        gs = ground_state(ising, emb)
        assert gs.energy == brute_force_map_ising(ising).energy


def test_pcc_on_polygon_triangulations():
    from conftest import random_polygon_triangulation
    from planarcc import BinaryMRF, optimize
    from planarcc.oracle import brute_force_map

    rng = random.Random(911)
    for _ in range(15):
        n = rng.randint(4, 10)
        edges, rotations = random_polygon_triangulation(rng, n)
        model = BinaryMRF(
            n,
            tuple((i, j, rng.randint(-500, 500)) for (i, j) in edges),
            tuple(rng.randint(-400, 400) for _ in range(n)),
            0,
        )
        res = optimize(model, PlanarEmbedding(tuple(rotations)), max_iters=600)
        want = brute_force_map(model).energy
        assert res.best_lower <= want + 1e-6
        assert res.best_upper >= want
        if res.certificate == "optimal":
            assert res.best_upper == want


def test_matching_feasibility_and_decode():
    rng = random.Random(6)
    for _ in range(30):
        ising, emb = random_grid_ising(rng, 3, 3)
        dual = build_expanded_dual(ising, emb)
        matching = min_weight_perfect_matching(dual.match_graph)
        gs = decode_matching(ising, dual, matching)
        assert gs.energy == matching.total_weight + sum(w for (_, _, w) in ising.edges)


def test_zero_weight_edges_kept():
    edges, emb = grid(2, 2)
    ising = SymmetricIsing(4, tuple((i, j, 0) for (i, j) in edges))
    gs = ground_state(ising, emb)
    assert gs.energy == 0


def test_non_integer_weights_rejected():
    ising = SymmetricIsing(2, ((0, 1, 0.5),))
    with pytest.raises(ValueError):
        build_expanded_dual(ising, SINGLE_EDGE_EMB)


def test_out_of_range_weights_rejected():
    # -2**63 fits in int64 but has no int64 absolute value; 2**63 and up
    # do not fit in int64 at all.
    for w in (2**60, MAX_ABS_WEIGHT + 1, -MAX_ABS_WEIGHT - 1, -(2**63), 2**63, 2**70):
        ising = SymmetricIsing(2, ((0, 1, w),))
        with pytest.raises(WeightRangeError):
            build_expanded_dual(ising, SINGLE_EDGE_EMB)
    for w in (MAX_ABS_WEIGHT, -MAX_ABS_WEIGHT):
        gs = ground_state(SymmetricIsing(2, ((0, 1, w),)), SINGLE_EDGE_EMB)
        assert gs.energy == min(w, 0)


def test_embedding_model_mismatch():
    ising = SymmetricIsing(2, ((0, 1, 1),))
    _, emb = grid(2, 2)
    with pytest.raises(NotPlanarEmbeddingError):
        build_expanded_dual(ising, emb)
    # same vertex count, different edges
    edges, emb = cycle(4)
    other = SymmetricIsing(4, ((0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 2, 1)))
    with pytest.raises(NotPlanarEmbeddingError, match="edge set differs"):
        build_expanded_dual(other, emb)


def test_engine_choice_passthrough(engine):
    edges, emb = cycle(5)
    ising = SymmetricIsing(5, tuple((i, j, (-1) ** i * (i + 1)) for (i, j) in edges))
    want = brute_force_map_ising(ising)
    assert ground_state(ising, emb).energy == want.energy


def cycle_with_pendant_path(k: int, tail: int):
    """A k-cycle with a path of ``tail`` edges hanging off node 0: the
    cycle edges border two faces, the path edges are bridges."""
    edges, emb = cycle(k)
    rotations = [list(r) for r in emb.rotations]
    prev = 0
    for v in range(k, k + tail):
        edges.append((prev, v))
        rotations[prev].append(v)
        rotations.append([prev])
        prev = v
    return edges, PlanarEmbedding(tuple(tuple(r) for r in rotations))


def test_port_weights_agree_with_rebuilt_dual(engine):
    rng = random.Random(31)
    for _ in range(40):
        edges, emb = cycle_with_pendant_path(rng.randint(3, 7), rng.randint(1, 4))
        first = SymmetricIsing(
            emb.num_vertices, tuple((i, j, rng.randint(-9, 9)) for (i, j) in edges)
        )
        dual = build_expanded_dual(first, emb)
        assert dual.bridge.any() and not dual.bridge.all()
        ising = SymmetricIsing(
            emb.num_vertices, tuple((i, j, rng.randint(-9, 9)) for (i, j) in edges)
        )
        rebuilt = build_expanded_dual(ising, emb).match_graph
        weights = [w for (_, _, w) in ising.edges]
        assert dual.port_weights(weights).tolist() == [w for (_, _, w) in rebuilt.edges]
        want = brute_force_map_ising(ising).energy
        assert ground_state(ising, emb).energy == want
        # The PCC loop's path: the dual built at other weights, solved at these.
        assert dual.solve(weights)[0] == want
        matching = min_weight_perfect_matching(rebuilt)
        mate = [-1] * dual.num_ports
        for (u, v) in matching.pairs:
            mate[u], mate[v] = v, u
        energy, labels = dual.decode(weights, mate)
        assert energy == want == ising_energy(ising, labels)


def test_ground_state_on_folded_faces(engine):
    # Faces of 7 to 20 ports are folded: long cycles, cycles with a pendant
    # path (bridges on the folded outer face) and trees (one face of
    # 2(n - 1) ports, every edge a bridge).
    rng = random.Random(47)
    cases = [cycle(k) for k in range(7, 15)]
    cases += [cycle_with_pendant_path(k, tail) for k in (7, 8, 10) for tail in (1, 3, 5)]
    for n in range(5, 12):
        tree_edges, rotations = random_tree(rng, n)
        cases.append(([(min(e), max(e)) for e in tree_edges], PlanarEmbedding(rotations)))
    for edges, emb in cases:
        longest = int(np.diff(faces_of(emb).starts).max())
        assert 7 <= longest <= 20
        for _ in range(3):
            ising = SymmetricIsing(
                emb.num_vertices, tuple((i, j, rng.randint(-9, 9)) for (i, j) in edges)
            )
            gs = ground_state(ising, emb)
            assert gs.energy == brute_force_map_ising(ising).energy
            assert gs.labels[0] == 0
            assert ising_energy(ising, gs.labels) == gs.energy


def _unmatch_first_pair(mate, eu, ev):
    """Leave port 0 and its partner unmatched."""
    mate[mate[0]] = mate[0] = -1


def _pair_across_non_edges(mate, eu, ev):
    """Re-pair two matched pairs (a, b), (c, d) as (a, c), (b, d), where no
    port edge joins a and c."""
    edges = {(min(u, v), max(u, v)) for u, v in zip(eu, ev)}
    pairs = [(u, v) for u, v in enumerate(mate) if u < v]
    for (a, b) in pairs:
        for (c, d) in pairs:
            if (a, b) != (c, d) and (min(a, c), max(a, c)) not in edges:
                mate[a], mate[c], mate[b], mate[d] = c, a, d, b
                return
    raise AssertionError("no non-edge pair to corrupt")


def _ground_state_call():
    ising, emb = random_grid_ising(random.Random(5), 3, 3)
    return lambda: ground_state(ising, emb)


def _lower_bound_call():
    model, emb = random_grid_model(random.Random(5), 3, 3, a_scaled=400)
    pcc = build_pcc(model, emb)
    params = init_params(model, pcc)
    return lambda: lower_bound(model, pcc, params)


@pytest.mark.parametrize("corrupt", [_unmatch_first_pair, _pair_across_non_edges])
@pytest.mark.parametrize("call", [_ground_state_call, _lower_bound_call])
def test_solve_rejects_a_mate_that_is_no_port_graph_matching(
    monkeypatch, engine, corrupt, call
):
    kernel = engine_kernel(engine)
    real = kernel.solve_max_weight_matching

    def broken(n, eu, ev, ew, session=None):
        mate, duals = real(n, eu, ev, ew, session)
        mate = list(mate)
        corrupt(mate, list(eu), list(ev))
        return mate, duals

    solve = call()
    solve()
    monkeypatch.setattr(kernel, "solve_max_weight_matching", broken)
    with pytest.raises(NoPerfectMatchingError, match="matching kernel returned no perfect matching"):
        solve()


def tree_loop_labels(dual, cut):
    """Labels by the loop over the decode tree that pointer jumping
    replaced: each vertex's label is its parent's XOR the cut of the tree
    edge between them."""
    labels = [0] * len(dual.parent)
    for v, parent, t in decode_tree(dual):
        labels[v] = labels[parent] ^ int(cut[t])
    return tuple(labels)


def solve_and_decode(dual, w, engine):
    """(cut, decode's energy and labels) of one cold solve at weights w."""
    port_w = dual.port_weights(w)
    mate, _ = engine_kernel(engine).solve_max_weight_matching(
        dual.num_ports, dual.port_u, dual.port_v, -port_w
    )
    cut = np.where(dual.bridge, w < 0, mate[dual.port_u[: len(w)]] != dual.port_v[: len(w)])
    return cut, dual.decode(w, mate)


@pytest.mark.parametrize("name,edges,rotations", GRAPHS, ids=[g[0] for g in GRAPHS])
def test_decode_labels_equal_the_tree_loop(name, edges, rotations, engine):
    rng = random.Random(name)
    emb = PlanarEmbedding(rotations)
    for _ in range(5):
        ising = SymmetricIsing(
            len(rotations), tuple((i, j, rng.randint(-9, 9)) for (i, j) in edges)
        )
        dual = build_expanded_dual(ising, emb)
        cut, (energy, labels) = solve_and_decode(dual, np.array(dual.weights, dtype=np.int64), engine)
        assert labels == tree_loop_labels(dual, cut)
        assert all(type(x) is int for x in labels)
        assert energy == ising_energy(ising, labels)


def test_decode_sums_python_ints_near_the_weight_limit(engine):
    # 16x16 has 480 edges and 960 ports: at |w| = 2**52 the decode cannot
    # rule out an int64 overflow, so its energy check sums Python ints.
    rng = random.Random(8)
    edges, emb = grid(16, 16)
    big = MAX_ABS_WEIGHT
    ising = SymmetricIsing(256, tuple((i, j, rng.choice((-big, big - 1))) for (i, j) in edges))
    dual = build_expanded_dual(ising, emb)
    assert big * (len(dual.weights) + dual.num_ports) >= 2**62
    cut, (energy, labels) = solve_and_decode(dual, np.array(dual.weights, dtype=np.int64), engine)
    assert labels == tree_loop_labels(dual, cut)
    assert energy == ising_energy(ising, labels) == ground_state(ising, emb).energy
