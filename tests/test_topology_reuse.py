"""An embedding's topology is computed once and reused by every model
solved on it: its faces, the port graph of each builder and the PCC
augmented graph.  Reuse must give the same results as a first build, a
model with another edge order must not be served the kept port graph, and
what is kept must not be writable."""

import gc
import random
import weakref

import numpy as np
import pytest

from planarcc import (
    BinaryMRF,
    SymmetricIsing,
    brute_force_map,
    brute_force_map_ising,
    build_expanded_dual,
    build_pcc,
    faces,
    grid,
    ground_state,
    ising_energy,
    optimize,
)
from planarcc.harness import InstanceSpec, generate_grid_instance

from conftest import random_grid_model
from test_golden import GROUND_STATE, OPTIMIZE, ground_state_digest, optimize_digest


def test_golden_digests_on_shared_embeddings(tmp_path):
    held = {side: grid(side, side)[1] for side in (8, 12)}
    for _ in range(2):
        for key, digest in OPTIMIZE.items():
            assert optimize_digest(tmp_path, *key) == digest
        for key, digest in GROUND_STATE.items():
            assert ground_state_digest(*key) == digest
    for side, emb in held.items():
        assert generate_grid_instance(InstanceSpec(side, side, 0.0, 0, 500))[1] is emb


def test_models_on_one_embedding_share_its_topology():
    rng = random.Random(5)
    (m1, emb), (m2, _) = (random_grid_model(rng, 5, 6, a_scaled=300) for _ in range(2))
    assert faces(emb) is faces(emb)
    i1, i2 = (SymmetricIsing(m.num_nodes, m.edges) for m in (m1, m2))
    d1, d2 = build_expanded_dual(i1, emb), build_expanded_dual(i2, emb)
    assert d1.port_u is d2.port_u and d1.parent is d2.parent
    assert not np.array_equal(d1.weights, d2.weights)
    p1, p2 = build_pcc(m1, emb), build_pcc(m2, emb)
    assert p1.inc_node is p2.inc_node and p1.dual.port_u is p2.dual.port_u
    assert p1.model is m1 and p2.model is m2
    assert not np.array_equal(p1.unary, p2.unary)


def reordered(model: BinaryMRF, rng: random.Random) -> BinaryMRF:
    edges = list(model.edges)
    rng.shuffle(edges)
    return BinaryMRF(model.num_nodes, tuple(edges), model.unary, model.constant)


def test_another_edge_order_replaces_the_kept_topology():
    rng = random.Random(11)
    model, emb = random_grid_model(rng, 4, 4, a_scaled=300)
    shuffled = reordered(model, rng)
    assert [e[:2] for e in shuffled.edges] != [e[:2] for e in model.edges]
    # Warm the embedding with the original order, then alternate.
    for m in (model, shuffled, model, shuffled):
        ising = SymmetricIsing(m.num_nodes, m.edges)
        gs = ground_state(ising, emb)
        assert gs.energy == ising_energy(ising, gs.labels) == brute_force_map_ising(ising).energy
        res = optimize(m, emb)
        assert res.certificate == "optimal"
        assert res.best_upper == brute_force_map(m).energy


def test_kept_arrays_are_read_only():
    model, emb = random_grid_model(random.Random(2), 3, 4, a_scaled=300)
    pcc = build_pcc(model, emb)
    dual = build_expanded_dual(SymmetricIsing(model.num_nodes, model.edges), emb)
    for array in (faces(emb).walk, faces(emb).twin, pcc.inc_node, pcc.by_node,
                  pcc.augmented_faces.walk, pcc.dual.port_u, dual.port_u, dual.parent):
        with pytest.raises(ValueError):
            array[0] = 1


def test_grid_shares_its_embedding_while_held():
    edges, emb = grid(3, 7)
    again, same = grid(3, 7)
    assert same is emb
    assert again == edges and again is not edges
    again.append((0, 1))
    assert grid(3, 7)[0] == edges
    # grid holds no strong reference: the embedding goes with its last holder.
    alive = weakref.ref(emb)
    del emb, same
    gc.collect()
    assert alive() is None
