"""Pinned digests of solver output on fixed grid instances.

Each digest is the sha256 of a run's trace CSV bytes (``to_csv`` with
elapsed_ms written as 0) followed by the repr of its ``SolveResult``
fields, or of a ground state's labels and energy.  A refactor that is meant
to leave results alone must keep every digest; a change that alters traces
on purpose updates the digests here and records why.  The float columns
are IEEE-754 double results of numpy on x86-64.
"""

import hashlib

import pytest

from planarcc import SymmetricIsing, ground_state, optimize
from planarcc.harness import InstanceSpec, generate_grid_instance

# (side, a, seed, max_iters, tol) -> sha256 of the trace CSV and result.
OPTIMIZE = {
    (8, 0.2, 0, 300, 1.0): "5d249b17a896e0edd2612c9f96bd6e87a05ee582eddb758e958dffd796733f5f",
    (8, 0.2, 1, 300, 1.0): "b3986ea867a2137fd2924397a550fed56a4f124ee95b48c9fa547c0609859a53",
    (8, 0.2, 5, 300, 0.0): "c1caade1e55f5059b72fe458888f04bdc24a3859815321fa09c8ffe1e2cca8bc",
    (12, 3.2, 0, 300, 1.0): "8ff99240622b83d2e7fe114eab330e9ce5265ee1d26d1a6bb7ec9609834fa686",
    (12, 3.2, 2, 300, 1.0): "b01d41c158bc66ccfd907ba3c70380059acae85bb704a2ed7ac154c58959e551",
    (12, 3.2, 7, 60, 0.0): "f325381072a2aa19b867c253d7af9350c6d111fd114ac6322a95769b28301921",
}

# (side, seed) -> sha256 of the unary-free model's ground state.
GROUND_STATE = {
    (8, 0): "c864167ed8c375dd5da05b0bae5b3d808eec53e8a735ab51bc362130b57dbba3",
    (8, 1): "5b91d08550fd0d582cac4bcfc88487894bd7436871a9212580fed1b901538cb3",
    (12, 0): "8f30970d33efa84a3a5c993bd4b6d5f05cdc0b480c2ed02f0e7f5a05f743d85f",
    (12, 1): "4f0286ab186051103605244c9b17027acd2ef4cbe1dacdb69f4a53347f50137e",
}


def optimize_digest(tmp_path, side, a, seed, max_iters, tol):
    model, emb = generate_grid_instance(InstanceSpec(side, side, a, seed, 500))
    res = optimize(model, emb, max_iters=max_iters, tol=tol)
    path = tmp_path / "trace.csv"
    res.trace.to_csv(path)
    fields = (
        res.best_assignment, res.best_upper, res.best_lower,
        res.certificate, res.gap, res.iterations,
    )
    return hashlib.sha256(path.read_bytes() + repr(fields).encode()).hexdigest()


def ground_state_digest(side, seed):
    model, emb = generate_grid_instance(InstanceSpec(side, side, 0.0, seed, 500))
    gs = ground_state(SymmetricIsing(model.num_nodes, model.edges), emb)
    return hashlib.sha256(repr((gs.labels, gs.energy)).encode()).hexdigest()


@pytest.mark.parametrize("key", OPTIMIZE, ids=lambda k: "{}x{}-a{}-seed{}-iters{}-tol{}".format(k[0], *k))
def test_optimize_golden(tmp_path, key):
    assert optimize_digest(tmp_path, *key) == OPTIMIZE[key]


@pytest.mark.parametrize("key", GROUND_STATE, ids=lambda k: "{}x{}-seed{}".format(k[0], *k))
def test_ground_state_golden(key):
    assert ground_state_digest(*key) == GROUND_STATE[key]
