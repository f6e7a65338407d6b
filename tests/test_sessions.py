"""Kernel sessions: one graph opened once and solved at many weights.

Each solve on a session must return the mates and duals of a cold solve at
the same weights, on both engines; a rejected weight must leave the
session usable, a closed one must refuse to solve, and ``optimize`` must
close the one session it opens even when a solve raises.
"""

import gc
import random

import numpy as np
import pytest

from planarcc import optimize
from planarcc.harness import InstanceSpec, generate_grid_instance
from planarcc.matching import MAX_ABS_WEIGHT, engine_kernel, has_compiled_kernel

from conftest import assert_same

# (side, a, seed) of the optimize runs whose solves are replayed.
RUNS = [(12, 3.2, 2), (8, 0.2, 0)]


def recorded_run(spec):
    """(n, eu, ev, [ew, ...]): the port graph of an optimize run and the
    weights of its solves, in order."""
    kernel = engine_kernel()
    real = kernel.solve_max_weight_matching
    calls = []

    def recording(n, eu, ev, ew, session=None):
        calls.append((n, np.array(eu), np.array(ev), np.array(ew)))
        return real(n, eu, ev, ew, session)

    model, emb = generate_grid_instance(InstanceSpec(spec[0], spec[0], spec[1], spec[2], 500))
    kernel.solve_max_weight_matching = recording
    try:
        optimize(model, emb, max_iters=30)
    finally:
        kernel.solve_max_weight_matching = real
    n, eu, ev, _ = calls[0]
    assert all(c[0] == n and np.array_equal(c[1], eu) and np.array_equal(c[2], ev) for c in calls)
    return n, eu, ev, [c[3] for c in calls]


@pytest.fixture(scope="module", params=RUNS, ids=lambda s: "{}x{}-a{}-seed{}".format(s[0], *s))
def run(request):
    return recorded_run(request.param)


def test_session_solves_equal_cold_solves(run, engine):
    n, eu, ev, weights = run
    kernel = engine_kernel(engine)
    rng = random.Random(n)
    big = MAX_ABS_WEIGHT
    weights = weights + [
        np.array([rng.choice((-big, -big + 1, 0, big - 1, big)) for _ in eu]) for _ in range(3)
    ]
    session = kernel.open_session(n, eu, ev)
    try:
        for ew in weights:
            got = kernel.solve_max_weight_matching(n, eu, ev, ew, session)
            cold = kernel.solve_max_weight_matching(n, eu, ev, ew)
            assert_same(got, cold)
    finally:
        session.close()


def test_rejected_weight_leaves_the_session_usable(run, engine):
    n, eu, ev, weights = run
    kernel = engine_kernel(engine)
    session = kernel.open_session(n, eu, ev)
    try:
        for bad in (MAX_ABS_WEIGHT + 1, -MAX_ABS_WEIGHT - 1):
            ew = weights[0].copy()
            ew[len(ew) // 2] = bad
            with pytest.raises(ValueError, match="weight"):
                session.solve(ew)
            assert_same(session.solve(weights[-1]), kernel.solve_max_weight_matching(n, eu, ev, weights[-1]))
        with pytest.raises(ValueError):
            session.solve(weights[0][:-1])
    finally:
        session.close()


def test_closed_session_refuses_to_solve(engine):
    kernel = engine_kernel(engine)
    session = kernel.open_session(4, [0, 1, 2, 0], [1, 2, 3, 3])
    assert session.solve([1, 2, 3, 4])[0].tolist() == [3, 2, 1, 0]
    session.close()
    session.close()
    with pytest.raises(ValueError, match="closed"):
        session.solve([1, 2, 3, 4])


@pytest.mark.skipif(not has_compiled_kernel(), reason="compiled kernel unavailable")
def test_compiled_session_frees_its_buffers_once(monkeypatch):
    from planarcc.matching import _blossom_c

    kernel = _blossom_c._kernel
    real, freed = kernel._close, []

    def close(handle):
        freed.append(handle.value)
        real(handle)

    monkeypatch.setattr(kernel, "_close", close)
    dropped = _blossom_c.open_session(4, [0, 1, 2, 0], [1, 2, 3, 3])
    handle = dropped._handle.value
    del dropped
    gc.collect()
    assert freed == [handle]
    closed = _blossom_c.open_session(4, [0, 1, 2, 0], [1, 2, 3, 3])
    handle = closed._handle.value
    closed.close()
    closed.close()
    del closed
    gc.collect()
    assert freed[1:] == [handle]


def test_open_rejects_an_invalid_graph(engine):
    kernel = engine_kernel(engine)
    for eu, ev in (([0], [0]), ([0], [4]), ([-1], [1]), ([0, 1], [1])):
        with pytest.raises(ValueError):
            kernel.open_session(4, eu, ev)


def test_empty_graph_session(engine):
    kernel = engine_kernel(engine)
    session = kernel.open_session(0, [], [])
    try:
        mate, duals = session.solve([])
    finally:
        session.close()
    assert mate.dtype == duals.dtype == np.int64 and mate.shape == duals.shape == (0,)


@pytest.mark.parametrize("fail_at", [None, 1, 3])
def test_optimize_closes_its_session(monkeypatch, engine, fail_at):
    kernel = engine_kernel(engine)
    real_open, real_solve = kernel.open_session, kernel.solve_max_weight_matching
    opened, closed, solves = [], [], []

    class Counted:
        def __init__(self, inner):
            self.inner = inner
            opened.append(self)

        def close(self):
            closed.append(self)
            self.inner.close()

    def solve(n, eu, ev, ew, session=None):
        solves.append(n)
        if len(solves) == fail_at:
            raise RuntimeError("injected")
        return real_solve(n, eu, ev, ew, session.inner)

    monkeypatch.setattr(kernel, "open_session", lambda *a: Counted(real_open(*a)))
    monkeypatch.setattr(kernel, "solve_max_weight_matching", solve)
    model, emb = generate_grid_instance(InstanceSpec(8, 8, 0.2, 0, 500))
    if fail_at is None:
        res = optimize(model, emb, max_iters=5)
        assert res.iterations == len(solves) == 5
    else:
        with pytest.raises(RuntimeError, match="injected"):
            optimize(model, emb, max_iters=5)
        assert len(solves) == fail_at
    assert len(opened) == 1 and closed == opened
