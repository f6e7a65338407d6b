import itertools
import random
import warnings

import numpy as np
import pytest

from planarcc import (
    BinaryMRF,
    PlanarEmbedding,
    build_pcc,
    complement,
    cycle,
    decode_upper,
    energy,
    faces,
    grid,
    init_params,
    lower_bound,
    optimize,
    polyak_step,
    subgradient,
)
from planarcc.errors import WeightRangeError
from planarcc.harness import InstanceSpec, generate_grid_instance
from planarcc.matching import COMPILED_UNAVAILABLE, MAX_ABS_WEIGHT, has_compiled_kernel
from planarcc.oracle import brute_force_map
from planarcc.pcc import _UpperBound, certificate_of

from conftest import random_grid_model, random_tree


def unit_grid_model(rows, cols, unary=0):
    edges, emb = grid(rows, cols)
    n = rows * cols
    return (
        BinaryMRF(n, tuple((i, j, 1) for (i, j) in edges), (unary,) * n, 0),
        emb,
    )


def test_build_pcc_3x3_counts():
    model, emb = unit_grid_model(3, 3)
    g = build_pcc(model, emb)
    assert g.num_vertices == 14
    assert g.num_edges == 36
    assert g.inc_count[4] == 4  # center: four interior faces
    assert g.inc_count[0] == 2  # corner: one interior + outer


def test_build_pcc_structural_invariant_grids():
    for rows, cols in [(2, 2), (2, 3), (3, 4), (4, 4), (5, 5)]:
        model, emb = unit_grid_model(rows, cols)
        g = build_pcc(model, emb)
        F = len(faces(emb))
        E = len(model.edges)
        assert g.num_vertices == model.num_nodes + F
        assert g.num_edges == 3 * E
        # augmented embedding is planar (faces() raises otherwise)
        faces(g.embedding)


def test_build_pcc_cycle():
    edges, emb = cycle(6)
    model = BinaryMRF(6, tuple((i, j, 1) for (i, j) in edges), (1,) * 6, 0)
    g = build_pcc(model, emb)
    assert g.num_faces == 2
    assert g.inc_count.tolist() == [2] * 6
    assert np.bincount(g.inc_face).tolist() == [6, 6]


def test_build_pcc_trees_and_single_vertex():
    rng = random.Random(4)
    for _ in range(25):
        n = rng.randint(1, 9)
        if n == 1:
            emb = PlanarEmbedding(((),))
            model = BinaryMRF(1, (), (rng.randint(-5, 5),), 0)
        else:
            edges, rotations = random_tree(rng, n)
            emb = PlanarEmbedding(rotations)
            model = BinaryMRF(
                n,
                tuple((min(i, j), max(i, j), rng.randint(-5, 5)) for (i, j) in edges),
                tuple(rng.randint(-5, 5) for _ in range(n)),
                0,
            )
        g = build_pcc(model, emb)
        assert g.num_faces == 1
        faces(g.embedding)


def test_build_pcc_rejects_another_edge_set_of_the_same_size():
    # The 4-cycle's embedding against a model that swaps edge (0,3) for the
    # chord (0,2): same vertex and edge counts, one edge different.
    edges, emb = cycle(4)
    model = BinaryMRF(4, ((0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 2, 1)), (1,) * 4, 0)
    assert len(model.edges) == len(edges)
    with pytest.raises(ValueError, match="edge set differs"):
        build_pcc(model, emb)


def test_init_params_examples():
    model, emb = unit_grid_model(3, 3, unary=4)
    g = build_pcc(model, emb)
    params = init_params(model, g)
    # center node has four faces: each split is 1
    assert params.values[g.inc_node == 4].tolist() == [1.0] * 4
    zero_model, _ = unit_grid_model(3, 3, unary=0)
    zp = init_params(zero_model, build_pcc(zero_model, emb))
    assert np.all(zp.values == 0)


def test_init_params_sum_constraint_random():
    rng = random.Random(17)
    for _ in range(100):
        rows, cols = rng.choice([(2, 2), (3, 3), (4, 4), (2, 5)])
        model, emb = random_grid_model(rng, rows, cols, a_scaled=400)
        g = build_pcc(model, emb)
        params = init_params(model, g)
        assert np.array_equal(params.node_sums(), np.asarray(model.unary, dtype=float))


def test_lower_bound_unary_free_is_exact():
    rng = random.Random(23)
    for _ in range(10):
        model, emb = random_grid_model(rng, 3, 3, a_scaled=0)
        g = build_pcc(model, emb)
        params = init_params(model, g)
        value, config = lower_bound(model, g, params)
        want = brute_force_map(model).energy
        assert value == want
        assert len(config) == g.num_vertices


def test_lower_bound_single_edge_example():
    emb = PlanarEmbedding(((1,), (0,)))
    model = BinaryMRF(2, ((0, 1, -2),), (1, 0), 0)
    g = build_pcc(model, emb)
    value, config = lower_bound(model, g, init_params(model, g))
    # single face: the relaxation is exact at initialization
    assert value == brute_force_map(model).energy == -2


def test_lower_bound_validity_over_iterations():
    rng = random.Random(31)
    for seed in range(6):
        model, emb = random_grid_model(rng, 4, 4, a_scaled=400)
        want = brute_force_map(model).energy
        seen = []
        res = optimize(
            model, emb, max_iters=60, tol=0.0,
            on_iteration=lambda it, params, lb, ub: seen.append(lb),
        )
        assert seen
        assert all(lb <= want + 1e-6 for lb in seen)
        assert res.best_upper >= want


def test_lower_bound_rejects_a_model_the_pcc_graph_was_not_built_for():
    model, emb = unit_grid_model(3, 3, unary=1)
    g = build_pcc(model, emb)
    params = init_params(model, g)
    other = BinaryMRF(model.num_nodes, model.edges, (2,) * model.num_nodes, 0)
    with pytest.raises(ValueError, match="differs"):
        lower_bound(other, g, params)
    # An equal model built apart is the same model.
    same, _ = unit_grid_model(3, 3, unary=1)
    assert lower_bound(same, g, params) == lower_bound(model, g, params)


def test_init_params_rejects_a_model_the_pcc_graph_was_not_built_for():
    model, emb = unit_grid_model(3, 3, unary=1)
    g = build_pcc(model, emb)
    other = BinaryMRF(model.num_nodes, model.edges, (7,) * model.num_nodes, 0)
    with pytest.raises(ValueError, match="differs"):
        init_params(other, g)
    # An equal model built apart is the same model.
    same, _ = unit_grid_model(3, 3, unary=1)
    assert np.array_equal(init_params(same, g).values, init_params(model, g).values)


def test_lower_bound_rejects_a_split_beyond_int64(engine):
    # Node 0's one split scales to 2e13 * 10**6 = 2e19 matching units, past
    # 2**63: a range check made after the cast to int64 sees a wrapped value.
    emb = PlanarEmbedding(((1,), (0, 2), (1,)))
    model = BinaryMRF(3, ((0, 1, 1), (1, 2, 1)), (2e13, 0, 0), 0)
    g = build_pcc(model, emb)
    with pytest.raises(WeightRangeError, match="split weight"):
        lower_bound(model, g, init_params(model, g), engine=engine)


def random_float_grid_model(rng, rows, cols):
    edges, emb = grid(rows, cols)
    model = BinaryMRF(
        rows * cols,
        tuple((i, j, rng.uniform(-3, 3)) for (i, j) in edges),
        tuple(rng.uniform(-2, 2) for _ in range(rows * cols)),
        rng.uniform(-5, 5),
    )
    return model, emb


def test_lower_bound_valid_for_float_weights_after_steps():
    # Float weights are floored to matching units and each node's integer
    # splits sum exactly to its floored unary, so the bound holds at any
    # matching scale, coarse ones included.
    rng = random.Random(211)
    for trial in range(24):
        model, emb = random_float_grid_model(rng, *rng.choice([(2, 3), (3, 3), (3, 4)]))
        want = brute_force_map(model).energy
        g = build_pcc(model, emb)
        params = init_params(model, g)
        for _ in range(rng.randint(0, 6)):
            direction = np.array([rng.uniform(-1, 1) for _ in range(len(g.inc_node))])
            params.apply_step(rng.uniform(0, 3), direction)
        for scale in (1, 7, 1000, 10**6):
            value, _ = lower_bound(model, g, params, matching_scale=scale)
            assert value <= want + 1e-9 * (1 + abs(want)), (trial, scale)


def test_integer_splits_sum_exactly_to_each_scaled_unary(monkeypatch):
    from planarcc.ising import ExpandedDual

    sent = []
    solve = ExpandedDual.solve_array

    def record(self, weights, engine=None, session=None):
        sent.append(np.array(weights))
        return solve(self, weights, engine, session)

    monkeypatch.setattr(ExpandedDual, "solve_array", record)
    rng = random.Random(223)
    scale = 10**6
    for _ in range(10):
        model, emb = random_grid_model(rng, 4, 4, a_scaled=400)
        g = build_pcc(model, emb)
        params = init_params(model, g)
        for _ in range(5):
            direction = np.array([rng.uniform(-1, 1) for _ in range(len(g.inc_node))])
            params.apply_step(rng.uniform(0, 50), direction)
            lower_bound(model, g, params, matching_scale=scale)
            w = sent[-1].tolist()
            base, splits = w[: len(model.edges)], w[len(model.edges):]
            assert base == [wt * scale for (_, _, wt) in model.edges]
            sums = [0] * model.num_nodes
            for i, split in zip(g.inc_node.tolist(), splits):
                sums[i] += split
            assert sums == [u * scale for u in model.unary]
    assert len(sent) == 50


def one_node_model(constant):
    return BinaryMRF(1, (), (0,), constant)


def test_certificate_at_the_threshold():
    scale = 10**6
    for best_upper, constant in ((-43231, 0), (17, 3), (0, -12)):
        model = one_node_model(constant)
        gs = scale * (best_upper - 1 - constant)
        assert certificate_of(model, gs, scale, best_upper) == "gap"
        assert certificate_of(model, gs + 1, scale, best_upper) == "optimal"
        assert certificate_of(model, gs + scale, scale, best_upper) == "optimal"
    # No certificate for a model with a non-integer weight.
    assert certificate_of(one_node_model(0.5), 10**6, scale, 1) == "gap"


def test_certificate_where_a_float_gap_reads_one():
    # The optimum is at least ceil(gs / scale) = best_upper, so the model is
    # certified; in floats the gap is exactly 1.0 and a gap-below-1 rule
    # withholds the certificate.
    scale, gs, best_upper = 10**6, 10**17 + 1, 10**11 + 1
    assert best_upper - gs / scale == 1.0
    assert certificate_of(one_node_model(0), gs, scale, best_upper) == "optimal"


def test_subgradient_example():
    # node 0 on a path has a single face; build a cycle to get two faces
    edges, emb = cycle(4)
    model = BinaryMRF(4, tuple((i, j, 1) for (i, j) in edges), (1, 0, 0, 0), 0)
    g = build_pcc(model, emb)
    # config: original nodes all 0; face node 0 labeled 1, face node 1 labeled 0
    config = [0, 0, 0, 0] + [0, 0]
    config[4] = 1
    grad = subgradient(g, config)
    [t_f] = np.flatnonzero((g.inc_node == 0) & (g.inc_face == 0))
    [t_g] = np.flatnonzero((g.inc_node == 0) & (g.inc_face == 1))
    assert grad[t_f] == pytest.approx(0.5)
    assert grad[t_g] == pytest.approx(-0.5)


def test_subgradient_zero_when_copies_agree():
    edges, emb = cycle(5)
    model = BinaryMRF(5, tuple((i, j, 1) for (i, j) in edges), (1,) * 5, 0)
    g = build_pcc(model, emb)
    config = (0,) * g.num_vertices
    assert np.all(subgradient(g, config) == 0.0)
    config = tuple(random.Random(1).randint(0, 1) for _ in range(5)) + (1, 1)
    # copies agree with each other (both faces labeled 1): zero gradient
    assert np.all(subgradient(g, config) == 0.0)


def test_subgradient_rows_sum_to_zero():
    rng = random.Random(41)
    for _ in range(25):
        model, emb = random_grid_model(rng, 3, 4, a_scaled=300)
        g = build_pcc(model, emb)
        config = tuple(rng.randint(0, 1) for _ in range(g.num_vertices))
        grad = subgradient(g, config)
        sums = np.bincount(g.inc_node, weights=grad, minlength=12)
        assert np.allclose(sums, 0.0, atol=1e-12)


def test_polyak_step():
    assert polyak_step(10, 6, 8, 0.5) == 0.25
    assert polyak_step(5, 5, 2, 0.5) == 0.0
    assert polyak_step(7, 3, 16, 0.5) > 0
    with pytest.raises(ValueError):
        polyak_step(10, 6, 0, 0.5)


def test_step_factor_schedule_in_trace():
    # tol=0 keeps the loop going past certification, so the lower bound
    # stalls often enough for the factor to reach its floor.  The coarse
    # matching scale keeps the exact integer bound 0.01 below the optimum,
    # where at the default scale it reaches the optimum and every later
    # step is 0.
    model, emb = generate_grid_instance(InstanceSpec(10, 10, 0.2, 31, 500))
    rows = optimize(model, emb, max_iters=100, tol=0.0, matching_scale=100).trace.rows
    assert len(rows) == 100 and rows[-1].step_size == 0.0
    # Replay the schedule on the trace's own lower bounds: the factor starts
    # at 1.5 and halves, never below 0.05, exactly when 3 iterations in a
    # row have not raised the best lower bound.
    best, stalls, want = -np.inf, 0, 1.5
    factors = []
    for r in rows[:-1]:
        if r.lower_bound > best:
            best, stalls = r.lower_bound, 0
        else:
            stalls += 1
            if stalls == 3:
                want, stalls = max(want / 2, 0.05), 0
        factor = r.step_size * r.subgrad_norm2 / (r.best_upper - r.lower_bound)
        assert factor == pytest.approx(want, rel=1e-9), r.iteration
        factors.append(factor)
    assert factors[0] == pytest.approx(1.5, rel=1e-9)
    assert min(factors) >= 0.05 * (1 - 1e-9)
    # The run exercises every branch: halvings, and steps at the floor.
    assert sum(f == pytest.approx(0.05, rel=1e-9) for f in factors) > 3


def test_certify_iteration_budget_8x8():
    # The fixed factor 1/2 needed 597 iterations on these seeds, the slowest
    # seed 112; the adaptive schedule needs 146.
    total = 0
    for seed in range(12):
        model, emb = generate_grid_instance(InstanceSpec(8, 8, 0.2, seed, 500))
        res = optimize(model, emb, max_iters=2000, tol=1.0)
        assert res.certificate == "optimal", seed
        total += res.iterations
    assert total <= 200


def test_decode_upper():
    model = BinaryMRF(2, ((0, 1, -4),), (3, 0), 0)
    # restriction (0,1) scores -4+0 = -4; complement (1,0) scores -4+3=-1
    x, e = decode_upper(model, (0, 1, 1, 0))
    assert (x, e) == ((0, 1), -4)
    # flip-symmetric model: ties resolve to the restriction itself
    sym = BinaryMRF(2, ((0, 1, 2),), (0, 0), 0)
    x, e = decode_upper(sym, (1, 0))
    assert x == (1, 0)
    assert e == 2


def upper_bound_models(rng):
    """(name, model) pairs: integer, float and mixed weights, a flip-
    symmetric model whose x and complement always tie, and integer models
    near the weight limit whose sums must fall back to Python ints."""
    edges, _ = grid(5, 6)
    n = 30
    yield "integer", BinaryMRF(
        n, tuple((i, j, rng.randint(-50, 50)) for (i, j) in edges),
        tuple(rng.randint(-80, 80) for _ in range(n)), rng.randint(-9, 9),
    )

    def spread():
        # Magnitudes far apart, so that any change of summation order
        # changes the rounded result.
        return rng.uniform(-1, 1) * 10.0 ** rng.randint(-6, 6)

    yield "float", BinaryMRF(
        n, tuple((i, j, spread()) for (i, j) in edges), tuple(spread() for _ in range(n)), 0.1
    )
    yield "mixed", BinaryMRF(
        n, tuple((i, j, rng.randint(-5, 5)) for (i, j) in edges),
        tuple(rng.choice((rng.randint(-3, 3), rng.uniform(-3, 3))) for _ in range(n)), 0,
    )
    yield "tie", BinaryMRF(n, tuple((i, j, rng.randint(-5, 5)) for (i, j) in edges), (0,) * n, 3)
    big = MAX_ABS_WEIGHT
    for name, weights in (("limit", (-big, big)), ("limit-near", (-big + 1, big - 1, 0))):
        edges, _ = grid(24, 24)
        yield name, BinaryMRF(
            576, tuple((i, j, rng.choice(weights)) for (i, j) in edges),
            tuple(rng.choice(weights) for _ in range(576)), big,
        )


def test_array_upper_bound_equals_energy_exactly():
    rng = random.Random(97)
    for name, model in upper_bound_models(rng):
        fits = _UpperBound.fits(model)
        assert fits == (name in ("integer", "tie")), name
        if not fits:
            continue
        upper = _UpperBound(model)
        n = model.num_nodes
        for trial in range(25):
            x = np.array([rng.randint(0, 1) for _ in range(n)], dtype=np.int8)
            if trial == 0:
                x[:] = 0
            want = (energy(model, x.tolist()), energy(model, complement(x.tolist())))
            got = upper.energies(x)
            assert got == want, name
            assert [type(e) for e in got] == [type(e) for e in want], name
            cand, ub = upper.decode(x)
            assert (tuple(cand.tolist()), ub) == decode_upper(model, x.tolist()), name
            if name == "tie":
                assert cand is x and want[0] == want[1]


def test_optimize_decodes_with_energy_where_int64_is_not_exact(monkeypatch):
    # Float models and integer models near the weight limit take their
    # upper bounds from decode_upper, so they equal energy() bit for bit.
    import planarcc.pcc as pcc_module

    calls = []

    def record(model, config):
        calls.append(len(config))
        return decode_upper(model, config)

    monkeypatch.setattr(pcc_module, "decode_upper", record)
    rng = random.Random(101)
    models = dict(upper_bound_models(rng))
    for name, scale in (("float", 10**6), ("limit", 1), ("integer", 10**6)):
        model = models[name]
        side = 24 if name == "limit" else 5
        _, emb = grid(side, model.num_nodes // side)
        calls.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = optimize(model, emb, max_iters=3, matching_scale=scale)
        assert calls == ([] if name == "integer" else [model.num_nodes] * res.iterations), name
        for row in res.trace.rows:
            assert row.upper_bound >= res.best_upper
        assert energy(model, res.best_assignment) == res.best_upper, name


def test_decode_upper_never_below_optimum():
    rng = random.Random(53)
    for _ in range(20):
        model, emb = random_grid_model(rng, 3, 3, a_scaled=200)
        want = brute_force_map(model).energy
        g = build_pcc(model, emb)
        config = tuple(rng.randint(0, 1) for _ in range(g.num_vertices))
        _, e = decode_upper(model, config)
        assert e >= want


def test_optimize_tree_certifies_first_iteration():
    rng = random.Random(61)
    for _ in range(10):
        n = rng.randint(2, 8)
        edges, rotations = random_tree(rng, n)
        emb = PlanarEmbedding(rotations)
        model = BinaryMRF(
            n,
            tuple((min(i, j), max(i, j), rng.randint(-500, 500)) for (i, j) in edges),
            tuple(rng.randint(-500, 500) for _ in range(n)),
            0,
        )
        res = optimize(model, emb, max_iters=50)
        assert res.certificate == "optimal"
        assert res.iterations == 1
        assert res.best_upper == brute_force_map(model).energy
        assert energy(model, res.best_assignment) == res.best_upper


def test_optimize_cycles_certify():
    rng = random.Random(71)
    for k in range(3, 9):
        edges, emb = cycle(k)
        model = BinaryMRF(
            k,
            tuple((i, j, rng.randint(-500, 500)) for (i, j) in sorted(edges)),
            tuple(rng.randint(-400, 400) for _ in range(k)),
            0,
        )
        res = optimize(model, emb, max_iters=500)
        assert res.certificate == "optimal"
        assert res.best_upper == brute_force_map(model).energy


def test_optimize_result_invariants():
    rng = random.Random(83)
    model, emb = random_grid_model(rng, 4, 4, a_scaled=100)
    res = optimize(model, emb, max_iters=120, tol=0.0)
    assert res.best_lower <= res.best_upper
    rows = res.trace.rows
    assert [r.iteration for r in rows] == list(range(1, len(rows) + 1))
    # monotone envelopes
    best_uppers = [r.best_upper for r in rows]
    assert all(b2 <= b1 for b1, b2 in zip(best_uppers, best_uppers[1:]))
    running_lb = -np.inf
    for r in rows:
        running_lb = max(running_lb, r.lower_bound)
    assert running_lb == res.best_lower
    assert energy(model, res.best_assignment) == res.best_upper


def test_optimize_sum_constraint_preserved():
    rng = random.Random(97)
    model, emb = random_grid_model(rng, 4, 4, a_scaled=400)
    worst = []
    unary = np.asarray(model.unary, dtype=float)
    tol = 1e-8 * np.maximum(1.0, np.abs(unary))

    def check(it, params, lb, ub):
        sums = params.node_sums()
        worst.append(np.max(np.abs(sums - unary) / np.maximum(1.0, np.abs(unary))))
        assert np.all(np.abs(sums - unary) <= tol)

    optimize(model, emb, max_iters=150, tol=0.0, on_iteration=check)
    assert worst and max(worst) <= 1e-8


def test_optimize_zero_budget_reports_initial_gap():
    rng = random.Random(101)
    model, emb = random_grid_model(rng, 4, 4, a_scaled=100)
    res = optimize(model, emb, max_iters=0, tol=0.0)
    assert res.iterations == 1
    assert len(res.trace.rows) == 1
    assert res.trace.rows[0].step_size == 0.0
    assert res.gap == res.best_upper - res.best_lower


def test_optimize_loose_tol_still_requires_unit_gap_for_certificate():
    rng = random.Random(131)
    model, emb = random_grid_model(rng, 4, 4, a_scaled=100)
    res = optimize(model, emb, max_iters=3, tol=1e9)
    # stopping tolerance satisfied immediately, but that is no proof
    assert res.iterations == 1
    if res.gap >= 1.0:
        assert res.certificate == "gap"
    want = brute_force_map(model).energy
    full = optimize(model, emb, max_iters=2000, tol=1.0)
    if full.certificate == "optimal":
        assert full.gap < 1.0
        assert full.best_upper == want


def test_optimize_single_node_model():
    from planarcc import PlanarEmbedding

    for theta in (-4, 0, 3):
        model = BinaryMRF(1, (), (theta,), 2)
        res = optimize(model, PlanarEmbedding(((),)), max_iters=10)
        assert res.certificate == "optimal"
        assert res.best_upper == min(0, theta) + 2
        assert res.best_assignment == ((1,) if theta < 0 else (0,))


def test_optimize_with_unloaded_engine_reports_why(monkeypatch):
    import planarcc.matching
    from planarcc import PlanarCCError

    monkeypatch.delitem(planarcc.matching._ENGINES, "compiled", raising=False)
    monkeypatch.setattr(planarcc.matching, "COMPILED_UNAVAILABLE", "no cc here")
    model, emb = unit_grid_model(2, 2, unary=1)
    with pytest.raises(PlanarCCError, match=r"'compiled' unavailable.*no cc here"):
        optimize(model, emb, engine="compiled")


def test_optimize_non_integer_model_warns_and_withholds_certificate():
    emb = PlanarEmbedding(((1,), (0,)))
    model = BinaryMRF(2, ((0, 1, -2.5),), (0.5, 0.0), 0)
    with pytest.warns(UserWarning):
        res = optimize(model, emb, max_iters=10)
    assert res.certificate == "gap"


def test_trace_csv_format_and_determinism(tmp_path):
    rng = random.Random(113)
    model, emb = random_grid_model(rng, 3, 3, a_scaled=200)
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    optimize(model, emb, max_iters=40).trace.to_csv(p1)
    optimize(model, emb, max_iters=40).trace.to_csv(p2)
    b1 = p1.read_bytes()
    assert b1 == p2.read_bytes()
    header = b1.decode().splitlines()[0]
    assert header == "iter,lower_bound,upper_bound,best_upper,step_size,subgrad_norm2,elapsed_ms"
    # deterministic default zeroes the elapsed column; timed mode does not
    assert all(line.rsplit(",", 1)[1] == "0.0" for line in b1.decode().splitlines()[1:])


@pytest.mark.skipif(
    not has_compiled_kernel(),
    reason=f"compiled kernel unavailable: {COMPILED_UNAVAILABLE}",
)
@pytest.mark.parametrize(
    "spec,max_iters,tol",
    [
        (InstanceSpec(4, 4, 0.8, 1, 500), 60, 0.0),
        (InstanceSpec(6, 6, 0.2, 7, 500), 60, 0.0),
        (InstanceSpec(8, 8, 0.8, 4, 500), 300, 1.0),  # criterion 10's run
    ],
    ids=["4x4", "6x6", "criterion-10"],
)
def test_trace_identical_across_engines(tmp_path, spec, max_iters, tol):
    model, emb = generate_grid_instance(spec)
    traces = []
    for engine in ("python", "compiled"):
        p = tmp_path / f"{engine}.csv"
        res = optimize(model, emb, max_iters=max_iters, tol=tol, engine=engine)
        res.trace.to_csv(p)
        traces.append(p.read_bytes())
    assert traces[0] == traces[1]
    assert len(traces[0].splitlines()) > 2


def test_trace_timed_mode(tmp_path):
    rng = random.Random(127)
    model, emb = random_grid_model(rng, 3, 3, a_scaled=200)
    res = optimize(model, emb, max_iters=30)
    p = tmp_path / "t.csv"
    res.trace.to_csv(p, timed=True)
    last = p.read_text().strip().splitlines()[-1]
    assert float(last.rsplit(",", 1)[1]) > 0.0
