import itertools
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

import planarcc.matching
from planarcc import (
    BinaryMRF,
    PlanarEmbedding,
    SymmetricIsing,
    build_pcc,
    complement,
    cycle,
    decode_upper,
    energy,
    faces,
    grid,
    ground_state,
    init_params,
    lower_bound,
    optimize,
    polyak_step,
    subgradient,
)
from planarcc.errors import WeightRangeError
from planarcc.harness import InstanceSpec, generate_grid_instance
from planarcc.ising import _endpoints
from planarcc.matching import (
    COMPILED_UNAVAILABLE,
    MAX_ABS_WEIGHT,
    _blossom_c,
    _blossom_py,
    available_engines,
    has_compiled_kernel,
)
from planarcc.oracle import brute_force_map, brute_force_map_ising
from planarcc.pcc import _Upper, _exact_weights, _scale_base, certificate_of

from conftest import random_grid_model, random_tree


def unit_grid_model(rows, cols, unary=0):
    edges, emb = grid(rows, cols)
    n = rows * cols
    return (
        BinaryMRF(n, tuple((i, j, 1) for (i, j) in edges), (unary,) * n, 0),
        emb,
    )


def test_build_pcc_3x3_counts():
    # Face nodes go on the outer face and on the two inner faces of one
    # checkerboard colour: 9 + 3 vertices, 12 edges and 8 + 4 + 4 spokes.
    model, emb = unit_grid_model(3, 3)
    g = build_pcc(model, emb)
    assert g.num_vertices == 12
    assert g.num_edges == 28
    assert g.inc_count[4] == 2  # center: two chosen inner faces
    assert g.inc_count[0] == 1  # corner 0: the outer face only
    assert g.inc_count[2] == 2  # corner 2: one chosen inner face + outer


def test_build_pcc_structural_invariant_grids():
    # n + (chosen faces) vertices and E + (incidences) edges.  On a grid the
    # chosen faces are the outer face and the inner faces of the colour
    # opposite the first inner face: half of them, rounded down.
    for rows, cols in [(2, 2), (2, 3), (3, 4), (4, 4), (5, 5)]:
        model, emb = unit_grid_model(rows, cols)
        g = build_pcc(model, emb)
        inner = (len(faces(emb)) - 1) // 2
        E = len(model.edges)
        assert g.num_faces == inner + 1
        assert g.num_vertices == model.num_nodes + inner + 1
        assert len(g.inc_node) == 4 * inner + 2 * (rows - 1) + 2 * (cols - 1)
        assert g.num_edges == E + len(g.inc_node)
        # augmented embedding is planar (faces() raises otherwise)
        faces(g.embedding)


def test_build_pcc_cycle():
    edges, emb = cycle(6)
    model = BinaryMRF(6, tuple((i, j, 1) for (i, j) in edges), (1,) * 6, 0)
    g = build_pcc(model, emb)
    # Both faces hold every edge, so one of them carries the face node.
    assert g.num_faces == 1
    assert g.inc_count.tolist() == [1] * 6
    assert np.bincount(g.inc_face).tolist() == [6]


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
    # center node has two chosen faces: each split is 2; corner 0 has one
    assert params.values[g.inc_node == 4].tolist() == [2.0] * 2
    assert params.values[g.inc_node == 0].tolist() == [4.0]
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
        lower_bound(model, g, init_params(model, g))


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
    solve = ExpandedDual.solve

    def record(self, weights, session=None):
        sent.append(np.array(weights))
        return solve(self, weights, session)

    monkeypatch.setattr(ExpandedDual, "solve", record)
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
    # The centre of the 3x3 grid lies on two chosen faces, 1 and 2.
    model, emb = unit_grid_model(3, 3, unary=1)
    g = build_pcc(model, emb)
    assert g.inc_face[g.inc_node == 4].tolist() == [1, 2]
    # config: original nodes all 0; face node 1 labeled 1, the others 0
    config = [0] * 9 + [0, 1, 0]
    grad = subgradient(g, config)
    [t_f] = np.flatnonzero((g.inc_node == 4) & (g.inc_face == 1))
    [t_g] = np.flatnonzero((g.inc_node == 4) & (g.inc_face == 2))
    assert grad[t_f] == pytest.approx(0.5)
    assert grad[t_g] == pytest.approx(-0.5)


def test_subgradient_zero_when_copies_agree():
    model, emb = unit_grid_model(3, 3, unary=1)
    g = build_pcc(model, emb)
    assert (g.inc_count == 2).any()
    config = (0,) * g.num_vertices
    assert np.all(subgradient(g, config) == 0.0)
    config = tuple(random.Random(1).randint(0, 1) for _ in range(9)) + (1, 1, 1)
    # copies agree with each other (every face labeled 1): zero gradient
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


def perturbed_k4(seed):
    """K4 embedded as a triangle around vertex 3, with weights -300 + U(-60,
    60) drawn for the edges and then for the unaries.  PCC's relaxation is
    not tight on it, so it never certifies."""
    rng = random.Random(seed)
    pairs = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    edges = tuple((i, j, -300 + rng.randint(-60, 60)) for (i, j) in pairs)
    unary = tuple(-300 + rng.randint(-60, 60) for _ in range(4))
    rotations = ((1, 3, 2), (2, 3, 0), (0, 3, 1), (2, 0, 1))
    return BinaryMRF(4, edges, unary, 0), PlanarEmbedding(rotations)


def test_step_factor_schedule_in_trace():
    # The perturbed K4 never certifies, so the lower bound stalls often
    # enough for the factor to reach its floor.
    model, emb = perturbed_k4(0)
    rows = optimize(model, emb, max_iters=100).trace.rows
    assert len(rows) == 100 and rows[-1].step_size == 0.0
    # Replay the schedule on the trace's own lower bounds: the factor starts
    # at 1.5 and halves, never below 0.05, exactly when 5 iterations in a
    # row have not raised the best lower bound.
    best, stalls, want = -np.inf, 0, 1.5
    factors = []
    for r in rows[:-1]:
        if r.lower_bound > best:
            best, stalls = r.lower_bound, 0
        else:
            stalls += 1
            if stalls == 5:
                want, stalls = max(want / 2, 0.05), 0
        factor = r.step_size * r.subgrad_norm2 / (r.best_upper - r.lower_bound)
        assert factor == pytest.approx(want, rel=1e-9), r.iteration
        factors.append(factor)
    assert factors[0] == pytest.approx(1.5, rel=1e-9)
    assert min(factors) >= 0.05 * (1 - 1e-9)
    # The run exercises every branch: halvings, and steps at the floor.
    assert sum(f == pytest.approx(0.05, rel=1e-9) for f in factors) > 3


def test_optimize_stops_on_the_proof_even_at_tol_zero():
    # Certified from iteration 26: a run that went on would solve the same
    # bound again at a step of 0 up to max_iters.
    model, emb = generate_grid_instance(InstanceSpec(10, 10, 0.2, 31, 500))
    res = optimize(model, emb, max_iters=100, tol=0.0)
    assert (res.iterations, res.certificate) == (26, "optimal")
    assert res.trace.rows[-1].step_size == 0.0
    assert all(r.step_size > 0 for r in res.trace.rows[:-1])
    short = optimize(model, emb, max_iters=25, tol=0.0)
    assert (short.iterations, short.certificate) == (25, "gap")


def test_certify_iteration_budget_8x8():
    # The fixed factor 1/2 needed 597 iterations on these seeds, the slowest
    # seed 112; the adaptive schedule aimed at the ICM-polished upper bound
    # needs 150.
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


def upper_of(model):
    """``model``'s ``_Upper``, from the reading ``optimize`` makes."""
    integer = model.is_integer
    return _Upper(model, integer, _exact_weights(model, integer), *_endpoints(model.edges))


def test_array_upper_bound_equals_energy_exactly():
    # Every integer model gets exact energies from the arrays: int64 ones
    # on "integer" and "tie", Python ints near the weight limit.
    rng = random.Random(97)
    for name, model in upper_bound_models(rng):
        if not model.is_integer:
            continue
        upper = upper_of(model)
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
    # Float models take their upper bounds from decode_upper, so they equal
    # energy() bit for bit, and the polish of an improving candidate
    # measures it with energy() too.  Integer models, near the weight limit
    # too, take exact energies from the arrays and make no decode_upper call.
    import planarcc.pcc as pcc_module

    calls, polished = [], []
    polish = pcc_module._Upper.polish

    def record(model, config):
        calls.append(len(config))
        return decode_upper(model, config)

    def record_polish(self, cand, ub):
        got = polish(self, cand, ub)
        polished.append((ub, got[1]))
        return got

    monkeypatch.setattr(pcc_module, "decode_upper", record)
    monkeypatch.setattr(pcc_module._Upper, "polish", record_polish)
    rng = random.Random(101)
    models = dict(upper_bound_models(rng))
    # An integer model on the int64 path whose last polish lowers the best
    # upper bound; on "integer" the last decoded candidate is the optimum.
    models["grid"] = generate_grid_instance(InstanceSpec(8, 8, 0.8, 0, 500))[0]
    exact_path = ("integer", "limit", "grid")
    runs = itertools.product(
        available_engines(),
        (("float", 10**6), ("limit", 1), ("integer", 10**6), ("grid", 10**6)),
    )
    for engine, (name, scale) in runs:
        # The seam of the ``engine`` fixture: every solve goes through this kernel.
        monkeypatch.setattr(planarcc.matching, "DEFAULT_ENGINE", engine)
        model = models[name]
        side = {"limit": 24, "grid": 8}.get(name, 5)
        _, emb = grid(side, model.num_nodes // side)
        calls.clear()
        polished.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = optimize(model, emb, max_iters=3, matching_scale=scale)
        assert calls == ([] if name in exact_path else [model.num_nodes] * res.iterations), name
        for row in res.trace.rows:
            assert row.upper_bound >= res.best_upper
        assert energy(model, res.best_assignment) == res.best_upper, name
        # The best upper bound is the last polish's, and on "limit" and
        # "grid" the polish lowered it.
        assert polished and polished[-1][1] == res.best_upper, name
        if name in ("limit", "grid"):
            assert polished[-1][1] < polished[-1][0], name


def test_exact_weights_reproduce_every_weight_and_feed_the_first_bound():
    # One reading per run: every weight is its numerator over den, and the
    # numerators are int64 exactly where no partial sum of an integer
    # model's energies can reach 2**63.
    models = dict(upper_bound_models(random.Random(107)))
    for name, model in models.items():
        den, edge_w, unary = _exact_weights(model, model.is_integer)
        weights = [*(w for (_, _, w) in model.edges), *model.unary]
        nums = edge_w.tolist() + unary.tolist()
        assert [Fraction(num, den) for num in nums] == [Fraction(w) for w in weights], name
        largest = max(abs(w) for w in (*weights, model.constant))
        fits = model.is_integer and largest * (len(weights) + 1) < 2**62
        assert edge_w.dtype == unary.dtype == (np.int64 if fits else object), name
        assert fits == (name in ("integer", "tie")), name
    # lower_bound reads the model as optimize does: at the initial splits
    # both give the same bound.
    for name, scale in (("float", 10**6), ("integer", 10**6), ("limit", 1)):
        model = models[name]
        side = 24 if name == "limit" else 5
        _, emb = grid(side, model.num_nodes // side)
        pcc = build_pcc(model, emb)
        lb, _ = lower_bound(model, pcc, init_params(model, pcc), scale)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = optimize(model, emb, max_iters=1, matching_scale=scale)
        assert lb == res.trace.rows[0].lower_bound, name


@pytest.mark.parametrize(
    "reading, kind, constant", [("int64", int, 0), ("big-integer", int, 2**62), ("float", float, 0)]
)
def test_scale_base_range_checks_on_each_reading(reading, kind, constant):
    big = MAX_ABS_WEIGHT

    def scale_base(edge_w, unary, scale=1):
        model = BinaryMRF(2, ((0, 1, kind(edge_w)),), tuple(map(kind, unary)), constant)
        exact = _exact_weights(model, model.is_integer)
        assert exact[1].dtype == exact[2].dtype == (np.int64 if reading == "int64" else object)
        base, target = _scale_base(exact, scale)
        return base.tolist(), target.tolist()

    # A scaled floor of exactly +-MAX_ABS_WEIGHT fits; one unit beyond
    # raises, and edge weights are checked before unaries.
    assert scale_base(big, (-big, big)) == ([big], [-big, big])
    assert scale_base(-big, (big, 0)) == ([-big], [big, 0])
    assert scale_base(2**26, (-(2**26), 0), 2**26) == ([big], [-big, 0])
    assert scale_base(0, (0, 0), 2**60) == ([0], [0, 0])
    with pytest.raises(WeightRangeError, match="scaled edge weight"):
        scale_base(big + 1, (0, 0))
    with pytest.raises(WeightRangeError, match="scaled edge weight"):
        scale_base(-big - 1, (big + 1, 0))
    with pytest.raises(WeightRangeError, match="scaled edge weight"):
        scale_base(2**26, (0, 0), 2**26 + 1)
    with pytest.raises(WeightRangeError, match="sum of scaled split weights"):
        scale_base(big, (0, -big - 1))
    with pytest.raises(WeightRangeError, match="sum of scaled split weights"):
        scale_base(2**26, (0, -(2**26) - 1), 2**26)
    if reading == "float":
        # A negative weight floors away from zero: -(2**52 - 0.5) to
        # exactly -MAX_ABS_WEIGHT, and -(2**52 + 1) is one unit beyond.
        assert scale_base(-0.5, (-0.5, 0.5), 3) == ([-2], [-2, 1])
        assert scale_base(-(2**51 - 0.25), (2**51 - 0.25, 0), 2) == ([-big], [big - 1, 0])
        with pytest.raises(WeightRangeError, match="sum of scaled split weights"):
            scale_base(0, (-(2**51 + 0.5), 0), 2)


def test_steps_keep_every_split_within_range_near_the_limit(monkeypatch, engine):
    # Uncapped, Polyak's step carries a split of either model past
    # MAX_ABS_WEIGHT by iteration 2.  The step is capped so that every scaled
    # split the kernel sees stays within range.
    from planarcc.ising import ExpandedDual

    largest = []
    solve = ExpandedDual.solve

    def record(self, weights, session=None):
        largest.append(int(np.abs(weights[num_edges:]).max()))
        return solve(self, weights, session)

    monkeypatch.setattr(ExpandedDual, "solve", record)
    models = dict(upper_bound_models(random.Random(101)))
    _, emb = grid(24, 24)
    for name in ("limit", "limit-near"):
        model, num_edges = models[name], len(models[name].edges)
        largest.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = optimize(model, emb, max_iters=12, matching_scale=1)
        assert res.iterations == len(largest) == 12, name
        assert max(largest) <= MAX_ABS_WEIGHT, name
        assert max(largest) > MAX_ABS_WEIGHT // 2, name


def exact_flip_deltas(model, x):
    """The exact energy change of flipping each node of x alone."""
    delta = [-Fraction(w) if xi else Fraction(w) for xi, w in zip(x, model.unary)]
    for i, j, w in model.edges:
        term = Fraction(w) if x[i] == x[j] else -Fraction(w)
        delta[i] += term
        delta[j] += term
    return delta


def test_icm_polish_is_exact_never_worse_and_a_local_minimum():
    rng = random.Random(103)
    for name, model in upper_bound_models(rng):
        icm = upper_of(model)
        lowered = 0
        for _ in range(10):
            config = [rng.randint(0, 1) for _ in range(model.num_nodes)]
            cand, ub = decode_upper(model, config)
            labels, e = icm.polish(cand, ub)
            want = energy(model, labels)
            assert e == want and type(e) is type(want), name
            assert e <= ub, name
            lowered += e < ub
            # ICM ends at a single-flip local minimum, in exact arithmetic,
            # and an accepted polish is that minimum.
            x = icm.icm(np.array(cand, dtype=np.int8)) or list(cand)
            assert min(exact_flip_deltas(model, x)) >= 0, name
            assert e == ub or list(labels) == x, name
        assert lowered, name
    # A gain too small for the float energy to show: the candidate stays.
    model = BinaryMRF(1, (), (-1.0,), 2.0**60)
    icm = upper_of(model)
    assert icm.icm(np.zeros(1, dtype=np.int8)) == [1]
    assert energy(model, (1,)) == energy(model, (0,))
    assert icm.polish((0,), 2.0**60) == ((0,), 2.0**60)


def test_optimize_best_upper_at_least_the_optimum_on_3x3_grids(engine):
    rng = random.Random(139)
    certified = 0
    for a_scaled in (100, 400, 1600) * 6:
        model, emb = random_grid_model(rng, 3, 3, a_scaled=a_scaled)
        want = brute_force_map(model).energy
        res = optimize(model, emb, max_iters=200)
        assert res.best_upper >= want
        assert energy(model, res.best_assignment) == res.best_upper
        if res.certificate == "optimal":
            assert res.best_upper == want
            certified += 1
    assert certified


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


def test_optimize_non_integer_model_warns_and_withholds_certificate():
    emb = PlanarEmbedding(((1,), (0,)))
    model = BinaryMRF(2, ((0, 1, -2.5),), (0.5, 0.0), 0)
    with pytest.warns(UserWarning):
        res = optimize(model, emb, max_iters=10)
    assert res.certificate == "gap"


def test_numpy_float_weights_run_as_the_python_floats_they_equal():
    edges, emb = grid(2, 2)
    ew = (0.7, -1.3, 2.1, -0.4)
    uw = (0.3, -0.9, 1.5, -2.2)
    runs = []
    for cast in (np.float32, lambda w: float(np.float32(w))):
        model = BinaryMRF(
            4,
            tuple((i, j, cast(w)) for (i, j), w in zip(sorted(edges), ew)),
            tuple(map(cast, uw)),
            cast(0.5),
        )
        pcc = build_pcc(model, emb)
        with pytest.warns(UserWarning):
            res = optimize(model, emb, max_iters=50)
        runs.append((
            lower_bound(model, pcc, init_params(model, pcc)),
            res.best_upper,
            res.best_lower,
            res.best_assignment,
            res.certificate,
            [(r.lower_bound, r.upper_bound, r.best_upper, r.step_size) for r in res.trace.rows],
        ))
    assert runs[0] == runs[1]
    assert all(type(x) is float for x in (runs[0][0][0], *runs[0][1:3]))


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
def test_trace_identical_across_engines(tmp_path, monkeypatch, spec, max_iters, tol):
    model, emb = generate_grid_instance(spec)
    traces = []
    for engine in ("python", "compiled"):
        # The seam of the ``engine`` fixture: every solve goes through this kernel.
        monkeypatch.setattr(planarcc.matching, "DEFAULT_ENGINE", engine)
        p = tmp_path / f"{engine}.csv"
        res = optimize(model, emb, max_iters=max_iters, tol=tol)
        res.trace.to_csv(p)
        traces.append(p.read_bytes())
    assert traces[0] == traces[1]
    assert len(traces[0].splitlines()) > 2


def test_every_solver_runs_on_the_selected_kernel(monkeypatch, engine):
    # With the other kernel's entries patched to raise, the solver layers
    # must still run, each on the kernel the fixture selected.
    other = {"python": _blossom_c, "compiled": _blossom_py}[engine]

    def refuse(*args, **kwargs):
        raise AssertionError(f"{other.__name__} called while {engine} is selected")

    monkeypatch.setattr(other, "solve_max_weight_matching", refuse)
    monkeypatch.setattr(other, "open_session", refuse)
    model, emb = random_grid_model(random.Random(41), 3, 3, a_scaled=400)
    want = brute_force_map(model).energy
    assert optimize(model, emb, max_iters=200).best_upper == want
    g = build_pcc(model, emb)
    assert lower_bound(model, g, init_params(model, g))[0] <= want
    ising = SymmetricIsing(model.num_nodes, model.edges)
    assert ground_state(ising, emb).energy == brute_force_map_ising(ising).energy


def test_trace_timed_mode(tmp_path):
    rng = random.Random(127)
    model, emb = random_grid_model(rng, 3, 3, a_scaled=200)
    res = optimize(model, emb, max_iters=30)
    p = tmp_path / "t.csv"
    res.trace.to_csv(p, timed=True)
    last = p.read_text().strip().splitlines()[-1]
    assert float(last.rsplit(",", 1)[1]) > 0.0
