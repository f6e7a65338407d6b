import csv
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import planarcc
from planarcc import BinaryMRF, PlanarEmbedding, brute_force_map
from planarcc.harness import (
    InstanceSpec,
    SolverOptions,
    aggregate,
    batch,
    generate_grid_instance,
    run,
    solve_model,
)

GOLDEN_2X2_SEED42 = {
    "edges": ((0, 1, 274), (2, 3, -61), (0, 2, 359), (1, 3, 197)),
    "unary": (-325, 380, 209, 229),
}


def test_generation_bitexact_golden():
    model, emb = generate_grid_instance(InstanceSpec(2, 2, 0.8, 42, 500))
    assert model.edges == GOLDEN_2X2_SEED42["edges"]
    assert model.unary == GOLDEN_2X2_SEED42["unary"]
    assert emb.num_vertices == 4


def test_generation_deterministic():
    a = generate_grid_instance(InstanceSpec(4, 5, 1.3, 99, 500))[0]
    b = generate_grid_instance(InstanceSpec(4, 5, 1.3, 99, 500))[0]
    assert a == b
    c = generate_grid_instance(InstanceSpec(4, 5, 1.3, 100, 500))[0]
    assert a != c


def test_generation_zero_a_gives_zero_unary():
    model, _ = generate_grid_instance(InstanceSpec(3, 3, 0.0, 1, 500))
    assert all(w == 0 for w in model.unary)


def test_generation_ranges():
    for seed in range(5):
        model, _ = generate_grid_instance(InstanceSpec(4, 4, 2.5, seed, 500))
        assert all(abs(w) <= 500 for (_, _, w) in model.edges)
        assert all(abs(w) <= 2.5 * 500 for w in model.unary)
        assert model.is_integer


def test_generation_draw_order():
    # horizontal edges come first in the edge list, then vertical, both
    # row-major; the unary vector is row-major by construction.
    model, _ = generate_grid_instance(InstanceSpec(2, 3, 0.5, 7, 500))
    endpoints = [(i, j) for (i, j, _) in model.edges]
    assert endpoints == [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)]


def test_run_writes_trace_and_summary(tmp_path):
    trace = tmp_path / "trace.csv"
    summary = tmp_path / "runs.csv"
    s = run(
        InstanceSpec(4, 4, 3.2, 0, 500),
        SolverOptions(max_iters=200),
        trace_path=trace,
        summary_path=summary,
    )
    assert s.converged
    rows = list(csv.DictReader(open(summary)))
    assert len(rows) == 1
    assert rows[0]["rows"] == "4" and rows[0]["converged"] == "true"
    assert int(rows[0]["iters"]) == s.iterations
    lines = trace.read_text().splitlines()
    assert lines[0].startswith("iter,lower_bound")
    assert len(lines) == s.iterations + 1


def test_run_identical_traces(tmp_path):
    p1, p2 = tmp_path / "1.csv", tmp_path / "2.csv"
    spec = InstanceSpec(4, 4, 0.8, 3, 500)
    run(spec, SolverOptions(max_iters=100), trace_path=p1)
    run(spec, SolverOptions(max_iters=100), trace_path=p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_run_easy_8x8_converges_in_default_budget():
    s = run(InstanceSpec(8, 8, 3.2, 0, 500), SolverOptions())
    assert s.converged
    assert s.gap < 1.0


def test_run_zero_budget(tmp_path):
    spec = InstanceSpec(4, 4, 0.2, 5, 500)
    s = run(spec, SolverOptions(max_iters=0))
    full = run(spec, SolverOptions(max_iters=400))
    assert not s.converged
    assert s.gap >= full.gap


def test_batch_and_aggregate(tmp_path):
    out = tmp_path / "results.csv"
    specs = [InstanceSpec(3, 3, 3.2, seed, 500) for seed in range(4)]
    summaries = batch(specs, SolverOptions(max_iters=300), jobs=2, out=out)
    assert len(summaries) == 4
    assert [s.spec.seed for s in summaries] == [0, 1, 2, 3]
    rows = list(csv.DictReader(open(out)))
    assert len(rows) == 4
    assert all(r["error"] == "" for r in rows)
    agg = aggregate(summaries)
    assert len(agg) == 1
    assert 0.0 <= agg[0]["converged_fraction"] <= 1.0
    assert agg[0]["n_runs"] == 4
    assert agg[0]["n_failed"] == 0


def test_batch_records_crashes_apart_from_nonconvergence(tmp_path):
    # A matching scale this large pushes every scaled edge weight past the
    # kernel's range, so each run raises WeightRangeError.
    out = tmp_path / "results.csv"
    specs = [InstanceSpec(3, 3, 3.2, seed, 500) for seed in range(2)]
    summaries = batch(specs, SolverOptions(matching_scale=2**60), out=out)
    rows = list(csv.DictReader(open(out)))
    assert [r["error"].split(":")[0] for r in rows] == ["WeightRangeError"] * 2
    assert all(s.error for s in summaries)
    agg = aggregate(summaries)[0]
    assert (agg["n_runs"], agg["n_failed"], agg["n_converged"]) == (2, 2, 0)
    assert math.isnan(agg["converged_fraction"])


def test_sequential_batch_walks_each_size_once(monkeypatch):
    # No other test holds a 2x9 grid, so the first run walks the base and
    # the augmented faces and the batch's hold lets the other runs reuse them.
    import planarcc.embedding
    import planarcc.pcc

    walks = []
    for module in (planarcc.embedding, planarcc.pcc):
        def counted(*args, walk=module._walk):
            walks.append(args)
            return walk(*args)

        monkeypatch.setattr(module, "_walk", counted)
    specs = [InstanceSpec(2, 9, 0.5, seed, 100) for seed in range(3)]
    summaries = batch(specs, SolverOptions(max_iters=50))
    assert not any(s.error for s in summaries)
    assert len(walks) == 2


def test_import_loads_no_process_pool():
    # batch imports its executor only when it runs jobs in parallel, so the
    # start-up of every other caller does not pay for multiprocessing.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(planarcc.__file__).resolve().parent.parent)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    code = (
        "import sys, planarcc, planarcc.harness; "
        "print([m for m in ('multiprocessing', 'concurrent.futures.process') "
        "if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert out.stdout.strip() == "[]"


def test_aggregate_excludes_nonconverged_from_geomean():
    base = InstanceSpec(2, 2, 0.1, 0, 500)
    from planarcc.harness import RunSummary

    summaries = [
        RunSummary(base, True, 5, 0.0, 100),
        RunSummary(base, False, 9, 50.0, 900000),
    ]
    agg = aggregate(summaries)[0]
    assert agg["n_converged"] == 1
    assert agg["converged_fraction"] == 0.5
    assert agg["geomean_wall_ms_converged"] == pytest.approx(100.0)


def test_solve_model_disconnected_components():
    # two separate edges plus one isolated node with negative unary
    model = BinaryMRF(
        5,
        ((0, 1, -7), (2, 3, 4)),
        (0, 0, 5, 0, -9),
        constant=2,
    )
    rotations = ((1,), (0,), (3,), (2,), ())
    res = solve_model(model, PlanarEmbedding(rotations), SolverOptions(max_iters=50))
    want = brute_force_map(model)
    assert res.certificate == "optimal"
    assert res.best_upper == want.energy
    assert res.best_assignment[4] == 1  # folded isolated node
    assert res.best_lower <= res.best_upper
    assert len(res.trace.rows) >= 1


def test_solve_model_certifies_when_every_component_is_certified():
    # A 4x4 and a 2x3 grid, then an isolated node: each grid certifies on its
    # own, but their float gaps add up to 1.125, so a gap-below-1 rule on the
    # summed bounds would report "gap" at an optimal best_upper.
    parts = [
        generate_grid_instance(InstanceSpec(r, c, 0.2, 41, 500)) for r, c in ((4, 4), (2, 3))
    ]
    edges, unary, rotations, offset = [], [], [], 0
    for model, emb in parts:
        edges += [(i + offset, j + offset, w) for (i, j, w) in model.edges]
        unary += model.unary
        rotations += [tuple(u + offset for u in rot) for rot in emb.rotations]
        offset += model.num_nodes
    model = BinaryMRF(offset + 1, tuple(edges), tuple(unary) + (-7,), 3)
    res = solve_model(model, PlanarEmbedding(tuple(rotations) + ((),)))
    assert res.certificate == "optimal"
    assert res.best_upper == brute_force_map(model).energy


def test_solve_model_single_component_passthrough():
    model, emb = generate_grid_instance(InstanceSpec(3, 3, 0.8, 11, 500))
    res = solve_model(model, emb, SolverOptions(max_iters=200))
    assert res.certificate == "optimal"
    assert res.best_upper == brute_force_map(model).energy


def test_spec_validation():
    with pytest.raises(ValueError):
        InstanceSpec(0, 3, 1.0, 1)
    with pytest.raises(ValueError):
        InstanceSpec(3, 3, -1.0, 1)
    with pytest.raises(ValueError):
        InstanceSpec(3, 3, 1.0, 1, scale=0)
