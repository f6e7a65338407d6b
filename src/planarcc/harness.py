"""Experiment pipeline: seeded grid instances, solve runs, and batch
aggregation.

Instance generation is bit-exact reproducible: draws come from numpy's
PCG64 generator (``numpy.random.Generator(numpy.random.PCG64(seed))``) in a
fixed order (all horizontal edges row-major, then all vertical edges
row-major, then all unary terms row-major), and weights are then scaled to
integers.  numpy guarantees the PCG64 bit stream across versions, so equal
specs yield identical models everywhere.
"""

from __future__ import annotations

import csv
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .embedding import PlanarEmbedding, grid
from .model import BinaryMRF, scale_to_integer
from .pcc import DEFAULT_MATCHING_SCALE, BoundTrace, SolveResult, TraceRow, optimize

RESULTS_HEADER = [
    "rows", "cols", "a", "seed", "converged", "iters", "gap", "wall_ms", "error",
]
AGGREGATE_HEADER = [
    "rows", "cols", "a", "scale", "n_runs", "n_failed", "n_converged",
    "converged_fraction", "geomean_wall_ms_converged",
]


@dataclass(frozen=True)
class InstanceSpec:
    """One random grid problem: size, unary magnitude, seed, integer scale."""

    rows: int
    cols: int
    a: float
    seed: int
    scale: int = 500

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("grid dimensions must be >= 1")
        if self.a < 0:
            raise ValueError("unary magnitude a must be >= 0")
        if self.scale < 1:
            raise ValueError("scale must be >= 1")


@dataclass(frozen=True)
class SolverOptions:
    max_iters: int = 1000
    tol: float = 1.0
    matching_scale: int = DEFAULT_MATCHING_SCALE

    def __post_init__(self):
        if self.matching_scale < 1:
            raise ValueError("matching_scale must be >= 1")


@dataclass(frozen=True)
class RunSummary:
    """One run's outcome; ``error`` names the exception of a run that
    crashed and is empty for one that finished."""

    spec: InstanceSpec
    converged: bool
    iterations: int
    gap: float
    wall_ms: int
    error: str = ""

    def row(self) -> list:
        return [
            self.spec.rows, self.spec.cols, self.spec.a, self.spec.seed,
            "true" if self.converged else "false",
            self.iterations, repr(float(self.gap)), self.wall_ms, self.error,
        ]


def generate_grid_instance(spec: InstanceSpec) -> tuple[BinaryMRF, PlanarEmbedding]:
    """Deterministic random grid model: theta_ij ~ U(-1,1), theta_i ~
    U(-a,a), then integer-scaled (round half away from zero)."""
    edges, embedding = grid(spec.rows, spec.cols)
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    pair = rng.uniform(-1.0, 1.0, size=len(edges))
    if spec.a > 0:
        una = rng.uniform(-spec.a, spec.a, size=spec.rows * spec.cols)
    else:
        una = np.zeros(spec.rows * spec.cols)
    raw = BinaryMRF(
        spec.rows * spec.cols,
        tuple((i, j, float(w)) for (i, j), w in zip(edges, pair)),
        tuple(float(w) for w in una),
        0,
    )
    return scale_to_integer(raw, spec.scale), embedding


def instance_meta(spec: InstanceSpec) -> dict:
    return {
        "rows": spec.rows, "cols": spec.cols, "a": spec.a,
        "seed": spec.seed, "scale": spec.scale,
    }


# ---------------------------------------------------------------------------
# Solving arbitrary models: component splitting
# ---------------------------------------------------------------------------


def _components(model: BinaryMRF) -> list[list[int]]:
    n = model.num_nodes
    adj: list[list[int]] = [[] for _ in range(n)]
    for (i, j, _) in model.edges:
        adj[i].append(j)
        adj[j].append(i)
    seen = [False] * n
    comps = []
    for s in range(n):
        if seen[s]:
            continue
        comp = [s]
        seen[s] = True
        stack = [s]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def _merge_traces(traces: list[BoundTrace], extra: float) -> BoundTrace:
    """Pointwise sum of per-component traces (shorter ones padded with
    their final row); ``extra`` is added to the bound columns."""
    length = max(len(t.rows) for t in traces)
    merged = BoundTrace()
    for i in range(length):
        lb = ub = bu = step = gn = ms = 0.0
        for t in traces:
            r = t.rows[min(i, len(t.rows) - 1)]
            lb += r.lower_bound
            ub += r.upper_bound
            bu += r.best_upper
            step += r.step_size
            gn += r.subgrad_norm2
            ms += r.elapsed_ms
        merged.rows.append(
            TraceRow(i + 1, lb + extra, ub + extra, bu + extra, step, gn, ms)
        )
    return merged


def solve_model(
    model: BinaryMRF,
    embedding: PlanarEmbedding | None,
    options: SolverOptions = SolverOptions(),
) -> SolveResult:
    """Solve a model that may be disconnected.

    Isolated nodes are folded analytically (label 1 exactly when the unary
    weight is negative); remaining connected components are solved
    independently and their bounds summed.  The model is certified optimal
    when it is integer and every component is.  A single-component model
    goes straight to the optimizer.
    """
    if embedding is None:
        raise ValueError("an embedding (rotation system) is required")

    def solve(m: BinaryMRF, emb: PlanarEmbedding) -> SolveResult:
        return optimize(
            m, emb,
            max_iters=options.max_iters, tol=options.tol,
            matching_scale=options.matching_scale,
        )

    comps = _components(model)
    if len(comps) == 1:
        return solve(model, embedding)

    labels: list[int] = [0] * model.num_nodes
    folded = 0
    results: list[SolveResult] = []
    for comp in comps:
        if len(comp) == 1:
            i = comp[0]
            w = model.unary[i]
            labels[i] = 1 if w < 0 else 0
            folded += min(0, w)
            continue
        index = {v: t for t, v in enumerate(comp)}
        sub_edges = tuple(
            (index[i], index[j], w) for (i, j, w) in model.edges if i in index
        )
        sub_unary = tuple(model.unary[v] for v in comp)
        sub_model = BinaryMRF(len(comp), sub_edges, sub_unary, 0)
        sub_rot = tuple(
            tuple(index[u] for u in embedding.rotations[v]) for v in comp
        )
        res = solve(sub_model, PlanarEmbedding(sub_rot))
        results.append(res)
        for v, lab in zip(comp, res.best_assignment):
            labels[v] = lab

    extra = model.constant + folded
    if results:
        best_upper = sum(r.best_upper for r in results) + extra
        best_lower = sum(r.best_lower for r in results) + extra
        iterations = max(r.iterations for r in results)
        trace = _merge_traces([r.trace for r in results], extra)
    else:
        best_upper = best_lower = extra
        iterations = 1
        trace = BoundTrace([TraceRow(1, extra, extra, extra, 0.0, 0.0, 0.0)])
    certified = model.is_integer and all(r.certificate == "optimal" for r in results)
    return SolveResult(
        best_assignment=tuple(labels),
        best_upper=best_upper,
        best_lower=best_lower,
        certificate="optimal" if certified else "gap",
        gap=float(best_upper - best_lower),
        iterations=iterations,
        trace=trace,
    )


# ---------------------------------------------------------------------------
# Runs and batches
# ---------------------------------------------------------------------------


def _write_summaries(path: str | Path, summaries: list[RunSummary], mode: str) -> None:
    """Write result rows to ``path`` opened with ``mode`` ("w" or "a"),
    after the header unless they are appended to an existing file."""
    path = Path(path)
    header = mode == "w" or not path.exists()
    with open(path, mode, newline="") as fh:
        writer = csv.writer(fh)
        if header:
            writer.writerow(RESULTS_HEADER)
        for s in summaries:
            writer.writerow(s.row())


def append_summary(path: str | Path, summaries: list[RunSummary]) -> None:
    _write_summaries(path, summaries, "a")


def run(
    spec: InstanceSpec,
    options: SolverOptions = SolverOptions(),
    trace_path: str | Path | None = None,
    summary_path: str | Path | None = None,
    timed_trace: bool = False,
) -> RunSummary:
    """Generate, solve, and record one instance."""
    model, embedding = generate_grid_instance(spec)
    t0 = time.perf_counter()
    result = solve_model(model, embedding, options)
    wall_ms = int(round((time.perf_counter() - t0) * 1000))
    converged = result.certificate == "optimal"
    if trace_path is not None:
        result.trace.to_csv(trace_path, timed=timed_trace)
    summary = RunSummary(spec, converged, result.iterations, result.gap, wall_ms)
    if summary_path is not None:
        append_summary(summary_path, [summary])
    return summary


def _run_one(args) -> RunSummary:
    spec, options = args
    try:
        return run(spec, options)
    except Exception as exc:  # individual failures recorded, batch continues
        print(f"run failed for {spec}: {exc}", file=sys.stderr)
        error = f"{type(exc).__name__}: {exc}"
        return RunSummary(spec, False, 0, float("nan"), 0, error)


def batch(
    specs: list[InstanceSpec],
    options: SolverOptions = SolverOptions(),
    jobs: int = 1,
    out: str | Path | None = None,
) -> list[RunSummary]:
    """Run many instances (in parallel when jobs > 1) and optionally write
    the per-run results CSV.  Result order follows the input order."""
    work = [(spec, options) for spec in specs]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            summaries = list(pool.map(_run_one, work))
    else:
        summaries = [_run_one(w) for w in work]
    if out is not None:
        _write_summaries(out, summaries, "w")
    return summaries


def aggregate(summaries: list[RunSummary]) -> list[dict]:
    """Group by (rows, cols, a, scale): the number of crashed runs, the
    convergence fraction over the runs that finished, and the
    geometric-mean wall time over converged runs; non-converged runs are
    counted separately, never averaged in."""
    groups: dict[tuple, list[RunSummary]] = {}
    for s in summaries:
        key = (s.spec.rows, s.spec.cols, s.spec.a, s.spec.scale)
        groups.setdefault(key, []).append(s)
    rows = []
    for key in sorted(groups):
        g = groups[key]
        failed = sum(1 for s in g if s.error)
        conv = [s for s in g if s.converged]
        if conv:
            logs = [math.log(max(s.wall_ms, 1)) for s in conv]
            geomean = math.exp(sum(logs) / len(logs))
        else:
            geomean = float("nan")
        rows.append({
            "rows": key[0], "cols": key[1], "a": key[2], "scale": key[3],
            "n_runs": len(g), "n_failed": failed, "n_converged": len(conv),
            "converged_fraction": (
                len(conv) / (len(g) - failed) if failed < len(g) else float("nan")
            ),
            "geomean_wall_ms_converged": geomean,
        })
    return rows


def write_aggregate(path: str | Path, rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=AGGREGATE_HEADER)
        writer.writeheader()
        for r in rows:
            writer.writerow(r)
