"""Certify benchmark for planarcc: three workloads, end to end and per layer.

Run from the repository root (``run.py`` pins BLAS threads to 1, unsets
``PLANARCC_MATCHING`` and puts ``src/`` on the path)::

    python3 perfbench/run.py --workload certify-weak --seed 0 --seconds 20 --trace 0

The unit of work is one planar instance: ``optimize`` (certify it) or
``ground_state`` (solve it exactly).  Load is a closed loop from one process
and one thread: the next instance starts when the previous one returns.  A
run measures whole passes, each a fresh draw of instances made from
``--seed``, until at least ``--seconds`` have elapsed.  Every answer is
checked outside the timed region against ``reference.json`` (written by
``make_reference.py``) and, for 4x4 ground states, against brute force.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the first
pass untraced and then again traced (see ``tracing.py``), adds a cold-solve
table of the matching kernel, and prints the per-layer metrics.  The line
before the result holds the run record: machine, engine, failure counts,
and every metric with its unit and sample count, including per-layer ones
the result line leaves out because some workload never calls that layer.
``--tiny`` runs the same code on tiny grids checked by brute force, in
seconds.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import planarcc
from planarcc import (
    SymmetricIsing,
    brute_force_map,
    brute_force_map_ising,
    build_expanded_dual,
    build_pcc,
    energy,
    ground_state,
    init_params,
    ising_energy,
    min_weight_perfect_matching,
)
from planarcc.harness import InstanceSpec, generate_grid_instance
from planarcc.matching import DEFAULT_ENGINE, available_engines, has_compiled_kernel
from planarcc.pcc import DEFAULT_MATCHING_SCALE

from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"

SCALE = 500
MAX_ITERS = 1000
TOL = 1.0
BRUTE_FORCE_NODES = 16
SETUP_PROBES = 11
COLD_SIDES = {"python": (4, 8, 12, 16), "compiled": (4, 8, 12, 16, 24, 32)}
COLD_REPS = 3
COLD_A = 0.8
CANDIDATES = 10


@dataclass(frozen=True)
class Workload:
    """Square grids of the given sides with unary magnitude ``a``.

    Instance seeds come from 0..pool-1 per side, and ``per_pass[i]``
    instances of ``sides[i]`` make one pass.  A certify pass holds one
    instance near each of that many quantiles of the reference iteration
    counts; a ground pass draws its instances at random.
    """

    name: str
    kind: str  # "certify": optimize(); "ground": ground_state()
    sides: tuple[int, ...]
    a: float
    pool: int
    per_pass: tuple[int, ...]

    def spec(self, side: int, seed: int) -> InstanceSpec:
        return InstanceSpec(side, side, self.a, seed, SCALE)


# Why each workload (see BENCHMARK.json): certify-weak is kernel-bound with
# small Polyak steps; certify-strong has few large steps, so setup and
# port-graph size weigh more; ground-state is one cold solve per port-graph
# build with no PCC loop.  Certify instance cost varies several-fold with
# the iteration count, and a pass holds only eight instances, so passes are
# balanced on it.
# The ground-state mix puts its median call in the middle of the 12x12 class
# and its p90 inside the 16x16 class, not on a boundary between two sizes.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("certify-weak", "certify", (8,), 0.2, 500, (8,)),
        Workload("certify-strong", "certify", (12,), 3.2, 500, (8,)),
        Workload("ground-state", "ground", (4, 8, 12, 16), 0.0, 100, (15, 20, 30, 35)),
    )
}
TINY = {
    w.name: w
    for w in (
        Workload("certify-weak", "certify", (3,), 0.2, 12, (3,)),
        Workload("certify-strong", "certify", (4,), 3.2, 12, (3,)),
        Workload("ground-state", "ground", (3, 4), 0.0, 6, (3, 3)),
    )
}

# End-to-end metrics of the result line.  instance_s_p90 stays in the record
# only: a certify run has far fewer than the 100 instances a p90 needs, and
# on ground-state, where each call is one iteration, it equals iter_ms_p90.
END_TO_END = {
    "setup_s": "s",
    "instances_per_s": "1/s",
    "instance_s_p50": "s",
    "iter_ms_p50": "ms",
    "iter_ms_p90": "ms",
    "peak_rss_mb": "MB",
}
# Per-layer metrics measured on every workload; these go in the result line.
# The run record also holds pcc.* and ising.decode_matching_ms, which some
# workload never calls (ground-state has no PCC loop; certify never decodes).
PER_LAYER = {
    "harness.generate_ms": "ms",
    "embedding.faces_ms": "ms",
    "embedding.faces_calls": "count",
    "ising.build_expanded_dual_ms": "ms",
    "ising.ports": "count",
    "ising.port_edges": "count",
    "matching.solve_ms_p50": "ms",
    "matching.solve_ms_p90": "ms",
    "matching.solves": "count",
    "matching.share": "frac",
    "trace.overhead_frac": "frac",
    **{f"matching.cold_ms.python.{s}x{s}": "ms" for s in COLD_SIDES["python"]},
}
KERNEL_METRICS = (
    "matching.solve_ms_p50", "matching.solve_ms_p90", "matching.solves", "matching.share",
)
# Spans that split one PCC iteration; the rest of it is pcc.solve_self_ms.
ITERATION_CHILDREN = frozenset(
    {"matching.solve", "pcc.decode_upper", "pcc.subgradient", "pcc.polyak_step", "pcc.apply_step"}
)

# (side, seed) -> (solves, optimum)
Reference = dict[tuple[int, int], tuple[int, int]]


@dataclass
class Outcome:
    """One attempted instance: timing, gate status and (traced) spans."""

    side: int
    seed: int
    status: str = "ok"  # ok | exception | not_certified | wrong
    detail: str = ""
    start: float = 0.0
    wall_s: float = 0.0
    stamps: list[float] = field(default_factory=list)
    iterations: int = 0
    spans: list[tuple[str, float, float]] = field(default_factory=list)
    ports: list[tuple[int, int]] = field(default_factory=list)

    def iter_s(self) -> list[float]:
        """Gaps between successive iterations; iteration 1 carries setup and
        is left out.  A ground_state call counts as one iteration."""
        if not self.stamps:
            return [self.wall_s] if self.status != "exception" else []
        return [b - a for a, b in zip(self.stamps, self.stamps[1:])]


# ---------------------------------------------------------------------------
# Reference answers and instance selection
# ---------------------------------------------------------------------------


def solve_reference(workload: Workload, side: int, seed: int, oracle: bool) -> tuple[int, int]:
    """(solves, optimum) of one instance, from the solver or, with
    ``oracle``, with the optimum from brute force."""
    model, emb = generate_grid_instance(workload.spec(side, seed))
    if workload.kind == "certify":
        res = planarcc.optimize(model, emb, max_iters=MAX_ITERS, tol=TOL)
        if res.certificate != "optimal":
            raise RuntimeError(f"{workload.name} {side}x{side} seed {seed} not certified")
        solves, optimum = res.iterations, res.best_upper
    else:
        ising = SymmetricIsing(model.num_nodes, model.edges)
        solves, optimum = 1, ground_state(ising, emb).energy
    if oracle:
        optimum = (brute_force_map(model) if workload.kind == "certify" else brute_force_map_ising(ising)).energy
    return solves, int(optimum)


def load_reference(workload: Workload) -> Reference:
    table = json.loads(REFERENCE.read_text())[workload.name]
    out = {}
    for key, entry in table.items():
        side, seed = key.split(":")
        out[(int(side), int(seed))] = tuple(entry)
    return out


def oracle_reference(workload: Workload) -> Reference:
    return {
        (side, seed): solve_reference(workload, side, seed, oracle=True)
        for side in workload.sides
        for seed in range(workload.pool)
    }


def certify_groups(workload: Workload, reference: Reference) -> list[list[int]]:
    """Candidate seeds for each slot of a certify pass: the CANDIDATES pool
    instances whose reference iteration counts are nearest to one quantile."""
    (side,), (k,) = workload.sides, workload.per_pass
    runs = sorted((n, s) for (sd, s), (n, _) in reference.items() if sd == side)
    targets = [runs[int((i + 0.5) * len(runs) / k)][0] for i in range(k)]
    return [[s for (_, s) in sorted((abs(n - t), s) for (n, s) in runs)[:CANDIDATES]] for t in targets]


def plan_passes(workload: Workload, reference: Reference, seed: int):
    """Endless passes of (side, instance seed), all drawn from ``seed``.

    A certify pass takes, for each of ``per_pass`` quantiles of the
    reference iteration counts, one instance near it, so the seed changes
    the instances but hardly how many iterations a pass holds.
    """
    rng = np.random.default_rng(seed)
    if workload.kind == "certify":
        groups = certify_groups(workload, reference)
        (side,) = workload.sides
    while True:
        if workload.kind == "certify":
            picks = [(side, int(rng.choice(g))) for g in groups]
        else:
            picks = [
                (side, int(s))
                for side, count in zip(workload.sides, workload.per_pass)
                for s in rng.choice(workload.pool, count, replace=False)
            ]
        rng.shuffle(picks)
        yield picks


# ---------------------------------------------------------------------------
# Timed loop and correctness gate
# ---------------------------------------------------------------------------


def run_one(workload, side, seed, model, emb, optimum, tracer) -> Outcome:
    out = Outcome(side, seed)
    clock = time.perf_counter
    if workload.kind == "ground":
        ising = SymmetricIsing(model.num_nodes, model.edges)
    res = None
    out.start = clock()
    try:
        if workload.kind == "certify":
            res = planarcc.optimize(
                model, emb, max_iters=MAX_ITERS, tol=TOL,
                on_iteration=lambda *_: out.stamps.append(clock()),
            )
        else:
            res = ground_state(ising, emb)
    except Exception as exc:  # the run goes on; the failure is counted
        out.status, out.detail = "exception", f"{type(exc).__name__}: {exc}"
    out.wall_s = clock() - out.start
    if tracer is not None:
        out.spans, out.ports = tracer.take()
    if res is None:
        return out
    if workload.kind == "certify":
        out.iterations = res.iterations
        if res.certificate != "optimal":
            out.status = "not_certified"
        elif not (
            energy(model, res.best_assignment) == res.best_upper
            and res.best_lower <= res.best_upper
            and res.best_upper == optimum
        ):
            out.status = "wrong"
            out.detail = f"upper {res.best_upper} lower {res.best_lower} reference {optimum}"
    elif not (
        ising_energy(ising, res.labels) == res.energy == optimum
        and (
            ising.num_nodes > BRUTE_FORCE_NODES
            or brute_force_map_ising(ising).energy == res.energy
        )
    ):
        out.status = "wrong"
        out.detail = f"energy {res.energy} reference {optimum}"
    if out.status != "ok" and not out.detail:
        out.detail = f"gap {res.gap} after {res.iterations} iterations"
    return out


def measure(workload, passes, seconds, reference, tracer=None):
    """Run whole passes until ``seconds`` have elapsed.

    Returns the passes run, one Outcome per instance, and the ms spent
    generating each pass's instances.
    """
    ran, outcomes, generate_ms = [], [], []
    start = time.perf_counter()
    for picks in passes:
        if ran and time.perf_counter() - start >= seconds:
            break
        ran.append(picks)
        t0 = time.perf_counter()
        instances = [generate_grid_instance(workload.spec(side, seed)) for side, seed in picks]
        generate_ms.append((time.perf_counter() - t0) * 1000)
        for (side, seed), (model, emb) in zip(picks, instances):
            optimum = reference[(side, seed)][1]
            outcomes.append(run_one(workload, side, seed, model, emb, optimum, tracer))
    return ran, outcomes, generate_ms


def setup_times(workload: Workload, picks, probes: int) -> list[float]:
    """Fresh-interpreter set-up: the time ``probe.py`` takes to import
    planarcc and generate one pass of instances."""
    specs = json.dumps([[side, side, workload.a, seed, SCALE] for side, seed in picks])
    times = []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), specs],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return times


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _p(values, q) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def throughput(outcomes) -> float:
    wall = sum(o.wall_s for o in outcomes)
    return sum(o.status == "ok" for o in outcomes) / wall if wall > 0 else 0.0


def end_to_end(outcomes, setup) -> dict:
    walls = [o.wall_s for o in outcomes]
    iters = [g for o in outcomes for g in o.iter_s()]
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "setup_s": (statistics.median(setup) if setup else 0.0, len(setup)),
        "instances_per_s": (throughput(outcomes), len(outcomes)),
        "instance_s_p50": (_p(walls, 50), len(walls)),
        "instance_s_p90": (_p(walls, 90), len(walls)),
        "iter_ms_p50": (_p(iters, 50) * 1000, len(iters)),
        "iter_ms_p90": (_p(iters, 90) * 1000, len(iters)),
        "peak_rss_mb": (rss, 1),
    }


def _solve_self(o: Outcome) -> list[float]:
    """Per-iteration time (iterations 2..n) not covered by a child span."""
    kids = sorted((t0, t1) for (name, t0, t1) in o.spans if name in ITERATION_CHILDREN)
    out, k = [], 0
    for a, b in zip(o.stamps, o.stamps[1:]):
        covered = 0.0
        while k < len(kids) and kids[k][0] < b:
            if kids[k][0] >= a:
                covered += kids[k][1] - kids[k][0]
            k += 1
        out.append(b - a - covered)
    return out


def per_layer(outcomes, generate_ms, overhead, kernel_traced) -> dict:
    n = max(len(outcomes), 1)
    iterations = sum(o.iterations for o in outcomes)
    durations: dict[str, list[float]] = {}
    for o in outcomes:
        for (name, t0, t1) in o.spans:
            durations.setdefault(name, []).append(t1 - t0)

    def total_ms(*names):
        return sum(sum(durations.get(x, ())) for x in names) * 1000

    def count(name):
        return len(durations.get(name, ()))

    setups = []
    for o in outcomes:
        first = min((t0 for (name, t0, _) in o.spans if name == "matching.solve"), default=None)
        if o.stamps and first is not None:
            setups.append((first - o.start) * 1000)
    ports = [p for o in outcomes for p in o.ports]
    kernel = [d * 1000 for d in durations.get("matching.solve", ())]
    selfs = [s * 1000 for o in outcomes for s in _solve_self(o)]
    per_iter = max(iterations, 1)
    wall_ms = sum(o.wall_s for o in outcomes) * 1000
    metrics = {
        "harness.generate_ms": (statistics.median(generate_ms), len(generate_ms)),
        "embedding.faces_ms": (total_ms("embedding.faces") / n, count("embedding.faces")),
        "embedding.faces_calls": (count("embedding.faces") / n, n),
        "ising.build_expanded_dual_ms": (
            total_ms("ising.build_expanded_dual") / n, count("ising.build_expanded_dual")
        ),
        "ising.ports": (statistics.fmean(p for p, _ in ports) if ports else 0.0, len(ports)),
        "ising.port_edges": (statistics.fmean(e for _, e in ports) if ports else 0.0, len(ports)),
        "ising.decode_matching_ms": (
            total_ms("ising.decode_matching") / n, count("ising.decode_matching")
        ),
        "matching.solve_ms_p50": (_p(kernel, 50), len(kernel)),
        "matching.solve_ms_p90": (_p(kernel, 90), len(kernel)),
        "matching.solves": (len(kernel) / n, n),
        "matching.share": (sum(kernel) / wall_ms if wall_ms else 0.0, len(kernel)),
        "pcc.iterations": (iterations / n, n),
        "pcc.build_pcc_ms": (total_ms("pcc.build_pcc") / n, count("pcc.build_pcc")),
        "pcc.init_params_ms": (total_ms("pcc.init_params") / n, count("pcc.init_params")),
        "pcc.setup_ms": (statistics.fmean(setups) if setups else 0.0, len(setups)),
        "pcc.decode_upper_ms": (total_ms("pcc.decode_upper") / per_iter, iterations),
        "pcc.subgradient_ms": (total_ms("pcc.subgradient") / per_iter, iterations),
        "pcc.step_ms": (total_ms("pcc.polyak_step", "pcc.apply_step") / per_iter, iterations),
        "pcc.solve_self_ms": (statistics.fmean(selfs) if selfs else 0.0, len(selfs)),
        "trace.overhead_frac": overhead,
    }
    if not kernel_traced:
        for name in KERNEL_METRICS:
            del metrics[name]
    return metrics


def cold_table(seed: int, reps: int) -> tuple[dict, dict]:
    """Median ms of one cold minimum-weight perfect matching on the port
    graph of a face-augmented grid at its first PCC iterate, built only
    through public functions; and each graph's (ports, port edges)."""
    out, sizes = {}, {}
    for engine in available_engines():
        for side in COLD_SIDES.get(engine, COLD_SIDES["python"]):
            model, emb = generate_grid_instance(InstanceSpec(side, side, COLD_A, seed, SCALE))
            pcc = build_pcc(model, emb)
            params = init_params(model, pcc)
            weights = [w * DEFAULT_MATCHING_SCALE for (_, _, w) in model.edges]
            weights += [int(v) for v in np.rint(params.values * DEFAULT_MATCHING_SCALE)]
            ising = SymmetricIsing(
                pcc.num_vertices,
                tuple((i, j, w) for (i, j), w in zip(pcc.augmented_edges(), weights)),
            )
            graph = build_expanded_dual(ising, pcc.embedding).match_graph
            times = []
            for _ in range(reps):
                t0 = time.perf_counter()
                min_weight_perfect_matching(graph, engine)
                times.append((time.perf_counter() - t0) * 1000)
            out[f"matching.cold_ms.{engine}.{side}x{side}"] = (statistics.median(times), reps)
            sizes[f"{side}x{side}"] = (graph.num_vertices, len(graph.edges))
    return out, sizes


# ---------------------------------------------------------------------------
# Run record
# ---------------------------------------------------------------------------


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine() -> dict:
    return {
        "commit": commit(),
        "engine": DEFAULT_ENGINE,
        "available_engines": available_engines(),
        "has_compiled_kernel": has_compiled_kernel(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny grids, checked by brute force")
    args = parser.parse_args(argv)

    workload = (TINY if args.tiny else WORKLOADS)[args.workload]
    reference = oracle_reference(workload) if args.tiny else load_reference(workload)
    passes = plan_passes(workload, reference, args.seed)
    first = next(passes)
    passes = itertools.chain([first], passes)

    setup = [] if args.trace else setup_times(workload, first, 2 if args.tiny else SETUP_PROBES)
    # A traced run times one pass untraced, then the same pass traced.
    ran, outcomes, generate_ms = measure(
        workload, passes, 0 if args.trace else args.seconds, reference
    )
    metrics = end_to_end(outcomes, setup)
    attempted = list(outcomes)
    unmeasured, cold_sizes = [], {}
    if args.trace:
        with Tracer() as tracer:
            _, traced, generate_ms = measure(workload, iter(ran), math.inf, reference, tracer)
        attempted += traced
        untraced_ips = throughput(outcomes)
        overhead = (1 - throughput(traced) / untraced_ips if untraced_ips else 0.0, len(traced))
        metrics.update(per_layer(traced, generate_ms, overhead, tracer.kernel_traced))
        if not tracer.kernel_traced:
            unmeasured = list(KERNEL_METRICS)
        cold, cold_sizes = cold_table(args.seed, 1 if args.tiny else COLD_REPS)
        metrics.update(cold)
    shown = PER_LAYER if args.trace else END_TO_END

    counts = {s: sum(o.status == s for o in attempted) for s in ("exception", "not_certified", "wrong")}
    failed = sum(counts.values())
    # Record-only metrics not named here are in ms.
    units = {**END_TO_END, **PER_LAYER, "instance_s_p90": "s", "pcc.iterations": "count"}
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        **machine(),
        "passes": len(ran),
        "attempted": len(attempted),
        **counts,
        "failed_frac": failed / len(attempted),
        "failures": [
            f"{o.side}x{o.side} seed {o.seed}: {o.status}: {o.detail}"
            for o in attempted if o.status != "ok"
        ][:20],
        "cold_graph_sizes": cold_sizes,
        "unmeasured": unmeasured,
        "metrics": {
            name: {"value": value, "unit": units.get(name, "ms"), "samples": samples}
            for name, (value, samples) in metrics.items()
        },
    }
    print(json.dumps({"record": record}))
    result = {
        "correct": failed == 0,
        "attempted": len(attempted),
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name][0], "unit": unit}
            for name, unit in shown.items()
            if name in metrics
        },
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1
