"""Cold solves, ground states, set-up steps and PCC certify runs of this
tree against another tree's, alternated call by call in one process.

    python3 benchmarks/kernel_pairs.py OTHER_TREE LABEL [GROUP ...]

GROUP is ``kernel``, ``ground``, ``setup`` or ``certify``; without one, all
four run.  OTHER_TREE is a directory holding a checkout, or a git revision
of this repository (``HEAD~1``, a sha, a branch), which the script extracts
with ``git archive`` into a temporary directory and removes afterwards.

Imports planarcc from the ``src/`` of the tree this script sits in, and
``OTHER_TREE/src/planarcc`` as a second package, ``planarcc_other`` (the
package's modules import each other relatively).  Both trees must load
their compiled kernel.  The record names this tree's commit (``git
describe``, ``-dirty`` when uncommitted changes exist) and the other's: a
revision's full sha, or ``git describe`` of a directory that is a git
checkout (null otherwise).

- Kernel: it records the port graphs that this tree's solver hands the
  kernel in the runs of ``SETS``:

  - ``optimize(max_iters=2000, tol=1.0)`` on 8x8 a=0.2 (seeds 0-5), 12x12
    a=3.2 (seeds 0-9) and 16x16 a=0.2 (seeds 0-2), every solve;
  - ``optimize(max_iters=3)`` on 24x24, 32x32, 48x48 and 64x64 a=0.2
    (seeds 0-9), the first 3 solves of each run, 30 a set;
  - late solves, which cost more than first ones because blossoms nest
    deeper: ``optimize(max_iters=2000, tol=1.0)`` on 24x24 a=0.2 (seeds
    0-9) and 32x32 a=0.2 (seeds 0-2), the last ``LATE_SOLVES`` solves of
    each run that makes at least ``LATE_MIN_SOLVES``.  A rule on the run's
    length, not fixed iterate numbers, keeps these sets late when the
    solver certifies sooner;
  - ``ground_state`` on unary-free 16x16 grids (seeds 0-9).

  It then makes ``REPS`` cold calls of each tree's compiled entry
  ``_blossom_c.solve_max_weight_matching`` on each graph, the two trees
  taking turns call by call and going first in turn, and keeps each tree's
  fastest.  Each set records its solve count and the seeds whose runs it
  holds.
- Ground: ``CALLS`` turns of each tree's ``ground_state`` (port graph, one
  cold matching and the decode) on the unary-free grids of seed 0.  Each
  set also records both trees' port graph sizes (ports and port edges).
- Setup: ``CALLS`` turns of each tree's ``faces``, ``build_expanded_dual``
  (of the unary-free model of the grid's pairwise weights) and
  ``build_pcc`` (of the model with a=0.2 unaries) on the 8x8 to 32x32
  grids of seed 0, one set per step and grid.
- Certify: ``CERTIFY_REPS`` turns of each tree's ``build_pcc`` and of its
  ``optimize`` (as the benchmark calls it: ``max_iters`` 1000, ``tol`` 1)
  per instance of the benchmark's certify workloads (12x12 a=3.2 and 8x8
  a=0.2): the first pass that ``perfbench/bench.py`` plans from each of
  ``BENCH_SEEDS``.

In the last three groups each tree builds its own instances, and each call
gets a fresh ``PlanarEmbedding``, built outside the timed region, so that
nothing one call computes can serve the next.  The grids' pairwise weights
are the benchmark's, scaled by 500; ``generate_grid_instance`` draws them
before the unaries, so a=0 and a=0.2 grids of one seed share them.

Turns in one process let drift in the machine's speed reach both trees
alike, which files written one after the other do not.  It writes per set
the median and p90 ms of each tree, the median ratio of this tree's time to
the other's over the set's calls and the share of calls this tree was
faster, to ``BENCH_<LABEL>.json`` at this tree's root.
"""

from __future__ import annotations

import importlib.util
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from collections import deque
from functools import partial
from pathlib import Path

from certify_iterations import ROOT, commit, cpu

REPS = 5
CALLS = 31
LATE_MIN_SOLVES = 60
LATE_SOLVES = 10
SETS = [
    {"rows": 8, "a": 0.2, "seeds": list(range(6)), "max_iters": 2000},
    {"rows": 12, "a": 3.2, "seeds": list(range(10)), "max_iters": 2000},
    {"rows": 16, "a": 0.2, "seeds": list(range(3)), "max_iters": 2000},
    {"rows": 24, "a": 0.2, "seeds": list(range(10)), "max_iters": 3},
    {"rows": 32, "a": 0.2, "seeds": list(range(10)), "max_iters": 3},
    {"rows": 48, "a": 0.2, "seeds": list(range(10)), "max_iters": 3},
    {"rows": 64, "a": 0.2, "seeds": list(range(10)), "max_iters": 3},
    {"rows": 24, "a": 0.2, "seeds": list(range(10)), "max_iters": 2000, "late": True},
    {"rows": 32, "a": 0.2, "seeds": list(range(3)), "max_iters": 2000, "late": True},
    {"rows": 16, "a": 0.0, "seeds": list(range(10)), "ground": True},
]
GROUND_SIDES = [4, 8, 12, 16, 24, 32, 48]
SETUP_SIDES = [8, 12, 16, 24, 32]
SETUP_STEPS = ["faces", "build_expanded_dual", "build_pcc"]
CERTIFY_WORKLOADS = ["certify-strong", "certify-weak"]
BENCH_SEEDS = [901, 902, 903, 904]
CERTIFY_REPS = 5
GROUPS = ["kernel", "ground", "setup", "certify"]


def load_other(tree: Path):
    """``tree``'s planarcc, imported as the package ``planarcc_other``."""
    init = tree / "src" / "planarcc" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        "planarcc_other", init, submodule_search_locations=[str(init.parent)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules["planarcc_other"] = package
    spec.loader.exec_module(package)
    return package


def extract(revision: str, into: Path) -> str | None:
    """Full sha of ``revision`` of this repository, whose tree is written
    into ``into``; None when ``revision`` names no commit."""
    sha = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify", "--quiet", f"{revision}^{{commit}}"],
        capture_output=True, text=True,
    ).stdout.strip()
    if not sha:
        return None
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", sha], capture_output=True, check=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return sha


def set_name(spec: dict) -> str:
    side = f"{spec['rows']}x{spec['rows']}"
    if spec.get("ground"):
        return f"{side} ground state"
    if spec.get("late"):
        return f"{side} a={spec['a']} last {LATE_SOLVES} solves"
    return f"{side} a={spec['a']}"


def record(spec: dict, kernel) -> dict[int, list[tuple]]:
    """Per seed of the set, the (n, eu, ev, ew) of every kernel call its run
    makes; for a late set only the last ``LATE_SOLVES``, and only for runs
    that make at least ``LATE_MIN_SOLVES``."""
    import numpy as np

    from planarcc import SymmetricIsing, ground_state, optimize
    from planarcc.harness import InstanceSpec, generate_grid_instance

    late = spec.get("late", False)
    calls = deque(maxlen=LATE_SOLVES if late else None)
    made = 0
    solve = kernel.solve_max_weight_matching

    def recording(n, eu, ev, ew, session=None):
        nonlocal made
        made += 1
        calls.append((n, *(np.array(a, dtype=np.int64) for a in (eu, ev, ew))))
        return solve(n, eu, ev, ew, session)

    runs = {}
    kernel.solve_max_weight_matching = recording
    try:
        for seed in spec["seeds"]:
            calls.clear()
            made = 0
            model, emb = generate_grid_instance(
                InstanceSpec(spec["rows"], spec["rows"], spec["a"], seed, 500)
            )
            if spec.get("ground"):
                ground_state(SymmetricIsing(model.num_nodes, model.edges), emb)
            else:
                optimize(model, emb, max_iters=spec["max_iters"], tol=1.0)
            if not late or made >= LATE_MIN_SOLVES:
                runs[seed] = list(calls)
    finally:
        kernel.solve_max_weight_matching = solve
    return runs


def p50_p90(ms: list[float]) -> tuple[float, float]:
    ms = sorted(ms)
    return round(statistics.median(ms), 4), round(ms[min(len(ms) - 1, int(0.9 * len(ms)))], 4)


def alternate(this, other, reps: int, turn: int = 0) -> tuple[float, float]:
    """Fastest ms of ``reps`` calls of each, in turns, the two going first
    in turn from ``this`` (other first when ``turn`` is odd)."""
    best = {this: float("inf"), other: float("inf")}
    for rep in range(turn, turn + reps):
        for fn in (this, other) if rep % 2 == 0 else (other, this):
            t0 = time.perf_counter()
            fn()
            best[fn] = min(best[fn], time.perf_counter() - t0)
    return 1e3 * best[this], 1e3 * best[other]


def fresh_pairs(jobs: list, calls: int) -> list[tuple[float, float]]:
    """(this tree's ms, the other's) of ``calls`` turns per job.  A job
    holds one (step, package, embedding) per tree, this tree's first; each
    call is ``step(fresh)`` with a fresh ``package.PlanarEmbedding`` of the
    embedding's rotations, built outside the timed region."""
    pairs = []
    for k, job in enumerate(jobs):
        for call in range(calls):
            (f0, e0), (f1, e1) = [
                (step, pkg.PlanarEmbedding(emb.rotations)) for step, pkg, emb in job
            ]
            pairs.append(alternate(lambda: f0(e0), lambda: f1(e1), 1, k + call))
    return pairs


def summary(name: str, group: str, pairs: list[tuple[float, float]], **extra) -> dict:
    this, other = [p[0] for p in pairs], [p[1] for p in pairs]
    out = {"set": name, "group": group, **extra}
    out["ms_p50"], out["ms_p90"] = p50_p90(this)
    out["other_ms_p50"], out["other_ms_p90"] = p50_p90(other)
    out["ratio_p50"] = round(statistics.median(a / b for a, b in pairs), 4)
    out["faster_share"] = round(sum(a < b for a, b in pairs) / len(pairs), 4)
    print(f"{name}: {len(pairs)} pairs, p50 {out['ms_p50']:.3f} against "
          f"{out['other_ms_p50']:.3f} ms, ratio p50 {out['ratio_p50']}, "
          f"faster in {out['faster_share']:.0%}", file=sys.stderr)
    return out


def instances(side: int, a: float, packages, seed: int = 0) -> list[tuple]:
    """(package, model, embedding) of each tree's grid instance."""
    return [
        (pkg, *pkg.harness.generate_grid_instance(
            pkg.harness.InstanceSpec(side, side, a, seed, 500)
        ))
        for pkg in packages
    ]


def kernel_set(spec: dict, kernel, this_entry, other_entry) -> dict:
    runs = record(spec, kernel)
    calls = [call for run in runs.values() for call in run]
    pairs = [
        alternate(lambda: this_entry(*call), lambda: other_entry(*call), REPS)
        for call in calls
    ]
    return summary(set_name(spec), "kernel", pairs, seeds=list(runs), solves=len(calls),
                   ports=int(statistics.median(c[0] for c in calls)))


def ground_set(side: int, packages) -> dict:
    job, sizes = [], []
    for pkg, model, emb in instances(side, 0.0, packages):
        ising = pkg.SymmetricIsing(model.num_nodes, model.edges)
        job.append((partial(pkg.ground_state, ising), pkg, emb))
        dual = pkg.build_expanded_dual(ising, emb)
        sizes.append((dual.num_ports, len(dual.port_u)))
    (ports, edges), (other_ports, other_edges) = sizes
    return summary(
        f"{side}x{side} ground_state", "ground", fresh_pairs([job], CALLS), calls=CALLS,
        ports=ports, port_edges=edges, other_ports=other_ports, other_port_edges=other_edges,
    )


def setup_sets(side: int, packages) -> list[dict]:
    steps = {name: [] for name in SETUP_STEPS}
    for pkg, model, emb in instances(side, 0.2, packages):
        ising = pkg.SymmetricIsing(model.num_nodes, model.edges)
        steps["faces"].append((pkg.faces, pkg, emb))
        steps["build_expanded_dual"].append((partial(pkg.build_expanded_dual, ising), pkg, emb))
        steps["build_pcc"].append((partial(pkg.build_pcc, model), pkg, emb))
    return [
        summary(f"{side}x{side} {name}", "setup", fresh_pairs([job], CALLS), calls=CALLS)
        for name, job in steps.items()
    ]


def certify_sets(name: str, packages) -> list[dict]:
    """A ``build_pcc`` set and an ``optimize`` set on the instances of the
    benchmark workload ``name`` (see the module doc)."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import bench

    workload = bench.WORKLOADS[name]
    reference = bench.load_reference(workload)
    picks = [
        pick for seed in BENCH_SEEDS for pick in next(bench.plan_passes(workload, reference, seed))
    ]
    per_pick = [instances(side, workload.a, packages, seed) for side, seed in picks]
    steps = {
        "build_pcc": lambda pkg: pkg.build_pcc,
        "optimize": lambda pkg: partial(pkg.optimize, max_iters=bench.MAX_ITERS, tol=bench.TOL),
    }
    side = picks[0][0]
    sets = []
    for step, entry in steps.items():
        jobs = [
            [(partial(entry(pkg), model), pkg, emb) for pkg, model, emb in per] for per in per_pick
        ]
        pairs = fresh_pairs(jobs, CERTIFY_REPS)
        sets.append(summary(
            f"{side}x{side} a={workload.a} {step}", "certify", pairs, workload=name,
            instances=len(picks), calls=len(pairs),
        ))
    return sets


def main(argv: list[str]) -> int:
    groups = argv[2:] or GROUPS
    if len(argv) < 2 or not re.fullmatch(r"[\w.-]+", argv[1]) or set(groups) - set(GROUPS):
        print("usage: python3 benchmarks/kernel_pairs.py OTHER_TREE LABEL [GROUP ...] "
              "(OTHER_TREE a directory or a git revision; LABEL of letters, digits, "
              "'_', '.', '-'; GROUP one of " + ", ".join(GROUPS) + ")", file=sys.stderr)
        return 2
    if Path(argv[0]).is_dir():
        return compare(Path(argv[0]).resolve(), commit(Path(argv[0])), argv[1], groups)
    with tempfile.TemporaryDirectory(prefix="kernel-pairs-") as tmp:
        sha = extract(argv[0], Path(tmp))
        if sha is None:
            print(f"{argv[0]}: neither a directory nor a git revision", file=sys.stderr)
            return 2
        return compare(Path(tmp), sha, argv[1], groups)


def compare(other_tree: Path, other_commit: str | None, label: str, groups: list[str]) -> int:
    """Runs ``groups`` of this tree against ``other_tree`` and writes the
    record (see the module doc)."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import planarcc
    import planarcc.harness
    import planarcc.matching

    other = load_other(other_tree)
    importlib.import_module("planarcc_other.harness")
    for pkg in (planarcc, other):
        if pkg.matching._blossom_c._kernel is None:
            print(f"{pkg.__name__}: {pkg.matching._blossom_c.UNAVAILABLE}", file=sys.stderr)
            return 1
    kernel = planarcc.matching.engine_kernel()
    this_entry = planarcc.matching._blossom_c.solve_max_weight_matching
    other_entry = other.matching._blossom_c.solve_max_weight_matching
    result = {
        "label": label,
        "commit": commit(),
        "other_commit": other_commit,
        "cpu": cpu(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "reps": REPS,
        "calls": CALLS,
        "certify_reps": CERTIFY_REPS,
        "late": {"min_solves": LATE_MIN_SOLVES, "solves": LATE_SOLVES},
        "sets": [],
    }
    if "kernel" in groups:
        result["sets"] += [kernel_set(spec, kernel, this_entry, other_entry) for spec in SETS]
    if "ground" in groups:
        result["sets"] += [ground_set(side, (planarcc, other)) for side in GROUND_SIDES]
    if "setup" in groups:
        for side in SETUP_SIDES:
            result["sets"] += setup_sets(side, (planarcc, other))
    if "certify" in groups:
        for name in CERTIFY_WORKLOADS:
            result["sets"] += certify_sets(name, (planarcc, other))
    out = ROOT / f"BENCH_{label}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
