"""Iterations and wall time to certify, on fixed seed sets.

    python3 benchmarks/certify_iterations.py LABEL

Imports planarcc from the ``src/`` of the tree this script sits in, runs
``optimize`` on every seed of the sets below, and writes
``BENCH_<LABEL>.json`` at that tree's root.  Grid sets run with
``max_iters=2000, tol=1.0``:

- 16x16 a=0.2, seeds 0-9: acceptance criterion 9's weak-unary budget,
  where the lower bound decides when certification happens;
- 16x16 a=3.2, seeds 0-9: criterion 9's strong-unary budget;
- 8x8 a=0.2, seeds 0-11: the instance size of the certify-weak benchmark;
- 12x12 a=3.2, seeds 0-9: the instance size of the certify-strong
  benchmark, where a few large steps certify;
- 24x24 a=0.2 seeds 0-9, 32x32 a=0.2 seeds 0-2 and 32x32 a=3.2 seeds
  0-2: the tail, where runs take hundreds of iterations or stop at the cap;
- 48x48 a=0.2 seed 0: the largest grid that certifies, in about a minute,
  after a long stretch at its final upper bound.

The K4 set runs with ``max_iters=500``: K4 embedded as a triangle with
vertex 3 in the middle, for seeds 0-7 with weights -300 + randint(-60, 60)
drawn by ``random.Random(seed)`` for the edges (0,1), (0,2), (0,3), (1,2),
(1,3), (2,3) and then for the 4 unaries.  Its relaxation is not tight, so
no seed certifies and every run shows where ``best_lower`` settles.

Per seed it records iterations, certificate, best upper and lower bounds,
the final gap (best upper less best lower bound; a seed certifies when it
is below 1), the first iteration whose best upper bound is the final one,
and the wall time of ``optimize`` (instance generation excluded); per set,
the sums.  It also records the engine, the commit and the CPU.  Iteration
counts and bounds are deterministic; wall times depend on the machine.
``wall_s`` is one run per seed, so it cannot compare two trees on a noisy
machine: compare their times with ``benchmarks/kernel_pairs.py``, which
alternates the trees call by call in one process.
"""

from __future__ import annotations

import json
import os
import platform
import random
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

GRID_ITERS = 2000
K4_ITERS = 500
SETS = [
    {"rows": 16, "cols": 16, "a": 0.2, "seeds": list(range(10))},
    {"rows": 16, "cols": 16, "a": 3.2, "seeds": list(range(10))},
    {"rows": 8, "cols": 8, "a": 0.2, "seeds": list(range(12))},
    {"rows": 12, "cols": 12, "a": 3.2, "seeds": list(range(10))},
    {"rows": 24, "cols": 24, "a": 0.2, "seeds": list(range(10))},
    {"rows": 32, "cols": 32, "a": 0.2, "seeds": list(range(3))},
    {"rows": 32, "cols": 32, "a": 3.2, "seeds": list(range(3))},
    {"rows": 48, "cols": 48, "a": 0.2, "seeds": [0]},
    {"name": "K4", "seeds": list(range(8))},
]
K4_ROTATIONS = ((1, 3, 2), (2, 3, 0), (0, 3, 1), (2, 0, 1))
K4_EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def commit(tree: Path = ROOT) -> str | None:
    """``git describe`` of the checkout at ``tree``, or None."""
    try:
        out = subprocess.run(
            ["git", "-C", str(tree), "describe", "--always", "--dirty", "--abbrev=12"],
            capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def cpu() -> dict:
    model = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"model": model, "count": os.cpu_count(), "platform": platform.platform()}


def k4_instance(seed: int):
    from planarcc import BinaryMRF, PlanarEmbedding

    rng = random.Random(seed)
    edges = tuple((i, j, -300 + rng.randint(-60, 60)) for (i, j) in K4_EDGES)
    unary = tuple(-300 + rng.randint(-60, 60) for _ in range(4))
    return BinaryMRF(4, edges, unary, 0), PlanarEmbedding(K4_ROTATIONS)


def run_set(spec: dict) -> dict:
    from planarcc import optimize
    from planarcc.harness import InstanceSpec, generate_grid_instance

    if "name" in spec:
        name, max_iters = spec["name"], K4_ITERS
    else:
        name, max_iters = f"{spec['rows']}x{spec['cols']} a={spec['a']}", GRID_ITERS
    runs = []
    for seed in spec["seeds"]:
        if "name" in spec:
            model, emb = k4_instance(seed)
        else:
            model, emb = generate_grid_instance(
                InstanceSpec(spec["rows"], spec["cols"], spec["a"], seed, 500)
            )
        t0 = time.perf_counter()
        res = optimize(model, emb, max_iters=max_iters, tol=1.0)
        wall = time.perf_counter() - t0
        runs.append({
            "seed": seed,
            "iterations": res.iterations,
            "certificate": res.certificate,
            "best_upper": res.best_upper,
            "best_lower": res.best_lower,
            "gap": res.gap,
            "best_upper_first_iteration": next(
                r.iteration for r in res.trace.rows if r.best_upper == res.best_upper
            ),
            "wall_s": round(wall, 4),
        })
        print(f"{name} seed {seed}: {res.iterations} iterations, {res.certificate}, "
              f"{wall:.2f} s", file=sys.stderr)
    return {
        **{k: v for k, v in spec.items() if k != "seeds"},
        "max_iters": max_iters,
        "iterations_total": sum(r["iterations"] for r in runs),
        "certified": sum(r["certificate"] == "optimal" for r in runs),
        "best_upper_first_iteration_total": sum(r["best_upper_first_iteration"] for r in runs),
        "wall_s_total": round(sum(r["wall_s"] for r in runs), 4),
        "runs": runs,
    }


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not re.fullmatch(r"[\w.-]+", argv[0]):
        print("usage: python3 benchmarks/certify_iterations.py LABEL "
              "(letters, digits, '_', '.', '-')", file=sys.stderr)
        return 2
    label = argv[0]
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import planarcc.matching

    record = {
        "label": label,
        "commit": commit(),
        "engine": planarcc.matching.DEFAULT_ENGINE,
        "compiled_unavailable": planarcc.matching.COMPILED_UNAVAILABLE,
        "cpu": cpu(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "optimize": {"max_iters": GRID_ITERS, "tol": 1.0, "k4_max_iters": K4_ITERS},
        "wall_s": "one run per seed; compare trees with benchmarks/kernel_pairs.py",
        "sets": [run_set(spec) for spec in SETS],
    }
    out = ROOT / f"BENCH_{label}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
