"""Iterations and wall time to certify, on fixed seed sets.

    python3 benchmarks/certify_iterations.py LABEL

Imports planarcc from the ``src/`` of the tree this script sits in, runs
``optimize(max_iters=2000, tol=1.0)`` on every seed of four sets, and
writes ``BENCH_<LABEL>.json`` at that tree's root.  The sets:

- 16x16 a=0.2, seeds 0-9: acceptance criterion 9's weak-unary budget,
  where the lower bound decides when certification happens;
- 16x16 a=3.2, seeds 0-9: criterion 9's strong-unary budget;
- 8x8 a=0.2, seeds 0-11: the instance size of the certify-weak benchmark;
- 12x12 a=3.2, seeds 0-9: the instance size of the certify-strong
  benchmark, where a few large steps certify.

Per seed it records iterations, certificate, best upper bound, the final
gap (best upper less best lower bound; a seed certifies when it is below 1)
and the wall time of ``optimize`` (instance generation excluded); per set,
the sums.  It
also records the engine, the commit and the CPU.  Iteration counts and
bounds are deterministic; wall times depend on the machine.
"""

from __future__ import annotations

import json
import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SETS = [
    {"rows": 16, "cols": 16, "a": 0.2, "seeds": list(range(10))},
    {"rows": 16, "cols": 16, "a": 3.2, "seeds": list(range(10))},
    {"rows": 8, "cols": 8, "a": 0.2, "seeds": list(range(12))},
    {"rows": 12, "cols": 12, "a": 3.2, "seeds": list(range(10))},
]


def commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "describe", "--always", "--dirty", "--abbrev=12"],
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


def run_set(spec: dict) -> dict:
    from planarcc import optimize
    from planarcc.harness import InstanceSpec, generate_grid_instance

    runs = []
    for seed in spec["seeds"]:
        model, emb = generate_grid_instance(
            InstanceSpec(spec["rows"], spec["cols"], spec["a"], seed, 500)
        )
        t0 = time.perf_counter()
        res = optimize(model, emb, max_iters=2000, tol=1.0)
        wall = time.perf_counter() - t0
        runs.append({
            "seed": seed,
            "iterations": res.iterations,
            "certificate": res.certificate,
            "best_upper": res.best_upper,
            "gap": res.gap,
            "wall_s": round(wall, 4),
        })
        print(f"{spec['rows']}x{spec['cols']} a={spec['a']} seed {seed}: "
              f"{res.iterations} iterations, {res.certificate}, {wall:.2f} s",
              file=sys.stderr)
    return {
        **{k: spec[k] for k in ("rows", "cols", "a")},
        "iterations_total": sum(r["iterations"] for r in runs),
        "certified": sum(r["certificate"] == "optimal" for r in runs),
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
        "optimize": {"max_iters": 2000, "tol": 1.0},
        "sets": [run_set(spec) for spec in SETS],
    }
    out = ROOT / f"BENCH_{label}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
