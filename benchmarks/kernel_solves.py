"""Milliseconds per cold solve of the matching kernel, on recorded port graphs.

    python3 benchmarks/kernel_solves.py LABEL

Imports planarcc from the ``src/`` of the tree this script sits in.  It
first records the port graphs that this tree's solver hands the kernel: it
wraps the default engine's ``solve_max_weight_matching`` and runs

- ``optimize(max_iters=2000, tol=1.0)`` on 8x8 a=0.2 (seeds 0-5), 12x12
  a=3.2 (seeds 0-9) and 16x16 a=0.2 (seeds 0-2), every iterate;
- ``optimize(max_iters=3)`` on 24x24, 32x32, 48x48 and 64x64 a=0.2
  (seed 0), the first 3 iterates;
- ``ground_state`` on unary-free 16x16 grids (seeds 0-9).

It then solves each recorded graph cold ``REPS`` times, keeps the fastest,
and writes per set the median and p90 ms of one solve, the solve count and
the median port and port-edge counts to ``BENCH_<LABEL>.json`` at the
tree's root, with the engine, the commit and the CPU.  The graphs are
deterministic; the times depend on the machine, so compare only files
written side by side.
"""

from __future__ import annotations

import json
import os
import platform
import re
import statistics
import sys
import time
from pathlib import Path

from certify_iterations import ROOT, commit, cpu

REPS = 3

SETS = [
    {"rows": 8, "a": 0.2, "seeds": list(range(6)), "max_iters": 2000},
    {"rows": 12, "a": 3.2, "seeds": list(range(10)), "max_iters": 2000},
    {"rows": 16, "a": 0.2, "seeds": list(range(3)), "max_iters": 2000},
    {"rows": 24, "a": 0.2, "seeds": [0], "max_iters": 3},
    {"rows": 32, "a": 0.2, "seeds": [0], "max_iters": 3},
    {"rows": 48, "a": 0.2, "seeds": [0], "max_iters": 3},
    {"rows": 64, "a": 0.2, "seeds": [0], "max_iters": 3},
    {"rows": 16, "a": 0.0, "seeds": list(range(10)), "ground": True},
]


def set_name(spec: dict) -> str:
    side = f"{spec['rows']}x{spec['rows']}"
    return f"{side} ground state" if spec.get("ground") else f"{side} a={spec['a']}"


def record(spec: dict, kernel) -> list[tuple]:
    """The (n, eu, ev, ew) of every kernel call the solver makes on the
    set's instances."""
    import numpy as np

    from planarcc import SymmetricIsing, ground_state, optimize
    from planarcc.harness import InstanceSpec, generate_grid_instance

    calls = []
    solve = kernel.solve_max_weight_matching

    def recording(n, eu, ev, ew):
        calls.append((n, *(np.array(a, dtype=np.int64) for a in (eu, ev, ew))))
        return solve(n, eu, ev, ew)

    kernel.solve_max_weight_matching = recording
    try:
        for seed in spec["seeds"]:
            model, emb = generate_grid_instance(
                InstanceSpec(spec["rows"], spec["rows"], spec["a"], seed, 500)
            )
            if spec.get("ground"):
                ground_state(SymmetricIsing(model.num_nodes, model.edges), emb)
            else:
                optimize(model, emb, max_iters=spec["max_iters"], tol=1.0)
    finally:
        kernel.solve_max_weight_matching = solve
    return calls


def time_set(spec: dict, kernel) -> dict:
    calls = record(spec, kernel)
    ms = []
    for call in calls:
        best = float("inf")
        for _ in range(REPS):
            t0 = time.perf_counter()
            kernel.solve_max_weight_matching(*call)
            best = min(best, time.perf_counter() - t0)
        ms.append(1e3 * best)
    ms.sort()
    out = {
        "set": set_name(spec),
        "seeds": spec["seeds"],
        "solves": len(ms),
        "ports": int(statistics.median(c[0] for c in calls)),
        "port_edges": int(statistics.median(len(c[1]) for c in calls)),
        "ms_p50": round(statistics.median(ms), 4),
        "ms_p90": round(ms[min(len(ms) - 1, int(0.9 * len(ms)))], 4),
    }
    print(f"{out['set']}: {out['solves']} solves, {out['ports']} ports, "
          f"p50 {out['ms_p50']:.2f} ms, p90 {out['ms_p90']:.2f} ms", file=sys.stderr)
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not re.fullmatch(r"[\w.-]+", argv[0]):
        print("usage: python3 benchmarks/kernel_solves.py LABEL "
              "(letters, digits, '_', '.', '-')", file=sys.stderr)
        return 2
    label = argv[0]
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import planarcc.matching

    kernel = planarcc.matching.engine_kernel()
    result = {
        "label": label,
        "commit": commit(),
        "engine": planarcc.matching.DEFAULT_ENGINE,
        "compiled_unavailable": planarcc.matching.COMPILED_UNAVAILABLE,
        "cpu": cpu(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "reps": REPS,
        "sets": [time_set(spec, kernel) for spec in SETS],
    }
    out = ROOT / f"BENCH_{label}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
