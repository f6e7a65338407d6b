"""Milliseconds per solve of the matching kernel, on recorded port graphs.

    python3 benchmarks/kernel_solves.py LABEL

Imports planarcc from the ``src/`` of the tree this script sits in.  It
first records the port graphs that this tree's solver hands the kernel: it
wraps the default engine's ``solve_max_weight_matching`` and runs

- ``optimize(max_iters=2000, tol=1.0)`` on 8x8 a=0.2 (seeds 0-5), 12x12
  a=3.2 (seeds 0-9) and 16x16 a=0.2 (seeds 0-2), every iterate;
- ``optimize(max_iters=3)`` on 24x24, 32x32, 48x48 and 64x64 a=0.2
  (seed 0), the first 3 iterates;
- ``optimize(max_iters=110)`` on 24x24 and 32x32 a=0.2 (seed 1),
  iterates 101-110: late iterates, which cost more than first ones;
- ``ground_state`` on unary-free 16x16 grids (seeds 0-9).

It then solves each recorded graph ``REPS`` times and keeps the fastest,
twice: cold (one call of the entry, which opens, solves and closes), and
on a session opened once per recorded run, as ``optimize`` does (the open
and close are not timed).
The two alternate call by call, so that drift in the machine's speed
reaches both columns alike.
It writes per set the median and p90 ms of one solve in each column, the
solve count and the median port and port-edge counts to
``BENCH_<LABEL>.json`` at the tree's root, with the engine, the commit and
the CPU.  The graphs are deterministic; the times depend on the machine,
so compare only files written side by side.
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
    {"rows": 24, "a": 0.2, "seeds": [1], "max_iters": 110, "first": 101},
    {"rows": 32, "a": 0.2, "seeds": [1], "max_iters": 110, "first": 101},
    {"rows": 16, "a": 0.0, "seeds": list(range(10)), "ground": True},
]


def set_name(spec: dict) -> str:
    side = f"{spec['rows']}x{spec['rows']}"
    if spec.get("ground"):
        return f"{side} ground state"
    if "first" in spec:
        return f"{side} a={spec['a']} iterates {spec['first']}-{spec['max_iters']}"
    return f"{side} a={spec['a']}"


def record(spec: dict, kernel) -> list[list[tuple]]:
    """Per run on the set's instances, the (n, eu, ev, ew) of every kernel
    call the solver makes, from iterate ``spec["first"]`` when given."""
    import numpy as np

    from planarcc import SymmetricIsing, ground_state, optimize
    from planarcc.harness import InstanceSpec, generate_grid_instance

    calls = []
    solve = kernel.solve_max_weight_matching

    def recording(n, eu, ev, ew, session=None):
        calls.append((n, *(np.array(a, dtype=np.int64) for a in (eu, ev, ew))))
        return solve(n, eu, ev, ew, session)

    runs = []
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
            runs.append(calls[spec.get("first", 1) - 1:])
            calls = []
    finally:
        kernel.solve_max_weight_matching = solve
    return runs


def p50_p90(ms: list[float]) -> tuple[float, float]:
    ms = sorted(ms)
    return round(statistics.median(ms), 4), round(ms[min(len(ms) - 1, int(0.9 * len(ms)))], 4)


def time_set(spec: dict, kernel) -> dict:
    runs = record(spec, kernel)
    calls = [call for run in runs for call in run]
    solve = kernel.solve_max_weight_matching
    cold, warm = [], []
    for run in runs:
        session = kernel.open_session(*run[0][:3])
        try:
            for call in run:
                best_cold = best_warm = float("inf")
                for _ in range(REPS):
                    t0 = time.perf_counter()
                    solve(*call)
                    t1 = time.perf_counter()
                    solve(*call, session)
                    best_cold = min(best_cold, t1 - t0)
                    best_warm = min(best_warm, time.perf_counter() - t1)
                cold.append(1e3 * best_cold)
                warm.append(1e3 * best_warm)
        finally:
            session.close()
    out = {
        "set": set_name(spec),
        "seeds": spec["seeds"],
        "solves": len(calls),
        "ports": int(statistics.median(c[0] for c in calls)),
        "port_edges": int(statistics.median(len(c[1]) for c in calls)),
    }
    out["ms_p50"], out["ms_p90"] = p50_p90(cold)
    out["session_ms_p50"], out["session_ms_p90"] = p50_p90(warm)
    print(f"{out['set']}: {out['solves']} solves, {out['ports']} ports, "
          f"cold p50 {out['ms_p50']:.2f} ms, p90 {out['ms_p90']:.2f} ms; "
          f"session p50 {out['session_ms_p50']} ms, p90 {out['session_ms_p90']} ms",
          file=sys.stderr)
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
