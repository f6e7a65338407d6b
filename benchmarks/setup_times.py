"""Milliseconds per call of the setup steps and of a ground state.

    python3 benchmarks/setup_times.py LABEL

Imports planarcc from the ``src/`` of the tree this script sits in.  On
the 8x8, 12x12, 16x16, 24x24 and 32x32 grids of seed 0 (pairwise weights
as in the benchmark's instances, scaled by 500) it times

- ``faces`` of the grid embedding;
- ``build_expanded_dual`` of the unary-free model of the grid's pairwise
  weights, and ``ground_state`` of that model (port graph, one cold
  matching and the decode);
- ``build_pcc`` of the model with a=0.2 unaries (faces, the augmented
  graph and its port graph).

Each step runs ``CALLS`` times, alternating with the others, on a fresh
``PlanarEmbedding`` built outside the timed region, so that nothing one call
computes can serve the next.  It writes the median ms per step and grid to
``BENCH_<LABEL>.json`` at the tree's root, with the engine, the commit and
the CPU.  The times depend on the machine, so compare only files written
side by side.
"""

from __future__ import annotations

import json
import os
import platform
import re
import statistics
import sys
import time

from certify_iterations import ROOT, commit, cpu

SIDES = [8, 12, 16, 24, 32]
CALLS = 31
STEPS = ["faces", "build_expanded_dual", "build_pcc", "ground_state"]


def time_grid(side: int) -> dict:
    from planarcc import (
        PlanarEmbedding,
        SymmetricIsing,
        build_expanded_dual,
        build_pcc,
        faces,
        ground_state,
    )
    from planarcc.harness import InstanceSpec, generate_grid_instance

    model, emb = generate_grid_instance(InstanceSpec(side, side, 0.2, 0, 500))
    ising = SymmetricIsing(model.num_nodes, model.edges)
    steps = {
        "faces": faces,
        "build_expanded_dual": lambda e: build_expanded_dual(ising, e),
        "build_pcc": lambda e: build_pcc(model, e),
        "ground_state": lambda e: ground_state(ising, e),
    }
    ms: dict[str, list[float]] = {name: [] for name in STEPS}
    for _ in range(CALLS):
        for name in STEPS:
            fresh = PlanarEmbedding(emb.rotations)
            t0 = time.perf_counter()
            steps[name](fresh)
            ms[name].append(1e3 * (time.perf_counter() - t0))
    out = {"grid": f"{side}x{side}", "calls": CALLS}
    out.update({f"{name}_ms": round(statistics.median(ms[name]), 4) for name in STEPS})
    print(f"{out['grid']}: " + ", ".join(f"{name} {out[name + '_ms']:.2f} ms" for name in STEPS),
          file=sys.stderr)
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not re.fullmatch(r"[\w.-]+", argv[0]):
        print("usage: python3 benchmarks/setup_times.py LABEL "
              "(letters, digits, '_', '.', '-')", file=sys.stderr)
        return 2
    label = argv[0]
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import planarcc.matching

    result = {
        "label": label,
        "commit": commit(),
        "engine": planarcc.matching.DEFAULT_ENGINE,
        "compiled_unavailable": planarcc.matching.COMPILED_UNAVAILABLE,
        "cpu": cpu(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "grids": [time_grid(side) for side in SIDES],
    }
    out = ROOT / f"BENCH_{label}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
