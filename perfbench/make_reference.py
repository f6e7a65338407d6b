"""Write reference.json: the answer and solve count of every pool instance.

    python3 perfbench/make_reference.py

For every workload in bench.WORKLOADS and each (side, seed) of its pool,
certify workloads store (iterations, certified optimum) from
``optimize(max_iters=1000, tol=1.0)`` and ground-state stores (1,
ground-state energy).  The file is written from scratch each time.  The
benchmark gates on the optimum alone; iteration counts only balance its
passes.  Neither depends on the machine's speed.  Uses whichever engine
``import planarcc`` picks.
"""

import json
import os
import sys
from pathlib import Path

os.environ.pop("PLANARCC_MATCHING", None)
HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import bench  # noqa: E402


def main() -> None:
    lines = []
    for name, w in sorted(bench.WORKLOADS.items()):
        table = {
            f"{side}:{seed}": list(bench.solve_reference(w, side, seed, oracle=False))
            for side in w.sides
            for seed in range(w.pool)
        }
        lines.append(f"{json.dumps(name)}: {json.dumps(table, sort_keys=True)}")
        print(f"{name}: {len(table)} instances", file=sys.stderr)
    bench.REFERENCE.write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    main()
