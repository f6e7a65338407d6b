"""Benchmark entry point; see bench.py for workloads, metrics and output.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

BLAS threads are pinned to 1 and PLANARCC_MATCHING is unset before numpy
or planarcc is imported, so every run uses the engine that ``import
planarcc`` picks by default.  planarcc is imported from ``src/``.
"""

import os
import sys
from pathlib import Path


def main() -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("PLANARCC_MATCHING", None)
    here = Path(__file__).resolve().parent
    sys.path[:0] = [str(here.parent / "src"), str(here)]
    import bench

    return bench.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
