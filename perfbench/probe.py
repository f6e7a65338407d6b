"""Set-up probe, run in a fresh interpreter by bench.setup_times.

Imports planarcc (which selects the matching engine) and generates the
instances given as a JSON list of [rows, cols, a, seed, scale], then prints
the seconds that took.  The clock starts after the interpreter itself is
up, so interpreter start-up is left out.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import planarcc  # noqa: E402
from planarcc.harness import InstanceSpec, generate_grid_instance  # noqa: E402

if __name__ == "__main__":
    for rows, cols, a, seed, scale in json.loads(sys.argv[1]):
        generate_grid_instance(InstanceSpec(rows, cols, a, seed, scale))
    elapsed = time.perf_counter() - START
    print(json.dumps({"setup_s": elapsed, "engine": planarcc.matching.DEFAULT_ENGINE}))
