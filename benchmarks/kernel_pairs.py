"""Cold solves and ground states of this tree against another tree's,
alternated call by call in one process.

    python3 benchmarks/kernel_pairs.py OTHER_TREE LABEL

Imports planarcc from the ``src/`` of the tree this script sits in, and
``OTHER_TREE/src/planarcc`` as a second package, ``planarcc_other`` (the
package's modules import each other relatively).  Both trees must load
their compiled kernel.

- Kernel: it records the port graphs of the sets of ``kernel_solves.py``
  with this tree's solver, then makes ``REPS`` cold calls of each tree's
  compiled entry ``_blossom_c.solve_max_weight_matching`` on each graph,
  the two trees taking turns call by call and going first in turn, and
  keeps each tree's fastest.
- Ground states: the same turns for each tree's ``ground_state`` on the
  unary-free grids of seed 0 (port graph, one cold matching and the
  decode), each tree building its own instance and a fresh
  ``PlanarEmbedding`` per call, outside the timed region.

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
import time
from pathlib import Path

from certify_iterations import ROOT, commit, cpu
from kernel_solves import SETS, p50_p90, record, set_name

REPS = 5
GROUND_SIDES = [8, 12, 16, 24, 32]
GROUND_CALLS = 31


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


def summary(name: str, pairs: list[tuple[float, float]], **extra) -> dict:
    this, other = [p[0] for p in pairs], [p[1] for p in pairs]
    out = {"set": name, **extra}
    out["ms_p50"], out["ms_p90"] = p50_p90(this)
    out["other_ms_p50"], out["other_ms_p90"] = p50_p90(other)
    out["ratio_p50"] = round(statistics.median(a / b for a, b in pairs), 4)
    out["faster_share"] = round(sum(a < b for a, b in pairs) / len(pairs), 4)
    print(f"{name}: {len(pairs)} pairs, p50 {out['ms_p50']:.3f} against "
          f"{out['other_ms_p50']:.3f} ms, ratio p50 {out['ratio_p50']}, "
          f"faster in {out['faster_share']:.0%}", file=sys.stderr)
    return out


def kernel_set(spec: dict, kernel, this_entry, other_entry) -> dict:
    calls = [call for run in record(spec, kernel) for call in run]
    pairs = [
        alternate(lambda: this_entry(*call), lambda: other_entry(*call), REPS)
        for call in calls
    ]
    return summary(set_name(spec), pairs, solves=len(calls),
                   ports=int(statistics.median(c[0] for c in calls)))


def ground_set(side: int, packages) -> dict:
    args = []
    for pkg in packages:
        model, emb = pkg.harness.generate_grid_instance(
            pkg.harness.InstanceSpec(side, side, 0.0, 0, 500)
        )
        args.append((pkg, pkg.SymmetricIsing(model.num_nodes, model.edges), emb.rotations))
    pairs = []
    for call in range(GROUND_CALLS):
        fresh = [(pkg.ground_state, ising, pkg.PlanarEmbedding(rot)) for pkg, ising, rot in args]
        (g0, i0, e0), (g1, i1, e1) = fresh
        # One call each: a fresh embedding serves one call.
        pairs.append(alternate(lambda: g0(i0, e0), lambda: g1(i1, e1), 1, call))
    return summary(f"{side}x{side} ground_state", pairs, calls=GROUND_CALLS)


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not re.fullmatch(r"[\w.-]+", argv[1]):
        print("usage: python3 benchmarks/kernel_pairs.py OTHER_TREE LABEL "
              "(letters, digits, '_', '.', '-')", file=sys.stderr)
        return 2
    other_tree, label = Path(argv[0]).resolve(), argv[1]
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
        "other_commit": subprocess.run(
            ["git", "-C", str(other_tree), "describe", "--always", "--dirty", "--abbrev=12"],
            capture_output=True, text=True,
        ).stdout.strip() or None,
        "cpu": cpu(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "reps": REPS,
        "sets": [kernel_set(spec, kernel, this_entry, other_entry) for spec in SETS]
        + [ground_set(side, (planarcc, other)) for side in GROUND_SIDES],
    }
    out = ROOT / f"BENCH_{label}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
