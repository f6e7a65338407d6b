"""Command-line interface.

Subcommands:
  gen-grid  write a seeded random grid model as JSON
  solve     bound/solve a model file, writing trace and summary CSVs
  oracle    brute-force a small model exactly
  batch     run many specs from a batch file, aggregate results
"""

from __future__ import annotations

import argparse
import json
import sys

from . import matching
from .embedding import PlanarEmbedding, grid
from .errors import PlanarCCError
from .harness import (
    InstanceSpec,
    RunSummary,
    SolverOptions,
    aggregate,
    append_summary,
    batch,
    generate_grid_instance,
    instance_meta,
    solve_model,
    write_aggregate,
)
from .model import BinaryMRF, load_model, save_model
from .oracle import brute_force_map


def canonical_grid_embedding(model: BinaryMRF) -> PlanarEmbedding | None:
    """Reconstruct the rows x cols embedding of a grid-structured model, or
    return None when the edge set is not a row-major grid."""
    n = model.num_nodes
    if n == 0:
        return None
    deltas = {j - i for (i, j, _) in model.edges}
    long_deltas = {d for d in deltas if d > 1}
    if long_deltas:
        cols = min(long_deltas)
    else:
        cols = n
    if n % cols != 0:
        return None
    rows = n // cols
    edges, embedding = grid(rows, cols)
    if set(edges) != {(i, j) for (i, j, _) in model.edges}:
        return None
    return embedding


def _embedding_for(model, rotations) -> PlanarEmbedding:
    if rotations is not None:
        return PlanarEmbedding(tuple(tuple(r) for r in rotations))
    embedding = canonical_grid_embedding(model)
    if embedding is None:
        raise PlanarCCError(
            "model file has no embedding and is not a canonical grid; "
            'add an "embedding" section with the rotation system'
        )
    return embedding


def _from_keys(cls, keys: dict, where: str):
    """``cls(**keys)``; an unknown or missing key, or a value ``cls``
    rejects, raises PlanarCCError, which names it after ``where``."""
    try:
        return cls(**keys)
    except (TypeError, ValueError) as exc:
        raise PlanarCCError(f"{where}: {exc}") from None


def _read(path: str, load):
    """``load(path)``; a file whose content ``load`` rejects raises
    PlanarCCError, which names the file and the problem."""
    try:
        return load(path)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        raise PlanarCCError(f"{path}: {type(exc).__name__}: {exc}") from None


def _batch_doc(path: str) -> tuple[list, dict]:
    """(specs, options) of a batch file."""
    with open(path) as fh:
        doc = json.load(fh)
    return list(doc["specs"]), doc.get("options", {})


def cmd_gen_grid(args) -> int:
    spec = _from_keys(
        InstanceSpec,
        dict(rows=args.rows, cols=args.cols, a=args.a, seed=args.seed, scale=args.scale),
        "gen-grid",
    )
    model, _ = generate_grid_instance(spec)
    save_model(args.output, model, rotations=None, meta=instance_meta(spec))
    print(args.output)
    return 0


def cmd_solve(args) -> int:
    model, rotations, meta = _read(args.model, load_model)
    embedding = _embedding_for(model, rotations)
    options = _from_keys(
        SolverOptions,
        dict(max_iters=args.max_iters, tol=args.tol, matching_scale=args.matching_scale),
        "solve",
    )
    import time

    t0 = time.perf_counter()
    result = solve_model(model, embedding, options)
    wall_ms = int(round((time.perf_counter() - t0) * 1000))
    if args.trace:
        result.trace.to_csv(args.trace, timed=args.timed_trace)
    if args.summary:
        if all(k in meta for k in ("rows", "cols", "a", "seed")):
            spec = InstanceSpec(
                meta["rows"], meta["cols"], meta["a"], meta["seed"],
                meta.get("scale", InstanceSpec.scale),
            )
            converged = result.certificate == "optimal"
            append_summary(
                args.summary,
                [RunSummary(spec, converged, result.iterations, result.gap, wall_ms)],
            )
        else:
            print(
                "warning: model has no generator metadata; summary row skipped",
                file=sys.stderr,
            )
    out = {
        "best_lower": result.best_lower,
        "best_upper": result.best_upper,
        "gap": result.gap,
        "certificate": result.certificate,
        "iterations": result.iterations,
        "assignment": list(result.best_assignment),
        "engine": matching.DEFAULT_ENGINE,
    }
    if matching.COMPILED_UNAVAILABLE is not None:
        out["compiled_unavailable"] = matching.COMPILED_UNAVAILABLE
    print(json.dumps(out))
    return 0


def cmd_oracle(args) -> int:
    model, _, _ = _read(args.model, load_model)
    result = brute_force_map(model)
    print(json.dumps({
        "energy": result.energy,
        "assignment": list(result.assignment),
    }))
    return 0


def cmd_batch(args) -> int:
    specs, options = _read(args.spec, _batch_doc)
    specs = [_from_keys(InstanceSpec, s, "batch specs") for s in specs]
    options = _from_keys(SolverOptions, options, "batch options")
    summaries = batch(specs, options, jobs=args.jobs, out=args.out)
    agg = aggregate(summaries)
    if args.aggregate_out:
        write_aggregate(args.aggregate_out, agg)
    for row in agg:
        print(json.dumps(row))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="planarcc",
        description="MAP inference for planar binary MRFs via planar cycle "
        "covering bounds and exact perfect-matching ground states",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-grid", help="generate a random grid model")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--a", type=float, required=True, help="unary magnitude")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--scale", type=int, default=InstanceSpec.scale)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_gen_grid)

    p = sub.add_parser("solve", help="solve a model file")
    p.add_argument("model")
    p.add_argument("--max-iters", type=int, default=SolverOptions.max_iters)
    p.add_argument("--tol", type=float, default=SolverOptions.tol)
    p.add_argument("--matching-scale", type=int, default=SolverOptions.matching_scale)
    p.add_argument("--trace", help="write per-iteration trace CSV here")
    p.add_argument("--summary", help="append a summary row to this CSV")
    p.add_argument(
        "--timed-trace", action="store_true",
        help="write measured wall-clock times in the trace instead of the "
        "deterministic default",
    )
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("oracle", help="exact brute force (<= 24 nodes)")
    p.add_argument("model")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("batch", help="run a batch of generated instances")
    p.add_argument("--spec", required=True, help="batch JSON file")
    p.add_argument("--out", required=True, help="per-run results CSV")
    p.add_argument("--aggregate-out", help="aggregate CSV")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_batch)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PlanarCCError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
