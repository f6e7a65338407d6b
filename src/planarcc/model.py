"""Binary MRFs in disagreement-cost form.

A model is parameterized by pairwise disagreement costs ``theta_ij`` (paid
when two neighbors take different labels), unary costs ``theta_i`` (paid when
a variable takes label 1), and an additive constant.  Any pairwise binary MRF
can be rewritten this way: a 2x2 table phi on edge (i, j) is
theta_ij = (phi01 + phi10 - phi00 - phi11) / 2, plus unaries
phi10 - phi00 - theta_ij on i and phi01 - phi00 - theta_ij on j and the
constant phi00.  A model without unary terms (``SymmetricIsing``) is
flip-invariant; ``pcc`` absorbs unary terms into edges to one auxiliary node
per chosen face, which keeps the graph planar.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import SizeMismatchError, WeightRangeError
from .matching import MAX_ABS_WEIGHT

Labels = tuple[int, ...]


def _check_binary_labels(x: Sequence[int], n: int) -> Labels:
    if len(x) != n:
        raise SizeMismatchError(f"assignment has {len(x)} labels, model has {n} nodes")
    out = tuple(int(v) for v in x)
    if any(v not in (0, 1) for v in out):
        raise ValueError("labels must be 0 or 1")
    return out


def _check_edges(num_nodes: int, edges: Sequence[tuple[int, int, float]]) -> None:
    """Reject self-loops, endpoints not 0 <= i < j < num_nodes, duplicate
    edges and non-finite weights."""
    seen = set()
    for (i, j, w) in edges:
        if i == j:
            raise ValueError(f"self-loop at node {i}")
        if not (0 <= i < j < num_nodes):
            raise ValueError(f"edge ({i},{j}) out of range or not i<j")
        if (i, j) in seen:
            raise ValueError(f"duplicate edge ({i},{j})")
        seen.add((i, j))
        if not math.isfinite(w):
            raise ValueError(f"edge ({i},{j}) has non-finite weight")


# The numpy float types, whose scalars are stored as the Python floats they
# equal (exact up to float64), so that energies sum and weights read as
# they do for Python floats.
_NUMPY_FLOATS = frozenset((np.float16, np.float32, np.float64, np.longdouble))


def _python_float(w):
    return float(w) if type(w) in _NUMPY_FLOATS else w


def _python_floats(weights: tuple) -> tuple:
    """``weights`` with numpy floats as Python floats (``weights`` itself
    when it holds none)."""
    if _NUMPY_FLOATS.isdisjoint(map(type, weights)):
        return weights
    return tuple(map(_python_float, weights))


def _python_edges(edges: tuple) -> tuple:
    """``edges`` with numpy float weights as Python floats."""
    if _NUMPY_FLOATS.isdisjoint(map(type, map(itemgetter(2), edges))):
        return edges
    return tuple((i, j, _python_float(w)) for (i, j, w) in edges)


def _integer_edges(edges: Sequence[tuple[int, int, float]]) -> bool:
    return all(isinstance(w, int) for (_, _, w) in edges)


@dataclass(frozen=True)
class BinaryMRF:
    """Pairwise binary MRF with disagreement costs and unary terms.

    Fields:
        num_nodes: number of variables.
        edges: tuple of (i, j, theta_ij) with i < j, no duplicates.
        unary: per-node theta_i, length num_nodes.
        constant: additive energy offset.

    numpy float weights are stored as the Python floats they equal.
    """

    num_nodes: int
    edges: tuple[tuple[int, int, float], ...]
    unary: tuple[float, ...]
    constant: float = 0

    def __post_init__(self):
        object.__setattr__(self, "edges", _python_edges(self.edges))
        object.__setattr__(self, "unary", _python_floats(self.unary))
        object.__setattr__(self, "constant", _python_float(self.constant))
        if self.num_nodes < 0:
            raise ValueError("num_nodes must be non-negative")
        if len(self.unary) != self.num_nodes:
            raise SizeMismatchError(
                f"unary has {len(self.unary)} entries, expected {self.num_nodes}"
            )
        _check_edges(self.num_nodes, self.edges)
        for i, w in enumerate(self.unary):
            if not math.isfinite(w):
                raise ValueError(f"unary {i} is non-finite")
        if not math.isfinite(self.constant):
            raise ValueError("constant is non-finite")

    @property
    def is_integer(self) -> bool:
        """True when every weight (and the constant) is an exact integer."""
        return _integer_edges(self.edges) and all(
            isinstance(w, int) for w in (*self.unary, self.constant)
        )


@dataclass(frozen=True)
class SymmetricIsing:
    """Unary-free binary model: only pairwise disagreement costs.

    Its energy is invariant under flipping all labels.  numpy float weights
    are stored as the Python floats they equal.
    """

    num_nodes: int
    edges: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "edges", _python_edges(self.edges))
        _check_edges(self.num_nodes, self.edges)

    @property
    def is_integer(self) -> bool:
        return _integer_edges(self.edges)


def energy(model: BinaryMRF, x: Sequence[int]) -> float:
    """Energy of an assignment: sum of violated disagreement costs, unary
    costs of label-1 nodes, and the model constant.

    Exact (integer arithmetic) when the model weights are integers.
    """
    labels = _check_binary_labels(x, model.num_nodes)
    total = model.constant
    for (i, j, w) in model.edges:
        if labels[i] != labels[j]:
            total += w
    for i, w in enumerate(model.unary):
        if labels[i] != 0:
            total += w
    return total


def ising_energy(ising: SymmetricIsing, x: Sequence[int]) -> float:
    """Energy of an assignment under a symmetric (unary-free) model."""
    labels = _check_binary_labels(x, ising.num_nodes)
    total = 0
    for (i, j, w) in ising.edges:
        if labels[i] != labels[j]:
            total += w
    return total


def complement(x: Sequence[int]) -> Labels:
    """Flip every label."""
    return tuple(1 - int(v) for v in x)


def _round_half_away(value: float) -> int:
    if value >= 0:
        return int(math.floor(value + 0.5))
    return -int(math.floor(-value + 0.5))


def scale_to_integer(model: BinaryMRF, factor: float) -> BinaryMRF:
    """Scale all weights by ``factor`` and round half away from zero.

    The result carries exact integer weights, so energies of assignments are
    exact integers and a duality gap below 1 certifies optimality.
    """
    if factor <= 0:
        raise ValueError("scale factor must be positive")

    def scale(w):
        s = _round_half_away(factor * w)
        if abs(s) > MAX_ABS_WEIGHT:
            raise WeightRangeError(f"scaled weight {s} exceeds safe integer range")
        return s

    return BinaryMRF(
        model.num_nodes,
        tuple((i, j, scale(w)) for (i, j, w) in model.edges),
        tuple(scale(w) for w in model.unary),
        scale(model.constant),
    )


# ---------------------------------------------------------------------------
# Model JSON format
#
# {
#   "num_nodes": int,
#   "edges": [[i, j, theta], ...],          # i < j
#   "unary": [theta_0, ...],                # length num_nodes
#   "constant": number,                     # optional, default 0
#   "embedding": {"rotations": [[...], ...]},  # optional rotation system
#   "meta": {...}                           # optional generator metadata
# }
# ---------------------------------------------------------------------------


def _num(x):
    """JSON numbers: keep ints exact, pass floats through."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ValueError(f"expected a number, got {x!r}")
    return x


def model_to_dict(
    model: BinaryMRF,
    rotations: Sequence[Sequence[int]] | None = None,
    meta: dict | None = None,
) -> dict:
    doc: dict = {
        "num_nodes": model.num_nodes,
        "edges": [[i, j, w] for (i, j, w) in model.edges],
        "unary": list(model.unary),
    }
    if model.constant != 0:
        doc["constant"] = model.constant
    if rotations is not None:
        doc["embedding"] = {"rotations": [list(r) for r in rotations]}
    if meta:
        doc["meta"] = dict(meta)
    return doc


def model_from_dict(doc: dict) -> tuple[BinaryMRF, list[list[int]] | None, dict]:
    """Parse a model document; returns (model, rotations or None, meta).

    Edge endpoints are normalized to i < j and parallel entries are merged
    by summing their weights; self-loops are rejected by the model type.
    """
    n = doc["num_nodes"]
    if not isinstance(n, int) or n < 0:
        raise ValueError("num_nodes must be a non-negative integer")
    merged: dict[tuple[int, int], float] = {}
    order: list[tuple[int, int]] = []
    for e in doc.get("edges", []):
        i, j, w = int(e[0]), int(e[1]), _num(e[2])
        if i > j:
            i, j = j, i
        if (i, j) not in merged:
            merged[(i, j)] = w
            order.append((i, j))
        else:
            merged[(i, j)] += w
    edges = tuple((i, j, merged[(i, j)]) for (i, j) in order)
    unary = tuple(_num(v) for v in doc.get("unary", [0] * n))
    constant = _num(doc.get("constant", 0))
    model = BinaryMRF(n, edges, unary, constant)
    rotations = None
    if "embedding" in doc:
        rotations = [list(map(int, r)) for r in doc["embedding"]["rotations"]]
    meta = doc.get("meta", {}) or {}
    return model, rotations, meta


def save_model(
    path: str | Path,
    model: BinaryMRF,
    rotations: Sequence[Sequence[int]] | None = None,
    meta: dict | None = None,
) -> None:
    Path(path).write_text(
        json.dumps(model_to_dict(model, rotations, meta)) + "\n"
    )


def load_model(path: str | Path) -> tuple[BinaryMRF, list[list[int]] | None, dict]:
    with open(path) as fh:
        return model_from_dict(json.load(fh))
