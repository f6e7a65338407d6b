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

A model reads its edges once, when it is validated, and keeps the reading:
read-only int64 endpoint arrays and an ``is_integer`` flag.  Its weights
are read exactly once, on first use (``exact_weights``), and every int64
sum decides its exactness by one rule (``_sums_fit_int64``).  ``pcc``,
``ising`` and ``oracle`` use these instead of arrays of their own.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import itemgetter
from pathlib import Path
from typing import Sequence

import numpy as np

from .embedding import _read_only
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


def _check_endpoints(num_nodes: int, u: np.ndarray, v: np.ndarray) -> None:
    """The one edge validator, of models and of ``build_expanded_dual``'s
    topology form: reject self-loops, int64 endpoints not 0 <= u[t] < v[t]
    < num_nodes and repeated edges."""
    loop = np.flatnonzero(u == v)
    if loop.size:
        raise ValueError(f"self-loop at node {u[loop[0]]}")
    bad = np.flatnonzero((u < 0) | (u >= v) | (v >= num_nodes))
    if bad.size:
        t = bad[0]
        raise ValueError(f"edge ({u[t]},{v[t]}) out of range or not i<j")
    key = np.sort(u * num_nodes + v)
    repeated = np.flatnonzero(key[1:] == key[:-1])
    if repeated.size:
        i, j = divmod(int(key[repeated[0]]), num_nodes)
        raise ValueError(f"duplicate edge ({i},{j})")


def _endpoint_array(ends: tuple) -> np.ndarray:
    """``ends`` as an int64 array; ValueError unless each is an integer
    within int64 (a cast would truncate 1.5 to 1)."""
    a = np.array(ends)
    if a.size and (a.dtype.kind not in "iu" or a.max() > np.iinfo(np.int64).max):
        raise ValueError("edges must list integer endpoints within int64")
    return a.astype(np.int64, copy=False)


def _python_numbers(weights: tuple) -> tuple[tuple, bool]:
    """(``weights`` with numpy integers and floats as the Python numbers
    they equal, ``weights`` itself when it holds none; whether every one is
    an int)."""
    types = set(map(type, weights))
    if any(issubclass(t, (np.integer, np.floating)) for t in types):
        weights = tuple(
            int(w) if isinstance(w, np.integer) else float(w) if isinstance(w, np.floating) else w
            for w in weights
        )
        types = set(map(type, weights))
    return weights, all(issubclass(t, int) for t in types)


def _read_edges(model: BinaryMRF | SymmetricIsing) -> None:
    """Validate ``model.edges`` in the model's one reading of them: store
    them with numpy weights as the Python numbers they equal, their
    endpoints as the read-only int64 arrays ``edge_u`` and ``edge_v``, and
    whether every edge weight is an int as ``is_integer``."""
    ends_u, ends_v, weights = zip(*model.edges, strict=True) if model.edges else ((), (), ())
    w, integer = _python_numbers(weights)
    u, v = _endpoint_array(ends_u), _endpoint_array(ends_v)
    _check_endpoints(model.num_nodes, u, v)
    if not integer:
        for t, x in enumerate(w):
            if not math.isfinite(x):
                raise ValueError(f"edge ({u[t]},{v[t]}) has non-finite weight")
    _read_only(u, v)
    if w is not weights:
        object.__setattr__(model, "edges", tuple(zip(ends_u, ends_v, w)))
    object.__setattr__(model, "edge_u", u)
    object.__setattr__(model, "edge_v", v)
    object.__setattr__(model, "is_integer", integer)


def _sums_fit_int64(largest: int, terms: int) -> bool:
    """The one int64 rule: every partial sum of ``terms`` integers of
    magnitude at most ``largest`` stays below 2**62, so int64 sums them, and
    adds or subtracts two such sums, exactly."""
    return largest * terms < 2**62


def _max_abs(a: np.ndarray) -> int:
    """The largest |a[i]| as a Python int (0 when a is empty); exact where
    ``np.abs`` wraps."""
    return max(int(a.max(initial=0)), -int(a.min(initial=0)))


def _exact_reading(weights: list, integer: bool, constant=0) -> tuple[int, np.ndarray]:
    """``weights`` read exactly: (den, read-only numerators), each weight
    its numerator over den.  Integer weights (``integer``) have den 1, and
    int64 numerators where ``_sums_fit_int64`` holds for them and
    ``constant``.  Otherwise the numerators are Python ints in an object
    array: a float is a dyadic rational, so it is an exact integer over den,
    the lcm of the weights' denominators (a power of two)."""
    den = 1
    if not integer:
        ratios = [Fraction(x) for x in weights]
        den = math.lcm(*(r.denominator for r in ratios))
        weights = [int(r * den) for r in ratios]
    fits = integer and _sums_fit_int64(max(map(abs, (*weights, constant))), len(weights) + 1)
    w = np.array(weights, dtype=np.int64 if fits else object)
    _read_only(w)
    return den, w


@dataclass(frozen=True)
class BinaryMRF:
    """Pairwise binary MRF with disagreement costs and unary terms.

    Fields:
        num_nodes: number of variables.
        edges: tuple of (i, j, theta_ij) with i < j, no duplicates.
        unary: per-node theta_i, length num_nodes.
        constant: additive energy offset.

    numpy integer and float weights are stored as the Python numbers they
    equal.  Validation reads the edges once and keeps ``edge_u`` and
    ``edge_v``, the endpoints as read-only int64 arrays, and ``is_integer``,
    True when every weight and the constant is an int; equality and hashing
    use the four fields above.
    """

    num_nodes: int
    edges: tuple[tuple[int, int, float], ...]
    unary: tuple[float, ...]
    constant: float = 0
    edge_u: np.ndarray = field(init=False, repr=False, compare=False)
    edge_v: np.ndarray = field(init=False, repr=False, compare=False)
    is_integer: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.num_nodes < 0:
            raise ValueError("num_nodes must be non-negative")
        if len(self.unary) != self.num_nodes:
            raise SizeMismatchError(
                f"unary has {len(self.unary)} entries, expected {self.num_nodes}"
            )
        _read_edges(self)
        values, integer = _python_numbers((*self.unary, self.constant))
        for i, w in enumerate(() if integer else values):
            if not math.isfinite(w):
                what = "constant" if i == self.num_nodes else f"unary {i}"
                raise ValueError(f"{what} is non-finite")
        object.__setattr__(self, "unary", values[:-1])
        object.__setattr__(self, "constant", values[-1])
        object.__setattr__(self, "is_integer", self.is_integer and integer)

    @cached_property
    def exact_weights(self) -> tuple[int, np.ndarray, np.ndarray]:
        """The model's one exact weight reading, made on first use: (den,
        edge numerators, unary numerators), see ``_exact_reading``; the
        constant counts as one more term."""
        m = len(self.edges)
        den, w = _exact_reading(
            [*map(itemgetter(2), self.edges), *self.unary], self.is_integer, self.constant
        )
        return den, w[:m], w[m:]


@dataclass(frozen=True)
class SymmetricIsing:
    """Unary-free binary model: only pairwise disagreement costs.

    Its energy is invariant under flipping all labels.  numpy integer and
    float weights are stored as the Python numbers they equal, and the
    edges are read once, as ``BinaryMRF`` reads them.
    """

    num_nodes: int
    edges: tuple[tuple[int, int, float], ...]
    edge_u: np.ndarray = field(init=False, repr=False, compare=False)
    edge_v: np.ndarray = field(init=False, repr=False, compare=False)
    is_integer: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _read_edges(self)

    @cached_property
    def exact_weights(self) -> tuple[int, np.ndarray, np.ndarray]:
        """As ``BinaryMRF.exact_weights``, with no unary numerators."""
        den, w = _exact_reading([*map(itemgetter(2), self.edges)], self.is_integer)
        return den, w, w[:0]


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
