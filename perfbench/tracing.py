"""Spans around the solver functions that planarcc looks up at call time.

A traced run replaces module attributes of ``planarcc.pcc``,
``planarcc.ising`` and the matching engine modules with timing wrappers,
and puts the originals back on exit.  Nothing under ``src/`` is edited:
the solver reaches these functions through module globals (and
``VariationalParams.apply_step`` through its class), so a wrapper sees
every call.  The only private name used is the engine entry
``solve_max_weight_matching``, which ``planarcc.pcc`` calls directly,
bypassing the public matching API; when no engine module has it, the
kernel spans are missing and ``kernel_traced`` is False.
"""

from __future__ import annotations

import functools
import sys
import time

import planarcc.ising
import planarcc.pcc

ENGINE_ENTRY = "solve_max_weight_matching"


def _targets():
    """(owner, attribute, span name) for every wrapped function."""
    pcc, ising = planarcc.pcc, planarcc.ising
    yield pcc, "build_pcc", "pcc.build_pcc"
    yield pcc, "init_params", "pcc.init_params"
    yield pcc, "faces", "embedding.faces"
    yield pcc, "build_expanded_dual", "ising.build_expanded_dual"
    yield pcc, "decode_upper", "pcc.decode_upper"
    yield pcc, "subgradient", "pcc.subgradient"
    yield pcc, "polyak_step", "pcc.polyak_step"
    yield pcc.VariationalParams, "apply_step", "pcc.apply_step"
    yield ising, "faces", "embedding.faces"
    yield ising, "build_expanded_dual", "ising.build_expanded_dual"
    yield ising, "min_weight_perfect_matching", "ising.min_weight_perfect_matching"
    yield ising, "decode_matching", "ising.decode_matching"
    for name, module in sorted(sys.modules.items()):
        if name.startswith("planarcc.matching.") and hasattr(module, ENGINE_ENTRY):
            yield module, ENGINE_ENTRY, "matching.solve"


class Tracer:
    """Records (name, start, end) spans in memory while installed.

    ``ports`` holds (ports, port edges) of every port graph built.
    """

    def __init__(self):
        self.spans: list[tuple[str, float, float]] = []
        self.ports: list[tuple[int, int]] = []
        self.kernel_traced = False
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name):
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans.append((name, t0, clock()))

        return wrapper

    def _wrap_dual(self, fn):
        inner = self._wrap(fn, "ising.build_expanded_dual")
        ports = self.ports

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            dual = inner(*args, **kwargs)
            ports.append((dual.num_ports, len(dual.match_graph.edges)))
            return dual

        return wrapper

    def __enter__(self) -> "Tracer":
        for owner, attr, name in _targets():
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            if name == "ising.build_expanded_dual":
                setattr(owner, attr, self._wrap_dual(original))
            else:
                setattr(owner, attr, self._wrap(original, name))
            self.kernel_traced |= name == "matching.solve"
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def take(self) -> tuple[list[tuple[str, float, float]], list[tuple[int, int]]]:
        """Spans and port counts recorded since the last take."""
        spans, ports = self.spans[:], self.ports[:]
        self.spans.clear()
        self.ports.clear()
        return spans, ports
