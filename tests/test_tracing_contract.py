"""The benchmark's tracer (perfbench/tracing.py) wraps solver functions by
name and reaches them through module globals.  This guards that contract
from the library side: a refactor that drops or bypasses a wrapped name
fails here, not only in the benchmark's own self-test."""

import random
from pathlib import Path

import pytest

from planarcc import SymmetricIsing, ground_state, optimize

from conftest import random_grid_model

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    return tracing


def test_tracer_sees_kernel_and_port_graph(tracing, engine):
    model, emb = random_grid_model(random.Random(3), 3, 3, a_scaled=400)
    ising = SymmetricIsing(model.num_nodes, model.edges)
    # Entering the tracer looks up every wrapped name.
    with tracing.Tracer() as tracer:
        optimize(model, emb, max_iters=5)
        runs = [tracer.take()]
        ground_state(ising, emb)
        runs.append(tracer.take())
    assert tracer.kernel_traced
    for spans, ports in runs:
        names = {name for (name, _, _) in spans}
        assert {"matching.solve", "ising.build_expanded_dual"} <= names
        assert "embedding.faces" in names
        assert ports and all(p > 0 for (p, _) in ports)


def test_tracer_sees_every_layer_on_a_warm_embedding(tracing, engine):
    # The embedding keeps its faces and port graphs after the first runs;
    # the second runs must still call every wrapped name.
    model, emb = random_grid_model(random.Random(4), 3, 3, a_scaled=400)
    ising = SymmetricIsing(model.num_nodes, model.edges)
    optimize(model, emb, max_iters=5)
    ground_state(ising, emb)
    with tracing.Tracer() as tracer:
        optimize(model, emb, max_iters=5)
        runs = [tracer.take()]
        ground_state(ising, emb)
        runs.append(tracer.take())
    for spans, ports in runs:
        names = {name for (name, _, _) in spans}
        assert {"embedding.faces", "ising.build_expanded_dual", "matching.solve"} <= names
        assert ports and all(p > 0 for (p, _) in ports)
