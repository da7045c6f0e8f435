"""The benchmark tracer still binds to the names it rebinds in the package,
and the move counts it reads stay fixed on a pinned instance."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import cedsenum
from cedsenum.corpus import random_connected_graph

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("cedsenum_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def _traced(run):
    """Run ``run()`` under a fresh ``Tracer`` and return the tracer."""
    tracer = _tracing_module().Tracer(cedsenum)
    tracer.install()
    try:
        run()
    finally:
        tracer.remove()
    return tracer


def test_every_graph_helper_span_has_a_binding():
    """A helper the tracer rebinds in no module would read 0 calls in every
    run; dropping the last import of one must show up here instead.

    Only helpers that ``cedsenum.graph`` still defines can be bound.  The
    one it no longer defines is ``_components_masks``: the oracle tests the
    whole set, since a set that contains a CEDS is one, so its
    ``graph.components`` span reads 0 by design."""
    tracing = _tracing_module()
    live = [attr for attr in tracing.GRAPH_HELPERS if hasattr(cedsenum.graph, attr)]
    assert sorted(set(tracing.GRAPH_HELPERS) - set(live)) == ["_components_masks"]
    unbound = [
        attr
        for attr in live
        if not any(hasattr(getattr(cedsenum, m), attr) for m in tracing.HELPER_BINDERS)
    ]
    assert unbound == []


def test_tracer_counts_the_hot_path(c5):
    consider = cedsenum.neighbors._consider
    got = []
    tracer = _traced(lambda: cedsenum.enumeration.enumerate_kbest(c5, 3, got.append))
    assert len(got) == 3
    assert tracer.calls["enumeration.run"] == 1
    assert tracer.calls["neighbors.all"] > 0
    assert tracer.calls["ceds.minimalize"] > 0
    for kind in ("type1", "type2", "type3"):
        assert tracer.counts[f"neighbors.candidates.{kind}"] > 0
    assert cedsenum.neighbors._consider is consider
    assert cedsenum.enumeration.all_neighbors is cedsenum.neighbors.all_neighbors


def test_move_counts_are_pinned_on_the_golden_kbest_instance():
    """The k=20 run of the golden digest test.  A faster candidate path
    must still try the same moves, hit the cache as often, minimalize as
    often and self-check every batch item.  The moves build CEDS by
    construction, so no candidate is CEDS-tested."""
    g = random_connected_graph(14, 0.18, 8)
    tracer = _traced(lambda: cedsenum.enumeration.enumerate_kbest(g, 20, lambda sol: None))
    counts = {
        "neighbors.candidates.type1": 717,
        "neighbors.candidates.type2": 321,
        "neighbors.candidates.type3": 69,
        "neighbors.cache_hits": 779,
        "neighbors.batch_items": 230,
    }
    assert {name: tracer.counts[name] for name in counts} == counts
    assert tracer.calls["ceds.minimalize"] == 329
    assert tracer.calls["ceds.self_check"] == 230
    assert tracer.calls["ceds.is_ceds"] == 0
