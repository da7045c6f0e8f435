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

    Only helpers that ``cedsenum.graph`` still defines can be bound.  It no
    longer defines two, so their spans read 0 by design.
    ``_components_masks``: the oracle tests the whole set, since a set that
    contains a CEDS is one.  ``_pendant_items``: its one caller,
    ``neighbors._view``, reads the pendant items off the leaves it has
    already found, instead of walking the solution a second time."""
    tracing = _tracing_module()
    live = [attr for attr in tracing.GRAPH_HELPERS if hasattr(cedsenum.graph, attr)]
    assert sorted(set(tracing.GRAPH_HELPERS) - set(live)) == [
        "_components_masks", "_pendant_items",
    ]
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
    # each candidate mask is built once per expansion, so none is a repeat
    assert tracer.counts["neighbors.cache_hits"] == 0
    assert cedsenum.neighbors._consider is consider
    assert cedsenum.enumeration.all_neighbors is cedsenum.neighbors.all_neighbors


def test_move_counts_are_pinned_on_the_golden_kbest_instance():
    """The k=20 run of the golden digest test.  A faster candidate path
    must still build the same distinct candidates, minimalize as often and
    self-check every solution the run inserts into its visited set, once.
    Each candidate is built once per expansion, as the tree the DFS would
    keep of it, so the cache is never hit, no DFS runs on the candidate
    path, and the moves build CEDS by construction, so no candidate is
    CEDS-tested.  Unbounded, the 19 expansions build 145 Type I, 106 Type
    II and 70 Type III candidates.  Once the pending list has a bound, the
    moves skip the candidates that provably minimalize to a solution at or
    above it, 62 of Type I, 41 of Type II and 30 of Type III here, so 83,
    65 and 40 candidates are minimalized.  All three skip by the full
    solution order.  The bound is the largest entry of a pending list cut
    to ``k - o`` entries after every batch.  The skipped solutions never
    reached a batch, so the batches are the unbounded ones without them and
    without what the pending list would not keep.  The seed minimalizes
    each of its 13 distinct pruned DFS trees once.  The start is asserted in the traversal itself, outside
    the ``ceds.self_check`` span, so the span counts the 22 inserted masks
    of the 99 batch items: ``all_neighbors`` also leaves out every
    solution at or above the bound, and every one above the ``(k - o)``-th
    smallest of the pending list and the batch, unchecked."""
    g = random_connected_graph(14, 0.18, 8)
    stats = []
    tracer = _traced(
        lambda: stats.append(cedsenum.enumeration.enumerate_kbest(g, 20, lambda sol: None))
    )
    counts = {
        "neighbors.candidates.type1": 83,
        "neighbors.candidates.type2": 65,
        "neighbors.candidates.type3": 40,
        "neighbors.cache_hits": 0,
        "neighbors.batch_items": 99,
    }
    assert {name: tracer.counts[name] for name in counts} == counts
    assert tracer.calls["ceds.minimalize"] == 83 + 65 + 40 + 13
    assert tracer.calls["ceds.self_check"] == stats[0].peak_visited - 1 == 22
    assert tracer.calls["ceds.is_ceds"] == 0
    assert tracer.calls["graph.spanning_tree"] == 0
