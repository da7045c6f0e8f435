"""Corpus generators: exhaustive tiny graphs and seeded random ones."""

from __future__ import annotations

import pytest

from cedsenum.corpus import (
    all_connected_graphs,
    random_connected_graph,
    random_corpus,
    tiny_corpus,
)


def test_labeled_connected_graph_counts():
    # 1, 4, and 38 labeled connected graphs on two, three, and four vertices.
    assert len(all_connected_graphs(2)) == 1
    assert len(all_connected_graphs(3)) == 4
    assert len(all_connected_graphs(4)) == 38


def test_tiny_corpus_is_the_full_sweep_up_to_five_vertices():
    graphs = tiny_corpus()
    assert len(graphs) == 1 + 4 + 38 + 728
    assert {g.n for g in graphs} == {2, 3, 4, 5}
    # distinct as labeled graphs: undo the first-appearance relabeling
    seen = {
        (g.n, frozenset(frozenset((g.labels[u], g.labels[v])) for u, v in g.edges))
        for g in graphs
    }
    assert len(seen) == len(graphs)


def test_random_connected_graph_is_seeded():
    a = random_connected_graph(7, 0.4, seed=11)
    b = random_connected_graph(7, 0.4, seed=11)
    assert a == b
    assert a.n == 7


def test_random_connected_graph_extremes():
    complete = random_connected_graph(5, 1.0, seed=0)
    assert complete.m == 10
    with pytest.raises(ValueError, match="at least 2"):
        random_connected_graph(1, 0.5, seed=0)
    with pytest.raises(ValueError, match="probability"):
        random_connected_graph(5, 1.5, seed=0)
    with pytest.raises(ValueError, match=r"must be in \(0, 1\], got 0.0"):
        random_connected_graph(3, 0.0, seed=0)
    with pytest.raises(ValueError, match="no connected sample"):
        random_connected_graph(3, 1e-9, seed=0, max_tries=50)


def test_random_corpus_shape():
    graphs = random_corpus()
    assert len(graphs) == 200
    assert {g.n for g in graphs} == {6, 7, 8, 9}
    again = random_corpus()
    assert graphs[0] == again[0]
    assert graphs[-1] == again[-1]
