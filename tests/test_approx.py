"""The deterministic seed construction and its observed quality."""

from __future__ import annotations

import hashlib
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cedsenum import (
    approx_min_ceds,
    brute_force_minimal_ceds,
    is_minimal_ceds,
    min_ceds_is_singleton,
)
from cedsenum.corpus import random_connected_graph, random_corpus, tiny_corpus
from cedsenum.graph import _dfs_edges, _spanning_tree_mask
from reference import single_dfs_seed

PROPERTY_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def test_path_seed_is_optimal(p5):
    report = approx_min_ceds(p5)
    assert report.solution.canonical_key == (1, 2)
    assert report.lower_bound == 2
    assert report.observed_ratio_bound == 1


def test_cycle_seed(c5):
    report = approx_min_ceds(c5)
    assert report.solution.size == 3
    assert report.lower_bound == 2
    assert report.observed_ratio_bound == Fraction(3, 2)


def test_complete_bipartite_seed(k23):
    report = approx_min_ceds(k23)
    assert report.solution.size == 2
    assert report.observed_ratio_bound == 1


def test_seed_is_certified(c5, k23):
    for g in (c5, k23):
        sol = approx_min_ceds(g).solution
        assert is_minimal_ceds(g, sol.mask)


def test_seed_is_deterministic(c5):
    assert approx_min_ceds(c5) == approx_min_ceds(c5)


def test_seed_digest_is_pinned():
    """The seed masks of every non-trivial corpus graph and of the k-best
    benchmark instance, in order.  A change to the seed construction that
    is meant to change seeds re-records the digest on purpose; it was
    last re-recorded when the seed became the smallest over a DFS tree
    from every root."""
    h = hashlib.sha256()
    seeded = 0
    for g in [*tiny_corpus(), *random_corpus(), random_connected_graph(30, 0.15, 5)]:
        if min_ceds_is_singleton(g) is None:
            h.update(f"{approx_min_ceds(g).solution.mask:x}\n".encode())
            seeded += 1
    assert (seeded, h.hexdigest()) == (
        703, "08e3548da0ecfc4f08cd41b06ba6e7999e964cdb8bf8faa76c22a67835fefe35"
    )


def test_seed_is_never_larger_than_the_single_dfs_seed():
    """The seed is the smallest over a DFS tree from every root and the one
    tree it was once built from alone, so it is never larger than that
    tree's seed, and on the k-best benchmark instance it is smaller.  That
    tree is ``_spanning_tree_mask`` of all edges, the tree edges of
    ``_dfs_edges`` from vertex 0 over ``g.adjacency``: ascending edge
    order."""
    sizes = []
    for g in [*tiny_corpus(), *random_corpus(), random_connected_graph(30, 0.15, 5)]:
        if min_ceds_is_singleton(g) is None:
            walk = _dfs_edges(g.adjacency, 0, g.all_edges_mask)
            assert sum(1 << h for *_, h in walk) == _spanning_tree_mask(g, g.all_edges_mask)
            sizes.append((approx_min_ceds(g).solution.size, single_dfs_seed(g).size))
    assert len(sizes) == 703
    assert all(new <= old for new, old in sizes)
    assert sizes[-1] == (16, 22)


def test_every_edge_off_a_dfs_tree_joins_an_ancestor_to_a_descendant():
    """Savage's precondition, on which the seed's CEDS and its certificate
    rest: every edge outside a depth-first search tree joins an ancestor
    to a descendant.  Checked for the walk from every root, over both
    neighbour orders ``approx_min_ceds`` uses (``g.adjacency``, and
    descending degree then ascending edge index), on every non-trivial
    corpus graph and both benchmark instances.  The walk hands out each
    parent before its children and spans the graph."""
    graphs = [*tiny_corpus(), *random_corpus()]
    graphs += [random_connected_graph(14, 0.3, 3), random_connected_graph(30, 0.15, 5)]
    graphs = [g for g in graphs if min_ceds_is_singleton(g) is None]
    assert len(graphs) == 704
    for g in graphs:
        deg = g.degrees
        by_degree = [sorted(adj, key=lambda wh: (-deg[wh[0]], wh[1])) for adj in g.adjacency]
        for adjacency in (g.adjacency, by_degree):
            for root in range(g.n):
                anc = {root: 1 << root}  # each vertex's ancestors, itself included
                tree = 0
                for u, w, h in _dfs_edges(adjacency, root, g.all_edges_mask):
                    assert u in anc and w not in anc and g.edge_vmask[h] == 1 << u | 1 << w
                    anc[w] = anc[u] | 1 << w
                    tree |= 1 << h
                assert len(anc) == g.n
                for h, (a, b) in enumerate(g.edges):
                    assert tree >> h & 1 or anc[a] >> b & 1 or anc[b] >> a & 1


def test_trivial_instances_are_rejected(star3, triangle):
    for g in (star3, triangle):
        with pytest.raises(ValueError, match="trivial"):
            approx_min_ceds(g)


@given(st.integers(min_value=0, max_value=199), st.integers(min_value=6, max_value=8))
@PROPERTY_SETTINGS
def test_seed_stays_within_twice_the_optimum(seed, n):
    g = random_connected_graph(n, 0.5, seed)
    if min_ceds_is_singleton(g) is not None:
        return
    report = approx_min_ceds(g)
    optimum = brute_force_minimal_ceds(g)[0].size
    assert report.solution.size <= 2 * optimum
    assert report.lower_bound <= optimum
    assert report.observed_ratio_bound == Fraction(report.solution.size, report.lower_bound)
