"""Ground-truth subset search and the executable structural checks."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cedsenum import (
    Solution,
    TooLargeError,
    brute_force_minimal_ceds,
    build_supergraph,
    enumerate_kbest,
    oracle,
)
from cedsenum.ceds import _is_ceds_mask
from cedsenum.corpus import random_connected_graph, tiny_corpus
from cedsenum.enumeration import initial_solution
from cedsenum.oracle import (
    FAIL,
    SupergraphSnapshot,
    _contains_ceds_mask,
    _kbest_prefix_witness,
    _path_size_witness,
    _strong_connectivity_witness,
    is_minimal_ceds_definitional,
    verify_graph,
)
from reference import is_minimal_ceds_by_subsets

PROPERTY_SETTINGS = settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _keys(solutions):
    return [s.canonical_key for s in solutions]


# ---------------------------------------------------------------------------
# Brute-force searches


def test_brute_force_frozen_results(p5, c5, k2, k23_plus):
    assert _keys(brute_force_minimal_ceds(p5)) == [(1, 2)]
    assert _keys(brute_force_minimal_ceds(c5)) == [
        (0, 1, 2),
        (0, 1, 4),
        (0, 3, 4),
        (1, 2, 3),
        (2, 3, 4),
    ]
    assert _keys(brute_force_minimal_ceds(k2)) == [(0,)]
    assert _keys(brute_force_minimal_ceds(k23_plus)) == [
        (0,),
        (1, 4),
        (2, 5),
        (3, 6),
        (1, 2, 3),
        (4, 5, 6),
    ]


def test_brute_force_sorts_by_size_then_key(k23):
    assert _keys(brute_force_minimal_ceds(k23)) == [
        (0, 3),
        (1, 4),
        (2, 5),
        (0, 1, 2),
        (3, 4, 5),
    ]


def test_pruned_search_agrees_with_the_naive_one(p5, c5, k23, k23_plus):
    """The pruned oracle against an unpruned filter of all 2^m subsets,
    each tested against every proper subset of it."""
    for g in (p5, c5, k23, k23_plus, *tiny_corpus()[::13]):
        naive = sorted(
            Solution(mask) for mask in range(1, 1 << g.m) if is_minimal_ceds_by_subsets(g, mask)
        )
        assert _keys(naive) == _keys(brute_force_minimal_ceds(g))


def test_scale_caps(c5):
    with pytest.raises(TooLargeError, match="above the oracle cap"):
        brute_force_minimal_ceds(c5, max_edges=3)


# ---------------------------------------------------------------------------
# Definitional minimality


def test_definitional_minimality(c5, p5):
    for minimal in (is_minimal_ceds_definitional, is_minimal_ceds_by_subsets):
        assert minimal(c5, 0b00111)
        assert not minimal(c5, 0b01111)
        assert not minimal(p5, 0b0011)
        assert not minimal(p5, 0)


@given(st.integers(min_value=4, max_value=14), st.integers(min_value=0, max_value=10_000))
@PROPERTY_SETTINGS
def test_contains_ceds_collapses_to_the_predicate(n, seed):
    """"Some component of the set is a CEDS" is decided here on its own: a
    union-find splits the picked edges, and a component qualifies when
    every edge of the graph has an endpoint among its vertices.  Both the
    oracle's test and the CEDS predicate of the whole set must agree."""
    rng = random.Random(seed)
    g = random_connected_graph(n, 0.5, seed)
    density = rng.random()
    picked = [e for e in range(g.m) if rng.random() < density]
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        parent.setdefault(x, x)
        while parent[x] != x:
            x = parent[x]
        return x

    for e in picked:
        u, v = g.edges[e]
        parent[find(u)] = find(v)
    comp_vertices: dict[int, set[int]] = {}
    for e in picked:
        comp_vertices.setdefault(find(g.edges[e][0]), set()).update(g.edges[e])
    expected = any(
        all(u in vs or v in vs for u, v in g.edges) for vs in comp_vertices.values()
    )
    mask = sum(1 << e for e in picked)
    assert _contains_ceds_mask(g, mask) == expected
    assert _is_ceds_mask(g, mask) == expected


# ---------------------------------------------------------------------------
# Supergraph snapshots


def test_build_supergraph_path(p5):
    snapshot = build_supergraph(p5)
    assert len(snapshot.nodes) == 1
    assert snapshot.arcs == {snapshot.nodes[0]: ()}


def test_build_supergraph_cycle(c5):
    snapshot = build_supergraph(c5)
    assert len(snapshot.nodes) == 5
    assert sum(map(len, snapshot.arcs.values())) == 18
    assert all(len(targets) >= 1 for targets in snapshot.arcs.values())
    assert _strong_connectivity_witness(snapshot) is None


def test_build_supergraph_accepts_precomputed_solutions(c5):
    sols = brute_force_minimal_ceds(c5)
    snapshot = build_supergraph(c5, solutions=sols)
    assert snapshot.arcs == build_supergraph(c5).arcs


def test_build_supergraph_rejects_trivial_instances(star3):
    with pytest.raises(ValueError, match="trivial"):
        build_supergraph(star3)


def test_strong_connectivity_detects_missing_return_paths(c5):
    a, b = Solution(0b00111), Solution(0b01110)
    one_way = SupergraphSnapshot(nodes=[a, b], arcs={a: (b,), b: ()})
    assert _strong_connectivity_witness(one_way) == (b, a)
    other_way = SupergraphSnapshot(nodes=[a, b], arcs={a: (), b: (a,)})
    assert _strong_connectivity_witness(other_way) == (a, b)
    lone = SupergraphSnapshot(nodes=[a], arcs={a: ()})
    assert _strong_connectivity_witness(lone) is None


# ---------------------------------------------------------------------------
# Bounds


def _best_first_sizes(g):
    order = []
    enumerate_kbest(g, None, order.append)
    return [s.size for s in order]


def test_kbest_prefix_bound(p5, c5, k23):
    assert _kbest_prefix_witness(_best_first_sizes(c5), Fraction(4)) is None
    assert _kbest_prefix_witness(_best_first_sizes(p5), Fraction(4)) is None  # one solution
    assert _kbest_prefix_witness(_best_first_sizes(k23), Fraction(1)) is None
    assert _kbest_prefix_witness(_best_first_sizes(k23), Fraction(9, 10)) == (1, 2, 2)


def test_kbest_prefix_bound_validates_the_solution_list(c5, monkeypatch):
    real = oracle.brute_force_minimal_ceds
    monkeypatch.setattr(oracle, "brute_force_minimal_ceds", lambda g, **kw: real(g, **kw)[:1])
    rows = {r.name: r for r in verify_graph(c5)}
    assert rows["kbest-prefix-bound"].status == FAIL
    assert rows["kbest-prefix-bound"].text.endswith("not in oracle")


def test_path_size_bound(p5, c5, k23):
    for g in (p5, c5, k23):
        assert _path_size_witness(g, build_supergraph(g)) is None
    nodes = build_supergraph(c5).nodes
    cut = SupergraphSnapshot(nodes, {s: () for s in nodes})  # no moves at all
    assert _path_size_witness(c5, cut) == next(s for s in nodes if s != initial_solution(c5))


def test_bound_checks_respect_the_scale_cap(c5):
    with pytest.raises(TooLargeError):
        build_supergraph(c5, max_edges=2)
    with pytest.raises(TooLargeError):
        next(verify_graph(c5, max_edges=2))


def test_verify_graph_accepts_both_hub_stars(k23_plus):
    row = next(r for r in verify_graph(k23_plus) if r.name == "trivial-fast-path")
    assert (row.status, row.figures) == ("PASS", {"hub_stars": 2})
