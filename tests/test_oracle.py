"""Ground-truth subset search and the executable structural checks."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cedsenum import (
    EdgeSet,
    TooLargeError,
    brute_force_minimal_ceds,
    build_supergraph,
)
from cedsenum.ceds import is_ceds, solution_from_edges
from cedsenum.corpus import random_connected_graph, tiny_corpus
from cedsenum.oracle import (
    SupergraphSnapshot,
    brute_force_naive,
    check_kbest_prefix_bound,
    check_path_size_bound,
    check_strong_connectivity,
    contains_ceds,
    is_minimal_ceds_by_subsets,
    is_minimal_ceds_definitional,
)

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
    for g in (p5, c5, k23, k23_plus):
        assert _keys(brute_force_naive(g)) == _keys(brute_force_minimal_ceds(g))
    for g in tiny_corpus()[::13]:
        assert _keys(brute_force_naive(g)) == _keys(brute_force_minimal_ceds(g))


def test_scale_caps(c5):
    with pytest.raises(TooLargeError, match="above the oracle cap"):
        brute_force_minimal_ceds(c5, max_edges=3)
    with pytest.raises(TooLargeError):
        brute_force_naive(c5, max_edges=4)


# ---------------------------------------------------------------------------
# Definitional minimality


def test_definitional_minimality(c5, p5):
    assert is_minimal_ceds_definitional(c5, EdgeSet([0, 1, 2]))
    assert not is_minimal_ceds_definitional(c5, EdgeSet([0, 1, 2, 3]))
    assert not is_minimal_ceds_definitional(p5, EdgeSet([0, 1]))
    assert is_minimal_ceds_by_subsets(c5, EdgeSet([0, 1, 2]))
    assert not is_minimal_ceds_by_subsets(c5, EdgeSet([0, 1, 2, 3]))
    assert not is_minimal_ceds_by_subsets(p5, EdgeSet([0, 1]))


@given(st.integers(min_value=0, max_value=10_000))
@PROPERTY_SETTINGS
def test_contains_ceds_collapses_to_the_predicate(seed):
    # Domination glues everything to the dominating component, so "some
    # component is a CEDS" can only hold when the whole set is one.
    rng = random.Random(seed)
    g = random_connected_graph(6, 0.5, seed)
    s = EdgeSet(e for e in range(g.m) if rng.random() < 0.5)
    assert contains_ceds(g, s) == is_ceds(g, s)


# ---------------------------------------------------------------------------
# Supergraph snapshots


def test_build_supergraph_path(p5):
    snapshot = build_supergraph(p5)
    assert snapshot.node_count == 1
    assert snapshot.arc_count == 0
    assert snapshot.to_text(p5) == "1-2 2-3 -> \n"


def test_build_supergraph_cycle(c5):
    snapshot = build_supergraph(c5)
    assert snapshot.node_count == 5
    assert snapshot.arc_count == 18
    assert all(len(targets) >= 1 for targets in snapshot.arcs.values())
    assert check_strong_connectivity(snapshot)
    for line in snapshot.to_text(c5).splitlines():
        assert " -> " in line and " | " in line


def test_build_supergraph_accepts_precomputed_solutions(c5):
    sols = brute_force_minimal_ceds(c5)
    snapshot = build_supergraph(c5, solutions=sols)
    assert snapshot.arcs == build_supergraph(c5).arcs


def test_build_supergraph_rejects_trivial_instances(star3):
    with pytest.raises(ValueError, match="trivial"):
        build_supergraph(star3)


def test_strong_connectivity_detects_missing_return_paths(c5):
    a = solution_from_edges(c5, [0, 1, 2])
    b = solution_from_edges(c5, [1, 2, 3])
    one_way = SupergraphSnapshot(nodes=[a, b], arcs={a: (b,), b: ()})
    assert not check_strong_connectivity(one_way)
    lone = SupergraphSnapshot(nodes=[a], arcs={a: ()})
    assert check_strong_connectivity(lone)


# ---------------------------------------------------------------------------
# Bounds


def test_kbest_prefix_bound(p5, c5, k23):
    assert check_kbest_prefix_bound(c5, Fraction(4))
    assert check_kbest_prefix_bound(p5, Fraction(4))  # vacuous: one solution
    assert check_kbest_prefix_bound(k23, Fraction(1))
    assert not check_kbest_prefix_bound(k23, Fraction(9, 10))


def test_kbest_prefix_bound_validates_the_solution_list(c5):
    sols = brute_force_minimal_ceds(c5)
    with pytest.raises(AssertionError, match="does not match the oracle"):
        check_kbest_prefix_bound(c5, Fraction(4), solutions=sols[:1])


def test_path_size_bound(p5, c5, k23):
    assert check_path_size_bound(p5)
    assert check_path_size_bound(c5)
    assert check_path_size_bound(k23)
    snapshot = build_supergraph(c5)
    assert check_path_size_bound(c5, snapshot=snapshot)


def test_bound_checks_respect_the_scale_cap(c5):
    with pytest.raises(TooLargeError):
        check_path_size_bound(c5, max_edges=2)
    with pytest.raises(TooLargeError):
        check_kbest_prefix_bound(c5, Fraction(4), max_edges=2)
