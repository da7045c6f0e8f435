"""Solution certification: domination, minimality, minimalization, and the
closed-form enumeration for graphs with a single-edge solution."""

from __future__ import annotations

import heapq
import random
import re
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cedsenum import (
    NotCedsError,
    Solution,
    enumerate_trivial,
    is_minimal_ceds,
    min_ceds_is_singleton,
    parse_solution_line,
    solution_line,
)
from cedsenum.ceds import _is_ceds_mask, _minimalize_mask, minimalize
from cedsenum.corpus import random_connected_graph
from cedsenum.graph import (
    Graph,
    _bits,
    _spanning_tree_mask,
    _vertex_degree_masks,
    _vertices_mask,
    is_tree,
)
from cedsenum.oracle import is_minimal_ceds_definitional
from reference import pendant_items, private_mask

PROPERTY_SETTINGS = settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _keys(solutions):
    return [s.canonical_key for s in solutions]


# ---------------------------------------------------------------------------
# Domination and the CEDS predicate


def test_dominates_means_sharing_an_endpoint(p5):
    # edge e dominates f iff their endpoint masks meet, iff f is in e's
    # dominator mask; every edge dominates itself
    shared = {(0, 1): True, (1, 0): True, (0, 0): True, (0, 2): False, (0, 3): False}
    for (e, f), want in shared.items():
        assert bool(p5.edge_vmask[e] & p5.edge_vmask[f]) == want
        assert bool(p5.dominator_mask[e] >> f & 1) == want


def test_is_ceds(p5, c5):
    assert _is_ceds_mask(p5, 0b0110)
    assert not _is_ceds_mask(p5, 0b0011)  # edge 3-4 is left untouched
    assert not _is_ceds_mask(p5, 0b1001)  # dominating but disconnected
    assert not _is_ceds_mask(p5, 0)
    assert _is_ceds_mask(c5, 0b00111)
    assert _is_ceds_mask(c5, 0b11111)
    assert not _is_ceds_mask(c5, 0b00011)


def test_private_edges(c5):
    x = 0b00111
    assert private_mask(c5, x, 0) == 1 << 4
    assert private_mask(c5, x, 1) == 0
    assert private_mask(c5, x, 2) == 1 << 3
    assert private_mask(c5, x, 3) == 0  # an edge outside x is no edge's only dominator


# ---------------------------------------------------------------------------
# Minimality


def test_is_minimal_ceds(p5, c5, star3, triangle):
    assert is_minimal_ceds(p5, 0b0110)
    assert not is_minimal_ceds(p5, 0b0111)
    assert not is_minimal_ceds(p5, 0b1111)
    assert is_minimal_ceds(c5, 0b00111)
    assert not is_minimal_ceds(c5, 0b11111)  # cyclic, never minimal
    assert is_minimal_ceds(star3, 0b001)
    assert not is_minimal_ceds(star3, 0b011)
    assert not is_minimal_ceds(triangle, 0b111)
    assert not is_minimal_ceds(p5, 0b1001)  # not even a CEDS
    assert not is_minimal_ceds(p5, 0)


def test_minimalize_frozen_results(p5, c5, star3):
    assert minimalize(p5, p5.all_edges_mask).canonical_key == (1, 2)
    assert minimalize(c5, c5.all_edges_mask).canonical_key == (1, 2, 3)
    assert minimalize(star3, star3.all_edges_mask).canonical_key == (2,)


def test_minimalize_is_identity_on_minimal_inputs(c5):
    sol = minimalize(c5, 0b00111)
    assert sol.canonical_key == (0, 1, 2)
    assert minimalize(c5, sol.mask) == sol


def test_minimalize_rejects_non_ceds(p5):
    with pytest.raises(NotCedsError, match=r"edges \[0\]"):
        minimalize(p5, 0b0001)
    with pytest.raises(NotCedsError, match=r"edges \[0, 3\]"):
        minimalize(p5, 0b1001)


@pytest.mark.parametrize("entry", ["is_minimal_ceds", "minimalize", "is_tree"])
@pytest.mark.parametrize(
    ("mask", "error", "text"),
    [
        ([1, 2], TypeError, "int mask, got list"),
        (True, TypeError, "int mask, got bool"),
        (1 << 40 | 0b1111, ValueError, "holds edge 40; the graph has edges 0..3"),
        (1 << 4 | 1 << 9, ValueError, "holds edge 4;"),
        (-1, ValueError, "holds edge 4;"),
    ],
    ids=["list", "bool", "edge-40", "edge-4", "negative"],
)
def test_public_entry_points_check_the_mask(p5, entry, mask, error, text):
    """A mask from outside the program is an int with no bit at or above m;
    anything else is refused by name, not answered or failed on later."""
    fn = {"is_minimal_ceds": is_minimal_ceds, "minimalize": minimalize, "is_tree": is_tree}[entry]
    with pytest.raises(error, match=re.escape(text)):
        fn(p5, mask)


@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=6, max_value=8))
@PROPERTY_SETTINGS
def test_minimalize_returns_minimal_subset(seed, n):
    g = random_connected_graph(n, 0.5, seed)
    full = g.all_edges_mask
    sol = minimalize(g, full)
    assert sol.mask & ~full == 0
    assert is_minimal_ceds(g, sol.mask)
    # a spanning tree is also a CEDS, so minimalization applies to it too
    tree = _spanning_tree_mask(g, full)
    pruned = minimalize(g, tree)
    assert pruned.mask & ~tree == 0
    assert is_minimal_ceds(g, pruned.mask)


def _random_ceds_mask(g, rng, extra):
    """Grow a random connected edge set from one edge until it dominates
    every edge, then add ``extra`` more edges touching it (chords make
    cycles, the rest keep it a tree)."""
    mask = 1 << rng.randrange(g.m)
    while True:
        touching = 0
        for e in range(g.m):
            if mask >> e & 1:
                touching |= g.dominator_mask[e]
        outside = [e for e in range(g.m) if touching >> e & 1 and not mask >> e & 1]
        if touching == g.all_edges_mask:
            if not extra or not outside:
                return mask
            extra -= 1
        mask |= 1 << rng.choice(outside)


def _minimalize_by_spanning_tree(g, mask):
    """Minimalization without the tree shortcut: take the DFS spanning tree,
    then remove the smallest pendant edge without a private edge while one
    exists."""
    tree = _spanning_tree_mask(g, mask)
    while tree.bit_count() > 1:
        picked = [e for e in range(g.m) if tree >> e & 1]
        degree = Counter(x for e in picked for x in g.edges[e])
        removable = [
            e for e in picked
            if 1 in (degree[g.edges[e][0]], degree[g.edges[e][1]])
            and not private_mask(g, tree, e)
        ]
        if not removable:
            break
        tree ^= 1 << removable[0]
    return tree


@given(st.integers(min_value=4, max_value=20), st.integers(min_value=0, max_value=10_000))
@PROPERTY_SETTINGS
def test_minimalize_mask_matches_the_spanning_tree_form(n, seed):
    rng = random.Random(seed)
    g = random_connected_graph(n, 0.3, seed)
    masks = [g.all_edges_mask, _spanning_tree_mask(g, g.all_edges_mask)]
    masks += [_random_ceds_mask(g, rng, extra) for extra in (0, 0, 1, 3)]
    for mask in masks:
        assert _is_ceds_mask(g, mask)
        assert minimalize(g, mask).mask == _minimalize_by_spanning_tree(g, mask)


def _minimalize_by_leaf_heap(g, mask):
    """The minimalization loop before the one-OR leaf test: every leaf's
    pendant edge goes on the heap, and each pop tests its leaf alone."""
    inc, nbr = g.incident_mask, g.neighbor_vmask
    vm, inner = _vertex_degree_masks(g, mask)
    if mask.bit_count() == vm.bit_count() - 1:
        tree = mask
    else:
        tree = _spanning_tree_mask(g, mask)
        inner = _vertex_degree_masks(g, tree)[1]
    heap = []
    leaves = vm & ~inner
    while leaves:
        low = leaves & -leaves
        heap.append((inc[low.bit_length() - 1] & tree).bit_length() - 1)
        leaves ^= low
    heap.sort()
    queued = set(heap)
    while heap:
        e = heapq.heappop(heap)
        if tree == 1 << e:
            break
        u, v = g.edges[e]
        ell, other = (u, v) if inc[u] & tree == 1 << e else (v, u)
        if nbr[ell] & ~vm:
            continue
        tree ^= 1 << e
        vm ^= 1 << ell
        rest = inc[other] & tree
        if rest.bit_count() == 1:
            f = rest.bit_length() - 1
            if f not in queued:
                queued.add(f)
                heapq.heappush(heap, f)
    return tree


def _random_graph(n, rng, p):
    """A connected graph on n vertices: a random tree plus each other pair
    with probability p, edges in random order."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    edges |= {(u, v) for v in range(n) for u in range(v) if rng.random() < p}
    edges = sorted(edges)
    rng.shuffle(edges)
    return Graph.from_edge_list(edges)


def _hub_graph(n, rng):
    """Hubs 0 and 1 joined by an edge, and every other vertex joined to one
    or both: the lone hub edge is a CEDS."""
    edges = [(0, 1)]
    for v in range(2, n):
        edges += [(hub, v) for hub in rng.choice(((0,), (1,), (0, 1)))]
    return Graph.from_edge_list(edges)


def _minimalize_cases(n, p, seed):
    """(graph, CEDS mask) pairs: trees and sets with cycles of a random
    graph, and of a hub graph, among them its lone hub edge, a single-edge
    tree."""
    rng = random.Random(seed)
    g = _random_graph(n, rng, p)
    masks = [g.all_edges_mask, _spanning_tree_mask(g, g.all_edges_mask)]
    masks += [_random_ceds_mask(g, rng, extra) for extra in (0, 0, 1, 3)]
    hub = _hub_graph(n, rng)
    masks_hub = [1, hub.all_edges_mask, _random_ceds_mask(hub, rng, 1)]
    cases = [(g, mask) for mask in masks] + [(hub, mask) for mask in masks_hub]
    assert all(_is_ceds_mask(graph, mask) for graph, mask in cases)
    return cases


MINIMALIZE_GRAPHS = given(
    st.integers(min_value=2, max_value=24),
    st.sampled_from((0.05, 0.2, 0.5)),
    st.integers(min_value=0, max_value=10_000),
)


@MINIMALIZE_GRAPHS
@PROPERTY_SETTINGS
def test_minimalize_mask_matches_the_per_leaf_heap(n, p, seed):
    """Settling the leaves that have a private edge with one neighbour OR
    before the loop, and then walking the others once, returns the same
    mask as queueing every leaf and every leaf a removal exposes, on trees
    and on sets with cycles, for n = 2..24 (bytes slice tables up to 8
    vertices, lists above, several neighbour slices above 16), and on the
    lone hub edge, a single-edge tree."""
    for graph, mask in _minimalize_cases(n, p, seed):
        assert minimalize(graph, mask).mask == _minimalize_by_leaf_heap(graph, mask), mask


@MINIMALIZE_GRAPHS
@PROPERTY_SETTINGS
def test_minimalize_mask_removes_only_unsettled_leaves_of_its_input_tree(n, p, seed):
    """The lemma behind the one pass: every removed edge is the pendant
    edge of a leaf of the input tree T (the spanning tree the DFS keeps of
    the mask), and that leaf had no neighbour outside V(T) at the start.
    So a leaf that a removal exposes is never removed, and a leaf with a
    private edge at the start keeps it."""
    for graph, mask in _minimalize_cases(n, p, seed):
        tree = _spanning_tree_mask(graph, mask)
        vm, inner = _vertex_degree_masks(graph, tree)
        result = minimalize(graph, mask).mask
        assert result & ~tree == 0
        for e in _bits(tree & ~result):
            leaf = graph.edge_vmask[e] & ~inner
            assert leaf.bit_count() == 1, (mask, e)  # the pendant edge of one leaf
            assert not graph.neighbor_vmask[leaf.bit_length() - 1] & ~vm, (mask, e)


def _grow_tree(g, rng, tree, extra):
    """Grow the tree ``tree`` by random edges with exactly one endpoint in
    it until it dominates every edge; then add ``extra`` more such edges,
    whose new leaves may have no private edge."""
    verts = _vertices_mask(g, tree)
    while True:
        grow = [f for f in range(g.m) if (g.edge_vmask[f] & verts).bit_count() == 1]
        if g._dominates_all(tree):
            if not extra or not grow:
                return tree
            extra -= 1
        f = rng.choice(grow)
        tree |= 1 << f
        verts |= g.edge_vmask[f]


def _with_chord(g, rng, tree):
    """``tree`` plus one edge of G joining two of its vertices, if any."""
    verts = _vertices_mask(g, tree)
    chords = [e for e in range(g.m) if not tree >> e & 1 and g.edge_vmask[e] & ~verts == 0]
    return tree | (1 << rng.choice(chords)) if chords else tree


@given(
    st.integers(min_value=4, max_value=14),
    st.integers(min_value=15, max_value=24),
    st.integers(min_value=0, max_value=10_000),
)
@PROPERTY_SETTINGS
def test_is_minimal_ceds_matches_the_definitional_oracle(small_n, large_n, seed):
    """The leaf test (one neighbour OR for all leaves) agrees with the
    containment search on tree CEDS grown in the test, on their minimal
    forms as they are, with an extra pendant edge, with one pendant edge
    dropped and with any one edge added, on trees plus a chord and on
    random sets, for n = 4..24: one to three neighbour slices, and beyond
    the corpus sizes."""
    rng = random.Random(seed)
    for n in (small_n, large_n):
        g = random_connected_graph(n, 0.3, seed)
        for v in range(g.n):
            assert g.neighbor_vmask[v] == sum(1 << w for w, _ in g.adjacency[v])
        masks = [g.all_edges_mask, _spanning_tree_mask(g, g.all_edges_mask)]
        for extra in (0, 1, 3):
            tree = _grow_tree(g, rng, 1 << rng.randrange(g.m), extra)
            minimal = _minimalize_mask(g, tree)
            masks += [tree, _with_chord(g, rng, tree), minimal, _grow_tree(g, rng, minimal, 1)]
            if minimal.bit_count() > 1:
                masks.append(minimal ^ (1 << rng.choice(pendant_items(g, minimal))[0]))
            outside = [e for e in range(g.m) if not minimal >> e & 1]
            if outside:
                masks.append(minimal | 1 << rng.choice(outside))
        for density in (0.1, 0.3, 0.6):
            masks.append(sum(1 << e for e in range(g.m) if rng.random() < density))
        for mask in masks:
            assert is_minimal_ceds(g, mask) == is_minimal_ceds_definitional(g, mask), mask


# ---------------------------------------------------------------------------
# Single-edge solutions and the closed-form enumeration


def test_min_ceds_is_singleton(p5, c5, star3, triangle, k2, k23_plus):
    assert min_ceds_is_singleton(p5) is None
    assert min_ceds_is_singleton(c5) is None
    assert min_ceds_is_singleton(star3) == 0
    assert min_ceds_is_singleton(triangle) == 0
    assert min_ceds_is_singleton(k2) == 0
    assert min_ceds_is_singleton(k23_plus) == 0


@given(st.integers(min_value=0, max_value=10_000))
@PROPERTY_SETTINGS
def test_singleton_witness_matches_direct_scan(seed):
    g = random_connected_graph(6, 0.5, seed)
    direct = [e for e in range(g.m) if _is_ceds_mask(g, 1 << e)]
    witness = min_ceds_is_singleton(g)
    if direct:
        assert witness == direct[0]
    else:
        assert witness is None


def test_enumerate_trivial_star_and_triangle(star3, triangle, k2):
    assert _keys(enumerate_trivial(star3)) == [(0,), (1,), (2,)]
    assert _keys(enumerate_trivial(triangle)) == [(0,), (1,), (2,)]
    assert _keys(enumerate_trivial(k2)) == [(0,)]


def test_enumerate_trivial_emits_full_stars(k23_plus):
    """Two hubs with three common neighbors: besides the hub edge and the
    two-edge paths, each hub's full star onto the common neighborhood is a
    minimal solution of size three."""
    assert _keys(enumerate_trivial(k23_plus)) == [
        (0,),
        (1, 4),
        (2, 5),
        (3, 6),
        (1, 2, 3),
        (4, 5, 6),
    ]


def test_enumerate_trivial_rejects_general_instances(p5):
    with pytest.raises(ValueError):
        enumerate_trivial(p5)


# ---------------------------------------------------------------------------
# Solution values and the line format


def test_solution_ordering_and_repr(k23_plus):
    small, pair, star = (Solution(mask) for mask in (0b1, 0b10010, 0b1110))
    assert all(is_minimal_ceds(k23_plus, s.mask) for s in (small, pair, star))
    assert small < pair < star
    assert sorted([star, small, pair]) == [small, pair, star]
    assert repr(small) == "Solution([0])"
    assert small.size == 1 and star.size == 3
    assert star.mask == 0b1110


_MASKS = st.integers(min_value=1, max_value=(1 << 16) - 1)


@given(_MASKS, _MASKS)
@PROPERTY_SETTINGS
def test_solution_order_is_size_then_key(a, b):
    x, y = Solution(a), Solution(b)
    assert x.size == len(x.canonical_key) and sum(1 << e for e in x.canonical_key) == a
    assert (x < y) == ((x.size, x.canonical_key) < (y.size, y.canonical_key))
    assert (x == y) == (a == b)
    assert hash(x) == hash(Solution(a))


def test_solution_line_round_trip(p5, c5):
    assert solution_line(p5, Solution(0b0110)) == "1-2 2-3"
    line = solution_line(c5, Solution(0b00111))
    assert parse_solution_line(c5, line) == 0b00111


def test_solution_line_refuses_a_mask_beyond_the_graph(p5):
    with pytest.raises(ValueError, match="edge 40"):
        solution_line(p5, Solution(0b110 | 1 << 40))


def test_parse_solution_line_errors(p5):
    with pytest.raises(ValueError, match="malformed"):
        parse_solution_line(p5, "1:2")
    with pytest.raises(ValueError, match="no edge"):
        parse_solution_line(p5, "0-4")
