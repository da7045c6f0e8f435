"""Solution certification: domination, minimality, minimalization, and the
closed-form enumeration for graphs with a single-edge solution."""

from __future__ import annotations

import heapq
import random
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cedsenum import (
    EdgeSet,
    NotCedsError,
    Solution,
    enumerate_trivial,
    is_minimal_ceds,
    min_ceds_is_singleton,
    parse_solution_line,
    solution_line,
)
from cedsenum.ceds import (
    _minimalize_mask,
    _private_mask,
    is_ceds,
    minimalize,
    solution_from_edges,
)
from cedsenum.corpus import random_connected_graph
from cedsenum.graph import (
    Graph,
    _pendant_items,
    _spanning_tree_mask,
    _vertex_degree_masks,
    _vertices_mask,
)
from cedsenum.oracle import is_minimal_ceds_definitional

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
    assert is_ceds(p5, [1, 2])
    assert not is_ceds(p5, [0, 1])  # edge 3-4 is left untouched
    assert not is_ceds(p5, [0, 3])  # dominating but disconnected
    assert not is_ceds(p5, [])
    assert is_ceds(c5, [0, 1, 2])
    assert is_ceds(c5, [0, 1, 2, 3, 4])
    assert not is_ceds(c5, [0, 1])


def test_private_edges(c5):
    x = 0b00111
    assert _private_mask(c5, x, 0) == 1 << 4
    assert _private_mask(c5, x, 1) == 0
    assert _private_mask(c5, x, 2) == 1 << 3
    assert _private_mask(c5, x, 3) == 0  # an edge outside x is no edge's only dominator


# ---------------------------------------------------------------------------
# Minimality


def test_is_minimal_ceds(p5, c5, star3, triangle):
    assert is_minimal_ceds(p5, [1, 2])
    assert not is_minimal_ceds(p5, [0, 1, 2])
    assert not is_minimal_ceds(p5, [0, 1, 2, 3])
    assert is_minimal_ceds(c5, [0, 1, 2])
    assert not is_minimal_ceds(c5, [0, 1, 2, 3, 4])  # cyclic, never minimal
    assert is_minimal_ceds(star3, [0])
    assert not is_minimal_ceds(star3, [0, 1])
    assert not is_minimal_ceds(triangle, [0, 1, 2])
    assert not is_minimal_ceds(p5, [0, 3])  # not even a CEDS


def test_minimalize_frozen_results(p5, c5, star3):
    assert minimalize(p5, EdgeSet.from_mask(p5.all_edges_mask)).canonical_key == (1, 2)
    assert minimalize(c5, EdgeSet.from_mask(c5.all_edges_mask)).canonical_key == (1, 2, 3)
    assert minimalize(star3, EdgeSet.from_mask(star3.all_edges_mask)).canonical_key == (2,)


def test_minimalize_is_identity_on_minimal_inputs(c5):
    sol = minimalize(c5, [0, 1, 2])
    assert sol.canonical_key == (0, 1, 2)
    assert minimalize(c5, sol.edges) == sol


def test_minimalize_rejects_non_ceds(p5):
    with pytest.raises(NotCedsError):
        minimalize(p5, [0])
    with pytest.raises(NotCedsError):
        minimalize(p5, [0, 3])


@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=6, max_value=8))
@PROPERTY_SETTINGS
def test_minimalize_returns_minimal_subset(seed, n):
    g = random_connected_graph(n, 0.5, seed)
    full = EdgeSet.from_mask(g.all_edges_mask)
    sol = minimalize(g, full)
    assert sol.edges <= full
    assert is_minimal_ceds(g, sol.edges)
    # a spanning tree is also a CEDS, so minimalization applies to it too
    tree = EdgeSet.from_mask(_spanning_tree_mask(g, full.mask))
    pruned = minimalize(g, tree)
    assert pruned.edges <= tree
    assert is_minimal_ceds(g, pruned.edges)


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
            and not _private_mask(g, tree, e)
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
        assert is_ceds(g, EdgeSet.from_mask(mask))
        assert _minimalize_mask(g, mask) == _minimalize_by_spanning_tree(g, mask)


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


@given(
    st.integers(min_value=2, max_value=24),
    st.sampled_from((0.05, 0.2, 0.5)),
    st.integers(min_value=0, max_value=10_000),
)
@PROPERTY_SETTINGS
def test_minimalize_mask_matches_the_per_leaf_heap(n, p, seed):
    """Settling the leaves that have a private edge with one neighbour OR
    before the loop returns the same mask as queueing every leaf, on trees
    and on sets with cycles, for n = 2..24 (bytes slice tables up to 8
    vertices, lists above, several neighbour slices above 16), and on the
    lone hub edge, a single-edge tree."""
    rng = random.Random(seed)
    g = _random_graph(n, rng, p)
    masks = [g.all_edges_mask, _spanning_tree_mask(g, g.all_edges_mask)]
    masks += [_random_ceds_mask(g, rng, extra) for extra in (0, 0, 1, 3)]
    hub = _hub_graph(n, rng)
    masks_hub = [1, hub.all_edges_mask, _random_ceds_mask(hub, rng, 1)]
    for graph, cases in ((g, masks), (hub, masks_hub)):
        for mask in cases:
            assert is_ceds(graph, EdgeSet.from_mask(mask))
            assert _minimalize_mask(graph, mask) == _minimalize_by_leaf_heap(graph, mask), mask


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
                masks.append(minimal ^ (1 << rng.choice(_pendant_items(g, minimal))[0]))
            outside = [e for e in range(g.m) if not minimal >> e & 1]
            if outside:
                masks.append(minimal | 1 << rng.choice(outside))
        for density in (0.1, 0.3, 0.6):
            masks.append(sum(1 << e for e in range(g.m) if rng.random() < density))
        for mask in masks:
            s = EdgeSet.from_mask(mask)
            assert is_minimal_ceds(g, s) == is_minimal_ceds_definitional(g, s), mask


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
    direct = [e for e in range(g.m) if is_ceds(g, [e])]
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
    small = solution_from_edges(k23_plus, [0])
    pair = solution_from_edges(k23_plus, [1, 4])
    star = solution_from_edges(k23_plus, [1, 2, 3])
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
    assert x.size == len(x.canonical_key) and x.edges == EdgeSet(x.canonical_key)
    assert (x < y) == ((x.size, x.canonical_key) < (y.size, y.canonical_key))
    assert (x == y) == (a == b)
    assert hash(x) == hash(Solution(a))


def test_solution_from_edges_certifies(p5):
    sol = solution_from_edges(p5, [1, 2])
    assert sol.canonical_key == (1, 2)
    with pytest.raises(NotCedsError):
        solution_from_edges(p5, [0, 1, 2])


def test_solution_line_round_trip(p5, c5):
    assert solution_line(p5, solution_from_edges(p5, [1, 2])) == "1-2 2-3"
    line = solution_line(c5, solution_from_edges(c5, [0, 1, 2]))
    assert parse_solution_line(c5, line) == EdgeSet([0, 1, 2])


def test_parse_solution_line_errors(p5):
    with pytest.raises(ValueError, match="malformed"):
        parse_solution_line(p5, "1:2")
    with pytest.raises(ValueError, match="no edge"):
        parse_solution_line(p5, "0-4")
