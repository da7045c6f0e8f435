"""Graph construction, parsing, and the helpers over edge masks."""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cedsenum import (
    Graph,
    ParseError,
    parse_dimacs,
    parse_edge_list,
    read_graph,
    to_edge_list_text,
)
from cedsenum.corpus import random_connected_graph
from cedsenum.graph import (
    DisconnectedError,
    DuplicateEdgeError,
    NotConnectedError,
    SelfLoopError,
    _bits,
    _component_mask,
    _is_connected_mask,
    _spanning_tree_mask,
    _vertex_degree_masks,
    _vertices_mask,
    is_tree,
)
from reference import pendant_items

PROPERTY_SETTINGS = settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ---------------------------------------------------------------------------
# Graph construction


def test_from_edge_list_relabels_by_first_appearance():
    g = Graph.from_edge_list([(10, 30), (30, 20), (20, 10)])
    assert g.n == 3
    assert g.m == 3
    assert g.labels == (10, 30, 20)
    assert g.edges == ((0, 1), (1, 2), (0, 2))


def test_from_edge_list_structure(p5):
    assert p5.n == 5
    assert p5.m == 4
    assert p5.degrees == (1, 2, 2, 2, 1)
    assert p5.max_degree == 2
    assert p5.edge_between(1, 2) == 1
    assert p5.edge_between(2, 1) == 1
    assert p5.edge_between(0, 4) is None
    assert sorted(p5.adjacency[2]) == [(1, 1), (3, 2)]


def test_from_edge_list_rejects_self_loops():
    with pytest.raises(SelfLoopError):
        Graph.from_edge_list([(0, 1), (1, 1)])


def test_from_edge_list_rejects_duplicates_in_either_order():
    with pytest.raises(DuplicateEdgeError):
        Graph.from_edge_list([(0, 1), (0, 1)])
    with pytest.raises(DuplicateEdgeError):
        Graph.from_edge_list([(0, 1), (1, 0)])


def test_from_edge_list_rejects_empty_and_disconnected():
    with pytest.raises(DisconnectedError):
        Graph.from_edge_list([])
    with pytest.raises(DisconnectedError) as exc:
        Graph.from_edge_list([(0, 1), (2, 3)])
    assert str(exc.value) == "graph is disconnected: vertex 2 is not reachable from vertex 0"


def test_graph_equality_and_repr(p5, c5):
    assert p5 == Graph.from_edge_list([(0, 1), (1, 2), (2, 3), (3, 4)])
    assert p5 != c5
    assert "Graph" in repr(p5)


# ---------------------------------------------------------------------------
# Subgraph helpers


def test_induced_vertices(p5):
    assert _vertices_mask(p5, 0b0110) == 0b01110
    assert _vertices_mask(p5, 0) == 0


def test_component_mask_holds_the_given_edge(p5):
    assert _component_mask(p5, 0b1001, 0) == 0b0001
    assert _component_mask(p5, 0b1001, 3) == 0b1000
    assert _component_mask(p5, 0b0110, 2) == 0b0110


def test_is_tree(p5, c5, triangle):
    assert is_tree(p5, 0b1111)
    assert is_tree(c5, 0b00011)
    assert not is_tree(c5, 0b11111)
    assert not is_tree(triangle, 0b111)
    assert not is_tree(p5, 0b1001)
    assert not is_tree(p5, 0)


def test_pendant_edges(p5, c5):
    assert pendant_items(p5, 0b1111) == [(0, 0), (3, 4)]
    assert pendant_items(c5, 0b00110) == [(1, 1), (2, 3)]
    assert pendant_items(c5, 0b11111) == []


def test_spanning_tree_mask(c5):
    tree = _spanning_tree_mask(c5, c5.all_edges_mask)
    assert tree.bit_count() == 4
    assert is_tree(c5, tree)
    with pytest.raises(NotConnectedError):
        _spanning_tree_mask(c5, 0)
    with pytest.raises(NotConnectedError):
        _spanning_tree_mask(c5, 0b00101)


def _spanning_tree_by_adjacency(g, mask):
    """The DFS that walks every graph edge at each visited vertex: a
    reference for :func:`_spanning_tree_mask`, which walks only mask edges."""
    if not mask:
        raise NotConnectedError("empty edge set has no spanning tree")
    vm = _vertices_mask(g, mask)
    root = (vm & -vm).bit_length() - 1
    visited = 1 << root
    tree = 0
    stack = [iter(g.adjacency[root])]
    while stack:
        advanced = False
        for w, e in stack[-1]:
            if mask >> e & 1 and not visited >> w & 1:
                visited |= 1 << w
                tree |= 1 << e
                stack.append(iter(g.adjacency[w]))
                advanced = True
                break
        if not advanced:
            stack.pop()
    if visited != vm:
        raise NotConnectedError("edge set induces a disconnected subgraph")
    return tree


def _random_connected_mask(g, rng, size, chord_share):
    """A random tree of up to ``size`` edges grown from a random vertex, plus
    each edge between two of its vertices with probability ``chord_share``;
    returns the mask and its vertex set."""
    visited = {rng.randrange(g.n)}
    mask = 0
    while mask.bit_count() < size:
        frontier = [e for e, (u, v) in enumerate(g.edges) if (u in visited) != (v in visited)]
        if not frontier:
            break
        e = rng.choice(frontier)
        mask |= 1 << e
        visited.update(g.edges[e])
    for e, (u, v) in enumerate(g.edges):
        if u in visited and v in visited and rng.random() < chord_share:
            mask |= 1 << e
    return mask, visited


@given(st.integers(min_value=2, max_value=24), st.integers(min_value=0, max_value=10_000))
@PROPERTY_SETTINGS
def test_spanning_tree_mask_matches_the_adjacency_walk(n, seed):
    """Same tree as the adjacency-list DFS on trees, on masks with cycles and
    on the whole edge set; both raise on empty and disconnected masks."""
    rng = random.Random(seed)
    for density in (0.2, 0.4, 0.7):
        g = random_connected_graph(n, density, seed)
        masks = [g.all_edges_mask]
        for chord_share in (0.0, 0.5):
            mask, visited = _random_connected_mask(g, rng, rng.randint(1, g.m), chord_share)
            masks.append(mask)
        for each in masks:
            assert _spanning_tree_mask(g, each) == _spanning_tree_by_adjacency(g, each)
        # the last mask plus an edge that shares no vertex with it
        apart = [e for e, (u, v) in enumerate(g.edges) if u not in visited and v not in visited]
        bad = [0] + ([mask | 1 << rng.choice(apart)] if apart else [])
        for each in bad:
            for spanning_tree in (_spanning_tree_mask, _spanning_tree_by_adjacency):
                with pytest.raises(NotConnectedError):
                    spanning_tree(g, each)


def test_bits_refuses_a_negative_mask():
    # a negative int has infinitely many set bits; the walk must not loop
    with pytest.raises(ValueError, match="non-negative"):
        next(_bits(-1))
    assert list(_bits(0b10110)) == [1, 2, 4]


def _union_find_roots(edges: list[tuple[int, int]]) -> list[int]:
    """The union-find root of each edge's component, in input order."""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        parent[find(u)] = find(v)
    return [find(u) for u, _ in edges]


@given(
    st.integers(min_value=2, max_value=24),
    st.sampled_from((0.0, 0.1, 0.3, 0.6, 0.9)),
    st.integers(min_value=0, max_value=10_000),
)
@PROPERTY_SETTINGS
def test_is_connected_mask_matches_the_full_closure(n, q, seed):
    """The early-stopping closure answers as the full component closure
    does: on the empty mask, on a random mask (often disconnected), on each
    of its components and on the whole edge set (both connected)."""
    rng = random.Random(seed)
    g = random_connected_graph(n, 0.3, seed)
    mask = sum(1 << e for e in range(g.m) if rng.random() < q)
    comps = []
    rest = mask
    while rest:
        comps.append(_component_mask(g, rest, (rest & -rest).bit_length() - 1))
        rest &= ~comps[-1]
    for m in (0, mask, g.all_edges_mask, *comps):
        low = (m & -m).bit_length() - 1
        assert _is_connected_mask(g, m) == (m != 0 and _component_mask(g, m, low) == m)
    assert _is_connected_mask(g, mask) == (len(comps) == 1)
    assert all(_is_connected_mask(g, c) for c in comps)
    assert _is_connected_mask(g, g.all_edges_mask)
    assert not _is_connected_mask(g, 0)


@given(st.integers(min_value=2, max_value=20), st.integers(min_value=0, max_value=10_000))
@PROPERTY_SETTINGS
def test_component_split_matches_union_find(n, seed):
    rng = random.Random(seed)
    g = random_connected_graph(n, 0.4, seed)
    picked = [e for e in range(g.m) if rng.random() < 0.6]
    mask = sum(1 << e for e in picked)
    roots = _union_find_roots([g.edges[e] for e in picked])
    for e, root in zip(picked, roots):
        comp = _component_mask(g, mask, e)
        assert comp == sum(1 << f for f, r in zip(picked, roots) if r == root)
        assert is_tree(g, comp) == (
            comp.bit_count() == _vertices_mask(g, comp).bit_count() - 1
        )
    degree = Counter(x for e in picked for x in g.edges[e])
    pendants = []
    for e in picked:
        u, v = g.edges[e]
        if degree[u] == 1:
            pendants.append((e, u))
        elif degree[v] == 1:
            pendants.append((e, v))
    assert pendant_items(g, mask) == pendants


def _dominates_all_by_definition(g, mask):
    picked = [e for e in range(g.m) if mask >> e & 1]
    return all(
        any(set(g.edges[e]) & set(g.edges[f]) for e in picked) for f in range(g.m)
    )


@given(
    st.integers(min_value=4, max_value=14),
    st.integers(min_value=15, max_value=20),
    st.integers(min_value=0, max_value=10_000),
)
@PROPERTY_SETTINGS
def test_dominates_all_matches_the_definition_on_both_paths(small_n, large_n, seed):
    """n <= 14 looks the endpoints up in the vertex-cover table; larger
    graphs OR the dominator masks together."""
    rng = random.Random(seed)
    for n in (small_n, large_n):
        g = random_connected_graph(n, 0.3, seed)
        for density in (0.1, 0.3, 0.6):
            mask = sum(1 << e for e in range(g.m) if rng.random() < density)
            assert g._dominates_all(mask) == _dominates_all_by_definition(g, mask)
        assert g._dominates_all(g.all_edges_mask)
        assert not g._dominates_all(0)
        assert (g._vc_table is not None) == (n <= 14)


@pytest.mark.parametrize("m_target", [7, 8, 9, 15, 16, 17, 24, 25])
@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=15, deadline=None)
def test_sliced_vertex_kernels_match_a_per_edge_walk(m_target, seed):
    """V(mask) and the degree->=2 vertices from the byte-slice tables equal
    a per-edge count, for n = 2..20 (bytes tables up to 8 vertices, lists
    above) and m at and around the 8-edge slice boundaries, capped at the
    number of vertex pairs."""
    rng = random.Random(seed)
    for n in range(2, 21):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = Graph(n, rng.sample(pairs, min(m_target, len(pairs))))
        masks = [0, g.all_edges_mask] + [
            sum(1 << e for e in range(g.m) if rng.random() < density)
            for density in (0.1, 0.4, 0.8)
        ]
        for mask in masks:
            degree = Counter(x for e in range(g.m) if mask >> e & 1 for x in g.edges[e])
            once = sum(1 << x for x in degree)
            twice = sum(1 << x for x, d in degree.items() if d >= 2)
            assert _vertex_degree_masks(g, mask) == (once, twice)
            assert _vertices_mask(g, mask) == once
        sizes = [1 << min(8, g.m - lo) for lo in range(0, g.m, 8)]
        assert [(len(ors), len(shared)) for ors, shared in g._edge_slices] == [
            (k, k) for k in sizes
        ]
        assert all(isinstance(t, bytes) == (n <= 8) for pair in g._edge_slices for t in pair)


# ---------------------------------------------------------------------------
# Parsing and formatting


def test_parse_edge_list_with_comments_and_blanks():
    text = "# a path\n\n0 1\n1 2   # trailing note\n\n2 3\n"
    assert parse_edge_list(text) == [(0, 1), (1, 2), (2, 3)]


def test_parse_edge_list_errors_name_the_line():
    with pytest.raises(ParseError) as exc:
        parse_edge_list("0 1\n0 1 2\n")
    assert str(exc.value).startswith("line 2:")
    with pytest.raises(ParseError, match="integers"):
        parse_edge_list("0 one\n")


def test_parse_dimacs():
    text = "c a five-cycle\np edge 5 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 5 1\n"
    assert parse_dimacs(text) == [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]


def test_parse_dimacs_rejects_zero_indexing():
    with pytest.raises(ParseError, match="1-indexed"):
        parse_dimacs("p edge 2 1\ne 0 1\n")


def test_parse_dimacs_rejects_unknown_lines():
    with pytest.raises(ParseError, match="unrecognized"):
        parse_dimacs("p edge 2 1\nx 1 2\n")


def test_parse_dimacs_reports_isolated_declared_vertex():
    with pytest.raises(DisconnectedError, match="vertex 3"):
        parse_dimacs("p edge 3 1\ne 1 2\n")


def test_edge_list_round_trip(tmp_path, c5):
    path = tmp_path / "c5.edges"
    path.write_text(to_edge_list_text(c5))
    assert read_graph(path) == c5


def test_read_graph_dimacs(tmp_path):
    path = tmp_path / "p5.col"
    path.write_text("p edge 5 4\ne 1 2\ne 2 3\ne 3 4\ne 4 5\n")
    g = read_graph(path, fmt="dimacs")
    assert g.edges == ((0, 1), (1, 2), (2, 3), (3, 4))


def test_read_graph_rejects_an_unknown_format(tmp_path):
    # "DIMACS" in capitals used to parse the file as an edge list
    path = tmp_path / "p5.col"
    path.write_text("p edge 5 4\ne 1 2\ne 2 3\ne 3 4\ne 4 5\n")
    for fmt in ("DIMACS", "edges", ""):
        with pytest.raises(ValueError, match="'edgelist' or 'dimacs'"):
            read_graph(path, fmt)
