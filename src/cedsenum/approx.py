"""Approximate minimum CEDS used to seed k-best enumeration.

The construction rests on Savage's bound (Savage 1982, IPL 14): the
internal vertices of *any* depth-first search tree form a connected vertex
cover at most twice the minimum.  Every edge of G joins an ancestor to a
descendant of the tree (:func:`cedsenum.graph._dfs_edges`), and the
ancestor is internal or the root, so the tree without the pendant edge at
each leaf other than the root is a CEDS.
Each root and neighbour order gives a seed with the same certificate, so
the seed is the smallest of several: one tree from every root, plus the
search from vertex 0 in the order of ``g.adjacency``, each pruned that
way and then minimalized.  The reported ratio bound divides the seed size
by a cheap combinatorial lower bound on the optimum; tests compare against
the brute-force optimum as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .ceds import Solution, min_ceds_is_singleton, minimalize
from .graph import Graph, _bits, _dfs_edges, _spanning_tree_mask, _vertex_degree_masks


@dataclass(frozen=True)
class SeedReport:
    solution: Solution
    lower_bound: int
    observed_ratio_bound: Fraction


def _greedy_matching_size(g: Graph) -> int:
    used = 0
    count = 0
    for vm in g.edge_vmask:
        if not vm & used:
            used |= vm
            count += 1
    return count


def _lower_bound(g: Graph) -> int:
    # any CEDS F induces a tree whose |F|+1 vertices are a vertex cover,
    # so |F| >= (matching size) - 1 and |F| >= m/max_degree - 1; a graph
    # with no single-edge CEDS needs at least 2 edges
    matching = _greedy_matching_size(g)
    by_degree = -(-g.m // g.max_degree)  # ceil
    return max(2, matching - 1, by_degree - 1)


def _without_leaf_edges(g: Graph, tree: int, root: int) -> int:
    """``tree`` without the pendant edge at each leaf other than ``root``."""
    vm, inner = _vertex_degree_masks(g, tree)
    for w in _bits(vm & ~inner & ~(1 << root)):
        tree &= ~g.incident_mask[w]
    return tree


def approx_min_ceds(g: Graph) -> SeedReport:
    """Deterministic seed solution for a graph with no single-edge CEDS.

    The candidate trees are depth-first searches of G (:func:`_dfs_edges`):
    one from every root, taking neighbours by descending degree and then
    ascending edge index, and :func:`_spanning_tree_mask` of all edges, the
    search from vertex 0 in ascending edge index order.  That last tree
    was once the only one, so the seed is never larger than it was.  Each
    tree loses the pendant edge at every leaf other than its root; the
    edges left span its internal vertices and the root, form a CEDS, and
    are minimalized.
    The seed is the smallest result in :class:`Solution` order (size, then
    the ascending edge-index key), so ties go to the lowest key.  The n
    searches and minimalizations cost O(n (n + m)) in all.
    """
    if min_ceds_is_singleton(g) is not None:
        raise ValueError("trivial instance: all solutions come from enumerate_trivial")
    deg = g.degrees
    by_degree = [sorted(adj, key=lambda wh: (-deg[wh[0]], wh[1])) for adj in g.adjacency]
    pruned = {_without_leaf_edges(g, _spanning_tree_mask(g, g.all_edges_mask), 0)}
    for r in range(g.n):
        tree = sum(1 << h for *_, h in _dfs_edges(by_degree, r, g.all_edges_mask))
        pruned.add(_without_leaf_edges(g, tree, r))
    # a depth-1 DFS tree would leave nothing, but that means the
    # graph is a star, which is trivial and was rejected above
    sol = min(minimalize(g, tree) for tree in pruned)
    lb = _lower_bound(g)
    return SeedReport(sol, lb, Fraction(sol.size, lb))
