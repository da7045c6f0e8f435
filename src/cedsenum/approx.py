"""Approximate minimum CEDS used to seed k-best enumeration.

The construction: internal vertices of a depth-first search tree form a
connected vertex cover (Savage's bound), so the tree without its pendant
edges is a CEDS.  The seed is ``_spanning_tree_mask(g, all edges)`` minus the
pendant edge at every leaf other than the root, minimalized.  The reported
ratio bound divides the seed size by a cheap combinatorial lower bound on
the optimum; tests compare against the brute-force optimum as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .ceds import Solution, min_ceds_is_singleton, minimalize
from .graph import Graph, _bits, _spanning_tree_mask, _vertex_degree_masks


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


def approx_min_ceds(g: Graph) -> SeedReport:
    """Deterministic seed solution for a graph with no single-edge CEDS.

    The tree is ``_spanning_tree_mask(g, all edges)``: a depth-first search
    from vertex 0 exploring incident edges in ascending index order.  The
    pendant edge at each leaf other than vertex 0 is dropped; the edges left
    span the internal vertices, form a CEDS, and are then minimalized.
    """
    if min_ceds_is_singleton(g) is not None:
        raise ValueError("trivial instance: all solutions come from enumerate_trivial")
    tree = _spanning_tree_mask(g, g.all_edges_mask)
    vm, inner = _vertex_degree_masks(g, tree)
    for w in _bits(vm & ~inner & ~1):
        tree &= ~g.incident_mask[w]
    # a depth-1 DFS tree would leave nothing, but that means the
    # graph is a star, which is trivial and was rejected above
    sol = minimalize(g, tree)
    lb = _lower_bound(g)
    return SeedReport(sol, lb, Fraction(sol.size, lb))
