"""Reference forms that only the tests use, kept beside them rather than in
the package."""

from __future__ import annotations

import heapq
from collections import deque

from cedsenum.approx import approx_min_ceds
from cedsenum.ceds import (
    Solution, _is_ceds_mask, enumerate_trivial, min_ceds_is_singleton, minimalize,
)
from cedsenum.enumeration import EnumerationStats, InsertHook, Sink
from cedsenum.graph import Graph, _bits, _spanning_tree_mask, _vertex_degree_masks
from cedsenum.neighbors import all_neighbors


def private_mask(g: Graph, mask: int, f: int) -> int:
    """Edges outside ``mask`` whose only dominator in ``mask`` is ``f``."""
    out = 0
    u, v = g.edges[f]
    # a private edge must share an endpoint with f, so scanning the
    # neighborhood of f's endpoints sees every candidate
    for h in _bits((g.incident_mask[u] | g.incident_mask[v]) & ~mask):
        if g.dominator_mask[h] & mask == 1 << f:
            out |= 1 << h
    return out


def dominated_mask(g: Graph, mask: int) -> int:
    """Edges that share an endpoint with an edge of ``mask``, ``mask`` included."""
    covered = 0
    for e in _bits(mask):
        covered |= g.dominator_mask[e]
    return covered


def pendant_items(g: Graph, mask: int) -> list[tuple[int, int]]:
    """(edge, pendant vertex) for each pendant edge of G[mask], ascending,
    for any mask.  The pendant vertices are the leaves of
    ``_vertex_degree_masks``; an isolated edge has two leaves and reports
    its smaller endpoint."""
    vm, inner = _vertex_degree_masks(g, mask)
    leaves = vm & ~inner
    out = []
    for e in _bits(mask):
        lv = g.edge_vmask[e] & leaves
        if lv:
            out.append((e, (lv & -lv).bit_length() - 1))
    return out


def single_dfs_seed(g: Graph) -> Solution:
    """The seed as ``approx_min_ceds`` built it from one tree alone:
    ``_spanning_tree_mask(g, all edges)``, a depth-first search from vertex
    0 in ascending edge index order, without the pendant edge at each leaf
    other than vertex 0, minimalized."""
    tree = _spanning_tree_mask(g, g.all_edges_mask)
    vm, inner = _vertex_degree_masks(g, tree)
    for w in _bits(vm & ~inner & ~1):
        tree &= ~g.incident_mask[w]
    return minimalize(g, tree)


def root_paths_by_bfs(g: Graph, mask: int, root: int) -> dict[int, tuple[int, tuple[int, ...]]]:
    """For each vertex w of the tree ``mask``: the vertex mask of the path
    from ``root`` to w and that path's edges, from the root down.  Read off
    the parent pointers of a breadth-first search of the tree."""
    parent: dict[int, tuple[int, int] | None] = {root: None}
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for w, h in g.adjacency[u]:
            if mask >> h & 1 and w not in parent:
                parent[w] = (u, h)
                queue.append(w)
    paths = {}
    for w in parent:
        vertices, edges, u = 1 << w, [], w
        while parent[u] is not None:
            u, h = parent[u]
            vertices |= 1 << u
            edges.append(h)
        paths[w] = (vertices, tuple(reversed(edges)))
    return paths


def is_minimal_ceds_by_subsets(g: Graph, mask: int) -> bool:
    """Fully naive minimality: check every proper nonempty subset."""
    if not _is_ceds_mask(g, mask):
        return False
    sub = (mask - 1) & mask
    while sub:
        if _is_ceds_mask(g, sub):
            return False
        sub = (sub - 1) & mask
    return True


def kbest_untrimmed(g: Graph, k: int, sink: Sink, on_insert: InsertHook) -> EnumerationStats:
    """``enumerate_kbest`` with a heap that is never trimmed: every inserted
    solution stays on it until the k-th output.  The delays stay 0."""
    stats = EnumerationStats()
    if min_ceds_is_singleton(g) is not None:
        for sol in enumerate_trivial(g)[:k]:
            sink(sol)
            stats.outputs += 1
            stats.expansions += 1
        return stats
    seed = approx_min_ceds(g)
    stats.seed_size, stats.seed_lower_bound = seed.solution.size, seed.lower_bound
    stats.seed_ratio_bound = seed.observed_ratio_bound
    visited = {seed.solution.mask}
    heap = [seed.solution]
    while heap:
        sol = heapq.heappop(heap)
        sink(sol)
        stats.outputs += 1
        if stats.outputs >= k:
            break
        stats.expansions += 1
        for nb, prov in all_neighbors(g, sol, visited).items:
            if nb.mask in visited:
                stats.duplicates += 1
                continue
            visited.add(nb.mask)
            on_insert(nb, prov)
            heapq.heappush(heap, nb)
    stats.peak_visited = len(visited)
    return stats
