"""Deterministic graph corpora for tests and the CLI generator.

The exhaustive family lists every labeled connected graph on up to five
vertices; the random family draws Erdos-Renyi style graphs, rejection
sampled until connected, from fixed seeds.  Everything here is pure and
reproducible: the same arguments always give the same graphs.
"""

from __future__ import annotations

import random
from itertools import combinations

from .graph import Graph

def _is_connected_cover(n: int, edges: list[tuple[int, int]]) -> bool:
    """True iff the edges touch all n vertices and form one component."""
    nbr = [0] * n
    for u, v in edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    # vertex 0 reaches all n vertices iff the edges touch them all and are connected
    seen = frontier = 1
    while frontier:
        low = frontier & -frontier
        new = nbr[low.bit_length() - 1] & ~seen
        seen |= new
        frontier ^= low | new
    return bool(edges) and seen == (1 << n) - 1


def all_connected_graphs(n: int) -> list[Graph]:
    """Every labeled connected graph on exactly the vertices 0..n-1."""
    pairs = list(combinations(range(n), 2))
    out = []
    for mask in range(1, 1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        if _is_connected_cover(n, edges):
            out.append(Graph.from_edge_list(edges))
    return out


def tiny_corpus() -> list[Graph]:
    """All labeled connected graphs with 2 to 5 vertices (771 graphs)."""
    out = []
    for n in range(2, 6):
        out.extend(all_connected_graphs(n))
    return out


def random_connected_graph(n: int, p: float, seed: int, max_tries: int = 10000) -> Graph:
    """Seeded G(n, p) conditioned on connectivity by rejection sampling."""
    if n < 2:
        raise ValueError(f"need at least 2 vertices, got {n}")
    if not 0.0 < p <= 1.0:
        raise ValueError(f"edge probability must be in (0, 1], got {p}")
    rng = random.Random(seed)
    pairs = list(combinations(range(n), 2))
    for _ in range(max_tries):
        edges = [uv for uv in pairs if rng.random() < p]
        if _is_connected_cover(n, edges):
            return Graph.from_edge_list(edges)
    raise ValueError(
        f"no connected sample in {max_tries} tries for n={n}, p={p}; raise p"
    )


# Edge probabilities admitted per vertex count.  Dense draws stay on the
# small side: minimal-solution counts grow so fast with density that an
# eight-vertex graph at p = 0.8 already has tens of thousands of them,
# which no desk-scale check can afford to walk.  The full probability
# sweep is still exercised (at n = 6 and 7).
_PROBABILITIES_BY_N = {6: (0.3, 0.5, 0.8), 7: (0.3, 0.5, 0.8), 8: (0.3, 0.5), 9: (0.3,)}


def random_corpus(count: int = 200, base_seed: int = 1105) -> list[Graph]:
    """Seeded random connected graphs sweeping n in 6..9 and p in the
    standard probabilities; deterministic for a fixed base seed."""
    out = []
    for i in range(count):
        n = 6 + i % 4
        choices = _PROBABILITIES_BY_N[n]
        p = choices[(i // 4) % len(choices)]
        out.append(random_connected_graph(n, p, seed=base_seed + i))
    return out
