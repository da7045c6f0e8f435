"""Connected edge dominating sets: predicates, minimalization, trivial instances.

An edge set F of a connected graph G is a CEDS when G[F] is connected and
every edge of G shares an endpoint with some edge of F.  F is minimal when
no proper subset is again a CEDS; every minimal CEDS induces a tree.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable
from dataclasses import dataclass

from .graph import (
    EdgeSet,
    Graph,
    _bits,
    _is_connected_mask,
    _mask_of,
    _outside_reach,
    _spanning_tree_mask,
    _vertex_degree_masks,
)


class NotCedsError(ValueError):
    """The given edge set is not a connected edge dominating set."""


@dataclass(frozen=True, slots=True)
class Solution:
    """A certified minimal CEDS, held as its edge bitmask.

    Solutions are equal when their masks are.  They are ordered by size,
    then by ``canonical_key``, the ascending edge-index tuple, which is the
    deterministic tie-breaker everywhere.
    """

    mask: int

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    @property
    def canonical_key(self) -> tuple[int, ...]:
        return tuple(_bits(self.mask))

    @property
    def edges(self) -> EdgeSet:
        return EdgeSet.from_mask(self.mask)

    def __lt__(self, other: Solution) -> bool:
        a, b = self.mask, other.mask
        size_a, size_b = a.bit_count(), b.bit_count()
        if size_a != size_b:
            return size_a < size_b
        # equal sizes: the key tuples first differ at the lowest edge in
        # exactly one of the sets, and the set holding it is the smaller
        diff = a ^ b
        return bool(a & diff & -diff)

    def __repr__(self) -> str:
        return f"Solution({list(_bits(self.mask))})"


def _is_ceds_mask(g: Graph, mask: int) -> bool:
    return mask != 0 and g._dominates_all(mask) and _is_connected_mask(g, mask)


def is_ceds(g: Graph, s: EdgeSet | Iterable[int]) -> bool:
    """True iff s is nonempty, G[s] is connected, and s dominates every edge."""
    return _is_ceds_mask(g, _mask_of(s))


def _private_mask(g: Graph, mask: int, f: int) -> int:
    """Edges outside ``mask`` whose only dominator in ``mask`` is ``f``."""
    out = 0
    u, v = g.edges[f]
    # a private edge must share an endpoint with f, so scanning the
    # neighborhood of f's endpoints sees every candidate
    for h in _bits((g.incident_mask[u] | g.incident_mask[v]) & ~mask):
        if g.dominator_mask[h] & mask == 1 << f:
            out |= 1 << h
    return out


def is_minimal_ceds(g: Graph, s: EdgeSet | Iterable[int]) -> bool:
    """True iff s is a CEDS and no proper subset of s is one.

    Decided structurally: a minimal CEDS induces a tree, a single-edge CEDS
    is always minimal, and a tree CEDS T with two or more edges is minimal
    exactly when the pendant edge at each leaf ``ell`` has a private edge.
    That holds iff ``ell`` has a neighbour outside V(T), and it is exact:
    the leaf's parent p has another tree edge, which dominates every edge
    at p, so a private edge must join ``ell`` to some w != p, and it is
    private iff no tree edge touches w, that is, iff w lies outside V(T).
    The edge back to p never counts, since p lies inside V(T).

    One OR of the neighbour masks of the vertices outside V(T)
    (:func:`_outside_reach`) answers both questions that need the rest of
    the graph: s dominates every edge iff the OR misses those vertices, and
    every leaf has a private edge iff the OR holds every leaf.  Connectivity
    is tested last, since any earlier failure already settles the answer.
    """
    mask = _mask_of(s)
    if not mask:
        return False
    vm, inner = _vertex_degree_masks(g, mask)
    reach = _outside_reach(g, vm)
    if reach & ~vm:
        return False  # an edge with both endpoints outside V(s) is not dominated
    # a connected mask is a tree iff it has one edge fewer than vertices; a
    # disconnected one is no CEDS, so a failed count answers either way
    if mask.bit_count() != vm.bit_count() - 1:
        return False
    if mask.bit_count() > 1 and vm & ~inner & ~reach:
        return False  # a leaf without a private edge
    return _is_connected_mask(g, mask)


def _minimalize_mask(g: Graph, mask: int) -> int:
    """Prune a CEDS mask to a minimal one; assumes the input is a CEDS.

    Every neighbor move builds its candidates as CEDS (see
    :func:`cedsenum.neighbors._consider`), so the precondition holds by
    construction and is not tested here.  A connected mask with one edge
    fewer than it has vertices is already a tree, and the only spanning
    tree of a tree is itself, so the DFS is run only on masks with a cycle.
    The shortcut relies on the precondition: a disconnected mask can meet
    the same count.

    The pendant edges of the tree T are then tried smallest first.  The
    edge at leaf ``ell`` stays iff ``ell`` has a neighbour outside V(T), the
    exact private-edge test of :func:`is_minimal_ceds`; otherwise it is
    removed, ``ell`` leaves V(T), and the other endpoint is queued if it is
    now a leaf.  V(T) comes from the same walk as the tree test, since a
    spanning tree keeps every vertex.  A private edge survives later
    removals, since V(T) only shrinks, so one OR (:func:`_outside_reach`)
    settles every leaf that has one before the loop starts, and only the
    others are queued; when there are none, T is minimal as it stands.
    The test is made again at each pop, because a removal can give another
    leaf a private edge.
    """
    inc, nbr = g.incident_mask, g.neighbor_vmask
    vm, inner = _vertex_degree_masks(g, mask)
    if mask.bit_count() == vm.bit_count() - 1:
        tree = mask
    else:
        tree = _spanning_tree_mask(g, mask)
        inner = _vertex_degree_masks(g, tree)[1]
    leaves = vm & ~inner & ~_outside_reach(g, vm)
    if not leaves:
        return tree
    # the pendant edge at each unsettled leaf; a single edge may be listed
    # twice, and the loop stops at once
    heap = []
    while leaves:
        low = leaves & -leaves
        heap.append((inc[low.bit_length() - 1] & tree).bit_length() - 1)
        leaves ^= low
    heap.sort()  # a sorted list is a heap
    queued = set(heap)
    while heap:
        e = heapq.heappop(heap)
        if tree == 1 << e:
            break  # a single edge is always minimal; never remove it
        u, v = g.edges[e]
        ell, other = (u, v) if inc[u] & tree == 1 << e else (v, u)
        if nbr[ell] & ~vm:
            continue  # private edges survive later removals, so e is settled
        tree ^= 1 << e
        vm ^= 1 << ell
        rest = inc[other] & tree
        if rest.bit_count() == 1:
            f = rest.bit_length() - 1
            if f not in queued:
                queued.add(f)
                heapq.heappush(heap, f)
    return tree


def minimalize(g: Graph, x: EdgeSet | Iterable[int]) -> Solution:
    """Extract a minimal CEDS contained in the CEDS ``x`` (deterministically).

    Takes the canonical spanning tree of G[x], then repeatedly removes the
    smallest-index pendant edge that has no private edge, re-enqueueing edges
    that become pendant.  Raises :class:`NotCedsError` if x is not a CEDS.
    """
    mask = _mask_of(x)
    if not _is_ceds_mask(g, mask):
        raise NotCedsError(f"not a connected edge dominating set: {EdgeSet.from_mask(mask)!r}")
    return Solution(_minimalize_mask(g, mask))


def _singleton_mask(g: Graph) -> int:
    """Mask of the edges e={a,b} with d(a)+d(b)-1 = m.

    Such an edge's endpoints touch every edge, so {e} is a CEDS; the count
    identity holds because e is the only edge incident to both a and b.
    """
    deg, m = g.degrees, g.m
    return sum(1 << e for e, (u, v) in enumerate(g.edges) if deg[u] + deg[v] - 1 == m)


def min_ceds_is_singleton(g: Graph) -> int | None:
    """Smallest edge e={a,b} with d(a)+d(b)-1 = m, if any (see :func:`_singleton_mask`)."""
    singles = _singleton_mask(g)
    return (singles & -singles).bit_length() - 1 if singles else None


def enumerate_trivial(g: Graph) -> list[Solution]:
    """All minimal CEDS of a graph that has a single-edge CEDS.

    With a witness edge {a, b} every edge of the graph touches a or b, and a
    case split on how a minimal solution meets the two hubs leaves only four
    shapes:

    - a singleton whose endpoints cover all edges: 1 edge;
    - a two-edge path a-w-b through a common neighbor w: 2 edges;
    - the full star from a onto N(a) & N(b): |N(a) & N(b)| edges, possible
      only when b has no private neighbor;
    - the full star from b onto N(a) & N(b): |N(a) & N(b)| edges, possible
      only when a has no private neighbor.

    A star is never smaller than the whole common neighborhood, since each
    spoke is the sole dominator of the opposite hub's edge to that neighbor.
    So no solution has more than max(2, |N(a) & N(b)|) edges.
    """
    singles = _singleton_mask(g)
    if not singles:
        raise ValueError("graph has no single-edge CEDS; use the general enumerator")
    masks = [1 << e for e in _bits(singles)]
    a, b = g.edges[(singles & -singles).bit_length() - 1]
    nbr = g.neighbor_vmask
    star_a = star_b = 0
    for w in _bits(nbr[a] & nbr[b]):
        ea, eb = g.edge_between(a, w), g.edge_between(b, w)
        masks.append((1 << ea) | (1 << eb))
        star_a |= 1 << ea
        star_b |= 1 << eb
    if star_a and not nbr[b] & ~nbr[a] & ~(1 << a):
        masks.append(star_a)
    if star_b and not nbr[a] & ~nbr[b] & ~(1 << b):
        masks.append(star_b)
    return sorted(
        Solution(mask) for mask in set(masks) if is_minimal_ceds(g, EdgeSet.from_mask(mask))
    )


# ---------------------------------------------------------------------------
# Solution line format: space-separated `u-v` pairs in ascending edge index


def solution_line(g: Graph, s: Solution | EdgeSet | Iterable[int]) -> str:
    """``u-v`` pairs in ascending edge index, in internal vertex ids.

    The ids are the relabeled 0..n-1, not the input's labels (the command
    line maps them back); :func:`parse_solution_line` reads the same ids.
    """
    mask = s.mask if isinstance(s, Solution) else _mask_of(s)
    return " ".join(f"{g.edges[e][0]}-{g.edges[e][1]}" for e in _bits(mask))


def parse_solution_line(g: Graph, line: str) -> EdgeSet:
    """Inverse of :func:`solution_line`, in internal vertex ids; raises
    ValueError on unknown edges."""
    mask = 0
    for token in line.split():
        try:
            a, b = token.split("-")
            u, v = int(a), int(b)
        except ValueError:
            raise ValueError(f"malformed endpoint pair {token!r}") from None
        e = g.edge_between(u, v)
        if e is None:
            raise ValueError(f"no edge {u}-{v} in the graph")
        mask |= 1 << e
    return EdgeSet.from_mask(mask)


def solution_from_edges(g: Graph, s: EdgeSet | Iterable[int]) -> Solution:
    """Certify an edge set as a minimal CEDS and wrap it as a Solution."""
    es = EdgeSet(s)
    if not is_minimal_ceds(g, es):
        raise NotCedsError(f"not a minimal connected edge dominating set: {es!r}")
    return Solution(es.mask)
