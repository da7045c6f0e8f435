"""Connected edge dominating sets: predicates, minimalization, trivial instances.

An edge set F of a connected graph G is a CEDS when G[F] is connected and
every edge of G shares an endpoint with some edge of F.  F is minimal when
no proper subset is again a CEDS; every minimal CEDS induces a tree.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import (
    Graph,
    _bits,
    _check_mask,
    _is_connected_mask,
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
    """True iff mask is nonempty, G[mask] is connected, and it dominates every edge."""
    return mask != 0 and g._dominates_all(mask) and _is_connected_mask(g, mask)


def is_minimal_ceds(g: Graph, mask: int) -> bool:
    """True iff the edge mask is a CEDS and no proper subset of it is one.

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
    the graph: the mask dominates every edge iff the OR misses those
    vertices, and every leaf has a private edge iff the OR holds every leaf.
    Connectivity is tested last, since any earlier failure already settles
    the answer.
    """
    _check_mask(g, mask)
    if not mask:
        return False
    vm, inner = _vertex_degree_masks(g, mask)
    reach = _outside_reach(g, vm)
    if reach & ~vm:
        return False  # an edge with both endpoints outside V(mask) is not dominated
    # a connected mask is a tree iff it has one edge fewer than vertices; a
    # disconnected one is no CEDS, so a failed count answers either way
    if mask.bit_count() != vm.bit_count() - 1:
        return False
    if mask.bit_count() > 1 and vm & ~inner & ~reach:
        return False  # a leaf without a private edge
    return _is_connected_mask(g, mask)


def _minimalize_mask(g: Graph, tree: int) -> int:
    """Prune a CEDS tree to a minimal CEDS; assumes the input is one.

    Only trees come in.  Every neighbor move builds its candidates as CEDS
    trees (see :func:`cedsenum.neighbors._consider`), and :func:`minimalize`,
    the one caller whose mask can hold a cycle, passes the spanning tree
    the DFS keeps of it.  So neither precondition is tested here.

    The pendant edges of the tree T are tried smallest first.  The edge at
    leaf ``ell`` stays iff ``ell`` has a neighbour outside V(T), the exact
    private-edge test of :func:`is_minimal_ceds`; otherwise it is removed
    and ``ell`` leaves V(T).  V(T) only shrinks, so a private edge survives
    later removals, and one OR (:func:`_outside_reach`) settles every leaf
    that has one before the loop starts.  A removal never makes a new leaf
    removable: the vertex it exposes keeps the edge back to ``ell``, which
    now lies outside V(T) for good, as a private edge.  So only the input
    tree's unsettled leaves can go, and one pass over their pendant edges
    in ascending order suffices.  Each is tested again when its turn
    comes, since an earlier removal can give it a private edge, and a lone
    edge is never removed.

    Taking only trees loses nothing: a set with a cycle minimalizes as its
    DFS spanning tree T does, since T keeps every vertex of the set, so
    V(T), and with it every leaf test below, is the set's own.
    """
    inc, nbr = g.incident_mask, g.neighbor_vmask
    vm, inner = _vertex_degree_masks(g, tree)
    leaves = vm & ~inner & ~_outside_reach(g, vm)
    if not leaves:
        return tree
    # (pendant edge, leaf) of each unsettled leaf; a lone edge is listed
    # twice, and the loop stops at once
    pendants = []
    while leaves:
        low = leaves & -leaves
        ell = low.bit_length() - 1
        pendants.append(((inc[ell] & tree).bit_length() - 1, ell))
        leaves ^= low
    pendants.sort()
    for e, ell in pendants:
        if tree == 1 << e:
            break  # a single edge is always minimal; never remove it
        if not nbr[ell] & ~vm:
            tree ^= 1 << e
            vm ^= 1 << ell
    return tree


def minimalize(g: Graph, mask: int) -> Solution:
    """Extract a minimal CEDS contained in the CEDS ``mask`` (deterministically).

    Takes the canonical spanning tree of G[mask], then removes, in ascending
    edge order, each pendant edge of that tree whose leaf has no private
    edge (see :func:`_minimalize_mask`).  A tree is its own spanning tree,
    so the DFS runs only on a mask with a cycle, as from
    :func:`cedsenum.enumeration.initial_solution`.  Raises
    :class:`NotCedsError` if the mask is not a CEDS.
    """
    _check_mask(g, mask)
    if not _is_ceds_mask(g, mask):
        raise NotCedsError(f"not a connected edge dominating set: edges {list(_bits(mask))}")
    if mask.bit_count() != _vertex_degree_masks(g, mask)[0].bit_count() - 1:
        mask = _spanning_tree_mask(g, mask)
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
    return sorted(Solution(mask) for mask in set(masks) if is_minimal_ceds(g, mask))


# ---------------------------------------------------------------------------
# Solution line format: space-separated `u-v` pairs in ascending edge index


def solution_line(g: Graph, sol: Solution) -> str:
    """``u-v`` pairs in ascending edge index, in internal vertex ids.

    The ids are the relabeled 0..n-1, not the input's labels (the command
    line maps them back); :func:`parse_solution_line` reads the same ids.
    Raises ValueError when the mask holds an edge the graph lacks.
    """
    _check_mask(g, sol.mask)
    return " ".join(f"{g.edges[e][0]}-{g.edges[e][1]}" for e in _bits(sol.mask))


def parse_solution_line(g: Graph, line: str) -> int:
    """Inverse of :func:`solution_line`, in internal vertex ids: the edge
    mask of the line.  Raises ValueError on unknown edges."""
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
    return mask
