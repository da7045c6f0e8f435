"""Neighbor moves between minimal CEDS: the arcs of the solution supergraph.

Each move removes one edge from a solution, adds a small reconnecting set,
and re-minimalizes.  Three move families cover internal edges (Type I) and
pendant edges (Types II and III); together they make the supergraph strongly
connected, which is what lets a plain traversal reach every solution.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ceds import Solution, _minimalize_mask, _private_mask, is_minimal_ceds
from .graph import (
    Graph,
    _bits,
    _component_mask,
    _dominated_mask,
    _pendant_items,
    _vertex_degree_masks,
    _vertices_mask,
)

# ``benchmarks/tracing.py`` binds ``_is_ceds_mask`` in this module by name, so
# it stays imported here although no move tests its candidates
from .ceds import _is_ceds_mask  # noqa: F401


class NotPendantError(ValueError):
    pass


@dataclass(frozen=True)
class TypeI:
    """Removed internal edge ``e``; added ``f`` and ``g`` (equal when f bridges)."""

    e: int
    f: int
    g: int

    def trace(self) -> str:
        return f"TYPE1 e={self.e} f={self.f} g={self.g}"


@dataclass(frozen=True)
class TypeII:
    """Removed pendant edge ``e``; added a path of one or two edges."""

    e: int
    path: tuple[int, ...]

    def trace(self) -> str:
        return f"TYPE2 e={self.e} path={','.join(map(str, self.path))}"


@dataclass(frozen=True)
class TypeIII:
    """Removed pendant edge ``e``; added one reconnecting edge per W-vertex."""

    e: int
    bundle: tuple[int, ...]

    def trace(self) -> str:
        return f"TYPE3 e={self.e} F={','.join(map(str, self.bundle))}"


Provenance = TypeI | TypeII | TypeIII


@dataclass
class NeighborBatch:
    items: list[tuple[Solution, Provenance]]


def _consider(g: Graph, cand: int, prov: Provenance, out: list, cache: dict) -> None:
    """Minimalize a candidate mask and append (Solution, prov).  ``cache``
    maps each candidate mask to its Solution; the moves of one expansion
    share it.

    Types I and II call it only for a mask not yet in ``cache``.  A mask
    in ``cache`` already has its Solution earlier in the same expansion,
    so :func:`all_neighbors` would drop the repeat and keep the earlier
    provenance; skipping it where it is built leaves every batch as it
    was.  Type III builds one candidate per pendant edge and calls it
    unconditionally.

    Every candidate is a CEDS by construction, so it is not tested.  Let x
    be the expanded minimal CEDS (a tree of two or more edges) and e the
    removed edge.

    - Type I: e is internal, so both its endpoints keep another edge of
      x - e and everything e dominated stays dominated.  f leaves one
      component C_i at its outside endpoint v, and g joins v to the other
      component C_j (g = f when f bridges them), so C_i, C_j, f and g are
      one connected set.
    - Type II: every edge that only e dominated sits at the leaf v, and the
      path starts at v, which puts v back; it ends in V(x - e), which is
      nonempty since x has two or more edges.
    - Type III: every private edge of e is (v, w) with w outside V(x).  The
      move is skipped when v touches a pendant edge of G, so every such w
      lies in W, and each w gets an edge into V(x - e), which dominates
      (v, w) and joins the set.

    A candidate that broke these proofs would not pass silently: the
    spanning tree DFS raises :class:`NotConnectedError` on some
    disconnected ones, and the self-check in :func:`all_neighbors` fails on
    any result that is not a minimal CEDS.
    """
    if cand not in cache:
        cache[cand] = Solution(_minimalize_mask(g, cand))
    out.append((cache[cand], prov))


def _w_mask(g: Graph, mask: int, e: int) -> int:
    """Vertex mask of the vertices off ``e`` incident to a private edge of
    ``e`` that is not a pendant edge of the whole graph.  The caller has
    checked that ``e`` is pendant in G[mask]."""
    priv = _private_mask(g, mask, e)
    assert priv or mask.bit_count() == 1, "pendant edge of a minimal CEDS must have a private edge"
    verts = 0
    for h in _bits(priv):
        hu, hv = g.edges[h]
        if g.degrees[hu] == 1 or g.degrees[hv] == 1:
            continue  # pendant in G
        verts |= g.edge_vmask[h]
    return verts & ~g.edge_vmask[e]


def type1_neighbors(g: Graph, x: Solution, cache: dict) -> list[tuple[Solution, TypeI]]:
    """Moves that replace an internal edge of G[x].

    Removing internal edge e leaves components C_0, C_1 (each with an
    edge).  For every edge f with exactly one endpoint in V(C_i) and
    outside endpoint v, and every edge g from v into V(C_j), the pair
    rejoins the components; f alone suffices when it bridges them (then
    g = f).  Each candidate mask is built once: a mask already in
    ``cache`` is skipped (see :func:`_consider`).

    Side 1 skips every f whose outside endpoint v lies outside V(x): its
    pairs were all built on side 0 with the roles swapped.  Such an f
    joins u in V(C_1) to v, g joins v to some w in V(C_0), and g != f
    since v is not in V(C_0).  On side 0, g is an f: it has the endpoint w
    in V(C_0), and it is not in x, since v lies outside V(x).  Its outside
    endpoint is v, and f is one of the edges from v into V(C_1), so side 0
    built the pair {g, f}, the same mask.
    """
    out: list[tuple[Solution, TypeI]] = []
    edge_vmask = g.edge_vmask
    mask = x.mask
    vm, inner = _vertex_degree_masks(g, mask)
    for e in _bits(mask):
        if edge_vmask[e] & ~inner:
            continue  # pendant edges are handled by Types II and III
        # x is a tree, so an edge between two inner vertices splits it in
        # two components that share no vertex and cover V(x)
        rest = mask ^ (1 << e)
        c0 = _component_mask(g, rest, (rest & -rest).bit_length() - 1)
        comps = (c0, rest ^ c0)
        v0 = _vertices_mask(g, c0)
        vmasks = (v0, vm & ~v0)
        for i in (0, 1):
            vi, vj = vmasks[i], vmasks[1 - i]
            # every edge with an endpoint in V(C_i) shares it with an edge
            # of C_i, so only the edges C_i dominates need a look
            boundary = _dominated_mask(g, comps[i]) & ~comps[i]
            while boundary:
                low = boundary & -boundary
                f = low.bit_length() - 1
                boundary ^= low
                fverts = edge_vmask[f]
                inside = fverts & vi
                if inside == fverts:
                    continue  # a chord of V(C_i); need exactly one endpoint there
                outside = fverts ^ inside
                if i and not outside & vj:
                    continue  # v lies outside V(x): side 0 built these pairs
                v = outside.bit_length() - 1
                for w, g2 in g.adjacency[v]:
                    if vj >> w & 1 or (g2 == f and vj >> v & 1):
                        cand = rest | (1 << f) | (1 << g2)
                        if cand not in cache:
                            _consider(g, cand, TypeI(e, f, g2), out, cache)
    return out


def type2_neighbors(g: Graph, x: Solution, cache: dict) -> list[tuple[Solution, TypeII]]:
    """Moves that replace a pendant edge by a short escape path.

    For pendant edge e with pendant vertex v, every path of length one or
    two from v back to a vertex of G[x - e] is patched in; the path may
    reuse e itself, which yields the origin again (dropped later).  Each
    candidate mask is built once, as in :func:`type1_neighbors`.
    """
    out: list[tuple[Solution, TypeII]] = []
    mask = x.mask
    vm = _vertices_mask(g, mask)
    for e, v in _pendant_items(g, mask):
        rest = mask ^ (1 << e)
        rest_verts = vm ^ (1 << v) if rest else 0  # V(x - e): V(x) without the leaf
        for z, h in g.adjacency[v]:
            if rest_verts >> z & 1:
                cand = rest | (1 << h)
                if cand not in cache:
                    _consider(g, cand, TypeII(e, (h,)), out, cache)
        for w, h1 in g.adjacency[v]:
            for z, h2 in g.adjacency[w]:
                if h2 == h1 or z == v:
                    continue
                if rest_verts >> z & 1:
                    cand = rest | (1 << h1) | (1 << h2)
                    if cand not in cache:
                        _consider(g, cand, TypeII(e, (h1, h2)), out, cache)
    return out


def type3_neighbor(g: Graph, x: Solution, e: int, cache: dict) -> tuple[Solution, TypeIII] | None:
    """The unique move that drops pendant edge e and re-covers its W-vertices.

    Returns None when the pendant vertex touches a pendant edge of the
    whole graph (the move is undefined there).  Each W-vertex contributes
    its smallest-index edge back to V(G[x - e]).
    """
    vm, inner = _vertex_degree_masks(g, x.mask)
    if not x.mask >> e & 1 or not g.edge_vmask[e] & ~inner:
        raise NotPendantError(f"edge {e} is not a pendant edge of the solution")
    a, b = g.edges[e]  # a < b; a lone edge reports its smaller endpoint
    v = b if inner >> a & 1 else a
    for _, h in g.adjacency[v]:
        hu, hv = g.edges[h]
        if g.degrees[hu] == 1 or g.degrees[hv] == 1:
            return None
    ws = _w_mask(g, x.mask, e)
    if not ws:
        # empty W would mean x - e is already a CEDS, contradicting the
        # minimality of x; reaching this line is a bug
        raise RuntimeError(f"empty W-set for pendant edge {e} of {x!r}")
    rest = x.mask ^ (1 << e)
    rest_verts = vm ^ (1 << v) if rest else 0  # V(x - e): V(x) without the leaf
    fmask = 0
    for w in _bits(ws):
        f = next((h for z, h in g.adjacency[w] if rest_verts >> z & 1), None)
        if f is None:
            raise RuntimeError(f"no edge reconnects W-vertex {w} for pendant edge {e}")
        fmask |= 1 << f
    assert fmask.bit_count() == ws.bit_count()
    out: list[tuple[Solution, TypeIII]] = []
    _consider(g, rest | fmask, TypeIII(e, tuple(_bits(fmask))), out, cache)
    return out[0]


def all_neighbors(g: Graph, x: Solution) -> NeighborBatch:
    """All moves from x, deduplicated by mask, origin removed.

    Order is generation order: Type I, then II, then III, each internally
    deterministic, keeping the first provenance for a repeated solution.
    """
    if x.size < 2:
        # a single-edge solution only occurs in graphs handled by the
        # trivial-instance path, which never consults the supergraph
        return NeighborBatch([])
    cache: dict = {}
    raw: list[tuple[Solution, Provenance]] = []
    raw.extend(type1_neighbors(g, x, cache))
    raw.extend(type2_neighbors(g, x, cache))
    for e, _ in _pendant_items(g, x.mask):
        hit = type3_neighbor(g, x, e, cache)
        if hit is not None:
            raw.append(hit)
    seen = {x.mask}
    items: list[tuple[Solution, Provenance]] = []
    for sol, prov in raw:
        if sol.mask not in seen:
            seen.add(sol.mask)
            items.append((sol, prov))
    assert all(is_minimal_ceds(g, sol.mask) for sol, _ in items)
    return NeighborBatch(items)
