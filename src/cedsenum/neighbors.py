"""Neighbor moves between minimal CEDS: the arcs of the solution supergraph.

Each move removes one edge from a solution, adds a small reconnecting set,
and re-minimalizes.  Three move families cover internal edges (Type I) and
pendant edges (Types II and III); together they make the supergraph strongly
connected, which is what lets a plain traversal reach every solution.
"""

from __future__ import annotations

from collections.abc import Container, Sequence
from dataclasses import dataclass
from typing import NamedTuple

from .ceds import Solution, _minimalize_mask, is_minimal_ceds
from .graph import (
    Graph,
    _bits,
    _component_mask,
    _dfs_edges,
    _vertex_degree_masks,
    _vertices_mask,
)

# ``benchmarks/tracing.py`` binds ``_is_ceds_mask`` in this module by name, so
# it stays imported here although no move tests its candidates
from .ceds import _is_ceds_mask  # noqa: F401


class TypeI(NamedTuple):
    """Removed internal edge ``e``; added ``f`` and ``g`` (equal when f bridges).

    The provenance records are named tuples, cheap to build once per
    candidate, so they compare and hash as plain tuples: a TypeII and a
    TypeIII with equal fields are equal.  Compare records of one kind, or
    their traces."""

    e: int
    f: int
    g: int

    def trace(self) -> str:
        return f"TYPE1 e={self.e} f={self.f} g={self.g}"


class TypeII(NamedTuple):
    """Removed pendant edge ``e``; added a path of one or two edges.  A
    named tuple, which compares as a plain tuple (see :class:`TypeI`)."""

    e: int
    path: tuple[int, ...]

    def trace(self) -> str:
        return f"TYPE2 e={self.e} path={','.join(map(str, self.path))}"


class TypeIII(NamedTuple):
    """Removed pendant edge ``e``; added one reconnecting edge per W-vertex.
    A named tuple, which compares as a plain tuple (see :class:`TypeI`)."""

    e: int
    bundle: tuple[int, ...]

    def trace(self) -> str:
        return f"TYPE3 e={self.e} F={','.join(map(str, self.bundle))}"


Provenance = TypeI | TypeII | TypeIII


@dataclass
class NeighborBatch:
    items: list[tuple[Solution, Provenance]]


@dataclass(frozen=True, slots=True)
class _View:
    """The expanded solution x, walked once for all three moves: its mask,
    V(x) and its inner vertices (degree two or more in x), its pendant
    items (edge, leaf) in ascending edge order, the edges with an endpoint
    in V(x) (``touch``) and with both there (``within``), x rooted at
    r = min V(x) by the walk :func:`_spanning_tree_mask` takes
    (:func:`_rooted`), the bound ``below`` (None when unbounded) and its
    :func:`_growth_bound`.

    The moves read the edges that rejoin a vertex to x off these masks: the
    set bits of an edge mask ascend as ``g.adjacency`` does, so they visit
    the same edges in the same order as a scan of the adjacency list."""

    mask: int
    vm: int
    inner: int
    pendants: list[tuple[int, int]]
    touch: int
    within: int
    r: int
    anc: list[int]
    chain: list[tuple[int, ...]]
    below: Solution | None
    need: int
    single: int
    loose: int
    loose_edges: int
    two: int


def _touch_within(inc: tuple[int, ...], vm: int) -> tuple[int, int]:
    """(edges with an endpoint in the vertex mask ``vm``, edges with both
    there), in one pass over ``vm``: an edge is in the second once its
    higher endpoint finds it among the edges of the lower ones."""
    touch = within = 0
    while vm:
        low = vm & -vm
        edges = inc[low.bit_length() - 1]
        within |= edges & touch
        touch |= edges
        vm ^= low
    return touch, within


def _view(g: Graph, x: Solution, below: Solution | None = None) -> _View:
    mask, inc = x.mask, g.incident_mask
    vm, inner = _vertex_degree_masks(g, mask)
    # x has two or more edges, so no edge has two leaves
    pendants = sorted(((inc[ell] & mask).bit_length() - 1, ell) for ell in _bits(vm & ~inner))
    r = (vm & -vm).bit_length() - 1
    return _View(
        mask, vm, inner, pendants, *_touch_within(inc, vm),
        r, *_rooted(g, mask, r), below, *_growth_bound(g, mask, vm, below),
    )


def _consider(g: Graph, cand: int, prov: Provenance, out: list, cache: dict) -> None:
    """Minimalize a candidate tree, store its Solution in ``cache`` and
    append (Solution, prov).  The moves of one expansion share ``cache``.

    Every candidate is a tree.  Types I and II break the one cycle a
    candidate can hold where they build it, at the edge the spanning-tree
    DFS would leave out (:func:`_dfs_cut`), so :func:`_minimalize_mask`
    returns what :func:`minimalize` returns for the candidate with its
    cycle.

    No tree comes here twice in one expansion, so none is looked up.
    Types I and II test ``cache`` first: a tree there has its Solution
    earlier in the expansion, so :func:`all_neighbors` would drop the
    repeat and keep the earlier provenance, and skipping it leaves every
    batch as it was.  Type III's candidate for the pendant edge e, with
    leaf v, holds neither e nor any edge at v (F joins W to V(x) - v), and
    every other candidate holds one of them.  Each holds e before its
    cycle is broken, except a Type II candidate of e, whose path edge at v
    lies on no cycle; and a cycle through e passes through v, which keeps
    its other cycle edge when the cycle is broken.

    Every candidate is a CEDS by construction, so it is not tested; a tree
    left after breaking a cycle keeps every vertex and so is a CEDS too.
    Let x be the expanded minimal CEDS (a tree of two or more edges) and e
    the removed edge.

    - Type I: e is internal, so both its endpoints keep another edge of
      x - e and everything e dominated stays dominated.  f leaves one
      component C_i at its outside endpoint v, and g joins v to the other
      component C_j (g = f when f bridges them), so C_i, C_j, f and g are
      one connected set.
    - Type II: every edge that only e dominated sits at the leaf v, and the
      path starts at v, which puts v back; it ends in V(x - e), which is
      nonempty since x has two or more edges.
    - Type III: the private edges of e are the edges (v, w) with w in
      W = N(v) - V(x), and each w gets an edge into V(x - e), which
      dominates (v, w) and joins the set (:func:`type3_neighbor`).

    A candidate that broke these proofs would not pass silently.  A result
    that is not a minimal CEDS is in no traversal's visited set, whose
    masks were all asserted minimal, so the self-check in
    :func:`all_neighbors` tests it and fails, as it does on every item of a
    direct call.
    """
    cache[cand] = sol = Solution(_minimalize_mask(g, cand))
    out.append((sol, prov))


def _rooted(g: Graph, mask: int, root: int) -> tuple[list[int], list[tuple[int, ...]]]:
    """The tree ``mask`` rooted at ``root``: for each vertex of it, the
    vertex mask of its ancestors (itself included) and the edges of the
    path from the root down to it, the last one its parent edge.  Vertices
    outside the tree read 0 and ().  A tree has one path to each vertex,
    so any walk gives them; :func:`_dfs_edges` hands out each parent before
    its children."""
    anc = [0] * g.n
    chain: list[tuple[int, ...]] = [()] * g.n
    anc[root] = 1 << root
    for u, w, h in _dfs_edges(g.adjacency, root, mask):
        anc[w] = anc[u] | 1 << w
        chain[w] = chain[u] + (h,)
    return anc, chain


def _dfs_cut(
    anc: list[int], chain: list[tuple[int, ...]], a: int, b: int, chord: int, at_a: int
) -> int:
    """The edge :func:`_spanning_tree_mask` leaves out of a tree plus the
    chord (a, b), with ``anc`` and ``chain`` from :func:`_rooted` at the
    DFS root r.  Both read :func:`_dfs_edges` over ``g.adjacency``.

    The cycle is the tree path from a to b and the chord.  Every path from
    r to the cycle enters it at one vertex c, so the walk reaches no other
    cycle vertex before c.  At c it takes the lower of its two cycle
    edges, goes round the cycle, which is the only way between two cycle
    vertices once c is visited, and finds the higher one closing back on
    c: that edge is left out, and every other edge is in the tree.  The
    callers root the tree the moves started from, which agrees with the
    candidate's tree on every path the walk takes up to c.  c is a when
    the walk enters through the new edge at a (``at_a``), and otherwise
    the lowest common ancestor of a and b.
    """
    if at_a:
        depth = len(chain[a])
        toward_b = chain[b][depth] if anc[b] >> a & 1 else chain[a][-1]
        return max(chord, toward_b)
    depth = (anc[a] & anc[b]).bit_count() - 1  # of the lowest common ancestor
    ca, cb = chain[a], chain[b]
    return max(ca[depth] if len(ca) > depth else chord, cb[depth] if len(cb) > depth else chord)


def _growth_bound(
    g: Graph, mask: int, vm: int, below: Solution | None
) -> tuple[int, int, int, int, int]:
    """What Types I and II need to skip the candidates that provably
    minimalize to a solution at or above ``below`` when x (``mask``, on
    ``vm``) has at least ``below.size`` edges: (need, single, loose,
    loose_edges, two), with need 0 when nothing can be skipped.
    :func:`_view` computes it once per expansion.  ``single`` holds the
    vertices of V(x) with exactly one neighbour outside V(x), z for those
    in ``single & N(z)``, ``loose`` those with none, ``loose_edges`` the
    edges of x at a loose vertex and ``two`` the vertices of degree two in x.

    :func:`_minimalize_mask` removes only pendant edges of the unsettled
    leaves of its input tree, those without a neighbour outside it, and
    removes the edge of a lone one.  So a candidate c with no unsettled
    leaf is its own minimal form, and one with a single unsettled leaf
    minimalizes to c without that leaf's edge.  Types I and II know the
    unsettled leaves in two cases, and decide from the mask c alone,
    reading the removed edges as ``x & ~c``.  A repeat of a skipped
    candidate is then skipped too.

    - c spans V(x), with |x| edges: a bridging or chord-broken Type I
      tree, or a Type II one-edge path or rejoining two-edge path.  A leaf
      of c is a leaf of x, which keeps a neighbour outside V(x) = V(c)
      since x is minimal, or a vertex that lost an edge of x.  So an
      unsettled leaf is a loose endpoint of an edge in ``x & ~c``, and c
      minimalizes to itself when it keeps every edge of ``loose_edges``
      (:func:`_spans_at_or_above`).
    - c grows x by a vertex z outside V(x), with |x| + 1 edges: a Type I
      x - e + f + g whose v lies outside V(x), or a Type II x - e + h1 + h2
      whose w does.  A leaf of c in V(x) is either a leaf of x, or a
      vertex of degree two in x that lost e; z has its two new edges and
      is no leaf.  A leaf of the minimal x has no neighbour outside V(c)
      only when z is its only one outside V(x); a fresh leaf has none when
      it had none outside V(x), or only z.  So the unsettled leaves of c
      lie in

          U+(e, z) = leaves(x) & single & N(z) | fresh(e) & (loose | single & N(z))

      with fresh(e) the endpoints of e in ``two``, and they are the
      vertices of U+(e, z) that no added edge reaches, except the leaf v
      of a Type II e, which lost e for h1 and is a leaf again
      (:func:`_grows_at_or_above`).  U+(e, z) holds all of them, so every
      candidate of (e, z) is skipped at once when
      ``|U+(e, z)| < need = |x| + 1 - below.size``.

    The pass over V(x) runs only when |x| >= ``below.size``.  With a
    smaller x, only a candidate that grows x and sheds no leaf can end at
    or above ``below``, and it is built.
    """
    size = mask.bit_count()
    if below is None or size < below.size:
        return 0, 0, 0, 0, 0
    nbr, inc = g.neighbor_vmask, g.incident_mask
    single = loose = loose_edges = two = 0
    rest = vm
    while rest:
        low = rest & -rest
        u = low.bit_length() - 1
        out = nbr[u] & ~vm
        if not out:
            loose |= low
            loose_edges |= inc[u] & mask
        elif not out & (out - 1):
            single |= low
        if (inc[u] & mask).bit_count() == 2:
            two |= low
        rest ^= low
    return size + 1 - below.size, single, loose, loose_edges, two


def _spans_at_or_above(view: _View, cand: int) -> bool:
    """True when ``cand``, a candidate tree on V(x), keeps every edge of x
    at a loose vertex, so it has no unsettled leaf and is its own minimal
    form, and that form is not before ``view.below``
    (:func:`_growth_bound`).  Call only with ``view.need`` set."""
    return not view.loose_edges & ~cand and not Solution(cand) < view.below


def _grows_at_or_above(
    inc: tuple[int, ...], view: _View, cand: int, unsettled: int
) -> bool:
    """True when ``cand``, a candidate tree with the unsettled leaves
    ``unsettled`` (:func:`_growth_bound`), provably minimalizes to a
    solution not before ``view.below``.  It sheds at most the edge at each
    of them, so it keeps more than ``below.size`` edges when they are fewer
    than the ``cand.bit_count() - below.size`` edges it must shed, which
    is ``view.need`` for a Type I or II candidate that grows x.  With no
    unsettled leaf it is its own minimal form; with exactly one, it sheds
    that one.  With two or more, an earlier removal can give a later leaf a
    private edge, so the candidate is built.  Call only with
    ``view.below`` set."""
    count = unsettled.bit_count()
    if count < cand.bit_count() - view.below.size:
        return True
    if count > 1:
        return False
    if count:
        cand &= ~inc[unsettled.bit_length() - 1]
    return not Solution(cand) < view.below


def type1_neighbors(g: Graph, view: _View, cache: dict) -> list[tuple[Solution, TypeI]]:
    """Moves that replace an internal edge of G[x].

    Removing internal edge e leaves components C_0, C_1 (each with an
    edge).  For every edge f with exactly one endpoint in V(C_i) and
    outside endpoint v, and every edge g from v into V(C_j), the pair
    rejoins the components; f alone suffices when it bridges them (then
    g = f).  Each candidate is built once, as a tree: a tree already in
    ``cache`` is skipped (see :func:`_consider`).

    Everything is read off edge masks (see :class:`_View`), with
    (touch_i, within_i) the edges with an endpoint in V(C_i) and with both
    there.  The f of side i are ``touch_i & ~within_i``.  When v lies
    outside V(x), the g are ``inc[v] & touch_j``.  When f bridges, v lies
    in V(C_j) and the g are ``inc[v] & within_j``: the tree edges of C_j
    at v, which with f itself all give the tree x - e + f, and the chords
    of V(C_j) at v.  That tree is built once, at the lowest of its g, which
    is where a walk over v's adjacency list first meets it.

    Side 1 takes only the chords of a bridging f.  Its copy of x - e + f
    was built on side 0, where f is a bridging f too.  Every f whose
    outside endpoint v lies outside V(x) was built on side 0 with the
    roles swapped.  Such an f joins u in V(C_1) to v, g joins v to some w
    in V(C_0), and g != f since v is not in V(C_0).  On side 0, g is an f:
    it has the endpoint w in V(C_0), and it is not in x, since v lies
    outside V(x).  Its outside endpoint is v, and f is one of the edges
    from v into V(C_1), so side 0 built the pair {g, f}, the same mask.

    A candidate holds a cycle only when f bridges C_i and C_j and g is a
    chord of C_j.  The spanning-tree DFS roots it at r = min V(x) and
    enters the cycle at v when r lies in V(C_i), and otherwise at the
    lowest common ancestor of v and g's other end in x rooted at r; the
    candidate becomes the tree it would give (:func:`_dfs_cut`), read off
    the rooting in ``view``.

    With ``below`` given to :func:`_view`, the moves skip each candidate
    that provably minimalizes to a solution at or above it (the view's
    :func:`_growth_bound`).  A tree x - e + f, or one broken at a chord,
    spans V(x).  When v lies outside V(x), x - e + f + g spans V(x) + v,
    since e is internal and V(x - e) = V(x), and the ends of f and g are
    no leaves of it.
    """
    out: list[tuple[Solution, TypeI]] = []
    edges, edge_vmask, inc, nbr = g.edges, g.edge_vmask, g.incident_mask, g.neighbor_vmask
    mask, vm, inner, r, anc, chain = view.mask, view.vm, view.inner, view.r, view.anc, view.chain
    touch, within = view.touch, view.within
    need, single, loose, two = view.need, view.single, view.loose, view.two
    leaves = vm & ~inner

    def chord(e: int, f: int, v: int, h: int, cand: int, at_v: int) -> None:
        a, b = edges[h]
        cand ^= 1 << _dfs_cut(anc, chain, v, a ^ b ^ v, h, at_v)
        if cand not in cache and not (need and _spans_at_or_above(view, cand)):
            _consider(g, cand, TypeI(e, f, h), out, cache)

    for e in _bits(mask):
        if edge_vmask[e] & ~inner:
            continue  # pendant edges are handled by Types II and III
        # x is a tree, so an edge between two inner vertices splits it in
        # two components that share no vertex and cover V(x)
        rest = mask ^ (1 << e)
        v0 = _vertices_mask(g, _component_mask(g, rest, (rest & -rest).bit_length() - 1))
        touch0, within0 = _touch_within(inc, v0)
        # side 1 is V(x) - V0; an edge from V0 to it is within V(x), not V0
        within1 = within & ~touch0
        touch1 = touch & ~touch0 | within & touch0 & ~within0
        at_v = v0 >> r & 1  # on side 0, the DFS reaches a cycle through f
        fresh = edge_vmask[e] & two
        ends, fresh_loose = leaves | fresh, fresh & loose
        for f in _bits(touch0 & ~within0):
            v = (edge_vmask[f] & ~v0).bit_length() - 1
            base = rest | (1 << f)
            if not touch1 >> f & 1:  # v lies outside V(x)
                if need:
                    grown = ends & single & nbr[v] | fresh_loose
                    if grown.bit_count() < need:
                        continue
                    grown &= ~edge_vmask[f]
                for h in _bits(inc[v] & touch1):
                    cand = base | (1 << h)
                    if cand in cache:
                        continue
                    if need and _grows_at_or_above(inc, view, cand, grown & ~edge_vmask[h]):
                        continue
                    _consider(g, cand, TypeI(e, f, h), out, cache)
                continue
            hs = inc[v] & within1
            trees = hs & rest | (1 << f)
            first = trees & -trees
            for h in _bits(hs & ~rest | first):
                if first >> h & 1:
                    if base not in cache and not (need and _spans_at_or_above(view, base)):
                        _consider(g, base, TypeI(e, f, h), out, cache)
                else:
                    chord(e, f, v, h, base | (1 << h), at_v)
        for f in _bits(touch1 & touch0):
            v = (edge_vmask[f] & v0).bit_length() - 1
            for h in _bits(inc[v] & within0 & ~rest):
                chord(e, f, v, h, rest | (1 << f) | (1 << h), 1 - at_v)
    return out


def type2_neighbors(g: Graph, view: _View, cache: dict) -> list[tuple[Solution, TypeII]]:
    """Moves that replace a pendant edge by a short escape path.

    For pendant edge e with pendant vertex v, every path of length one or
    two from v back to a vertex of G[x - e] is patched in; the path may
    reuse e itself, which yields the origin again (dropped later).  Each
    candidate is built once, as in :func:`type1_neighbors`.

    The paths are read off edge masks (see :class:`_View`); V(x - e) is
    V(x) without v.  The one-edge paths are ``inc[v] & within``.  A path
    v-w-z has first edge h1 at v, and its second edges h2 != h1 are
    ``inc[w] & touch`` when w lies outside V(x), and ``inc[w] & within``
    without the edges of x - e when w lies in V(x - e): with such an h2,
    the path only rebuilds the tree x - e + h1 of a one-edge path, which is
    already built.

    A candidate holds a cycle exactly when w lies in V(x - e), since h2 is
    then a chord.  The spanning-tree DFS roots it at r = min V(x) and
    enters the cycle at w when r is the leaf v, and otherwise at the
    lowest common ancestor of w and z in x rooted at r; the candidate
    becomes the tree it would give, as in :func:`type1_neighbors`.

    With ``below`` given to :func:`_view`, the moves skip each candidate
    that provably minimalizes to a solution at or above it (the view's
    :func:`_growth_bound`).  A one-edge path, and a two-edge path whose w
    lies in V(x), give a tree on V(x).  When w lies outside V(x), the leaf
    v is back and x - e + h1 + h2 spans V(x) + w; the ends of h2 are no
    leaves of it.
    """
    out: list[tuple[Solution, TypeII]] = []
    edges, edge_vmask, inc, nbr = g.edges, g.edge_vmask, g.incident_mask, g.neighbor_vmask
    mask, vm, touch, within = view.mask, view.vm, view.touch, view.within
    r, anc, chain = view.r, view.anc, view.chain
    need, single, loose, two = view.need, view.single, view.loose, view.two
    leaves = vm & ~view.inner
    for e, v in view.pendants:
        rest = mask ^ (1 << e)
        for h in _bits(inc[v] & within):
            cand = rest | (1 << h)
            if cand not in cache and not (need and _spans_at_or_above(view, cand)):
                _consider(g, cand, TypeII(e, (h,)), out, cache)
        chords = within & ~rest
        fresh = edge_vmask[e] & two
        ends, fresh_loose = leaves | fresh, fresh & loose
        for w, h1 in g.adjacency[v]:
            rejoins = vm >> w & 1  # h1 alone puts v back
            if need and not rejoins:
                grown = ends & single & nbr[w] | fresh_loose
                if grown.bit_count() < need:
                    continue
            for h2 in _bits(inc[w] & (chords if rejoins else touch) & ~(1 << h1)):
                cand = rest | (1 << h1) | (1 << h2)
                if rejoins:
                    a, b = edges[h2]
                    cand ^= 1 << _dfs_cut(anc, chain, w, a ^ b ^ w, h2, v == r)
                if cand in cache:
                    continue
                if need and (
                    _spans_at_or_above(view, cand)
                    if rejoins
                    else _grows_at_or_above(inc, view, cand, grown & ~edge_vmask[h2])
                ):
                    continue
                _consider(g, cand, TypeII(e, (h1, h2)), out, cache)
    return out


def type3_neighbor(
    g: Graph, view: _View, e: int, v: int, cache: dict
) -> tuple[Solution, TypeIII] | None:
    """The unique move that drops pendant edge e, with leaf v, and re-covers
    its W-vertices.

    x is a minimal tree of two or more edges, so the private edges of e are
    exactly the edges (v, w) with w outside V(x) (:func:`is_minimal_ceds`):
    W = N(v) - V(x), nonempty.  Each w contributes its smallest-index edge
    into V(x - e) = V(x) - v, the lowest bit of ``inc[w] & touch`` without
    the edge to v (see :class:`_View`).  The move is undefined, and None
    returned, when some w has no such edge.  That is exactly when w has
    degree 1 in G: every other edge (w, y) has y != v, x dominates it, and
    w lies outside V(x), so y lies in V(x) - v.

    With ``below`` given to :func:`_view`, None is also returned when the
    candidate c = x - e + F provably minimalizes to a solution not before
    ``below`` (:func:`_grows_at_or_above`).  c is a tree on V(x) - v + W.
    Its unsettled leaves are the leaves ell of x that no edge of F reaches,
    not adjacent to v, with N(ell) - V(x) in W: a w or v's parent has the
    neighbour v outside V(c), and no other vertex is a leaf of c.
    """
    inc, nbr, edge_vmask = g.incident_mask, g.neighbor_vmask, g.edge_vmask
    vm, reach = view.vm, view.touch & ~inc[v]
    ws = nbr[v] & ~vm
    fmask = ends = 0
    for w in _bits(ws):
        hs = inc[w] & reach
        if not hs:
            return None
        low = hs & -hs
        fmask |= low
        ends |= edge_vmask[low.bit_length() - 1]
    cand = view.mask ^ (1 << e) | fmask
    if view.below is not None:
        free = vm & ~view.inner & ~ends & ~nbr[v] & ~(1 << v)
        unsettled = sum(1 << ell for ell in _bits(free) if not nbr[ell] & ~vm & ~ws)
        if _grows_at_or_above(inc, view, cand, unsettled):
            return None
    out: list[tuple[Solution, TypeIII]] = []
    _consider(g, cand, TypeIII(e, tuple(_bits(fmask))), out, cache)
    return out[0]


def _moves(
    g: Graph, x: Solution, cache: dict, below: Solution | None = None
) -> list[tuple[Solution, Provenance]]:
    """Every move from x, a solution of two or more edges, repeats and x
    itself included: Type I, then II, then III, each internally
    deterministic, all reading one :class:`_View` of x and sharing
    ``cache``.  With ``below`` given, the moves leave out candidates that
    provably minimalize to a solution at or above it, each decided by
    :func:`_spans_at_or_above` or :func:`_grows_at_or_above`: Types I and
    II read what :func:`_growth_bound` computes once, in :func:`_view`."""
    view = _view(g, x, below)
    out: list[tuple[Solution, Provenance]] = []
    out += type1_neighbors(g, view, cache)
    out += type2_neighbors(g, view, cache)
    for e, v in view.pendants:
        hit = type3_neighbor(g, view, e, v, cache)
        if hit is not None:
            out.append(hit)
    return out


def all_neighbors(
    g: Graph,
    x: Solution,
    certified: Container[int] = frozenset(),
    *,
    room: int | None = None,
    pending: Sequence[Solution] = (),
) -> NeighborBatch:
    """All moves from x, deduplicated by mask, origin removed; with
    ``room`` given, only the solutions a k-capped run can still pop.

    Order is generation order: Type I, then II, then III, each internally
    deterministic, keeping the first provenance for a repeated solution.

    Every item is asserted to be a minimal CEDS, except those whose mask is
    in ``certified``: masks the caller has already asserted minimal.  The
    skip is exact, since :func:`is_minimal_ceds` is a pure function of
    ``(g, mask)`` and a second call cannot answer otherwise.  A traversal
    passes its visited set, whose every mask was asserted once on its way
    in; a direct call checks every item.  A solution left out by ``room``
    is dropped before the assert, so it is never checked.

    ``room >= 1`` is the number of pops a k-capped traversal has left, and
    ``pending`` the solutions it has yet to pop, ascending and all in
    ``certified``.  Each pop takes the smallest pending solution, later
    batches only add rivals, and solutions are distinct masks in a strict
    order, so a solution with ``room`` smaller ones pending can never be
    popped.  Two cuts drop such solutions.

    Once ``pending`` holds ``room`` entries, ``b = pending[room - 1]`` is a
    bound, and the batch keeps only the solutions before it.  The moves do
    not even build the candidates that provably minimalize to a solution
    at or above ``b`` (:func:`_moves` with ``below``).  The batch is still
    exactly the unbounded batch without the solutions at or above ``b``,
    in the same order and with the same provenance.  A skipped candidate's
    solution would have been dropped, and so would every repeat of it.
    All three moves decide from the candidate's mask alone, so every move
    that builds a skipped mask again skips it too, and no kept move finds
    in the cache a candidate that only a skipped one would have put there:
    the bounded moves are the unbounded ones without every build of the
    skipped masks.  Type III runs last, and its candidates lack distinct
    edges of x, so skipping one changes no other candidate.

    Then take the new items, those before ``b`` and not in ``certified``.
    When they and ``pending`` number more than ``room``, the batch keeps
    only its items at or below the ``room``-th smallest of them, new or
    certified; the cut compares only the largest entries of ``pending``.

    The bound never rises along a run, since
    :func:`~cedsenum.enumeration._run` cuts its pending list to the
    ``room`` smallest after every batch.  A pop removes the smallest entry
    while ``room`` falls by one, which leaves the ``room``-th smallest in
    place, and a batch only adds rivals.  So when a later batch finds again
    an item that either cut dropped, the bound is at or below that cut, and
    the item is dropped again: an item that is kept is kept where it is
    first found, with the provenance a run that keeps everything would
    record.
    """
    if x.size < 2:
        # a single-edge solution only occurs in graphs handled by the
        # trivial-instance path, which never consults the supergraph
        return NeighborBatch([])
    below = pending[room - 1] if room is not None and len(pending) >= room else None
    seen = {x.mask}
    items: list[tuple[Solution, Provenance]] = []
    for sol, prov in _moves(g, x, {}, below):
        if sol.mask not in seen:
            seen.add(sol.mask)
            if below is None or sol < below:
                items.append((sol, prov))
    if room is not None:
        new = [sol for sol, _ in items if sol.mask not in certified]
        drop = len(pending) + len(new) - room
        if drop > 0:
            # the drop + 1 largest of both lie among these
            cut = sorted([*pending[-drop - 1:], *new])[-drop - 1]
            items = [item for item in items if not cut < item[0]]
    assert all(sol.mask in certified or is_minimal_ceds(g, sol.mask) for sol, _ in items)
    return NeighborBatch(items)
