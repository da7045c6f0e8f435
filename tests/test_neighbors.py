"""The three local moves and the combined neighbor batch."""

from __future__ import annotations

import hashlib
import random
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cedsenum import (
    Graph,
    Solution,
    brute_force_minimal_ceds,
    enumerate_all,
    enumerate_kbest,
    is_minimal_ceds,
    min_ceds_is_singleton,
)
from cedsenum import neighbors
from cedsenum.ceds import _is_ceds_mask, _minimalize_mask, minimalize
from cedsenum.corpus import random_connected_graph, random_corpus, tiny_corpus
from cedsenum.graph import (
    _bits,
    _component_mask,
    _spanning_tree_mask,
    _vertex_degree_masks,
    _vertices_mask,
    is_tree,
)
from cedsenum.neighbors import (
    TypeI,
    TypeII,
    TypeIII,
    _moves,
    _view,
    all_neighbors,
    type1_neighbors,
    type2_neighbors,
    type3_neighbor,
)
from reference import dominated_mask, pendant_items, private_mask, root_paths_by_bfs

PROPERTY_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _solution(g, mask):
    """``mask`` as a Solution, once it is certified a minimal CEDS of g."""
    assert is_minimal_ceds(g, mask)
    return Solution(mask)


@pytest.fixture
def c5_solution(c5):
    return _solution(c5, 0b00111)


# ---------------------------------------------------------------------------
# Individual move families on the five-cycle


def _type1_candidate(x, prov):
    """The candidate mask a Type I move builds: x - e + f + g."""
    return x.mask ^ (1 << prov.e) | (1 << prov.f) | (1 << prov.g)


def test_type1_moves(c5, c5_solution):
    results = type1_neighbors(c5, _view(c5, c5_solution), set())
    keys = {sol.canonical_key for sol, _ in results}
    assert keys == {(0, 1, 2), (2, 3, 4)}  # self-restatements plus one shift
    traces = [prov.trace() for sol, prov in results if sol != c5_solution]
    assert traces == ["TYPE1 e=1 f=4 g=3"]
    # the mirror pair f=3, g=4 (built from the other side) is the same mask
    assert _type1_candidate(c5_solution, TypeI(1, 3, 4)) == _type1_candidate(
        c5_solution, TypeI(1, 4, 3)
    )
    assert all(isinstance(prov, TypeI) for _, prov in results)


def test_type2_moves(c5, c5_solution):
    results = type2_neighbors(c5, _view(c5, c5_solution), set())
    arrivals = {
        (sol.canonical_key, prov.trace())
        for sol, prov in results
        if sol != c5_solution
    }
    assert arrivals == {
        ((2, 3, 4), "TYPE2 e=0 path=4,3"),
        ((0, 3, 4), "TYPE2 e=2 path=3,4"),
    }
    assert all(isinstance(prov, TypeII) for _, prov in results)


def test_type2_moves_on_a_path_only_restate_the_solution(p5):
    x = _solution(p5, 0b0110)
    results = type2_neighbors(p5, _view(p5, x), set())
    assert results
    assert {sol.canonical_key for sol, _ in results} == {(1, 2)}


def test_type3_move(c5, p5, c5_solution):
    got = type3_neighbor(c5, _view(c5, c5_solution), 0, 0, set())
    assert got is not None
    sol, prov = got
    assert isinstance(prov, TypeIII)
    assert sol.canonical_key == (1, 2, 3)
    assert prov.e == 0
    assert prov.bundle == (3,)
    assert prov.trace() == "TYPE3 e=0 F=3"
    # the leaf 1 of the path touches the pendant edge 0-1: no third-type move
    assert type3_neighbor(p5, _view(p5, _solution(p5, 0b0110)), 1, 1, set()) is None


def _w_set_by_private_edges(g, mask, e, v):
    """(skipped, W) for pendant edge e with leaf v of the minimal CEDS
    ``mask``, from the definitions: the move is skipped when v touches a
    pendant edge of G, and W is the vertices off e that a private edge of
    e, not itself pendant in G, reaches."""
    pendant_in_g = [g.degrees[a] == 1 or g.degrees[b] == 1 for a, b in g.edges]
    skipped = any(pendant_in_g[h] for _, h in g.adjacency[v])
    ws = 0
    for h in _bits(private_mask(g, mask, e)):
        if not pendant_in_g[h]:
            ws |= g.edge_vmask[h]
    return skipped, ws & ~g.edge_vmask[e]


def _w_set_of_move(g, view, e, v):
    """(skipped, W) as :func:`type3_neighbor` gives them: W is the endpoints
    of its bundle outside V(x), one per bundle edge."""
    hit = type3_neighbor(g, view, e, v, set())
    if hit is None:
        return True, None
    bundle = hit[1].bundle
    ws = _vertices_mask(g, sum(1 << f for f in bundle)) & ~view.vm
    assert ws.bit_count() == len(bundle)
    return False, ws


def test_type3_w_set_is_the_private_edges_closed_form(c5, p5, c5_solution):
    """Type III reads W as N(v) - V(x) and skips on a degree-1 vertex of
    W; the private edges of e give the same decision and, where the move
    is defined, the same W, on every pendant edge of every supergraph node
    of the corpus."""
    assert _w_set_by_private_edges(c5, c5_solution.mask, 0, 0) == (False, 1 << 4)
    assert _w_set_by_private_edges(c5, c5_solution.mask, 2, 3) == (False, 1 << 4)
    assert _w_set_by_private_edges(p5, 0b0110, 1, 1) == (True, 0)
    decisions = {False: 0, True: 0}
    for g in [*tiny_corpus(), *random_corpus(60)]:
        if min_ceds_is_singleton(g) is not None:
            continue
        for x in brute_force_minimal_ceds(g):
            view = _view(g, x)
            assert view.pendants == pendant_items(g, x.mask)
            for e, v in view.pendants:
                skipped, ws = _w_set_by_private_edges(g, x.mask, e, v)
                assert _w_set_of_move(g, view, e, v) == (skipped, None if skipped else ws)
                decisions[skipped] += 1
    assert decisions == {False: 69_486, True: 1_489}


def _type1_by_full_scan(g, x):
    """Type I moves with every edge of the graph tried as ``f``."""
    out = []
    for e in range(g.m):
        if not x.mask >> e & 1:
            continue
        rest = x.mask ^ (1 << e)
        if not rest:
            continue
        c0 = _component_mask(g, rest, min(_bits(rest)))
        if c0 == rest:
            continue  # e is pendant: removing it leaves one component
        vsets = [set(_bits(_vertices_mask(g, c))) for c in (c0, rest ^ c0)]
        for i in (0, 1):
            vi, vj = vsets[i], vsets[1 - i]
            for f, (a, b) in enumerate(g.edges):
                if (a in vi) == (b in vi):
                    continue
                v = b if a in vi else a
                for w, g2 in g.adjacency[v]:
                    if w in vj or (g2 == f and v in vj):
                        cand = rest | (1 << f) | (1 << g2)
                        if _is_ceds_mask(g, cand):
                            out.append((minimalize(g, cand), TypeI(e, f, g2)))
    return out


@given(st.integers(min_value=4, max_value=20), st.integers(min_value=0, max_value=10_000))
@PROPERTY_SETTINGS
def test_type1_matches_the_full_edge_scan(n, seed):
    g = random_connected_graph(n, 0.3, seed)
    xs: list = []
    enumerate_kbest(g, 3, xs.append)
    for x in xs:
        # each candidate is built once, as the tree the DFS keeps of it, so
        # the scan is compared with its first build of each such tree
        first: dict = {}
        for sol, prov in _type1_by_full_scan(g, x):
            first.setdefault(_spanning_tree_mask(g, _type1_candidate(x, prov)), (sol, prov))
        assert type1_neighbors(g, _view(g, x), set()) == list(first.values())


def _all_neighbors_building_every_pair(g, x):
    """All moves from x, every Type I and Type II pair built, cycle and
    all, and minimalized unless its mask is cached (the loops before each
    candidate was built once, as a tree), every move read off the
    adjacency lists.  Returns the batch items and the cache."""
    cache: dict = {}
    raw: list = []

    def consider(cand, prov):
        if cand not in cache:
            cache[cand] = minimalize(g, cand)
        raw.append((cache[cand], prov))

    edge_vmask = g.edge_vmask
    mask = x.mask
    vm, inner = _vertex_degree_masks(g, mask)
    for e in _bits(mask):
        if edge_vmask[e] & ~inner:
            continue
        rest = mask ^ (1 << e)
        c0 = _component_mask(g, rest, (rest & -rest).bit_length() - 1)
        comps = (c0, rest ^ c0)
        v0 = _vertices_mask(g, c0)
        vmasks = (v0, vm & ~v0)
        for i in (0, 1):
            vi, vj = vmasks[i], vmasks[1 - i]
            for f in _bits(dominated_mask(g, comps[i]) & ~comps[i]):
                fverts = edge_vmask[f]
                inside = fverts & vi
                if inside == fverts:
                    continue
                v = (fverts ^ inside).bit_length() - 1
                for w, g2 in g.adjacency[v]:
                    if vj >> w & 1 or (g2 == f and vj >> v & 1):
                        consider(rest | (1 << f) | (1 << g2), TypeI(e, f, g2))
    pendants = pendant_items(g, mask)
    for e, v in pendants:
        rest = mask ^ (1 << e)
        rest_verts = vm ^ (1 << v)
        for z, h in g.adjacency[v]:
            if rest_verts >> z & 1:
                consider(rest | (1 << h), TypeII(e, (h,)))
        for w, h1 in g.adjacency[v]:
            for z, h2 in g.adjacency[w]:
                if h2 != h1 and z != v and rest_verts >> z & 1:
                    consider(rest | (1 << h1) | (1 << h2), TypeII(e, (h1, h2)))
    for e, v in pendants:
        ws = g.neighbor_vmask[v] & ~vm
        if any(g.degrees[w] == 1 for w in _bits(ws)):
            continue  # a W-vertex of degree 1: the move is undefined
        rest_verts = vm ^ (1 << v)
        fmask = 0
        for w in _bits(ws):
            fmask |= 1 << next(h for z, h in g.adjacency[w] if rest_verts >> z & 1)
        consider(mask ^ (1 << e) | fmask, TypeIII(e, tuple(_bits(fmask))))
    seen = {x.mask}
    items = []
    for sol, prov in raw:
        if sol.mask not in seen:
            seen.add(sol.mask)
            items.append((sol, prov))
    return items, cache


@pytest.mark.parametrize("p", [0.3, 0.5, 0.7])
@given(st.integers(min_value=4, max_value=16), st.integers(min_value=0, max_value=10_000))
@PROPERTY_SETTINGS
def test_all_neighbors_matches_building_every_pair(p, n, seed):
    """Reading the moves off edge masks, breaking each cycle where it is
    built and skipping the repeats leave every batch, its order and its
    provenance, as they were, and minimalize the DFS tree of every
    candidate the reference built.  The sparsest graphs hold the most
    W-vertices of degree 1, where Type III is undefined; the denser ones
    hold larger W-sets and more two-edge Type II paths through vertices
    outside V(x)."""
    g = random_connected_graph(n, p, seed)
    if min_ceds_is_singleton(g) is not None:
        return
    xs: list = []
    enumerate_kbest(g, 5, xs.append)
    for x in xs:
        items, ref_cache = _all_neighbors_building_every_pair(g, x)
        got = all_neighbors(g, x).items
        assert [(sol.mask, prov.trace()) for sol, prov in got] == [
            (sol.mask, prov.trace()) for sol, prov in items
        ]
        built: set = set()
        _moves(g, x, built)
        assert built == {_spanning_tree_mask(g, cand) for cand in ref_cache}


def _trees_by_move(move, g, x):
    """The tree each move of ``move`` from x passed to ``_consider``, one
    call per item, in the order of the batch."""
    consider, trees = neighbors._consider, []

    def recorded(g, cand, prov, out, built):
        trees.append(cand)
        consider(g, cand, prov, out, built)

    with mock.patch.object(neighbors, "_consider", recorded):
        out = move(g, _view(g, x), set())
    assert len(out) == len(trees)
    return {prov: tree for (_, prov), tree in zip(out, trees)}


@given(st.integers(min_value=2, max_value=20), st.integers(min_value=0, max_value=10_000))
@PROPERTY_SETTINGS
def test_rooted_gives_each_vertex_its_root_path(n, seed):
    """``_rooted`` against the parent pointers of a breadth-first search,
    on a random tree of a random graph, from every vertex of the tree:
    ``anc[w]`` is the vertex set of the path from the root to w, and
    ``chain[w]`` is that path's edges in order.  A vertex off the tree
    reads 0 and ()."""
    g = random_connected_graph(n, 0.3, seed)
    rng = random.Random(seed)
    tree, seen = 0, 1 << rng.randrange(g.n)
    for _ in range(rng.randint(1, g.n - 1)):
        e = rng.choice([e for e in range(g.m) if (g.edge_vmask[e] & seen).bit_count() == 1])
        tree |= 1 << e
        seen |= g.edge_vmask[e]
    for root in _bits(seen):
        paths = root_paths_by_bfs(g, tree, root)
        anc, chain = neighbors._rooted(g, tree, root)
        assert list(zip(anc, chain)) == [paths.get(w, (0, ())) for w in range(g.n)]


# edges 2 (3-4) and 3 (0-3) are the chord and the new edge of both cases
# that enter the cycle at a chord endpoint; x is edges 0, 1, 4 and 5
_ENTRY_AT_ENDPOINT = [(0, 1), (1, 2), (3, 4), (0, 3), (2, 3), (2, 4), (0, 5), (3, 6), (4, 7)]


@pytest.mark.parametrize(
    "edges, x_edges, move, prov, cut",
    [
        # r = 0 in C_j = {0-1, 1-2, 1-3}; f = 2-5 bridges to v = 2 and the
        # chord 2-3 closes 1-2-3 below the interior ancestor c = 1
        pytest.param(
            [(0, 1), (1, 2), (1, 3), (0, 4), (4, 5), (2, 5), (2, 3), (2, 6), (3, 7), (5, 8)],
            [0, 1, 2, 3, 4], type1_neighbors, TypeI(3, 5, 6), 2, id="type1-interior-lca",
        ),
        # leaf 3 goes, 3-0-1 comes back: the chord 0-1 closes 0-2-1 at
        # c = 0, its own endpoint and the lowest common ancestor
        pytest.param(
            [(0, 1), (0, 2), (1, 2), (1, 3), (0, 3), (0, 4), (3, 5)],
            [1, 2, 3], type2_neighbors, TypeII(3, (4, 0)), 1, id="type2-lca-at-chord-endpoint",
        ),
        # e = 1-2 leaves r = 0 in C_i = {0-1}, so the DFS comes in by
        # f = 0-3 and meets the cycle 3-4-2 at v = 3, not at the LCA 2
        pytest.param(
            _ENTRY_AT_ENDPOINT, [0, 1, 4, 5], type1_neighbors, TypeI(1, 3, 2), 4,
            id="type1-root-in-c-i",
        ),
        # the leaf 0 = r goes, and the path 0-3-4 comes back: the DFS
        # comes in by 0-3 and meets the cycle at w = 3, not at the LCA 2
        pytest.param(
            _ENTRY_AT_ENDPOINT, [0, 1, 4, 5], type2_neighbors, TypeII(0, (3, 2)), 4,
            id="type2-root-at-removed-leaf",
        ),
    ],
)
def test_a_cycle_is_broken_where_the_dfs_breaks_it(edges, x_edges, move, prov, cut):
    """The four places the DFS can enter a candidate's one cycle.  At the
    entry c it leaves out the higher of c's two cycle edges; the lower
    one is the tree edge ``cut`` when that is not the chord, so taking the
    lower edge or entering at the LCA gives another tree."""
    g = Graph.from_edge_list(edges)
    assert g.edges == tuple(edges)  # vertex and edge ids as written
    x = _solution(g, sum(1 << e for e in x_edges))
    added = (prov.f, prov.g) if isinstance(prov, TypeI) else prov.path
    cand = x.mask ^ (1 << prov.e) | sum(1 << h for h in added)
    assert cand.bit_count() == x.size + 1  # a tree plus one chord
    tree = cand ^ (1 << cut)
    assert _spanning_tree_mask(g, cand) == tree
    assert _trees_by_move(move, g, x)[prov] == tree


# ---------------------------------------------------------------------------
# Combined batches


def test_all_neighbors_on_the_five_cycle(c5, c5_solution):
    batch = all_neighbors(c5, c5_solution)
    assert [sol.canonical_key for sol, _ in batch.items] == [
        (2, 3, 4),
        (0, 3, 4),
        (1, 2, 3),
        (0, 1, 4),
    ]
    kinds = [type(prov) for _, prov in batch.items]
    assert kinds == [TypeI, TypeII, TypeIII, TypeIII]
    assert [prov.trace() for _, prov in batch.items] == [
        "TYPE1 e=1 f=4 g=3",
        "TYPE2 e=2 path=3,4",
        "TYPE3 e=0 F=3",
        "TYPE3 e=2 F=4",
    ]


def test_all_neighbors_excludes_origin_and_duplicates(c5, c5_solution):
    batch = all_neighbors(c5, c5_solution)
    keys = [sol.canonical_key for sol, _ in batch.items]
    assert c5_solution.canonical_key not in keys
    assert len(keys) == len(set(keys))


def test_all_neighbors_is_empty_for_lone_solutions_and_singletons(p5, star3):
    assert all_neighbors(p5, _solution(p5, 0b0110)).items == []
    assert all_neighbors(star3, _solution(star3, 0b001)).items == []


def test_a_direct_call_self_checks_every_item_not_certified(c5, c5_solution, monkeypatch):
    """Without ``certified``, a batch member that fails the check fails the
    call; passing its mask as certified skips it, and that is the contract:
    the caller vouches for the masks it passes."""
    items = all_neighbors(c5, c5_solution).items
    bad = items[-1][0].mask

    def rejects_bad(g, mask):
        return mask != bad and is_minimal_ceds(g, mask)

    monkeypatch.setattr(neighbors, "is_minimal_ceds", rejects_bad)
    with pytest.raises(AssertionError):
        all_neighbors(c5, c5_solution)
    assert all_neighbors(c5, c5_solution, {bad}).items == items


def test_every_batch_matches_the_golden_digest():
    """Every item of every batch, its mask and its provenance, in order,
    from every solution of every non-trivial corpus graph.  A solution
    reached from many others is hashed in each of their batches, so the
    provenance that each batch keeps for it is pinned too.  Recorded
    before the moves read their edges off masks and minimalization took
    one pass; a change meant to keep batches as they are keeps this."""
    h = hashlib.sha256()
    graphs = batches = items = 0
    for g in [*tiny_corpus(), *random_corpus(12)]:
        if min_ceds_is_singleton(g) is not None:
            continue
        graphs += 1
        for x in brute_force_minimal_ceds(g):
            batches += 1
            for sol, prov in all_neighbors(g, x).items:
                items += 1
                h.update(f"{sol.mask} {prov.trace()}\n".encode())
            h.update(b"\n")
    assert (graphs, batches, items, h.hexdigest()) == (
        518,
        5_565,
        82_196,
        "8c8fd0cf74ca7b0033d6b5cb7200b8e36d9d9523cc567a6a2a6a4529d850fe1f",
    )


def test_no_candidate_is_considered_twice_in_one_expansion(monkeypatch):
    """``_consider`` minimalizes and records every candidate it is given,
    with no test of its own: all three moves test the built masks before
    each call, so no candidate comes twice while they live, in one
    expansion or in one run.  Every call is checked on every batch of the
    non-trivial corpus graphs (unbounded, through ``enumerate_all``), and
    on the golden k=20 and the ``kbest_n30`` instances, bounded through
    ``enumerate_kbest`` and unbounded from each output."""
    consider = neighbors._consider
    calls = {TypeI: 0, TypeII: 0, TypeIII: 0}

    def checked(g, cand, prov, out, built):
        assert cand not in built, prov.trace()
        calls[type(prov)] += 1
        return consider(g, cand, prov, out, built)

    monkeypatch.setattr(neighbors, "_consider", checked)
    for g in [*tiny_corpus(), *random_corpus(60)]:
        if min_ceds_is_singleton(g) is None:
            enumerate_all(g, lambda sol: None)
    for (n, p, seed), k in (((14, 0.18, 8), 20), ((30, 0.15, 5), 100)):
        g = random_connected_graph(n, p, seed)
        outputs: list = []
        enumerate_kbest(g, k, outputs.append)
        for x in outputs:
            all_neighbors(g, x)
    assert all(calls.values()), calls


def _bounded_batch_skips(g, x, below):
    """Check that the moves from x bounded by ``below``, each solution
    taken at its first occurrence, without x and below ``below``, are the
    unbounded batch without its solutions at or above ``below``, items,
    order and provenance alike.  Return the candidates the bound skipped:
    the unbounded moves without the bounded ones, which must be a
    subsequence of them, each minimalizing to a solution at or above
    ``below``."""
    full = [(sol, prov.trace()) for sol, prov in all_neighbors(g, x).items]
    bounded = [(sol, prov.trace()) for sol, prov in _moves(g, x, set(), below)]
    seen = {x.mask}
    got = []
    for sol, trace in bounded:
        if sol.mask not in seen:
            seen.add(sol.mask)
            if sol < below:
                got.append((sol, trace))
    assert got == [item for item in full if item[0] < below]
    kept = iter(bounded)
    nxt = next(kept, None)
    skipped = []
    for item in ((sol, prov.trace()) for sol, prov in _moves(g, x, set())):
        if item == nxt:
            nxt = next(kept, None)
        else:
            skipped.append(item)
    assert nxt is None
    assert not any(sol < below for sol, _ in skipped)
    return skipped


@given(
    st.integers(min_value=6, max_value=12),
    st.sampled_from([0.25, 0.4, 0.6]),
    st.integers(min_value=0, max_value=10_000),
    st.data(),
)
@PROPERTY_SETTINGS
def test_a_size_bound_skips_only_what_below_drops(n, p, seed, data):
    """x and ``below`` are drawn from the graph's solutions, ``below``
    no more than one edge larger than x, so that most draws let the
    moves skip candidates (only a bound of at most |x| edges can)."""
    g = random_connected_graph(n, p, seed)
    if min_ceds_is_singleton(g) is not None:
        return
    sols: list = []
    enumerate_kbest(g, 100, sols.append)
    x = data.draw(st.sampled_from(sols))
    below = data.draw(st.sampled_from([s for s in sols if s.size <= x.size + 1]))
    _bounded_batch_skips(g, x, below)


def test_a_size_bound_skips_only_what_below_drops_on_the_scan_path():
    """The same check on the k-best scan-path instance (n = 20 > 14), for
    ten solutions x of 10 to 12 edges against ten bounds each.  Some
    skipped candidates minimalize to exactly ``below.size`` edges, Type III
    ones among them: all three moves skip by the full solution order, not
    by size alone.  Every order prediction of :func:`_checked_predictions`,
    of each kind, is made and holds."""
    g = random_connected_graph(20, 0.2, 11)
    sols: list = []
    enumerate_kbest(g, 200, sols.append)
    skipped = []
    made = {"spans": 0, "grows": 0, "type3": 0}
    for x in sols[::20]:
        for below in sols[5::20]:
            skipped += [(sol, trace, below) for sol, trace in _bounded_batch_skips(g, x, below)]
            for kind, count in _checked_predictions(g, x, below).items():
                made[kind] += count
    assert any(sol.size == below.size for sol, _, below in skipped)
    assert any(
        trace.startswith("TYPE3") and sol.size == below.size for sol, trace, below in skipped
    )
    assert all(made.values()), made


@given(
    st.integers(min_value=6, max_value=12),
    st.sampled_from([0.25, 0.4, 0.6]),
    st.integers(min_value=0, max_value=10_000),
    st.data(),
)
@PROPERTY_SETTINGS
def test_room_keeps_only_what_a_capped_run_can_still_pop(n, p, seed, data):
    """With room r and pending solutions H, the batch is the one without
    them, items, order and provenance alike, with only the items kept that
    are before H's r-th smallest, when H has r entries or more, and at or
    below the r-th smallest of H and the new items (those not certified);
    of those, only the new ones are self-checked.  x, the certified masks,
    H among them, and r are drawn from the graph's first 100 solutions.

    A second batch from x always reads its bound off a list longer than r:
    every solution found and every item of x's batch is certified and
    pending, and r puts x's smallest neighbour y at ``H[r - 1]``, with
    larger ones after it.  The batch is empty; a bound read at ``H[-1]``
    would keep y, since the cut keeps what is at or below y."""
    g = random_connected_graph(n, p, seed)
    if min_ceds_is_singleton(g) is not None:
        return
    sols: list = []
    enumerate_kbest(g, 100, sols.append)
    x = data.draw(st.sampled_from(sols))
    certified = data.draw(st.sets(st.sampled_from(sols), max_size=30))
    pending = sorted(data.draw(st.sets(st.sampled_from(sols), max_size=30)) & certified - {x})
    room = data.draw(st.integers(min_value=1, max_value=40))
    _check_room(g, x, {sol.mask for sol in certified}, pending, room)
    neighbours = [sol for sol, _ in all_neighbors(g, x).items]
    pending = sorted({*sols, *neighbours} - {x})
    if neighbours and min(neighbours) != pending[-1]:
        room = pending.index(min(neighbours)) + 1
        _check_room(g, x, {sol.mask for sol in pending}, pending, room)


def _check_room(g, x, masks, pending, room):
    """The batch from x with the certified ``masks``, ``room`` and
    ``pending`` against the unbounded batch cut by hand."""
    full = [(sol, prov.trace()) for sol, prov in all_neighbors(g, x, masks).items]
    if len(pending) >= room:
        full = [item for item in full if item[0] < pending[room - 1]]
    union = sorted([*pending, *(sol for sol, _ in full if sol.mask not in masks)])
    want = full if len(union) <= room else [item for item in full if not union[room - 1] < item[0]]
    checked: list[int] = []

    def recorded(g, mask):
        checked.append(mask)
        return is_minimal_ceds(g, mask)

    with mock.patch.object(neighbors, "is_minimal_ceds", recorded):
        batch = all_neighbors(g, x, masks, room=room, pending=pending)
    assert [(sol, prov.trace()) for sol, prov in batch.items] == want
    assert checked == [sol.mask for sol, _ in want if sol.mask not in masks]


def _checked_predictions(g, x, below):
    """Run the moves from x bounded by ``below`` and check every
    minimalization the order skip predicts against
    :func:`_minimalize_mask`; return how many it predicted of each kind.

    A candidate on V(x) that keeps every edge of x at a loose vertex must
    be its own minimal form.  For a candidate that grows x by a vertex, or
    a Type III candidate (counted as ``type3``), the unsettled leaves the
    moves pass are exactly its leaves without a neighbour outside it, and
    with at most one of them, it minimalizes to itself without their
    edges."""
    spans, grows = neighbors._spans_at_or_above, neighbors._grows_at_or_above
    type3 = neighbors.type3_neighbor
    nbr = g.neighbor_vmask
    made = {"spans": 0, "grows": 0, "type3": 0}
    kind = ["grows"]

    def checked_type3(*args):
        kind[0] = "type3"
        try:
            return type3(*args)
        finally:
            kind[0] = "grows"

    def checked_spans(view, cand):
        if not view.loose_edges & ~cand:
            assert _minimalize_mask(g, cand) == cand
            made["spans"] += 1
        return spans(view, cand)

    def checked_grows(inc, view, cand, unsettled):
        vm = _vertices_mask(g, cand)
        leaves = [
            ell
            for ell in _bits(vm)
            if (inc[ell] & cand).bit_count() == 1 and not nbr[ell] & ~vm
        ]
        assert unsettled == sum(1 << ell for ell in leaves)
        if len(leaves) <= 1:
            assert _minimalize_mask(g, cand) == cand & ~sum(inc[ell] for ell in leaves)
            made[kind[0]] += 1
        return grows(inc, view, cand, unsettled)

    with (
        mock.patch.object(neighbors, "_spans_at_or_above", checked_spans),
        mock.patch.object(neighbors, "_grows_at_or_above", checked_grows),
        mock.patch.object(neighbors, "type3_neighbor", checked_type3),
    ):
        _moves(g, x, set(), below)
    return made


@given(
    st.integers(min_value=6, max_value=12),
    st.sampled_from([0.25, 0.4, 0.6]),
    st.integers(min_value=0, max_value=10_000),
    st.data(),
)
@PROPERTY_SETTINGS
def test_the_order_skip_predicts_what_minimalize_returns(n, p, seed, data):
    """x and ``below`` are drawn from the graph's solutions, ``below`` no
    larger than x, the only bounds under which Types I and II predict;
    Type III predicts under every bound."""
    g = random_connected_graph(n, p, seed)
    if min_ceds_is_singleton(g) is not None:
        return
    sols: list = []
    enumerate_kbest(g, 100, sols.append)
    x = data.draw(st.sampled_from(sols))
    below = data.draw(st.sampled_from([s for s in sols if s.size <= x.size]))
    _checked_predictions(g, x, below)


@given(st.integers(min_value=0, max_value=10_000))
@PROPERTY_SETTINGS
def test_neighbors_are_minimal_trees(seed):
    g = random_connected_graph(6, 0.5, seed)
    if min_ceds_is_singleton(g) is not None:
        return
    for x in brute_force_minimal_ceds(g)[:3]:
        batch = all_neighbors(g, x)
        keys = [sol.canonical_key for sol, _ in batch.items]
        assert x.canonical_key not in keys
        assert len(keys) == len(set(keys))
        for sol, _ in batch.items:
            assert is_minimal_ceds(g, sol.mask)
            assert is_tree(g, sol.mask)
