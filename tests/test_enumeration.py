"""Full and k-best traversal of the solution supergraph."""

from __future__ import annotations

import dataclasses
import hashlib
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cedsenum import (
    MaxVisitedExceeded,
    approx_min_ceds,
    brute_force_minimal_ceds,
    enumerate_all,
    enumerate_kbest,
    is_minimal_ceds,
    min_ceds_is_singleton,
    solution_line,
)
from cedsenum import enumeration, neighbors
from cedsenum.corpus import random_connected_graph, random_corpus, tiny_corpus
from cedsenum.enumeration import initial_solution

from reference import kbest_untrimmed

PROPERTY_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _collect_all(g, **kwargs):
    got = []
    stats = enumerate_all(g, got.append, **kwargs)
    return [s.canonical_key for s in got], stats


def _collect_kbest(g, k, **kwargs):
    got = []
    stats = enumerate_kbest(g, k, got.append, **kwargs)
    return [s.canonical_key for s in got], stats


# ---------------------------------------------------------------------------
# Full enumeration


def test_enumerate_all_single_solution(p5):
    keys, stats = _collect_all(p5)
    assert keys == [(1, 2)]
    assert stats.outputs == 1
    assert stats.expansions == 1
    assert stats.duplicates == 0
    assert stats.peak_visited == 1
    assert stats.max_delay_s > 0
    assert stats.mean_delay_s > 0


def test_enumerate_all_five_cycle(c5):
    keys, stats = _collect_all(c5)
    assert keys == [(1, 2, 3), (0, 3, 4), (2, 3, 4), (0, 1, 4), (0, 1, 2)]
    assert stats.outputs == 5
    assert stats.expansions == 5
    assert stats.duplicates == 2
    assert stats.peak_visited == 5


def test_enumerate_all_is_deterministic(c5):
    assert _collect_all(c5)[0] == _collect_all(c5)[0]


def test_enumerate_all_trivial_dispatch(star3):
    keys, stats = _collect_all(star3)
    assert keys == [(0,), (1,), (2,)]
    assert stats.outputs == 3
    assert stats.expansions == 3
    assert stats.peak_visited == 0  # the supergraph is never touched


def test_initial_solution(p5, c5):
    assert initial_solution(p5).canonical_key == (1, 2)
    assert initial_solution(c5).canonical_key == (1, 2, 3)


def test_enumerate_all_starts_at_the_minimalized_full_set(c5):
    keys, _ = _collect_all(c5)
    assert keys[0] == initial_solution(c5).canonical_key


def test_sink_errors_propagate(c5):
    def sink(sol):
        raise RuntimeError("stop right there")

    with pytest.raises(RuntimeError, match="stop right there"):
        enumerate_all(c5, sink)


def test_max_visited_guard(c5):
    got = []
    with pytest.raises(MaxVisitedExceeded) as exc:
        enumerate_all(c5, got.append, max_visited=2)
    assert exc.value.limit == 2
    assert "visited-solution limit of 2 exceeded" in str(exc.value)
    assert len(got) == 1  # the start node streamed before the guard tripped


@pytest.mark.parametrize("run", [
    lambda g, sink, limit: enumerate_all(g, sink, max_visited=limit),
    lambda g, sink, limit: enumerate_kbest(g, 100, sink, max_visited=limit),
], ids=["all", "kbest"])
def test_max_visited_guard_on_a_trivial_instance(k23_plus, run):
    """The closed form of a trivial instance (6 solutions here) obeys the
    guard too: N solutions come out, then it trips if another remains."""
    got = []
    with pytest.raises(MaxVisitedExceeded):
        run(k23_plus, got.append, 2)
    assert len(got) == 2
    for limit in (6, 7):
        got = []
        stats = run(k23_plus, got.append, limit)
        assert len(got) == stats.outputs == 6
        assert stats.peak_visited == 0  # no visited set on the trivial path


def test_max_visited_guard_counts_the_k_capped_list(k23_plus):
    got = []
    enumerate_kbest(k23_plus, 3, got.append, max_visited=3)
    assert len(got) == 3


def test_neighbor_cache_reuse(c5):
    cache: dict = {}
    first, _ = _collect_all(c5, neighbor_cache=cache)
    assert cache
    filled = dict(cache)
    second, _ = _collect_all(c5, neighbor_cache=cache)
    assert second == first
    assert cache.keys() == filled.keys()


# Each fault below breaks a solution the traversal reaches; certifying each
# mask once, on its way into the visited set, must still catch it.  The
# k-best run keeps only what it can still pop, so its k leaves room for a
# faulty mask: left unminimalized, the seed's batch on c5 holds two 3-edge
# solutions and three 4-edge masks, and k = 4 keeps three of the five.
_RUNS = {
    "all": (lambda g: enumerate_all(g, lambda sol: None), initial_solution),
    "kbest": (
        lambda g: enumerate_kbest(g, 4, lambda sol: None),
        lambda g: approx_min_ceds(g).solution,
    ),
    "cached": (lambda g: enumerate_all(g, lambda sol: None, neighbor_cache={}), initial_solution),
}


@pytest.mark.parametrize("name", _RUNS)
def test_an_unminimalized_candidate_fails_the_self_check(c5, monkeypatch, name):
    """A minimal tree minimalizes to itself, so leaving every candidate
    as it was built changes only the ones that are not minimal.  Such a
    mask is in no visited set, whose masks were all asserted minimal, so
    ``all_neighbors`` tests it."""
    run, _ = _RUNS[name]
    monkeypatch.setattr(neighbors, "_minimalize_mask", lambda g, cand: cand)
    with pytest.raises(AssertionError) as exc:
        run(c5)
    assert exc.traceback[-1].name == "all_neighbors"


@pytest.mark.parametrize("name", _RUNS)
def test_a_start_that_fails_the_self_check_is_caught(c5, monkeypatch, name):
    """The start is in the visited set before the first batch, so
    ``all_neighbors`` skips it whenever it comes back; the traversal
    asserts it on its own."""
    run, start_of = _RUNS[name]
    start = start_of(c5).mask

    def rejects_the_start(g, mask):
        return mask != start and is_minimal_ceds(g, mask)

    for module in (enumeration, neighbors):
        monkeypatch.setattr(module, "is_minimal_ceds", rejects_the_start)
    with pytest.raises(AssertionError) as exc:
        run(c5)
    assert exc.traceback[-1].name == "_run"


def test_on_insert_reports_discoveries(c5):
    seen = []
    enumerate_all(c5, lambda sol: None, on_insert=lambda sol, prov: seen.append((sol, prov)))
    assert len(seen) == 4  # every solution except the start node
    assert all(prov.trace().startswith("TYPE") for _, prov in seen)


def test_stats_json_dict(p5):
    _, stats = _collect_all(p5)
    assert set(stats.to_json_dict()) == {
        "outputs",
        "expansions",
        "duplicates",
        "max_delay_s",
        "mean_delay_s",
        "peak_visited",
    }


def _digest(lines: list[str]) -> tuple[int, str]:
    return len(lines), hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _traced_lines(g, run, *args) -> list[str]:
    """Solution lines in output order, with each ``on_insert`` trace."""
    lines: list[str] = []
    run(
        g,
        *args,
        lambda sol: lines.append(solution_line(g, sol)),
        on_insert=lambda sol, prov: lines.append(f"{prov.trace()} -> {solution_line(g, sol)}"),
    )
    return lines


def test_output_order_matches_the_golden_digests():
    """Line count and SHA-256 of the output, in order, as the union-find and
    degree-dict helpers produced it; a change of output order shows here.
    The k-best digest was re-recorded when the seed became the smallest
    over a DFS tree from every root, which starts the run elsewhere."""
    g = random_connected_graph(10, 0.25, 4)
    assert _digest(_traced_lines(g, enumerate_all)) == (
        51, "50a341d3e3a1457cdd2ae9b59ffda695103030fd52a38f80afc7b04505d182bb"
    )
    g = random_connected_graph(14, 0.18, 8)
    lines = []
    enumerate_kbest(g, 20, lambda sol: lines.append(solution_line(g, sol)))
    assert _digest(lines) == (
        20, "228554db2d5b39d6c89bd09e43c583454e5d51f137be6143d57fc6fe9d2322f0"
    )


def test_uncapped_kbest_order_matches_the_golden_digest():
    """``k=None``: every solution in best-first order, with each
    ``on_insert`` trace.  Recorded when the uncapped run still popped a
    heap; the ascending pending list of a capped run must pop the same
    sequence, since solutions are distinct masks in a strict order."""
    g = random_connected_graph(14, 0.18, 8)
    assert _digest(_traced_lines(g, enumerate_kbest, None)) == (
        335, "5805274ba31a17a909c61843ca615c10c2d44a0876190402a9dae0ef2b25c001"
    )


def test_scan_path_order_matches_the_golden_digest():
    """n > 14, so every domination test scans dominator masks rather than
    the vertex-cover table.  Recorded before the bitmask kernels, then
    again once a bounded run stopped keeping the solutions it can no
    longer pop, again when the seed became the smallest over a DFS tree
    from every root, and again when the heap was cut to ``k - o`` entries
    after every batch, which keeps 77 inserts against 259; the outputs
    alone are pinned by a digest recorded with that seed."""
    g = random_connected_graph(20, 0.2, 11)
    assert g.n > 14
    assert _digest(_traced_lines(g, enumerate_kbest, 20)) == (
        97, "4b052f305d104ce1d35deb03c7691c4d16f00e321c9df188f134fb208fbf959c"
    )


@pytest.mark.parametrize("args, k, expected", [
    ((20, 0.2, 11), 20, (20, "31d4276278063b016b932c919d567be9afd08f72dc85a4cfd11100fb97974c53")),
    ((30, 0.15, 5), 100, (100, "6ee5f20aa80c0adf49794fc80372f862ff7321535c99a1c8ea653116df301053")),
])
def test_kbest_outputs_match_the_golden_digests(args, k, expected):
    """The output lines alone, in order, of the two k-best instances that
    also have traced digests in this module; recorded before a bounded run
    stopped keeping the solutions it can no longer pop, which changes the
    traces but must not change the outputs, and re-recorded when the seed
    became the smallest over a DFS tree from every root."""
    g = random_connected_graph(*args)
    lines: list[str] = []
    enumerate_kbest(g, k, lambda sol: lines.append(solution_line(g, sol)))
    assert _digest(lines) == expected


def test_corpus_sweep_matches_the_golden_digest():
    """All 771 tiny graphs and the first 20 random corpus graphs, each
    enumerated in full with its traces; a kernel change that moves any
    output or provenance shows here."""
    lines: list[str] = []
    for g in tiny_corpus() + random_corpus(20, 1105):
        lines += _traced_lines(g, enumerate_all)
    assert _digest(lines) == (
        15254, "db707697c7c346214e57250270d8ece4fe99ef4db7381c6a816ee6514259cf05"
    )


# ---------------------------------------------------------------------------
# k-best enumeration


def test_kbest_five_cycle(c5):
    keys, _ = _collect_kbest(c5, None)
    assert keys == [(0, 1, 2), (0, 1, 4), (0, 3, 4), (1, 2, 3), (2, 3, 4)]
    top2, _ = _collect_kbest(c5, 2)
    assert top2 == keys[:2]


def test_kbest_starts_at_the_seed(c5, k23):
    for g in (c5, k23):
        keys, _ = _collect_kbest(g, 1)
        assert keys == [approx_min_ceds(g).solution.canonical_key]


def test_kbest_emits_smallest_sizes_first(k23):
    keys, _ = _collect_kbest(k23, None)
    assert keys == [(0, 3), (1, 4), (2, 5), (0, 1, 2), (3, 4, 5)]


def test_kbest_rejects_bad_k(c5):
    with pytest.raises(ValueError, match="k must be >= 1, got 0"):
        enumerate_kbest(c5, 0, lambda sol: None)
    with pytest.raises(ValueError):
        enumerate_kbest(c5, -3, lambda sol: None)


@pytest.mark.parametrize("graph", ["c5", "star3", "k23_plus"])
@pytest.mark.parametrize("kwargs, error", [
    ({"k": 2.5}, TypeError),
    ({"k": True}, TypeError),
    ({"k": "3"}, TypeError),
    ({"k": 0}, ValueError),
    ({"max_visited": 2.5}, TypeError),
    ({"max_visited": True}, TypeError),
    ({"max_visited": 0}, ValueError),
    ({"max_visited": -1}, ValueError),
], ids=lambda v: v.__name__ if isinstance(v, type) else "-".join(f"{a}={b!r}" for a, b in v.items()))
def test_caps_are_checked_before_any_output(request, graph, kwargs, error):
    """A general instance (c5) and two trivial ones refuse a bad cap alike,
    and emit nothing first."""
    g = request.getfixturevalue(graph)
    name = next(iter(kwargs))
    runs = [lambda sink: enumerate_kbest(g, kwargs.get("k", 3), sink,
                                         max_visited=kwargs.get("max_visited"))]
    if name == "max_visited":
        runs.append(lambda sink: enumerate_all(g, sink, **kwargs))
    for run in runs:
        got = []
        with pytest.raises(error, match=f"^{name} must be"):
            run(got.append)
        assert got == []


def test_kbest_trivial_dispatch(star3):
    keys, _ = _collect_kbest(star3, 2)
    assert keys == [(0,), (1,)]


def test_kbest_shares_the_neighbor_cache(c5):
    cache: dict = {}
    full, _ = _collect_all(c5, neighbor_cache=cache)
    best, _ = _collect_kbest(c5, None, neighbor_cache=cache)
    assert sorted(best) == sorted(full)


@pytest.mark.parametrize("k", [5, 20])
def test_a_neighbor_cache_changes_no_bounded_run(monkeypatch, k):
    """A k-capped run given a cache neither reads nor fills it: it emits,
    reports, counts and minimalizes as a run without one, and leaves the
    cache empty.  An unbounded run on that cache then finds exactly the
    oracle's set (the k-capped run keeps 49 of the 168 solutions at
    k=20)."""
    g = random_connected_graph(14, 0.18, 8)
    minimalize, calls = neighbors._minimalize_mask, []

    def counted(g, mask):
        calls.append(mask)
        return minimalize(g, mask)

    monkeypatch.setattr(neighbors, "_minimalize_mask", counted)
    runs = []
    cache: dict = {}
    for neighbor_cache in (None, cache):
        calls.clear()
        out, inserts = [], []
        stats = enumerate_kbest(
            g, k, out.append, neighbor_cache=neighbor_cache,
            on_insert=lambda sol, prov: inserts.append((sol, prov.trace())),
        )
        assert cache == {}
        stats = dataclasses.replace(stats, max_delay_s=0.0, mean_delay_s=0.0)
        runs.append((out, inserts, stats, len(calls)))
    assert runs[0] == runs[1]
    assert runs[0][2].peak_visited < 168
    keys, _ = _collect_all(g, neighbor_cache=cache)
    assert len(keys) == len(set(keys))
    assert set(keys) == {s.canonical_key for s in brute_force_minimal_ceds(g)}


@pytest.mark.parametrize("run, fills", [
    (lambda g, cache: enumerate_kbest(g, 20, lambda sol: None, neighbor_cache=cache), False),
    (lambda g, cache: enumerate_kbest(g, None, lambda sol: None, neighbor_cache=cache), True),
    (lambda g, cache: enumerate_all(g, lambda sol: None, neighbor_cache=cache), True),
], ids=["kbest-20", "kbest-all", "all"])
@pytest.mark.parametrize("cached", [False, True], ids=["no-cache", "cache"])
def test_no_mask_is_asserted_twice_in_one_run(monkeypatch, run, fills, cached):
    """Every mask a run asserts minimal is asserted once.  A run without a
    k cap fills the cache with batches it asserted, so a second run on it
    asserts only the start.  A k-capped run leaves the cache empty, so a
    second one asserts exactly what the first did, each mask once."""
    g = random_connected_graph(14, 0.18, 8)
    asserted: list[int] = []

    def counted(g, mask):
        asserted.append(mask)
        return is_minimal_ceds(g, mask)

    for module in (enumeration, neighbors):
        monkeypatch.setattr(module, "is_minimal_ceds", counted)
    cache: dict | None = {} if cached else None
    run(g, cache)
    assert asserted and len(asserted) == len(set(asserted))
    if cached:
        first = list(asserted)
        asserted.clear()
        run(g, cache)
        assert asserted == ([first[0]] if fills else first)


@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=5, max_value=7))
@PROPERTY_SETTINGS
def test_enumeration_matches_the_oracle(seed, n):
    g = random_connected_graph(n, 0.5, seed)
    keys, _ = _collect_all(g)
    assert set(keys) == {s.canonical_key for s in brute_force_minimal_ceds(g)}
    assert len(keys) == len(set(keys))


@given(st.integers(min_value=0, max_value=10_000))
@PROPERTY_SETTINGS
def test_kbest_prefixes_agree(seed):
    g = random_connected_graph(6, 0.5, seed)
    full, _ = _collect_kbest(g, None)
    for k in [*range(1, min(len(full), 5) + 1), len(full)]:
        prefix, stats = _collect_kbest(g, k)
        assert prefix == full[:k]
        assert stats.outputs == k
    if min_ceds_is_singleton(g) is None:
        assert full[0] == approx_min_ceds(g).solution.canonical_key


def test_benchmark_kbest_instance_matches_the_golden_digest():
    """k=100 on the benchmark's k-best instance, with every ``on_insert``
    trace.  Recorded before the heap was trimmed, then again once a bounded
    run stopped keeping the solutions it can no longer pop, again when the
    seed became the smallest over a DFS tree from every root (the run now
    starts from a 16-edge seed, the optimum, against 22 before, and kept
    900 solutions, against 2,679), and again when the heap was cut to
    ``k - o`` entries after every batch: the run keeps 459 solutions,
    against 900.  The outputs alone are pinned by a digest recorded with
    that seed."""
    g = random_connected_graph(30, 0.15, 5)
    assert _digest(_traced_lines(g, enumerate_kbest, 100)) == (
        559, "e537286fc1ab2f7cd5869f0d3a6eb75e792c2e0c6e0fd3707e7e310ad969f90a"
    )


def _check_capped_run(g, k):
    """Run ``enumerate_kbest(g, k)`` and check that after its o-th output
    it inserts at most ``k - o`` solutions, counted by ``on_insert``
    before the next output, and that it self-checks the start and then
    exactly the masks it inserts, in order: none that it drops.  Each
    batch gets the pops left and a pending list of at most that many
    entries."""
    inserted: list[list[int]] = [[]]
    checked: list[int] = []

    def recorded(g, mask):
        checked.append(mask)
        return is_minimal_ceds(g, mask)

    def batch(g, x, certified, **kwargs):
        assert kwargs["room"] == k - (len(inserted) - 1) >= len(kwargs["pending"])
        return neighbors.all_neighbors(g, x, certified, **kwargs)

    with (
        mock.patch.object(enumeration, "is_minimal_ceds", recorded),
        mock.patch.object(neighbors, "is_minimal_ceds", recorded),
        mock.patch.object(enumeration, "all_neighbors", batch),
    ):
        enumerate_kbest(
            g, k, lambda sol: inserted.append([]),
            on_insert=lambda sol, prov: inserted[-1].append(sol.mask),
        )
    assert inserted[0] == []
    assert all(len(masks) <= k - o for o, masks in enumerate(inserted) if o)
    flat = [mask for masks in inserted for mask in masks]
    if min_ceds_is_singleton(g) is not None:
        assert checked == flat == []
    else:
        assert checked == [approx_min_ceds(g).solution.mask, *flat]


@pytest.mark.parametrize("k", [1, 2, 3, 5, 20])
def test_a_capped_run_checks_and_inserts_only_what_it_can_pop_on_the_tiny_corpus(k):
    for g in tiny_corpus():
        _check_capped_run(g, k)


@given(
    st.integers(min_value=6, max_value=12),
    st.sampled_from((0.25, 0.4, 0.6)),
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=40),
)
@example(n=6, p=0.25, seed=11, k=2)  # a trivial instance
@example(n=9, p=0.25, seed=104, k=40)  # a trivial instance
@PROPERTY_SETTINGS
def test_a_capped_run_checks_and_inserts_only_what_it_can_pop(n, p, seed, k):
    _check_capped_run(random_connected_graph(n, p, seed), k)


@given(
    st.integers(min_value=6, max_value=10),
    st.sampled_from((0.25, 0.4, 0.6)),
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=40),
)
@example(n=6, p=0.25, seed=11, k=2)  # a trivial instance
@example(n=9, p=0.25, seed=104, k=40)  # a trivial instance
@PROPERTY_SETTINGS
def test_trimming_the_heap_changes_nothing(n, p, seed, k):
    """The k-capped run trims its heap and drops what it can no longer pop;
    one that never trims emits the same solutions after the same
    expansions.  The run keeps a subsequence of the untrimmed run's
    insertions, with their provenance, every output after the seed among
    them, and counts only those in ``peak_visited`` and ``duplicates``."""
    g = random_connected_graph(n, p, seed)
    runs = []
    for run in (enumerate_kbest, kbest_untrimmed):
        out, inserts = [], []
        stats = run(g, k, out.append, on_insert=lambda sol, prov: inserts.append((sol, prov.trace())))
        runs.append((out, inserts, stats))
    (out, inserts, stats), (ref_out, ref_inserts, ref_stats) = runs
    assert out == ref_out
    kept_only = dict(max_delay_s=0.0, mean_delay_s=0.0, duplicates=0, peak_visited=0)
    assert dataclasses.replace(stats, **kept_only) == dataclasses.replace(ref_stats, **kept_only)
    ref_iter = iter(ref_inserts)
    assert all(pair in ref_iter for pair in inserts)
    assert stats.duplicates <= ref_stats.duplicates
    if min_ceds_is_singleton(g) is not None:
        assert inserts == [] and stats.peak_visited == stats.duplicates == 0
        return
    kept = {sol for sol, _ in inserts}
    assert all(sol in kept for sol in out[1:])
    assert stats.peak_visited == len(inserts) + 1


def _recorded(run, g, *args, **kwargs):
    """Outputs, (mask, provenance) inserts and stats of one run."""
    out, inserts = [], []
    stats = run(
        g, *args, out.append, **kwargs,
        on_insert=lambda sol, prov: inserts.append((sol.mask, prov.trace())),
    )
    return out, inserts, stats


@given(
    st.integers(min_value=5, max_value=8),
    st.sampled_from((0.25, 0.4)),
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=40),
)
@example(n=8, p=0.4, seed=7, k=40)  # 876 solutions, and the runs reset their built masks
@PROPERTY_SETTINGS
def test_building_each_candidate_once_per_run_changes_nothing(n, p, seed, k):
    """Without a cache, a run shares one set of built masks across its
    batches and skips every candidate in it.  A run that fills a
    ``neighbor_cache`` builds every batch complete, so it is the reference
    for ``enumerate_all`` and ``enumerate_kbest(k=None)``.  A k-capped run
    ignores the cache, so its reference gives each batch a fresh set, and
    the untrimmed heap of ``kbest_untrimmed`` pops the same solutions.  The
    runs agree on outputs, inserts and their provenance, expansions and
    ``peak_visited``, and count no more duplicates than the reference.
    Every batch of a run starts with at most ``3 * len(visited)`` built
    masks."""
    g = random_connected_graph(n, p, seed)
    starts: list[tuple[int, int]] = []

    def shared(g, x, certified, **kwargs):
        starts.append((len(kwargs["built"]), len(certified)))
        return neighbors.all_neighbors(g, x, certified, **kwargs)

    def fresh(g, x, certified, *, built, **kwargs):
        return neighbors.all_neighbors(g, x, certified, **kwargs)

    def same(got, ref):
        (out, inserts, stats), (ref_out, ref_inserts, ref_stats) = got, ref
        assert out == ref_out and inserts == ref_inserts
        assert stats.expansions == ref_stats.expansions
        assert stats.peak_visited == ref_stats.peak_visited
        assert stats.duplicates <= ref_stats.duplicates

    for run, args in ((enumerate_all, ()), (enumerate_kbest, (None,))):
        with mock.patch.object(enumeration, "all_neighbors", shared):
            got = _recorded(run, g, *args)
        same(got, _recorded(run, g, *args, neighbor_cache={}))
    with mock.patch.object(enumeration, "all_neighbors", shared):
        got = _recorded(enumerate_kbest, g, k)
    with mock.patch.object(enumeration, "all_neighbors", fresh):
        same(got, _recorded(enumerate_kbest, g, k))
    untrimmed = _recorded(kbest_untrimmed, g, k)
    assert got[0] == untrimmed[0] and got[2].expansions == untrimmed[2].expansions
    assert all(size <= 3 * visited for size, visited in starts)


_SPLIT_SKIP_EXAMPLE = dict(n=7, p=0.4, seed=7)  # 88 solutions, 124 splits left out


@given(
    st.integers(min_value=5, max_value=8),
    st.sampled_from((0.25, 0.4)),
    st.integers(min_value=0, max_value=10_000),
)
@example(**_SPLIT_SKIP_EXAMPLE)
@PROPERTY_SETTINGS
def test_exploring_each_split_once_per_run_changes_nothing(n, p, seed):
    """Without a cache, the moves leave out each split x - e that an
    expanded sibling explored.  At every expansion of ``enumerate_all``
    and ``enumerate_kbest(k=None)``, the complete batch, with a fresh set
    of built masks and nothing expanded, holds every item of the run's
    batch outside ``certified`` in the same order with the same
    provenance, and lacks from it only items in ``certified``.  The run
    has expanded at most ``len(certified)`` solutions when a batch
    starts.  On the example, some splits are left out."""
    g = random_connected_graph(n, p, seed)
    skipped = 0
    explored = neighbors._explored

    def counted(expanded, rest, siblings):
        nonlocal skipped
        hit = explored(expanded, rest, siblings)
        skipped += hit
        return hit

    def checked(g, x, certified, *, expanded, **kwargs):
        assert len(expanded) <= len(certified)
        batch = neighbors.all_neighbors(g, x, certified, expanded=expanded, **kwargs)
        complete = neighbors.all_neighbors(g, x, certified)
        masks = {sol.mask for sol, _ in batch.items}
        assert all(sol.mask in certified for sol, _ in complete.items if sol.mask not in masks)

        def new(items):
            return [(sol.mask, prov.trace()) for sol, prov in items if sol.mask not in certified]

        assert new(batch.items) == new(complete.items)
        return batch

    with (
        mock.patch.object(neighbors, "_explored", counted),
        mock.patch.object(enumeration, "all_neighbors", checked),
    ):
        for run, args in ((enumerate_all, ()), (enumerate_kbest, (None,))):
            run(g, *args, lambda sol: None)
    if dict(n=n, p=p, seed=seed) == _SPLIT_SKIP_EXAMPLE:
        assert skipped
