"""Corpus-wide acceptance checks, one test per criterion.

The corpus behind ``corpus_report`` is every labeled connected graph on up
to five vertices plus two hundred seeded random connected graphs on six to
nine vertices.  Each test prints a single verdict line; the same lines are
echoed in the terminal summary section after the run.
"""

from __future__ import annotations

from types import SimpleNamespace

from cedsenum.cli import main
from cedsenum.oracle import FAIL, SKIP


def _tally(corpus_report, name: str) -> SimpleNamespace:
    """One check's results summed over the corpus, with up to five failures."""
    results = corpus_report[name]
    failures = [r.text for r in results if r.status == FAIL]
    return SimpleNamespace(
        checked=sum(r.checked for r in results),
        skipped=sum(r.status == SKIP for r in results),
        seconds=sum(r.seconds for r in results),
        figures=[r.figures for r in results],
        failure_count=len(failures),
        detail="\n".join(failures[:5]),
    )


def _verdict(tally, *, budget_s: float | None = None) -> str:
    ok = tally.failure_count == 0
    if budget_s is not None:
        ok = ok and tally.seconds < budget_s
    return "PASS" if ok else "FAIL"


def test_criterion_1_oracle_equivalence(corpus_report, criterion_log):
    """Full enumeration set-equals the brute-force oracle on every graph."""
    tally = _tally(corpus_report, "oracle-equivalence")
    solutions = sum(f.get("solutions", 0) for f in tally.figures)
    criterion_log(
        f"criterion 1 (oracle equivalence): {_verdict(tally, budget_s=300)} "
        f"[{tally.checked} graphs, {solutions} solutions, "
        f"{tally.seconds:.1f}s]"
    )
    assert tally.failure_count == 0, tally.detail
    assert tally.seconds < 300


def test_criterion_2_minimality_agreement(corpus_report, criterion_log):
    """The pendant/private-edge minimality test agrees with the definitional
    proper-subset test on every CEDS the sweep encounters."""
    tally = _tally(corpus_report, "minimality-agreement")
    criterion_log(
        f"criterion 2 (minimality characterization): {_verdict(tally, budget_s=120)} "
        f"[{tally.checked} edge sets, {tally.seconds:.1f}s]"
    )
    assert tally.failure_count == 0, tally.detail
    assert tally.seconds < 120


def test_criterion_3_neighbor_closure(corpus_report, criterion_log):
    """Every neighbor produced during the sweep is a minimal CEDS and a tree."""
    tally = _tally(corpus_report, "neighbor-closure")
    criterion_log(
        f"criterion 3 (neighbor closure): {_verdict(tally)} "
        f"[{tally.checked} arcs, {tally.skipped} trivial graphs skipped]"
    )
    assert tally.failure_count == 0, tally.detail


def test_move_candidates_are_ceds(corpus_report, criterion_log):
    """Every raw candidate of the three move types is a CEDS before it is
    minimalized, on every sampled supergraph node: the moves build CEDS by
    construction and minimalize their candidates without a test."""
    tally = _tally(corpus_report, "move-candidates")
    criterion_log(
        f"move candidates (CEDS by construction): {_verdict(tally)} "
        f"[{tally.checked} candidates, {tally.skipped} trivial graphs skipped, "
        f"{tally.seconds:.1f}s]"
    )
    assert tally.failure_count == 0, tally.detail


def test_criterion_4_strong_connectivity(corpus_report, criterion_log):
    """Every corpus supergraph is strongly connected.  Trivial instances have
    no supergraph: their solutions come from the closed form."""
    tally = _tally(corpus_report, "strong-connectivity")
    criterion_log(
        f"criterion 4 (strong connectivity): {_verdict(tally)} "
        f"[{tally.checked} supergraphs, {tally.skipped} trivial graphs skipped]"
    )
    assert tally.failure_count == 0, tally.detail


def test_criterion_5_path_size_bound(corpus_report, criterion_log):
    """Every solution is reachable from the start solution through nodes of
    size at most |start| + 2|target|."""
    tally = _tally(corpus_report, "path-size-bound")
    criterion_log(
        f"criterion 5 (path size bound): {_verdict(tally)} "
        f"[{tally.checked} supergraphs, {tally.skipped} trivial graphs skipped]"
    )
    assert tally.failure_count == 0, tally.detail


def test_criterion_6_kbest_prefix_guarantee(corpus_report, criterion_log):
    """Best-first prefixes stay within factor (c_obs + 2) of the smallest
    non-emitted solution for every k, the factor-4 variant holds wherever the
    seed ratio c_obs is at most 2, and the seed ratio never exceeds 2.  The
    verdict also counts the exact seeds, those of ratio 1 to the oracle
    optimum, among the non-trivial graphs."""
    tally = _tally(corpus_report, "kbest-prefix-bound")
    ratios = [f["seed_ratio"] for f in tally.figures if "seed_ratio" in f]
    max_seed_ratio = max(ratios)
    criterion_log(
        f"criterion 6 (k-best prefix guarantee): {_verdict(tally, budget_s=600)} "
        f"[{tally.checked} graphs, max seed ratio {max_seed_ratio}, "
        f"{ratios.count(1)} of {len(ratios)} seeds exact, {tally.seconds:.1f}s]"
    )
    assert tally.failure_count == 0, tally.detail
    assert max_seed_ratio <= 2
    assert tally.seconds < 600


def test_criterion_7_trivial_fast_path(corpus_report, criterion_log):
    """On single-edge-CEDS instances the closed-form enumeration must match
    the oracle and keep every solution within the size bound of its shapes.

    For a single-edge CEDS {a, b} the closed form promises a single edge, a
    two-edge path a-w-b, or a full star from a or from b onto the common
    neighborhood N(a) & N(b), so no solution has more than
    max(2, |N(a) & N(b)|) edges.  The check recomputes the stars from the
    graph and fails any solution above two edges that is not one of them: a
    three-edge path, a star onto part of the common neighborhood, or a star
    around a vertex that is not a hub.  A blanket cap of two edges is false:
    in the ``k23_plus`` fixture each hub's three-edge star is a minimal CEDS,
    since dropping a spoke a-w leaves the edge b-w undominated.
    """
    tally = _tally(corpus_report, "trivial-fast-path")
    stars = sum(f.get("hub_stars", 0) for f in tally.figures)
    criterion_log(
        f"criterion 7 (trivial fast path): {_verdict(tally)} "
        f"[{tally.checked} trivial graphs, {stars} full hub stars, "
        f"{tally.failure_count} oracle mismatches or star-bound violations]"
    )
    assert tally.failure_count == 0, tally.detail


def test_criterion_8_out_degree_bound(corpus_report, criterion_log):
    """No solution has more neighbors than 8 * n * m * max_degree."""
    tally = _tally(corpus_report, "out-degree-bound")
    widest = max(tally.figures, key=lambda f: f.get("widest", -1))
    criterion_log(
        f"criterion 8 (out-degree bound): {_verdict(tally)} "
        f"[{tally.checked} supergraphs, widest {widest.get('widest')} "
        f"vs bound {widest.get('bound')}]"
    )
    assert tally.failure_count == 0, tally.detail


def test_criterion_9_delay_benchmark(tmp_path, capsys, criterion_log):
    """The bench command completes on generated instances of growing size
    without tripping a visited-solution guard sized well under a gigabyte,
    and reports one CSV row per instance in order."""
    recipe = [(10, 0.25, 4), (14, 0.18, 8), (18, 0.13, 11), (22, 0.11, 15)]
    paths = []
    for n, p, seed in recipe:
        rc = main(["gen", "-n", str(n), "-p", str(p), "--seed", str(seed)])
        assert rc == 0
        text = capsys.readouterr().out
        target = tmp_path / f"bench_{n}.edges"
        target.write_text(text)
        paths.append(str(target))

    # A million visited solutions is far below 1 GB of key storage.
    rc = main(["bench", *paths, "--max-visited", "1000000"])
    out, err = capsys.readouterr()
    lines = out.strip().splitlines()
    status = "PASS"
    if rc != 0 or err or len(lines) != 5:
        status = "FAIL"
    rows = [line.split(",") for line in lines[1:]]
    sizes = [int(r[0]) for r in rows]
    delays = [float(r[4]) for r in rows]
    if sizes != [n for n, _, _ in recipe] or any(d <= 0 for d in delays):
        status = "FAIL"
    criterion_log(
        f"criterion 9 (delay benchmark): {status} "
        f"[n swept {sizes}, max delay {max(delays):.4f}s]"
    )
    assert rc == 0, err
    assert err == ""
    assert lines[0] == "n,m,delta,outputs,max_delay_s,mean_delay_s,expansions"
    assert sizes == [10, 14, 18, 22]
    for row in rows:
        assert int(row[3]) > 0 and int(row[6]) > 0
        assert float(row[4]) >= float(row[5]) > 0
    assert status == "PASS"
