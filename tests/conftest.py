"""Shared fixtures: named graphs plus a one-pass sweep over the test corpus.

The structural acceptance checks all consume the same per-graph artifacts
(the brute-force solution set, the enumeration output, the supergraph
snapshot), so a session-scoped sweep computes everything once and the
individual checks read aggregates out of the resulting report.  Each
acceptance test registers a one-line verdict that is echoed again in the
terminal summary.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction

import pytest

from cedsenum import (
    EdgeSet,
    Graph,
    approx_min_ceds,
    brute_force_minimal_ceds,
    build_supergraph,
    enumerate_all,
    enumerate_trivial,
    is_minimal_ceds,
    min_ceds_is_singleton,
)
from cedsenum.ceds import is_ceds
from cedsenum.corpus import random_corpus, tiny_corpus
from cedsenum.graph import is_tree, spanning_tree_of
from cedsenum.oracle import (
    check_kbest_prefix_bound,
    check_path_size_bound,
    check_strong_connectivity,
    is_minimal_ceds_definitional,
)

# How many oracle solutions per graph get the superset/removal treatment in
# the minimality cross-check; keeps the candidate count linear in the corpus.
SUPERSET_SAMPLE = 8


# ---------------------------------------------------------------------------
# Named graphs


@pytest.fixture
def p5() -> Graph:
    return Graph.from_edge_list([(0, 1), (1, 2), (2, 3), (3, 4)])


@pytest.fixture
def c5() -> Graph:
    return Graph.from_edge_list([(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])


@pytest.fixture
def star3() -> Graph:
    return Graph.from_edge_list([(0, 1), (0, 2), (0, 3)])


@pytest.fixture
def k2() -> Graph:
    return Graph.from_edge_list([(0, 1)])


@pytest.fixture
def triangle() -> Graph:
    return Graph.from_edge_list([(0, 1), (0, 2), (1, 2)])


@pytest.fixture
def k23() -> Graph:
    return Graph.from_edge_list([(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])


@pytest.fixture
def k23_plus() -> Graph:
    """K_{2,3} with the hub edge added: a single-edge-CEDS instance whose
    minimal solutions include two full three-edge stars."""
    return Graph.from_edge_list(
        [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]
    )


# ---------------------------------------------------------------------------
# Corpus sweep


@dataclass
class CriterionTally:
    """Aggregate for one structural check across the whole corpus."""

    checked: int = 0
    skipped: int = 0
    seconds: float = 0.0
    failure_count: int = 0
    failures: list[str] = field(default_factory=list)

    def fail(self, message: str, cap: int = 5) -> None:
        self.failure_count += 1
        if len(self.failures) < cap:
            self.failures.append(message)

    def detail(self) -> str:
        return "\n".join(self.failures) or "no recorded witnesses"


@dataclass
class CorpusReport:
    graphs: int = 0
    trivial_graphs: int = 0
    trivial_stars: int = 0
    solutions: int = 0
    max_seed_ratio: Fraction = Fraction(0)
    max_out_degree: int = 0
    out_degree_bound_at_max: int = 0
    tallies: dict[str, CriterionTally] = field(default_factory=dict)

    def tally(self, name: str) -> CriterionTally:
        return self.tallies.setdefault(name, CriterionTally())


class _Timer:
    def __init__(self, tally: CriterionTally):
        self.tally = tally

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.tally.seconds += time.perf_counter() - self.t0
        return False


def _minimality_candidates(g: Graph, sols) -> list[EdgeSet]:
    """CEDS edge sets the minimality checks get compared on: every oracle
    solution, the full edge set and its spanning tree, plus one-edge
    supersets and one-edge removals around a small solution sample."""
    out = [s.edges for s in sols]
    full = EdgeSet.from_mask(g.all_edges_mask)
    out.append(full)
    out.append(spanning_tree_of(g, full))
    for e in range(g.m):
        cand = EdgeSet(f for f in range(g.m) if f != e)
        if is_ceds(g, cand):
            out.append(cand)
    for sol in sols[:SUPERSET_SAMPLE]:
        for e in range(g.m):
            if e in sol.edges:
                continue
            cand = sol.edges | EdgeSet([e])
            if is_ceds(g, cand):
                out.append(cand)
    return out


def _hub_star_keys(g: Graph) -> set[tuple[int, ...]]:
    """Canonical keys of the full hub stars of a trivial instance: for every
    single-edge CEDS {a, b}, the edges from a, and those from b, onto the
    common neighborhood N(a) & N(b)."""
    nbrs = [{w for w, _ in g.adjacency[v]} for v in range(g.n)]
    stars = set()
    for e, (a, b) in enumerate(g.edges):
        if not is_ceds(g, [e]):
            continue
        common = nbrs[a] & nbrs[b]
        for hub in (a, b):
            stars.add(tuple(sorted(g.edge_between(hub, w) for w in common)))
    return stars


def _analyze(g: Graph, report: CorpusReport) -> None:
    report.graphs += 1
    where = f"graph {g.edges}"

    equiv = report.tally("oracle_equivalence")
    with _Timer(equiv):
        sols = brute_force_minimal_ceds(g)
        cache: dict = {}
        got = []
        enumerate_all(g, got.append, neighbor_cache=cache)
        oracle_keys = {s.canonical_key for s in sols}
        got_keys = [s.canonical_key for s in got]
        equiv.checked += 1
        if len(got_keys) != len(set(got_keys)):
            equiv.fail(f"{where}: enumeration repeated a solution")
        if set(got_keys) != oracle_keys:
            diff = sorted(oracle_keys ^ set(got_keys))
            equiv.fail(f"{where}: solution sets differ, first witness {diff[0]}")
    report.solutions += len(sols)

    agree = report.tally("minimality_agreement")
    with _Timer(agree):
        for cand in _minimality_candidates(g, sols):
            agree.checked += 1
            if is_minimal_ceds(g, cand) != is_minimal_ceds_definitional(g, cand):
                agree.fail(f"{where}: characterizations split on {sorted(cand)}")

    closure = report.tally("neighbor_closure")
    connect = report.tally("strong_connectivity")
    path_bound = report.tally("path_size_bound")
    prefix = report.tally("kbest_prefix")
    out_deg = report.tally("out_degree")
    trivial = report.tally("trivial_fast_path")

    if min_ceds_is_singleton(g) is not None:
        report.trivial_graphs += 1
        for tally in (closure, connect, path_bound, out_deg):
            tally.skipped += 1
        with _Timer(trivial):
            triv = enumerate_trivial(g)
            trivial.checked += 1
            if {s.canonical_key for s in triv} != oracle_keys:
                trivial.fail(f"{where}: closed-form set differs from the oracle")
            # Above two edges only a full hub star may appear, which bounds
            # every size by max(2, |N(a) & N(b)|) over the single-edge CEDS {a, b}.
            stars = _hub_star_keys(g)
            for s in triv:
                if s.size <= 2:
                    continue
                if s.canonical_key in stars:
                    report.trivial_stars += 1
                else:
                    trivial.fail(
                        f"{where}: solution {s.canonical_key} has size {s.size} "
                        "but is not a full hub star onto a common neighborhood"
                    )
        with _Timer(prefix):
            # The first emission is an exact optimum (a single edge), so the
            # guarantee factor is 1 + 2 and the factor-4 variant applies too.
            prefix.checked += 1
            if not check_kbest_prefix_bound(g, Fraction(3), solutions=sols):
                prefix.fail(f"{where}: factor-3 prefix bound violated")
            if not check_kbest_prefix_bound(g, Fraction(4), solutions=sols):
                prefix.fail(f"{where}: factor-4 prefix bound violated")
        return

    trivial.skipped += 1

    with _Timer(connect):
        snapshot = build_supergraph(g, neighbor_cache=cache, solutions=sols)
        connect.checked += 1
        if not check_strong_connectivity(snapshot):
            connect.fail(f"{where}: supergraph is not strongly connected")

    with _Timer(closure):
        for src, targets in snapshot.arcs.items():
            for t in set(targets):
                closure.checked += 1
                if not (is_minimal_ceds(g, t.edges) and is_tree(g, t.edges)):
                    closure.fail(f"{where}: neighbor {t} of {src} is not minimal")

    with _Timer(path_bound):
        path_bound.checked += 1
        if not check_path_size_bound(g, snapshot=snapshot):
            path_bound.fail(f"{where}: a solution is unreachable within the size bound")

    with _Timer(prefix):
        seed = approx_min_ceds(g)
        optimum = min(s.size for s in sols)
        ratio = Fraction(seed.solution.size, optimum)
        report.max_seed_ratio = max(report.max_seed_ratio, ratio)
        prefix.checked += 1
        if ratio > 2:
            prefix.fail(f"{where}: seed ratio {ratio} exceeds 2")
        if not check_kbest_prefix_bound(g, ratio + 2, solutions=sols, neighbor_cache=cache):
            prefix.fail(f"{where}: factor-({ratio}+2) prefix bound violated")
        if ratio <= 2 and not check_kbest_prefix_bound(
            g, Fraction(4), solutions=sols, neighbor_cache=cache
        ):
            prefix.fail(f"{where}: factor-4 prefix bound violated")

    with _Timer(out_deg):
        out_deg.checked += 1
        bound = 8 * g.n * g.m * g.max_degree
        widest = max(len(targets) for targets in snapshot.arcs.values())
        if widest > bound:
            out_deg.fail(f"{where}: out-degree {widest} exceeds 8*n*m*delta = {bound}")
        if widest > report.max_out_degree:
            report.max_out_degree = widest
            report.out_degree_bound_at_max = bound


@pytest.fixture(scope="session")
def corpus_report() -> CorpusReport:
    report = CorpusReport()
    for g in tiny_corpus():
        _analyze(g, report)
    for g in random_corpus():
        _analyze(g, report)
    return report


# ---------------------------------------------------------------------------
# Verdict lines, echoed after the run so they are visible in plain output

_VERDICTS: list[str] = []


@pytest.fixture
def criterion_log():
    def record(line: str) -> None:
        _VERDICTS.append(line)
        print(line)

    return record


def pytest_terminal_summary(terminalreporter):
    if not _VERDICTS:
        return
    terminalreporter.section("acceptance criteria")
    for line in _VERDICTS:
        terminalreporter.write_line(line)
