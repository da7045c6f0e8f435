"""Brute-force ground truth and executable forms of the structural claims.

The ground truth stays independent of the pendant/private-edge machinery it
is meant to validate: minimality is decided by searching subsets, using
only the definitions of domination and connectivity.  :func:`verify_graph`
runs every structural check against it, for ``cedsenum verify`` and the
acceptance sweep alike.
"""

from __future__ import annotations

import traceback
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from time import perf_counter

from .approx import approx_min_ceds
from .ceds import (
    Solution, _is_ceds_mask, enumerate_trivial, is_minimal_ceds, min_ceds_is_singleton,
    solution_line,
)
from .enumeration import enumerate_all, enumerate_kbest, initial_solution
from .graph import Graph, _bits, _spanning_tree_mask, is_tree
from .neighbors import _moves, all_neighbors

ORACLE_EDGE_CAP = 40


class TooLargeError(ValueError):
    pass


def _require_scale(g: Graph, max_edges: int) -> None:
    if g.m > max_edges:
        raise TooLargeError(f"graph has m={g.m} edges, above the oracle cap {max_edges}")


def _contains_ceds_mask(g: Graph, mask: int) -> bool:
    """True iff ``mask`` contains a CEDS, that is, iff it is one: a superset
    of a CEDS still dominates every edge, and each added edge touches the
    CEDS, so it stays connected."""
    return _is_ceds_mask(g, mask)


def is_minimal_ceds_definitional(g: Graph, mask: int) -> bool:
    """Minimality by single-edge removal, no structural shortcuts.

    The mask is a minimal CEDS iff it is a CEDS but no single-edge removal
    leaves one (a CEDS inside it survives removing any edge outside that
    CEDS, since every superset of a CEDS is one).
    """
    if not _contains_ceds_mask(g, mask):
        return False
    return all(not _contains_ceds_mask(g, mask ^ (1 << e)) for e in _bits(mask))


def brute_force_minimal_ceds(g: Graph, *, max_edges: int = ORACLE_EDGE_CAP) -> list[Solution]:
    """All minimal CEDS of g by pruned subset search; sorted by (size, key).

    The recursion decides edge membership in index order.  A branch stops
    as soon as its chosen set is a CEDS: on the path to a minimal solution,
    no proper prefix subset can be one, so each minimal CEDS is reached
    exactly once, at the node where chosen equals it.  A branch whose
    chosen set plus all undecided edges is no CEDS is dead and is cut.
    """
    _require_scale(g, max_edges)
    m = g.m
    suffix = [0] * (m + 1)
    for i in range(m - 1, -1, -1):
        suffix[i] = suffix[i + 1] | (1 << i)
    found: list[Solution] = []

    def rec(i: int, chosen: int) -> None:
        if _contains_ceds_mask(g, chosen):
            if all(not _contains_ceds_mask(g, chosen ^ (1 << e)) for e in _bits(chosen)):
                found.append(Solution(chosen))
            return
        if i == m:
            return
        if not _contains_ceds_mask(g, chosen | suffix[i]):
            return
        rec(i + 1, chosen)
        rec(i + 1, chosen | (1 << i))

    rec(0, 0)
    return sorted(found)


# ---------------------------------------------------------------------------
# Supergraph snapshot and structural witnesses


@dataclass
class SupergraphSnapshot:
    """The explicit supergraph: all solutions plus the neighbor arcs."""

    nodes: list[Solution]
    arcs: dict[Solution, tuple[Solution, ...]]


def build_supergraph(
    g: Graph,
    *,
    max_edges: int = ORACLE_EDGE_CAP,
    neighbor_cache: dict | None = None,
    solutions: list[Solution] | None = None,
) -> SupergraphSnapshot:
    """Materialize nodes (oracle solutions) and arcs (neighbor batches).

    Rejects trivial instances: their solutions are produced in closed form
    and the traversal structure is never used for them.  ``solutions`` lets
    callers that already hold the oracle output skip recomputing it.  Arcs
    are taken as the moves give them; the neighbor-closure check of
    :func:`verify_graph` tests that each target is an oracle solution.
    """
    _require_scale(g, max_edges)
    if min_ceds_is_singleton(g) is not None:
        raise ValueError("trivial instance: the supergraph is not used")
    nodes = brute_force_minimal_ceds(g, max_edges=max_edges) if solutions is None else list(solutions)
    cache = {} if neighbor_cache is None else neighbor_cache
    for sol in nodes:
        if sol.mask not in cache:
            cache[sol.mask] = all_neighbors(g, sol)
    arcs = {sol: tuple(nb for nb, _ in cache[sol.mask].items) for sol in nodes}
    return SupergraphSnapshot(nodes, arcs)


def _reach(start: Solution, adj: dict, allowed: set[Solution] | None = None) -> set[Solution]:
    seen = {start}
    stack = [start]
    while stack:
        k = stack.pop()
        for t in adj.get(k, ()):
            if t not in seen and (allowed is None or t in allowed):
                seen.add(t)
                stack.append(t)
    return seen


def _strong_connectivity_witness(s: SupergraphSnapshot) -> tuple[Solution, Solution] | None:
    """None if strongly connected, else a pair (from, to) with no path."""
    root = s.nodes[0]
    reverse: dict[Solution, list[Solution]] = {}
    for src, targets in s.arcs.items():
        for t in targets:
            reverse.setdefault(t, []).append(src)
    fwd, bwd = _reach(root, s.arcs), _reach(root, reverse)
    for sol in s.nodes:
        if sol not in fwd:
            return (root, sol)
        if sol not in bwd:
            return (sol, root)
    return None


def _kbest_prefix_witness(sizes: list[int], factor: Fraction | int) -> tuple[int, int, int] | None:
    """None if, for every k, the largest of the first k best-first output
    ``sizes`` is at most ``factor`` times the smallest size not yet emitted;
    else the first (k, max emitted, min left) that breaks it.

    ``sizes`` comes from one uncapped run: stopping the deterministic
    traversal after k outputs emits exactly its first k entries (the prefix
    property, tested separately).  A pass implies a pass for larger factors.
    """
    prefix_max = list(accumulate(sizes, max))
    suffix_min = list(accumulate(reversed(sizes), min))[::-1]
    for k in range(1, len(sizes)):
        if prefix_max[k - 1] > factor * suffix_min[k]:
            return (k, prefix_max[k - 1], suffix_min[k])
    return None


def _path_size_witness(g: Graph, snapshot: SupergraphSnapshot) -> Solution | None:
    """None if the bounded-size reachability claim holds, else a witness Y.

    Claim: from X = initial_solution(g), every solution Y is reachable
    through solutions of size at most |X| + 2|Y|.  An X missing from the
    snapshot is its own witness.
    """
    x = initial_solution(g)
    if x not in snapshot.arcs:
        return x
    reached: dict[int, set[Solution]] = {}  # by size bound
    for y in sorted(snapshot.nodes):
        bound = x.size + 2 * y.size
        if bound not in reached:
            allowed = {s for s in snapshot.nodes if s.size <= bound}
            reached[bound] = _reach(x, snapshot.arcs, allowed)
        if y not in reached[bound]:
            return y
    return None


# ---------------------------------------------------------------------------
# The check list

PASS, FAIL, SKIP = "PASS", "FAIL", "SKIP"

# Oracle solutions per graph whose one-edge supersets join the minimality
# candidates; keeps the candidate count linear in the corpus.
SUPERSET_SAMPLE = 8

# Supergraph nodes per graph whose raw move candidates are tested; above it,
# an evenly spaced sample of that many.
CANDIDATE_SAMPLE = 100


@dataclass
class CheckResult:
    """One check on one graph.  ``text`` is the row detail, or the
    counterexample on FAIL; ``checked`` counts the items a passing check
    examined (graphs, edge sets, arcs); ``figures`` holds what the
    acceptance verdicts add up."""

    name: str
    status: str
    text: str
    checked: int
    seconds: float
    figures: dict


class _Counterexample(Exception):
    pass


class _GraphRun:
    """What the checks on one graph share, each built once, on first use."""

    def __init__(self, g: Graph, line: Callable[[Solution], str], max_edges: int):
        self.g, self.line, self.max_edges = g, line, max_edges
        self.trivial = min_ceds_is_singleton(g) is not None
        self.neighbor_cache: dict = {}

    @cached_property
    def solutions(self) -> list[Solution]:
        return brute_force_minimal_ceds(self.g, max_edges=self.max_edges)

    @cached_property
    def snapshot(self) -> SupergraphSnapshot:
        return build_supergraph(self.g, max_edges=self.max_edges,
                                neighbor_cache=self.neighbor_cache, solutions=self.solutions)

    def require_oracle_set(self, got: list[Solution], source: str) -> None:
        oracle = {s.mask for s in self.solutions}
        diff = oracle ^ {s.mask for s in got}
        if diff:
            first = min(map(Solution, diff))
            side = f"missing from {source}" if first.mask in oracle else "not in oracle"
            raise _Counterexample(f"solution '{self.line(first)}' {side}")


# A check returns (row text, items checked, figures) or raises _Counterexample.


def _oracle_equivalence(run: _GraphRun):
    got: list[Solution] = []
    enumerate_all(run.g, got.append, neighbor_cache=run.neighbor_cache)
    seen: set[int] = set()
    for sol in got:
        if sol.mask in seen:
            raise _Counterexample(f"solution '{run.line(sol)}' emitted more than once")
        seen.add(sol.mask)
    run.require_oracle_set(got, "enumeration")
    return f"{len(got)} solutions", 1, {"solutions": len(got)}


def _minimality_agreement(run: _GraphRun):
    """The pendant/private-edge test agrees with the definitional one on the
    oracle solutions, the full edge set and its spanning tree, and every
    CEDS one edge below the full set or above a sampled solution."""
    g, full = run.g, run.g.all_edges_mask
    near = [full ^ (1 << e) for e in range(g.m)]
    for sol in run.solutions[:SUPERSET_SAMPLE]:
        near += [sol.mask | (1 << e) for e in range(g.m) if not sol.mask >> e & 1]
    cands = [s.mask for s in run.solutions] + [full, _spanning_tree_mask(g, full)]
    cands += [mask for mask in near if _is_ceds_mask(g, mask)]
    for mask in cands:
        if is_minimal_ceds(g, mask) != is_minimal_ceds_definitional(g, mask):
            raise _Counterexample(f"minimality tests split on '{run.line(Solution(mask))}'")
    return f"{len(cands)} edge sets", len(cands), {}


def _trivial_fast_path(run: _GraphRun):
    """The closed form equals the oracle set, and every solution above two
    edges is a full star from a or from b onto N(a) & N(b) for a single-edge
    CEDS {a, b}, which bounds every size by max(2, |N(a) & N(b)|)."""
    g, inc = run.g, run.g.incident_mask
    triv = enumerate_trivial(g)
    run.require_oracle_set(triv, "the closed form")
    stars = set()
    for e, (a, b) in enumerate(g.edges):
        if _is_ceds_mask(g, 1 << e):
            common = g.neighbor_vmask[a] & g.neighbor_vmask[b]
            spokes = 0
            for w in _bits(common):
                spokes |= inc[w]
            stars |= {inc[a] & spokes, inc[b] & spokes}
    big = [s for s in triv if s.size > 2]
    for s in big:
        if s.mask not in stars:
            text = f"solution '{run.line(s)}' has {s.size} edges but is not a full hub star"
            raise _Counterexample(text)
    return f"{len(triv)} solutions, max size {triv[-1].size}", 1, {"hub_stars": len(big)}


def _neighbor_closure(run: _GraphRun):
    """Every neighbor is an oracle solution, a minimal CEDS and a tree.  The
    test depends on the target alone, so each target is tested once."""
    g, arcs, oracle, seen = run.g, 0, set(run.solutions), set()
    for src, targets in run.snapshot.arcs.items():
        arcs += len(targets)
        for t in targets:
            if t in seen:
                continue
            seen.add(t)
            if t not in oracle or not (is_minimal_ceds(g, t.mask) and is_tree(g, t.mask)):
                what = "outside the oracle set" if t not in oracle else "not a minimal CEDS tree"
                raise _Counterexample(f"neighbor '{run.line(t)}' of '{run.line(src)}' is {what}")
    return f"{arcs} arcs", arcs, {}


def _move_candidates(run: _GraphRun):
    """Every distinct candidate of every move is a CEDS, the proofs in the
    docstring of ``neighbors._consider`` made executable: the moves
    minimalize their candidates without testing them.  Runs the three move
    types (``neighbors._moves``) on each sampled node and tests every
    candidate in their shared cache.  The cache holds a candidate with a
    cycle as the tree the moves break it to, and a CEDS tree inside a
    candidate makes the candidate a CEDS, so testing the tree covers both."""
    g, nodes = run.g, run.solutions
    if len(nodes) > CANDIDATE_SAMPLE:
        nodes = [nodes[i * len(nodes) // CANDIDATE_SAMPLE] for i in range(CANDIDATE_SAMPLE)]
    count = 0
    for x in nodes:
        cache: dict = {}
        _moves(g, x, cache)
        for cand in cache:
            if not _is_ceds_mask(g, cand):
                raise _Counterexample(
                    f"move candidate '{run.line(Solution(cand))}' of '{run.line(x)}' is not a CEDS"
                )
        count += len(cache)
    return f"{count} candidates", count, {}


def _strong_connectivity(run: _GraphRun):
    pair = _strong_connectivity_witness(run.snapshot)
    if pair is not None:
        raise _Counterexample(f"no path from '{run.line(pair[0])}' to '{run.line(pair[1])}'")
    arcs = sum(map(len, run.snapshot.arcs.values()))
    return f"{len(run.snapshot.nodes)} nodes, {arcs} arcs", 1, {}


def _kbest_prefix_bound(run: _GraphRun):
    """The uncapped best-first order is the oracle set, the seed ratio c is
    at most 2, and every prefix obeys the bound with factor c + 2, so the
    factor-4 form follows.  On a trivial instance the first output is a
    single edge, an exact optimum, so the factor is 1 + 2."""
    order: list[Solution] = []
    enumerate_kbest(run.g, None, order.append, neighbor_cache=run.neighbor_cache)
    run.require_oracle_set(order, "best-first enumeration")
    figures, factor = {}, Fraction(3)
    if not run.trivial:
        ratio = Fraction(approx_min_ceds(run.g).solution.size, run.solutions[0].size)
        if ratio > 2:
            raise _Counterexample(f"seed ratio {ratio} exceeds 2")
        figures, factor = {"seed_ratio": ratio}, ratio + 2
    hit = _kbest_prefix_witness([s.size for s in order], factor)
    if hit is not None:
        raise _Counterexample(f"after k={hit[0]} outputs, max emitted size {hit[1]} "
                              f"> {factor} * smallest remaining size {hit[2]}")
    return f"factor {factor}", 1, figures


def _path_size_bound(run: _GraphRun):
    bad = _path_size_witness(run.g, run.snapshot)
    if bad is not None:
        raise _Counterexample(f"'{run.line(bad)}' unreachable within the size bound")
    return "", 1, {}


def _out_degree_bound(run: _GraphRun):
    """No solution has more neighbors than 8 * n * m * max_degree."""
    g = run.g
    bound = 8 * g.n * g.m * g.max_degree
    widest = max(len(targets) for targets in run.snapshot.arcs.values())
    if widest > bound:
        raise _Counterexample(f"out-degree {widest} exceeds 8*n*m*delta = {bound}")
    return f"widest {widest}, bound {bound}", 1, {"widest": widest, "bound": bound}


# (name, check, instances it runs on: None for all, else whether trivial)
_CHECKS = (
    ("oracle-equivalence", _oracle_equivalence, None),
    ("minimality-agreement", _minimality_agreement, None),
    ("trivial-fast-path", _trivial_fast_path, True),
    ("neighbor-closure", _neighbor_closure, False),
    ("move-candidates", _move_candidates, False),
    ("strong-connectivity", _strong_connectivity, False),
    ("kbest-prefix-bound", _kbest_prefix_bound, None),
    ("path-size-bound", _path_size_bound, False),
    ("out-degree-bound", _out_degree_bound, False),
)


def verify_graph(
    g: Graph, *, line: Callable[[Solution], str] | None = None, max_edges: int = ORACLE_EDGE_CAP
) -> Iterator[CheckResult]:
    """Run every structural check on g against the oracle and yield one
    result per check, in the order of ``_CHECKS``, as each is made.

    The checks share one oracle solution list, one neighbor cache and one
    supergraph snapshot, each timed with the first check that needs it.
    A check that breaks a program assertion gets a FAIL row naming it.
    ``line`` formats the solutions in counterexamples (default
    ``solution_line``, in internal ids).  Raises :class:`TooLargeError`
    above ``max_edges`` edges, on the first ``next`` and before any check.
    """
    _require_scale(g, max_edges)
    run = _GraphRun(g, line or (lambda sol: solution_line(g, sol)), max_edges)
    for name, check, on_trivial in _CHECKS:
        t0 = perf_counter()
        status, figures = PASS, {}
        if on_trivial not in (None, run.trivial):
            status, text, checked = SKIP, ("" if run.trivial else "non-") + "trivial instance", 0
        else:
            try:
                text, checked, figures = check(run)
            except _Counterexample as exc:
                status, text, checked = FAIL, str(exc), 0
            except AssertionError as exc:
                # a self-check of the program fired inside the check
                where = traceback.extract_tb(exc.__traceback__)[-1]
                text = f"assertion failed in {where.name}: {where.line} {exc}".rstrip()
                status, checked = FAIL, 0
        yield CheckResult(name, status, text, checked, perf_counter() - t0, figures)
