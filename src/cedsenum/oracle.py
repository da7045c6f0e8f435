"""Brute-force ground truth and executable forms of the structural claims.

Everything here stays independent of the pendant/private-edge machinery it
is meant to validate: minimality is decided by searching subsets, using
only the definitions of domination and connectivity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .ceds import Solution, is_ceds, min_ceds_is_singleton
from .enumeration import enumerate_kbest, initial_solution
from .graph import EdgeSet, Graph, _bits, _components_masks, _mask_of
from .neighbors import all_neighbors

ORACLE_EDGE_CAP = 40


class TooLargeError(ValueError):
    pass


def _require_scale(g: Graph, max_edges: int) -> None:
    if g.m > max_edges:
        raise TooLargeError(f"graph has m={g.m} edges, above the oracle cap {max_edges}")


def contains_ceds(g: Graph, s: EdgeSet) -> bool:
    """True iff some subset of s is a CEDS.

    Equivalent to: some connected component of G[s] dominates every edge.
    A dominating subset must sit inside one component (it is connected),
    and enlarging it to the whole component keeps it dominating.
    """
    return _contains_ceds_mask(g, _mask_of(s))


def _contains_ceds_mask(g: Graph, mask: int) -> bool:
    return any(g._dominates_all(c) for c in _components_masks(g, mask))


def is_minimal_ceds_definitional(g: Graph, s: EdgeSet) -> bool:
    """Minimality by containment search, no structural shortcuts.

    s is a minimal CEDS iff s contains a CEDS but no single-edge removal
    leaves a set that still contains one (if some proper subset were a
    CEDS, it would survive removing any edge outside it).
    """
    mask = _mask_of(s)
    if not _contains_ceds_mask(g, mask):
        return False
    return all(not _contains_ceds_mask(g, mask ^ (1 << e)) for e in _bits(mask))


def is_minimal_ceds_by_subsets(g: Graph, s: EdgeSet) -> bool:
    """Fully naive minimality: check every proper nonempty subset."""
    mask = _mask_of(s)
    if not is_ceds(g, EdgeSet.from_mask(mask)):
        return False
    sub = (mask - 1) & mask
    while sub:
        if is_ceds(g, EdgeSet.from_mask(sub)):
            return False
        sub = (sub - 1) & mask
    return True


def brute_force_minimal_ceds(g: Graph, *, max_edges: int = ORACLE_EDGE_CAP) -> list[Solution]:
    """All minimal CEDS of g by pruned subset search; sorted by (size, key).

    The recursion decides edge membership in index order.  A branch stops
    as soon as its chosen set contains a CEDS: on the path to a minimal
    solution, no proper prefix subset can contain one, so each minimal
    CEDS is reached exactly once, at the node where chosen equals it.  A
    branch whose chosen set plus all undecided edges contains no CEDS is
    dead and is cut.
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


def brute_force_naive(g: Graph, *, max_edges: int = 14) -> list[Solution]:
    """Unpruned cross-check of the oracle: filter all 2^m subsets."""
    _require_scale(g, max_edges)
    out = [
        Solution(mask)
        for mask in range(1, 1 << g.m)
        if is_minimal_ceds_by_subsets(g, EdgeSet.from_mask(mask))
    ]
    return sorted(out)


# ---------------------------------------------------------------------------
# Supergraph snapshot and structural checks


@dataclass
class SupergraphSnapshot:
    """The explicit supergraph: all solutions plus the neighbor arcs."""

    nodes: list[Solution]
    arcs: dict[Solution, tuple[Solution, ...]]

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def arc_count(self) -> int:
        return sum(len(v) for v in self.arcs.values())

    def to_text(self, g: Graph) -> str:
        from .ceds import solution_line

        lines = []
        for sol in self.nodes:
            targets = " | ".join(solution_line(g, t) for t in self.arcs[sol])
            lines.append(f"{solution_line(g, sol)} -> {targets}\n")
        return "".join(lines)


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
    callers that already hold the oracle output skip recomputing it.
    """
    _require_scale(g, max_edges)
    if min_ceds_is_singleton(g) is not None:
        raise ValueError("trivial instance: the supergraph is not used")
    nodes = brute_force_minimal_ceds(g, max_edges=max_edges) if solutions is None else list(solutions)
    known = set(nodes)
    arcs: dict[Solution, tuple[Solution, ...]] = {}
    for sol in nodes:
        batch = None if neighbor_cache is None else neighbor_cache.get(sol.mask)
        if batch is None:
            batch = all_neighbors(g, sol)
            if neighbor_cache is not None:
                neighbor_cache[sol.mask] = batch
        targets = tuple(nb for nb, _ in batch.items)
        assert known.issuperset(targets), "neighbor outside the oracle solution set"
        arcs[sol] = targets
    return SupergraphSnapshot(nodes, arcs)


def _reach(
    start: Solution,
    adj: dict[Solution, tuple[Solution, ...]],
    allowed: set[Solution] | None = None,
) -> set[Solution]:
    seen = {start}
    stack = [start]
    while stack:
        k = stack.pop()
        for t in adj.get(k, ()):
            if t not in seen and (allowed is None or t in allowed):
                seen.add(t)
                stack.append(t)
    return seen


def _strong_connectivity_witness(
    s: SupergraphSnapshot,
) -> tuple[Solution, Solution] | None:
    """None if strongly connected, else a pair (from, to) with no path."""
    if s.node_count <= 1:
        return None
    root = s.nodes[0]
    fwd = _reach(root, s.arcs)
    for sol in s.nodes:
        if sol not in fwd:
            return (root, sol)
    reverse: dict[Solution, list[Solution]] = {}
    for src, targets in s.arcs.items():
        for t in targets:
            reverse.setdefault(t, []).append(src)
    bwd = _reach(root, {k: tuple(v) for k, v in reverse.items()})
    for sol in s.nodes:
        if sol not in bwd:
            return (sol, root)
    return None


def check_strong_connectivity(s: SupergraphSnapshot) -> bool:
    """True iff every node reaches every other node."""
    return _strong_connectivity_witness(s) is None


def _kbest_prefix_witness(
    g: Graph,
    factor: Fraction | int,
    *,
    solutions: list[Solution] | None = None,
    neighbor_cache: dict | None = None,
    max_edges: int = ORACLE_EDGE_CAP,
) -> tuple[int, int, int] | None:
    """None if every prefix obeys the bound, else (k, max emitted, min left).

    Uses one uncapped best-first run: stopping the deterministic traversal
    after k outputs emits exactly the first k entries of that run (the
    prefix property, tested separately), and the run emits the full
    solution set, so the sizes left after k outputs are those of the tail.
    """
    if solutions is None:
        solutions = brute_force_minimal_ceds(g, max_edges=max_edges)
    order: list[Solution] = []
    enumerate_kbest(g, None, order.append, neighbor_cache=neighbor_cache)
    if set(order) != set(solutions):
        raise AssertionError("best-first enumeration does not match the oracle set")
    sizes = [s.size for s in order]
    running_max = 0
    suffix_min = [0] * (len(sizes) + 1)
    suffix_min[len(sizes)] = 0
    for i in range(len(sizes) - 1, -1, -1):
        suffix_min[i] = sizes[i] if i == len(sizes) - 1 else min(sizes[i], suffix_min[i + 1])
    for k in range(1, len(sizes)):
        running_max = max(running_max, sizes[k - 1])
        if running_max > factor * suffix_min[k]:
            return (k, running_max, suffix_min[k])
    return None


def check_kbest_prefix_bound(
    g: Graph,
    factor: Fraction | int,
    *,
    solutions: list[Solution] | None = None,
    neighbor_cache: dict | None = None,
    max_edges: int = ORACLE_EDGE_CAP,
) -> bool:
    """For every k: the largest size among the first k best-first outputs
    is at most factor times the smallest size among solutions not yet
    emitted (vacuous once everything is out)."""
    if solutions is None:
        _require_scale(g, max_edges)
    return (
        _kbest_prefix_witness(
            g, factor, solutions=solutions, neighbor_cache=neighbor_cache, max_edges=max_edges
        )
        is None
    )


def _path_size_witness(
    g: Graph,
    *,
    snapshot: SupergraphSnapshot | None = None,
    neighbor_cache: dict | None = None,
    max_edges: int = ORACLE_EDGE_CAP,
) -> Solution | None:
    """None if the bounded-size reachability claim holds, else a witness Y.

    Claim: from X = initial_solution(g), every solution Y is reachable
    through solutions of size at most |X| + 2|Y|.
    """
    if snapshot is None:
        snapshot = build_supergraph(g, max_edges=max_edges, neighbor_cache=neighbor_cache)
    x = initial_solution(g)
    assert x in snapshot.arcs
    by_size: dict[int, list[Solution]] = {}
    for sol in snapshot.nodes:
        by_size.setdefault(sol.size, []).append(sol)
    for t, sols in sorted(by_size.items()):
        bound = x.size + 2 * t
        allowed = {s for s in snapshot.nodes if s.size <= bound}
        if x not in allowed:
            return sols[0]  # X itself violates the bound; cannot even start
        reached = _reach(x, snapshot.arcs, allowed)
        for y in sols:
            if y not in reached:
                return y
    return None


def check_path_size_bound(
    g: Graph,
    *,
    snapshot: SupergraphSnapshot | None = None,
    neighbor_cache: dict | None = None,
    max_edges: int = ORACLE_EDGE_CAP,
) -> bool:
    return (
        _path_size_witness(
            g, snapshot=snapshot, neighbor_cache=neighbor_cache, max_edges=max_edges
        )
        is None
    )
