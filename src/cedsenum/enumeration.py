"""Traversal of the solution supergraph: full and k-best enumeration.

Both algorithms walk the directed supergraph whose vertices are the minimal
CEDS and whose arcs come from :func:`cedsenum.neighbors.all_neighbors`.
Full enumeration is a FIFO breadth-first search; k-best replaces the queue
with one list kept ascending by (size, canonical key) and stops after k
outputs.  Graphs that admit a single-edge CEDS bypass the supergraph
entirely via the closed-form trivial enumeration.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from collections.abc import Callable
from dataclasses import asdict, dataclass
from fractions import Fraction
from time import perf_counter

from .approx import approx_min_ceds
from .ceds import (
    Solution, enumerate_trivial, is_minimal_ceds, min_ceds_is_singleton, minimalize,
)
from .graph import Graph
from .neighbors import Provenance, all_neighbors

Sink = Callable[[Solution], None]
InsertHook = Callable[[Solution, Provenance], None]


class MaxVisitedExceeded(RuntimeError):
    """The visited-solution guard tripped; enumeration was aborted."""

    def __init__(self, limit: int):
        super().__init__(f"visited-solution limit of {limit} exceeded")
        self.limit = limit


@dataclass
class EnumerationStats:
    """Counters of one run.  The seed fields are set by a k-best run that
    starts from the approximate seed, and stay None otherwise.

    ``peak_visited`` is the size of the visited set at the end, the start
    included, and ``duplicates`` counts the batch items already in it.  A
    k-capped run drops first every item it can no longer pop (see
    :func:`~cedsenum.neighbors.all_neighbors`), so neither counts them,
    and its visited set grows by at most ``k - o`` per expansion, ``o``
    being the solutions out."""

    outputs: int = 0
    expansions: int = 0
    duplicates: int = 0
    max_delay_s: float = 0.0
    mean_delay_s: float = 0.0
    peak_visited: int = 0
    seed_size: int | None = None
    seed_lower_bound: int | None = None
    seed_ratio_bound: Fraction | None = None

    def to_json_dict(self) -> dict:
        """The fields as JSON values, leaving out the seed fields when None;
        the ratio bound becomes a string such as ``"3/2"``."""
        out = {key: value for key, value in asdict(self).items() if value is not None}
        if self.seed_ratio_bound is not None:
            out["seed_ratio_bound"] = str(self.seed_ratio_bound)
        return out


def initial_solution(g: Graph) -> Solution:
    """Minimalize the full edge set; the start node for full enumeration."""
    return minimalize(g, g.all_edges_mask)


def _check_limit(name: str, value: int | None) -> None:
    """Refuse a cap that is neither None nor an int >= 1, before any output:
    TypeError for a non-int (a bool included), ValueError below 1."""
    if value is None:
        return
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")


def _run(
    g: Graph,
    sink: Sink,
    *,
    kbest: bool,
    k: int | None,
    max_visited: int | None,
    neighbor_cache: dict | None,
    on_insert: InsertHook | None,
) -> EnumerationStats:
    """The traversal behind both enumerators.

    With ``k`` set, ``room = k - o`` pops remain once ``o`` solutions are
    out.  The pending list is cut to its ``room`` smallest after every
    batch, the first included, and :func:`all_neighbors` gets ``room`` and
    the list: it reads the bound off the list and drops every batch item
    the run can never pop, and its docstring says why the rule holds.  A
    dropped item is not self-checked, does not enter ``visited``, does not
    reach ``on_insert`` and counts neither against ``max_visited`` nor as
    a duplicate, so at most ``room`` items enter ``visited`` per batch.
    The run pops the same solutions in the same order as one that keeps
    everything: outputs and expansions are those of an untrimmed run,
    while ``on_insert``, ``duplicates`` and ``peak_visited`` see only the
    kept items.

    A run with ``k`` set neither reads nor fills ``neighbor_cache``: a
    bounded batch would not serve a later run.
    """
    stats = EnumerationStats()
    t_last = perf_counter()
    delay_total = 0.0

    def emit(sol: Solution) -> None:
        nonlocal t_last, delay_total
        now = perf_counter()
        delay = now - t_last
        delay_total += delay
        stats.max_delay_s = max(stats.max_delay_s, delay)
        t_last = now
        sink(sol)
        stats.outputs += 1

    def finalize() -> EnumerationStats:
        if stats.outputs:
            stats.mean_delay_s = delay_total / stats.outputs
        return stats

    if min_ceds_is_singleton(g) is not None:
        sols = enumerate_trivial(g)
        if k is not None:
            sols = sols[:k]
        # the closed form records each solution as it is emitted, so the
        # guard trips once N are out and another remains; no visited set
        # is kept, and peak_visited stays 0
        for sol in sols[:max_visited]:
            emit(sol)
            stats.expansions += 1  # each output is produced directly, no batches
        if max_visited is not None and len(sols) > max_visited:
            raise MaxVisitedExceeded(max_visited)
        return finalize()

    if k is not None:
        neighbor_cache = None
    if kbest:
        seed = approx_min_ceds(g)
        start = seed.solution
        stats.seed_size, stats.seed_lower_bound = start.size, seed.lower_bound
        stats.seed_ratio_bound = seed.observed_ratio_bound
    else:
        start = initial_solution(g)
    # every mask enters visited asserted minimal: the start here, and each
    # batch item in all_neighbors, which skips only the masks already in
    # visited; a cached batch was asserted by the run that filled it
    assert is_minimal_ceds(g, start.mask)
    visited = {start.mask}
    # what is left to expand: a FIFO queue, or one ascending list, cut to
    # its k - o smallest when k is set (see all_neighbors)
    if kbest:
        frontier, pop, push = [start], lambda pending: pending.pop(0), insort
    else:
        frontier, pop, push = deque([start]), deque.popleft, deque.append
    while frontier:
        sol = pop(frontier)
        emit(sol)
        if k is not None and stats.outputs >= k:
            break
        room = None if k is None else k - stats.outputs
        stats.expansions += 1
        if neighbor_cache is None:
            items = all_neighbors(g, sol, visited, room=room, pending=frontier).items
        else:
            batch = neighbor_cache.get(sol.mask)
            if batch is None:
                batch = neighbor_cache[sol.mask] = all_neighbors(g, sol, visited)
            items = batch.items
        for nb, prov in items:
            if nb.mask in visited:
                stats.duplicates += 1
                continue
            if max_visited is not None and len(visited) >= max_visited:
                raise MaxVisitedExceeded(max_visited)
            visited.add(nb.mask)
            if on_insert is not None:
                on_insert(nb, prov)
            push(frontier, nb)
        if room is not None:
            del frontier[room:]
    stats.peak_visited = len(visited)
    return finalize()


def enumerate_all(
    g: Graph,
    sink: Sink,
    *,
    max_visited: int | None = None,
    neighbor_cache: dict | None = None,
    on_insert: InsertHook | None = None,
) -> EnumerationStats:
    """Feed every minimal CEDS of g to ``sink`` exactly once.

    Breadth-first from ``initial_solution``; deterministic output order.
    ``neighbor_cache`` (a plain dict keyed by solution mask) lets runs
    without a k cap on the same graph reuse neighbor batches.  Raises
    :class:`MaxVisitedExceeded` when the optional ``max_visited`` guard
    trips; sink errors propagate.  ``max_visited``, when given, must be an
    int >= 1: TypeError otherwise, ValueError below 1, before any output.
    """
    _check_limit("max_visited", max_visited)
    return _run(
        g, sink, kbest=False, k=None, max_visited=max_visited,
        neighbor_cache=neighbor_cache, on_insert=on_insert,
    )


def enumerate_kbest(
    g: Graph,
    k: int | None,
    sink: Sink,
    *,
    max_visited: int | None = None,
    neighbor_cache: dict | None = None,
    on_insert: InsertHook | None = None,
) -> EnumerationStats:
    """Feed up to ``k`` minimal CEDS to ``sink``, best-first from a 2-approximate seed.

    The seed from :func:`~cedsenum.approx.approx_min_ceds` comes out first,
    whatever its size; the traversal then pops the smallest pending
    solution by (size, canonical key), so the output is not sorted by
    size.  What holds is the prefix guarantee checked in the oracle
    module: after every output, the largest size emitted so far is at most
    ``c + 2`` times the smallest solution not yet emitted, where ``c <= 2``
    is the seed's ratio to the optimum.  ``k=None`` removes the output
    cap, which yields exactly the full solution set in best-first order.
    With ``k`` set, ``neighbor_cache`` is ignored: it is neither read nor
    filled.

    ``k`` and ``max_visited``, when given, must be ints >= 1: TypeError
    otherwise, ValueError below 1, before any output.  Memory: the pending
    list never holds more than ``k - o`` entries, ``o`` being the solutions
    out so far.  A solution the run can never pop is dropped unchecked
    (:func:`~cedsenum.neighbors.all_neighbors`): only what the list keeps
    is self-checked, enters the visited set, reaches ``on_insert`` and
    counts against ``max_visited``, so the visited set grows by at most
    ``k - o`` per expansion.
    """
    _check_limit("k", k)
    _check_limit("max_visited", max_visited)
    return _run(
        g, sink, kbest=True, k=k, max_visited=max_visited,
        neighbor_cache=neighbor_cache, on_insert=on_insert,
    )
