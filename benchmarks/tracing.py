"""Per-layer spans and counters, installed from outside the program.

The tracer rebinds module and class attributes of an imported ``cedsenum``
package to wrappers that time each call and count it.  Spans nest: a
layer's self time is its own duration minus the time of the spans it
called.  Spans are aggregated per layer name as they close (self seconds,
inclusive seconds, calls), so memory stays constant however many calls a
run makes.  Nothing under ``src/`` is modified; :meth:`Tracer.remove`
restores every original binding.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# Graph helpers and where the program looks them up.  Helpers called from
# inside graph.py itself are not rebound, so they count as their caller's
# self time.
GRAPH_HELPERS = {
    "_is_connected_mask": "graph.is_connected",
    "_spanning_tree_mask": "graph.spanning_tree",
    "_pendant_items": "graph.pendant_items",
    "_components_masks": "graph.components",
    "_vertices_mask": "graph.vertices_mask",
}
HELPER_BINDERS = ("ceds", "neighbors", "oracle")

SPAN_NAMES = (
    "corpus.gen",
    "graph.from_edge_list",
    "graph.vc_table",
    "graph.dominates_all",
    *GRAPH_HELPERS.values(),
    "ceds.minimalize",
    "ceds.is_ceds",
    "ceds.self_check",
    "ceds.trivial",
    "ceds.solution_line",
    "neighbors.all",
    "neighbors.type1",
    "neighbors.type2",
    "neighbors.type3",
    "enumeration.run",
    "enumeration.sink",
    "approx.seed",
    "oracle.brute_force",
    "oracle.contains_ceds",
    "oracle.compare",
)

_CANDIDATE_KIND = {"TypeI": "type1", "TypeII": "type2", "TypeIII": "type3"}


class Tracer:
    """Span and count wrappers over one imported ``cedsenum`` package."""

    def __init__(self, pkg) -> None:
        self.pkg = pkg
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.seed_sizes: list[int] = []
        self.lower_bounds: list[int] = []
        self._stack = [0.0]  # child seconds accumulated by each open span
        self._patches: list[tuple[object, str, object, object]] = []
        self._plan()

    # -- wrappers ---------------------------------------------------------

    def span(self, name: str, fn, after=None):
        """Wrap ``fn`` so each call is recorded as a span called ``name``;
        ``after(args, result)`` runs once the span has closed."""
        self_s, total_s, calls, stack = self.self_s, self.total_s, self.calls, self._stack

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                stack[-1] += dt
                self_s[name] += dt - child
                total_s[name] += dt
                calls[name] += 1
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def record(self, name: str, seconds: float) -> None:
        """Book a span timed by the benchmark itself, outside any other span."""
        self.self_s[name] += seconds
        self.total_s[name] += seconds
        self.calls[name] += 1

    def _plan(self) -> None:
        pkg, counts = self.pkg, self.counts
        graph_cls = pkg.graph.Graph
        plan = [
            (pkg.corpus, "random_connected_graph", "corpus.gen", None),
            (pkg.corpus, "tiny_corpus", "corpus.gen", None),
            (pkg.corpus, "random_corpus", "corpus.gen", None),
            (graph_cls, "_dominates_all", "graph.dominates_all", None),
            (graph_cls, "_build_vc_table", "graph.vc_table", None),
            (pkg.ceds, "_minimalize_mask", "ceds.minimalize", None),
            (pkg.ceds, "solution_line", "ceds.solution_line", None),
            (pkg.neighbors, "_minimalize_mask", "ceds.minimalize", None),
            (pkg.neighbors, "_is_ceds_mask", "ceds.is_ceds", self._after_is_ceds),
            (pkg.neighbors, "is_minimal_ceds", "ceds.self_check", None),
            (pkg.neighbors, "type1_neighbors", "neighbors.type1", None),
            (pkg.neighbors, "type2_neighbors", "neighbors.type2", None),
            (pkg.neighbors, "type3_neighbor", "neighbors.type3", None),
            (pkg.enumeration, "all_neighbors", "neighbors.all", self._after_batch),
            (pkg.enumeration, "approx_min_ceds", "approx.seed", self._after_seed),
            (pkg.enumeration, "min_ceds_is_singleton", "ceds.trivial", None),
            (pkg.enumeration, "enumerate_trivial", "ceds.trivial", None),
            (pkg.enumeration, "enumerate_all", "enumeration.run", None),
            (pkg.enumeration, "enumerate_kbest", "enumeration.run", None),
            (pkg.oracle, "brute_force_minimal_ceds", "oracle.brute_force", None),
            (pkg.oracle, "_contains_ceds_mask", "oracle.contains_ceds", None),
        ]
        for module_name in HELPER_BINDERS:
            module = getattr(pkg, module_name)
            for attr, name in GRAPH_HELPERS.items():
                if hasattr(module, attr):
                    plan.append((module, attr, name, None))
        for owner, attr, name, after in plan:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._patches.append((owner, attr, original, self.span(name, original, after)))

        raw_from_edge_list = graph_cls.__dict__["from_edge_list"]
        self._patches.append((
            graph_cls, "from_edge_list", raw_from_edge_list,
            classmethod(self.span("graph.from_edge_list", raw_from_edge_list.__func__)),
        ))

        consider = pkg.neighbors._consider

        def counted_consider(g, cand, prov, out, cache):
            counts["neighbors.candidates." + _CANDIDATE_KIND[type(prov).__name__]] += 1
            if cand in cache:
                counts["neighbors.cache_hits"] += 1
            return consider(g, cand, prov, out, cache)

        self._patches.append((pkg.neighbors, "_consider", consider, counted_consider))

    def _after_is_ceds(self, args, result) -> None:
        if not result:
            self.counts["ceds.is_ceds.rejects"] += 1

    def _after_batch(self, args, batch) -> None:
        self.counts["neighbors.batch_items"] += len(batch.items)

    def _after_seed(self, args, report) -> None:
        self.seed_sizes.append(report.solution.size)
        self.lower_bounds.append(report.lower_bound)

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    @contextmanager
    def paused(self):
        """Original bindings for the duration, e.g. while outputs are checked."""
        self.remove()
        try:
            yield
        finally:
            self.install()
