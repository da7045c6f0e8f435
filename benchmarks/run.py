"""Benchmark of cedsenum: full enumeration, k-best enumeration and the oracle sweep.

    python3 benchmarks/run.py --workload enum_n14 --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py                  # every workload, each in its own process

Each workload drives the public API of ``corpus``, ``graph``,
``enumeration``, ``approx`` and ``oracle`` from one process and one thread,
on fixed problem instances.  ``--seed`` picks a random relabelling of the
vertices of every instance, and for the workloads in ``RENUMBERED`` also a
random order of the endpoints and lines; the program only sees that
edge-list text.  Units of work run until
``--seconds`` is used up (at least one runs).  Every output is checked
outside the timed region, and every returned ``EnumerationStats`` is
cross-checked against what the sink and the insert hook saw.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones, recorded by ``tracing.Tracer``.  The lines before it print
each metric with its unit and sample count.  README.md in this directory
defines every metric.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from tracing import SPAN_NAMES, Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
GOLDEN = HERE / "golden.json"

clock = time.perf_counter

ENUM_INSTANCE = (14, 0.3, 3)  # random_connected_graph(n, p, seed): m=23, 2,864 solutions
KBEST_INSTANCE = (30, 0.15, 5)  # m=68: far too many solutions to enumerate in full
KBEST_K = 100
SWEEP_RANDOM = (20, 1105)  # random_corpus(count, base_seed): first 20 graphs of the tier-1 corpus
SETUP_REPEATS = 11

# Reported times are in reference seconds: wall seconds scaled by how fast a
# fixed interpreter workload (one calibration slice) ran at that moment.
# The shared 2-core machine this was tuned on drifts by +-15% over minutes,
# and the slices drift with it (see README.md).
CALIBRATION_REF_S = 0.0018  # a slice's duration at reference speed
CALIBRATION_INTERVAL_S = 0.2
CALIBRATION_WINDOW = 9  # slices in the running median
CHILD_TIMEOUT_S = 600

# name: (unit, better, bound as a share of the parent's median)
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "solutions_per_s": ("1/s", "higher", 0.25),
    "graphs_per_s": ("1/s", "higher", 0.25),
    "delay_p50_ms": ("ms", "lower", 0.25),
    "delay_p90_ms": ("ms", "lower", 0.25),
    "delay_p99_ms": ("ms", "lower", 0.25),
    "kbest_mean_size": ("edges", "lower", 0.05),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

# name: (unit, better).  Times and counts are per traced unit.
PER_LAYER = {
    **{
        f"{span}.{suffix}": (unit, "lower")
        for span in SPAN_NAMES
        for suffix, unit in (("self_s" if span == "enumeration.run" else "s", "s"),
                             ("calls", "count"))
    },
    "ceds.is_ceds.rejects": ("count", "lower"),
    "ceds.self_check.share": ("ratio", "lower"),
    "neighbors.candidates.type1": ("count", "lower"),
    "neighbors.candidates.type2": ("count", "lower"),
    "neighbors.candidates.type3": ("count", "lower"),
    "neighbors.cache_hits": ("count", "higher"),
    "neighbors.unique_ratio": ("ratio", "higher"),
    "neighbors.batch_mean": ("count", "lower"),
    "enumeration.expansions": ("count", "lower"),
    "enumeration.duplicates": ("count", "lower"),
    "enumeration.dup_ratio": ("ratio", "lower"),
    "enumeration.peak_visited": ("count", "lower"),
    "enumeration.peak_frontier": ("count", "lower"),
    "enumeration.rss_growth_mb": ("MB", "lower"),
    "approx.seed_size": ("edges", "lower"),
    "approx.lower_bound": ("edges", "higher"),
    "trace.overhead": ("ratio", "lower"),
}


def load_program():
    """Import cedsenum afresh from this checkout's ``src/``."""
    for name in [n for n in sys.modules if n == "cedsenum" or n.startswith("cedsenum.")]:
        del sys.modules[name]
    pkg = importlib.import_module("cedsenum")
    importlib.import_module("cedsenum.corpus")
    where = Path(pkg.__file__).resolve().parent
    if where != SRC / "cedsenum":
        raise ImportError(f"cedsenum was imported from {where}, not from {SRC}")
    return pkg


# ---------------------------------------------------------------------------
# Inputs: fixed instances, presented under a seeded relabelling


def present(g, rng: random.Random, renumber: bool) -> tuple[str, dict[int, int]]:
    """Edge-list text of ``g`` with its vertices relabelled, and the map from
    the new labels back to the vertices of ``g``.

    With ``renumber`` the endpoints and lines are also shuffled, so the
    parsed graph numbers its vertices and edges differently from ``g``.
    Without it they keep their order, and the parsed graph numbers them as
    ``g`` does: only the label values in the text differ.
    """
    perm = list(range(g.n))
    rng.shuffle(perm)
    pairs = [(perm[u], perm[v]) for u, v in g.edges]
    if renumber:
        pairs = [(a, b) if rng.random() < 0.5 else (b, a) for a, b in pairs]
        rng.shuffle(pairs)
    return "".join(f"{a} {b}\n" for a, b in pairs), {label: v for v, label in enumerate(perm)}


def presentations(workload: str, bases, seed: int, unit: int) -> list[tuple[str, dict[int, int]]]:
    rng = random.Random(seed * 1_000_003 + unit)
    return [present(b, rng, workload in RENUMBERED) for b in bases]


def parse(pkg, text: str, back: dict[int, int]):
    """Parse edge-list text as the CLI does.  Also returns, for each vertex
    of the parsed graph, the vertex of the base instance it stands for."""
    g = pkg.graph.Graph.from_edge_list(pkg.graph.parse_edge_list(text))
    return g, [back[label] for label in g.labels]


def base_form(line: str, to_base: list[int]) -> str:
    """A solution line rewritten over the base instance's vertices, sorted."""
    pairs = []
    for token in line.split():
        a, b = token.split("-")
        u, v = to_base[int(a)], to_base[int(b)]
        pairs.append((u, v) if u < v else (v, u))
    return " ".join(f"{u}-{v}" for u, v in sorted(pairs))


def digest(forms: list[str]) -> str:
    return hashlib.sha256("\n".join(sorted(forms)).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Reference seconds, and observing one enumeration call


def _calibration_work() -> int:
    table = {}
    for i in range(6000):
        table[i * 7919 % 4099, i & 7] = i
    total = 0
    for key, value in table.items():
        total += key[0] ^ value
    return total


class Calibration:
    """Scale from wall seconds to reference seconds, kept current by
    calibration slices run between units of work and inside the sink."""

    def __init__(self, interval: float = CALIBRATION_INTERVAL_S) -> None:
        self.interval = interval
        self.recent: deque[float] = deque(maxlen=CALIBRATION_WINDOW)
        self.slices: list[float] = []
        self.due = 0.0
        self.factor = 1.0
        for _ in range(3):
            self.slice()

    def slice(self) -> float:
        """Run one slice now; return the wall seconds it took."""
        # The slice's tuples are all freed before it returns, so with the
        # collector paused it leaves the program's collection schedule as
        # it found it, and it never pays for collecting the program's heap.
        enabled = gc.isenabled()
        gc.disable()
        t0 = clock()
        _calibration_work()
        t1 = clock()
        if enabled:
            gc.enable()
        self.recent.append(t1 - t0)
        self.slices.append(t1 - t0)
        self.factor = CALIBRATION_REF_S / statistics.median(self.recent)
        self.due = t1 + self.interval
        return clock() - t0

    def due_slice(self) -> float:
        """Run a slice if one is due; return the wall seconds spent."""
        return self.slice() if clock() >= self.due else 0.0


class Observer:
    """Sink and insert hook of one enumeration call; timestamps each output
    and keeps delays in reference seconds, calibration time left out."""

    def __init__(self, keep, cal: Calibration) -> None:
        self.keep = keep
        self.cal = cal
        self.items: list = []
        self.delays: list[float] = []
        self.inserts = 0
        self.peak_frontier = 0
        self.last = 0.0

    def sink(self, sol) -> None:
        now = clock()
        self.delays.append((now - self.last) * self.cal.factor)
        self.last = now
        self.items.append(self.keep(sol))
        self.last += self.cal.due_slice()

    def on_insert(self, sol, prov) -> None:
        # the start solution is queued without a hook call, hence the 1
        self.inserts += 1
        frontier = 1 + self.inserts - len(self.items)
        if frontier > self.peak_frontier:
            self.peak_frontier = frontier


@dataclass
class Record:
    """What one run measured, summed over its units."""

    setup_s: list[float] = field(default_factory=list)
    delays: list[float] = field(default_factory=list)
    calls: int = 0
    outputs: int = 0
    size_sum: int = 0
    enum_s: float = 0.0
    graphs: int = 0
    work_s: float = 0.0
    units: int = 0
    attempted: int = 0
    failed: int = 0
    expansions: int = 0
    duplicates: int = 0
    inserts: int = 0
    peak_visited: int = 0
    peak_frontier: int = 0

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"FAILED: {what}", file=sys.stderr, flush=True)


@dataclass
class Context:
    pkg: object
    rec: Record
    cal: Calibration
    tracer: Tracer | None = None

    def untraced(self):
        return self.tracer.paused() if self.tracer is not None else nullcontext()


def observe(ctx: Context, g, call, keep, *, k: int | None = None):
    """Run ``call(g, sink, on_insert)`` once and return (outputs, seconds),
    seconds being reference seconds.

    Outputs are None when the call raised or when the returned stats
    disagree with what the sink and the hook saw; the failure is recorded.
    """
    rec, tracer = ctx.rec, ctx.tracer
    obs = Observer(keep, ctx.cal)
    sink, hook = obs.sink, obs.on_insert
    if tracer is not None:
        sink = tracer.span("enumeration.sink", sink)
        hook = tracer.span("enumeration.sink", hook)
        batch_items0 = tracer.counts["neighbors.batch_items"]
    obs.last = t0 = clock()
    try:
        stats = call(g, sink, hook)
    except Exception:
        traceback.print_exc()
        rec.fail("enumeration call raised")
        return None, 0.0
    seconds = sum(obs.delays) + (clock() - obs.last) * ctx.cal.factor
    ctx.cal.due_slice()
    rec.calls += 1
    rec.enum_s += seconds
    rec.outputs += len(obs.items)
    rec.delays.extend(obs.delays)
    rec.expansions += stats.expansions
    rec.duplicates += stats.duplicates
    rec.inserts += obs.inserts
    rec.peak_visited = max(rec.peak_visited, stats.peak_visited)
    rec.peak_frontier = max(rec.peak_frontier, obs.peak_frontier)

    with ctx.untraced():
        trivial = ctx.pkg.ceds.min_ceds_is_singleton(g) is not None
    outputs = len(obs.items)
    cut = k is not None and outputs >= k and not trivial  # the k-th output is not expanded
    expected = {
        "outputs": outputs,
        "expansions": outputs - 1 if cut else outputs,
        "peak_visited": 0 if trivial else obs.inserts + 1,
    }
    if tracer is not None:
        expected["duplicates"] = (
            tracer.counts["neighbors.batch_items"] - batch_items0 - obs.inserts
        )
    wrong = {
        key: (getattr(stats, key), want)
        for key, want in expected.items()
        if getattr(stats, key) != want
    }
    left = obs.inserts if trivial else 1 + obs.inserts - outputs  # still queued at the end
    if left < 0 or (k is None and left != 0):
        wrong["frontier_at_end"] = (left, 0)
    if stats.duplicates < 0:
        wrong["duplicates"] = (stats.duplicates, ">= 0")
    if wrong:
        rec.fail(f"EnumerationStats disagree with what was observed (returned, observed): {wrong}")
        return None, seconds
    return obs.items, seconds


# ---------------------------------------------------------------------------
# Workloads.  A unit does the work for one presentation of the instances.


def enum_bases(pkg):
    return [pkg.corpus.random_connected_graph(*ENUM_INSTANCE)]


def kbest_bases(pkg):
    return [pkg.corpus.random_connected_graph(*KBEST_INSTANCE)]


def sweep_bases(pkg):
    return pkg.corpus.tiny_corpus() + pkg.corpus.random_corpus(*SWEEP_RANDOM)


def enum_unit(ctx: Context, inputs) -> None:
    """Full enumeration; each solution is formatted in the sink, as the CLI does."""
    ((g, to_base),) = inputs
    pkg, rec = ctx.pkg, ctx.rec
    rec.attempted += 1
    lines, seconds = observe(
        ctx, g,
        lambda g, sink, hook: pkg.enumeration.enumerate_all(g, sink, on_insert=hook),
        lambda sol: pkg.ceds.solution_line(g, sol),
    )
    if lines is None:
        return
    rec.graphs += 1
    rec.work_s += seconds
    rec.size_sum += sum(len(line.split()) for line in lines)
    golden = json.loads(GOLDEN.read_text())
    forms = [base_form(line, to_base) for line in lines]
    if len(forms) != golden["solutions"] or digest(forms) != golden["sha256"]:
        rec.fail(
            f"enumerate_all gave {len(forms)} solutions with digest {digest(forms)}; "
            f"the oracle gave {golden['solutions']} with {golden['sha256']}"
        )


def kbest_unit(ctx: Context, inputs) -> None:
    """k-best enumeration; the outputs must be k distinct minimal CEDS."""
    ((g, _),) = inputs
    pkg, rec = ctx.pkg, ctx.rec
    rec.attempted += 1
    lines, seconds = observe(
        ctx, g,
        lambda g, sink, hook: pkg.enumeration.enumerate_kbest(g, KBEST_K, sink, on_insert=hook),
        lambda sol: pkg.ceds.solution_line(g, sol),
        k=KBEST_K,
    )
    if lines is None:
        return
    rec.graphs += 1
    rec.work_s += seconds
    rec.size_sum += sum(len(line.split()) for line in lines)
    with ctx.untraced():
        not_minimal = sum(
            not pkg.oracle.is_minimal_ceds_definitional(g, pkg.ceds.parse_solution_line(g, line))
            for line in lines
        )
    if len(lines) != KBEST_K or len(set(lines)) != len(lines) or not_minimal:
        rec.fail(
            f"enumerate_kbest gave {len(lines)} outputs, {len(set(lines))} distinct, "
            f"{not_minimal} not minimal by the definitional oracle"
        )


def sweep_unit(ctx: Context, inputs) -> None:
    """Oracle against enumerator, graph by graph, as tier-1 criterion 1 does."""
    pkg, rec = ctx.pkg, ctx.rec
    for g, _ in inputs:
        rec.attempted += 1
        ctx.cal.due_slice()
        t0 = clock()
        try:
            expected = pkg.oracle.brute_force_minimal_ceds(g)
        except Exception:
            traceback.print_exc()
            rec.fail("brute_force_minimal_ceds raised")
            continue
        oracle_s = (clock() - t0) * ctx.cal.factor
        found, enum_s = observe(
            ctx, g,
            lambda g, sink, hook: pkg.enumeration.enumerate_all(g, sink, on_insert=hook),
            lambda sol: sol,
        )
        if found is None:
            continue
        t1 = clock()
        same = len(found) == len(expected) and (
            {s.canonical_key for s in found} == {s.canonical_key for s in expected}
        )
        t2 = clock()
        if ctx.tracer is not None:
            ctx.tracer.record("oracle.compare", t2 - t1)
        rec.graphs += 1
        rec.work_s += oracle_s + enum_s + (t2 - t1) * ctx.cal.factor
        rec.size_sum += sum(s.size for s in found)
        if not same:
            rec.fail(f"enumerate_all and the oracle disagree on {g!r}")


WORKLOADS = {
    "enum_n14": (enum_bases, enum_unit),
    "kbest_n30": (kbest_bases, kbest_unit),
    "oracle_sweep": (sweep_bases, sweep_unit),
}
# Workloads whose seed also renumbers the instances.  The cost of a full
# enumeration barely depends on the numbering (+-2%), and the golden check
# then covers every numbering.  Elsewhere the cost does depend on it: the
# tie-breaks of the best-first order pick which solutions get expanded
# (+-15% for 100 k-best outputs), and the oracle's pruning follows the edge
# order of the largest sweep graphs.
RENUMBERED = {"enum_n14"}


# ---------------------------------------------------------------------------
# Runs


def set_up(workload: str, seed: int, cal: Calibration):
    """Import, generate and parse; the relabelling itself is not timed.
    Returns the set-up time in reference seconds."""
    gc.collect()  # garbage of an earlier set-up is not this one's cost
    cal.slice()
    t0 = clock()
    pkg = load_program()
    bases = WORKLOADS[workload][0](pkg)
    t1 = clock()
    texts = presentations(workload, bases, seed, 0)
    t2 = clock()
    inputs = [parse(pkg, text, back) for text, back in texts]
    t3 = clock()
    return pkg, bases, inputs, ((t1 - t0) + (t3 - t2)) * cal.factor


def run_units(ctx: Context, unit_fn, inputs_of, seconds: float, first: int = 0) -> int:
    """Run units ``first, first+1, ...`` while the mean unit so far still
    fits in ``seconds``; at least one runs.  Returns how many ran."""
    start = clock()
    units = 0
    while True:
        unit_fn(ctx, inputs_of(first + units))
        units += 1
        used = clock() - start
        if used + used / units > seconds:
            return units


def percentile(ascending: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return ascending[max(0, -(-round(q * 100) * len(ascending) // 100) - 1)]


def ratio(a: float, b: float) -> float:
    """a / b, or 0 when nothing was measured (every call failed)."""
    return a / b if b else 0.0


def end_to_end(rec: Record) -> dict[str, tuple[float, int]]:
    """(value, sample count) for each end-to-end metric."""
    delays = sorted(rec.delays) or [0.0]
    n = len(rec.delays)
    return {
        "setup_s": (statistics.median(rec.setup_s), len(rec.setup_s)),
        "solutions_per_s": (ratio(rec.outputs, rec.enum_s), rec.calls),
        "graphs_per_s": (ratio(rec.graphs, rec.work_s), rec.graphs),
        "delay_p50_ms": (percentile(delays, 0.50) * 1e3, n),
        "delay_p90_ms": (percentile(delays, 0.90) * 1e3, n),
        "delay_p99_ms": (percentile(delays, 0.99) * 1e3, n),
        "kbest_mean_size": (ratio(rec.size_sum, rec.outputs), rec.outputs),
        "peak_rss_mb": (max_rss_mb(), 1),
    }


def measure(workload: str, seed: int, seconds: float) -> tuple[Record, dict, Calibration]:
    """Untraced run: set-up repeated, then units for ``seconds``."""
    bases_of, unit_fn = WORKLOADS[workload]
    rec = Record()
    cal = Calibration()
    for _ in range(SETUP_REPEATS):
        pkg, bases, inputs, setup_s = set_up(workload, seed, cal)
        rec.setup_s.append(setup_s)

    def inputs_of(unit: int):
        if unit == 0:
            return inputs
        return [parse(pkg, text, back) for text, back in presentations(workload, bases, seed, unit)]

    rec.units = run_units(Context(pkg, rec, cal), unit_fn, inputs_of, seconds)
    return rec, end_to_end(rec), cal


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def per_layer(workload: str, seed: int, seconds: float) -> tuple[Record, dict, Calibration]:
    """Traced run: unit 0 untraced twice, then traced units for ``seconds``.
    The first untraced unit grows the heap, which the peak-RSS growth
    reports; the second is the reference for the tracing overhead.  A traced
    unit also generates and parses its own input; every value is per traced
    unit."""
    bases_of, unit_fn = WORKLOADS[workload]
    # no slices during the units: they would land inside the sink's span
    pkg, _, inputs, _ = set_up(workload, seed, Calibration(math.inf))
    untraced = Record()
    rss0 = max_rss_mb()
    unit_fn(Context(pkg, untraced, Calibration(math.inf)), inputs)
    rss_growth = max_rss_mb() - rss0
    reference = Record()
    unit_fn(Context(pkg, reference, Calibration(math.inf)), inputs)

    def inputs_of(unit: int):
        bases = bases_of(pkg)
        return [parse(pkg, text, back) for text, back in presentations(workload, bases, seed, unit)]

    rec = Record()
    tracer = Tracer(pkg)
    cal = Calibration(math.inf)
    ctx = Context(pkg, rec, cal, tracer)
    tracer.install()
    try:
        t0 = clock()
        unit_fn(ctx, inputs_of(0))
        first_s = clock() - t0
        overhead = ratio(rec.work_s, reference.work_s)
        rec.units = 1
        if 2 * first_s <= seconds:
            rec.units += run_units(ctx, unit_fn, inputs_of, seconds - first_s, first=1)
    finally:
        tracer.remove()
    rec.failed += untraced.failed + reference.failed
    rec.attempted += untraced.attempted + reference.attempted
    return rec, layer_metrics(tracer, rec, overhead, rss_growth), cal


def layer_metrics(tracer: Tracer, rec: Record, overhead: float, rss_growth_mb: float) -> dict:
    units = rec.units
    counts = tracer.counts
    out = {}
    for span in SPAN_NAMES:
        seconds_key = f"{span}.self_s" if span == "enumeration.run" else f"{span}.s"
        out[seconds_key] = (tracer.self_s[span] / units, units)
        out[f"{span}.calls"] = (tracer.calls[span] / units, units)
    candidates = sum(counts[f"neighbors.candidates.type{i}"] for i in (1, 2, 3))
    batch_items = counts["neighbors.batch_items"]
    batches = tracer.calls["neighbors.all"]
    seeds = len(tracer.seed_sizes)
    out.update({
        "ceds.is_ceds.rejects": (counts["ceds.is_ceds.rejects"] / units, units),
        "ceds.self_check.share": (ratio(tracer.total_s["ceds.self_check"], tracer.total_s["enumeration.run"]), rec.calls),
        **{
            f"neighbors.candidates.type{i}": (counts[f"neighbors.candidates.type{i}"] / units, units)
            for i in (1, 2, 3)
        },
        "neighbors.cache_hits": (counts["neighbors.cache_hits"] / units, units),
        "neighbors.unique_ratio": (ratio(batch_items, candidates), candidates),
        "neighbors.batch_mean": (ratio(batch_items, batches), batches),
        "enumeration.expansions": (rec.expansions / units, units),
        "enumeration.duplicates": (rec.duplicates / units, units),
        "enumeration.dup_ratio": (ratio(rec.duplicates, rec.duplicates + rec.inserts), rec.calls),
        "enumeration.peak_visited": (rec.peak_visited, rec.calls),
        "enumeration.peak_frontier": (rec.peak_frontier, rec.calls),
        "enumeration.rss_growth_mb": (rss_growth_mb, 1),
        "approx.seed_size": (ratio(sum(tracer.seed_sizes), seeds), seeds),
        "approx.lower_bound": (ratio(sum(tracer.lower_bounds), seeds), seeds),
        "trace.overhead": (overhead, 1),
    })
    return out


# ---------------------------------------------------------------------------
# Command line


def report(args, rec: Record, metrics: dict, cal: Calibration, table: dict) -> None:
    run_info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "units": rec.units,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "instances": {
            "enum_n14": f"random_connected_graph{ENUM_INSTANCE}",
            "kbest_n30": f"random_connected_graph{KBEST_INSTANCE}, k={KBEST_K}",
            "oracle_sweep": f"tiny_corpus() + random_corpus{SWEEP_RANDOM}",
        }[args.workload],
        "calibration": {
            "slices": len(cal.slices),
            "median_slice_s": statistics.median(cal.slices),
            "reference_slice_s": CALIBRATION_REF_S,
        },
    }
    print("run " + json.dumps(run_info))
    for name, (value, samples) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {table[name][0]:6s} samples={samples}")
    error_rate = rec.failed / rec.attempted if rec.attempted else 1.0
    print(f"  {'error_rate':34s} {error_rate:14.6g} {'':6s} failed={rec.failed} attempted={rec.attempted}")
    print(json.dumps({
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {
            name: {"value": value, "unit": table[name][0]} for name, (value, _) in metrics.items()
        },
    }), flush=True)


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"{workload}: timed out after {CHILD_TIMEOUT_S} s", file=sys.stderr)
            status = 1
            continue
        print(proc.stdout, end="", flush=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines or not json.loads(lines[-1]).get("correct"):
            status = 1
    return status


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if sys.flags.optimize:
        print("refusing to run under python -O: the self-check assert in all_neighbors "
              "is part of the program under test", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    try:
        load_program()  # also compiles the modules once, outside the timed set-up
        GOLDEN.read_text()
    except (ImportError, OSError) as exc:
        print(f"cannot load the program under test: {exc}", file=sys.stderr)
        return 2
    if args.trace:
        rec, metrics, cal = per_layer(args.workload, args.seed, args.seconds)
        report(args, rec, metrics, cal, PER_LAYER)
    else:
        rec, metrics, cal = measure(args.workload, args.seed, args.seconds)
        report(args, rec, metrics, cal, END_TO_END)
    return 0


if __name__ == "__main__":
    sys.exit(main())
