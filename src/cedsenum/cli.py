"""Command-line interface.

Subcommands: ``enumerate`` (all solutions), ``kbest`` (best-first prefix),
``verify`` (oracle-backed structural checks), ``gen`` (seeded random
connected graphs), ``bench`` (delay measurements as CSV).

Solutions stream to standard output as they are found; stats go to standard
error (or ``--stats-file``) so pipelines stay clean.  Exit codes: 0 success,
1 usage error, 2 unreadable or malformed input, 3 visited-limit abort,
4 verification counterexample.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Callable
from contextlib import ExitStack

from .ceds import Solution
from .corpus import random_connected_graph
from .enumeration import MaxVisitedExceeded, enumerate_all, enumerate_kbest
from .graph import Graph, GraphError, ParseError, _bits, read_graph, to_edge_list_text
from .oracle import FAIL, ORACLE_EDGE_CAP, TooLargeError, verify_graph

_BENCH_HEADER = "n,m,delta,outputs,max_delay_s,mean_delay_s,expansions"


def _err(message: str) -> None:
    print(f"cedsenum: {message}", file=sys.stderr)


def _load_graph(args: argparse.Namespace) -> Graph | None:
    try:
        return read_graph(args.input, args.fmt)
    except (ParseError, GraphError, UnicodeDecodeError) as exc:
        _err(f"{args.input}: {exc}")
        return None
    except OSError as exc:
        _err(str(exc))
        return None


def _report(args: argparse.Namespace, g: Graph, run: Callable) -> int:
    """Stream the solutions of ``run(sink, on_insert)`` and emit its stats JSON.

    The stats file is opened, and truncated, before the run, so an
    unwritable path exits 2 before any solution is printed.  Returns 2 if
    the stats file cannot be opened or written, 3 if the visited limit
    trips, else 0.
    """
    wants_stats = args.output in ("stats", "both")
    with ExitStack() as stack:
        out = sys.stderr
        if wants_stats and args.stats_file:
            try:
                out = stack.enter_context(open(args.stats_file, "w"))
            except OSError as exc:
                _err(f"{args.stats_file}: {exc.strerror}")
                return 2
        line = _line_formatter(args, g)
        try:
            stats = run(_solution_sink(args, line), _tracer(args, line))
        except MaxVisitedExceeded as exc:
            _err(str(exc))
            return 3
        if not wants_stats:
            return 0
        text = json.dumps(stats.to_json_dict(), sort_keys=True)
        if out is sys.stderr:
            print(text, file=out)
            return 0
        try:
            out.write(text + "\n")
            out.flush()
        except OSError as exc:
            _err(f"{args.stats_file}: {exc.strerror}")
            return 2
    return 0


def _line_formatter(args: argparse.Namespace, g: Graph) -> Callable[[Solution], str]:
    """Solution lines in the input's own vertex names.

    Each internal vertex id maps through ``g.labels``; DIMACS ids are
    1-based, so they get 1 added back.
    """
    shift = 1 if args.fmt == "dimacs" else 0
    names = [str(label + shift) for label in g.labels]
    pairs = [f"{names[u]}-{names[v]}" for u, v in g.edges]

    def line(sol: Solution) -> str:
        return " ".join(pairs[e] for e in _bits(sol.mask))

    return line


def _solution_sink(args: argparse.Namespace, line: Callable[[Solution], str]):
    if args.output in ("solutions", "both"):
        def sink(sol):
            print(line(sol), flush=True)
    else:
        def sink(sol):
            pass
    return sink


def _tracer(args: argparse.Namespace, line: Callable[[Solution], str]):
    if not args.trace:
        return None

    def hook(sol, prov):
        print(f"{prov.trace()} -> {line(sol)}", file=sys.stderr)

    return hook


def cmd_enumerate(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    if g is None:
        return 2
    return _report(args, g, lambda sink, hook: enumerate_all(
        g, sink, max_visited=args.max_visited, on_insert=hook))


def cmd_kbest(args: argparse.Namespace) -> int:
    if args.k is None or args.k < 1:
        _err("kbest requires -k N with N >= 1" if args.k is None
             else f"kbest requires -k >= 1, got {args.k}")
        return 1
    g = _load_graph(args)
    if g is None:
        return 2
    return _report(args, g, lambda sink, hook: enumerate_kbest(
        g, args.k, sink, max_visited=args.max_visited, on_insert=hook))


def cmd_verify(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    if g is None:
        return 2
    for result in verify_graph(g, line=_line_formatter(args, g), max_edges=args.max_edges):
        if result.status == FAIL:
            print(f"{result.name:<24}{FAIL}")
            _err(f"counterexample: {result.text}")
            return 4
        detail = f" ({result.text})" if result.text else ""
        print(f"{result.name:<24}{result.status}{detail}")
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    if args.n is None or args.seed is None:
        _err("gen requires -n and --seed")
        return 1
    try:
        g = random_connected_graph(args.n, args.p, args.seed)
    except ValueError as exc:
        _err(str(exc))
        return 1
    sys.stdout.write(to_edge_list_text(g))
    sys.stdout.flush()
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    if not args.inputs:
        _err("bench: no input files")
        return 1
    print(_BENCH_HEADER, flush=True)
    failed = False
    for path in args.inputs:
        try:
            g = read_graph(path, args.fmt)
            stats = enumerate_all(g, lambda sol: None, max_visited=args.max_visited)
        except MaxVisitedExceeded as exc:
            _err(f"bench: {path}: {exc}")
            failed = True
            continue
        except (ParseError, GraphError, OSError, ValueError) as exc:
            _err(f"bench: {path}: {exc}")
            failed = True
            continue
        print(
            f"{g.n},{g.m},{g.max_degree},{stats.outputs},"
            f"{stats.max_delay_s:.6f},{stats.mean_delay_s:.6f},{stats.expansions}",
            flush=True,
        )
    return 1 if failed else 0


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cedsenum",
        description="Enumerate minimal connected edge dominating sets.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--format", dest="fmt", choices=("edgelist", "dimacs"),
                        default="edgelist", help="input graph format")
        sp.add_argument("--output", choices=("solutions", "stats", "both"), default="both",
                        help="which streams to emit")
        sp.add_argument("--stats-file", help="write stats JSON here instead of stderr")
        sp.add_argument("--max-visited", type=int,
                        help="abort once this many solutions are recorded")
        sp.add_argument("--trace", action="store_true",
                        help="log move provenance for each new solution to stderr")

    sp = sub.add_parser("enumerate", help="stream every minimal CEDS")
    sp.add_argument("input", help="edge-list file, or - for stdin")
    common(sp)

    sp = sub.add_parser(
        "kbest", help="stream up to k solutions best-first from a 2-approximate seed"
    )
    sp.add_argument("input", help="edge-list file, or - for stdin")
    sp.add_argument("-k", type=int, help="number of solutions to emit")
    common(sp)

    sp = sub.add_parser("verify", help="run the oracle-backed structural checks")
    sp.add_argument("input", help="edge-list file, or - for stdin")
    sp.add_argument("--max-edges", type=int, default=ORACLE_EDGE_CAP,
                    help="largest edge count the oracle will accept")
    sp.add_argument("--format", dest="fmt", choices=("edgelist", "dimacs"), default="edgelist")

    sp = sub.add_parser("gen", help="emit a seeded random connected graph")
    sp.add_argument("-n", type=int, help="number of vertices")
    sp.add_argument("-p", type=float, default=0.5, help="edge probability")
    sp.add_argument("--seed", type=int, help="random seed")

    sp = sub.add_parser("bench", help="enumerate each input, report delays as CSV")
    sp.add_argument("inputs", nargs="*", help="edge-list files")
    sp.add_argument("--format", dest="fmt", choices=("edgelist", "dimacs"), default="edgelist")
    sp.add_argument("--max-visited", type=int)

    return ap


_COMMANDS = {
    "enumerate": cmd_enumerate,
    "kbest": cmd_kbest,
    "verify": cmd_verify,
    "gen": cmd_gen,
    "bench": cmd_bench,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if getattr(args, "max_visited", None) is not None and args.max_visited < 1:
        _err(f"{args.command} requires --max-visited >= 1, got {args.max_visited}")
        return 1
    if getattr(args, "max_edges", 1) < 1:
        _err(f"verify requires --max-edges >= 1, got {args.max_edges}")
        return 1
    try:
        return _COMMANDS[args.command](args)
    except TooLargeError as exc:
        _err(str(exc))
        return 2
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
