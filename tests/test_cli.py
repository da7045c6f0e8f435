"""The command-line surface, exercised in process through ``main``."""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cedsenum import (
    Solution,
    enumerate_all,
    is_minimal_ceds,
    oracle,
    parse_solution_line,
    read_graph,
    solution_line,
    to_edge_list_text,
)
from cedsenum import approx, cli, enumeration, neighbors
from cedsenum.cli import main


@pytest.fixture
def p5_file(tmp_path, p5):
    path = tmp_path / "p5.edges"
    path.write_text(to_edge_list_text(p5))
    return str(path)


@pytest.fixture
def c5_file(tmp_path, c5):
    path = tmp_path / "c5.edges"
    path.write_text(to_edge_list_text(c5))
    return str(path)


@pytest.fixture
def star_file(tmp_path, star3):
    path = tmp_path / "star.edges"
    path.write_text(to_edge_list_text(star3))
    return str(path)


# ---------------------------------------------------------------------------
# enumerate


def test_enumerate_path(p5_file, capsys):
    assert main(["enumerate", p5_file]) == 0
    out, err = capsys.readouterr()
    assert out == "1-2 2-3\n"
    stats = json.loads(err)
    assert stats["outputs"] == 1
    assert set(stats) == {
        "outputs",
        "expansions",
        "duplicates",
        "max_delay_s",
        "mean_delay_s",
        "peak_visited",
    }


def test_enumerate_cycle_streams_five_lines(c5_file, c5, capsys):
    assert main(["enumerate", c5_file]) == 0
    out, _ = capsys.readouterr()
    lines = out.strip().splitlines()
    assert len(lines) == 5
    for line in lines:
        sol = parse_solution_line(c5, line)
        assert is_minimal_ceds(c5, sol)
    assert len(set(lines)) == 5


def test_enumerate_is_byte_deterministic(c5_file, capsys):
    main(["enumerate", c5_file])
    first = capsys.readouterr()
    main(["enumerate", c5_file])
    assert capsys.readouterr().out == first.out


def test_enumerate_star_uses_the_trivial_path(star_file, capsys):
    assert main(["enumerate", star_file]) == 0
    out, _ = capsys.readouterr()
    assert out == "0-1\n0-2\n0-3\n"


def test_enumerate_output_selection(c5_file, capsys):
    assert main(["enumerate", c5_file, "--output", "solutions"]) == 0
    out, err = capsys.readouterr()
    assert out and not err
    assert main(["enumerate", c5_file, "--output", "stats"]) == 0
    out, err = capsys.readouterr()
    assert err and not out


def test_enumerate_stats_file(c5_file, tmp_path, capsys):
    stats_path = tmp_path / "stats.json"
    assert main(["enumerate", c5_file, "--stats-file", str(stats_path)]) == 0
    _, err = capsys.readouterr()
    assert err == ""
    stats = json.loads(stats_path.read_text())
    assert stats["outputs"] == 5
    assert stats["peak_visited"] == 5


def test_enumerate_trace_logs_provenance(c5_file, capsys):
    assert main(["enumerate", c5_file, "--trace"]) == 0
    _, err = capsys.readouterr()
    trace_lines = [line for line in err.splitlines() if line.startswith("TYPE")]
    assert len(trace_lines) == 4
    assert all(" -> " in line for line in trace_lines)


def test_enumerate_reads_stdin(p5, capsys, monkeypatch):
    stdin = io.TextIOWrapper(io.BytesIO(to_edge_list_text(p5).encode()))
    monkeypatch.setattr("sys.stdin", stdin)
    assert main(["enumerate", "-"]) == 0
    assert capsys.readouterr().out == "1-2 2-3\n"


def test_enumerate_reads_dimacs(tmp_path, capsys):
    path = tmp_path / "p5.col"
    path.write_text("c path\np edge 5 4\ne 1 2\ne 2 3\ne 3 4\ne 4 5\n")
    assert main(["enumerate", str(path), "--format", "dimacs"]) == 0
    assert capsys.readouterr().out == "2-3 3-4\n"  # the file's own 1-based ids


def test_dimacs_solutions_print_1_based_ids(tmp_path, capsys):
    path = tmp_path / "k2.col"
    path.write_text("p edge 2 1\ne 1 2\n")
    assert main(["enumerate", str(path), "--format", "dimacs", "--output", "solutions"]) == 0
    assert capsys.readouterr().out == "1-2\n"


@pytest.fixture
def labelled_file(tmp_path):
    """A 4-cycle 10-20-30-40 with a pendant edge 40-50: internally the
    vertices are 0..4, so any internal id in the output shows."""
    path = tmp_path / "labelled.edges"
    path.write_text("10 20\n20 30\n30 40\n40 10\n40 50\n")
    return str(path)


def test_solution_lines_use_the_input_labels(labelled_file, capsys, monkeypatch):
    assert main(["enumerate", labelled_file, "--output", "solutions", "--trace"]) == 0
    out, err = capsys.readouterr()
    assert out == "20-30 30-40\n30-40 10-40\n10-20 10-40\n"
    assert err == (
        "TYPE2 e=1 path=0,3 -> 30-40 10-40\n"
        "TYPE2 e=2 path=3,0 -> 10-20 10-40\n"
    )
    assert main(["kbest", labelled_file, "-k", "2", "--output", "solutions"]) == 0
    assert capsys.readouterr().out == "20-30 30-40\n10-20 10-40\n"

    monkeypatch.setattr(
        oracle, "_strong_connectivity_witness", lambda snapshot: snapshot.nodes[:2]
    )
    assert main(["verify", labelled_file]) == 4
    assert capsys.readouterr().err == (
        "cedsenum: counterexample: no path from '10-20 10-40' to '20-30 30-40'\n"
    )


def test_enumerate_parse_error_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.edges"
    path.write_text("0 1\n0 one\n")
    assert main(["enumerate", str(path)]) == 2
    _, err = capsys.readouterr()
    assert "line 2" in err


def _run_cli(args: list[str], stdin: bytes = b"", **env: str) -> subprocess.CompletedProcess:
    """Run ``python -m cedsenum`` in a child process, so a traceback shows.

    The child gets no Python I/O encoding settings, so input is decoded
    the way the program itself decodes it; ``env`` adds variables such as
    ``LC_ALL``.
    """
    src = str(Path(cli.__file__).resolve().parents[1])
    child_env = {k: v for k, v in os.environ.items() if k not in ("PYTHONUTF8", "PYTHONIOENCODING")}
    child_env.update(env)
    child_env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, child_env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "cedsenum", *args],
        input=stdin, capture_output=True, env=child_env, timeout=60,
    )


def test_enumerate_bad_dimacs_vertex_count_exits_2(tmp_path):
    path = tmp_path / "bad.col"
    path.write_text("c header below\np edge x 3\ne 1 2\n")
    proc = _run_cli(["enumerate", str(path), "--format", "dimacs"])
    assert proc.returncode == 2
    err = proc.stderr.decode()
    assert "Traceback" not in err
    assert err.startswith("cedsenum: ") and "line 2: vertex count must be an integer" in err


@pytest.mark.parametrize(
    ("text", "message"),
    [
        ("p edge 2 1\ne 1 5\n", "line 2: vertex 5 is above the declared count 2"),
        ("p edge -1 1\ne 1 2\n", "line 1: vertex count must be at least 1, got -1"),
        ("p edge 3 3\ne 1 2\ne 2 3\n", "line 1: header declares 3 edges, found 2 'e' lines"),
        ("e 1 5\np edge 2 1\n", "line 2: the 'p edge' header must come once, before any 'e' line"),
    ],
    ids=["vertex-above-n", "n-below-1", "edge-count-mismatch", "header-after-edges"],
)
def test_enumerate_dimacs_out_of_bounds_exits_2(tmp_path, text, message):
    path = tmp_path / "bad.col"
    path.write_text(text)
    proc = _run_cli(["enumerate", str(path), "--format", "dimacs"])
    assert proc.returncode == 2
    err = proc.stderr.decode()
    assert "Traceback" not in err
    assert err == f"cedsenum: {path}: {message}\n"


@pytest.mark.parametrize("from_stdin", [False, True])
def test_enumerate_non_utf8_input_exits_2(tmp_path, from_stdin):
    data = b"0 1\n1 \xff\n"
    path = tmp_path / "latin1.edges"
    path.write_bytes(data)
    source = "-" if from_stdin else str(path)
    proc = _run_cli(["enumerate", source], stdin=data if from_stdin else b"")
    assert proc.returncode == 2
    err = proc.stderr.decode()
    assert "Traceback" not in err
    assert err.startswith(f"cedsenum: {source}: ") and "can't decode byte 0xff" in err


@pytest.mark.parametrize("from_stdin", [False, True])
def test_enumerate_reads_input_with_a_utf8_byte_order_mark(tmp_path, p5, from_stdin):
    text = to_edge_list_text(p5).encode()
    path = tmp_path / "bom.edges"
    path.write_bytes(b"\xef\xbb\xbf" + text)
    source = "-" if from_stdin else str(path)
    proc = _run_cli(["enumerate", source], stdin=b"\xef\xbb\xbf" + text if from_stdin else b"")
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == _run_cli(["enumerate", "-"], stdin=text).stdout != b""


def test_enumerate_non_utf8_stdin_in_a_c_locale_exits_2():
    proc = _run_cli(["enumerate", "-"], stdin=b"0 1\n1 \xff\n", LC_ALL="C")
    assert proc.returncode == 2
    err = proc.stderr.decode()
    assert "Traceback" not in err
    assert err.startswith("cedsenum: -: ") and "can't decode byte 0xff" in err
    assert "vertex ids must be integers" not in err


def test_enumerate_missing_file_exits_2(tmp_path, capsys):
    assert main(["enumerate", str(tmp_path / "absent.edges")]) == 2
    assert "cedsenum:" in capsys.readouterr().err


def test_enumerate_unwritable_stats_file_exits_2(p5, tmp_path):
    target = tmp_path / "absent" / "stats.json"
    proc = _run_cli(["enumerate", "--stats-file", str(target), "-"],
                    stdin=to_edge_list_text(p5).encode())
    assert proc.returncode == 2
    assert proc.stdout == b""  # refused before the run
    assert proc.stderr.decode() == f"cedsenum: {target}: No such file or directory\n"


def test_edge_list_rejects_negative_ids(tmp_path, capsys):
    path = tmp_path / "negative.edges"
    path.write_text("-1 2\n2 3\n3 -1\n3 4\n")
    assert main(["enumerate", str(path)]) == 2
    assert capsys.readouterr() == (
        "", f"cedsenum: {path}: line 1: vertex ids must be non-negative, got '-1 2'\n"
    )


@pytest.mark.parametrize(
    "command", [["enumerate"], ["kbest", "-k", "1"], ["bench"]], ids=lambda c: c[0]
)
@pytest.mark.parametrize("limit", ["0", "-5"])
def test_max_visited_below_1_is_a_usage_error(c5_file, capsys, command, limit):
    assert main([*command, c5_file, "--max-visited", limit]) == 1
    assert capsys.readouterr() == (
        "", f"cedsenum: {command[0]} requires --max-visited >= 1, got {limit}\n"
    )


def test_enumerate_max_visited_exits_3(c5_file, capsys):
    assert main(["enumerate", c5_file, "--max-visited", "2"]) == 3
    _, err = capsys.readouterr()
    assert "visited-solution limit" in err


# ---------------------------------------------------------------------------
# kbest


def test_kbest_two_of_five(c5_file, c5, capsys):
    assert main(["kbest", c5_file, "-k", "2"]) == 0
    out, err = capsys.readouterr()
    lines = out.strip().splitlines()
    assert len(lines) == 2
    for line in lines:
        assert len(parse_solution_line(c5, line)) == 3
    stats = json.loads(err)
    assert stats["outputs"] == 2
    assert stats["seed_size"] == 3
    assert stats["seed_lower_bound"] == 2
    assert stats["seed_ratio_bound"] == "3/2"


def test_kbest_k_larger_than_the_solution_count(p5_file, capsys):
    assert main(["kbest", p5_file, "-k", "10"]) == 0
    out, _ = capsys.readouterr()
    assert out == "1-2 2-3\n"


def test_kbest_on_a_trivial_instance_has_no_seed(star_file, capsys):
    assert main(["kbest", star_file, "-k", "2"]) == 0
    out, err = capsys.readouterr()
    assert out == "0-1\n0-2\n"
    assert "seed_size" not in json.loads(err)


@pytest.mark.parametrize("output", ["both", "solutions"])
def test_kbest_computes_the_seed_once(c5_file, capsys, monkeypatch, output):
    calls = []

    def counted(g):
        calls.append(g)
        return approx.approx_min_ceds(g)

    for module in (enumeration, cli):  # every module the command runs through
        monkeypatch.setattr(module, "approx_min_ceds", counted, raising=False)
    assert main(["kbest", c5_file, "-k", "1", "--output", output]) == 0
    out, err = capsys.readouterr()
    assert len(calls) == 1
    assert out == "0-1 1-2 2-3\n"
    if output == "both":
        stats = json.loads(err)
        assert (stats["seed_size"], stats["seed_lower_bound"], stats["seed_ratio_bound"]) == (
            3, 2, "3/2"
        )


def test_kbest_requires_a_positive_k(c5_file, capsys):
    assert main(["kbest", c5_file, "-k", "0"]) == 1
    capsys.readouterr()
    assert main(["kbest", c5_file]) == 1
    assert "requires -k >= 1" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify


_VERIFY_ROWS = {
    "p5": (
        "oracle-equivalence      PASS (1 solutions)\n"
        "minimality-agreement    PASS (7 edge sets)\n"
        "trivial-fast-path       SKIP (non-trivial instance)\n"
        "neighbor-closure        PASS (0 arcs)\n"
        "move-candidates         PASS (1 candidates)\n"
        "strong-connectivity     PASS (1 nodes, 0 arcs)\n"
        "kbest-prefix-bound      PASS (factor 3)\n"
        "path-size-bound         PASS\n"
        "out-degree-bound        PASS (widest 0, bound 320)\n"
    ),
    "c5": (
        "oracle-equivalence      PASS (5 solutions)\n"
        "minimality-agreement    PASS (22 edge sets)\n"
        "trivial-fast-path       SKIP (non-trivial instance)\n"
        "neighbor-closure        PASS (18 arcs)\n"
        "move-candidates         PASS (30 candidates)\n"
        "strong-connectivity     PASS (5 nodes, 18 arcs)\n"
        "kbest-prefix-bound      PASS (factor 3)\n"
        "path-size-bound         PASS\n"
        "out-degree-bound        PASS (widest 4, bound 400)\n"
    ),
    "star": (
        "oracle-equivalence      PASS (3 solutions)\n"
        "minimality-agreement    PASS (14 edge sets)\n"
        "trivial-fast-path       PASS (3 solutions, max size 1)\n"
        "neighbor-closure        SKIP (trivial instance)\n"
        "move-candidates         SKIP (trivial instance)\n"
        "strong-connectivity     SKIP (trivial instance)\n"
        "kbest-prefix-bound      PASS (factor 3)\n"
        "path-size-bound         SKIP (trivial instance)\n"
        "out-degree-bound        SKIP (trivial instance)\n"
    ),
}


def test_verify_passes_on_small_graphs(p5_file, c5_file, capsys):
    for name, path in (("p5", p5_file), ("c5", c5_file)):
        assert main(["verify", path]) == 0
        assert capsys.readouterr() == (_VERIFY_ROWS[name], "")


def test_verify_trivial_instance_skips_supergraph_rows(star_file, capsys):
    assert main(["verify", star_file]) == 0
    out, _ = capsys.readouterr()
    assert out == _VERIFY_ROWS["star"]
    assert out.count("SKIP") == 5


def test_verify_rejects_oversized_input(c5_file, capsys):
    assert main(["verify", c5_file, "--max-edges", "3"]) == 2
    assert "above the oracle cap 3" in capsys.readouterr().err


@pytest.mark.parametrize("limit", ["0", "-5"])
def test_verify_max_edges_below_1_is_a_usage_error(c5_file, capsys, limit):
    assert main(["verify", c5_file, "--max-edges", limit]) == 1
    assert capsys.readouterr() == (
        "", f"cedsenum: verify requires --max-edges >= 1, got {limit}\n"
    )


def test_verify_checks_the_cap_before_any_check(c5_file, capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("enumeration ran above the oracle cap")

    monkeypatch.setattr(oracle, "enumerate_all", unreachable)
    monkeypatch.setattr(oracle, "brute_force_minimal_ceds", unreachable)
    assert main(["verify", c5_file, "--max-edges", "3"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "cedsenum: graph has m=5 edges, above the oracle cap 3\n"


def test_verify_reports_counterexamples(c5_file, capsys, monkeypatch):
    def fake_witness(snapshot):
        return snapshot.nodes[0], snapshot.nodes[1]

    monkeypatch.setattr(oracle, "_strong_connectivity_witness", fake_witness)
    assert main(["verify", c5_file]) == 4
    out, err = capsys.readouterr()
    assert "strong-connectivity" in out and "FAIL" in out
    assert "counterexample" in err


def test_verify_exits_4_when_the_oracle_disagrees(c5_file, capsys, monkeypatch):
    real = oracle.brute_force_minimal_ceds
    monkeypatch.setattr(
        oracle, "brute_force_minimal_ceds", lambda g, **kw: real(g, **kw)[1:]
    )
    assert main(["verify", c5_file]) == 4
    out, err = capsys.readouterr()
    assert "oracle-equivalence" in out and "FAIL" in out
    assert "not in oracle" in err


def test_verify_exits_4_on_a_repeated_solution(c5_file, capsys, monkeypatch):
    repeated = []

    def repeat_first(g, sink, **kw):
        got = []
        stats = enumerate_all(g, got.append, **kw)
        repeated.append(solution_line(g, got[0]))
        for sol in [got[0], *got]:
            sink(sol)
        return stats

    monkeypatch.setattr(oracle, "enumerate_all", repeat_first)
    assert main(["verify", c5_file]) == 4
    out, err = capsys.readouterr()
    assert out == "oracle-equivalence      FAIL\n"
    assert err == f"cedsenum: counterexample: solution '{repeated[0]}' emitted more than once\n"


def test_verify_reports_a_program_assertion_as_a_fail_row(c5_file, capsys, monkeypatch):
    # the self-check in all_neighbors fires during the first check's enumeration
    monkeypatch.setattr(neighbors, "is_minimal_ceds", lambda g, s: False)
    assert main(["verify", c5_file]) == 4
    out, err = capsys.readouterr()
    assert out == "oracle-equivalence      FAIL\n"
    assert err == (
        "cedsenum: counterexample: assertion failed in all_neighbors: "
        "assert all(is_minimal_ceds(g, sol.edges) for sol, _ in items)\n"
    )
    assert "Traceback" not in err


def _add_arcs(targets):
    """A ``build_supergraph`` fake: ``targets(g, snapshot)`` join the first node's arcs."""
    def wrap(real):
        def fake(g, **kw):
            snapshot = real(g, **kw)
            snapshot.arcs[snapshot.nodes[0]] += targets(g, snapshot)
            return snapshot
        return fake
    return wrap


@pytest.mark.parametrize(
    ("attr", "fake", "row", "message"),
    [
        ("enumerate_kbest",  # drops the solution with edges 2, 3, 4 from the order
         lambda real: lambda g, k, sink, **kw: real(g, k, lambda s: s.mask == 28 or sink(s), **kw),
         "kbest-prefix-bound",
         "solution '2-3 3-4 0-4' missing from best-first enumeration"),
        ("build_supergraph", _add_arcs(lambda g, s: (Solution(g.all_edges_mask),)),
         "neighbor-closure",
         "neighbor '0-1 1-2 2-3 3-4 0-4' of '0-1 1-2 2-3' is outside the oracle set"),
        ("is_minimal_ceds_definitional", lambda real: lambda g, s: not real(g, s),
         "minimality-agreement", "minimality tests split on '0-1 1-2 2-3'"),
        ("is_tree", lambda real: lambda g, s: False, "neighbor-closure",
         "neighbor '2-3 3-4 0-4' of '0-1 1-2 2-3' is not a minimal CEDS tree"),
        ("build_supergraph", _add_arcs(lambda g, s: tuple(s.nodes) * 80), "out-degree-bound",
         "out-degree 404 exceeds 8*n*m*delta = 400"),
        ("type2_neighbors",  # also caches the lone edge 0-1, which dominates too little
         lambda real: lambda g, x, _cache: _cache.setdefault(1, None) or real(g, x, _cache=_cache),
         "move-candidates", "move candidate '0-1' of '0-1 1-2 2-3' is not a CEDS"),
    ],
    ids=["best-first-mismatch", "neighbor-outside-oracle", "minimality-split",
         "neighbor-not-a-tree", "out-degree", "candidate-not-ceds"],
)
def test_verify_fault_gives_a_fail_row(c5_file, capsys, monkeypatch, attr, fake, row, message):
    monkeypatch.setattr(oracle, attr, fake(getattr(oracle, attr)))
    assert main(["verify", c5_file]) == 4
    out, err = capsys.readouterr()
    rows = out.splitlines()
    names = [r.split()[0] for r in _VERIFY_ROWS["c5"].splitlines()]
    assert [r.split()[0] for r in rows] == names[: len(rows)]
    assert rows[-1] == f"{row:<24}FAIL" and "FAIL" not in "".join(rows[:-1])
    assert err == f"cedsenum: counterexample: {message}\n"


# ---------------------------------------------------------------------------
# gen


def test_gen_is_byte_deterministic(capsys):
    assert main(["gen", "-n", "6", "-p", "0.5", "--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert main(["gen", "-n", "6", "-p", "0.5", "--seed", "7"]) == 0
    assert capsys.readouterr().out == first
    assert first


def test_gen_output_parses_back(tmp_path, capsys):
    assert main(["gen", "-n", "6", "--seed", "3"]) == 0
    path = tmp_path / "gen.edges"
    path.write_text(capsys.readouterr().out)
    g = read_graph(path)
    assert g.n == 6


def test_gen_parameter_validation(capsys):
    assert main(["gen", "-n", "1", "-p", "0.5", "--seed", "7"]) == 1
    capsys.readouterr()
    assert main(["gen", "-n", "6", "-p", "0.5"]) == 1
    assert "requires -n and --seed" in capsys.readouterr().err
    assert main(["gen", "-n", "6", "-p", "1.5", "--seed", "7"]) == 1
    capsys.readouterr()
    # p = 0 never yields a connected sample, so it fails before any draw
    assert main(["gen", "-n", "300", "-p", "0", "--seed", "7"]) == 1
    assert capsys.readouterr().err == "cedsenum: edge probability must be in (0, 1], got 0.0\n"


# ---------------------------------------------------------------------------
# bench


def test_bench_reports_one_row_per_input(p5_file, c5_file, capsys):
    assert main(["bench", p5_file, c5_file]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    lines = out.strip().splitlines()
    assert lines[0] == "n,m,delta,outputs,max_delay_s,mean_delay_s,expansions"
    assert len(lines) == 3
    p5_row = lines[1].split(",")
    assert p5_row[:4] == ["5", "4", "2", "1"]
    c5_row = lines[2].split(",")
    assert c5_row[:4] == ["5", "5", "2", "5"]
    assert c5_row[6] == "5"
    assert float(c5_row[4]) >= float(c5_row[5]) > 0


def test_bench_requires_inputs(capsys):
    assert main(["bench"]) == 1
    assert "no input files" in capsys.readouterr().err


def test_bench_flags_failing_files(p5_file, tmp_path, capsys):
    missing = str(tmp_path / "gone.edges")
    assert main(["bench", p5_file, missing]) == 1
    out, err = capsys.readouterr()
    assert len(out.strip().splitlines()) == 2  # header plus the good row
    assert "bench:" in err


# ---------------------------------------------------------------------------
# top-level parsing


def test_unknown_command_is_a_usage_error():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


# ---------------------------------------------------------------------------
# fuzzing the input boundary

_FUZZ_COMMANDS = (
    ["enumerate", "--max-visited", "50"],
    ["kbest", "-k", "2"],
    ["verify", "--max-edges", "6"],
    ["bench", "--max-visited", "50"],
)
# Texts of well-formed lines over small ids, so that many make a connected
# graph, with at most one line of token soup mixed in.
_ID = st.integers(min_value=0, max_value=4).map(str)
_SOUP = st.lists(
    st.one_of(
        st.integers(min_value=-1, max_value=9).map(str),
        st.sampled_from(["p", "e", "c", "edge", "#", "x", "1.5", "\t"]),
    ),
    max_size=4,
).map(" ".join)


def _text(line):
    def join(parts):
        lines, soup, at = parts
        return "\n".join(lines[:at] + soup + lines[at:])

    return st.tuples(
        st.lists(line, max_size=8), st.lists(_SOUP, max_size=1), st.integers(0, 8)
    ).map(join)


_EDGE_LIST = _text(st.tuples(_ID, _ID).map(" ".join))
_DIMACS_ID = st.integers(min_value=1, max_value=5).map(str)
_DIMACS = _text(st.one_of(
    st.tuples(_DIMACS_ID, _ID).map(lambda nm: "p edge " + " ".join(nm)),
    st.tuples(_DIMACS_ID, _DIMACS_ID).map(lambda uv: "e " + " ".join(uv)),
    st.just("c a comment"),
))


@given(st.one_of(
    st.binary(max_size=64),
    _EDGE_LIST.map(str.encode),
    _DIMACS.map(str.encode),
))
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
def test_every_command_survives_arbitrary_input(tmp_path, data):
    """Any bytes, in either format, into every subcommand that reads a
    graph: the exit code is a documented one and no exception escapes."""
    path = tmp_path / "fuzz.txt"
    path.write_bytes(data)
    for command in _FUZZ_COMMANDS:
        for fmt in ("edgelist", "dimacs"):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main([*command, "--format", fmt, str(path)])
            assert code in {0, 1, 2, 3, 4}, (command, fmt, data)
