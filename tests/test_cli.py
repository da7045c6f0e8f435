"""The command-line surface, exercised in process through ``main``."""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cedsenum import (
    enumerate_all,
    is_minimal_ceds,
    parse_solution_line,
    read_graph,
    solution_line,
    to_edge_list_text,
)
from cedsenum import cli
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
        cli, "_strong_connectivity_witness", lambda snapshot: snapshot.nodes[:2]
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


def test_kbest_requires_a_positive_k(c5_file, capsys):
    assert main(["kbest", c5_file, "-k", "0"]) == 1
    capsys.readouterr()
    assert main(["kbest", c5_file]) == 1
    assert "requires -k >= 1" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify


def test_verify_passes_on_small_graphs(p5_file, c5_file, capsys):
    for path in (p5_file, c5_file):
        assert main(["verify", path]) == 0
        out, _ = capsys.readouterr()
        assert "oracle-equivalence" in out
        assert "strong-connectivity" in out
        assert "kbest-prefix-bound" in out
        assert "path-size-bound" in out
        assert "FAIL" not in out


def test_verify_trivial_instance_skips_supergraph_rows(star_file, capsys):
    assert main(["verify", star_file]) == 0
    out, _ = capsys.readouterr()
    assert "trivial-fast-path" in out
    assert out.count("SKIP") == 3
    assert "FAIL" not in out


def test_verify_rejects_oversized_input(c5_file, capsys):
    assert main(["verify", c5_file, "--max-edges", "3"]) == 2
    assert "above the verification cap" in capsys.readouterr().err


def test_verify_reports_counterexamples(c5_file, capsys, monkeypatch):
    def fake_witness(snapshot):
        return snapshot.nodes[0], snapshot.nodes[1]

    monkeypatch.setattr(cli, "_strong_connectivity_witness", fake_witness)
    assert main(["verify", c5_file]) == 4
    out, err = capsys.readouterr()
    assert "strong-connectivity" in out and "FAIL" in out
    assert "counterexample" in err


def test_verify_exits_4_when_the_oracle_disagrees(c5_file, capsys, monkeypatch):
    real = cli.brute_force_minimal_ceds
    monkeypatch.setattr(
        cli, "brute_force_minimal_ceds", lambda g, **kw: real(g, **kw)[1:]
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

    monkeypatch.setattr(cli, "enumerate_all", repeat_first)
    assert main(["verify", c5_file]) == 4
    out, err = capsys.readouterr()
    assert out == "oracle-equivalence      FAIL\n"
    assert err == f"cedsenum: counterexample: solution '{repeated[0]}' emitted more than once\n"


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
