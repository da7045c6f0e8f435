"""Shared fixtures: named graphs plus a one-pass sweep over the test corpus.

The structural acceptance checks are the rows of ``oracle.verify_graph``,
which computes the per-graph artifacts once; a session-scoped sweep
collects its results per check, and the individual tests aggregate them.
Each acceptance test registers a one-line verdict that is echoed again in
the terminal summary.
"""

from __future__ import annotations

import pytest

from cedsenum import Graph
from cedsenum.corpus import random_corpus, tiny_corpus
from cedsenum.oracle import FAIL, CheckResult, verify_graph


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


@pytest.fixture(scope="session")
def corpus_report() -> dict[str, list[CheckResult]]:
    """Every ``verify_graph`` result on the corpus, listed per check name; a
    FAIL's text starts with its graph."""
    report: dict[str, list[CheckResult]] = {}
    for g in [*tiny_corpus(), *random_corpus()]:
        for result in verify_graph(g):
            if result.status == FAIL:
                result.text = f"graph {g.edges}: {result.text}"
            report.setdefault(result.name, []).append(result)
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
