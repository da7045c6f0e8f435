"""Enumeration of minimal connected edge dominating sets.

Complete enumeration with polynomial delay via traversal of a strongly
connected solution supergraph, or k-best enumeration with a constant-factor
size guarantee, plus a brute-force oracle for validating the structure.

The names below are the documented surface; the submodules hold the rest.
"""

from . import approx, ceds, enumeration, graph, neighbors, oracle
from .approx import approx_min_ceds
from .ceds import (
    NotCedsError,
    Solution,
    enumerate_trivial,
    is_minimal_ceds,
    min_ceds_is_singleton,
    parse_solution_line,
    solution_line,
)
from .corpus import random_connected_graph
from .enumeration import EnumerationStats, MaxVisitedExceeded, enumerate_all, enumerate_kbest
from .graph import (
    Graph,
    GraphError,
    ParseError,
    parse_dimacs,
    parse_edge_list,
    read_graph,
    to_edge_list_text,
)
from .oracle import TooLargeError, brute_force_minimal_ceds, build_supergraph

__version__ = "0.1.0"

__all__ = [
    "EnumerationStats",
    "Graph",
    "GraphError",
    "MaxVisitedExceeded",
    "NotCedsError",
    "ParseError",
    "Solution",
    "TooLargeError",
    "approx_min_ceds",
    "brute_force_minimal_ceds",
    "build_supergraph",
    "enumerate_all",
    "enumerate_kbest",
    "enumerate_trivial",
    "is_minimal_ceds",
    "min_ceds_is_singleton",
    "parse_dimacs",
    "parse_edge_list",
    "parse_solution_line",
    "random_connected_graph",
    "read_graph",
    "solution_line",
    "to_edge_list_text",
]
