"""The benchmark tracer still binds to the names it rebinds in the package."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import cedsenum

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def test_tracer_counts_the_hot_path(c5):
    spec = importlib.util.spec_from_file_location("cedsenum_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer(cedsenum)
    consider = cedsenum.neighbors._consider
    tracer.install()
    try:
        got = []
        cedsenum.enumeration.enumerate_kbest(c5, 3, got.append)
    finally:
        tracer.remove()
    assert len(got) == 3
    assert tracer.calls["enumeration.run"] == 1
    assert tracer.calls["neighbors.all"] > 0
    assert tracer.calls["ceds.minimalize"] > 0
    for kind in ("type1", "type2", "type3"):
        assert tracer.counts[f"neighbors.candidates.{kind}"] > 0
    assert cedsenum.neighbors._consider is consider
    assert cedsenum.enumeration.all_neighbors is cedsenum.neighbors.all_neighbors
