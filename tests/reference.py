"""Reference forms that only the tests use, kept beside them rather than in
the package."""

from __future__ import annotations

from cedsenum.graph import Graph, _bits


def private_mask(g: Graph, mask: int, f: int) -> int:
    """Edges outside ``mask`` whose only dominator in ``mask`` is ``f``."""
    out = 0
    u, v = g.edges[f]
    # a private edge must share an endpoint with f, so scanning the
    # neighborhood of f's endpoints sees every candidate
    for h in _bits((g.incident_mask[u] | g.incident_mask[v]) & ~mask):
        if g.dominator_mask[h] & mask == 1 << f:
            out |= 1 << h
    return out


def dominated_mask(g: Graph, mask: int) -> int:
    """Edges that share an endpoint with an edge of ``mask``, ``mask`` included."""
    covered = 0
    for e in _bits(mask):
        covered |= g.dominator_mask[e]
    return covered
