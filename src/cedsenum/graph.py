"""Immutable simple connected graphs with indexed edges, and edge-subset utilities.

Vertices and edges are dense integer indices.  Edge subsets are represented
by :class:`EdgeSet`, an immutable set of edge indices backed by an int
bitmask; iteration is always in ascending index order, which keeps every
downstream computation deterministic.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Iterator
from pathlib import Path


class GraphError(ValueError):
    """Base class for graph construction and structure errors."""


class SelfLoopError(GraphError):
    pass


class DuplicateEdgeError(GraphError):
    pass


class DisconnectedError(GraphError):
    pass


class NotConnectedError(GraphError):
    """Raised when an operation requires a connected edge subset."""


class ParseError(ValueError):
    """Input text could not be parsed; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class EdgeSet:
    """Immutable set of edge indices backed by an int bitmask."""

    __slots__ = ("_mask",)

    def __init__(self, edges: EdgeSet | Iterable[int] = ()):
        if isinstance(edges, EdgeSet):
            self._mask = edges._mask
            return
        mask = 0
        for e in edges:
            if e < 0:
                raise ValueError(f"edge index must be nonnegative, got {e}")
            mask |= 1 << e
        self._mask = mask

    @classmethod
    def from_mask(cls, mask: int) -> EdgeSet:
        s = cls.__new__(cls)
        s._mask = mask
        return s

    @property
    def mask(self) -> int:
        return self._mask

    def __contains__(self, e: int) -> bool:
        return e >= 0 and bool(self._mask >> e & 1)

    def __iter__(self) -> Iterator[int]:
        return _bits(self._mask)

    def __len__(self) -> int:
        return self._mask.bit_count()

    def __bool__(self) -> bool:
        return self._mask != 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, EdgeSet):
            return self._mask == other._mask
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._mask)

    def __or__(self, other: EdgeSet) -> EdgeSet:
        if not isinstance(other, EdgeSet):
            return NotImplemented
        return EdgeSet.from_mask(self._mask | other._mask)

    def __and__(self, other: EdgeSet) -> EdgeSet:
        if not isinstance(other, EdgeSet):
            return NotImplemented
        return EdgeSet.from_mask(self._mask & other._mask)

    def __sub__(self, other: EdgeSet) -> EdgeSet:
        if not isinstance(other, EdgeSet):
            return NotImplemented
        return EdgeSet.from_mask(self._mask & ~other._mask)

    def __le__(self, other: EdgeSet) -> bool:
        if not isinstance(other, EdgeSet):
            return NotImplemented
        return self._mask & ~other._mask == 0

    def __repr__(self) -> str:
        return f"EdgeSet({list(self)})"


def _mask_of(s: EdgeSet | Iterable[int]) -> int:
    return s.mask if isinstance(s, EdgeSet) else EdgeSet(s).mask


class Graph:
    """Immutable undirected simple connected graph.

    Vertices are 0..n-1, edges are 0..m-1; both index sets are stable for
    the lifetime of the object.  Construct via :meth:`from_edge_list` or the
    parsers below; the constructor itself trusts its arguments.
    """

    __slots__ = (
        "n", "m", "edges", "labels", "adjacency", "degrees", "max_degree",
        "incident_mask", "neighbor_vmask", "edge_vmask", "dominator_mask", "all_edges_mask",
        "_edge_index", "_vc_table", "_edge_slices", "_nbr_slices",
    )

    def __init__(self, n: int, edges: list[tuple[int, int]], labels: tuple | None = None):
        self.n = n
        self.m = len(edges)
        self.edges = tuple((u, v) if u < v else (v, u) for u, v in edges)
        self.labels = labels if labels is not None else tuple(range(n))
        adjacency: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        incident = [0] * n
        nbr = [0] * n
        for idx, (u, v) in enumerate(self.edges):
            adjacency[u].append((v, idx))
            adjacency[v].append((u, idx))
            incident[u] |= 1 << idx
            incident[v] |= 1 << idx
            nbr[u] |= 1 << v
            nbr[v] |= 1 << u
        self.adjacency = tuple(tuple(a) for a in adjacency)  # already in ascending edge order
        self.degrees = tuple(len(a) for a in adjacency)
        self.max_degree = max(self.degrees) if n else 0
        self.incident_mask = tuple(incident)
        self.neighbor_vmask = tuple(nbr)
        self.edge_vmask = tuple((1 << u) | (1 << v) for u, v in self.edges)
        self.dominator_mask = tuple(incident[u] | incident[v] for u, v in self.edges)
        self.all_edges_mask = (1 << self.m) - 1
        self._edge_index = {uv: i for i, uv in enumerate(self.edges)}
        self._vc_table: bytes | None = None
        self._edge_slices: tuple | None = None
        self._nbr_slices: tuple | None = None

    @classmethod
    def from_edge_list(cls, pairs: Iterable[tuple[int, int]]) -> Graph:
        """Build a graph, relabeling vertices 0..n-1 by first appearance.

        Raises :class:`SelfLoopError`, :class:`DuplicateEdgeError`, or
        :class:`DisconnectedError` for inputs that are not simple connected
        graphs; the message names the offending pair or vertex.
        """
        label: dict = {}
        edges: list[tuple[int, int]] = []
        seen: set[tuple[int, int]] = set()
        for a, b in pairs:
            if a == b:
                raise SelfLoopError(f"self-loop at vertex {a!r}")
            for x in (a, b):
                if x not in label:
                    label[x] = len(label)
            u, v = label[a], label[b]
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise DuplicateEdgeError(f"duplicate edge ({a!r}, {b!r})")
            seen.add(key)
            edges.append(key)
        if not edges:
            raise DisconnectedError("no edges: graph has no connected edge structure")
        g = cls(len(label), edges, labels=tuple(label))
        comp = _component_mask(g, g.all_edges_mask, 0)
        if comp != g.all_edges_mask:
            # edge 0 joins vertices 0 and 1, so its component is what vertex 0 reaches
            reach = _vertices_mask(g, comp)
            missing = next(v for v in range(g.n) if not reach >> v & 1)
            raise DisconnectedError(
                f"graph is disconnected: vertex {g.labels[missing]!r} is not reachable "
                f"from vertex {g.labels[0]!r}"
            )
        return g

    def edge_between(self, u: int, v: int) -> int | None:
        """Index of edge {u, v}, or None."""
        return self._edge_index.get((u, v) if u < v else (v, u))

    def _dominates_all(self, mask: int) -> bool:
        """True iff every edge of the graph shares an endpoint with ``mask``.

        Both paths start from V(mask), read off the edge slice tables (see
        :func:`_vertices_mask`).  For n <= 14 it indexes a table of the
        graph's vertex covers, built on first use: ``2^n`` bytes, 16 KB at
        n = 14.  Above that, let U be the vertices outside V(mask).  An edge
        escapes ``mask`` exactly when both its endpoints lie in U, so
        ``mask`` dominates every edge iff no vertex of U has a neighbour in
        U, that is, iff :func:`_outside_reach` misses U.
        """
        table = self._vc_table
        if table is None and self.n <= 14:
            table = self._build_vc_table()
        vm = _vertices_mask(self, mask)
        if table is not None:
            return table[vm] == 1
        return not _outside_reach(self, vm) & ~vm

    def _build_vc_table(self) -> bytes:
        """Byte ``vm`` is 1 iff the vertex mask ``vm`` covers every edge.

        ``vm`` is a cover iff its complement is an independent set, and a
        set is independent iff it is without its lowest vertex ``u`` and
        ``u`` has no neighbour in it, so one pass over the subsets in
        ascending order decides them all; the table is that list reversed,
        since the complement of ``vm`` is ``2^n - 1 - vm``.
        """
        nbr = self.neighbor_vmask
        independent = bytearray(1 << self.n)
        independent[0] = 1
        for u_set in range(1, 1 << self.n):
            low = u_set & -u_set
            rest = u_set ^ low
            independent[u_set] = independent[rest] and not nbr[low.bit_length() - 1] & rest
        table = bytes(independent[::-1])
        self._vc_table = table
        return table

    def _build_edge_slices(self) -> tuple:
        edge_vmask = self.edge_vmask
        slices = tuple(
            _slice_tables(edge_vmask[lo:lo + 8], self.n) for lo in range(0, self.m, 8)
        )
        self._edge_slices = slices
        return slices

    def _build_nbr_slices(self) -> tuple:
        nbr = self.neighbor_vmask
        slices = tuple(_slice_tables(nbr[lo:lo + 8], self.n)[0] for lo in range(0, self.n, 8))
        self._nbr_slices = slices
        return slices

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Graph):
            return self.n == other.n and self.edges == other.edges
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m}, edges={list(self.edges)})"


# ---------------------------------------------------------------------------
# Edge-subset structure, bitmask engine


def _slice_tables(masks: tuple[int, ...], n: int) -> tuple:
    """(OR table, shared-bit table) over the subsets of at most 8 masks.

    Entry ``b`` of the first is the OR of the masks whose bits are set in
    ``b``; entry ``b`` of the second holds the bits that two or more of
    them share.  With ``k`` masks each table has ``2^k`` entries, so a
    short last slice stays short.  Masks over n <= 8 vertices fit a byte,
    and those tables are ``bytes``.
    """
    size = 1 << len(masks)
    ors = [0] * size
    shared = [0] * size
    for b in range(1, size):
        low = b & -b
        rest = b ^ low
        m = masks[low.bit_length() - 1]
        ors[b] = ors[rest] | m
        shared[b] = shared[rest] | ors[rest] & m
    if n <= 8:
        return bytes(ors), bytes(shared)
    return ors, shared


def _vertices_mask(g: Graph, mask: int) -> int:
    """V(mask): the endpoints of the edges in ``mask``.

    The edges are sliced in runs of 8, edges ``8j .. 8j+7`` in slice ``j``,
    and byte ``j`` of ``mask`` indexes that slice's OR table of endpoint
    masks, so the cost is at most ``⌈m/8⌉`` lookups, whatever ``|mask|``.
    The tables are built on first use.
    """
    vm = 0
    for ors, _ in g._edge_slices or g._build_edge_slices():
        vm |= ors[mask & 255]
        mask >>= 8
        if not mask:
            break
    return vm


def _vertex_degree_masks(g: Graph, mask: int) -> tuple[int, int]:
    """(V(mask), the vertices of degree >= 2 in G[mask]), in ``⌈m/8⌉`` lookups.

    Uses the slices of :func:`_vertices_mask`.  A vertex has degree >= 2
    when two edges of one byte share it (the slice's shared-bit table) or
    when it is an endpoint both in this byte and in an earlier one.  The
    leaves of G[mask] are the first mask without the second.
    """
    once = twice = 0
    for ors, shared in g._edge_slices or g._build_edge_slices():
        b = mask & 255
        o = ors[b]
        twice |= shared[b] | once & o
        once |= o
        mask >>= 8
        if not mask:
            break
    return once, twice


def _outside_reach(g: Graph, vm: int) -> int:
    """OR of ``neighbor_vmask[u]`` over the vertices u outside the vertex mask ``vm``.

    The vertices are sliced in runs of 8 and byte ``j`` of the complement
    indexes slice ``j``'s OR table, ``⌈n/8⌉`` lookups in all; the tables are
    built on first use.  A vertex lies in the result iff it has a neighbour
    outside ``vm``.  With ``vm = V(F)`` for an edge set F, F dominates every
    edge iff the result misses the complement of ``vm``, and when F is a
    tree of two or more edges, a leaf has a private edge iff it lies in the
    result (see :func:`cedsenum.ceds.is_minimal_ceds`).
    """
    rest = ~vm & ((1 << g.n) - 1)
    reach = 0
    for ors in g._nbr_slices or g._build_nbr_slices():
        reach |= ors[rest & 255]
        rest >>= 8
        if not rest:
            break
    return reach


def _dominated_mask(g: Graph, mask: int) -> int:
    """Edges that share an endpoint with an edge of ``mask``, ``mask`` included."""
    dom = g.dominator_mask
    covered = 0
    while mask:
        low = mask & -mask
        covered |= dom[low.bit_length() - 1]
        mask ^= low
    return covered


def _component_mask(g: Graph, mask: int, e: int) -> int:
    """Edge mask of the component of G[mask] that holds edge ``e``.

    A closure over edges: each frontier edge, lowest first, pulls in the
    edges of ``mask`` that share an endpoint with it (its dominator mask),
    so every edge of the component is expanded once.
    """
    dom = g.dominator_mask
    comp = frontier = 1 << e
    rest = mask & ~comp
    while frontier:
        low = frontier & -frontier
        new = dom[low.bit_length() - 1] & rest
        rest ^= new
        comp |= new
        frontier ^= low | new
    return comp


def _is_connected_mask(g: Graph, mask: int) -> bool:
    """True iff mask is nonempty and G[mask] has a single component."""
    return mask != 0 and _component_mask(g, mask, (mask & -mask).bit_length() - 1) == mask


def _pendant_items(g: Graph, mask: int) -> list[tuple[int, int]]:
    """(edge, pendant vertex) for each pendant edge of G[mask], ascending.

    The pendant vertices are the leaves of :func:`_vertex_degree_masks`.
    An isolated edge has two leaves and reports its smaller endpoint.
    """
    vm, inner = _vertex_degree_masks(g, mask)
    leaves = vm & ~inner
    edge_vmask = g.edge_vmask
    out = []
    for e in _bits(mask):
        lv = edge_vmask[e] & leaves
        if lv:
            out.append((e, (lv & -lv).bit_length() - 1))
    return out


def _spanning_tree_mask(g: Graph, mask: int) -> int:
    """DFS spanning tree of G[mask] from its smallest vertex, taking incident
    edges in ascending index order; raises NotConnectedError."""
    if not mask:
        raise NotConnectedError("empty edge set has no spanning tree")
    vm = _vertices_mask(g, mask)
    root = (vm & -vm).bit_length() - 1
    visited = 1 << root
    tree = 0
    stack = [iter(g.adjacency[root])]
    while stack:
        advanced = False
        for w, e in stack[-1]:
            if mask >> e & 1 and not visited >> w & 1:
                visited |= 1 << w
                tree |= 1 << e
                stack.append(iter(g.adjacency[w]))
                advanced = True
                break
        if not advanced:
            stack.pop()
    if visited != vm:
        raise NotConnectedError("edge set induces a disconnected subgraph")
    return tree


# ---------------------------------------------------------------------------
# Public operations on edge subsets


def is_tree(g: Graph, s: EdgeSet | Iterable[int]) -> bool:
    """True iff G[s] is connected and acyclic; the empty set is not a tree."""
    mask = _mask_of(s)
    return _is_connected_mask(g, mask) and (
        mask.bit_count() == _vertices_mask(g, mask).bit_count() - 1
    )


# ---------------------------------------------------------------------------
# Text formats


def parse_edge_list(text: str) -> list[tuple[int, int]]:
    """Parse `u v` pairs, one per line; `#` starts a comment."""
    pairs = []
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(line_no, f"expected 'u v', got {raw.strip()!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(line_no, f"vertex ids must be integers, got {raw.strip()!r}") from None
        if u < 0 or v < 0:
            raise ParseError(line_no, f"vertex ids must be non-negative, got {raw.strip()!r}")
        pairs.append((u, v))
    return pairs


def parse_dimacs(text: str) -> list[tuple[int, int]]:
    """Parse DIMACS `p edge n m` / `e u v` lines (1-indexed vertices).

    The header, if present, comes once and before every `e` line; then each
    vertex id lies in 1..n and there are exactly m `e` lines.  A violation
    raises :class:`ParseError` with its line number.
    """
    pairs = []
    declared_n = None
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if len(parts) != 4 or parts[1] != "edge":
                raise ParseError(line_no, f"expected 'p edge n m', got {raw.strip()!r}")
            if declared_n is not None or pairs:
                raise ParseError(line_no, "the 'p edge' header must come once, before any 'e' line")
            counts = []
            for what, token in (("vertex", parts[2]), ("edge", parts[3])):
                try:
                    counts.append(int(token))
                except ValueError:
                    raise ParseError(
                        line_no, f"{what} count must be an integer, got {raw.strip()!r}"
                    ) from None
            declared_n, declared_m = counts
            header_line = line_no
            if declared_n < 1:
                raise ParseError(line_no, f"vertex count must be at least 1, got {declared_n}")
        elif parts[0] == "e":
            if len(parts) != 3:
                raise ParseError(line_no, f"expected 'e u v', got {raw.strip()!r}")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError(line_no, f"vertex ids must be integers, got {raw.strip()!r}") from None
            if u < 1 or v < 1:
                raise ParseError(line_no, "DIMACS vertices are 1-indexed")
            if declared_n is not None and max(u, v) > declared_n:
                raise ParseError(
                    line_no, f"vertex {max(u, v)} is above the declared count {declared_n}"
                )
            pairs.append((u - 1, v - 1))
        else:
            raise ParseError(line_no, f"unrecognized line {raw.strip()!r}")
    if declared_n is not None:
        if len(pairs) != declared_m:
            raise ParseError(
                header_line, f"header declares {declared_m} edges, found {len(pairs)} 'e' lines"
            )
        touched = {x for p in pairs for x in p}
        if len(touched) < declared_n:
            isolated = sorted(set(range(declared_n)) - touched)[0]
            raise DisconnectedError(f"graph is disconnected: vertex {isolated + 1} has no edges")
    return pairs


def to_edge_list_text(g: Graph) -> str:
    """Canonical `u v` serialization; `from_edge_list` inverts it."""
    return "".join(f"{u} {v}\n" for u, v in g.edges)


def read_graph(source: str | Path, fmt: str = "edgelist") -> Graph:
    """Read a graph from a file path or `-` for standard input.

    The bytes are decoded as strict UTF-8, whatever the locale; a leading
    byte order mark is dropped, and undecodable input raises
    :class:`UnicodeDecodeError`.  ``fmt`` is ``edgelist`` or ``dimacs``;
    any other value raises :class:`ValueError` before anything is read.
    """
    if fmt not in ("edgelist", "dimacs"):
        raise ValueError(f"graph format must be 'edgelist' or 'dimacs', got {fmt!r}")
    data = sys.stdin.buffer.read() if str(source) == "-" else Path(source).read_bytes()
    text = data.decode("utf-8-sig")
    pairs = parse_dimacs(text) if fmt == "dimacs" else parse_edge_list(text)
    return Graph.from_edge_list(pairs)
