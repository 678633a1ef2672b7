"""Compact undirected graph kernel: bitset adjacency, graph6 I/O and the
`CyclePath` witness type. It imports nothing from the package: the cycle
and path searches are in :mod:`satforge.kernels`, and the audit's distance
layering is in :mod:`satforge.discharging`.

Vertices are 0..n-1 with n capped at 64 so each adjacency row is one machine
word. Graphs are immutable; every mutator returns a new instance.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

MAX_VERTICES = 64


class GraphError(ValueError):
    pass


class Graph6Error(GraphError):
    """Malformed graph6 record."""


def _check_pair(n, u, v):
    if not (0 <= u < n and 0 <= v < n):
        raise GraphError(f"vertex pair ({u}, {v}) outside 0..{n - 1}")


def vertex_list(mask):
    """The set bits of `mask` as an ascending list of vertices."""
    out = []
    while mask:
        low = mask & -mask
        mask ^= low
        out.append(low.bit_length() - 1)
    return out


class Graph:
    """Immutable simple undirected graph with per-vertex neighbor bitmasks."""

    __slots__ = ("n", "adj", "edge_count")

    def __init__(self, n, adj):
        if not 1 <= n <= MAX_VERTICES:
            raise GraphError(f"vertex count {n} outside 1..{MAX_VERTICES}")
        adj = tuple(adj)
        if len(adj) != n:
            raise GraphError("adjacency row count does not match n")
        full = (1 << n) - 1
        deg_sum = 0
        for v, row in enumerate(adj):
            if row & ~full:
                raise GraphError(f"row {v} references vertices >= {n}")
            if row >> v & 1:
                raise GraphError(f"self-loop at {v}")
            deg_sum += row.bit_count()
        for v, row in enumerate(adj):
            for w in vertex_list(row):
                if not adj[w] >> v & 1:
                    raise GraphError(f"asymmetric edge {v}-{w}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", adj)
        object.__setattr__(self, "edge_count", deg_sum // 2)

    @classmethod
    def _trusted(cls, n, adj, edge_count):
        """A graph from rows already known to be valid (a checked graph with
        one edge added or removed, or a decoded graph6 record), without
        `__init__`'s checks."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "adj", tuple(adj))
        object.__setattr__(g, "edge_count", edge_count)
        return g

    def __setattr__(self, *a):
        raise AttributeError("Graph is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through __init__, so loaded rows are checked
        return (Graph, (self.n, self.adj))

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_edges(cls, n, edges):
        rows = [0] * n
        for u, v in edges:
            _check_pair(n, u, v)
            if u == v:
                raise GraphError(f"self-loop {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, rows)

    # -- basic accessors ---------------------------------------------------

    def degree(self, v):
        if not 0 <= v < self.n:
            raise GraphError(f"vertex {v} outside 0..{self.n - 1}")
        return self.adj[v].bit_count()

    def neighbors(self, v):
        if not 0 <= v < self.n:
            raise GraphError(f"vertex {v} outside 0..{self.n - 1}")
        return vertex_list(self.adj[v])

    def has_edge(self, u, v):
        _check_pair(self.n, u, v)
        return bool(self.adj[u] >> v & 1)

    def edges(self):
        return [(u, v) for u in range(self.n) for v in vertex_list(self.adj[u]) if u < v]

    def non_edges(self):
        out = []
        for u in range(self.n):
            for v in range(u + 1, self.n):
                if not self.adj[u] >> v & 1:
                    out.append((u, v))
        return out

    def min_degree(self):
        return min(self.degrees())

    def degrees(self):
        return [row.bit_count() for row in self.adj]

    def with_edge(self, u, v):
        if self.has_edge(u, v) or u == v:
            raise GraphError(f"cannot add edge {u}-{v}")
        rows = list(self.adj)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        return Graph._trusted(self.n, rows, self.edge_count + 1)

    def without_edge(self, u, v):
        if not self.has_edge(u, v):
            raise GraphError(f"no edge {u}-{v}")
        rows = list(self.adj)
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
        return Graph._trusted(self.n, rows, self.edge_count - 1)

    def delete_vertices(self, doomed):
        """Induced subgraph on the complement of `doomed`, vertices renumbered
        in ascending order of surviving ids; each id must be in 0..n-1."""
        doomed = set(doomed)
        if not doomed.issubset(range(self.n)):
            raise GraphError(f"deleted vertices outside 0..{self.n - 1}")
        keep = [v for v in range(self.n) if v not in doomed]
        if not keep:
            raise GraphError("cannot delete every vertex")
        remap = {v: i for i, v in enumerate(keep)}
        edges = [(remap[u], remap[v]) for u, v in self.edges()
                 if u in remap and v in remap]
        return Graph.from_edges(len(keep), edges)

    def relabel(self, perm):
        """New graph with vertex v renamed perm[v]; `perm` permutes 0..n-1."""
        if len(perm) != self.n or set(perm) != set(range(self.n)):
            raise GraphError(f"relabel needs a permutation of 0..{self.n - 1}")
        edges = [(perm[u], perm[v]) for u, v in self.edges()]
        return Graph.from_edges(self.n, edges)

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.edge_count})"


class _CyclePathFields(NamedTuple):
    vertices: tuple
    kind: str  # "cycle" | "path"


class CyclePath(_CyclePathFields):
    """A concrete simple path or cycle, given as its vertex sequence.

    `length` counts edges: for a path it is len(vertices)-1, for a cycle
    len(vertices) (the closing edge last->first is implied).

    A named tuple: it compares equal to the plain tuple (vertices, kind),
    has len 2 and unpacks. The constructor checks the kind and that no
    vertex repeats, and so do `_make` and `_replace`, which goes through
    it; `_trusted` skips both for paths the kernel returns, which are simple
    by construction.
    """

    __slots__ = ()

    def __new__(cls, vertices, kind):
        if kind not in ("cycle", "path"):
            raise GraphError(f"bad kind {kind!r}")
        if len(set(vertices)) != len(vertices):
            raise GraphError("repeated vertex")
        return tuple.__new__(cls, (vertices, kind))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @property
    def length(self):
        return len(self.vertices) - (0 if self.kind == "cycle" else 1)

    def validate(self, g: Graph):
        vs = self.vertices
        if self.kind == "cycle" and len(vs) < 3:
            raise GraphError(f"a cycle needs 3 vertices, not {len(vs)}")
        for a, b in zip(vs, vs[1:]):
            if not g.has_edge(a, b):
                raise GraphError(f"missing edge {a}-{b}")
        if self.kind == "cycle" and not g.has_edge(vs[-1], vs[0]):
            raise GraphError(f"missing closing edge {vs[-1]}-{vs[0]}")
        return True


# CyclePath._trusted((vertices, kind)): a witness from a kernel path, without
# `__new__`'s checks and with no Python-level call
CyclePath._trusted = functools.partial(tuple.__new__, CyclePath)


# ---------------------------------------------------------------------------
# graph6
# ---------------------------------------------------------------------------

def to_graph6(g: Graph) -> str:
    """Encode as a graph6 record (N(x) header, column-major upper triangle,
    6-bit chunks offset by 63). Column v, the pairs u-v with u < v, is the
    low v bits of row v, row 0 first, as `from_graph6` reads it."""
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    else:
        head = "~" + "".join(chr((n >> s & 63) + 63) for s in (12, 6, 0))
    bits = "".join(format(g.adj[v] & ((1 << v) - 1), f"0{v}b")[::-1]
                   for v in range(1, n))
    bits += "0" * (-len(bits) % 6)
    return head + "".join(chr(int(bits[i:i + 6], 2) + 63)
                          for i in range(0, len(bits), 6))


# a graph6 body byte -> its six bits, most significant first
_SIX_BITS = {63 + i: format(i, "06b") for i in range(64)}

# what a record may carry around it; str.strip() would also remove the
# control bytes \x0b, \x0c and \x1c-\x1f, which are bad bytes in a record
_BLANKS = " \t\r\n"


def from_graph6(text: str) -> Graph:
    """Decode one graph6 record (n <= 64).

    The record is checked, not the rows it gives: the header, the body
    length, every body byte and the zero padding. The body is read as one
    integer, and each column's set bits are its edges, so the rows are
    symmetric and loop-free by construction and skip `Graph`'s checks."""
    s = text.strip(_BLANKS)
    if s.startswith(">>graph6<<"):
        s = s[10:]
    if not s:
        raise Graph6Error("empty record")
    if s[0] == "~":
        if len(s) < 4 or s[1] == "~":
            raise Graph6Error("unsupported long-form header")
        vals = []
        for c in s[1:4]:
            if not 63 <= ord(c) <= 126:
                raise Graph6Error(f"bad header byte {c!r}")
            vals.append(ord(c) - 63)
        n = vals[0] << 12 | vals[1] << 6 | vals[2]
        body = s[4:]
    else:
        if not 63 <= ord(s[0]) <= 126:
            raise Graph6Error(f"bad header byte {s[0]!r}")
        n = ord(s[0]) - 63
        body = s[1:]
    if not 1 <= n <= MAX_VERTICES:
        raise Graph6Error(f"vertex count {n} outside 1..{MAX_VERTICES}")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) != need:
        raise Graph6Error(f"expected {need} body chars, got {len(body)}")
    if body and not ("?" <= min(body) and max(body) <= "~"):
        bad = next(c for c in body if not "?" <= c <= "~")
        raise Graph6Error(f"bad body byte {bad!r}")
    bits = body.translate(_SIX_BITS)
    if "1" in bits[nbits:]:
        raise Graph6Error("nonzero padding bits")
    # bit i is the i-th pair of the column-major upper triangle, so column v
    # (the pairs u-v, u < v) is v bits starting at bit v(v-1)/2
    pairs = int(bits[:nbits][::-1] or "0", 2)
    edge_count = pairs.bit_count()
    rows = [0] * n
    for v in range(1, n):
        col = pairs & ((1 << v) - 1)
        pairs >>= v
        rows[v] = col
        bit = 1 << v
        while col:
            low = col & -col
            col ^= low
            rows[low.bit_length() - 1] |= bit
    return Graph._trusted(n, rows, edge_count)


def read_graph6_file(path) -> list:
    """The graph6 records of a file, one a line; blank lines are skipped.
    A line that is not ASCII or not a record raises Graph6Error naming it."""
    graphs = []
    # undecodable bytes become lone surrogates, found line by line below
    with open(path, encoding="ascii", errors="surrogateescape") as fh:
        for i, line in enumerate(fh, 1):
            if not line.isascii():
                raise Graph6Error(f"{path}: line {i} is not ASCII")
            line = line.strip(_BLANKS)
            if line:
                try:
                    graphs.append(from_graph6(line))
                except Graph6Error as exc:
                    raise Graph6Error(f"{path}: line {i}: {exc}") from None
    return graphs


def write_graph6_file(path, graphs):
    with open(path, "w") as fh:
        for g in graphs:
            fh.write(to_graph6(g) + "\n")
