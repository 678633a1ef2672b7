"""Compact undirected graph kernel: bitset adjacency, graph6 I/O, fixed-length
path/cycle witnesses (through the search in :mod:`satforge.kernels`) and BFS
layering.

Vertices are 0..n-1 with n capped at 64 so each adjacency row is one machine
word. Graphs are immutable; every mutator returns a new instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import kernels

MAX_VERTICES = 64


class GraphError(ValueError):
    pass


class Graph6Error(GraphError):
    """Malformed graph6 record."""


class LevelError(GraphError):
    """BFS layering violated the requested level budget or connectivity."""


def _bits(mask):
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


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
            for w in _bits(row):
                if not adj[w] >> v & 1:
                    raise GraphError(f"asymmetric edge {v}-{w}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", adj)
        object.__setattr__(self, "edge_count", deg_sum // 2)

    def __setattr__(self, *a):
        raise AttributeError("Graph is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_edges(cls, n, edges):
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise GraphError(f"self-loop {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, rows)

    @classmethod
    def complete(cls, n):
        full = (1 << n) - 1
        return cls(n, [full ^ (1 << v) for v in range(n)])

    @classmethod
    def cycle(cls, n):
        return cls.from_edges(n, [(i, (i + 1) % n) for i in range(n)])

    @classmethod
    def path(cls, n):
        return cls.from_edges(n, [(i, i + 1) for i in range(n - 1)])

    @classmethod
    def star(cls, n):
        return cls.from_edges(n, [(0, i) for i in range(1, n)])

    # -- basic accessors ---------------------------------------------------

    def degree(self, v):
        return self.adj[v].bit_count()

    def neighbors(self, v):
        return list(_bits(self.adj[v]))

    def has_edge(self, u, v):
        return bool(self.adj[u] >> v & 1)

    def edges(self):
        return [(u, v) for u in range(self.n) for v in _bits(self.adj[u]) if u < v]

    def non_edges(self):
        out = []
        for u in range(self.n):
            for v in range(u + 1, self.n):
                if not self.adj[u] >> v & 1:
                    out.append((u, v))
        return out

    def min_degree(self):
        return min(self.degree(v) for v in range(self.n))

    def degrees(self):
        return [self.degree(v) for v in range(self.n)]

    def is_connected(self):
        return kernels.is_connected(self.adj, self.n)

    def with_edge(self, u, v):
        if self.has_edge(u, v) or u == v:
            raise GraphError(f"cannot add edge {u}-{v}")
        rows = list(self.adj)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        return Graph(self.n, rows)

    def without_edge(self, u, v):
        if not self.has_edge(u, v):
            raise GraphError(f"no edge {u}-{v}")
        rows = list(self.adj)
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
        return Graph(self.n, rows)

    def delete_vertices(self, doomed):
        """Induced subgraph on the complement of `doomed`, vertices renumbered
        in ascending order of surviving ids."""
        doomed = set(doomed)
        keep = [v for v in range(self.n) if v not in doomed]
        if not keep:
            raise GraphError("cannot delete every vertex")
        remap = {v: i for i, v in enumerate(keep)}
        edges = [(remap[u], remap[v]) for u, v in self.edges()
                 if u in remap and v in remap]
        return Graph.from_edges(len(keep), edges)

    def relabel(self, perm):
        """New graph with vertex v renamed perm[v]."""
        edges = [(perm[u], perm[v]) for u, v in self.edges()]
        return Graph.from_edges(self.n, edges)

    def distances_from(self, root):
        dist = [-1] * self.n
        dist[root] = 0
        frontier = 1 << root
        seen = frontier
        d = 0
        while frontier:
            d += 1
            nxt = 0
            for v in _bits(frontier):
                nxt |= self.adj[v]
            frontier = nxt & ~seen
            seen |= nxt
            for v in _bits(frontier):
                dist[v] = d
        return dist

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.edge_count})"


@dataclass(frozen=True)
class CyclePath:
    """A concrete simple path or cycle, given as its vertex sequence.

    `length` counts edges: for a path it is len(vertices)-1, for a cycle
    len(vertices) (the closing edge last->first is implied).
    """

    vertices: tuple
    kind: str  # "cycle" | "path"

    def __post_init__(self):
        if self.kind not in ("cycle", "path"):
            raise GraphError(f"bad kind {self.kind!r}")
        if len(set(self.vertices)) != len(self.vertices):
            raise GraphError("repeated vertex")

    @property
    def length(self):
        return len(self.vertices) - (0 if self.kind == "cycle" else 1)

    def validate(self, g: Graph):
        vs = self.vertices
        for a, b in zip(vs, vs[1:]):
            if not g.has_edge(a, b):
                raise GraphError(f"missing edge {a}-{b}")
        if self.kind == "cycle" and not g.has_edge(vs[-1], vs[0]):
            raise GraphError(f"missing closing edge {vs[-1]}-{vs[0]}")
        return True


@dataclass(frozen=True)
class LevelPartition:
    """Distance layering from a root: levels[0] is the closed neighborhood,
    levels[i] the vertices at distance i+1."""

    root: int
    levels: tuple  # tuple of frozensets, levels[0] = V_1 = N[root]
    level_of: tuple = field(repr=False, default=())

    def level(self, v):
        return self.level_of[v]

    @property
    def depth(self):
        return len(self.levels)


# ---------------------------------------------------------------------------
# graph6
# ---------------------------------------------------------------------------

def to_graph6(g: Graph) -> str:
    """Encode as a graph6 record (N(x) header, column-major upper triangle,
    6-bit chunks offset by 63)."""
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    else:
        head = "~" + "".join(chr((n >> s & 63) + 63) for s in (12, 6, 0))
    bits = []
    for v in range(1, n):
        for u in range(v):
            bits.append(g.adj[u] >> v & 1)
    while len(bits) % 6:
        bits.append(0)
    body = "".join(
        chr((bits[i] << 5 | bits[i + 1] << 4 | bits[i + 2] << 3
             | bits[i + 3] << 2 | bits[i + 4] << 1 | bits[i + 5]) + 63)
        for i in range(0, len(bits), 6)
    )
    return head + body


def from_graph6(text: str) -> Graph:
    """Decode one graph6 record (n <= 64)."""
    s = text.strip()
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
    bits = []
    for c in body:
        o = ord(c)
        if not 63 <= o <= 126:
            raise Graph6Error(f"bad body byte {c!r}")
        o -= 63
        bits.extend((o >> 5 & 1, o >> 4 & 1, o >> 3 & 1, o >> 2 & 1, o >> 1 & 1, o & 1))
    if any(bits[nbits:]):
        raise Graph6Error("nonzero padding bits")
    rows = [0] * n
    i = 0
    for v in range(1, n):
        for u in range(v):
            if bits[i]:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            i += 1
    return Graph(n, rows)


def read_graph6_file(path) -> list:
    graphs = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                graphs.append(from_graph6(line))
    return graphs


def write_graph6_file(path, graphs):
    with open(path, "w") as fh:
        for g in graphs:
            fh.write(to_graph6(g) + "\n")


# ---------------------------------------------------------------------------
# traversal
# ---------------------------------------------------------------------------

def paths_between(g: Graph, u, v, length) -> list:
    """All simple u-v paths with exactly `length` edges, lexicographic by
    vertex sequence."""
    if u == v:
        raise GraphError("path endpoints must differ")
    return [CyclePath(p, "path") for p in kernels.all_paths(g.adj, u, v, length)]


def find_path(g: Graph, u, v, length, banned=0):
    """Lexicographically least simple u-v path with `length` edges and no
    inner vertex in `banned`, or None."""
    p = kernels.least_path(g.adj, u, v, length, banned)
    return None if p is None else CyclePath(p, "path")


def has_path(g: Graph, u, v, length) -> bool:
    return kernels.has_path(g.adj, g.n, u, v, length)


def contains_cycle(g: Graph, k):
    """A witness k-cycle (lexicographically least over edge order), or None."""
    if k < 3 or k > g.n:
        return None
    if not kernels.has_cycle(g.adj, g.n, k):
        return None
    for u, v in g.edges():
        p = find_path(g, u, v, k - 1)
        if p is not None:
            return CyclePath(p.vertices, "cycle")
    raise AssertionError("cycle kernel and path search disagree")


def bfs_levels(g: Graph, root, max_level) -> LevelPartition:
    """Strict distance layering: V_1 = N[root], V_i = distance-i vertices.

    Raises LevelError when a vertex is unreachable or deeper than max_level.
    """
    if not 0 <= root < g.n:
        raise GraphError(f"root {root} out of range")
    dist = g.distances_from(root)
    if any(d < 0 for d in dist):
        raise LevelError("graph is disconnected from the root")
    ecc = max(dist)
    if ecc > max_level:
        raise LevelError(f"vertex at distance {ecc} exceeds max level {max_level}")
    depth = max(1, ecc)
    levels = [set() for _ in range(depth)]
    level_of = [0] * g.n
    for v, d in enumerate(dist):
        idx = max(d, 1) - 1  # root and its neighbors share V_1
        levels[idx].add(v)
        level_of[v] = idx + 1
    return LevelPartition(root, tuple(frozenset(s) for s in levels), tuple(level_of))
