"""Exhaustive minimum-saturation search.

Canonical labeling by individualization-refinement on adjacency bitmasks,
with a twin-cell shortcut.  Besides the canonical code and ordering it
returns automorphisms met on the way: the swaps of twin-cell members and the
maps between leaves with equal codes.  The search tree skips a subtree that
a known automorphism maps from one already explored (nauty's automorphism
pruning).

A levelwise edge-augmentation enumerator builds level m, one canonical
representative per isomorphism class of C_k-free graphs with m edges, from
level m-1.  A representative keeps its automorphisms.  Of its non-edges it
tries only those whose new edge would have the largest degree sum in the
child, decided from degrees alone, and of those only the least of each
orbit its automorphisms generate (orbit pruning).  A tried child is labeled
only if its new edge also has the largest edge key, which refines the
degree sum by the ends' degrees and neighbor-degree sums: the first test
of McKay's canonical augmentation ("Isomorph-free exhaustive generation",
1998), built from one pass over the parent.  Children are still deduped by
canonical code, so a partial group costs speed, never a class.  Level
graphs are C_k-free by construction, so the saturation test only looks for
witnesses.  It runs from m = n-1 upward (a saturated graph is connected), so
the first level holding a saturated graph gives sat(n, C_k).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

from .graph import Graph, GraphError, has_path, write_graph6_file
from .kernels import witness_scan

MAX_CANON_VERTICES = 16


class SearchError(GraphError):
    pass


class BudgetExhausted(SearchError):
    """Raised internally when a node or time budget runs out mid-level."""


# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------

def _mask(vertices):
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def _refine(adj, cells, masks, splitters):
    """Stable equitable refinement of an ordered partition, in place: `cells`
    are lists of vertices and `masks` their bitmasks.

    Each pass splits every cell by its members' neighbor counts in the cells
    of the partition the pass started from, `(adj[v] & mask).bit_count()`:
    groups in descending order of that count vector, members in their old
    order.  Every cell lies inside one degree class, so two members' count
    vectors have the same sum, and descending count vectors order them
    exactly as ascending sorted tuples of neighbor cell indices would.  With
    several splitters the vector is packed into one int, five bits a count:
    a count is at most n - 1 <= 15, so descending ints order the groups as
    descending vectors do.

    `splitters` are the masks of the cells that the last split created, in
    partition order, less the last group of each split cell.  Members of one
    cell agree on every other count (the cell they came from, and the last
    group, follow from the rest), so only these counts can order them.
    """
    while splitters:
        created = []
        splits = []
        for i, cell in enumerate(cells):
            if len(cell) == 1:
                continue
            groups = {}
            if len(splitters) == 1:  # as after individualizing one vertex
                m = splitters[0]
                for v in cell:
                    groups.setdefault((adj[v] & m).bit_count(), []).append(v)
            else:
                for v in cell:
                    row = adj[v]
                    sig = 0
                    for m in splitters:
                        sig = sig << 5 | (row & m).bit_count()
                    groups.setdefault(sig, []).append(v)
            if len(groups) == 1:
                continue
            parts = [groups[sig] for sig in sorted(groups, reverse=True)]
            part_masks = [_mask(part) for part in parts]
            created.extend(part_masks[:-1])
            splits.append((i, parts, part_masks))
        if not splits:
            break
        for i, parts, part_masks in reversed(splits):
            cells[i:i + 1] = parts
            masks[i:i + 1] = part_masks
        splitters = created


def _is_twin_cell(adj, cell, mask):
    """All members share one external neighborhood and induce an empty or
    complete graph; any ordering of the cell is then automorphic."""
    first = adj[cell[0]]
    ext = first & ~mask
    empty = not first & mask
    for v in cell:
        row = adj[v]
        if row & ~mask != ext or row & mask != (0 if empty else mask ^ 1 << v):
            return False
    return True


class _Labeler:
    """Best leaf and automorphisms found by one individualization-refinement
    search.  A leaf's code packs the permuted upper triangle column by
    column, row 0 as the high bit of each column, as graph6 orders it."""

    def __init__(self, g):
        self.adj = g.adj
        self.n = g.n
        self.code = None
        self.order = None
        # permutation bytes -> mask of the vertices it fixes, in discovery order
        self.generators = {}

    def leaf(self, order):
        adj = self.adj
        rows = [adj[v] for v in order]
        code = 0
        for j in range(1, self.n):
            vj = order[j]
            for row in rows[:j]:
                code = code << 1 | row >> vj & 1
        if self.code is None or code < self.code:
            self.code, self.order = code, order
        elif code == self.code:
            # this leaf and the best give one labeled graph, so mapping
            # order[i] to self.order[i] is an automorphism
            perm = bytearray(self.n)
            fixed = 0
            for v, w in zip(order, self.order):
                perm[v] = w
                if v == w:
                    fixed |= 1 << v
            self.generators[bytes(perm)] = fixed

    def twins(self, cell):
        """Swapping two members of a twin cell is an automorphism."""
        everything = (1 << self.n) - 1
        for a, b in zip(cell, cell[1:]):
            perm = bytearray(range(self.n))
            perm[a], perm[b] = b, a
            self.generators[bytes(perm)] = everything ^ (1 << a | 1 << b)

    def covered(self, v, explored, prefix):
        """Whether the automorphisms found so far that fix every vertex of
        `prefix` map some vertex of `explored` to v."""
        perms = [perm for perm, fixed in self.generators.items()
                 if not prefix & ~fixed]
        orbit = frontier = explored
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            x = low.bit_length() - 1
            for perm in perms:
                bit = 1 << perm[x]
                if not orbit & bit:
                    orbit |= bit
                    frontier |= bit
        return orbit >> v & 1

    def search(self, cells, masks, splitters, prefix):
        """Refine, then record a leaf or branch on the first non-singleton
        cell.  The partition was equitable before the cells split off here,
        so only those can split others (see `_refine`).  `prefix` is the mask
        of the vertices individualized on the way here.

        A sibling v is skipped when a known automorphism g fixing `prefix`
        pointwise (a product of such generators) maps an explored sibling w
        to v.  g fixes this node's partition, so it maps w's subtree onto
        v's, leaf for leaf with equal codes (the twin shortcut may order a
        twin cell differently, but a twin swap is an automorphism too).
        Every code of v's subtree was met first under w, so the first best
        leaf, and with it the code and ordering, does not change."""
        _refine(self.adj, cells, masks, splitters)
        for split_at, cell in enumerate(cells):
            if len(cell) > 1:
                break
        else:
            self.leaf([c[0] for c in cells])
            return
        head, tail = cells[:split_at], cells[split_at + 1:]
        mhead, mtail = masks[:split_at], masks[split_at + 1:]
        cell = sorted(cell)
        if _is_twin_cell(self.adj, cell, masks[split_at]):
            self.twins(cell)
            fixed = [1 << v for v in cell]
            self.search(head + [[v] for v in cell] + tail,
                        mhead + fixed + mtail, fixed[:-1],
                        prefix | masks[split_at])
            return
        explored = 0
        for v in cell:
            if explored and self.covered(v, explored, prefix):
                continue
            rest = [w for w in cells[split_at] if w != v]
            self.search(head + [[v], rest] + tail,
                        mhead + [1 << v, masks[split_at] ^ 1 << v] + mtail,
                        [1 << v], prefix | 1 << v)
            explored |= 1 << v


def canonical_form(g: Graph):
    """(code, ordering, generators): `code` is an isomorphism-invariant
    integer packing of the canonical upper triangle, `ordering[i]` the vertex
    placed at canonical position i, and `generators` automorphisms of g, each
    an n-byte permutation (vertex v maps to perm[v]).  They are the swaps of
    adjacent members of every twin cell fixed and the maps between leaves
    with equal codes.  That they generate the whole automorphism group is
    tested, not proven: the tests compare the group's order with networkx's
    automorphism count on every graph with 2..7 vertices and on 300 random
    graphs with 8..10 vertices.
    """
    if g.n > MAX_CANON_VERTICES:
        raise SearchError(f"canonical labeling bounded to n <= {MAX_CANON_VERTICES}")
    by_degree = {}
    for v, row in enumerate(g.adj):
        by_degree.setdefault(row.bit_count(), []).append(v)
    cells = [by_degree[d] for d in sorted(by_degree)]
    masks = [_mask(cell) for cell in cells]
    lab = _Labeler(g)
    lab.search(cells, masks, masks[:-1], 0)  # degree classes split V
    return lab.code, lab.order, list(lab.generators)


def canonical_key(g: Graph):
    code, _, _ = canonical_form(g)
    return (g.n, code)


def canonical_graph(g: Graph) -> Graph:
    """The canonically relabeled copy; equal across an isomorphism class."""
    _, ordering, _ = canonical_form(g)
    perm = [0] * g.n
    for i, v in enumerate(ordering):
        perm[v] = i
    return g.relabel(perm)


def are_isomorphic(a: Graph, b: Graph) -> bool:
    if a.n != b.n or a.edge_count != b.edge_count:
        return False
    return canonical_key(a) == canonical_key(b)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def saturation_lower_bound(n: int) -> int:
    """Fewest edges of a C_k-saturated graph on n >= 1 vertices, for any k:
    it is connected, since an edge between two components would close no
    cycle, so it has at least n-1 edges."""
    return n - 1


@dataclass
class SearchResult:
    """Outcome of one `enumerate_saturated` run.  `graphs` are the canonical
    representatives in ascending canonical code, which for graph6 output is
    ascending string order (the code packs the bits in graph6 order); saved
    `.g6` files keep that order.  `nodes` counts the non-edges tried, one
    budget node each (see `_Budget`)."""

    n: int
    k: int
    min_edges: int | None
    graphs: list = field(default_factory=list)  # canonical representatives
    status: str = "complete"  # "complete" | "budget-exhausted"
    nodes: int = 0
    elapsed: float = 0.0
    level_sizes: dict = field(default_factory=dict)  # m -> class count


class _Budget:
    """Node and wall-clock limits.  One node is one non-edge of a parent
    tried: one that passes the degree-sum test and is least in its orbit
    among those that pass.  It is put to the rest of the edge-key test, then
    to the k-cycle test and, if it passes both, augmented and labeled."""

    def __init__(self, nodes, secs):
        self.nodes = nodes
        self.deadline = time.monotonic() + secs if secs is not None else None
        self.spent = 0

    def tick(self):
        """Count one node, or raise BudgetExhausted without counting it."""
        if self.nodes is not None and self.spent >= self.nodes:
            raise BudgetExhausted("node budget exhausted")
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise BudgetExhausted("time budget exhausted")
        self.spent += 1


class _EdgeKeys:
    """Which children G+uv of one parent G survive the edge-key test, from
    one pass over G.

    With d' the degrees of G+uv and s'(x) the sum of the d' of x's
    neighbors, an edge xy of G+uv has the key (d'(x) + d'(y), larger end,
    smaller end), each end compared as (d'(x), s'(x)).  The key depends only
    on degrees and adjacency, so an isomorphism maps each edge to one with
    the same key.  G+uv passes when no edge of G+uv has a larger key than
    uv; ties pass.  The degree sum comes first, so every passing uv passes
    `degree_sum_passing`; `largest` decides the rest of the key for those."""

    def __init__(self, g):
        n, adj = g.n, g.adj
        deg = [row.bit_count() for row in adj]
        nb = [0] * n  # largest degree of a neighbor, 0 if none
        nbsum = [0] * n  # s: sum of the neighbors' degrees
        of_degree = [0] * (n + 1)  # degree -> mask of the vertices with it
        for x, row in enumerate(adj):
            of_degree[deg[x]] |= 1 << x
            total = best = 0
            while row:
                low = row & -row
                row ^= low
                d = deg[low.bit_length() - 1]
                total += d
                if d > best:
                    best = d
            nbsum[x], nb[x] = total, best
        top = max((d + b for d, b in zip(deg, nb)), default=0)  # M
        tops = []  # the edges xy, x < y, with the degree sum M
        for x in range(n):
            if deg[x] + nb[x] == top:
                row = adj[x] & of_degree[nb[x]] & -(2 << x)  # the y > x
                while row:
                    low = row & -row
                    row ^= low
                    tops.append((x, low.bit_length() - 1))
        self.n, self.adj, self.deg, self.nb = n, adj, deg, nb
        self.nbsum, self.of_degree, self.top, self.tops = nbsum, of_degree, top, tops

    def degree_sum_passing(self):
        """The non-edges uv of G, in `non_edges()` order, such that uv has
        the largest degree sum in G+uv: d'(u) + d'(v) >= d'(x) + d'(y) for
        every edge xy.

        Let M be G's largest edge degree sum and nb(x) the largest degree of
        a neighbor of x.  uv is not an edge of G, so in G+uv an edge ux has
        the sum d(u) + 1 + d(x), which is at most d(u) + d(v) + 2 iff
        d(x) <= d(v) + 1, and an edge at neither u nor v keeps its sum.  So
        uv passes iff M <= d(u) + d(v) + 2, nb(u) <= d(v) + 1 and
        nb(v) <= d(u) + 1; for the edges at u or v, M asks less than the
        other two tests."""
        n, adj, deg, nb, top = self.n, self.adj, self.deg, self.nb, self.top
        out = []
        for u in range(n):
            du, row = deg[u], adj[u]
            least = max(top - du - 2, nb[u] - 1)  # the smallest d(v) that passes
            for v in range(u + 1, n):
                if not row >> v & 1 and deg[v] >= least and nb[v] <= du + 1:
                    out.append((u, v))
        return out

    def largest(self, u, v):
        """Whether uv has the largest key in G+uv, for a uv that passes
        `degree_sum_passing`.

        Only u and v change degree: d' = d + 1 on them, s'(u) = s(u) +
        d(v) + 1, and s'(x) = s(x) + [x in N(u)] + [x in N(v)] for any other
        x.  An edge can beat uv only by tying its degree sum S = d(u) +
        d(v) + 2.  The edges that tie are the ux with d(x) = d(v) + 1, the vy
        with d(y) = d(u) + 1, and, when M = S, G's edges of sum M (none of
        them meets u or v, or uv would not pass).  ux shares the end u with
        uv, so it beats uv iff its end x beats v; x and v have the same
        degree in G+uv, so iff s'(x) > s'(v).  The same holds for vy."""
        adj, deg, s = self.adj, self.deg, self.nbsum
        du, dv = deg[u], deg[v]
        su, sv = s[u] + dv + 1, s[v] + du + 1  # s'(u), s'(v)
        for a, b, sb in ((u, v, sv), (v, u, su)):  # the ax that tie uv's sum
            row = adj[a] & self.of_degree[deg[b] + 1]
            while row:
                low = row & -row
                row ^= low
                x = low.bit_length() - 1
                if s[x] + 1 + (adj[b] >> x & 1) > sb:  # s'(x) > s'(b)
                    return False
        if self.top == du + dv + 2:
            eu, ev = (du + 1, su), (dv + 1, sv)
            key = (eu, ev) if eu > ev else (ev, eu)
            au, av = adj[u], adj[v]
            for x, y in self.tops:
                ex = (deg[x], s[x] + (au >> x & 1) + (av >> x & 1))
                ey = (deg[y], s[y] + (au >> y & 1) + (av >> y & 1))
                if ((ex, ey) if ex > ey else (ey, ex)) > key:
                    return False
        return True


def _orbit_leaders(n, pairs, generators):
    """The members of `pairs`, a union of orbits of vertex pairs, that are
    least in `pairs` order in their orbit under the group the packed n-byte
    permutations generate."""
    if not generators:
        return pairs
    perms = [generators[s:s + n] for s in range(0, len(generators), n)]
    leaders, seen = [], set()
    for e in pairs:
        if e in seen:
            continue
        leaders.append(e)  # the first member of its orbit met in order
        seen.add(e)
        stack = [e]
        while stack:
            u, v = stack.pop()
            for perm in perms:
                a, b = perm[u], perm[v]
                image = (a, b) if a < b else (b, a)
                if image not in seen:
                    seen.add(image)
                    stack.append(image)
    return leaders


def _next_level(level, k, budget):
    """Augment every representative by one C_k-preserving edge; dedup by
    canonical code.  A level maps canonical code -> (first graph met in the
    class, its automorphisms packed as n-byte permutations).

    A parent G first keeps the non-edges uv that have the largest degree sum
    in G+uv (`_EdgeKeys.degree_sum_passing`), which needs no orbit work.
    Automorphisms preserve degrees, so the kept non-edges are a union of
    orbits; G tries one of each orbit under its known automorphisms, the
    least.  A tried uv must then have the largest edge key in G+uv
    (`_EdgeKeys.largest`), as in McKay's canonical augmentation, and only
    then is the child tested for a k-cycle, built and labeled.  The key is
    invariant under isomorphism, so an orbit passes or fails as a whole.  No
    class is lost, even when the generators give only part of Aut(G); the
    argument holds for any edge key invariant under isomorphism:

    1. Take any C_k-free class C with m edges, and let d be an edge of C
       with the largest key.
    2. C - d is C_k-free, so by induction level m-1 holds a representative
       P with an isomorphism phi: C - d -> P.
    3. phi extends to an isomorphism C -> P + phi(d), and keys are
       invariant, so phi(d) has the largest key in P + phi(d).  A product h
       of P's generators maps phi(d) to the leader e of its orbit among the
       non-edges that pass the degree-sum test, so h is an automorphism of
       P with h(phi(d)) = e, and e has the largest key in P + e too.
    4. Then h.phi maps C onto P + e and d onto e, so P + e, being
       isomorphic to C, passes the C_k test.

    Which child is met first in a class depends on the order of the
    parents and their non-edges, so only the codes of a level are fixed."""
    out = {}
    for g, generators in level.values():
        keys = _EdgeKeys(g)
        for u, v in _orbit_leaders(g.n, keys.degree_sum_passing(), generators):
            budget.tick()
            if not keys.largest(u, v):
                continue  # another edge of the child has a larger key
            if k <= g.n and has_path(g, u, v, k - 1):
                continue  # the new edge would close a k-cycle
            child = g.with_edge(u, v)
            code, _, child_generators = canonical_form(child)
            if code not in out:
                out[code] = (child, b"".join(child_generators))
    return out


def check_search_args(n, k, budget_nodes, budget_secs):
    """Raise SearchError unless `enumerate_saturated` can run on these
    arguments; makes no graph and creates nothing."""
    if n < 1 or k < 3:
        raise SearchError("need n >= 1 and k >= 3")
    if n > MAX_CANON_VERTICES:
        raise SearchError(f"canonical labeling bounded to n <= {MAX_CANON_VERTICES}")
    if budget_nodes is not None and budget_nodes < 0:
        raise SearchError(f"node budget {budget_nodes} is negative")
    if budget_secs is not None and not budget_secs >= 0:
        raise SearchError(f"time budget {budget_secs} is not a nonnegative number")


def enumerate_saturated(n: int, k: int, budget_nodes=None,
                        budget_secs=None) -> SearchResult:
    """All minimum C_k-saturated graphs on n vertices, up to isomorphism.

    Runs the levelwise enumeration until the first edge count that admits a
    saturated graph, finishing that level so the class list is complete.
    That level always comes, unless the budget runs out first: a level with
    no saturated graph holds C_k-free graphs that are not saturated, so each
    has a non-edge that closes no k-cycle, and `_next_level`, being
    complete, gives a non-empty next level.  The edge count cannot pass
    C(n, 2), so some level holds a saturated graph.
    """
    check_search_args(n, k, budget_nodes, budget_secs)
    start = time.monotonic()
    budget = _Budget(budget_nodes, budget_secs)
    result = SearchResult(n, k, None)
    m_low = saturation_lower_bound(n)
    empty = Graph(n, [0] * n)
    code, _, generators = canonical_form(empty)
    level = {code: (empty, b"".join(generators))}
    result.level_sizes[0] = 1
    try:
        if n == 1:  # K_1 has no non-edge to test
            result.min_edges = 0
            result.graphs = [empty]
        m = 0
        while result.min_edges is None:
            m += 1
            level = _next_level(level, k, budget)
            result.level_sizes[m] = len(level)
            if m >= m_low:
                # level graphs are C_k-free by construction: only the
                # witnesses are left to test
                hits = [g for _, (g, _) in sorted(level.items())
                        if witness_scan(g.adj, k)]
                if hits:
                    result.min_edges = m
                    result.graphs = [canonical_graph(g) for g in hits]
    except BudgetExhausted:
        result.status = "budget-exhausted"
    result.nodes = budget.spent
    result.elapsed = time.monotonic() - start
    return result


def min_saturated_edges(n: int, k: int, **kw) -> int:
    res = enumerate_saturated(n, k, **kw)
    if res.status != "complete":
        raise SearchError(f"search incomplete for n={n}, k={k}: {res.status}")
    return res.min_edges


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

RESULTS_DIR = Path("search-results")  # relative to the working directory


def result_path(n: int, k: int, outdir=RESULTS_DIR) -> Path:
    """The file that holds the minimum C_k-saturated graphs on n vertices."""
    return Path(outdir) / f"sat_{n}_{k}.g6"


def save_result(result: SearchResult, outdir) -> Path:
    """Write the minimum graphs to `result_path` under `outdir`."""
    path = result_path(result.n, result.k, outdir)
    path.parent.mkdir(parents=True, exist_ok=True)
    write_graph6_file(path, result.graphs)
    return path


def summary_table(results) -> str:
    lines = [f"{'n':>4} {'k':>3} {'sat':>5} {'classes':>8} {'status':>18} {'nodes':>10}"]
    for r in results:
        sat = r.min_edges if r.min_edges is not None else "-"
        lines.append(
            f"{r.n:>4} {r.k:>3} {sat!s:>5} {len(r.graphs):>8} "
            f"{r.status:>18} {r.nodes:>10}"
        )
    return "\n".join(lines)
