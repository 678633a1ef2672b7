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
witnesses.  It runs from m = n-1 upward (a saturated graph is connected), on
each new class as it is labeled, so the first level holding a saturated
graph gives sat(n, C_k).  For k >= 4 the leaf lemma
(`saturation.leaf_obstruction`) settles most of these tests first: a class
with an isolated vertex, two leaves at one vertex, or a leaf whose neighbour
has degree at most 2 misses a witness, and the walk runs only on the rest.

Every level is expanded in shares by p participants: the process and one
forked worker per extra CPU it may run on, with at least `MIN_SHARE`
parents each (p = 1, no fork, for a small level or under `taskset -c 0`).
Each expands every p-th parent, scans the new classes it finds for
witnesses, and the workers send their children back through pipes.  Merged
by parent index, keeping the first child met per canonical code, the shares
give the same representatives in the same order as one sequential pass, so
`nodes`, the level sizes and the graph6 output do not depend on the CPU
count.

The module enumerates and writes no file: `satforge.cli` saves the results.
"""

from __future__ import annotations

import heapq
import os
import threading
import time
from dataclasses import dataclass, field
from operator import itemgetter

from . import kernels
from .graph import Graph, GraphError, vertex_list
from .saturation import leaf_obstruction

MAX_CANON_VERTICES = 16


class SearchError(GraphError):
    pass


class BudgetExhausted(SearchError):
    """Raised internally when a node or time budget runs out mid-level."""


class EmptyLevelError(RuntimeError):
    """An internal error, not a usage error: an augmentation level came out
    empty, which the completeness argument of `enumerate_saturated` rules
    out, so classes were lost."""


# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------

def _refine(adj, cells, splitters):
    """Stable equitable refinement of an ordered partition, in place: each
    cell is the bitmask of its vertices.

    Each pass splits every cell by its members' neighbor counts in the cells
    of the partition the pass started from, `(adj[v] & mask).bit_count()`:
    groups in descending order of that count vector.  Order within a cell is
    never read.  Every cell lies inside one degree class, so two members'
    count vectors have the same sum, and descending count vectors order them
    exactly as ascending sorted tuples of neighbor cell indices would.  With
    several splitters the vector is packed into one int, five bits a count:
    a count is at most n - 1 <= 15, so descending ints order the groups as
    descending vectors do.  When the one splitter is a vertex w, as after
    every individualization, a cell c splits into c & adj[w], then
    c & ~adj[w], with no loop over its members.

    `splitters` are the masks of the cells that the last split created, in
    partition order, less the last group of each split cell.  Members of one
    cell agree on every other count (the cell they came from, and the last
    group, follow from the rest), so only these counts can order them.
    """
    while splitters:
        splits = []
        if len(splitters) == 1 and not splitters[0] & splitters[0] - 1:
            near = adj[splitters[0].bit_length() - 1]
            for i, cell in enumerate(cells):
                inside = cell & near
                if inside and inside != cell:
                    splits.append((i, [inside, cell ^ inside]))
        else:
            for i, cell in enumerate(cells):
                if not cell & cell - 1:
                    continue
                groups = {}
                rest = cell
                while rest:
                    low = rest & -rest
                    rest ^= low
                    row = adj[low.bit_length() - 1]
                    sig = 0
                    for m in splitters:
                        sig = sig << 5 | (row & m).bit_count()
                    groups[sig] = groups.get(sig, 0) | low
                if len(groups) > 1:
                    splits.append((i, [groups[sig]
                                       for sig in sorted(groups, reverse=True)]))
        if not splits:
            break
        for i, parts in reversed(splits):
            cells[i:i + 1] = parts
        splitters = [part for _, parts in splits for part in parts[:-1]]


def _is_twin_cell(adj, cell, members):
    """All `members` of the cell mask `cell` share one external neighborhood
    and induce an empty or complete graph; any ordering of the cell is then
    automorphic.  The test is symmetric in the members: a complete cell has
    every row | its own bit equal, an empty one every row equal."""
    first = adj[members[0]]
    if first & cell:
        full = first | 1 << members[0]
        return all(adj[v] | 1 << v == full for v in members)
    return all(adj[v] == first for v in members)


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

    def search(self, cells, splitters, prefix):
        """Refine, then record a leaf or branch on the first non-singleton
        cell.  The partition was equitable before the cells split off here,
        so only those can split others (see `_refine`).  `prefix` is the mask
        of the vertices individualized on the way here.

        A twin cell is individualized whole, its members in ascending order,
        with no refinement after it: the partition stays equitable.  Its
        members share one external neighborhood, so a vertex outside it is
        adjacent to all of them or to none, and the members of another cell,
        having equal counts in it, all are or all are not.  So no new
        singleton splits a cell, and the next non-singleton cell is taken at
        once.

        A sibling v is skipped when a known automorphism g fixing `prefix`
        pointwise (a product of such generators) maps an explored sibling w
        to v.  g fixes this node's partition, so it maps w's subtree onto
        v's, leaf for leaf with equal codes (the twin shortcut may order a
        twin cell differently, but a twin swap is an automorphism too).
        Every code of v's subtree was met first under w, so the first best
        leaf, and with it the code and ordering, does not change."""
        adj = self.adj
        _refine(adj, cells, splitters)
        split_at = 0
        while True:
            for split_at in range(split_at, len(cells)):
                cell = cells[split_at]
                if cell & cell - 1:
                    break
            else:
                self.leaf([c.bit_length() - 1 for c in cells])
                return
            members = vertex_list(cell)
            if not _is_twin_cell(adj, cell, members):
                break
            self.twins(members)
            cells[split_at:split_at + 1] = [1 << v for v in members]
            prefix |= cell
            split_at += len(members)
        head, tail = cells[:split_at], cells[split_at + 1:]
        explored = 0
        for v in members:
            if explored and self.covered(v, explored, prefix):
                continue
            self.search(head + [1 << v, cell ^ 1 << v] + tail, [1 << v],
                        prefix | 1 << v)
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
    of_degree = [0] * g.n  # degree -> mask of the vertices with it
    for v, row in enumerate(g.adj):
        of_degree[row.bit_count()] |= 1 << v
    cells = [cell for cell in of_degree if cell]
    lab = _Labeler(g)
    lab.search(cells, cells[:-1], 0)  # degree classes split V
    return lab.code, lab.order, list(lab.generators)


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
    return canonical_form(a)[0] == canonical_form(b)[0]


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

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
    to the k-cycle test and, if it passes both, augmented and labeled.

    A level's participants each get a copy of this budget, so each has the
    nodes left as its cap and the same deadline.  `settle` then adds up
    their ticks: a sum past the budget, or one participant out of nodes,
    means a sequential pass would have stopped inside this level at the
    budget's last node, so the count is the budget, as it is with one
    participant."""

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

    def settle(self, spent, outcomes):
        """Count the nodes that participants each starting from `spent`
        ticked in all, from their `_expand` outcomes in participant order,
        and raise BudgetExhausted if one ran out (with the first message) or
        they ticked more than the node budget."""
        self.spent = spent + sum(ticks for ticks, _, _ in outcomes)
        reason = next((msg for _, _, msg in outcomes if msg is not None), None)
        if self.nodes is not None and self.spent > self.nodes:
            self.spent = self.nodes
            reason = "node budget exhausted"
        if reason is not None:
            raise BudgetExhausted(reason)


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
    parents and their non-edges, so only the codes of a level are fixed.

    The parents are split among the participants (see `_participants`), the
    i-th taking every p-th parent from the i-th; one participant takes them
    all.  Each share lists its children in the order met, so merging the
    shares by parent index gives the order of one sequential pass, and
    keeping the first child per code keeps the representative and the
    insertion order that pass keeps.

    Returns (level, hits): `hits` are the new level's representatives that
    have every witness, in ascending canonical code, as the shares flagged
    them.  Saturation is invariant under isomorphism, so the flag of the
    child that wins the merge is the flag of every child of its class."""
    parents = list(level.values())
    shares = _shares(parents, k, _participants(len(parents)), budget)
    out, saturated = {}, []
    for i, code, u, v, generators, hit in heapq.merge(*shares, key=itemgetter(0)):
        if code not in out:
            out[code] = (parents[i][0].with_edge(u, v), generators)
            if hit:
                saturated.append(code)
    return out, [out[code][0] for code in sorted(saturated)]


def _expand(parents, k, start, step, budget):
    """One participant's share of a level, as (ticks, share, None), or as
    (ticks, None, message) if `budget` ran out; `ticks` counts the non-edges
    tried.  The share lists the children of `parents[start::step]` (see
    `_next_level`) as (parent index, code, u, v, packed generators, hit) for
    the first child G+uv met in each class, in the order met: ints, bytes and
    a bool, which a worker sends as they are, and no graph, which a child
    that loses the merge would hold in memory for nothing.  `hit` says
    whether the child has every witness, tested only once it has n - 1
    edges: a C_k-saturated graph is connected, since an edge between two
    components would close no cycle.  A child that `leaf_obstruction`
    rules out is no hit, and its witnesses are not walked."""
    spent = budget.spent
    found, seen = [], set()
    try:
        for i in range(start, len(parents), step):
            g, generators = parents[i]
            keys = _EdgeKeys(g)
            for u, v in _orbit_leaders(g.n, keys.degree_sum_passing(), generators):
                budget.tick()
                if not keys.largest(u, v):
                    continue  # another edge of the child has a larger key
                if k <= g.n and kernels.has_path(g.adj, u, v, k - 1):
                    continue  # the new edge would close a k-cycle
                child = g.with_edge(u, v)
                code, _, child_generators = canonical_form(child)
                if code not in seen:
                    seen.add(code)
                    # level graphs are C_k-free by construction: only the
                    # witnesses are left to test, unless the leaves already
                    # show one missing (tested here, not in witness_scan:
                    # the audit's saturated inputs would never trip it)
                    hit = (child.edge_count >= child.n - 1
                           and not leaf_obstruction(child, k)
                           and kernels.witness_scan(child.adj, k))
                    found.append((i, code, u, v, b"".join(child_generators), hit))
    except BudgetExhausted as exc:
        return budget.spent - spent, None, str(exc)
    return budget.spent - spent, found, None


# A level is split only if every participant gets at least this many
# parents.  On a 2-vCPU Xeon VM a worker's fork, pipe and merge cost about
# 2.7 ms and a parent at n = 9 about 0.2 ms to expand, so a share of 50
# saves about 10 ms; much smaller shares would save less than the fork costs.
MIN_SHARE = 50


def _cpu_count():
    """The CPUs this process may run on, 1 where it cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _participants(size):
    """How many processes expand a level of `size` parents: one per
    available CPU, with at least `MIN_SHARE` parents each, and one while
    the process runs other threads (a forked child holds only the calling
    thread, and a lock another thread held would stay held in it)."""
    if threading.active_count() > 1:
        return 1
    return max(1, min(_cpu_count(), size // MIN_SHARE))


def _shares(parents, k, p, budget):
    """The shares of `p` participants: this process takes share 0 and a
    forked worker each other one (none when p is 1), which sends its
    `_expand` outcome back through a pipe.  Every participant starts from
    this budget, so each has the remaining nodes as its cap and the same
    deadline; `_Budget.settle` then counts their ticks together.  Every
    worker is reaped before this returns or raises."""
    import pickle
    import signal

    spent = budget.spent
    workers = {}  # pid -> read end of its pipe
    try:
        for start in range(1, p):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                _work(w, parents, k, start, p, budget)  # does not return
            os.close(w)
            workers[pid] = open(r, "rb")
        outcomes = [_expand(parents, k, 0, p, budget)]
        for pid in list(workers):
            data = workers[pid].read()
            workers[pid].close()
            _, status = os.waitpid(pid, 0)
            del workers[pid]
            if status != 0:
                raise RuntimeError(f"search worker {pid} died with wait status {status}")
            outcome = pickle.loads(data)
            del data
            if isinstance(outcome, str):
                raise RuntimeError(f"search worker {pid} failed:\n{outcome}")
            outcomes.append(outcome)
        budget.settle(spent, outcomes)
        return [share for _, share, _ in outcomes]
    finally:
        # close before the wait, so that no worker waits on a full pipe
        for pid, reader in workers.items():
            reader.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _work(w, parents, k, start, step, budget):
    """A forked worker's life: expand its share, write the outcome to the
    pipe end `w` and exit, never returning into the caller's stack.  The
    outcome is the tuple `_expand` returns, or the traceback text of any
    other exception; the exit status is 0 only once it is written."""
    status = 1
    try:
        import pickle

        try:
            outcome = _expand(parents, k, start, step, budget)
        except BaseException:
            import traceback

            outcome = traceback.format_exc()
        with open(w, "wb") as pipe:
            pipe.write(pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL))
        status = 0
    finally:
        os._exit(status)


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
    The witness scans run in the shares of `_next_level`, and its hits, in
    canonical-code order, are the answer; K_1 is the initial level's.
    That level always comes, unless the budget runs out first: a level with
    no saturated graph holds C_k-free graphs that are not saturated, so each
    has a non-edge that closes no k-cycle, and `_next_level`, being
    complete, gives a non-empty next level.  The edge count cannot pass
    C(n, 2), so some level holds a saturated graph.  An empty level would
    mean lost classes; it raises `EmptyLevelError`.
    """
    check_search_args(n, k, budget_nodes, budget_secs)
    start = time.monotonic()
    budget = _Budget(budget_nodes, budget_secs)
    result = SearchResult(n, k, None)
    empty = Graph(n, [0] * n)
    code, _, generators = canonical_form(empty)
    level = {code: (empty, b"".join(generators))}
    hits = [empty] if n == 1 else []  # K_1 has n - 1 edges and no non-edge
    result.level_sizes[0] = 1
    m = 0
    try:
        while not hits:
            m += 1
            level, hits = _next_level(level, k, budget)
            if not level:
                # every later level would be empty too, and with no node to
                # tick no budget would end the loop
                raise EmptyLevelError(f"level m = {m} is empty: classes were lost")
            result.level_sizes[m] = len(level)
        result.min_edges = m
        result.graphs = [canonical_graph(g) for g in hits]
    except BudgetExhausted:
        result.status = "budget-exhausted"
    result.nodes = budget.spent
    result.elapsed = time.monotonic() - start
    return result
