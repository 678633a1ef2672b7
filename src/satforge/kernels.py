"""Bitset path search: the one DFS behind every path, cycle and saturation test.

Adjacency is passed as a sequence of per-vertex neighbor bitmasks (vertex
``w`` is a neighbor of ``v`` iff bit ``w`` of ``adj[v]`` is set).

The walk. Every query walks the simple paths from one source u with exactly
``length`` edges into a mask T of targets; inner vertices avoid u and a
``banned`` mask. The walk is depth first and tries neighbors in ascending
order, so it meets the prefixes (u, ..., c) in lexicographic order; at each
prefix of ``length - 1`` edges it takes every target adjacent to c and not on
the prefix as the final vertex. Every path to a fixed target v ends in v, so
the paths to v are ordered by their prefixes: the first one met is the
lexicographically least u-v path.

- :func:`least_paths` is the one query: it records that first path for each
  target and stops once every target is reached. The rest run its walk.
  :func:`has_path` walks into the one target T = {v}.
  :func:`witness_walks` walks from each u, from 0 up, with u's
  non-neighbours above u as T, and ``saturation.check_saturated`` reads
  its walks in that order; :func:`witness_scan` runs the same walks from
  n - 1 down and stops at the first miss.
- The walk never reaches u, so a path query with u == v finds nothing.
  Cycles go through :func:`least_cycle` alone, behind
  :func:`saturation_scan` and ``saturation.contains_cycle``: a cycle of k
  edges through u is a path of k - 1 edges from u to a neighbor of u,
  closed by the edge back. It walks from each u into its neighbors above
  u, with the vertices below u banned: the least vertex of a k-cycle is
  such a u, and its cycles use no vertex below it.

Labels. Only :func:`saturation_scan`, the audit's certifying scan,
relabels: it runs :func:`least_cycle` and :func:`witness_scan` on one set
of rows, its quotient (see Threads) sorted by ascending degree, so that
each non-edge is walked from its end of lower degree and hubs are entered
last; a yes-or-no answer does not depend on the labels. The rest keep the
input labels. The witnesses of ``saturation.check_saturated`` and the cycle
of ``saturation.contains_cycle`` are the least ones in those labels, so a
relabelled walk would find others. The search's own :func:`witness_scan`
calls run on small graphs, where the relabelling cost more than it saved
(10.0 -> 15.0 ms over the 1,364 scans of one n = 9 search).

Pruning. Call a vertex allowed when it may be inner: neither banned nor u.
Let U[0] = T, and let U[j+1] be the allowed vertices of the union of adj[x]
over the vertices x of U[j]. From an inner vertex w with j edges still to
go, the rest of a path into T is a walk of j edges into T through allowed
vertices, so w is in U[j]. The walk enters w only when w is in U[j]: it cuts
no answer and meets the answers in the same order, for one target or many,
and for cycles alike. The walk takes its last four edges in one call: a
loop over the candidates in U[3], inside it a loop over each one's
candidates in U[2], and inside that a loop over theirs in U[1], where the
targets adjacent to the candidate and off the path are taken at once; near
the end of a walk a vertex has one or two candidates, so a call for each
would cost more than the work it does. Any other length recurses, an edge a
call, down to a one-edge base. A C_6 path query walks five edges: one
recursion step, then the four-edge body; the C_6 cycle test enters the
four-edge body straight from each path (u, a). Only a walk of one to three
edges, for k <= 4, reaches the base.

Any superset of U[j] in its place still cuts no answer and keeps the order,
since the walk then enters every vertex it entered before and finds the
same paths first; it only prunes less. :func:`least_paths` builds its masks
from the targets. One target v is never an inner vertex of a path to v, so
it is not allowed either, and every U[j] is built, up to the U[length-1]
that u's neighbors are tested against. With several targets only U[1] is
built, the allowed vertices of the union of adj[v] over the targets v, and
every later mask is the set of allowed vertices: U[2] and beyond hold
nearly every allowed vertex, so building them cost more than they pruned.
:func:`witness_walks` builds no mask from the targets. Its targets are
vertices above u, so it takes as U[1] the union of adj[v] over every v > u,
for one target or many: all of them from one suffix pass over the rows (one
row more each source in :func:`witness_scan`, which walks down), where the
targets' own union costs a row for each target. Every later
mask holds every vertex: u and the path are in the visited mask, which
every candidate test removes, and nothing is banned.

Threads. Call a path whose inner vertices all have degree 2, between two
distinct ends, a thread, and the threads with the same two ends and the
same length a class. Two threads of one class share no inner vertex: from a
shared one, both run along the same degree-2 vertices to the same ends.
So swapping two threads of one class, inner vertex for inner vertex from
the same end, is an automorphism that fixes every other vertex. A path or
cycle through an inner vertex of a thread, other than at a path's own
ends, runs the thread's full length, as that vertex has degree 2. The
quotient is the graph induced on the input less the inner vertices of every
thread beyond the first three of each class. For every k, it has a witness
for each of its non-edges iff the input has one for each of its own, and it
is C_k-free iff the input is:

- Let P be a witness of the input for a non-edge uv of the quotient. P
  meets each end once, so it runs at most one thread of a class and
  touches no other but the ones that hold u and v. One of the three kept
  threads is therefore untouched: swapping it with a dropped one that P
  runs fixes u and v and moves no thread of another class. Class by
  class, P maps into the quotient.
- If the quotient has them, let uv be a non-edge of the input. Swap each
  dropped thread that holds u or v with a kept thread of its class that
  holds neither, two distinct kept ones when u and v lie on two dropped
  threads of one class. That maps uv onto a non-edge of the quotient, and
  the inverse swap maps its witness back to a witness for uv.
- A k-cycle of the quotient is one of the input. A k-cycle C of the input
  meets each end once, so it runs at most two threads of a class and
  touches no other. If it runs d dropped ones, it touches at most 2 - d
  kept ones, so swapping each dropped one with a distinct untouched kept
  one maps C, class by class, into the quotient.

On a C_6-saturated graph each non-edge has a witness of 5 edges, which
bounds the threads; the scan does not rely on these bounds.

- (T1) A thread a-v_1-...-v_t-b has t <= 5: for t >= 3, a witness for the
  non-edge v_1v_3 runs through a, an a-b path of L >= 1 edges off the
  thread and v_t, ..., v_3, so 5 = 1 + L + t - 2 >= t. A loop thread, a
  cycle through a whose other t vertices have degree 2, has t <= 2, which
  makes it a pendant triangle, the audit's T_2 pair: two of its inner
  vertices d apart are joined by paths of d and t + 1 - d edges only, so
  t = 3 fails at d = 2, and t >= 4 needs t - 1 = 5 and t - 2 = 5 at once.
- (T2) Two threads of one class have l <= 3 inner vertices, and l = 3 only
  when their ends a and b are adjacent. a's neighbours v_1 and w_1 on them
  are not adjacent, and a v_1-w_1 path runs through a (2 edges), through b
  along both threads (2l edges, never 5), or along one thread, over an a-b
  path of L >= 1 edges off both and back along the other (l + 1 + L
  edges). So l + 1 + L = 5: l <= 3, and L = 1 when l = 3.

:func:`saturation_scan` runs both walks on the quotient. The family member
n >= 18 has n // 3 - 2 threads of four edges between its two hubs, the
core's and the pendant paths, so its quotient keeps 15 + n mod 3 vertices:
its scan stops growing with n. A graph with no class of four threads is its
own quotient.
"""

from __future__ import annotations

BACKEND = "python"


def _neighborhood(adj, mask):
    """The union of adj[x] over the vertices x of `mask`."""
    out = 0
    while mask:
        low = mask & -mask
        mask ^= low
        out |= adj[low.bit_length() - 1]
    return out


def _masks(adj, u, length, targets, banned):
    """U[0..length-1] for a walk of `length` >= 1 edges from u into the mask
    `targets` (see the module docstring)."""
    allowed = ~(banned | 1 << u)
    if targets & (targets - 1):  # several targets: U[1] only
        u1 = _neighborhood(adj, targets) & allowed
        return [targets, u1] + [allowed] * (length - 2)
    masks = [targets]
    allowed &= ~targets
    for _ in range(1, length):
        masks.append(_neighborhood(adj, masks[-1]) & allowed)
    return masks


def _record(out, prefix, ends):
    """Store out[v] = prefix + (v,) for each vertex v of the mask `ends`;
    `prefix` is a tuple."""
    while ends:
        low = ends & -ends
        ends ^= low
        v = low.bit_length() - 1
        out[v] = prefix + (v,)


def _walk(adj, masks, visited, path, left, remaining, out):
    """Extend `path` (its vertices are `visited`) by `left` >= 1 edges into the
    target mask `remaining`, recording in `out` (when not None) the first path
    met to each target. Returns the targets still unreached.

    The last four edges are taken in one body of nested loops; any other
    `left` recurses, down to a one-edge base."""
    if left == 1:
        hit = adj[path[-1]] & remaining & ~visited
        if hit and out is not None:
            _record(out, tuple(path), hit)
        return remaining ^ hit
    cand = adj[path[-1]] & masks[left - 1] & ~visited
    if left != 4:
        while cand:
            low = cand & -cand
            cand ^= low
            path.append(low.bit_length() - 1)
            remaining = _walk(adj, masks, visited | low, path, left - 1, remaining, out)
            path.pop()
            if not remaining:
                return 0
        return remaining
    u1, u2 = masks[1], masks[2]
    pre = ()  # tuple(path), built at the first path recorded
    while cand:
        low = cand & -cand
        cand ^= low
        w = low.bit_length() - 1
        free = ~(visited | low)
        cand2 = adj[w] & u2 & free
        while cand2:
            low2 = cand2 & -cand2
            cand2 ^= low2
            x = low2.bit_length() - 1
            free2 = free & ~low2
            cand3 = adj[x] & u1 & free2
            while cand3:
                low3 = cand3 & -cand3
                cand3 ^= low3
                y = low3.bit_length() - 1
                hit = adj[y] & remaining & free2
                if hit:
                    if out is not None:
                        pre = pre or tuple(path)
                        if hit & (hit - 1):
                            _record(out, pre + (w, x, y), hit)
                        else:
                            v = hit.bit_length() - 1
                            out[v] = pre + (w, x, y, v)
                    remaining ^= hit
                    if not remaining:
                        return 0
    return remaining


def least_paths(adj, u, length, targets, banned=0, out=None) -> int:
    """For each vertex v of the mask `targets`, the lexicographically least
    simple u-v path with exactly `length` edges and no inner vertex in
    `banned`, found in one walk from u. Each path is stored as ``out[v]``
    when `out` (a dict, or a list of n slots) is given; in a list, only the
    slots of found targets are written, so a caller reads the paths at the
    targets not in the returned mask. Returns the mask of targets with no
    such path; u itself is never reached. A walk of four or more edges ends
    in :func:`_walk`'s four-edge body, a shorter one in its one-edge base."""
    if not targets or not 0 < length < len(adj):
        return targets
    masks = _masks(adj, u, length, targets, banned)
    return _walk(adj, masks, 1 << u, [u], length, targets, out)


def has_path(adj, u, v, length) -> bool:
    """True iff a simple path with exactly `length` edges joins u != v (the
    walk never reaches u itself)."""
    return not least_paths(adj, u, length, 1 << v)


def least_cycle(adj, k):
    """A witness k-cycle as the vertex tuple (u, ..., v) of a path of k-1
    edges closed by the edge vu, or None.  u is the least vertex on any
    k-cycle, v the least neighbor of u above u that a walk from u reaches,
    with the vertices below u banned, and the path the least u-v one.

    Each cycle is walked one way.  For each u the masks are built once, for
    the targets T = u's neighbors above u; then each first vertex a of T, in
    ascending order, is walked into the targets below a that are below every
    target found so far, and u is done once none is left.  This finds the
    same cycle.  A cycle through its least vertex u leaves u by two
    neighbors p < q, so the least target v reached is such a p.  Were a u-v
    path to start at a vertex a below v, its reverse would reach the target
    a below v: a contradiction.  So every u-v path starts above v, every
    walk from a first vertex above v seeks v until it is found, and the
    first a that reaches v records the least u-v path."""
    if k < 3:
        return None
    out = [None] * len(adj)
    for u in range(len(adj) - k + 1):
        above = adj[u] & -(2 << u)
        if above & (above - 1):  # a cycle leaves its least vertex upward twice
            masks = _masks(adj, u, k - 1, above, (1 << u) - 1)
            sought, least = above, 0
            firsts = above & (above - 1)  # the least target has none below it
            while firsts and sought:
                low = firsts & -firsts
                firsts ^= low
                targets = sought & (low - 1)
                if targets:
                    path = [u, low.bit_length() - 1]
                    found = targets ^ _walk(adj, masks, 1 << u | low, path,
                                            k - 2, targets, out)
                    if found:
                        least = found & -found
                        sought &= least - 1
            if least:
                return out[least.bit_length() - 1]
    return None


def non_neighbors_above(adj, u) -> int:
    """The mask of vertices v > u not adjacent to u: u's non-edges (u, v)."""
    return ~adj[u] & ((1 << len(adj)) - (2 << u))


def witness_walks(adj, length, out=None):
    """Walk from each source u, from 0 up to n - 1, into the mask
    ``non_neighbors_above(adj, u)`` of targets, and yield ``(u, missed)``:
    the mask of targets that ``least_paths(adj, u, length, targets, 0,
    out)`` misses, with the same paths stored in `out`.  A caller reads u's
    paths before it asks for the next source, which may overwrite them.

    Each walk takes as U[1] the union of adj[v] over every v > u, a superset
    of the targets' own union, all of them from one suffix pass (see the
    module docstring).  With no target, or `length` outside 2..n-1, where no
    walk reaches a non-neighbour, a source runs no walk and misses every
    target."""
    n = len(adj)
    masks = [0, 0] + [-1] * (length - 2)  # u is in `visited`: no mask drops it
    above = [0] * n  # above[u]: the union of adj[v] over the sources v > u
    for u in range(n - 1, 0, -1):
        above[u - 1] = above[u] | adj[u]
    for u in range(n):
        targets = missed = non_neighbors_above(adj, u)
        if targets and 1 < length < n:
            masks[1] = above[u]
            missed = _walk(adj, masks, 1 << u, [u], length, targets, out)
        yield u, missed


def witness_scan(adj, k) -> bool:
    """True iff every non-edge uv is joined by a path of k-1 edges, so that
    adding it closes a k-cycle.  It does not test C_k-freeness: on a
    C_k-free graph, True means C_k-saturated.

    It runs the walks of :func:`witness_walks`, storing no path, but from
    source n - 1 down, and stops at the first miss.  A graph that is not
    saturated mostly misses at several sources, and a miss walks every path
    the masks let through: near n - 1, where U[1] unites a few rows, that
    costs far less than at source 0, where it unites nearly all of them."""
    n, length = len(adj), k - 1
    masks = [0, 0] + [-1] * (length - 2)
    above = 0  # the union of adj[v] over the sources v > u
    for u in range(n - 1, -1, -1):
        targets = non_neighbors_above(adj, u)
        if targets:
            masks[1] = above
            if not 1 < length < n or _walk(adj, masks, 1 << u, [u], length,
                                           targets, None):
                return False
        above |= adj[u]
    return True


def _surplus_threads(adj) -> int:
    """The mask of inner vertices of every thread beyond the first three of
    its class (see Threads in the module docstring); 0 when no class has
    four.

    No class has two threads of one edge, so only a vertex with at least
    four degree-2 neighbours can end a class of four. Each such u walks
    from each of them, in ascending order, along degree-2 vertices to the
    first vertex of another degree, the thread's other end; a walk back to
    u is a cycle, not a thread. Each thread is counted from its lower end
    alone, and the threads of a class in the order of their first inner
    vertices."""
    deg2 = 0
    for v, row in enumerate(adj):
        if row.bit_count() == 2:
            deg2 |= 1 << v
    surplus = 0
    for u, row in enumerate(adj):
        legs = row & deg2
        if legs.bit_count() < 4:  # no class of four ends at u
            continue
        u_bit = 1 << u
        counts = {}  # (end, vertex count) -> threads counted so far
        while legs:
            low = legs & -legs
            legs ^= low
            step, seen = low, low | u_bit
            while step & deg2:  # step: the walk's newest vertex, one bit
                step = adj[step.bit_length() - 1] & ~seen
                seen |= step
            if step > u_bit:  # not a cycle back to u, nor counted from below
                key = (step, seen.bit_count())
                count = counts[key] = counts.get(key, 0) + 1
                if count > 3:
                    surplus |= seen ^ step ^ u_bit
    return surplus


def _degree_sorted(adj, kept):
    """The rows of the vertices of the mask `kept`, each less its neighbours
    outside it, relabelled by a stable ascending-degree sort of those rows:
    the i-th vertex of that order becomes vertex i. A mask that keeps
    every vertex copies no row before the sort."""
    n = len(adj)
    rows, vertices = adj, range(n)
    if ~kept & ((1 << n) - 1):
        rows = [row & kept for row in adj]
        vertices = [v for v in vertices if kept >> v & 1]
    degree = [row.bit_count() for row in rows]
    order = sorted(vertices, key=degree.__getitem__)
    bit = [0] * n  # bit[v]: v's new label as a one-bit mask
    for i, v in enumerate(order):
        bit[v] = 1 << i
    out = []
    for v in order:
        row, new = rows[v], 0
        while row:
            low = row & -row
            row ^= low
            new |= bit[low.bit_length() - 1]
        out.append(new)
    return out


def saturation_scan(adj, k) -> bool:
    """True iff the graph is C_k-saturated: C_k-free, with a witness path
    for every non-edge.

    :func:`least_cycle` and :func:`witness_scan` run on one set of rows:
    the quotient (:func:`_surplus_threads`, see Threads in the module
    docstring), relabelled in ascending degree order
    (:func:`_degree_sorted`, see Labels). On the audit's inputs, where a
    few hubs meet many vertices of degree 2 or 3, the relabelling about
    halved the four-edge body's middle loops on the unreduced family and
    cut them by a quarter on random saturated graphs, for one pass over the
    rows."""
    rows = _degree_sorted(adj, ~_surplus_threads(adj))
    return least_cycle(rows, k) is None and witness_scan(rows, k)
