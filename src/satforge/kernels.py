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
  closed by the edge back. It walks from each u into its neighbors above u, with the
  vertices below u banned: the least vertex of a k-cycle is such a u, and
  its cycles use no vertex below it. It walks each such cycle one way: it
  enters each first vertex a itself, then walks on only into the targets
  below a.

Labels. Only :func:`saturation_scan`, the audit's certifying scan,
relabels: it runs :func:`witness_scan` on the rows sorted by ascending
degree, so that each non-edge is walked from its end of lower degree and
hubs are entered last; a yes-or-no answer does not depend on the labels.
The rest keep the input labels. The witnesses of
``saturation.check_saturated`` and the cycle of :func:`least_cycle` are the
least ones in those labels, so a relabelled walk would find others. The
search's own :func:`witness_scan` calls run on small graphs, where the
relabelling cost more than it saved (10.0 -> 15.0 ms over the 1,364 scans
of one n = 9 search).

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


def _degree_sorted(adj):
    """A copy of the rows relabelled by a stable ascending-degree sort: the
    i-th vertex of that order becomes vertex i."""
    order = sorted(range(len(adj)), key=lambda v: adj[v].bit_count())
    bit = [0] * len(adj)  # bit[v]: v's new label as a one-bit mask
    for i, v in enumerate(order):
        bit[v] = 1 << i
    rows = []
    for v in order:
        row, new = adj[v], 0
        while row:
            low = row & -row
            row ^= low
            new |= bit[low.bit_length() - 1]
        rows.append(new)
    return rows


def saturation_scan(adj, k) -> bool:
    """True iff the graph is C_k-saturated: C_k-free, with a witness path
    for every non-edge.

    :func:`least_cycle` runs on the input rows, :func:`witness_scan` on a
    copy relabelled in ascending degree order (:func:`_degree_sorted`).
    Whether every non-edge has a witness does not depend on the labels,
    and after the relabelling each non-edge (u, v > u) is walked from its
    end of lower degree, and the walk tries hubs last.  On the audit's
    inputs, where a few hubs meet many vertices of degree 2 or 3, that
    about halves the four-edge body's middle loops on the family and cuts
    them by a quarter on random saturated graphs, for one pass over the
    rows."""
    return least_cycle(adj, k) is None and witness_scan(_degree_sorted(adj), k)
