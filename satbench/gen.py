"""Seeded input generator for the satforge benchmark.

Builds every input from scratch, independently of the package under test, so
that two commits are always measured on byte-identical graph6 records:

* ``family_member(n)``: the extremal C_6-saturated family (a 9-vertex core plus
  pendant 3-vertex paths between two hubs, and a K_1 or K_2 on y4 when
  n is not divisible by 3);
* ``random_saturated(rng, n)``: the random C_6-saturation process: visit the
  vertex pairs in shuffled order and add each one unless it would close a
  6-cycle.  The result is C_6-free and maximal, hence C_6-saturated;
* ``derive(rng, graphs, count)``: inputs with a known verdict made from
  saturated graphs: half lose one edge (``missing-witness``), half gain one
  non-edge (``not-free``).

Graphs are lists of neighbour bitmasks.
"""

from __future__ import annotations

import random

CYCLE = 6

# core of the family on x1 x2 y1 y2 y3 y4 a0 b0 c0 = 0..8
_CORE_EDGES = ((0, 1), (0, 2), (0, 3), (0, 6), (1, 4), (1, 5), (1, 8),
               (2, 3), (3, 4), (3, 5), (6, 7), (7, 8))


def family_member(n: int) -> list:
    if n < 9:
        raise ValueError("the family starts at n = 9")
    t, eps = divmod(n, 3)
    edges = list(_CORE_EDGES)
    nid = 9
    for _ in range(t - 3):
        a, b, c = nid, nid + 1, nid + 2
        edges += [(a, b), (b, c), (0, a), (1, c)]
        nid += 3
    for j in range(eps):
        edges.append((5, nid + j))
    if eps == 2:
        edges.append((nid, nid + 1))
    return from_edges(n, edges)


def from_edges(n: int, edges) -> list:
    rows = [0] * n
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return rows


def has_path(adj, u: int, v: int, length: int) -> bool:
    """True iff a simple u-v path with exactly `length` edges exists."""
    vbit = 1 << v

    def dfs(cur, visited, left):
        if left == 1:
            return bool(adj[cur] & vbit)
        cand = adj[cur] & ~visited & ~vbit
        while cand:
            low = cand & -cand
            cand ^= low
            if dfs(low.bit_length() - 1, visited | low, left - 1):
                return True
        return False

    return dfs(u, 1 << u, length)


def random_saturated(rng: random.Random, n: int) -> list:
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    adj = [0] * n
    for u, v in pairs:
        if not has_path(adj, u, v, CYCLE - 1):
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return adj


def edges_of(adj) -> list:
    n = len(adj)
    return [(u, v) for u in range(n) for v in range(u + 1, n) if adj[u] >> v & 1]


def non_edges_of(adj) -> list:
    n = len(adj)
    return [(u, v) for u in range(n) for v in range(u + 1, n)
            if not adj[u] >> v & 1]


def toggled(adj, u: int, v: int) -> list:
    out = list(adj)
    out[u] ^= 1 << v
    out[v] ^= 1 << u
    return out


def derive(rng: random.Random, graphs, count: int) -> list:
    """(adjacency, expected verdict) pairs from evenly spaced graphs: the
    first half drop one random edge, the second half add one random non-edge."""
    out = []
    for i in range(count):
        adj = graphs[i * len(graphs) // count]
        if i < count // 2:
            u, v = rng.choice(edges_of(adj))
            out.append((toggled(adj, u, v), "missing-witness"))
        else:
            u, v = rng.choice(non_edges_of(adj))
            out.append((toggled(adj, u, v), "not-free"))
    return out


def to_graph6(adj) -> str:
    n = len(adj)
    if n > 62:
        head = "~" + "".join(chr((n >> s & 63) + 63) for s in (12, 6, 0))
    else:
        head = chr(n + 63)
    bits = [adj[u] >> v & 1 for v in range(1, n) for u in range(v)]
    bits += [0] * (-len(bits) % 6)
    body = "".join(
        chr(sum(b << (5 - j) for j, b in enumerate(bits[i:i + 6])) + 63)
        for i in range(0, len(bits), 6)
    )
    return head + body
