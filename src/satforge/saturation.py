"""C_k-freeness and saturation certificates, the leaf lemma's test that
rules saturation out from degrees alone, and the structural vertex sets
(T_1, T_2, and the good roots' cycle classes) used by the audit pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, repeat

from . import kernels
from .graph import MAX_VERTICES, Graph, CyclePath, GraphError, contains_cycle

# _PAIRS[u][v] is the witness key (u, v) for u < v: one tuple shared by every
# report, built in about 0.1 ms and 0.15 MB
_PAIRS = [[None] * (u + 1) + [(u, v) for v in range(u + 1, MAX_VERTICES)]
          for u in range(MAX_VERTICES)]


class PreconditionError(GraphError):
    pass


class BookkeepingError(GraphError):
    """T_2-deletion edge accounting failed; input likely not C_6-saturated."""


@dataclass(frozen=True)
class SaturationReport:
    k: int
    free_violation: CyclePath | None
    witnesses: dict  # non-edge (u,v) -> k-cycle through it in G+uv
    verdict: str  # "saturated" | "not-free" | "missing-witness"
    missing: tuple | None = None

    @property
    def saturated(self):
        return self.verdict == "saturated"


def check_saturated(g: Graph, k: int) -> SaturationReport:
    """Certify C_k-saturation: C_k-free and every non-edge closes a k-cycle.

    The witness for non-edge (u,v) is the lexicographically least
    (k-1)-path from u to v, stored as the cycle it closes. The sources of
    `kernels.witness_walks` come in ascending order, one walk each for the
    witnesses of all its non-edges (u, v > u), so the report takes them in
    ascending (u, v) order as they come, keyed by tuples shared by every
    report; the missing pair is the first one missed.
    """
    if k < 3:
        raise PreconditionError("cycle length must be at least 3")
    violation = contains_cycle(g, k)
    if violation is not None:
        return SaturationReport(k, violation, {}, "not-free")
    missing = None
    trusted = CyclePath._trusted
    blank = [None] * g.n
    # a walk sets the slots of the targets v it reaches: read in slot order,
    # they give u's witnesses by ascending v; cleared after each source
    paths = blank[:]
    witnesses = {}
    for u, missed in kernels.witness_walks(g.adj, k - 1, paths):
        if missed and missing is None:
            missing = (u, (missed & -missed).bit_length() - 1)
        witnesses.update(zip(compress(_PAIRS[u], paths),
                             map(trusted, zip(filter(None, paths), repeat("cycle")))))
        paths[:] = blank
    if missing is not None:
        return SaturationReport(k, None, witnesses, "missing-witness", missing)
    return SaturationReport(k, None, witnesses, "saturated")


def is_saturated_fast(g: Graph, k: int) -> bool:
    """Saturation test that builds no witnesses: the kernels' existence scan."""
    return kernels.saturation_scan(g.adj, k)


def leaf_obstruction(g: Graph, k: int) -> bool:
    """True when k >= 4 and g has an isolated vertex (n >= 2), two leaves
    with one common neighbour (L1), or a leaf whose neighbour has degree at
    most 2 (L2, n >= 3). Each leaves a non-edge that no path of k - 1 >= 3
    edges joins, so g is not C_k-saturated; False says nothing.

    - Isolated vertex v: v and any other vertex are a non-edge that no path
      joins.
    - L1: leaves a, b at x are not adjacent, and their one path is a-x-b,
      of 2 edges.
    - L2: a leaf a at x. If x has one more neighbour y, then a, y are not
      adjacent and their one path is a-x-y, of 2 edges. If x is a leaf too,
      a and a third vertex are a non-edge that no path joins.

    For k = 3 it is False: two leaves at one vertex have their 2-path, and
    the star K_{1,n-1} is C_3-saturated."""
    if k < 4:
        return False
    adj = g.adj
    hosts = 0  # the neighbours of the leaves met so far
    for row in adj:
        if not row & (row - 1):  # degree 0 or 1
            if not row:
                return g.n >= 2
            if hosts & row:
                return True
            hosts |= row
    if g.n >= 3:
        while hosts:
            low = hosts & -hosts
            hosts ^= low
            if adj[low.bit_length() - 1].bit_count() <= 2:
                return True
    return False


# ---------------------------------------------------------------------------
# structural vertex sets
# ---------------------------------------------------------------------------

def _degree_two(g):
    """(v, a, b) for each degree-2 vertex v, with neighbors a < b."""
    for v in range(g.n):
        if g.degree(v) == 2:
            yield (v, *g.neighbors(v))


def t_sets(g: Graph) -> tuple:
    """The pair (T_1, T_2) of frozensets that splits T, the degree-2
    vertices in a triangle: T_2 holds those with a degree-2 neighbor.
    A degree-2 vertex lies in a triangle iff its two neighbors are adjacent.
    The degree-2 vertices outside T are the good roots, `theta_classes`'
    keys."""
    t1, t2 = set(), set()
    for v, a, b in _degree_two(g):
        if g.has_edge(a, b):
            (t2 if 2 in (g.degree(a), g.degree(b)) else t1).add(v)
    return frozenset(t1), frozenset(t2)


def reduce_t2(g: Graph, t2) -> Graph:
    """Delete every vertex of `t2`, which is `t_sets(g)[1]`, in one shot,
    verifying that |T_2| is even, before any deletion (K_3 fails here), and
    that the edges the reduced graph lacks, the removed edge mass, number
    3|T_2|/2."""
    if len(t2) % 2:
        raise BookkeepingError(f"odd |T_2|={len(t2)}")
    reduced = g.delete_vertices(t2)
    removed = g.edge_count - reduced.edge_count
    if 2 * removed != 3 * len(t2):
        raise BookkeepingError(
            f"removed edge mass {removed} != 3|T_2|/2 with |T_2|={len(t2)}"
        )
    return reduced


def theta_classes(g: Graph) -> dict:
    """Classify every good root, a degree-2 vertex whose two neighbors are
    non-adjacent, by its short-cycle environment, as a vertex -> class dict
    keyed by the good roots.

    Class 5 = on a chorded 5-cycle; class 4 = on both a 4- and 5-cycle but no
    chorded one; class 3 = 4-cycle only; class 2 = 5-cycle only; class 1 =
    neither. Classes 1..5 partition the good roots.

    For v with neighbors a < b: v is on a 4-cycle iff a and b have a common
    neighbor other than v, and on a 5-cycle v-a-x-y-b iff some path a-x-y-b
    avoids v. a and b are not adjacent, so such a cycle is chorded iff ay or
    xb is an edge, since v has no other neighbors.
    """
    adj = g.adj
    classes = {}
    for v, a, b in _degree_two(g):
        if adj[a] >> b & 1:
            continue  # v lies in a triangle: not a good root
        c4 = adj[a] & adj[b] & ~(1 << v)
        c5 = chorded = False
        for x in g.neighbors(a):
            if x == v:
                continue
            ys = adj[x] & adj[b] & ~(1 << v | 1 << a)
            if ys:
                c5 = True
                if adj[a] & ys or adj[b] >> x & 1:
                    chorded = True
                    break
        classes[v] = (5 if chorded else 4 if c4 and c5 else 3 if c4
                      else 2 if c5 else 1)
    return classes


def degree_sum_holds(g: Graph, t1) -> bool:
    """Degree-sum bound over X = V minus degree-2 vertices outside T_1, where
    `t1` is `t_sets(g)[0]`, for a C_6-saturated graph of minimum degree 2;
    the caller establishes both preconditions, and no saturation scan runs
    here."""
    x = [v for v in range(g.n) if not (g.degree(v) == 2 and v not in t1)]
    return sum(g.degree(v) for v in x) >= 3 * len(x)
