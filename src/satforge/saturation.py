"""C_k-freeness and saturation certificates, the existence scan, and the
leaf lemma's test that rules saturation out from degrees alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, repeat

from . import kernels
from .graph import MAX_VERTICES, Graph, CyclePath, GraphError

# _PAIRS[u][v] is the witness key (u, v) for u < v: one tuple shared by every
# report, built in about 0.1 ms and 0.15 MB
_PAIRS = [[None] * (u + 1) + [(u, v) for v in range(u + 1, MAX_VERTICES)]
          for u in range(MAX_VERTICES)]


class PreconditionError(GraphError):
    pass


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


def contains_cycle(g: Graph, k):
    """A witness k-cycle, or None: the least (k-1)-path joining the ends of
    the first edge, in `edges()` order, that lies on a k-cycle
    (`kernels.least_cycle`)."""
    cycle = kernels.least_cycle(g.adj, k)
    return CyclePath._trusted((cycle, "cycle")) if cycle is not None else None


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
    if k < 3:
        raise PreconditionError("cycle length must be at least 3")
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
