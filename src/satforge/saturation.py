"""C_k-freeness and saturation certificates, plus the structural vertex sets
(T, T_1, T_2, good roots, degree-2 cycle classes) used by the audit pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import kernels
from .graph import Graph, CyclePath, GraphError, contains_cycle


class PreconditionError(GraphError):
    pass


class BookkeepingError(GraphError):
    """T_2-deletion edge accounting failed; input likely not C_6-saturated."""


@dataclass(frozen=True)
class SaturationReport:
    k: int
    free: bool
    free_violation: CyclePath | None
    witnesses: dict  # non-edge (u,v) -> k-cycle through it in G+uv
    verdict: str  # "saturated" | "not-free" | "missing-witness"
    missing: tuple | None = None

    @property
    def saturated(self):
        return self.verdict == "saturated"

    def to_lines(self):
        """Line-oriented certificate: one `u v : c1 .. ck` row per non-edge."""
        out = []
        for (u, v) in sorted(self.witnesses):
            cyc = self.witnesses[(u, v)]
            out.append(f"{u} {v} : " + " ".join(str(c) for c in cyc.vertices))
        return out


def check_saturated(g: Graph, k: int) -> SaturationReport:
    """Certify C_k-saturation: C_k-free and every non-edge closes a k-cycle.

    The witness for non-edge (u,v) is the lexicographically least
    (k-1)-path from u to v, stored as the cycle it closes; one walk from
    each u finds the witnesses of all its non-edges (u, v > u).
    """
    if k < 3:
        raise PreconditionError("cycle length must be at least 3")
    violation = contains_cycle(g, k)
    if violation is not None:
        return SaturationReport(k, False, violation, {}, "not-free")
    witnesses = {}
    missing = None
    trusted = CyclePath._trusted
    for u in range(g.n):
        paths = {}
        missed = kernels.least_paths(g.adj, u, k - 1,
                                     kernels.non_neighbors_above(g.adj, u), 0, paths)
        if missed and missing is None:
            missing = (u, (missed & -missed).bit_length() - 1)
        for v in sorted(paths):
            witnesses[(u, v)] = trusted(paths[v], "cycle")
    if missing is not None:
        return SaturationReport(k, True, None, witnesses, "missing-witness", missing)
    return SaturationReport(k, True, None, witnesses, "saturated")


def is_saturated_fast(g: Graph, k: int) -> bool:
    """Saturation test that builds no witnesses: the kernels' existence scan."""
    return kernels.saturation_scan(g.adj, k)


# ---------------------------------------------------------------------------
# structural vertex sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TSets:
    t1: frozenset
    t2: frozenset


def _in_triangle(g, v):
    nbrs = g.neighbors(v)
    return any(g.has_edge(a, b) for i, a in enumerate(nbrs) for b in nbrs[i + 1:])


def t_sets(g: Graph) -> TSets:
    """Degree-2 vertices in a triangle, split by having a degree-2 neighbor."""
    t1, t2 = set(), set()
    for v in range(g.n):
        if g.degree(v) != 2 or not _in_triangle(g, v):
            continue
        if any(g.degree(w) == 2 for w in g.neighbors(v)):
            t2.add(v)
        else:
            t1.add(v)
    return TSets(frozenset(t1), frozenset(t2))


def reduce_t2(g: Graph) -> Graph:
    """Delete every T_2 vertex in one shot, verifying the removed edge mass
    equals 3|T_2|/2."""
    ts = t_sets(g)
    if not ts.t2:
        return g
    t2 = ts.t2
    internal = sum(1 for u, v in g.edges() if u in t2 and v in t2)
    crossing = sum(1 for u, v in g.edges() if (u in t2) != (v in t2))
    if len(t2) % 2 != 0 or 2 * (internal + crossing) != 3 * len(t2):
        raise BookkeepingError(
            f"removed edge mass {internal + crossing} != 3|T_2|/2 with |T_2|={len(t2)}"
        )
    return g.delete_vertices(t2)


def good_roots(g: Graph) -> frozenset:
    """Degree-2 vertices whose two neighbors are non-adjacent."""
    out = set()
    for v in range(g.n):
        if g.degree(v) == 2:
            a, b = g.neighbors(v)
            if not g.has_edge(a, b):
                out.add(v)
    return frozenset(out)


def _in_cycle_of_length(g, v, k):
    return kernels.least_path(g.adj, v, v, k) is not None


def _in_chorded_c5(g, v):
    """True iff v lies on a 5-cycle carrying at least one chord."""
    # the chords of a 5-cycle c0..c4 are its diagonals c_i c_{i+2}
    return any(g.has_edge(cyc[i], cyc[(i + 2) % 5])
               for cyc in kernels.all_paths(g.adj, v, v, 5) for i in range(5))


def theta_classes(g: Graph) -> dict:
    """Classify every degree-2 vertex by its short-cycle environment, as a
    vertex -> class dict.

    Class 5 = on a chorded 5-cycle; class 4 = on both a 4- and 5-cycle but no
    chorded one; class 3 = 4-cycle only; class 2 = 5-cycle only; class 1 =
    neither. Classes 1..5 partition the degree-2 vertices.
    """
    classes = {}
    for v in range(g.n):
        if g.degree(v) != 2:
            continue
        c4 = _in_cycle_of_length(g, v, 4)
        c5 = _in_cycle_of_length(g, v, 5)
        if c5 and _in_chorded_c5(g, v):
            classes[v] = 5
        elif c4 and c5:
            classes[v] = 4
        elif c4:
            classes[v] = 3
        elif c5:
            classes[v] = 2
        else:
            classes[v] = 1
    return classes


def degree_sum_holds(g: Graph) -> bool:
    """Degree-sum bound over X = V minus degree-2 vertices outside T_1, for a
    C_6-saturated graph of minimum degree 2; the caller establishes both
    preconditions, and no saturation scan runs here."""
    ts = t_sets(g)
    x = [v for v in range(g.n) if not (g.degree(v) == 2 and v not in ts.t1)]
    return sum(g.degree(v) for v in x) >= 3 * len(x)

