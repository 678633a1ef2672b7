"""C_k-freeness and saturation certificates, plus the structural vertex sets
(T, T_1, T_2, good roots, degree-2 cycle classes) used by the audit pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import kernels
from .graph import Graph, CyclePath, GraphError, contains_cycle, find_path, paths_between


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
    (k-1)-path from u to v, stored as the cycle it closes.
    """
    if k < 3:
        raise PreconditionError("cycle length must be at least 3")
    violation = contains_cycle(g, k)
    if violation is not None:
        return SaturationReport(k, False, violation, {}, "not-free")
    witnesses = {}
    missing = None
    reaches = {}  # target v -> kernels.reach masks, shared by its non-edges
    for u, v in g.non_edges():
        masks = reaches.get(v)
        if masks is None:
            masks = reaches[v] = kernels.reach(g.adj, v, k - 1)
        p = kernels.least_path(g.adj, u, v, k - 1, 0, masks)
        if p is None:
            if missing is None:
                missing = (u, v)
            continue
        witnesses[(u, v)] = CyclePath(p, "cycle")
    if missing is not None:
        return SaturationReport(k, True, None, witnesses, "missing-witness", missing)
    return SaturationReport(k, True, None, witnesses, "saturated")


def is_saturated_fast(g: Graph, k: int) -> bool:
    """Witness-free saturation test through the bitset kernel backend."""
    return kernels.saturation_scan(g.adj, g.n, k) == kernels.SAT_SATURATED


# ---------------------------------------------------------------------------
# structural vertex sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TSets:
    t: frozenset
    t1: frozenset
    t2: frozenset


def _in_triangle(g, v):
    nbrs = g.neighbors(v)
    return any(g.has_edge(a, b) for i, a in enumerate(nbrs) for b in nbrs[i + 1:])


def t_sets(g: Graph) -> TSets:
    """Degree-2 vertices in a triangle, split by having a degree-2 neighbor."""
    t, t1, t2 = set(), set(), set()
    for v in range(g.n):
        if g.degree(v) != 2 or not _in_triangle(g, v):
            continue
        t.add(v)
        if any(g.degree(w) == 2 for w in g.neighbors(v)):
            t2.add(v)
        else:
            t1.add(v)
    return TSets(frozenset(t), frozenset(t1), frozenset(t2))


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


@dataclass(frozen=True)
class ThetaClassification:
    theta: frozenset  # all degree-2 vertices
    in_c4: frozenset
    in_c5: frozenset
    classes: dict = field(compare=False, default_factory=dict)  # vertex -> 1..5


def _in_cycle_of_length(g, v, k):
    nbrs = g.neighbors(v)
    ban = 1 << v
    for i, a in enumerate(nbrs):
        for b in nbrs[i + 1:]:
            if find_path(g, a, b, k - 2, banned=ban) is not None:
                return True
    return False


def _cycles_through(g, v, k):
    """k-cycles through v as vertex tuples starting at v (orientations may
    repeat; callers only inspect each cycle's edge environment)."""
    cycles = []
    for x in g.neighbors(v):
        for p in paths_between(g, x, v, k - 1):
            cycles.append((v,) + p.vertices[:-1])
    return cycles


def _in_chorded_c5(g, v):
    """True iff v lies on a 5-cycle carrying at least one chord."""
    for cyc in _cycles_through(g, v, 5):
        chords = 0
        for i in range(5):
            for j in range(i + 2, 5):
                if (i, j) == (0, 4):
                    continue
                if g.has_edge(cyc[i], cyc[j]):
                    chords += 1
        if chords:
            return True
    return False


def theta_classes(g: Graph) -> ThetaClassification:
    """Classify every degree-2 vertex by its short-cycle environment.

    Class 5 = on a chorded 5-cycle; class 4 = on both a 4- and 5-cycle but no
    chorded one; class 3 = 4-cycle only; class 2 = 5-cycle only; class 1 =
    neither. Classes 1..5 partition the degree-2 vertices.
    """
    theta = frozenset(v for v in range(g.n) if g.degree(v) == 2)
    c4 = frozenset(v for v in theta if _in_cycle_of_length(g, v, 4))
    c5 = frozenset(v for v in theta if _in_cycle_of_length(g, v, 5))
    classes = {}
    for v in theta:
        if v in c5 and _in_chorded_c5(g, v):
            classes[v] = 5
        elif v in c4 and v in c5:
            classes[v] = 4
        elif v in c4:
            classes[v] = 3
        elif v in c5:
            classes[v] = 2
        else:
            classes[v] = 1
    return ThetaClassification(theta, c4, c5, classes)


def degree_sum_check(g: Graph) -> bool:
    """Degree-sum bound over X = V minus degree-2 vertices outside T_1."""
    if g.min_degree() != 2:
        raise PreconditionError("minimum degree must be 2")
    if not is_saturated_fast(g, 6):
        raise PreconditionError("graph is not C_6-saturated")
    ts = t_sets(g)
    x = [v for v in range(g.n) if not (g.degree(v) == 2 and v not in ts.t1)]
    return sum(g.degree(v) for v in x) >= 3 * len(x)


def lemma31_check(g: Graph, e, p: int) -> bool:
    """Path-replacement predicate for a non-edge.

    For every p-subpath P_1 (containing e) of a 6-cycle closed by e, with ends
    x, y, and every vertex-disjoint p-path P_2 from x to y in the graph, some
    (6-p)-path from x to y must meet P_2 internally. Vacuously true when no
    such configuration exists.
    """
    u, v = e
    if g.has_edge(u, v):
        raise PreconditionError(f"{e} is an edge")
    if g.n > 20:
        raise PreconditionError("bounded to n <= 20")
    if not 1 <= p <= 5:
        raise PreconditionError("subpath length must be in 1..5")
    gplus = g.with_edge(u, v)
    cycles = [(u,) + q.vertices[:-1] for q in paths_between(gplus, v, u, 5)]
    for cyc in cycles:
        # p-subpaths of the 6-cycle containing the new edge (positions 0-1)
        for start in range(6):
            verts = [cyc[(start + i) % 6] for i in range(p + 1)]
            pairs = {frozenset((verts[i], verts[i + 1])) for i in range(p)}
            if frozenset((u, v)) not in pairs:
                continue
            x, y = verts[0], verts[-1]
            if x == y:
                continue
            p1_set = set(verts)
            for p2 in paths_between(g, x, y, p):
                inner2 = set(p2.vertices) - {x, y}
                if (set(p2.vertices) & p1_set) != {x, y}:
                    continue
                ok = any(
                    (set(p3.vertices) - {x, y}) & inner2
                    for p3 in paths_between(g, x, y, 6 - p)
                )
                if not ok:
                    return False
    return True
