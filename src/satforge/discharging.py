"""Two-stage discharging audit on a concrete C_6-saturated graph.

The structural vertex sets (T_1, T_2 and the good roots' cycle classes), the
T_2 reduction, root selection, distance layering, the initial per-vertex
charge, five first-stage redistribution steps, seven second-stage steps, and
the audit that checks every conservation identity and runtime assertion.
Every stored charge is an exact `fractions.Fraction`. Sums of charges are
taken over one common denominator (`exact_sum`), and so are the transfers of
a step: each vertex's net change is an integer over the amounts' common
denominator, and a vertex whose net change is 0 keeps its charge object
(`_apply`). The rules and the checks read a charge's sign from its
numerator, and compare charges with multiples of 1/6 in integer sixths,
cross-multiplied by the charge's numerator and denominator (`_sixths`). All
of it is exact integer arithmetic, so equality tests carry zero tolerance.

The audit certifies every input on more than three vertices one way: one
witness walk from each T_2 vertex, then one saturation scan of the graph
less T_2, the graph the stages run on. Deleting the pendant triangles'
T_2 pairs changes neither C_6-freeness nor any other witness, so the two
steps together are exact (`_reduce_saturated`).

Stage snapshot semantics: each step is a function of the complete previous
ledger; within a step, all sends are computed from the snapshot and applied
simultaneously.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import kernels
from .construction import lower_bound_edges
from .graph import Graph, GraphError, vertex_list
from .saturation import PreconditionError, is_saturated_fast

F = Fraction
THIRD = F(1, 3)
SIXTH = F(1, 6)
TWO_THIRDS = F(2, 3)
BASE = F(4, 3)

STAGE1_NAMES = ("g", "g1", "g2", "g3", "g4", "g5")
STAGE2_NAMES = ("f1", "f2", "f3", "f4", "f5", "f6", "f7")


class DischargeError(GraphError):
    pass


class RuleConflict(DischargeError):
    """A redistribution step drove a sender below its stated budget."""


class LevelError(GraphError):
    """A distance layering missed a vertex, or is deeper than its user allows."""


class BookkeepingError(GraphError):
    """T_2-deletion edge accounting failed; input likely not C_6-saturated."""


@dataclass(frozen=True)
class RootChoice:
    alpha: int
    delta: int
    rationale: str


def exact_sum(values):
    """The exact sum of rationals (Fractions or ints) as one `Fraction`.

    The numerators are summed as integers over the least common multiple of
    the denominators, in one pass: the running sum is rescaled only when a
    denominator does not divide the running one. Only the result is
    normalized.
    """
    num, den = 0, 1
    for v in values:
        q = v.denominator
        if den % q:
            scale = q // math.gcd(den, q)
            num *= scale
            den *= scale
        num += v.numerator * (den // q)
    return F(num, den)


@dataclass
class ChargeLedger:
    """The charges of one audit, stage by stage, over a distance layering.

    The ledger sorts each vertex's neighbors by level once, in one pass
    over its row, into at most three lists with their bitmasks: a neighbor
    of x lies one level below x, on x's level or one level above. Every
    level query reads that table. The lists are shared, not copied: they
    are read-only, and every caller in this module only reads them.
    `set_classes` builds one vertex mask per class tag each time the
    classes are set, so the level-i neighbors of x in the classes `tags`
    are the bits of x's level-i mask and the class mask. Set the classes
    through `set_classes` (as `classify` does): assigning `classes`
    directly leaves the class masks stale. Levels and neighbors are listed
    in ascending order, on which the order of transfers, failures and
    diagnostics depends. Each stage's sum outside V_1 is computed once,
    since no stage dict changes after it is stored.
    """

    graph: Graph
    partition: LevelPartition
    stages: dict = field(default_factory=dict)  # name -> {vertex: Fraction}
    classes: dict = field(default_factory=dict)  # vertex -> "-1"|"-2"|"1"|"2"
    diagnostics: list = field(default_factory=list)
    _nbrs: list = field(init=False, repr=False, compare=False)
    _class_masks: dict = field(init=False, repr=False, compare=False)
    _outer_sums: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        level_of = self.partition.level_of
        self._nbrs = nbrs = []
        for row in self.graph.adj:
            at = {}  # level i -> [the level-i neighbors, ascending, their mask]
            while row:
                low = row & -row
                row ^= low
                w = low.bit_length() - 1
                entry = at.get(level_of[w])
                if entry is None:
                    at[level_of[w]] = [[w], low]
                else:
                    entry[0].append(w)
                    entry[1] |= low
            nbrs.append(at)
        self._outer_sums = {}  # stage name -> (its dict, the sum)
        self.set_classes(self.classes)

    def set_classes(self, classes):
        """Store the class tags and rebuild the class masks: one per tag, and
        one per tuple of tags the queries have used since."""
        self.classes = classes
        masks = {}
        for v, tag in classes.items():
            masks[tag] = masks.get(tag, 0) | 1 << v
        self._class_masks = masks

    def _class_mask(self, tags):
        masks = self._class_masks
        mask = masks.get(tags)
        if mask is None:
            mask = masks[tags] = sum(masks.get(tag, 0) for tag in set(tags))
        return mask

    # -- level helpers (levels are 1-based) --------------------------------

    def level(self, v):
        return self.partition.level(v)

    def level_set(self, i):
        if 1 <= i <= self.partition.depth:
            return self.partition.levels[i - 1]
        return ()

    def nbrs_at(self, x, i):
        return self._nbrs[x].get(i, _NONE)[0]

    def n_at(self, x, i):
        return len(self._nbrs[x].get(i, _NONE)[0])

    def nbrs_class(self, x, i, tags):
        return vertex_list(self._nbrs[x].get(i, _NONE)[1] & self._class_mask(tags))

    def n_class(self, x, i, tags):
        return (self._nbrs[x].get(i, _NONE)[1] & self._class_mask(tags)).bit_count()

    def outer_sum(self, stage):
        charges = self.stages[stage]
        memo = self._outer_sums.get(stage)
        if memo is None or memo[0] is not charges:
            v1 = self.level_set(1)
            memo = charges, exact_sum([c for v, c in charges.items() if v not in v1])
            self._outer_sums[stage] = memo
        return memo[1]

    def flag(self, msg):
        self.diagnostics.append(msg)


_NONE = ([], 0)  # no neighbor on a level: the shared empty list and mask

MINUS = ("-1", "-2")
PLUS = ("1", "2")


# ---------------------------------------------------------------------------
# distance layering
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LevelPartition:
    """Distance layering from a root: levels[0] is the closed neighborhood,
    levels[i] the vertices at distance i+1, each an ascending vertex tuple;
    `level_of[v]` is v's 1-based level."""

    levels: tuple
    level_of: tuple = field(repr=False)

    def level(self, v):
        return self.level_of[v]

    @property
    def depth(self):
        return len(self.levels)


def bfs_levels(g: Graph, root) -> LevelPartition:
    """Strict distance layering: V_1 = N[root], V_i = distance-i vertices.

    Raises LevelError when a vertex is unreachable; callers bound the depth.
    """
    if not 0 <= root < g.n:
        raise GraphError(f"vertex {root} outside 0..{g.n - 1}")
    adj = g.adj
    frontier = seen = adj[root] | 1 << root  # root and its neighbors share V_1
    levels, level_of = [], [0] * g.n
    while frontier:
        levels.append(tuple(vertex_list(frontier)))
        nxt = 0
        for v in levels[-1]:
            nxt |= adj[v]
            level_of[v] = len(levels)
        frontier = nxt & ~seen
        seen |= frontier
    if seen != (1 << g.n) - 1:
        raise LevelError("graph is disconnected from the root")
    return LevelPartition(tuple(levels), tuple(level_of))


# ---------------------------------------------------------------------------
# structural vertex sets
# ---------------------------------------------------------------------------

def _degree_two(adj):
    """(v, a, b) for each degree-2 vertex v of the rows `adj`, with
    neighbors a < b."""
    for v, row in enumerate(adj):
        if row.bit_count() == 2:
            yield v, (row & -row).bit_length() - 1, row.bit_length() - 1


def t_sets(g: Graph) -> tuple:
    """The pair (T_1, T_2) of frozensets that splits T, the degree-2
    vertices in a triangle: T_2 holds those with a degree-2 neighbor.
    A degree-2 vertex lies in a triangle iff its two neighbors are adjacent.
    The degree-2 vertices outside T are the good roots, `theta_classes`'
    keys."""
    adj = g.adj
    t1, t2 = set(), set()
    for v, a, b in _degree_two(adj):
        if adj[a] >> b & 1:
            (t2 if 2 in (adj[a].bit_count(), adj[b].bit_count()) else t1).add(v)
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
    for v, a, b in _degree_two(adj):
        if adj[a] >> b & 1:
            continue  # v lies in a triangle: not a good root
        c4 = adj[a] & adj[b] & ~(1 << v)
        c5 = chorded = False
        for x in vertex_list(adj[a]):
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


# ---------------------------------------------------------------------------
# root choice
# ---------------------------------------------------------------------------

def _four_cycles_through(g, u):
    """Pairs (4-cycle through u, diagonal of it that is not an edge).

    A 4-cycle counts once per non-adjacent diagonal, so C_4 gives 2 at every
    vertex and K_4 gives 0. The cycles (u, a, b, c) with neighbors a < c of u
    are those with b a common neighbor of a and c other than u; their
    diagonals are ub and ac.
    """
    adj, nbrs = g.adj, g.neighbors(u)
    count = 0
    for i, a in enumerate(nbrs):
        for c in nbrs[i + 1:]:
            bs = adj[a] & adj[c] & ~(1 << u)
            count += (bs & ~adj[u]).bit_count()
            if not adj[a] >> c & 1:
                count += bs.bit_count()
    return count


def choose_root(g: Graph) -> RootChoice | None:
    """Pick the audit root among minimum-degree vertices.

    delta = 1: minimize the number of 4-cycles through the unique neighbor.
    delta = 2: good root with the smallest degree-2 cycle class; ties by id.
    None when delta = 2 and no vertex is a good root (`theta_classes` is
    empty), the case the audit settles by a degree sum instead.
    """
    delta = g.min_degree()
    if delta >= 3:
        raise PreconditionError(f"minimum degree {delta} >= 3")
    if delta == 0:
        raise PreconditionError("isolated vertex")
    if delta == 1:
        alpha = min((v for v in range(g.n) if g.degree(v) == 1),
                    key=lambda v: (_four_cycles_through(g, g.neighbors(v)[0]), v))
        rationale = "min-4-cycles-at-neighbor"
    else:
        classes = theta_classes(g)
        if not classes:
            return None
        alpha = min(classes, key=lambda v: (classes[v], v))
        rationale = f"good-root-class-{classes[alpha]}"
        if classes[alpha] == 5:
            rationale += "-fallback"
    return RootChoice(alpha, delta, rationale)


# ---------------------------------------------------------------------------
# initial charge and classes
# ---------------------------------------------------------------------------

def level_charges(g: Graph, root: int):
    """Layer from an arbitrary root and assign the initial charge.

    A vertex with `down` neighbors one level nearer the root and `within` in
    its own level gets down + within/2 - 4/3, built in sixths, with one
    `Fraction` shared by the vertices of each value; V_1 has no level below
    it, so its `down` is 0. Raises LevelError when a vertex is unreachable
    or deeper than the five levels the stages use.
    """
    part = bfs_levels(g, root)
    if part.depth > 5:
        raise LevelError(f"vertex at distance {part.depth} exceeds max level 5")
    ledger = ChargeLedger(g, part)
    charges, values = {}, {}  # values: charge in sixths -> its Fraction
    for v, i in enumerate(part.level_of):
        sixths = 6 * ledger.n_at(v, i - 1) + 3 * ledger.n_at(v, i) - 8
        c = values.get(sixths)
        if c is None:
            c = values[sixths] = F(sixths, 6)
        charges[v] = c
    ledger.stages["g"] = charges
    return ledger


def _identity_holds(ledger) -> bool:
    """e(G) = sum_x g(x) + 4n/3 for the ledger's initial charge, exactly."""
    g = ledger.graph
    return exact_sum(ledger.stages["g"].values()) + BASE * g.n == g.edge_count


def charge_identity_holds(g: Graph, root: int) -> bool:
    """The charge identity for the initial charge layered from `root`."""
    return _identity_holds(level_charges(g, root))


def initial_charge(g: Graph, root: int) -> ChargeLedger:
    ledger = level_charges(g, root)
    if not _identity_holds(ledger):
        raise DischargeError("initial charge identity failed")
    return ledger


def classify(ledger: ChargeLedger) -> ChargeLedger:
    """Tag V_2..V_5 vertices: "-1"/"-2" (negative), "1" (1/6), "2" (2/3+)."""
    gch = ledger.stages["g"]
    base = {}
    for v in range(ledger.graph.n):
        i = ledger.level(v)
        if i < 2:
            continue
        c = gch[v]
        if c.numerator < 0:
            if _sixths(c, -2):
                raise DischargeError(f"negative charge {c} at {v} is not -1/3")
            base[v] = "-"
        elif _sixths(c, 1) == 0:
            base[v] = "1"
        elif _sixths(c, 4) >= 0:
            base[v] = "2"
        else:
            raise DischargeError(f"charge {c} at {v} outside the value grid")
    classes = dict(base)
    # split "-" by the number of 2/3+ neighbors one level further out
    for v, tag in base.items():
        if tag == "-":
            i = ledger.level(v)
            n2up = sum(1 for w in ledger.nbrs_at(v, i + 1) if base.get(w) == "2")
            classes[v] = "-1" if n2up >= 2 else "-2"
    ledger.set_classes(classes)
    return ledger


# ---------------------------------------------------------------------------
# stage one
# ---------------------------------------------------------------------------

def _apply(charges, transfers):
    """A copy of `charges` with every transfer (sender, receiver, amount)
    applied at once. Each vertex's net change is summed as an integer over
    the least common multiple of the amounts' denominators, and one
    `Fraction` is built for each vertex whose charge changes; a vertex whose
    net change is 0 keeps its charge object."""
    den = 1
    for _, _, amount in transfers:
        den = math.lcm(den, amount.denominator)
    net = {}
    for sender, receiver, amount in transfers:
        m = amount.numerator * (den // amount.denominator)
        net[sender] = net.get(sender, 0) - m
        net[receiver] = net.get(receiver, 0) + m
    out = dict(charges)
    for v, m in net.items():
        if m:
            c = out[v]
            q = c.denominator
            out[v] = F(c.numerator * den + m * q, q * den)
    return out


def _sixths(c, b):
    """An integer with the sign of c - b/6: 6p - bq for c = p/q, as q > 0."""
    return 6 * c.numerator - b * c.denominator


def _below(c, s):
    """c < s for rationals (Fractions or ints), compared as the integers
    c.numerator * s.denominator and s.numerator * c.denominator."""
    return c.numerator * s.denominator < s.numerator * c.denominator


def _c1_exclusions(ledger, u):
    """Same-level 1/6-receivers skipped by a degree-3 sender in the deepest
    level whose single down-neighbor is negative."""
    g = ledger.graph
    if g.degree(u) != 3:
        return set()
    down = ledger.nbrs_class(u, 4, MINUS)
    if ledger.n_at(u, 4) != 1 or len(down) != 1:
        return set()
    level5 = ledger.nbrs_at(u, 5)
    if len(level5) != 2:
        return set()
    out = set()
    for w in level5:
        if ledger.classes.get(w) != "1":
            continue
        (w2,) = [x for x in level5 if x != w]
        nw = set(ledger.nbrs_at(w, 4))
        nw2 = set(ledger.nbrs_at(w2, 4))
        if nw <= nw2:
            out.add(w)
    return out


def _paired_ones(ledger, i):
    """Adjacent 1/6-vertices a, b of level i that each have a unique level-(i-1)
    neighbor (ya, yb), as (a, b, ya, yb) in both orientations. The pairs are
    disjoint because each such vertex has exactly one same-level neighbor."""
    for a in ledger.level_set(i):
        ya = ledger.nbrs_at(a, i - 1)
        if ledger.classes.get(a) != "1" or len(ya) != 1:
            continue
        for b in ledger.nbrs_class(a, i, ("1",)):
            yb = ledger.nbrs_at(b, i - 1)
            if len(yb) == 1:
                yield a, b, ya[0], yb[0]


def stage_one(ledger: ChargeLedger) -> ChargeLedger:
    """First-stage steps: class-driven sends, then two rounds of same-level
    balancing in the deepest layer interleaved with zeroing of residual
    negative charge from above."""
    g = ledger.stages["g"]
    depth = ledger.partition.depth

    # step 1: 2/3+ and 1/6 vertices send along class rules
    transfers = []
    for i in range(2, depth + 1):
        for u in ledger.level_set(i):
            tag = ledger.classes.get(u)
            if tag == "2":
                skip = _c1_exclusions(ledger, u) if i == 5 else set()
                for w in ledger.nbrs_class(u, i, ("1",)):
                    if w not in skip:
                        transfers.append((u, w, SIXTH))
                if i >= 3:
                    for v in ledger.nbrs_class(u, i - 1, MINUS):
                        k = ledger.n_class(v, i, ("2",))
                        if k >= 2:
                            transfers.append((u, v, SIXTH))
                        elif k == 1:
                            transfers.append((u, v, THIRD))
            elif tag == "1" and i in (3, 4):
                for v in ledger.nbrs_class(u, i - 1, MINUS):
                    if ledger.n_class(v, i, ("2",)) == 0:
                        transfers.append((u, v, SIXTH))
    g1 = _apply(g, transfers)
    for u, _, _ in transfers:
        if g1[u].numerator < 0:
            raise RuleConflict(f"stage-one step 1 overdrew vertex {u}")

    # steps 2 and 4: same-level 1/6 pair balancing in the deepest layer
    def pair_balance(charges):
        moves = [(a, b, SIXTH) for a, b, ya, yb in _paired_ones(ledger, 5)
                 if charges[ya].numerator >= 0 and charges[yb].numerator < 0]
        return _apply(charges, moves)

    g2 = pair_balance(g1)

    # step 3: residual negatives pull matching 1/6 charge from below
    transfers = []
    for i in (2, 3, 4):
        t, t6 = (SIXTH, 1) if i in (2, 3) else (THIRD, 2)
        for y in ledger.level_set(i):
            if ledger.classes.get(y) not in MINUS or g2[y].numerator >= 0:
                continue
            for z in ledger.nbrs_class(y, i + 1, ("1",)):
                if _sixths(g2[z], t6) == 0:
                    transfers.append((z, y, t))
    g3 = _apply(g2, transfers)

    g4 = pair_balance(g3)

    # step 5: remaining negatives in V_4 drain their 1/6-class V_5 neighbors
    transfers = []
    for y in ledger.level_set(4):
        if ledger.classes.get(y) not in MINUS or g4[y].numerator >= 0:
            continue
        for z in ledger.nbrs_class(y, 5, ("1",)):
            transfers.append((z, y, g4[z]))
    g5 = _apply(g4, transfers)

    ledger.stages.update(g1=g1, g2=g2, g3=g3, g4=g4, g5=g5)
    if ledger.outer_sum("g5") != ledger.outer_sum("g"):
        raise RuleConflict("stage one broke conservation outside V_1")
    return ledger


# ---------------------------------------------------------------------------
# stage two
# ---------------------------------------------------------------------------

def _empty_level(ledger, charges, i, step, split=None, negatives_send=False):
    """Stage-two steps 1, 3 and 7: every sender in level i passes its whole
    charge to its level-(i-1) neighbors, in the fractions of the `split`
    pattern when one applies and in equal shares otherwise. Negative vertices
    send only when `negatives_send` is set."""
    transfers, senders = [], []
    for w in ledger.level_set(i):
        c = charges[w]
        if c.numerator < 0 and not negatives_send:
            continue
        down = ledger.nbrs_at(w, i - 1)  # non-empty: w is at distance i >= 2
        fracs = split(ledger, w, down) if split else None
        if fracs is None:
            share = F(c.numerator, c.denominator * len(down))
            transfers += [(w, z, share) for z in down]
        else:
            transfers += [(w, z, c * frac) for z, frac in fracs]
        senders.append(w)
    out = _apply(charges, transfers)
    for w in senders:
        if out[w].numerator:
            raise RuleConflict(
                f"level-{i} vertex {w} not emptied by stage-two step {step}")
    return out


def _split_exception(ledger, w, down):
    """Step 1's split for a degree-3 sender wedged between negative
    receivers: 2/3-1/3 over two of them or 1/2-1/4-1/4 over three; None when
    neither pattern applies."""
    g = ledger.graph

    def n5minus(z):
        return ledger.n_class(z, 5, MINUS)

    if g.degree(w) == 3 and len(down) == 2:
        # w is in the deepest level and has degree 3 with two level-4
        # neighbors, so it has exactly one level-5 neighbor
        (w1,) = ledger.nbrs_at(w, 5)
        z1z2 = [z for z in down if ledger.classes.get(z) in MINUS]
        if len(z1z2) == 2:
            cands = []
            for za in z1z2:
                zb = z1z2[0] if za == z1z2[1] else z1z2[1]
                if n5minus(za) == 0:
                    continue
                inter = (
                    set(ledger.nbrs_class(w1, 5, ("1",)))
                    & set(ledger.nbrs_class(zb, 5, ("1",)))
                ) - {w}
                if inter:
                    cands.append((za, zb))
            if cands:
                if len(cands) > 1:
                    ledger.flag(f"ambiguous 2/3-1/3 split at {w}; least id wins")
                za, zb = min(cands)
                return [(za, TWO_THIRDS), (zb, THIRD)]
    if g.degree(w) == 3 and len(down) == 3:
        if all(ledger.classes.get(z) in MINUS for z in down):
            z1s = [z for z in down if n5minus(z) != 0]
            rest = [z for z in down if n5minus(z) == 0]
            if len(z1s) == 1 and len(rest) == 2:
                a, b = rest
                if set(ledger.nbrs_at(a, 3)) == set(ledger.nbrs_at(b, 3)):
                    return [(z1s[0], F(1, 2)), (a, F(1, 4)), (b, F(1, 4))]
    return None


def _stage2_step2(ledger, f1):
    transfers = []
    for z in ledger.level_set(4):
        needy = [z2 for z2 in ledger.nbrs_at(z, 4) if f1[z2].numerator < 0]
        if needy and _sixths(f1[z], len(needy)) >= 0:
            for z2 in needy:
                transfers.append((z, z2, SIXTH))
    for recv, send, yr, ys in _paired_ones(ledger, 4):
        if f1[recv].numerator == 0 and f1[yr].numerator < 0:
            if (_sixths(f1[send], 2) >= 0 and f1[ys].numerator < 0) or (
                _sixths(f1[send], 1) >= 0 and f1[ys].numerator >= 0
            ):
                transfers.append((send, recv, SIXTH))
    return _apply(f1, transfers)


def _pendant_split(ledger, z, up):
    """Step 3's split toward the unique pendant-carrying level-3 neighbor:
    1/2 to it and 1/4 to each other one; None when the pattern does not
    apply."""
    g = ledger.graph
    if len(up) != 3 or ledger.n_at(z, 4) > 1:
        return None
    if ledger.n_class(z, 5, MINUS) != 0:
        return None
    pend = [y for y in up if any(g.degree(w) == 1 for w in g.neighbors(y))]
    if len(pend) != 1:
        return None
    y1 = pend[0]
    rest = [y for y in up if y != y1]
    return [(y1, F(1, 2)), (rest[0], F(1, 4)), (rest[1], F(1, 4))]


def _stage2_step4(ledger, f3):
    """Level-3 vertices absorb their negative level-4 neighbors, each funded
    once, and when they can afford every tip as well, tip 1/6 to same-level
    neighbors left short."""
    level3 = ledger.level_set(3)
    needy = {y: [z for z in ledger.nbrs_at(y, 4) if f3[z].numerator < 0]
             for y in level3}
    # with no needy neighbor the sum is the int 0, and no Fraction is built
    snap_s = {y: exact_sum([-f3[z] for z in zs]) if zs else 0
              for y, zs in needy.items()}
    funded = set()
    transfers = []
    for y in level3:
        live = [z for z in needy[y] if z not in funded]
        if len(live) == len(needy[y]):
            s = snap_s[y]
        else:
            ledger.flag(f"stage-two step 4: {y} found already-funded neighbors")
            s = exact_sum([-f3[z] for z in live])
        if _below(f3[y], s):
            continue
        transfers += [(y, z, -f3[z]) for z in live]
        funded.update(live)
        gifts = [y1 for y1 in ledger.nbrs_at(y, 3) if _below(f3[y1], snap_s[y1])]
        if gifts and _sixths(f3[y] - s, len(gifts)) >= 0:
            transfers += [(y, y1, SIXTH) for y1 in gifts]
    return _apply(f3, transfers)


def _stage2_step5(ledger, f4):
    funded = set()
    transfers = []
    for y in ledger.level_set(3):
        live = [z for z in ledger.nbrs_at(y, 4)
                if f4[z].numerator < 0 and z not in funded]
        if live and f4[y] >= exact_sum([-f4[z] for z in live]):
            transfers += [(y, z, -f4[z]) for z in live]
            funded.update(live)
    return _apply(f4, transfers)


def _stage2_step6(ledger, f5):
    transfers = [(a, b, SIXTH) for a, b, xa, xb in _paired_ones(ledger, 3)
                 if f5[xa].numerator >= 0 and f5[xb].numerator < 0
                 and _sixths(f5[a], 1) >= 0 and f5[b].numerator == 0]
    return _apply(f5, transfers)


def _stage2_step7(ledger, f6):
    """Level 3 empties into level 2; each level-2 vertex then absorbs the
    negative vertices it can see in levels 3 and 4, when it can afford to.
    A debtor is a negative vertex, which the emptying leaves as it was, so
    paying its debt brings it to 0."""
    emptied = _empty_level(ledger, f6, 3, 7)
    funded = set()
    transfers = []
    for x in ledger.level_set(2):
        up = ledger.nbrs_at(x, 3)
        pool = set(up)
        for y in up:
            pool.update(ledger.nbrs_at(y, 4))
        debts = sorted(v for v in pool if f6[v].numerator < 0 and v not in funded)
        if not debts:
            continue
        need = exact_sum([-f6[v] for v in debts])
        if emptied[x] >= need:
            transfers += [(x, v, -f6[v]) for v in debts]
            funded.update(debts)
        else:
            ledger.flag(f"stage-two step 7: vertex {x} cannot cover {need}")
    return _apply(emptied, transfers)


def stage_two(ledger: ChargeLedger) -> ChargeLedger:
    # step 1: the deepest level empties itself into the level above;
    # step 3: nonnegative level-4 vertices empty into level 3
    f1 = _empty_level(ledger, ledger.stages["g5"], 5, 1, _split_exception,
                      negatives_send=True)
    f2 = _stage2_step2(ledger, f1)
    f3 = _empty_level(ledger, f2, 4, 3, _pendant_split)
    f4 = _stage2_step4(ledger, f3)
    f5 = _stage2_step5(ledger, f4)
    f6 = _stage2_step6(ledger, f5)
    f7 = _stage2_step7(ledger, f6)
    ledger.stages.update(f1=f1, f2=f2, f3=f3, f4=f4, f5=f5, f6=f6, f7=f7)
    if ledger.outer_sum("f7") != ledger.outer_sum("g5"):
        raise RuleConflict("stage two broke conservation outside V_1")
    return ledger


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------

@dataclass
class DischargeAudit:
    branch: str  # "full" | "delta>=3" | "no-good-root" | "complete-graph"
    n: int
    edges: int
    final_bound_ok: bool
    reduced_t2: int = 0
    v1_sum: Fraction | None = None
    root: int | None = None  # the full branch's `RootChoice.alpha`
    root_rationale: str | None = None  # and its `RootChoice.rationale`
    failures: list = field(default_factory=list)
    diagnostics: list = field(default_factory=list)
    ledger: ChargeLedger | None = field(default=None, repr=False)

    @property
    def passed(self):
        return self.final_bound_ok and not self.failures


def _check_monotone(ledger, fail):
    seq = ["g5"] + list(STAGE2_NAMES)
    stages = [ledger.stages[s] for s in seq]
    for v in range(ledger.graph.n):
        if ledger.level(v) < 2:
            continue
        vals = [charges[v] for charges in stages]
        # nonnegativity is absorbing, and negatives never decrease; a step
        # that left v untouched kept its charge object and breaks neither.
        # A charge's sign is its numerator's, as its denominator is positive.
        for i in range(len(vals) - 1):
            a, b = vals[i], vals[i + 1]
            if a is b:
                continue
            if a.numerator >= 0 > b.numerator:
                fail.append(f"sign monotonicity broken at {v} ({seq[i]}->{seq[i+1]})")
            if a.numerator < 0 and b < a:
                fail.append(f"negative charge sank at {v} ({seq[i]}->{seq[i+1]})")


def _check_observations(ledger, fail):
    gs = ledger.stages["g5"]
    for i in (2, 3, 4):
        for x in ledger.level_set(i):
            if gs[x].numerator >= 0:
                continue
            if ledger.n_class(x, i + 1, ("2",)) != 0:
                fail.append(f"negative-vertex rule: {x} has a 2/3+ neighbor above")
            ones = ledger.nbrs_class(x, i + 1, ("1",))
            if len(ones) > 1:
                fail.append(f"negative-vertex rule: {x} has {len(ones)} 1/6 neighbors above")
            for y in ones:
                if ledger.n_class(y, i + 1, ("1",)) != 1:
                    fail.append(f"pairing rule: neighbor {y} of negative {x} is unpaired")
    # conditional strengthened bounds for 2/3+ vertices in deep levels
    for i in (3, 4, 5):
        for x in ledger.level_set(i):
            if ledger.classes.get(x) != "2":
                continue
            ndown = ledger.n_at(x, i - 1)
            nsame = ledger.n_at(x, i)
            nplus = ledger.n_class(x, i - 1, PLUS)
            nminus1 = ledger.n_class(x, i - 1, ("-1",))
            nsame2 = ledger.n_class(x, i, ("2",))
            # each bound is b/6 for an integer b
            c = gs[x]
            floor6 = 4 * ndown + 2 * nplus + nminus1 + 2 * nsame + nsame2 - 8
            if _sixths(c, floor6) < 0:
                fail.append(f"class charge floor violated at {x}: {c} < {F(floor6, 6)}")
            strong = (
                nplus >= 2
                or (ndown >= 3 and ndown + nsame >= 5)
                or nplus + ndown >= 4
                or (nplus + ndown == 3 and nsame2 >= 1)
                or (nplus + ndown == 3 and nminus1 + nsame >= 2)
            )
            if strong and _sixths(c, 2 * ndown + nsame) < 0:
                fail.append(f"strong conditional bound violated at {x}")
            weak = (
                nplus >= 2
                or (ndown >= 2 and ndown + nsame >= 4)
                or nplus + ndown >= 3
                or (nplus + ndown == 2 and nsame2 >= 1)
                or (nplus + ndown == 2 and nminus1 + nsame >= 2)
                or (nplus + ndown == 1 and nminus1 + nsame2 >= 3)
            )
            if weak and _sixths(c, ndown + nsame) < 0:
                fail.append(f"weak conditional bound violated at {x}")


def _check_theorems(ledger, fail):
    # signs are read from the numerators, as in the other checks
    f5 = ledger.stages["f5"]
    f7 = ledger.stages["f7"]

    def n4_neg(y):
        return sum(1 for z in ledger.nbrs_at(y, 4) if f5[z].numerator < 0)

    for x in ledger.level_set(2):
        tot = sum(n4_neg(y) for y in ledger.nbrs_at(x, 3))
        if tot > 1:
            fail.append(f"level-4 debt bound violated at {x}: {tot}")
        neg3 = [y for y in ledger.nbrs_at(x, 3) if f5[y].numerator < 0]
        if len(neg3) > 1:
            fail.append(f"level-3 debt bound violated at {x}: {len(neg3)}")
        elif len(neg3) == 1:
            for y in ledger.nbrs_at(x, 3):
                if f5[y].numerator >= 0 and n4_neg(y) != 0:
                    fail.append(f"level-3 debt exclusivity violated at {x}/{y}")
    for i in range(2, ledger.partition.depth + 1):
        for v in ledger.level_set(i):
            if f7[v].numerator < 0:
                fail.append(f"final nonnegativity violated at {v}: f7 = {f7[v]}")


def _reduce_saturated(g: Graph, t2) -> Graph:
    """Certify that g, with n > 3 and T_2 `t2`, is C_6-saturated, and
    return g less T_2: one walk from each T_2 vertex covers its non-edges,
    then one saturation scan of the reduced graph covers the rest. Raises
    PreconditionError when either fails.

    This is exact. After the walks, g is connected. A T_2 vertex v has
    degree 2, in a triangle vab whose a has degree 2 too, so a is in T_2
    with neighbours v and b only; b, with a neighbour outside the triangle
    as n > 3, is not. So the only cycle through v or a is vab, and g is
    C_6-free iff the reduced graph is. A path between two vertices outside
    T_2 cannot pass v or a, as both would need b as a path neighbour; so
    the reduced graph, being induced, has a witness for a non-edge iff g
    does.
    """
    if t2:
        adj = g.adj
        everyone = (1 << g.n) - 1
        for a in t2:
            if kernels.least_paths(adj, a, 5, everyone ^ (adj[a] | 1 << a)):
                raise PreconditionError("input is not C_6-saturated")
        # the walks made g connected, so T_2 is the pairs {v, a} above, each
        # with its own three edges, and reduce_t2's check holds
        g = reduce_t2(g, t2)
    if not is_saturated_fast(g, 6):
        raise PreconditionError("input is not C_6-saturated")
    return g


def audit(g: Graph) -> DischargeAudit:
    """Full pipeline audit of a C_6-saturated graph, dispatching on minimum
    degree exactly as the edge lower bound's proof does.  The charge
    identity and the conservation of each stage are not reported: the
    stages raise unless they hold."""
    if g.n <= 3:
        if not is_saturated_fast(g, 6):
            raise PreconditionError("input is not C_6-saturated")
        # K_1..K_3, the only C_6-saturated graphs on at most three vertices,
        # short-circuit (K_3 would fail the T_2 parity check, which assumes a
        # proper saturated host around the triangles)
        return DischargeAudit("complete-graph", g.n, g.edge_count,
                              g.edge_count >= lower_bound_edges(g.n))
    t1, t2 = t_sets(g)
    removed = len(t2)
    g = _reduce_saturated(g, t2)
    n, e = g.n, g.edge_count
    delta = g.min_degree()
    if delta >= 3:
        ok = 2 * e >= 3 * n and e >= lower_bound_edges(n)
        return DischargeAudit("delta>=3", n, e, ok, reduced_t2=removed)
    rc = choose_root(g)
    if rc is None:
        # delta = 2 with no good root; g was certified saturated above, as
        # degree_sum_holds assumes, and has the input's T_1 unless T_2 went
        if removed:
            t1 = t_sets(g)[0]
        ok = degree_sum_holds(g, t1) and 2 * e >= 3 * n and e >= lower_bound_edges(n)
        return DischargeAudit("no-good-root", n, e, ok, reduced_t2=removed)

    ledger = initial_charge(g, rc.alpha)
    classify(ledger)
    stage_one(ledger)
    stage_two(ledger)

    out = DischargeAudit("full", n, e, False, reduced_t2=removed, root=rc.alpha,
                         root_rationale=rc.rationale, ledger=ledger)
    out.v1_sum = exact_sum([ledger.stages["g"][v] for v in ledger.level_set(1)])
    _check_monotone(ledger, out.failures)
    _check_observations(ledger, out.failures)
    _check_theorems(ledger, out.failures)
    if out.v1_sum != (F(-5, 3) if delta == 1 else F(-2)):
        out.failures.append("v1-sum check failed")
    if ledger.outer_sum("f7") < 0:
        out.failures.append("outer-sum-nonneg check failed")
    out.final_bound_ok = e >= lower_bound_edges(n)
    if not out.final_bound_ok:
        out.failures.append(f"final bound failed: e={e}, n={n}")
    out.diagnostics = list(ledger.diagnostics)
    return out


def render_stage_table(ledger: ChargeLedger, stages) -> str:
    """One row per vertex with exact p/q charge rendering, one column per
    name in the list `stages`."""
    lines = ["vertex level " + " ".join(f"{s:>8}" for s in stages)]
    for v in range(ledger.graph.n):
        cells = " ".join(f"{str(ledger.stages[s][v]):>8}" for s in stages)
        lines.append(f"{v:>6} {ledger.level(v):>5} {cells}")
    return "\n".join(lines)
