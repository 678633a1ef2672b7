"""Two-stage discharging audit on a concrete C_6-saturated graph.

Root selection, distance layering, the initial per-vertex charge, five
first-stage redistribution steps, seven second-stage steps, and the audit
that checks every conservation identity and runtime assertion. Everything is
exact `fractions.Fraction` arithmetic; equality tests carry zero tolerance.

Stage snapshot semantics: each step is a function of the complete previous
ledger; within a step, all sends are computed from the snapshot and applied
simultaneously.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .graph import Graph, GraphError, LevelPartition, bfs_levels
from .saturation import (
    PreconditionError,
    check_saturated,
    good_roots,
    is_saturated_fast,
    t_sets,
    theta_classes,
    reduce_t2,
)

F = Fraction
THIRD = F(1, 3)
SIXTH = F(1, 6)
BASE = F(4, 3)

STAGE1_NAMES = ("g", "g1", "g2", "g3", "g4", "g5")
STAGE2_NAMES = ("f1", "f2", "f3", "f4", "f5", "f6", "f7")


class DischargeError(GraphError):
    pass


class RuleConflict(DischargeError):
    """A redistribution step drove a sender below its stated budget."""


@dataclass(frozen=True)
class RootChoice:
    alpha: int
    closed_nbhd: frozenset
    delta: int
    rationale: str


@dataclass
class ChargeLedger:
    graph: Graph
    partition: LevelPartition
    stages: dict = field(default_factory=dict)  # name -> {vertex: Fraction}
    classes: dict = field(default_factory=dict)  # vertex -> "-1"|"-2"|"1"|"2"
    diagnostics: list = field(default_factory=list)

    # -- level helpers (levels are 1-based) --------------------------------

    def level(self, v):
        return self.partition.level(v)

    def level_set(self, i):
        if 1 <= i <= self.partition.depth:
            return self.partition.levels[i - 1]
        return frozenset()

    def nbrs_at(self, x, i):
        return [w for w in self.graph.neighbors(x) if self.level(w) == i]

    def n_at(self, x, i):
        return len(self.nbrs_at(x, i))

    def nbrs_class(self, x, i, tags):
        return [w for w in self.nbrs_at(x, i) if self.classes.get(w) in tags]

    def n_class(self, x, i, tags):
        return len(self.nbrs_class(x, i, tags))

    def charge(self, stage, v):
        return self.stages[stage][v]

    def outer_sum(self, stage):
        v1 = self.level_set(1)
        return sum(
            (c for v, c in self.stages[stage].items() if v not in v1), F(0)
        )

    def flag(self, msg):
        self.diagnostics.append(msg)


MINUS = ("-1", "-2")
PLUS = ("1", "2")


# ---------------------------------------------------------------------------
# root choice
# ---------------------------------------------------------------------------

def _four_cycles_through(g, u):
    """Distinct 4-cycles (as subgraphs) containing u."""
    count = 0
    for a in range(g.n):
        for b in range(a + 1, g.n):
            if g.has_edge(a, b) or not (g.adj[a] & g.adj[b]):
                continue
            commons = [w for w in g.neighbors(a) if g.has_edge(b, w)]
            for i, w1 in enumerate(commons):
                for w2 in commons[i + 1:]:
                    if u in (a, b, w1, w2):
                        count += 1
    return count


def choose_root(g: Graph) -> RootChoice:
    """Pick the audit root among minimum-degree vertices.

    delta = 1: minimize the number of 4-cycles through the unique neighbor.
    delta = 2: good root with the smallest degree-2 cycle class; ties by id.
    """
    delta = g.min_degree()
    if delta >= 3:
        raise PreconditionError(f"minimum degree {delta} >= 3")
    if delta == 0:
        raise PreconditionError("isolated vertex")
    if delta == 1:
        best, best_key = None, None
        for v in range(g.n):
            if g.degree(v) != 1:
                continue
            key = (_four_cycles_through(g, g.neighbors(v)[0]), v)
            if best_key is None or key < best_key:
                best, best_key = v, key
        rationale = "min-4-cycles-at-neighbor"
        alpha = best
    else:
        roots = good_roots(g)
        if not roots:
            raise PreconditionError("no good root")
        theta = theta_classes(g)
        alpha = min(roots, key=lambda v: (theta.classes[v], v))
        rationale = f"good-root-class-{theta.classes[alpha]}"
        if theta.classes[alpha] == 5:
            rationale += "-fallback"
    nbhd = frozenset([alpha] + g.neighbors(alpha))
    return RootChoice(alpha, nbhd, delta, rationale)


# ---------------------------------------------------------------------------
# initial charge and classes
# ---------------------------------------------------------------------------

def level_charges(g: Graph, root: int, max_level: int = 5):
    """Layer from an arbitrary root and assign the initial charge."""
    part = bfs_levels(g, root, max_level)
    ledger = ChargeLedger(g, part)
    charges = {}
    for v in range(g.n):
        i = part.level(v)
        within = ledger.n_at(v, i)
        if i == 1:
            charges[v] = F(within, 2) - BASE
        else:
            charges[v] = ledger.n_at(v, i - 1) + F(within, 2) - BASE
    ledger.stages["g"] = charges
    return ledger


def charge_identity_holds(g: Graph, root: int) -> bool:
    """e(G) = sum_x g(x) + 4n/3, exactly."""
    ledger = level_charges(g, root)
    total = sum(ledger.stages["g"].values(), F(0))
    return total + BASE * g.n == g.edge_count


def initial_charge(g: Graph, rc: RootChoice) -> ChargeLedger:
    ledger = level_charges(g, rc.alpha)
    if not charge_identity_holds(g, rc.alpha):
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
        if c < 0:
            if c != -THIRD:
                raise DischargeError(f"negative charge {c} at {v} is not -1/3")
            base[v] = "-"
        elif c == SIXTH:
            base[v] = "1"
        elif c >= F(2, 3):
            base[v] = "2"
        else:
            raise DischargeError(f"charge {c} at {v} outside the value grid")
    ledger.classes = dict(base)
    # split "-" by the number of 2/3+ neighbors one level further out
    for v, tag in base.items():
        if tag == "-":
            i = ledger.level(v)
            n2up = sum(1 for w in ledger.nbrs_at(v, i + 1) if base.get(w) == "2")
            ledger.classes[v] = "-1" if n2up >= 2 else "-2"
    return ledger


# ---------------------------------------------------------------------------
# stage one
# ---------------------------------------------------------------------------

def _apply(charges, transfers):
    out = dict(charges)
    for sender, receiver, amount in transfers:
        out[sender] -= amount
        out[receiver] += amount
    return out


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


def _level_one_pairs(ledger, i):
    """Adjacent pairs of 1/6-vertices in level i; disjoint because each such
    vertex has exactly one same-level neighbor."""
    pairs = []
    ones = sorted(v for v in ledger.level_set(i) if ledger.classes.get(v) == "1")
    for v in ones:
        same = ledger.nbrs_class(v, i, ("1",))
        for w in same:
            if v < w:
                pairs.append((v, w))
    return pairs


def stage_one(ledger: ChargeLedger) -> ChargeLedger:
    """First-stage steps: class-driven sends, then two rounds of same-level
    balancing in the deepest layer interleaved with zeroing of residual
    negative charge from above."""
    if not ledger.classes and ledger.graph.n > 1:
        classify(ledger)
    g = ledger.stages["g"]
    depth = ledger.partition.depth

    # step 1: 2/3+ and 1/6 vertices send along class rules
    transfers = []
    for i in range(2, depth + 1):
        for u in sorted(ledger.level_set(i)):
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
        if g1[u] < 0:
            raise RuleConflict(f"stage-one step 1 overdrew vertex {u}")

    # steps 2 and 4: same-level 1/6 pair balancing in the deepest layer
    def pair_balance(charges):
        moves = []
        for w1, w2 in _level_one_pairs(ledger, 5):
            y1 = ledger.nbrs_at(w1, 4)
            y2 = ledger.nbrs_at(w2, 4)
            if len(y1) != 1 or len(y2) != 1:
                continue
            c1, c2 = charges[y1[0]], charges[y2[0]]
            if c1 >= 0 and c2 < 0:
                moves.append((w1, w2, SIXTH))
            elif c2 >= 0 and c1 < 0:
                moves.append((w2, w1, SIXTH))
        return _apply(charges, moves)

    g2 = pair_balance(g1)

    # step 3: residual negatives pull matching 1/6 charge from below
    transfers = []
    for i in (2, 3, 4):
        t = SIXTH if i in (2, 3) else THIRD
        for y in sorted(ledger.level_set(i)):
            if ledger.classes.get(y) not in MINUS or g2[y] >= 0:
                continue
            for z in ledger.nbrs_class(y, i + 1, ("1",)):
                if g2[z] == t:
                    transfers.append((z, y, t))
    g3 = _apply(g2, transfers)

    g4 = pair_balance(g3)

    # step 5: remaining negatives in V_4 drain their 1/6-class V_5 neighbors
    transfers = []
    for y in sorted(ledger.level_set(4)):
        if ledger.classes.get(y) not in MINUS or g4[y] >= 0:
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

def _stage2_step1(ledger, gstar):
    """Deepest level empties itself into the level above, with two special
    split patterns for senders wedged between negative receivers."""
    transfers = []
    for w in sorted(ledger.level_set(5)):
        down = ledger.nbrs_at(w, 4)
        if not down:
            ledger.flag(f"level-5 vertex {w} has no level-4 neighbor")
            continue
        split = _split_exception(ledger, w, down)
        if split is not None:
            for z, frac in split:
                transfers.append((w, z, gstar[w] * frac))
        else:
            share = gstar[w] / len(down)
            for z in down:
                transfers.append((w, z, share))
    f1 = _apply(gstar, transfers)
    for w in ledger.level_set(5):
        if ledger.nbrs_at(w, 4) and f1[w] != 0:
            raise RuleConflict(f"level-5 vertex {w} not emptied by stage-two step 1")
    return f1


def _split_exception(ledger, w, down):
    g = ledger.graph

    def n5minus(z):
        return ledger.n_class(z, 5, MINUS)

    if g.degree(w) == 3 and len(down) == 2:
        (w1,) = [x for x in ledger.nbrs_at(w, 5)]  # may raise ValueError len!=1
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
                return [(za, F(2, 3)), (zb, F(1, 3))]
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
    for z in sorted(ledger.level_set(4)):
        needy = [z2 for z2 in ledger.nbrs_at(z, 4) if f1[z2] < 0]
        if needy and f1[z] >= SIXTH * len(needy):
            for z2 in needy:
                transfers.append((z, z2, SIXTH))
    for z1, z2 in _level_one_pairs(ledger, 4):
        y1 = ledger.nbrs_at(z1, 3)
        y2 = ledger.nbrs_at(z2, 3)
        if len(y1) != 1 or len(y2) != 1:
            continue
        for recv, send, yr, ys in ((z1, z2, y1[0], y2[0]), (z2, z1, y2[0], y1[0])):
            if f1[recv] == 0 and f1[yr] < 0:
                if (f1[send] >= THIRD and f1[ys] < 0) or (
                    f1[send] >= SIXTH and f1[ys] >= 0
                ):
                    transfers.append((send, recv, SIXTH))
    return _apply(f1, transfers)


def _stage2_step3(ledger, f2):
    """Nonnegative level-4 vertices empty into level 3, usually averaged,
    with a split pattern toward the unique pendant-carrying neighbor."""
    transfers = []
    for z in sorted(ledger.level_set(4)):
        if f2[z] < 0:
            continue
        up = ledger.nbrs_at(z, 3)
        if not up:
            ledger.flag(f"level-4 vertex {z} has no level-3 neighbor")
            continue
        split = _pendant_split(ledger, z, up)
        if split is not None:
            for y, frac in split:
                transfers.append((z, y, f2[z] * frac))
        else:
            share = f2[z] / len(up)
            for y in up:
                transfers.append((z, y, share))
    f3 = _apply(f2, transfers)
    for z in ledger.level_set(4):
        if f2[z] >= 0 and ledger.nbrs_at(z, 3) and f3[z] != 0:
            raise RuleConflict(f"level-4 vertex {z} not emptied by stage-two step 3")
    return f3


def _pendant_split(ledger, z, up):
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
    """Level-3 vertices absorb their negative level-4 neighbors and tip 1/6
    to same-level neighbors left short; each negative is funded once."""
    snap_s = {}
    for v in ledger.level_set(3):
        snap_s[v] = sum((-f3[z] for z in ledger.nbrs_at(v, 4) if f3[z] < 0), F(0))
    funded = set()
    transfers = []
    for y in sorted(ledger.level_set(3)):
        needy = [z for z in ledger.nbrs_at(y, 4) if f3[z] < 0]
        live = [z for z in needy if z not in funded]
        if len(live) != len(needy):
            ledger.flag(f"stage-two step 4: {y} found already-funded neighbors")
        s = sum((-f3[z] for z in live), F(0))
        gifts = [y1 for y1 in ledger.nbrs_at(y, 3) if f3[y1] - snap_s[y1] < 0]
        if f3[y] >= s + SIXTH * len(gifts):
            for z in live:
                transfers.append((y, z, -f3[z]))
                funded.add(z)
            for y1 in gifts:
                transfers.append((y, y1, SIXTH))
        elif f3[y] >= s:
            for z in live:
                transfers.append((y, z, -f3[z]))
                funded.add(z)
    return _apply(f3, transfers)


def _stage2_step5(ledger, f4):
    funded = set()
    transfers = []
    for y in sorted(ledger.level_set(3)):
        live = [z for z in ledger.nbrs_at(y, 4) if f4[z] < 0 and z not in funded]
        need = sum((-f4[z] for z in live), F(0))
        if live and f4[y] >= need:
            for z in live:
                transfers.append((y, z, -f4[z]))
                funded.add(z)
    return _apply(f4, transfers)


def _stage2_step6(ledger, f5):
    transfers = []
    for y1, y2 in _level_one_pairs(ledger, 3):
        x1 = ledger.nbrs_at(y1, 2)
        x2 = ledger.nbrs_at(y2, 2)
        if len(x1) != 1 or len(x2) != 1:
            continue
        for a, b, xa, xb in ((y1, y2, x1[0], x2[0]), (y2, y1, x2[0], x1[0])):
            if f5[xa] >= 0 and f5[xb] < 0 and f5[a] >= SIXTH and f5[b] == 0:
                transfers.append((a, b, SIXTH))
    return _apply(f5, transfers)


def _stage2_step7(ledger, f6):
    """Level 3 empties into level 2; each level-2 vertex then absorbs the
    negative vertices it can see in levels 3 and 4, when it can afford to."""
    f7 = dict(f6)
    # averaged positive sends
    for y in sorted(ledger.level_set(3)):
        if f6[y] < 0:
            continue
        down = ledger.nbrs_at(y, 2)
        if not down:
            ledger.flag(f"level-3 vertex {y} has no level-2 neighbor")
            continue
        share = f6[y] / len(down)
        for x in down:
            f7[x] += share
        f7[y] = 0
    # debt settlement
    funded = set()
    for x in sorted(ledger.level_set(2)):
        up = ledger.nbrs_at(x, 3)
        pool = set(up)
        for y in up:
            pool.update(ledger.nbrs_at(y, 4))
        debts = sorted(v for v in pool if f6[v] < 0 and v not in funded)
        if not debts:
            continue
        need = sum((-f6[v] for v in debts), F(0))
        if f7[x] >= need:
            f7[x] -= need
            for v in debts:
                f7[v] = 0
                funded.add(v)
        else:
            ledger.flag(f"stage-two step 7: vertex {x} cannot cover {need}")
    return f7


def stage_two(ledger: ChargeLedger) -> ChargeLedger:
    gstar = ledger.stages["g5"]
    f1 = _stage2_step1(ledger, gstar)
    f2 = _stage2_step2(ledger, f1)
    f3 = _stage2_step3(ledger, f2)
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
    charge_identity_ok: bool | None = None
    v1_sum: Fraction | None = None
    v1_sum_ok: bool | None = None
    stage1_conserved: bool | None = None
    stage2_conserved: bool | None = None
    monotone_sign_ok: bool | None = None
    class_bounds_ok: bool | None = None
    v4_debt_ok: bool | None = None
    v3_debt_ok: bool | None = None
    final_nonneg_ok: bool | None = None
    outer_sum_nonneg: bool | None = None
    failures: list = field(default_factory=list)
    diagnostics: list = field(default_factory=list)
    ledger: ChargeLedger | None = field(default=None, repr=False)

    @property
    def passed(self):
        return self.final_bound_ok and not self.failures


def _bound_ok(edges, n):
    return 3 * edges >= 4 * n - 6


def _check_monotone(ledger, fail):
    seq = ["g5"] + list(STAGE2_NAMES)
    for v in range(ledger.graph.n):
        if ledger.level(v) < 2:
            continue
        vals = [ledger.charge(s, v) for s in seq]
        # nonnegativity is absorbing, and negatives never decrease
        for i in range(len(vals) - 1):
            if vals[i] >= 0 and vals[i + 1] < 0:
                fail.append(f"sign monotonicity broken at {v} ({seq[i]}->{seq[i+1]})")
            if vals[i] < 0 and vals[i + 1] < vals[i]:
                fail.append(f"negative charge sank at {v} ({seq[i]}->{seq[i+1]})")


def _check_observations(ledger, fail):
    gs = ledger.stages["g5"]
    for i in (2, 3, 4):
        for x in ledger.level_set(i):
            if gs[x] >= 0:
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
            floor3 = (
                F(2, 3) * ndown + THIRD * nplus + SIXTH * nminus1
                + THIRD * nsame + SIXTH * nsame2 - BASE
            )
            if gs[x] < floor3:
                fail.append(f"class charge floor violated at {x}: {gs[x]} < {floor3}")
            strong = (
                nplus >= 2
                or (ndown >= 3 and ndown + nsame >= 5)
                or nplus + ndown >= 4
                or (nplus + ndown == 3 and nsame2 >= 1)
                or (nplus + ndown == 3 and nminus1 + nsame >= 2)
            )
            if strong and gs[x] < THIRD * ndown + SIXTH * nsame:
                fail.append(f"strong conditional bound violated at {x}")
            weak = (
                nplus >= 2
                or (ndown >= 2 and ndown + nsame >= 4)
                or nplus + ndown >= 3
                or (nplus + ndown == 2 and nsame2 >= 1)
                or (nplus + ndown == 2 and nminus1 + nsame >= 2)
                or (nplus + ndown == 1 and nminus1 + nsame2 >= 3)
            )
            if weak and gs[x] < SIXTH * ndown + SIXTH * nsame:
                fail.append(f"weak conditional bound violated at {x}")


def _check_theorems(ledger, audit):
    f5 = ledger.stages["f5"]
    f7 = ledger.stages["f7"]

    def n4_neg(y):
        return sum(1 for z in ledger.nbrs_at(y, 4) if f5[z] < 0)

    audit.v4_debt_ok = True
    audit.v3_debt_ok = True
    audit.final_nonneg_ok = True
    for x in ledger.level_set(2):
        tot = sum(n4_neg(y) for y in ledger.nbrs_at(x, 3))
        if tot > 1:
            audit.v4_debt_ok = False
            audit.failures.append(f"level-4 debt bound violated at {x}: {tot}")
        neg3 = [y for y in ledger.nbrs_at(x, 3) if f5[y] < 0]
        if len(neg3) > 1:
            audit.v3_debt_ok = False
            audit.failures.append(f"level-3 debt bound violated at {x}: {len(neg3)}")
        elif len(neg3) == 1:
            for y in ledger.nbrs_at(x, 3):
                if f5[y] >= 0 and n4_neg(y) != 0:
                    audit.v3_debt_ok = False
                    audit.failures.append(f"level-3 debt exclusivity violated at {x}/{y}")
    for i in range(2, ledger.partition.depth + 1):
        for v in ledger.level_set(i):
            if f7[v] < 0:
                audit.final_nonneg_ok = False
                audit.failures.append(f"final nonnegativity violated at {v}: f7 = {f7[v]}")


def audit(g: Graph, k: int = 6) -> DischargeAudit:
    """Full pipeline audit of a C_6-saturated graph, dispatching on minimum
    degree exactly as the edge lower bound's proof does."""
    if k != 6:
        raise PreconditionError("discharging audit is defined for 6-cycles")
    if not is_saturated_fast(g, 6):
        raise PreconditionError("input is not C_6-saturated")
    if 2 * g.edge_count == g.n * (g.n - 1):
        # complete graphs short-circuit (and dodge the T_2 parity check,
        # which assumes a proper saturated host around the triangles)
        n, e = g.n, g.edge_count
        if n >= 4:
            return DischargeAudit("delta>=3", n, e,
                                  2 * e >= 3 * n and _bound_ok(e, n))
        return DischargeAudit("complete-graph", n, e, _bound_ok(e, n))
    removed = 0
    ts = t_sets(g)
    if ts.t2:
        removed = len(ts.t2)
        g = reduce_t2(g)
        if not is_saturated_fast(g, 6):
            raise DischargeError("T_2 reduction destroyed saturation")
    n, e = g.n, g.edge_count
    delta = g.min_degree()
    if delta >= 3:
        ok = 2 * e >= 3 * n and _bound_ok(e, n)
        return DischargeAudit("delta>=3", n, e, ok, reduced_t2=removed)
    if delta == 2 and not good_roots(g):
        from .saturation import degree_sum_check

        ok = degree_sum_check(g) and 2 * e >= 3 * n and _bound_ok(e, n)
        return DischargeAudit("no-good-root", n, e, ok, reduced_t2=removed)

    rc = choose_root(g)
    ledger = initial_charge(g, rc)
    classify(ledger)
    stage_one(ledger)
    stage_two(ledger)

    out = DischargeAudit("full", n, e, False, reduced_t2=removed, ledger=ledger)
    total = sum(ledger.stages["g"].values(), F(0))
    out.charge_identity_ok = total + BASE * n == e
    out.v1_sum = sum((ledger.stages["g"][v] for v in ledger.level_set(1)), F(0))
    out.v1_sum_ok = out.v1_sum == (F(-5, 3) if rc.delta == 1 else F(-2))
    base_outer = ledger.outer_sum("g")
    out.stage1_conserved = ledger.outer_sum("g5") == base_outer
    out.stage2_conserved = ledger.outer_sum("f7") == base_outer
    mono_fail, obs_fail = [], []
    _check_monotone(ledger, mono_fail)
    _check_observations(ledger, obs_fail)
    out.monotone_sign_ok = not mono_fail
    out.class_bounds_ok = not obs_fail
    out.failures.extend(mono_fail + obs_fail)
    _check_theorems(ledger, out)
    out.outer_sum_nonneg = ledger.outer_sum("f7") >= 0
    for name, ok in (
        ("charge-identity", out.charge_identity_ok),
        ("v1-sum", out.v1_sum_ok),
        ("stage1-conservation", out.stage1_conserved),
        ("stage2-conservation", out.stage2_conserved),
        ("outer-sum-nonneg", out.outer_sum_nonneg),
    ):
        if not ok:
            out.failures.append(f"{name} check failed")
    out.final_bound_ok = _bound_ok(e, n)
    if not out.final_bound_ok:
        out.failures.append(f"final bound failed: e={e}, n={n}")
    out.diagnostics = list(ledger.diagnostics)
    return out


def render_stage_table(ledger: ChargeLedger, stages=None) -> str:
    """One row per vertex with exact p/q charge rendering."""
    names = list(stages) if stages else list(ledger.stages)
    lines = ["vertex level " + " ".join(f"{s:>8}" for s in names)]
    for v in range(ledger.graph.n):
        cells = " ".join(f"{str(ledger.stages[s][v]):>8}" for s in names)
        lines.append(f"{v:>6} {ledger.level(v):>5} {cells}")
    return "\n".join(lines)
