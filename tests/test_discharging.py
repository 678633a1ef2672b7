import hashlib
import inspect
import itertools
import random
import sys
from fractions import Fraction as F

import pytest

from satforge import discharging, kernels
from satforge.construction import build_construction
from satforge.discharging import (
    MINUS,
    PLUS,
    _check_monotone,
    _check_observations,
    _four_cycles_through,
    audit,
    bfs_levels,
    charge_identity_holds,
    choose_root,
    classify,
    exact_sum,
    initial_charge,
    level_charges,
    render_stage_table,
    stage_one,
    stage_two,
    t_sets,
)
from satforge.graph import Graph, from_graph6
from satforge.saturation import PreconditionError, is_saturated_fast
from tests.conftest import (
    CHECK_MESSAGES,
    complete_graph,
    cycle_graph,
    failures_of,
    path_graph,
    process_graphs,
    random_connected_graph,
)


def brute_four_cycle_diagonals(g, u):
    """(4-cycle through u, diagonal that is not an edge) pairs: each 4-set
    holding u splits three ways into diagonals {a, b} and {c, d}, and is a
    4-cycle a-c-b-d for that split when all four sides are edges."""
    count = 0
    for quad in itertools.combinations(range(g.n), 4):
        if u not in quad:
            continue
        a, rest = quad[0], quad[1:]
        for b in rest:
            c, d = [x for x in rest if x != b]
            if all(g.has_edge(x, y) for x in (a, b) for y in (c, d)):
                count += (not g.has_edge(a, b)) + (not g.has_edge(c, d))
    return count


def _pinned_graphs():
    return [build_construction(n)[0] for n in range(9, 41)] + process_graphs()


# audit_digest(_pinned_graphs()); a change to any charge, its type, the
# order of transfers, a check or a diagnostic moves it
AUDIT_DIGEST = "51ebbf80d8be8d013b163f8c77b77294576e9fa96379e14c4ef4321ba9926ad3"


def audit_digest(graphs):
    """sha256 over each audit's branch, failures, diagnostics and V_1 sum and
    every stage dict of its ledger, each charge as its exact string and its
    type name."""
    h = hashlib.sha256()
    for g in graphs:
        a = audit(g)
        h.update(repr((a.branch, a.failures, a.diagnostics, str(a.v1_sum))).encode())
        if a.ledger is not None:
            for name, charges in a.ledger.stages.items():
                h.update(repr((name, [(v, str(c), type(c).__name__)
                                      for v, c in charges.items()])).encode())
    return h.hexdigest()


def _pipeline(g):
    rc = choose_root(g)
    ledger = initial_charge(g, rc.alpha)
    classify(ledger)
    stage_one(ledger)
    stage_two(ledger)
    return rc, ledger


class TestRootChoice:
    def test_good_root_preferred_by_class(self):
        g, spec = build_construction(9)
        rc = choose_root(g)
        # pendant-path roots (class 2) beat the chorded-cycle roots (class 5)
        assert rc.alpha == spec.labels["a0"]
        assert rc.delta == 2
        assert "class-2" in rc.rationale

    def test_degree_one_branch(self):
        g, spec = build_construction(10)  # epsilon = 1: z1 is a pendant
        rc = choose_root(g)
        assert rc.delta == 1
        assert g.degree(rc.alpha) == 1

    def test_four_cycle_count_pins(self):
        assert [_four_cycles_through(cycle_graph(4), u) for u in range(4)] == [2] * 4
        assert [_four_cycles_through(complete_graph(4), u) for u in range(4)] == [0] * 4

    def test_four_cycle_count_matches_brute_force(self, rng):
        for _ in range(40):
            g = random_connected_graph(rng, n_max=10)
            for u in range(g.n):
                assert _four_cycles_through(g, u) == brute_four_cycle_diagonals(g, u)

    def test_high_min_degree_rejected(self):
        with pytest.raises(PreconditionError):
            choose_root(complete_graph(5))

    def test_audit_reports_the_root_and_why(self):
        rationales = set()
        for g in _pinned_graphs():
            a = audit(g)
            if a.branch != "full":
                assert (a.root, a.root_rationale) == (None, None), a.branch
                continue
            rc = choose_root(a.ledger.graph)
            assert (a.root, a.root_rationale) == (rc.alpha, rc.rationale)
            rationales.add(a.root_rationale)
        assert "min-4-cycles-at-neighbor" in rationales  # delta = 1
        assert "good-root-class-2" in rationales  # delta = 2

    def test_no_good_root_gives_none(self):
        # minimum degree 2, and every degree-2 vertex lies in a triangle
        g = from_graph6("IEDP?_a~w")
        assert g.min_degree() == 2
        assert choose_root(g) is None
        assert audit(g).branch == "no-good-root"


class TestInitialCharge:
    def test_identity_on_random_roots(self, rng):
        checked = 0
        while checked < 60:
            g = random_connected_graph(rng, n_max=10)
            root = rng.randrange(g.n)
            if bfs_levels(g, root).depth > 5:
                continue
            assert charge_identity_holds(g, root)
            checked += 1

    def test_v1_sum_good_root(self):
        g, _ = build_construction(9)
        rc, ledger = _pipeline(g)
        v1 = ledger.level_set(1)
        assert sum((ledger.stages["g"][v] for v in v1), F(0)) == F(-2)

    def test_v1_sum_pendant_root(self):
        g, _ = build_construction(13)  # epsilon = 1
        rc, ledger = _pipeline(g)
        assert rc.delta == 1
        v1 = ledger.level_set(1)
        assert sum((ledger.stages["g"][v] for v in v1), F(0)) == F(-5, 3)

    def test_classify_grid_guard(self):
        # a 7/6 gap value cannot appear; guard exercised via a crafted ledger
        g = cycle_graph(7)
        ledger = level_charges(g, 0)
        classify(ledger)  # cycle charges sit exactly on the grid
        assert set(ledger.classes.values()) <= {"-1", "-2", "1", "2"}


def _assert_queries_match(led):
    """The ledger's level and class queries against their definitions by the
    neighbor list and the `classes` dict."""
    tag_sets = [(t,) for t in ("-1", "-2", "1", "2")] + [MINUS, PLUS, MINUS + PLUS]
    for x in range(led.graph.n):
        for i in range(led.partition.depth + 2):
            want = [w for w in led.graph.neighbors(x) if led.level(w) == i]
            assert led.nbrs_at(x, i) == want
            assert led.n_at(x, i) == len(want)
            for tags in tag_sets:
                cls = [w for w in want if led.classes.get(w) in tags]
                assert led.nbrs_class(x, i, tags) == cls
                assert led.n_class(x, i, tags) == len(cls)


class TestLevelQueries:
    def test_match_the_neighbor_list_definitions(self):
        checked = 0
        for g in _pinned_graphs():
            led = audit(g).ledger
            if led is None:
                continue
            _assert_queries_match(led)
            checked += 1
        assert checked == 64

    def test_match_on_the_family(self):
        # deep layers and two hubs, up to n = 64: the full-branch ledgers
        # of the family members n = 9..64
        for n in range(9, 65):
            a = audit(build_construction(n)[0])
            assert a.branch == "full"
            _assert_queries_match(a.ledger)

    def test_classify_again_rebuilds_the_class_masks(self):
        # swap the 1/6 and 2/3 charges below V_1, so that classes "1" and "2"
        # trade places, after the queries have been answered (and cached)
        swap = {F(1, 6): F(2, 3), F(2, 3): F(1, 6)}
        changed = 0
        for g in _pinned_graphs()[:12]:
            led = audit(g).ledger
            _assert_queries_match(led)
            before = dict(led.classes)
            led.stages["g"] = {v: swap.get(c, c) if led.level(v) >= 2 else c
                               for v, c in led.stages["g"].items()}
            classify(led)
            changed += led.classes != before
            _assert_queries_match(led)
        assert changed == 12


class TestFrozenFixture:
    """Hand-computed ledger for the 9-vertex core, rooted at the pendant-path
    end a0 (id 6)."""

    G = {0: F(-5, 6), 1: F(1, 6), 2: F(1, 6), 3: F(1, 6), 4: F(2, 3),
         5: F(2, 3), 6: F(-1, 3), 7: F(-5, 6), 8: F(1, 6)}
    F7 = {0: F(-5, 6), 1: F(5, 6), 2: F(1, 6), 3: F(5, 6), 4: F(0),
          5: F(0), 6: F(-1, 3), 7: F(-5, 6), 8: F(1, 6)}

    def test_levels_and_charges(self):
        g, _ = build_construction(9)
        rc, ledger = _pipeline(g)
        assert rc.alpha == 6
        assert ledger.level_set(1) == (0, 6, 7)
        assert ledger.level_set(3) == (4, 5)
        assert ledger.stages["g"] == self.G
        assert ledger.stages["g5"] == self.G  # stage one is a no-op here
        assert ledger.stages["f7"] == self.F7

    def test_outer_sums(self):
        g, _ = build_construction(9)
        _, ledger = _pipeline(g)
        assert ledger.outer_sum("g") == F(2)
        assert ledger.outer_sum("f7") == F(2)

    def test_outer_sum_follows_a_replaced_stage(self):
        g, _ = build_construction(9)
        _, ledger = _pipeline(g)
        assert ledger.outer_sum("g5") == F(2)
        ledger.stages["g5"] = {v: c + 1 for v, c in ledger.stages["g5"].items()}
        assert ledger.outer_sum("g5") == F(2) + g.n - len(ledger.level_set(1))

    def test_monotone_check_compares_every_changed_value(self):
        g, _ = build_construction(9)
        _, ledger = _pipeline(g)
        assert ledger.level(1) >= 2 and ledger.stages["g5"][1] >= 0
        fail = []
        _check_monotone(ledger, fail)
        assert fail == []
        st = ledger.stages
        st["f1"] = {**st["f1"], 1: F(-1, 6)}
        st["f2"] = {**st["f2"], 1: F(-1, 3)}
        _check_monotone(ledger, fail)
        assert fail == ["sign monotonicity broken at 1 (g5->f1)",
                        "negative charge sank at 1 (f1->f2)"]

    def test_render_table(self):
        g, _ = build_construction(9)
        _, ledger = _pipeline(g)
        text = render_stage_table(ledger, ["g", "f7"])
        assert "-5/6" in text and "5/6" in text
        assert len(text.splitlines()) == 10


class TestConservation:
    @pytest.mark.parametrize("n", range(9, 31, 3))
    def test_stage_totals(self, n):
        g, _ = build_construction(n)
        _, ledger = _pipeline(g)
        base = ledger.outer_sum("g")
        assert ledger.outer_sum("g5") == base
        assert ledger.outer_sum("f7") == base


class TestAudit:
    def test_family_full_branch(self):
        for n in (9, 12, 16, 20):
            a = audit(build_construction(n)[0])
            assert a.branch == "full"
            assert a.passed, a.failures

    def test_t2_reduction_noted(self):
        a = audit(build_construction(11)[0])
        assert a.reduced_t2 == 2
        assert a.passed, a.failures

    def test_t_sets_once_per_audited_graph(self, monkeypatch):
        # the T-sets of the input, and of the reduced graph where the
        # no-good-root branch needs them, each computed once
        calls = []
        counted = lambda g: calls.append(g.adj) or t_sets(g)  # noqa: E731
        monkeypatch.setattr(discharging, "t_sets", counted)
        seen = 0
        for g in [build_construction(11)[0], *_pinned_graphs()]:
            calls.clear()
            a = audit(g)
            assert len(calls) == len(set(calls)), a.branch
            seen += bool(a.reduced_t2)
        assert seen

    def test_degree_sum_gets_the_audited_graphs_t1(self, monkeypatch):
        # the no-good-root branch passes the T_1 of the graph it bounds:
        # the input's, or the reduced graph's after a T_2 removal
        calls = []
        holds = discharging.degree_sum_holds

        def spy(g, t1):
            calls.append(t1 == t_sets(g)[0])
            return holds(g, t1)

        monkeypatch.setattr(discharging, "degree_sum_holds", spy)
        branches = [(a.branch, bool(a.reduced_t2))
                    for a in map(audit, _pinned_graphs())]
        assert branches.count(("no-good-root", True)) == 2
        assert branches.count(("no-good-root", False)) == 3
        assert calls == [True] * 5

    def test_complete_graph_delta3_branch(self):
        for n in (4, 5):
            a = audit(complete_graph(n))
            assert a.branch == "delta>=3"
            assert a.passed

    def test_tiny_complete_graphs(self):
        for n in (1, 2, 3):
            a = audit(complete_graph(n))
            assert a.branch == "complete-graph"
            assert a.passed

    def test_random_saturation_process(self):
        # `passed` is not asserted: some of these graphs fail the weak
        # conditional bound check, an open question about its transcription
        for g in process_graphs():
            a = audit(g)
            assert a.branch in ("full", "no-good-root", "delta>=3")
            assert a.final_bound_ok
            if a.branch != "full":
                continue
            led = a.ledger
            g = led.stages["g"]
            assert sum(g.values(), F(0)) + F(4, 3) * a.n == a.edges
            v1_sum = sum((g[v] for v in led.level_set(1)), F(0))
            assert v1_sum == (F(-5, 3) if led.graph.min_degree() == 1 else F(-2))
            assert led.outer_sum("g5") == led.outer_sum("g")
            assert led.outer_sum("f7") == led.outer_sum("g")
            assert not failures_of(a, "v1-sum")
            # stage-two steps 1, 3 and 7 leave every sender empty
            f = led.stages
            assert all(f["f1"][w] == 0 for w in led.level_set(5))
            assert all(f["f3"][z] == 0 for z in led.level_set(4) if f["f2"][z] >= 0)
            assert all(f["f7"][y] == 0 for y in led.level_set(3) if f["f6"][y] >= 0)

    def test_no_good_root_branch_adds_no_scan(self, monkeypatch):
        calls = {"least_cycle": [], "witness_scan": [], "least_paths": []}
        for name in calls:
            def counted(adj, *args, name=name, scan=getattr(kernels, name)):
                calls[name].append(len(adj))
                return scan(adj, *args)
            monkeypatch.setattr(kernels, name, counted)
        seen = 0
        for g in _pinned_graphs():
            for sizes in calls.values():
                sizes.clear()
            a = audit(g)
            # one witness walk from each T_2 vertex, on the input, then one
            # saturation scan (a cycle walk and a witness scan) of the graph
            # less T_2, the one the branches run on
            assert calls["least_cycle"] == calls["witness_scan"] == [a.n], a.branch
            assert len(calls["least_paths"]) == a.reduced_t2, a.branch
            seen += a.branch == "no-good-root"
        assert seen == 5

    def test_rejects_exactly_the_unsaturated(self):
        # with a pendant triangle hung on, most inputs have T_2 vertices and
        # are certified by walks from them and a scan of the reduced graph;
        # the verdict must be the full scan's. KASaoBzhY?G@ (n = 12,
        # T_2 = {10, 11}) is C_6-free and has every witness at its T_2
        # vertices, but is not saturated: the scan of its reduced graph
        # misses a witness. K_6 with a pendant triangle (T_2 = {6, 7}) has
        # every witness, in the input and in the reduced K_6, and a 6-cycle,
        # which only the scan's cycle walk finds
        pinned = from_graph6("KASaoBzhY?G@")
        assert t_sets(pinned)[1] == {10, 11}
        assert kernels.least_cycle(pinned.adj, 6) is None
        assert not is_saturated_fast(pinned, 6)
        c6 = Graph.from_edges(8, complete_graph(6).edges() + [(0, 6), (0, 7), (6, 7)])
        assert t_sets(c6)[1] == {6, 7}
        assert kernels.witness_scan(c6.adj, 6)
        graphs = [build_construction(n)[0] for n in range(9, 41)] + process_graphs()
        hung = []
        for i, g in enumerate(graphs):
            n, x = g.n, i % g.n
            hung.append(Graph.from_edges(n + 2, g.edges() + [(x, n), (x, n + 1),
                                                             (n, n + 1)]))
        outcomes = set()
        for g in [pinned, c6, path_graph(7), *graphs, *hung]:
            saturated = is_saturated_fast(g, 6)
            try:
                audit(g)
            except PreconditionError as exc:
                assert not saturated and str(exc) == "input is not C_6-saturated"
            else:
                assert saturated
            outcomes.add((saturated, bool(t_sets(g)[1])))
        assert outcomes == {(s, t) for s in (False, True) for t in (False, True)}

    def test_pinned_digest(self):
        assert audit_digest(_pinned_graphs()) == AUDIT_DIGEST

    def test_every_charge_is_a_fraction(self):
        for g in _pinned_graphs():
            a = audit(g)
            if a.ledger is None:
                continue
            for name, charges in a.ledger.stages.items():
                bad = {v: c for v, c in charges.items() if type(c) is not F}
                assert not bad, (name, bad)

    def test_non_saturated_rejected(self):
        with pytest.raises(PreconditionError):
            audit(path_graph(7))

    def test_extremal_graphs(self, extremal9):
        for g in extremal9.graphs:
            a = audit(g)
            assert a.passed, a.failures
            assert 3 * a.edges >= 4 * a.n - 6

    def test_monotone_signs(self, extremal9):
        for g in extremal9.graphs:
            a = audit(g)
            if a.branch == "full":
                assert not failures_of(a, "monotone-sign")


def _set_charges(ledger, stage, vertices, value):
    ledger.stages[stage] = {**ledger.stages[stage], **dict.fromkeys(vertices, value)}


def _deep_class_two(ledger):
    return [v for i in (3, 4, 5) for v in ledger.level_set(i)
            if ledger.classes.get(v) == "2"]


class TestExactSum:
    def test_equals_the_fraction_sum(self):
        rng = random.Random(20)
        # 5, 9, 45 and 180 are among the denominators of stage two's charges
        dens = (1, 2, 3, 4, 5, 6, 9, 12, 18, 36, 45, 180, 7, 11)
        for size in range(25):
            for _ in range(40):
                vals = [F(rng.randint(-500, 500), rng.choice(dens)) for _ in range(size)]
                got = exact_sum(vals)
                assert type(got) is F
                assert got == sum(vals, F(0)), vals

    def test_reads_an_iterator_once(self):
        assert exact_sum(v for v in (F(1, 6), F(-1, 3), F(85, 54))) == F(38, 27)
        rng = random.Random(21)
        for size in range(1, 25):
            vals = [F(rng.randint(-500, 500), rng.randint(1, 200)) for _ in range(size)]
            got = exact_sum(iter(vals))
            assert type(got) is F
            assert got == exact_sum(vals) == sum(vals, F(0)), vals

    def test_empty_and_dict_values(self):
        assert type(exact_sum([])) is F and exact_sum([]) == 0
        charges = {0: F(-1, 3), 1: F(7, 9), 2: F(1, 45), 3: F(-1, 180)}
        assert exact_sum(charges.values()) == F(-1, 3) + F(7, 9) + F(1, 45) - F(1, 180)
        assert exact_sum([2, F(-1, 3), -1]) == F(2, 3)


def generic_apply(charges, transfers):
    """The reference: each transfer as two Fraction operations."""
    out = dict(charges)
    for s, r, a in transfers:
        out[s] -= a
        out[r] += a
    return out


class TestApply:
    """`_apply` sums each vertex's net transfer as an integer over one common
    denominator; it must agree with the generic Fraction loop."""

    DENS = (1, 2, 3, 4, 5, 6, 9, 12, 18, 36, 45, 180)

    def check(self, charges, transfers):
        before = dict(charges)
        got = discharging._apply(charges, transfers)
        assert charges == before and all(charges[v] is before[v] for v in charges)
        assert got == generic_apply(charges, transfers)
        assert all(type(c) is F for c in got.values())
        net = dict.fromkeys(charges, 0)
        for s, r, a in transfers:
            net[s] -= a
            net[r] += a
        for v, d in net.items():
            if d == 0:  # untouched, or every transfer cancelled out
                assert got[v] is charges[v], v

    def test_matches_the_generic_loop(self):
        rng = random.Random(23)
        for n in (1, 2, 5, 12):
            for size in range(12):
                for _ in range(30):
                    charges = {v: F(rng.randint(-200, 200), rng.choice(self.DENS))
                               for v in range(n)}
                    transfers = []
                    for _ in range(size):
                        s, r = rng.randrange(n), rng.randrange(n)
                        a = F(rng.randint(0, 30) * rng.randint(0, 1), rng.choice(self.DENS))
                        transfers.append((s, r, a))
                        if rng.random() < 0.3:  # the same amount back: net zero
                            transfers.append((r, s, a))
                    self.check(charges, transfers)

    def test_edge_cases(self):
        charges = {0: F(-1, 3), 1: F(7, 6), 2: F(1, 180), 3: F(0)}
        self.check(charges, [])
        assert discharging._apply(charges, []) is not charges
        # zero amounts, a vertex sending to itself, and a cycle of equal sends
        self.check(charges, [(0, 1, F(0)), (2, 2, F(1, 6))])
        self.check(charges, [(0, 1, F(1, 6)), (1, 2, F(1, 6)), (2, 0, F(1, 6))])
        got = discharging._apply(charges, [(1, 0, F(1, 3)), (1, 3, F(5, 9)),
                                           (2, 3, F(1, 180))])
        assert got == {0: F(0), 1: F(5, 18), 2: F(0), 3: F(101, 180)}


def test_sixths_sign_matches_fraction_comparison():
    for p in range(-40, 41):
        for q in (1, 2, 3, 4, 5, 6, 7, 9, 12, 18, 36, 45, 180):
            c = F(p, q)
            for b in range(-2, 7):  # b/6 from classify's -1/3 up to 1
                s = discharging._sixths(c, b)
                assert type(s) is int
                assert (s > 0, s == 0, s < 0) == (c > F(b, 6), c == F(b, 6),
                                                  c < F(b, 6)), (c, b)


class TestIntegerBounds:
    """`_check_observations` compares a class-"2" vertex's g5 charge with its
    bounds in integer sixths; these pin it to the Fraction formulas at and
    around each bound, with charges whose denominators are not sixths."""

    BOUNDS = ("class charge floor", "strong conditional bound", "weak conditional bound")

    def bound_failures(self, ledger, x, c):
        ledger.stages["g5"] = {**ledger.stages["g5"], x: c}
        fail = []
        _check_observations(ledger, fail)
        return [m for m in fail if m.startswith(self.BOUNDS)
                and (m.endswith(f" at {x}") or f" at {x}: " in m)]

    def test_verdicts_and_texts_match_the_fraction_formulas(self):
        applied = {"strong": 0, "weak": 0}
        for g in _pinned_graphs()[:40]:
            led = audit(g).ledger
            if led is None:
                continue
            for x in _deep_class_two(led):
                i = led.level(x)
                down = [w for w in led.graph.neighbors(x) if led.level(w) == i - 1]
                same = [w for w in led.graph.neighbors(x) if led.level(w) == i]
                nplus = sum(led.classes.get(w) in PLUS for w in down)
                nminus1 = sum(led.classes.get(w) == "-1" for w in down)
                nsame2 = sum(led.classes.get(w) == "2" for w in same)
                floor = (F(2, 3) * len(down) + F(1, 3) * nplus + F(1, 6) * nminus1
                         + F(1, 3) * len(same) + F(1, 6) * nsame2 - F(4, 3))
                strong = F(1, 3) * len(down) + F(1, 6) * len(same)
                weak = F(1, 6) * len(down) + F(1, 6) * len(same)
                # whether the strong and weak conditions hold at x shows in
                # the failures for a charge below every bound
                low = self.bound_failures(led, x, F(-100))
                holds = {kind: f"{kind} conditional bound violated at {x}" in low
                         for kind in applied}
                for kind in applied:
                    applied[kind] += holds[kind]
                for b in (floor, strong, weak):
                    for c in (b, b - F(1, 180), b - F(1, 45), b + F(1, 180),
                              F(7, 9), F(-1, 4)):
                        want = []
                        if c < floor:
                            want.append(f"class charge floor violated at {x}: {c} < {floor}")
                        if holds["strong"] and c < strong:
                            want.append(f"strong conditional bound violated at {x}")
                        if holds["weak"] and c < weak:
                            want.append(f"weak conditional bound violated at {x}")
                        assert self.bound_failures(led, x, c) == want, (x, c)
        assert applied["strong"] > 0 and applied["weak"] > 0, applied


# one tampering of the finished ledger per audit check, each breaking it
TAMPERS = {
    "v1-sum": lambda led: _set_charges(led, "g", led.level_set(1), F(0)),
    "monotone-sign": lambda led: _set_charges(led, "f1", led.level_set(2), F(-1)),
    "class-bounds": lambda led: _set_charges(led, "g5", _deep_class_two(led), F(-10)),
    "v4-debt": lambda led: _set_charges(led, "f5", led.level_set(4), F(-1)),
    "v3-debt": lambda led: _set_charges(led, "f5", led.level_set(3), F(-1)),
    "final-nonneg": lambda led: _set_charges(
        led, "f7", sorted(led.level_set(2))[:1], F(-1, 6)),
    "outer-sum-nonneg": lambda led: _set_charges(led, "f7", led.level_set(2), F(-100)),
}


@pytest.mark.parametrize("check", sorted(CHECK_MESSAGES))
def test_each_check_failure_is_found_by_name(check, monkeypatch):
    # a process graph of depth 4 whose audit passes every check
    g = process_graphs()[5]
    assert audit(g).failures == []
    stage_two_unchanged = discharging.stage_two

    def tampered(ledger):
        stage_two_unchanged(ledger)
        TAMPERS[check](ledger)
        return ledger

    monkeypatch.setattr(discharging, "stage_two", tampered)
    a = audit(g)
    assert failures_of(a, check), a.failures
    assert not a.passed


# seed-1 benchmark records (satbench/workloads.py) that reach discharging
# rules no other test reaches: record -> (failures, V_1 sum, audit_digest)
# the only one of the 356 saturated records on which _pendant_split splits
PENDANT_SPLIT = "T?U?ot_?KGSCWD_@@A???@AICGG??K?IaR@@"
# a degree-3 class-2 V_5 vertex reaches _c1_exclusions' next test
C1_SENDERS = "M_?g?cGoEceOD`GG_"
# _split_exception tries its 2/3-1/3 and its 1/2-1/4-1/4 pattern
SPLIT_TWO = "O@K?GK@CDpN?O@_OGGOLB"
SPLIT_THREE = "PM??HoC`L_?AAOAg`GW_o@H?"
RULE_RECORDS = {
    PENDANT_SPLIT: (["weak conditional bound violated at 2"], F(-5, 3),
                    "a80316bf4e1146614538a587bb00fbe1b3fc584019a1324df3413d857888b0b5"),
    C1_SENDERS: ([], F(-2),
                 "0fc562e9d0be118b43bed2d73d8f4499c049af76e320c9791065b8032d507d79"),
    SPLIT_TWO: ([], F(-5, 3),
                "1a6a287b487bbf13379dbd86309f29ba105533aa079ef73bba8adcc240d12e32"),
    SPLIT_THREE: ([], F(-2),
                  "f0deffbc837a6322dd4dfc3eb8524b23772ec408ee84e95cdcb7e08677a4d6f2"),
}


def lines_run(fn, call):
    """The source lines of `fn`, stripped, that ran during `call()`."""
    code, ran = fn.__code__, set()

    def trace_lines(frame, event, arg):
        if event == "line":
            ran.add(frame.f_lineno)
        return trace_lines

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: trace_lines if frame.f_code is code else None)
    try:
        call()
    finally:
        sys.settrace(previous)
    lines, start = inspect.getsourcelines(fn)
    return {lines[n - start].strip() for n in ran}


class TestRareRules:
    @pytest.mark.parametrize("record", sorted(RULE_RECORDS))
    def test_audit_is_pinned(self, record):
        failures, v1_sum, digest = RULE_RECORDS[record]
        g = from_graph6(record)
        a = audit(g)
        assert (a.branch, a.failures, a.v1_sum) == ("full", failures, v1_sum)
        assert audit_digest([g]) == digest  # and with it every stage dict

    def test_pendant_split_splits(self, monkeypatch):
        splits, rule = [], discharging._pendant_split

        def spy(ledger, z, up):
            out = rule(ledger, z, up)
            if out is not None:
                splits.append((z, out))
            return out

        monkeypatch.setattr(discharging, "_pendant_split", spy)
        audit(from_graph6(PENDANT_SPLIT))
        assert splits == [(16, [(17, F(1, 2)), (5, F(1, 4)), (10, F(1, 4))])]

    # these rules return nothing on every seeded record, so whether their
    # guarded code ran shows only in the lines traced
    def test_c1_exclusions_past_the_degree_test(self):
        ran = lines_run(discharging._c1_exclusions, lambda: audit(from_graph6(C1_SENDERS)))
        assert "down = ledger.nbrs_class(u, 4, MINUS)" in ran

    @pytest.mark.parametrize("record, line", [
        # the 2/3-1/3 pattern: a degree-3 V_5 sender with two V_4 neighbours
        (SPLIT_TWO, "z1z2 = [z for z in down if ledger.classes.get(z) in MINUS]"),
        # the 1/2-1/4-1/4 pattern: three V_4 neighbours
        (SPLIT_THREE, "if all(ledger.classes.get(z) in MINUS for z in down):"),
    ])
    def test_split_exception_pattern_is_tried(self, record, line):
        assert line in lines_run(discharging._split_exception,
                                 lambda: audit(from_graph6(record)))


class TestStageTwoDebtRules:
    """Stage-two steps 4 and 7 on pinned ledgers with charges set by hand.

    The family member for n = 10 has the levels V_2 = (1, 3),
    V_3 = (0, 2, 4, 8) and V_4 = (6, 7). Vertex 0 has the V_3 neighbour 2 and
    the V_4 neighbour 6; vertex 1 alone sees 8 and 7 (8's V_4 neighbour), and
    1 and 3 both see 0. Its real f3 is 2/3 at 0 and 1/3 at 2 and 4; its real
    f6 empties 0, 2 and 4 into V_2 to give 1/2 at 1 and 5/6 at 3."""

    def run(self, step, g, stage, charges):
        """The charges `step` changes in `stage`, set by hand from `charges`,
        as exact strings, and the diagnostics it adds; every output charge
        must be a Fraction and the input dict must stay as it was."""
        led = audit(g).ledger
        flagged = len(led.diagnostics)
        before = {**led.stages[stage], **charges}
        kept = dict(before)
        out = step(led, before)
        assert before == kept
        assert out.keys() == before.keys()
        assert all(type(c) is F for c in out.values())
        changed = {v: str(c) for v, c in out.items() if str(c) != str(before[v])}
        return changed, led.diagnostics[flagged:]

    def step4(self, g, charges):
        return self.run(discharging._stage2_step4, g, "f3", charges)

    def step7(self, g, charges):
        return self.run(discharging._stage2_step7, g, "f6", charges)

    @pytest.mark.parametrize("charge, changed", [
        # 0 pays its debtor 6 its 1/3 and tips 1/6 to its short neighbour 2
        (F(2, 3), {0: "1/6", 2: "0", 6: "0"}),
        (F(1, 2), {0: "0", 2: "0", 6: "0"}),
        # enough for the debt, not for the gift as well
        (F(89, 180), {0: "29/180", 6: "0"}),
        (F(1, 3), {0: "0", 6: "0"}),
        # not enough for the debt: nothing moves
        (F(59, 180), {}),
    ])
    def test_step4_funds_debt_then_gifts(self, charge, changed):
        got = self.step4(build_construction(10)[0], {0: charge, 6: F(-1, 3), 2: F(-1, 6)})
        assert got == (changed, [])

    @pytest.mark.parametrize("charges, changed", [
        # 0 funds 5 and tips the negative 12; 10 finds 5 funded and tips 12
        # again, as each gift is judged on f3
        ({5: F(-1, 3), 12: F(-1, 6)}, {0: "5/2", 5: "0", 10: "5/6", 12: "1/6"}),
        # 10 holds less than its debtor 5 needs, so 12 tips it, though 0
        # has funded 5 by then
        ({5: F(-1, 3), 10: F(1, 6)}, {0: "8/3", 5: "0", 10: "1/3", 12: "1/6"}),
    ])
    def test_step4_funds_each_debtor_once(self, charges, changed):
        # a process graph whose V_3 vertices 0 and 10 share the V_4 debtor 5
        # and the V_3 neighbour 12
        got = self.step4(process_graphs()[4], charges)
        assert got == (changed, ["stage-two step 4: 10 found already-funded neighbors"])

    @pytest.mark.parametrize("debts, changed", [
        # 0, 2 and 4 empty into 1 and 3; 1 then holds 1/2 and pays 1/6 + 1/9
        # to 8 and 7, or all of it to cover 1/6 + 1/3
        ({8: F(-1, 6), 7: F(-1, 9)},
         {0: "0", 1: "2/9", 2: "0", 3: "5/6", 4: "0", 7: "0", 8: "0"}),
        ({8: F(-1, 6), 7: F(-1, 3)},
         {0: "0", 2: "0", 3: "5/6", 4: "0", 7: "0", 8: "0"}),
        # a negative 0 does not empty: 1 gets 1/6 from 4 and pays 0's debt,
        # so 3, which sees 0 too, keeps its 1/3 from 2 and 1/6 from 4
        ({0: F(-1, 6)}, {0: "0", 2: "0", 3: "1/2", 4: "0"}),
    ])
    def test_step7_settles_debts(self, debts, changed):
        got = self.step7(build_construction(10)[0], debts)
        assert got == (changed, [])

    def test_step7_cannot_cover(self):
        # the debtors keep their charge, and 3, which sees neither, is silent
        got = self.step7(build_construction(10)[0], {8: F(-1, 3), 7: F(-1, 3)})
        assert got == ({0: "0", 1: "1/2", 2: "0", 3: "5/6", 4: "0"},
                       ["stage-two step 7: vertex 1 cannot cover 2/3"])

    def test_step7_next_vertex_settles(self):
        # 1 cannot cover 0's 1/3 with its 1/6 from 4; then 3 pays it
        got = self.step7(build_construction(10)[0], {0: F(-1, 3)})
        assert got == ({0: "0", 1: "1/6", 2: "0", 3: "1/6", 4: "0"},
                       ["stage-two step 7: vertex 1 cannot cover 1/3"])
