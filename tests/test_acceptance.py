"""Acceptance gate: ten release criteria, one pass/fail line each.

Each test prints `criterion N: PASS` on success; a failure raises with the
offending instance. Tolerances are zero everywhere — integer equalities and
exact rational arithmetic only.
"""

import itertools
import random

import networkx as nx

from satforge.construction import (
    build_construction,
    lower_bound_edges,
    upper_bound_edges,
)
from satforge.discharging import (
    audit,
    bfs_levels,
    charge_identity_holds,
    choose_root,
    t_sets,
)
from satforge.graph import Graph
from satforge.saturation import check_saturated
from satforge.search import are_isomorphic, enumerate_saturated
from tests.conftest import failures_of, random_connected_graph, star_graph


def _report(num, ok, detail=""):
    tail = f" {detail}" if detail else ""
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {num} failed {detail}"


def test_criterion_1_construction_formula():
    bad = [n for n in range(9, 61)
           if build_construction(n)[0].edge_count != upper_bound_edges(n)]
    _report(1, not bad, f"n=9..60{' bad=' + str(bad) if bad else ''}")


def test_criterion_2_construction_saturation(family):
    bad = []
    for n, g in family.items():
        rep = check_saturated(g, 6)
        if not rep.saturated or len(rep.witnesses) != len(g.non_edges()):
            bad.append(n)
    _report(2, not bad, f"n=9..30 full certificates{' bad=' + str(bad) if bad else ''}")


# search output, not theorems: the number of extremal C_4 classes, and
# sat(n, C_5) with its class count (Chen's theorem on sat(n, C_5) starts at
# n = 21)
C4_CLASSES = {5: 2, 6: 1, 7: 3, 8: 1, 9: 6, 10: 2, 11: 8}
C5_SEARCH = {5: (6, 1), 6: (8, 2), 7: (9, 5), 8: (10, 2), 9: (12, 12), 10: (13, 4)}


def test_criterion_3_known_exact_values():
    bad = []
    # sat(n, C_3) = n - 1, attained by the star
    for n in range(3, 11):
        res = enumerate_saturated(n, 3)
        if not (res.status == "complete" and res.min_edges == n - 1
                and any(are_isomorphic(g, star_graph(n)) for g in res.graphs)):
            bad.append((3, n))
    # sat(n, C_4) = floor((3n - 5)/2) (Ollmann 1972; Tuza 1989)
    c4 = {n: ((3 * n - 5) // 2, classes) for n, classes in C4_CLASSES.items()}
    for k, want in ((4, c4), (5, C5_SEARCH)):
        for n, (sat, classes) in want.items():
            res = enumerate_saturated(n, k)
            if (res.status, res.min_edges, len(res.graphs)) != ("complete", sat, classes):
                bad.append((k, n))
    _report(3, not bad, "C_3 n=3..10, C_4 n=5..11, C_5 n=5..10"
            + (f" bad={bad}" if bad else ""))


def test_criterion_4_c6_bracket_at_9(extremal9):
    res = extremal9
    ok = res.status == "complete" and 10 <= res.min_edges <= 12
    _report(4, ok, f"sat(9,C_6)={res.min_edges} classes={len(res.graphs)}")


def test_criterion_5_charge_identity(corpus):
    rng = random.Random(20260823)
    checked = 0
    ok = True
    while checked < 200:
        g = random_connected_graph(rng, n_max=12)
        root = rng.randrange(g.n)
        if bfs_levels(g, root).depth > 5:
            continue
        ok &= charge_identity_holds(g, root)
        checked += 1
    for g in corpus:
        rc = choose_root(g)
        ok &= charge_identity_holds(g, rc.alpha)
    _report(5, ok, f"200 random roots + {len(corpus)} corpus graphs")


def test_criterion_6_conservation(corpus):
    bad = []
    for g in corpus:
        a = audit(g)
        if a.branch != "full":
            continue
        g0, g5, f7 = (a.ledger.outer_sum(s) for s in ("g", "g5", "f7"))
        if not g0 == g5 == f7:
            bad.append(g)
    _report(6, not bad, "stage totals over V\\V_1 exact at g, g*, f_7")


def test_criterion_7_v1_sums(corpus):
    checked = 0
    ok = True
    for g in corpus:
        a = audit(g)
        if a.branch != "full":
            continue
        checked += 1
        ok &= not failures_of(a, "v1-sum")
    _report(7, ok and checked > 0, f"{checked} rooted audits")


def test_criterion_8_theorem_assertions(corpus, extremal9):
    bad = []
    for g in corpus:
        if t_sets(g)[1]:
            continue  # criterion scopes to T_2-empty graphs
        a = audit(g)
        if a.branch != "full":
            continue
        if any(failures_of(a, check) for check in
               ("v4-debt", "v3-debt", "final-nonneg", "monotone-sign")):
            bad.append((g, a.failures))
    _report(8, not bad, f"incl. all {len(extremal9.graphs)} extremals"
            + (f" bad={bad}" if bad else ""))


def test_criterion_9_final_bound(corpus):
    bad = [g for g in corpus if not audit(g).final_bound_ok]
    ok = not bad and all(
        g.edge_count >= lower_bound_edges(g.n) for g in corpus if g.n >= 9
    )
    _report(9, ok, "e >= 4n/3 - 2 via every branch")


def _naive_has_ck(h, k):
    for nodes in itertools.combinations(h.nodes, k):
        first = nodes[0]
        for perm in itertools.permutations(nodes[1:]):
            cyc = (first,) + perm
            if all(h.has_edge(cyc[i], cyc[(i + 1) % k]) for i in range(k)):
                return True
    return False


def _naive_saturated(h, k):
    if _naive_has_ck(h, k):
        return False
    nodes = sorted(h.nodes)
    for u, v in itertools.combinations(nodes, 2):
        if h.has_edge(u, v):
            continue
        h.add_edge(u, v)
        created = _naive_has_ck(h, k)
        h.remove_edge(u, v)
        if not created:
            return False
    return True


def test_criterion_10_oracle_equivalence():
    atlas = nx.graph_atlas_g()[1:]  # drop the 0-vertex placeholder
    bad = 0
    total = 0
    for h in atlas:
        n = h.number_of_nodes()
        g = Graph.from_edges(n, list(h.edges()))
        for k in (3, 4, 5, 6):
            total += 1
            if check_saturated(g, k).saturated != _naive_saturated(h, k):
                bad += 1
    _report(10, bad == 0, f"{total} graph/k pairs over all n <= 7 classes")
