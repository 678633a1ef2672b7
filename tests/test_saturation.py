import collections
import copy
import hashlib
import itertools
import pickle
import random

import networkx as nx
import pytest

from satforge import kernels
from satforge.construction import build_construction
from satforge.discharging import (
    BookkeepingError,
    degree_sum_holds,
    reduce_t2,
    t_sets,
    theta_classes,
)
from satforge.graph import CyclePath, Graph, to_graph6
from satforge.saturation import (
    PreconditionError,
    check_saturated,
    is_saturated_fast,
    leaf_obstruction,
)
from satforge.search import are_isomorphic
from tests.conftest import (
    complete_graph,
    cycle_graph,
    path_graph,
    process_graphs,
    star_graph,
    thread_classes,
)


def _certified_graphs():
    """The family for n = 9..64 and the 40 process graphs, each also with
    its middle edge removed (a non-edge without a witness) and with its
    middle non-edge added (a 6-cycle): all three verdicts."""
    graphs = [build_construction(n)[0] for n in range(9, 65)] + process_graphs()
    derived = []
    for g in graphs:
        edges, non_edges = g.edges(), g.non_edges()
        derived.append(g.without_edge(*edges[len(edges) // 2]))
        derived.append(g.with_edge(*non_edges[len(non_edges) // 2]))
    return graphs + derived


# certificate_digest of the 6-saturation reports of _certified_graphs(); a
# change to any verdict, cycle found, missing pair, witness or the order of
# the witnesses moves it
CERTIFICATE_DIGEST = "c7169614363444f357f04e98b9f4781ea8331d704a33d83f62574189c511e8bc"


def certificate_digest(reports):
    """sha256 over each report's verdict, free violation, missing pair and
    witnesses in dict order."""
    h = hashlib.sha256()
    for rep in reports:
        h.update(repr((rep.verdict, rep.free_violation, rep.missing,
                       list(rep.witnesses.items()))).encode())
    return h.hexdigest()


class TestCheckSaturated:
    def test_star_is_triangle_saturated(self):
        rep = check_saturated(star_graph(6), 3)
        assert rep.saturated
        assert len(rep.witnesses) == len(star_graph(6).non_edges())
        for (u, v), cyc in rep.witnesses.items():
            assert cyc.length == 3
            assert {u, v} <= set(cyc.vertices)

    def test_cycle_is_not_free(self):
        rep = check_saturated(cycle_graph(6), 6)
        assert rep.verdict == "not-free"
        assert rep.free_violation.length == 6

    def test_path_misses_witness(self):
        rep = check_saturated(path_graph(6), 6)
        assert rep.verdict == "missing-witness"
        assert rep.missing is not None

    def test_complete_graph_vacuous(self):
        assert check_saturated(complete_graph(5), 6).saturated

    def test_witness_cycles_validate(self):
        g, _ = build_construction(12)
        rep = check_saturated(g, 6)
        assert rep.saturated
        for cyc in rep.witnesses.values():
            gplus = g.with_edge(cyc.vertices[0], cyc.vertices[-1])
            cyc.validate(gplus)

    def test_witnesses_are_closing_six_cycles(self, family):
        # witnesses skip the CyclePath constructor's checks, so check here
        # what it would have: kind, length, distinct vertices; and that
        # each closes its non-edge
        for g in list(family.values()) + process_graphs():
            rep = check_saturated(g, 6)
            assert rep.saturated
            for (u, v), cyc in rep.witnesses.items():
                assert type(cyc) is CyclePath
                assert cyc.kind == "cycle" and cyc.length == 6
                assert len(set(cyc.vertices)) == 6
                assert {cyc.vertices[0], cyc.vertices[-1]} == {u, v}
                assert cyc.validate(g.with_edge(u, v))

    def test_graph_and_report_survive_pickle_and_deepcopy(self):
        g, _ = build_construction(9)
        rep = check_saturated(g, 6)
        assert rep.witnesses
        for clone in (lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy, copy.copy):
            assert clone(g) == g
            assert clone(rep) == rep
            assert list(clone(rep).witnesses) == list(rep.witnesses)
            assert type(next(iter(clone(rep).witnesses.values()))) is CyclePath

    def test_pinned_digest(self):
        reports = [check_saturated(g, 6) for g in _certified_graphs()]
        verdicts = {rep.verdict for rep in reports}
        assert verdicts == {"saturated", "not-free", "missing-witness"}
        assert certificate_digest(reports) == CERTIFICATE_DIGEST

    def test_k_below_three_rejected(self):
        # no k below 3 is a cycle length: K_3, which has no non-edge, and
        # P_3, which has one, are rejected alike
        for g in (complete_graph(3), path_graph(3)):
            for k in (0, 1, 2):
                for check in (check_saturated, is_saturated_fast):
                    with pytest.raises(PreconditionError,
                                       match="cycle length must be at least 3"):
                        check(g, k)

    def test_fast_path_agrees(self, rng):
        from tests.conftest import random_connected_graph

        for _ in range(30):
            g = random_connected_graph(rng, n_max=8)
            for k in (3, 4, 5, 6):
                assert is_saturated_fast(g, k) == check_saturated(g, k).saturated


def least_paths_report(g, k):
    """(witness items, missing pair) of a C_k certificate from one
    least_paths query per non-edge, in ascending (u, v) order."""
    items, lost = [], []
    for u, v in g.non_edges():
        out = {}
        if kernels.least_paths(g.adj, u, k - 1, 1 << v, 0, out):
            lost.append((u, v))
        else:
            items.append(((u, v), (out[v], "cycle")))
    return items, min(lost, default=None)


def test_witnesses_match_one_query_per_non_edge():
    rng = random.Random(0x5A7E)
    graphs = [build_construction(n)[0] for n in range(9, 65)]
    for _ in range(150):
        n = rng.randint(3, 12)
        p = rng.random()
        graphs.append(Graph.from_edges(
            n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p]))
    verdicts = collections.Counter()
    for g in graphs:
        for k in range(3, 8):
            rep = check_saturated(g, k)
            verdicts[k, rep.verdict] += 1
            if rep.verdict != "not-free":
                items, missing = least_paths_report(g, k)
                assert list(rep.witnesses.items()) == items, (to_graph6(g), k)
                assert rep.missing == missing
    assert all(verdicts[k, v] for k in range(3, 8)
               for v in ("saturated", "missing-witness", "not-free"))


def brute_report(g, k):
    """(verdict, missing pair, witness keys) of a C_k certificate, by
    brute force over vertex sequences, one non-edge at a time."""
    def has_path(u, v, length):
        others = [w for w in range(g.n) if w not in (u, v)]
        return any(all(g.has_edge(a, b) for a, b in zip(p, p[1:]))
                   for inner in itertools.permutations(others, length - 1)
                   for p in [(u, *inner, v)])

    if any(has_path(u, v, k - 1) for u, v in g.edges()):
        return "not-free", None, []
    keys = [(u, v) for u, v in g.non_edges() if has_path(u, v, k - 1)]
    lost = [e for e in g.non_edges() if e not in keys]
    return ("missing-witness" if lost else "saturated"), min(lost, default=None), keys


class TestReportEdgeCases:
    GRAPHS = {
        "K_1": Graph(1, [0]),
        "two isolated vertices": Graph(2, [0, 0]),
        "two triangles": Graph.from_edges(6, [(0, 1), (1, 2), (0, 2),
                                              (3, 4), (4, 5), (3, 5)]),
        "triangle and an edge": Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (3, 4)]),
        "K_1,3 and a vertex": Graph.from_edges(5, [(0, 1), (0, 2), (0, 3)]),
        "K_1,5": star_graph(6),
        "P_7": path_graph(7),
    }

    @pytest.mark.parametrize("name", GRAPHS)
    def test_report_matches_per_pair_oracle(self, name):
        # k - 1 >= n for every graph here at k = 8, and for K_1 throughout
        g = self.GRAPHS[name]
        for k in range(3, 9):
            rep = check_saturated(g, k)
            verdict, missing, keys = brute_report(g, k)
            assert (rep.verdict, rep.missing) == (verdict, missing), k
            if verdict != "not-free":
                assert list(rep.witnesses) == keys == sorted(keys)
                for (u, v), cyc in rep.witnesses.items():
                    assert cyc.length == k and cyc.validate(g.with_edge(u, v))
            assert is_saturated_fast(g, k) == rep.saturated


def brute_cycles_through(g, v, k):
    """The k-cycles through v as vertex tuples (v, c1, .., c_{k-1}), each
    once per direction, from every tuple of k - 1 other vertices."""
    others = [w for w in range(g.n) if w != v]
    return [(v, *p) for p in itertools.permutations(others, k - 1)
            if g.adj[v] >> p[0] & 1 and g.adj[v] >> p[-1] & 1
            and all(g.adj[x] >> y & 1 for x, y in zip(p, p[1:]))]


def brute_structure(g):
    """(t1, t2, good roots, theta classes of the good roots) from the
    triangles, 4-cycles and 5-cycles through each degree-2 vertex and the
    chords c_i c_{i+2} of its 5-cycles."""
    t1, t2, roots, classes = set(), set(), set(), {}
    for v in range(g.n):
        if g.degree(v) != 2:
            continue
        if brute_cycles_through(g, v, 3):
            (t2 if any(g.degree(w) == 2 for w in g.neighbors(v)) else t1).add(v)
            continue
        roots.add(v)
        c4 = bool(brute_cycles_through(g, v, 4))
        c5s = brute_cycles_through(g, v, 5)
        chorded = any(g.has_edge(c[i], c[(i + 2) % 5]) for c in c5s for i in range(5))
        classes[v] = 5 if chorded else 4 if c4 and c5s else 3 if c4 else 2 if c5s else 1
    return t1, t2, roots, classes


class TestLeafObstruction:
    @staticmethod
    def _graphs():
        """Every labeled graph with n <= 5, then 2,000 seeded random graphs
        with n = 6..14 over a spread of densities."""
        for n in range(1, 6):
            pairs = list(itertools.combinations(range(n), 2))
            for bits in range(1 << len(pairs)):
                yield Graph.from_edges(n, [p for i, p in enumerate(pairs)
                                           if bits >> i & 1])
        rng = random.Random(0x1EAF)
        for _ in range(2000):
            n = rng.randint(6, 14)
            p = rng.choice((0.1, 0.2, 0.3, 0.5, 0.7))
            yield Graph.from_edges(n, [e for e in itertools.combinations(range(n), 2)
                                       if rng.random() < p])

    def test_true_only_when_a_witness_is_missing(self):
        outcomes = collections.Counter()
        for g in self._graphs():
            for k in range(3, 8):
                ruled_out = leaf_obstruction(g, k)
                assert not (ruled_out and k == 3), to_graph6(g)
                scan = kernels.witness_scan(g.adj, k)
                assert not (ruled_out and scan), (to_graph6(g), k)
                outcomes[ruled_out, scan] += 1
        # the lemma settles some scans and leaves others open both ways
        assert set(outcomes) == {(True, False), (False, False), (False, True)}

    def test_edge_cases(self):
        for k in range(3, 8):
            for g in (complete_graph(1), complete_graph(2), complete_graph(3)):
                assert not leaf_obstruction(g, k), (g.n, k)
        k2_plus_one = Graph.from_edges(3, [(0, 1)])
        for k in range(4, 8):
            assert leaf_obstruction(path_graph(3), k)  # L2
            assert leaf_obstruction(k2_plus_one, k)  # isolated vertex
            assert leaf_obstruction(star_graph(5), k)  # L1
            assert not leaf_obstruction(cycle_graph(6), k)
        # at k = 3 the star is saturated, with two leaves at one vertex
        assert not leaf_obstruction(star_graph(5), 3)
        assert is_saturated_fast(star_graph(5), 3)


class TestStructureSets:
    def test_match_brute_force(self):
        # every graph with 3..7 vertices, and the saturation-process graphs
        atlas = [h for h in nx.graph_atlas_g() if 3 <= h.number_of_nodes() <= 7]
        graphs = [Graph.from_edges(h.number_of_nodes(), list(h.edges())) for h in atlas]
        seen = set()
        for g in graphs + process_graphs():
            t1, t2, roots, classes = brute_structure(g)
            assert t_sets(g) == (t1, t2), to_graph6(g)
            assert set(theta_classes(g)) == roots, to_graph6(g)
            assert theta_classes(g) == classes, to_graph6(g)
            seen.update(classes.values())
        assert seen == {1, 2, 3, 4, 5}

    def test_family_has_empty_t2_when_divisible(self):
        g, _ = build_construction(12)
        t1, t2 = t_sets(g)
        assert t2 == frozenset()
        # y1 is the degree-2 triangle vertex with no degree-2 neighbor
        assert len(t1) == 1

    def test_epsilon_two_gives_t2_pair(self):
        g, spec = build_construction(11)
        assert t_sets(g)[1] == frozenset({spec.labels["z1"], spec.labels["z2"]})

    def test_reduce_t2_recovers_core_family(self):
        g11, _ = build_construction(11)
        g9, _ = build_construction(9)
        assert are_isomorphic(reduce_t2(g11, t_sets(g11)[1]), g9)

    def test_reduce_t2_parity_guard(self):
        # K_3: all three vertices are in T_2, and the edge mass 3 is not
        # 3|T_2|/2, so the accounting must fail
        g = complete_graph(3)
        t2 = t_sets(g)[1]
        assert len(t2) == 3
        with pytest.raises(BookkeepingError):
            reduce_t2(g, t2)
        # two triangles joined by the edge 2-3: T_2 = {0, 1, 4, 5} carries
        # edge mass 6, and the reduction leaves that edge
        g = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (2, 3),
                                 (3, 4), (3, 5), (4, 5)])
        t2 = t_sets(g)[1]
        assert t2 == frozenset({0, 1, 4, 5})
        assert reduce_t2(g, t2) == Graph.from_edges(2, [(0, 1)])

    def test_good_roots_are_triangle_free_degree_two(self):
        g, spec = build_construction(12)
        roots = theta_classes(g).keys()
        assert spec.labels["b0"] in roots
        assert spec.labels["b1"] in roots
        assert spec.labels["y1"] not in roots  # lies in a triangle

    def test_theta_partition(self):
        g, spec = build_construction(9)
        classes = theta_classes(g)
        lab = spec.labels
        assert classes[lab["y3"]] == 5
        assert classes[lab["y4"]] == 5
        for name in ("a0", "b0", "c0"):
            assert classes[lab[name]] == 2
        assert set(classes.values()) <= {1, 2, 3, 4, 5}

    def test_theta_cycle_membership(self):
        assert theta_classes(cycle_graph(5)) == dict.fromkeys(range(5), 2)
        assert theta_classes(cycle_graph(4)) == dict.fromkeys(range(4), 3)


def _hung_graphs(rng, count):
    """Random connected graphs on 2..10 vertices, each with one or two
    pendant triangles hung on: n > 3 and T_2 not empty."""
    for _ in range(count):
        n = rng.randint(2, 10)
        order = list(range(n))
        rng.shuffle(order)
        edges = {tuple(sorted((order[rng.randrange(i)], order[i])))
                 for i in range(1, n)}
        p = rng.random()
        edges |= {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p}
        edges = sorted(edges)
        for _ in range(rng.randint(1, 2)):
            x = rng.randrange(n)
            edges += [(x, n), (x, n + 1), (n, n + 1)]
            n += 2
        yield Graph.from_edges(n, edges)


class TestPendantTriangleLemma:
    def test_reduction_keeps_cycles_and_witnesses(self):
        # the lemma behind the audit's certification: deleting T_2 keeps
        # C_k-freeness for k >= 4, and g is C_k-saturated iff each T_2
        # vertex reaches all its non-neighbours and the reduced graph is
        # C_k-saturated
        cases = saturated = 0
        for g in _hung_graphs(random.Random(11), 3000):
            t2 = t_sets(g)[1]
            assert g.n > 3 and t2
            reduced = reduce_t2(g, t2)
            adj, everyone = g.adj, (1 << g.n) - 1
            for k in range(4, 8):
                key = (to_graph6(g), k)
                assert ((kernels.least_cycle(adj, k) is None)
                        == (kernels.least_cycle(reduced.adj, k) is None)), key
                walks = not any(kernels.least_paths(adj, a, k - 1,
                                                    everyone ^ (adj[a] | 1 << a))
                                for a in t2)
                sat = is_saturated_fast(g, k)
                assert sat == (walks and is_saturated_fast(reduced, k)), key
                cases += 1
                saturated += sat
        assert cases == 12000
        assert saturated == 1003


class TestThreadLemmas:
    def test_threads_are_short(self, extremal9):
        # T1 and T2 of kernels' Threads on C_6-saturated graphs: a thread has
        # at most 5 inner vertices and a loop thread 2; two threads of one
        # class have at most 3, and 3 only between adjacent ends. Every
        # thread lies in a maximal one, and only maximal ones form a class
        # of two: at an end of degree 2 they would close a cycle of degree-2
        # vertices, or a loop thread of more than 2
        graphs = [build_construction(n)[0] for n in range(9, 65)]
        graphs += list(extremal9.graphs) + process_graphs()
        assert all(is_saturated_fast(g, 6) for g in graphs)
        graphs += [g for g in _hung_graphs(random.Random(11), 3000)
                   if is_saturated_fast(g, 6)]
        seen = collections.Counter()
        for g in graphs:
            for (ends, inner), count in thread_classes(g.adj).items():
                if len(ends) == 1:
                    assert inner == 2, to_graph6(g)
                    seen["loop"] += 1
                    continue
                assert inner <= 5, to_graph6(g)
                if count >= 2:
                    assert inner <= 3, to_graph6(g)
                    if inner == 3:
                        assert g.has_edge(*ends), to_graph6(g)
                    seen["class", inner] += 1
        # pendant triangles, and the family's classes of 3 inner vertices
        assert seen["loop"] and seen["class", 3], seen


class TestDegreeSum:
    def test_family_satisfies_bound(self):
        for n in (9, 12, 15):
            g, _ = build_construction(n)
            assert g.min_degree() == 2 and is_saturated_fast(g, 6)
            assert degree_sum_holds(g, t_sets(g)[0])
