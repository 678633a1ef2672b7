import dataclasses
import functools
import hashlib
import itertools
import math
import os
import random
import threading
from collections import Counter

import networkx as nx
import pytest

from satforge import kernels, search
from satforge.cli import save_result, summary_table
from satforge.graph import Graph, from_graph6, read_graph6_file, to_graph6, vertex_list
from satforge.search import (
    BudgetExhausted,
    EmptyLevelError,
    SearchError,
    _Budget,
    _EdgeKeys,
    _Labeler,
    _next_level,
    _orbit_leaders,
    are_isomorphic,
    canonical_form,
    canonical_graph,
    enumerate_saturated,
)
from tests.conftest import complete_graph, cycle_graph, path_graph, star_graph


# canonical graph6 of the five sat(9, C_6) classes, in canonical-code order,
# and of symmetric inputs; any change to the labeling moves them
SAT_9_6 = ["HQ`?WWr", "H_?@|`L", "H_hP?cN", "H`?LASV", "Ho?Aowf"]

# sha256 of `canonical_form`'s whole output over `canon_corpus()` (see
# `canon_digest`), computed with the labeler that kept each cell as a list of
# vertices; any change to a code, an ordering, a generator or the order the
# generators are met in moves it
CANON_DIGEST = "e1473be2c2b4b509dba99c167746036a57f8dc381e79208e18969269ab94f801"


def _petersen():
    return Graph.from_edges(10, list(nx.petersen_graph().edges()))


def _cube():
    return Graph.from_edges(8, [(u, u | 1 << b) for u in range(8) for b in range(3)
                                if not u >> b & 1])


SYMMETRIC = {
    "star12": (lambda: star_graph(12), "K?????????^~"),
    "K9": (lambda: complete_graph(9), "H~~~~~~"),
    "empty12": (lambda: Graph(12, [0] * 12), "K???????????"),
    "C12": (lambda: cycle_graph(12), "KqGOOGA?O@?B"),
    "P10": (lambda: path_graph(10), "IQGOOGA?W"),
    "petersen": (_petersen, "IsP@PGXD_"),
    "K33": (lambda: Graph.from_edges(6, [(a, b) for a in range(3) for b in range(3, 6)]),
            "Es\\o"),
    "cube": (_cube, "GsXP_["),
}


def group_order(n, generators):
    """Order of the permutation group the generators generate, by closure."""
    identity = tuple(range(n))
    group, frontier = {identity}, [identity]
    while frontier:
        a = frontier.pop()
        for perm in generators:
            b = tuple(perm[x] for x in a)
            if b not in group:
                group.add(b)
                frontier.append(b)
    return len(group)


def scrambled(g):
    """A fixed relabeling: reflect, then rotate by three."""
    return g.relabel([(g.n + 2 - v) % g.n for v in range(g.n)])


def has_cycle_of_length(g, k):
    """Plain DFS over neighbor lists, rooted at the cycle's least vertex."""
    nbrs = [g.neighbors(v) for v in range(g.n)]

    def extend(path):
        if len(path) == k:
            return path[0] in nbrs[path[-1]]
        return any(extend(path + [w]) for w in nbrs[path[-1]]
                   if w > path[0] and w not in path)

    return any(extend([s]) for s in range(g.n))


def brute_isomorphic(a, b):
    if a.n != b.n or a.edge_count != b.edge_count:
        return False
    target = set(b.edges())
    for perm in itertools.permutations(range(a.n)):
        if {tuple(sorted((perm[u], perm[v]))) for u, v in a.edges()} == target:
            return True
    return False


def refine_by_count_tuples(adj, cells, splitters):
    """`search._refine` with each vertex's counts kept as a tuple, every
    cell split member by member, one-vertex splitters too."""
    while splitters:
        created = []
        splits = []
        for i, cell in enumerate(cells):
            groups = {}
            for v in vertex_list(cell):
                sig = tuple((adj[v] & m).bit_count() for m in splitters)
                groups[sig] = groups.get(sig, 0) | 1 << v
            if len(groups) == 1:
                continue
            parts = [groups[sig] for sig in sorted(groups, reverse=True)]
            created.extend(parts[:-1])
            splits.append((i, parts))
        if not splits:
            break
        for i, parts in reversed(splits):
            cells[i:i + 1] = parts
        splitters = created


def labeled_by_the_n9_search():
    """Every graph the n = 9, C_6 search labels, in the order it labels
    them, with one participant."""
    graphs = []
    label = search.canonical_form

    def recorded(g):
        graphs.append(g)
        return label(g)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "_cpu_count", lambda: 1)
        mp.setattr(search, "canonical_form", recorded)
        search.enumerate_saturated(9, 6)
    return graphs


@functools.cache
def canon_corpus():
    """2,000 seeded random graphs, n = 1..16 in turn with edge densities
    0.05-0.95, then `SYMMETRIC`, then every graph the n = 9 search labels
    (built once per test session)."""
    rng = random.Random(0xCA70)
    graphs = []
    for i in range(2000):
        n = 1 + i % 16
        p = rng.uniform(0.05, 0.95)
        pairs = itertools.combinations(range(n), 2)
        graphs.append(Graph.from_edges(n, [e for e in pairs if rng.random() < p]))
    graphs += [make() for make, _ in SYMMETRIC.values()]
    return tuple(graphs + labeled_by_the_n9_search())


def canon_digest(graphs):
    """One sha256 over `canonical_form`'s whole output on every graph: the
    code, the ordering and the generators in the order met."""
    h = hashlib.sha256()
    for g in graphs:
        code, ordering, generators = canonical_form(g)
        h.update(f"{code} {bytes(ordering).hex()} {b''.join(generators).hex()}\n".encode())
    return h.hexdigest()


def canonical_key(g):
    """The canonical code: equal on two graphs with the same vertex count
    exactly when they are isomorphic."""
    return canonical_form(g)[0]


class TestCanonical:
    def test_invariant_under_relabeling(self, rng):
        from tests.conftest import random_connected_graph

        for _ in range(30):
            g = random_connected_graph(rng, n_max=9)
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert canonical_key(g) == canonical_key(g.relabel(perm))
            assert canonical_graph(g) == canonical_graph(g.relabel(perm))

    def test_matches_brute_force_small(self, rng):
        from tests.conftest import random_connected_graph

        for _ in range(25):
            a = random_connected_graph(rng, n_max=6)
            b = random_connected_graph(rng, n_max=6)
            assert are_isomorphic(a, b) == brute_isomorphic(a, b)

    def test_counts_isomorphism_classes_n4(self):
        seen = set()
        pairs = list(itertools.combinations(range(4), 2))
        for bits in itertools.product((0, 1), repeat=6):
            g = Graph.from_edges(4, [p for p, b in zip(pairs, bits) if b])
            seen.add(canonical_key(g))
        assert len(seen) == 11

    def test_hard_symmetric_inputs(self):
        # stars and unions of twins stress the twin-cell shortcut
        for g in (star_graph(12), complete_graph(9), Graph(12, [0] * 12),
                  cycle_graph(12)):
            assert canonical_key(g) == canonical_key(
                g.relabel(list(reversed(range(g.n))))
            )

    def test_generators_are_automorphisms(self, rng):
        from tests.conftest import random_connected_graph

        graphs = [random_connected_graph(rng, n_max=12) for _ in range(60)]
        graphs += [make() for make, _ in SYMMETRIC.values()]
        found = 0
        for g in graphs:
            _, _, generators = canonical_form(g)
            for perm in generators:
                assert sorted(perm) == list(range(g.n)) and list(perm) != list(range(g.n))
                assert g.relabel(perm) == g
            found += len(generators)
        assert found > len(SYMMETRIC)

    def test_generators_reach_vertex_transitive_orbits(self):
        for name in ("K9", "empty12", "C12", "petersen", "K33", "cube"):
            g = SYMMETRIC[name][0]()
            _, _, generators = canonical_form(g)
            orbit, frontier = {0}, [0]
            while frontier:
                v = frontier.pop()
                for perm in generators:
                    if perm[v] not in orbit:
                        orbit.add(perm[v])
                        frontier.append(perm[v])
            assert orbit == set(range(g.n)), name

    def test_pinned_canonical_graph6(self, extremal9):
        assert [to_graph6(g) for g in extremal9.graphs] == SAT_9_6
        for code in SAT_9_6:
            assert to_graph6(canonical_graph(scrambled(from_graph6(code)))) == code
        for name, (make, code) in SYMMETRIC.items():
            g = make()
            assert to_graph6(canonical_graph(g)) == code, name
            assert to_graph6(canonical_graph(scrambled(g))) == code, name

    def test_size_cap(self):
        with pytest.raises(SearchError):
            canonical_key(path_graph(17))

    def test_generators_generate_the_whole_group(self):
        # every graph with 2..7 vertices, and random ones with 8..10
        graphs = [h for h in nx.graph_atlas_g() if 2 <= h.number_of_nodes() <= 7]
        rng = random.Random(0xA7)
        for _ in range(300):
            n = rng.randint(8, 10)
            p = rng.uniform(0.15, 0.6)
            graphs.append(nx.gnp_random_graph(n, p, seed=rng.randrange(1 << 30)))
        for h in graphs:
            g = Graph.from_edges(h.number_of_nodes(), list(h.edges()))
            _, _, generators = canonical_form(g)
            vf2 = sum(1 for _ in nx.isomorphism.GraphMatcher(h, h).isomorphisms_iter())
            assert group_order(g.n, generators) == vf2, to_graph6(g)

    def test_packed_signatures_match_count_tuples(self, monkeypatch):
        # dense graphs up to the labeler's cap put counts up to 15 in a field
        rng = random.Random(0x5C)
        graphs = []
        for _ in range(150):
            n = rng.randint(2, 16)
            p = rng.uniform(0.1, 0.9)
            pairs = itertools.combinations(range(n), 2)
            graphs.append(Graph.from_edges(n, [e for e in pairs if rng.random() < p]))
        graphs += [make() for make, _ in SYMMETRIC.values()]
        # counts of 8 and more, which a field narrower than 4 bits would carry
        graphs += [from_graph6(c) for c in ("K}~|~|~~^|}~", "L^~~}z~}~~|~~v")]
        packed = [canonical_form(g) for g in graphs]
        monkeypatch.setattr("satforge.search._refine", refine_by_count_tuples)
        assert [canonical_form(g) for g in graphs] == packed

    def test_pinned_canonical_forms(self):
        assert canon_digest(canon_corpus()) == CANON_DIGEST

    def test_twin_cell_leaves_the_partition_equitable(self, monkeypatch):
        # the labeler does not refine after individualizing a twin cell: on
        # the corpus, neither the new singletons nor all the cells as
        # splitters split any cell of the partition it then holds
        partitions = []  # the cells of every labeler node being searched
        sizes = []
        search_node, twins = _Labeler.search, _Labeler.twins

        def tracked(self, cells, splitters, prefix):
            partitions.append(cells)
            try:
                search_node(self, cells, splitters, prefix)
            finally:
                partitions.pop()

        def checked(self, members):
            cells = list(partitions[-1])
            at = cells.index(sum(1 << v for v in members))
            singletons = [1 << v for v in members]
            cells[at:at + 1] = singletons
            for splitters in (singletons, list(cells)):
                refined = list(cells)
                search._refine(self.adj, refined, splitters)
                assert refined == cells, (self.adj, members)
            sizes.append(len(members))
            twins(self, members)

        monkeypatch.setattr(_Labeler, "search", tracked)
        monkeypatch.setattr(_Labeler, "twins", checked)
        for g in canon_corpus():
            canonical_form(g)
        # 9,336 of them in the n = 9 search alone
        assert len(sizes) > 9336 and max(sizes) == 12

    def test_automorphism_pruning_keeps_code_and_ordering(self, rng, monkeypatch):
        from tests.conftest import random_connected_graph

        graphs = [random_connected_graph(rng, n_max=12) for _ in range(60)]
        graphs += [make() for make, _ in SYMMETRIC.values()]
        graphs += [g.with_edge(u, v) for g in (from_graph6(c) for c in SAT_9_6)
                   for u, v in g.non_edges()]
        leaves = []
        leaf = _Labeler.leaf

        def counted_leaf(self, order):
            leaves.append(order)
            leaf(self, order)

        monkeypatch.setattr(_Labeler, "leaf", counted_leaf)
        pruned = [canonical_form(g)[:2] for g in graphs]
        pruned_leaves = len(leaves)
        leaves.clear()
        monkeypatch.setattr(_Labeler, "covered", lambda self, v, explored, prefix: False)
        assert [canonical_form(g)[:2] for g in graphs] == pruned
        assert pruned_leaves < len(leaves)


class TestEnumeration:
    def test_triangle_saturation_is_star(self):
        res = enumerate_saturated(6, 3)
        assert res.min_edges == 5 and res.status == "complete"
        assert len(res.graphs) == 1
        assert are_isomorphic(res.graphs[0], star_graph(6))

    def test_four_cycle_values(self):
        for n in (5, 6, 7):
            res = enumerate_saturated(n, 4)
            assert res.status == "complete"
            assert res.min_edges == (3 * n - 5) // 2

    def test_small_n_below_girth_needs_complete(self):
        res = enumerate_saturated(4, 6)
        assert res.min_edges == 6  # only K_4 qualifies
        assert are_isomorphic(res.graphs[0], complete_graph(4))

    def test_tiny_n_gives_the_complete_graph(self):
        # below four vertices only K_n is C_6-saturated; K_1's level 0 is
        # tested for witnesses like any other level
        for n in (1, 2, 3):
            res = enumerate_saturated(n, 6)
            assert res.status == "complete"
            assert res.graphs == [complete_graph(n)]
            assert res.min_edges == res.nodes == n * (n - 1) // 2
            assert res.level_sizes == dict.fromkeys(range(res.min_edges + 1), 1)

    def test_nodes_count_passing_orbit_leaders(self, extremal9):
        # one node per orbit leader among the non-edges that pass the
        # degree-sum test (58,212 when every non-edge's leader counted); the
        # rest of the edge-key test comes after the count
        assert extremal9.nodes == 10385

    def test_labelings_count_children_with_the_largest_key(self, monkeypatch):
        # 7,605 calls when every child whose new edge had the largest degree
        # sum was labeled; one participant, so that every call is counted
        # in this process
        monkeypatch.setattr(search, "_cpu_count", lambda: 1)
        calls = []
        label = canonical_form

        def counted(g):
            calls.append(g.n)
            return label(g)

        monkeypatch.setattr("satforge.search.canonical_form", counted)
        assert enumerate_saturated(9, 6).min_edges == 12
        assert len(calls) == 5595

    def test_pinned_n10_search(self):
        # the n = 10, C_6 run: answer, nodes and the per-level class counts
        res = enumerate_saturated(10, 6)
        assert res.status == "complete"
        assert res.min_edges == 13 and len(res.graphs) == 2
        assert res.nodes == 47510
        assert res.level_sizes == {
            0: 1, 1: 1, 2: 2, 3: 5, 4: 11, 5: 26, 6: 65, 7: 161, 8: 403,
            9: 972, 10: 2138, 11: 4061, 12: 6014, 13: 6399}
        assert sum(res.level_sizes.values()) == 20259
        assert [to_graph6(g) for g in res.graphs] == ["II?C@SMDW", "I_l@?cE@W"]

    @pytest.mark.parametrize("n, k, sat, nodes, sizes, graphs", [
        # k = 3, 4 and 5: witness walks of two, three and four edges
        (10, 3, 9, 1802, [1, 1, 2, 4, 9, 19, 43, 94, 208, 419], ["I??????~w"]),
        (9, 4, 11, 3966, [1, 1, 2, 5, 10, 22, 50, 103, 188, 278, 289, 197],
         ["H@?GCD~", "H@?GDdN", "H@?K@dN", "H@?KAC~", "HoC?Iof", "Hq?G?C~"]),
        (8, 5, 10, 1473, [1, 1, 2, 5, 11, 23, 53, 101, 165, 213, 188],
         ["G?`HW{", "GCO_w{"]),
    ])
    def test_pinned_short_walk_searches(self, n, k, sat, nodes, sizes, graphs):
        res = enumerate_saturated(n, k)
        assert res.status == "complete" and res.min_edges == sat
        assert res.nodes == nodes
        assert res.level_sizes == dict(enumerate(sizes))
        assert [to_graph6(g) for g in res.graphs] == graphs

    def test_budget_exhaustion(self):
        res = enumerate_saturated(9, 6, budget_nodes=40)
        assert res.status == "budget-exhausted"
        assert res.min_edges is None

    @pytest.mark.parametrize("budget", [0, 30])
    def test_budget_counts_only_tried_nodes(self, budget):
        res = enumerate_saturated(9, 6, budget_nodes=budget)
        assert res.status == "budget-exhausted"
        assert res.nodes == budget

    def test_node_budget_boundary(self, extremal9):
        res = enumerate_saturated(9, 6, budget_nodes=10385)
        assert res.status == "complete" and res.nodes == 10385
        assert res.graphs == extremal9.graphs
        res = enumerate_saturated(9, 6, budget_nodes=10384)
        assert res.status == "budget-exhausted" and res.nodes == 10384

    def test_empty_level_raises_at_once(self, monkeypatch):
        # a level that lost every class: neither budget would end the loop
        monkeypatch.setattr(search, "_next_level", lambda level, k, budget: ({}, []))
        with pytest.raises(EmptyLevelError, match="m = 1"):
            enumerate_saturated(9, 6, budget_nodes=10**6, budget_secs=5)

    def test_level_sizes_monotone_growth_prefix(self):
        res = enumerate_saturated(6, 3)
        assert res.level_sizes[0] == 1 and res.level_sizes[1] == 1

    def test_results_are_saturated(self):
        from satforge.saturation import check_saturated

        res = enumerate_saturated(7, 4)
        for g in res.graphs:
            assert check_saturated(g, 4).saturated

    def test_one_non_edge_per_orbit(self):
        expected = {
            "empty12": [(0, 1)],
            "star12": [(1, 2)],
            "C12": [(0, 2), (0, 3), (0, 4), (0, 5), (0, 6)],
            "P10": [(0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7), (0, 8), (0, 9),
                    (1, 3), (1, 4), (1, 5), (1, 6), (1, 7), (1, 8),
                    (2, 4), (2, 5), (2, 6), (2, 7), (3, 5), (3, 6)],
            "petersen": [(0, 2)],
            "K33": [(0, 1)],
            "K9": [],
        }
        for name, leaders in expected.items():
            g = SYMMETRIC[name][0]()
            _, _, generators = canonical_form(g)
            assert _orbit_leaders(g.n, g.non_edges(), b"".join(generators)) == leaders, name
            assert _orbit_leaders(g.n, g.non_edges(), b"") == g.non_edges()

    def test_level_sizes_count_every_ck_free_graph(self):
        # orbit pruning must not lose a class: each level holds exactly the
        # C_k-free graphs of the atlas with that many edges
        atlas = [h for h in nx.graph_atlas_g() if 3 <= h.number_of_nodes() <= 7]
        graphs = [Graph.from_edges(h.number_of_nodes(), list(h.edges())) for h in atlas]
        for k in range(3, 7):
            free = Counter((g.n, g.edge_count) for g in graphs
                           if not has_cycle_of_length(g, k))
            for n in range(3, 8):
                res = enumerate_saturated(n, k)
                assert res.status == "complete"
                for m, size in res.level_sizes.items():
                    assert size == free[n, m], (n, k, m)

    def test_levels_satisfy_the_orbit_count_identity(self):
        # every level up to the last, past the sat level: the labeled
        # C_k-free graphs with m edges number n!/|Aut(G)| summed over the
        # classes G of level m, |Aut(G)| taken as the order of the group the
        # labeler's generators generate; a lost class, a duplicate or a
        # missing generator breaks the sum
        for n in range(1, 7):
            for k in (4, 5, 6):
                orbits = Counter()
                level, m = level_at(n, k, 0), 0
                while level:
                    for _, packed in level.values():
                        perms = [packed[s:s + n] for s in range(0, len(packed), n)]
                        orbits[m] += math.factorial(n) // group_order(n, perms)
                    level, _ = _next_level(level, k, _Budget(None, None))
                    m += 1
                assert orbits == labeled_ck_free_counts(n, k), (n, k)


def labeled_ck_free_counts(n, k):
    """The labeled C_k-free graphs on n vertices, counted by edges, from a
    DFS over edge subsets in index order: a pair is added unless a path of
    k - 1 edges already joins its ends, which would close a k-cycle."""
    pairs = list(itertools.combinations(range(n), 2))
    adj = [0] * n
    counts = Counter()

    def extend(start, m):
        counts[m] += 1
        for j in range(start, len(pairs)):
            u, v = pairs[j]
            if not kernels.has_path(adj, u, v, k - 1):
                adj[u] ^= 1 << v
                adj[v] ^= 1 << u
                extend(j + 1, m + 1)
                adj[u] ^= 1 << v
                adj[v] ^= 1 << u

    extend(0, 0)
    return counts


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def participants(monkeypatch):
    """`use(p)` makes the search see p CPUs and returns the list of the
    pids it forks until the next `use`."""
    forks = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    def use(p):
        forks.clear()
        monkeypatch.setattr(search, "_cpu_count", lambda: p)
        monkeypatch.setattr(os, "fork", counted)
        return forks

    return use


def level_at(n, k, m):
    """Level m of the (n, k) search."""
    empty = Graph(n, [0] * n)
    code, _, generators = canonical_form(empty)
    level = {code: (empty, b"".join(generators))}
    for _ in range(m):
        level, _ = _next_level(level, k, _Budget(None, None))
    return level


class WorkerDeadline:
    """A deadline that has passed in every process but the one that made it."""

    def __init__(self):
        self.pid = os.getpid()

    def __lt__(self, now):  # `now > deadline`
        return os.getpid() != self.pid


class TestParallelLevels:
    @pytest.mark.parametrize("n, k", [(9, 6), (10, 6), (9, 4), (8, 5)])
    def test_participants_give_the_same_result(self, n, k, participants):
        results = []
        for p in (1, 2, 3):
            forks = participants(p)
            results.append(dataclasses.replace(enumerate_saturated(n, k), elapsed=0))
            assert bool(forks) == (p > 1), p
            assert_no_children()
        assert results[0].status == "complete"
        assert results[1] == results[0] and results[2] == results[0]

    def test_levels_keep_the_sequential_order(self, participants):
        # the same representatives and generators, in the same insertion
        # order, from the level of 650 parents at n = 9
        participants(1)
        level = level_at(9, 6, 9)
        assert len(level) == 650
        outs = []
        for p in (1, 2, 3):
            forks = participants(p)
            out, _ = _next_level(level, 6, _Budget(None, None))
            assert len(forks) == p - 1
            outs.append([(code, g.adj, g.edge_count, gens)
                         for code, (g, gens) in out.items()])
        assert outs[1] == outs[0] and outs[2] == outs[0]
        assert_no_children()

    @pytest.mark.parametrize("p", [2, 3])
    def test_node_budget_inside_a_forked_level(self, p, participants):
        participants(1)
        one = enumerate_saturated(9, 6, budget_nodes=5000)
        forks = participants(p)
        res = enumerate_saturated(9, 6, budget_nodes=5000)
        assert forks
        assert_no_children()
        assert res.status == "budget-exhausted" and res.nodes == 5000
        assert dataclasses.replace(res, elapsed=0) == dataclasses.replace(one, elapsed=0)

    def test_worker_reports_its_deadline(self, participants):
        participants(1)
        level = level_at(9, 6, 9)
        own = _Budget(None, None)
        search._expand(list(level.values()), 6, 0, 2, own)
        forks = participants(2)
        budget = _Budget(None, None)
        budget.deadline = WorkerDeadline()
        with pytest.raises(BudgetExhausted, match="time budget"):
            _next_level(level, 6, budget)
        assert forks
        assert_no_children()
        # this process ticked its whole share, the worker none of its own
        assert budget.spent == own.spent > 0

    def test_time_budget_ends_a_forked_run(self, participants):
        forks = participants(2)
        res = enumerate_saturated(10, 6, budget_secs=0.3)
        assert forks and res.status == "budget-exhausted" and res.min_edges is None
        assert_no_children()

    def test_worker_exception_is_raised_here(self, participants, monkeypatch):
        pid, label = os.getpid(), canonical_form

        def fails_in_worker(g):
            if os.getpid() != pid:
                raise ValueError("labeling failed in a worker")
            return label(g)

        monkeypatch.setattr(search, "canonical_form", fails_in_worker)
        forks = participants(2)
        with pytest.raises(RuntimeError, match="labeling failed in a worker"):
            enumerate_saturated(9, 6)
        assert forks
        assert_no_children()

    def test_interrupt_kills_and_reaps_the_workers(self, participants, monkeypatch):
        pid, label = os.getpid(), canonical_form
        forks = participants(2)

        def interrupted_here(g):
            if forks and os.getpid() == pid:
                raise KeyboardInterrupt
            return label(g)

        monkeypatch.setattr(search, "canonical_form", interrupted_here)
        with pytest.raises(KeyboardInterrupt):
            enumerate_saturated(9, 6)
        assert forks
        assert_no_children()

    def test_other_threads_keep_one_participant(self, participants):
        participants(4)
        assert search._participants(10**6) == 4
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert search._participants(10**6) == 1
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()

    def test_small_levels_are_not_split(self, participants):
        participants(4)
        assert search._participants(2 * search.MIN_SHARE - 1) == 1
        assert search._participants(2 * search.MIN_SHARE) == 2
        assert search._participants(10**6) == 4


class TestLevelScans:
    @pytest.mark.parametrize("n, k", [(7, 6), (8, 5), (9, 6), (9, 4)])
    def test_hits_match_a_serial_scan(self, n, k, participants, monkeypatch):
        # every level up to the first with hits, split from 10 parents on,
        # so that the small levels of n = 7 and 8 are shared too
        monkeypatch.setattr(search, "MIN_SHARE", 5)
        for p in (1, 2, 3):
            forks = participants(p)
            level, hits = level_at(n, k, 0), []
            while not hits:
                level, hits = _next_level(level, k, _Budget(None, None))
                assert hits == [g for _, (g, _) in sorted(level.items())
                                if kernels.witness_scan(g.adj, k)]
            assert bool(forks) == (p > 1), p
            assert_no_children()
            res = enumerate_saturated(n, k)
            assert hits[0].edge_count == res.min_edges
            assert [canonical_graph(g) for g in hits] == res.graphs

    @pytest.mark.parametrize("n, k", [(9, 6), (9, 4), (8, 3)])
    def test_lemma_settles_scans_before_the_walk(self, n, k, participants,
                                                 monkeypatch):
        # every child with n - 1 edges or more is put to the leaf lemma, and
        # only the children it leaves open are walked
        participants(1)
        lemma, scanned = [], []
        obstruction, scan = search.leaf_obstruction, kernels.witness_scan

        def lemma_spy(g, k):
            lemma.append((g.adj, obstruction(g, k)))
            return lemma[-1][1]

        def scan_spy(adj, k):
            scanned.append(adj)
            return scan(adj, k)

        monkeypatch.setattr(search, "leaf_obstruction", lemma_spy)
        monkeypatch.setattr(kernels, "witness_scan", scan_spy)
        enumerate_saturated(n, k)
        assert scanned == [adj for adj, ruled_out in lemma if not ruled_out]
        settled = sum(ruled_out for _, ruled_out in lemma)
        assert bool(settled) == (k > 3), settled

    def test_k2_is_a_hit_and_k1_needs_no_level(self, monkeypatch):
        # sat(2, C_6) = 1 from the first level's scan; sat(1, C_6) = 0 from
        # the initial level, with no `_next_level` call
        level, hits = _next_level(level_at(2, 6, 0), 6, _Budget(None, None))
        assert hits == [complete_graph(2)] and len(level) == 1
        monkeypatch.setattr(search, "_next_level", None)
        res = enumerate_saturated(1, 6)
        assert (res.min_edges, res.graphs) == (0, [Graph(1, [0])])


def label_every_leader(level, k):
    """One augmentation level without the degree-sum or edge-key prefilter:
    every orbit leader among all the non-edges that closes no k-cycle is
    labeled."""
    out = {}
    for g, generators in level.values():
        for u, v in _orbit_leaders(g.n, g.non_edges(), generators):
            if k <= g.n and kernels.has_path(g.adj, u, v, k - 1):
                continue
            child = g.with_edge(u, v)
            code, _, child_generators = canonical_form(child)
            out.setdefault(code, (child, b"".join(child_generators)))
    return out


class TestDegreeSumPrefilter:
    def test_matches_recomputation_on_the_child(self, rng):
        from tests.conftest import random_connected_graph

        kept = cut = 0
        for _ in range(60):
            g = random_connected_graph(rng, n_max=10)
            want = []
            for u, v in g.non_edges():
                child = g.with_edge(u, v)
                d = child.degrees()
                if all(d[u] + d[v] >= d[x] + d[y] for x, y in child.edges()):
                    want.append((u, v))
            assert _EdgeKeys(g).degree_sum_passing() == want, g.edges()
            kept += len(want)
            cut += len(g.non_edges()) - len(want)
        assert kept and cut
        empty = Graph(5, [0] * 5)
        assert _EdgeKeys(empty).degree_sum_passing() == empty.non_edges()
        assert _EdgeKeys(complete_graph(5)).degree_sum_passing() == []

    def test_edge_key_matches_recomputation_on_the_child(self, rng):
        # the key of every edge of G+uv, from the child's own degrees and
        # neighbor-degree sums; uv passes iff no edge's key is larger
        from tests.conftest import random_connected_graph

        def larger_edges(g, u, v):
            child = g.with_edge(u, v)
            d = child.degrees()
            s = [sum(d[y] for y in child.neighbors(x)) for x in range(g.n)]

            def key(x, y):
                return (d[x] + d[y], *sorted([(d[x], s[x]), (d[y], s[y])], reverse=True))

            return [(x, y) for x, y in child.edges() if key(x, y) > key(u, v)]

        # 2-6 ties the degree sum of 3-7 and 5-7, which meet neither 2 nor
        # 6, and loses to them at the larger end
        far = Graph.from_edges(8, [(0, 7), (1, 7), (2, 4), (2, 5), (3, 6),
                                   (3, 7), (4, 6), (5, 7)])
        graphs = [far] + [random_connected_graph(rng, n_max=10) for _ in range(60)]
        beaten_at = Counter()  # where the larger keys lay: at u, at v, elsewhere
        for g in graphs:
            keys = _EdgeKeys(g)
            for u, v in keys.degree_sum_passing():
                larger = larger_edges(g, u, v)
                assert keys.largest(u, v) == (not larger), (g.edges(), u, v)
                beaten_at[frozenset("u" if u in e else "v" if v in e else "other"
                                    for e in larger)] += 1
        for where in ((), ("u",), ("v",), ("other",)):
            assert beaten_at[frozenset(where)], where

    def test_levels_match_labeling_every_leader(self):
        n = 8
        empty = Graph(n, [0] * n)
        code, _, generators = canonical_form(empty)
        for k in range(3, 7):
            ours = ref = {code: (empty, b"".join(generators))}
            m = 0
            while ref:
                m += 1
                ours, _ = _next_level(ours, k, _Budget(None, None))
                ref = label_every_leader(ref, k)
                assert set(ours) == set(ref), (k, m)

    def test_graphs_sorted_by_canonical_code(self, extremal9):
        for res in (extremal9, enumerate_saturated(8, 5), enumerate_saturated(7, 4)):
            codes = [canonical_form(g)[0] for g in res.graphs]
            assert codes == sorted(codes) and len(set(codes)) == len(codes)
            strings = [to_graph6(g) for g in res.graphs]
            assert strings == sorted(strings)


class TestPersistence:
    def test_save_and_reload(self, tmp_path):
        res = enumerate_saturated(6, 3)
        path = save_result(res, tmp_path)
        assert path.name == "sat_6_3.g6"
        graphs = read_graph6_file(path)
        assert len(graphs) == len(res.graphs)
        assert are_isomorphic(graphs[0], res.graphs[0])

    def test_summary_table(self):
        res = enumerate_saturated(5, 3)
        table = summary_table([res])
        assert "complete" in table and " 4" in table


def closes_k_cycle(h, u, v, k):
    """Whether adding uv to the networkx graph h closes a k-cycle."""
    return any(len(p) == k for p in nx.all_simple_paths(h, u, v, cutoff=k - 1))


class TestAtlasCrossCheck:
    def test_level_sizes_match_networkx_at_n8(self):
        # past the atlas (n <= 7): rebuild the C_6-free levels with networkx's
        # isomorphism test in place of the labeler, bucketed by an invariant
        def invariant(h):
            return tuple(sorted((h.degree(x), tuple(sorted(h.degree(y) for y in h[x])))
                                for x in h))

        level = [nx.empty_graph(8)]
        sizes = {0: 1}
        while len(sizes) <= 11:
            buckets = {}
            for h in level:
                for u, v in nx.non_edges(h):
                    if closes_k_cycle(h, u, v, 6):
                        continue
                    child = h.copy()
                    child.add_edge(u, v)
                    bucket = buckets.setdefault(invariant(child), [])
                    if not any(nx.is_isomorphic(child, c) for c in bucket):
                        bucket.append(child)
            level = [c for bucket in buckets.values() for c in bucket]
            sizes[len(sizes)] = len(level)
        assert sizes == {0: 1, 1: 1, 2: 2, 3: 5, 4: 11, 5: 24, 6: 55, 7: 111,
                         8: 199, 9: 306, 10: 349, 11: 266}
        assert enumerate_saturated(8, 6).level_sizes == sizes

    def test_canonical_classes_match_atlas_n5(self):
        # networkx atlas is already one graph per class; keys must stay unique
        keys = set()
        graphs = [g for g in nx.graph_atlas_g() if g.number_of_nodes() == 5]
        for h in graphs:
            g = Graph.from_edges(5, list(h.edges()))
            keys.add(canonical_key(g))
        assert len(keys) == len(graphs) == 34
