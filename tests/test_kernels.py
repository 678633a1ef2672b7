"""The path search against a brute-force oracle.

The reference enumerates the permutations of candidate inner vertices and keeps
those that form a path, so it shares no code with the pruned walk: witnesses
must be the exact lexicographic minimum. A vertex paired with itself finds
nothing: the walk never reaches u. A second reference, a DFS toward one target
pruned by that target's own walk masks, checks the many-target walk on inputs
too large for the permutations.
"""

import collections
import functools
import itertools
import operator
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import satforge
from satforge import kernels
from satforge.construction import build_construction
from satforge.graph import Graph, to_graph6
from satforge.saturation import check_saturated, contains_cycle
from tests.conftest import (complete_graph, cycle_graph, path_graph,
                            surplus_thread_count)


def brute_paths(g, u, v, length):
    """Every simple u-v path (u != v) with exactly `length` edges, sorted."""
    others = [w for w in range(g.n) if w not in (u, v)]
    out = []
    for inner in itertools.permutations(others, length - 1):
        p = (u, *inner, v)
        if all(g.has_edge(a, b) for a, b in zip(p, p[1:])):
            out.append(p)
    return sorted(out)


def avoiding(paths, banned):
    return [p for p in paths if not any(banned >> w & 1 for w in p[1:-1])]


def brute_has_cycle(g, k):
    for nodes in itertools.combinations(range(g.n), k):
        for perm in itertools.permutations(nodes[1:]):
            cyc = (nodes[0], *perm)
            if all(g.has_edge(cyc[i], cyc[(i + 1) % k]) for i in range(k)):
                return True
    return False


def least_path(adj, u, v, length, banned=0):
    """The path that the single-target walk of least_paths records for v,
    or None; the returned mask must say the same."""
    out = {}
    missed = kernels.least_paths(adj, u, length, 1 << v, banned, out)
    assert missed == (0 if out else 1 << v)
    return out.get(v)


def random_graphs(count=40, n_max=9, seed=0xC6):
    """Seeded graphs of every density, connected or not, with a random mask
    of banned vertices for each."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(2, n_max)
        p = rng.random()
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
        banned = sum(1 << w for w in range(n) if rng.random() < 0.3)
        out.append((Graph.from_edges(n, edges), banned))
    return out


GRAPHS = random_graphs()
LENGTHS = range(1, 7)


@pytest.fixture(scope="module")
def path_table():
    """(graph index, u, v, length) -> brute-force paths, for every ordered pair
    u != v."""
    table = {}
    for i, (g, _) in enumerate(GRAPHS):
        for u, v in itertools.combinations(range(g.n), 2):
            for length in LENGTHS:
                ps = brute_paths(g, u, v, length)
                table[i, u, v, length] = ps
                table[i, v, u, length] = sorted(p[::-1] for p in ps)
    return table


def test_backend_selected():
    assert kernels.BACKEND == "python"


def test_python_path_and_cycle_basics():
    g = cycle_graph(6)
    assert kernels.has_path(g.adj, 0, 3, 3)
    assert not kernels.has_path(g.adj, 0, 3, 4)
    assert not kernels.has_path(g.adj, 0, 0, 6)
    assert kernels.least_cycle(g.adj, 6) is not None
    assert kernels.least_cycle(g.adj, 5) is None
    assert kernels.least_cycle(g.adj, 2) is None  # an edge is not a 2-cycle
    assert least_path(g.adj, 0, 0, 6) is None  # the walk never reaches u
    assert least_path(g.adj, 0, 3, 3, banned=1 << 1) == (0, 5, 4, 3)
    assert least_path(g.adj, 0, 3, 3, banned=1 << 1 | 1 << 5) is None


def test_walk_masks_are_walk_endpoints():
    g = path_graph(5)  # 0-1-2-3-4
    # one target: it never lies inside, and u's neighbors are pruned too
    assert kernels._masks(g.adj, 0, 4, 1 << 4, 0) == [
        1 << 4, 1 << 3, 1 << 2, 1 << 1 | 1 << 3]
    # inner vertices avoid `banned`
    assert kernels._masks(g.adj, 0, 4, 1 << 4, 1 << 2) == [1 << 4, 1 << 3, 0, 0]
    # several targets: a target may be inner, only U[1] is built, and u's
    # neighbors are not pruned
    assert kernels._masks(g.adj, 0, 4, 1 << 3 | 1 << 4, 0) == [
        1 << 3 | 1 << 4, 1 << 2 | 1 << 3 | 1 << 4, ~1, ~1]


def test_least_path_matches_brute_force(path_table):
    # the single-target walk, as has_path runs it in the search
    for i, (g, banned) in enumerate(GRAPHS):
        for u, v in itertools.product(range(g.n), repeat=2):
            for length in LENGTHS:
                ps = path_table[i, u, v, length] if u != v else []
                assert least_path(g.adj, u, v, length) == min(ps, default=None)
                want = min(avoiding(ps, banned), default=None)
                assert least_path(g.adj, u, v, length, banned) == want


def per_pair_least_path(adj, u, v, length, banned):
    """The least u-v path (u != v) by a DFS toward v alone. It enters a
    vertex w with j edges still to go only when w is in R[j], the vertices
    with a walk of j edges to v whose inner vertices avoid `banned` and v."""
    if not 0 < length < len(adj):
        return None
    if length == 1:
        return (u, v) if adj[u] >> v & 1 else None
    reach = [1 << v, adj[v]]
    for _ in range(2, length):
        inner = reach[-1] & ~(banned | 1 << v)
        reach.append(functools.reduce(
            operator.or_, (adj[x] for x in range(len(adj)) if inner >> x & 1), 0))

    def extend(path, avoid, left):
        cand = adj[path[-1]] & reach[left - 1] & ~avoid
        for w in range(len(adj)):
            if cand >> w & 1:
                if left == 2:
                    return (*path, w, v)
                found = extend((*path, w), avoid | 1 << w, left - 1)
                if found is not None:
                    return found
        return None

    return extend((u,), banned | 1 << u | 1 << v, length)


def per_target(adj, u, length, targets, banned):
    """What least_paths must give: the per-pair least path to each target
    other than u, and the mask of targets without a path (u among them)."""
    paths = {}
    for v in range(len(adj)):
        if targets >> v & 1 and v != u:
            p = per_pair_least_path(adj, u, v, length, banned)
            if p is not None:
                paths[v] = p
    return paths, targets & ~sum(1 << v for v in paths)


def test_least_paths_matches_per_pair_search():
    rng = random.Random(0x1EA5)
    for g, banned in GRAPHS:
        full = (1 << g.n) - 1
        for u in range(g.n):
            masks = (full, full ^ 1 << u, kernels.non_neighbors_above(g.adj, u),
                     rng.getrandbits(g.n), rng.getrandbits(g.n))
            for length in range(1, g.n + 1):
                for targets in masks:
                    for ban in (0, banned, rng.getrandbits(g.n)):
                        out = {}
                        missed = kernels.least_paths(g.adj, u, length, targets, ban, out)
                        assert (out, missed) == per_target(g.adj, u, length, targets, ban)
                        assert kernels.least_paths(g.adj, u, length, targets, ban) == missed


def test_least_paths_matches_per_pair_search_on_the_family(family):
    # the certificate's query: every non-edge above u, on graphs larger
    # than the random ones
    for g in family.values():
        for u in range(g.n):
            targets = kernels.non_neighbors_above(g.adj, u)
            for length in (4, 5, 6):
                out = {}
                missed = kernels.least_paths(g.adj, u, length, targets, 0, out)
                assert (out, missed) == per_target(g.adj, u, length, targets, 0)


def test_least_paths_against_brute_force(path_table):
    # independent of the per-pair reference: the minimum over every
    # enumerated path; a list `out`, reused across queries as
    # check_saturated reuses it, holds the same paths at the found targets
    for i, (g, banned) in enumerate(GRAPHS):
        slots = [None] * g.n
        for u in range(g.n):
            targets = kernels.non_neighbors_above(g.adj, u)
            for length in LENGTHS:
                out = {}
                missed = kernels.least_paths(g.adj, u, length, targets, banned, out)
                for v in range(u + 1, g.n):
                    want = min(avoiding(path_table[i, u, v, length], banned), default=None)
                    assert out.get(v) == (want if targets >> v & 1 else None)
                    assert missed >> v & 1 == (targets >> v & 1 and want is None)
                assert kernels.least_paths(g.adj, u, length, targets, banned,
                                           slots) == missed
                found = targets & ~missed
                assert {v: slots[v] for v in range(g.n) if found >> v & 1} == out


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_least_paths_property(data):
    n = data.draw(st.integers(2, 12))
    pairs = list(itertools.combinations(range(n), 2))
    keep = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = Graph.from_edges(n, [p for p, k in zip(pairs, keep) if k])
    u = data.draw(st.integers(0, n - 1))
    length = data.draw(st.integers(1, n))
    targets = data.draw(st.integers(0, (1 << n) - 1))
    banned = data.draw(st.integers(0, (1 << n) - 1))
    out = {}
    missed = kernels.least_paths(g.adj, u, length, targets, banned, out)
    assert (out, missed) == per_target(g.adj, u, length, targets, banned)
    # the source-wide entry, for every source, against the same reference
    for u, targets, missed, paths, first in entry_walks(g.adj, length):
        assert (paths, missed) == per_target(g.adj, u, length, targets, 0)
        if first is not None:
            assert kernels._masks(g.adj, u, length, targets, 0)[1] & ~first == 0


def entry_walks(adj, length):
    """Each source of kernels.witness_walks(adj, length, out) in the order
    met, as (u, targets, missed, paths, first): `targets` are u's
    non-neighbours above u, `paths` the slots its walk wrote and `first`
    masks[1] of its top-level walk, or None when it ran no walk."""
    firsts = []
    walk = kernels._walk

    def spy(adj, masks, visited, path, *rest):
        if len(path) == 1:
            firsts.append(masks[1])
        return walk(adj, masks, visited, path, *rest)

    out, met = {}, []
    with mock.patch.object(kernels, "_walk", spy):
        for u, missed in kernels.witness_walks(adj, length, out):
            assert len(firsts) <= 1
            met.append((u, kernels.non_neighbors_above(adj, u), missed, dict(out),
                        firsts.pop() if firsts else None))
            out.clear()
    return met


def check_entry(adj, length):
    """witness_walks against one least_paths query per source, its first
    masks against _masks; returns the sources' target counts."""
    n = len(adj)
    met = entry_walks(adj, length)
    assert [u for u, *_ in met] == list(range(n))
    for u, targets, missed, paths, first in met:
        want = {}
        assert kernels.least_paths(adj, u, length, targets, 0, want) == missed
        assert paths == want
        if targets and 1 < length < n:
            assert first is not None
            assert kernels._masks(adj, u, length, targets, 0)[1] & ~first == 0
        else:
            assert first is None
    return [targets.bit_count() for _, targets, *_ in met]


def test_witness_walks_match_least_paths():
    # the graphs of path_table, the family for n = 9..64, and small ones
    graphs = [g for g, _ in GRAPHS]
    graphs += [build_construction(n)[0] for n in range(9, 65)]
    graphs += [Graph(1, [0]), Graph(2, [0, 0]), path_graph(3)]
    counts = collections.Counter()
    beyond = 0
    for g in graphs:
        for k in range(3, 9):
            counts.update(min(c, 2) for c in check_entry(g.adj, k - 1))
            beyond += k - 1 >= g.n
    # sources with no target, one and several, and walks longer than a path
    assert counts[0] and counts[1] and counts[2] and beyond


def test_witness_walks_edge_cases():
    # K_1: one source, no target; its walks never start
    assert entry_walks([0], 2) == [(0, 0, 0, {}, None)]
    # two isolated vertices: source 0 has the one target 1 and no path to it
    assert entry_walks([0, 0], 2) == [(0, 2, 2, {}, None), (1, 0, 0, {}, None)]
    # the path 0-1-2: the non-edge 0-2 by the walk of two edges, and no walk
    # of three edges fits in three vertices
    adj = path_graph(3).adj
    assert entry_walks(adj, 2) == [(0, 4, 0, {2: (0, 1, 2)}, adj[1] | adj[2]),
                                   (1, 0, 0, {}, None), (2, 0, 0, {}, None)]
    assert [m for _, _, m, _, _ in entry_walks(adj, 3)] == [4, 0, 0]


def test_witness_scan_walks_down_to_the_first_miss():
    # the scan agrees with witness_walks, but walks its sources from n - 1
    # down and stops at the first one that misses a target
    graphs = [g for g, _ in GRAPHS] + [build_construction(n)[0] for n in range(9, 31)]
    graphs += [Graph(1, [0]), Graph(2, [0, 0]), path_graph(3)]
    walked = []
    walk = kernels._walk

    def spy(adj, masks, visited, path, *rest):
        if len(path) == 1:
            walked.append(path[0])
        return walk(adj, masks, visited, path, *rest)

    verdicts = set()
    for g in graphs:
        for k in range(3, 9):
            met = list(kernels.witness_walks(g.adj, k - 1))
            want = []
            if 1 < k - 1 < g.n:
                for u, missed in reversed(met):
                    if kernels.non_neighbors_above(g.adj, u):
                        want.append(u)
                    if missed:
                        break
            walked.clear()
            with mock.patch.object(kernels, "_walk", spy):
                saturated = kernels.witness_scan(g.adj, k)
            assert saturated == (not any(missed for _, missed in met))
            assert walked == want
            verdicts.add(saturated)
    assert verdicts == {True, False}


def test_least_paths_edge_cases():
    adj = cycle_graph(6).adj
    out = {}
    assert kernels.least_paths(adj, 0, 3, 0, 0, out) == 0 and out == {}
    # no simple path has n or more edges, nor 0
    for length in (0, 6, 7):
        assert kernels.least_paths(adj, 0, length, 0b111110, 0, out) == 0b111110
        assert out == {}
    # u is never its own target
    assert kernels.least_paths(adj, 0, 3, 0b001001, 0, out) == 0b000001
    assert out == {3: (0, 1, 2, 3)}
    # a target adjacent to u: the edge for length 1, the long way round for 5
    out = {}
    assert kernels.least_paths(adj, 0, 1, 0b100010, 0, out) == 0
    assert out == {1: (0, 1), 5: (0, 5)}
    out = {}
    assert kernels.least_paths(adj, 0, 5, 0b100010, 0, out) == 0
    assert out == {1: (0, 5, 4, 3, 2, 1), 5: (0, 1, 2, 3, 4, 5)}
    assert kernels.least_paths(adj, 0, 3, 0b000010) == 0b000010
    # a banned inner vertex blocks one way round; banned ends do not matter
    out = {}
    assert kernels.least_paths(adj, 0, 3, 0b001000, 0b001010, out) == 0
    assert out == {3: (0, 5, 4, 3)}


def test_per_pair_reference_matches_brute_force(path_table):
    for i, (g, banned) in enumerate(GRAPHS):
        for u, v in itertools.permutations(range(g.n), 2):
            for length in LENGTHS:
                want = min(avoiding(path_table[i, u, v, length], banned), default=None)
                assert per_pair_least_path(g.adj, u, v, length, banned) == want


def test_existence_tests_match_brute_force(path_table):
    for i, (g, _) in enumerate(GRAPHS):
        for u, v in itertools.product(range(g.n), repeat=2):
            for length in LENGTHS:
                assert kernels.has_path(g.adj, u, v, length) == (
                    u != v and bool(path_table[i, u, v, length]))
        cycles = {k: brute_has_cycle(g, k) for k in range(3, 9)}
        for k, want in cycles.items():
            assert (kernels.least_cycle(g.adj, k) is not None) == want
        for k in range(3, 8):
            want = not cycles[k] and all(path_table[i, u, v, k - 1]
                                         for u, v in g.non_edges())
            assert kernels.saturation_scan(g.adj, k) == want


def test_witness_scan_matches_brute_force(path_table):
    # on C_k-free graphs only: there the witnesses alone decide saturation
    tried = {True: 0, False: 0}
    for i, (g, _) in enumerate(GRAPHS):
        for k in range(3, 8):
            if brute_has_cycle(g, k):
                continue
            want = all(path_table[i, u, v, k - 1] for u, v in g.non_edges())
            assert kernels.witness_scan(g.adj, k) == want, (i, k)
            tried[want] += 1
    for g in c6_free_graphs():
        want = all(brute_paths(g, u, v, 5) for u, v in g.non_edges())
        assert kernels.witness_scan(g.adj, 6) == want
        tried[want] += 1
    assert tried[True] and tried[False]


def test_saturation_scan_reaches_every_verdict():
    # the not-free and missing-witness cases are told apart by
    # check_saturated's verdicts (tests/test_saturation.py)
    answers = {kernels.saturation_scan(g.adj, k)
               for g, _ in GRAPHS for k in range(3, 8)}
    assert answers == {True, False}


def test_scan_classes():
    assert kernels.saturation_scan(cycle_graph(6).adj, 6) is False
    assert kernels.saturation_scan(path_graph(6).adj, 6) is False
    assert kernels.saturation_scan(complete_graph(5).adj, 6) is True


def c6_free_graphs(count=30, n_max=8, seed=0x5A7):
    """Random C_6-saturation-process graphs (pairs added in shuffled order
    unless they close a C_6); every other one loses an edge, so some
    non-edges have no witness."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        n = rng.randint(6, n_max)
        g = Graph(n, [0] * n)
        pairs = list(itertools.combinations(range(n), 2))
        rng.shuffle(pairs)
        for u, v in pairs:
            if not brute_paths(g, u, v, 5):
                g = g.with_edge(u, v)
        if i % 2:
            g = g.without_edge(*rng.choice(g.edges()))
        out.append(g)
    return out


def test_saturation_scan_walks_rows_sorted_by_degree():
    # the cycle walk and the witness scan get one relabelled copy: ascending
    # degrees, and the same graph up to labels when no class has four
    # threads. The family member n >= 18 is scanned as its quotient, which
    # has the degrees and edges of the member n' = 15 + n mod 3, whose three
    # threads of four edges are the three that the quotient keeps
    inputs = [(g.adj, k) for g, _ in GRAPHS for k in range(3, 8)]
    inputs += [(g.adj, 6) for g in c6_free_graphs()]
    inputs += [(build_construction(n)[0].adj, 6) for n in range(9, 65)]
    scan, cycle = kernels.witness_scan, kernels.least_cycle
    seen, cycle_seen = [], []

    def spy(rows, k):
        seen.append(rows)
        return scan(rows, k)

    def cycle_spy(rows, k):
        cycle_seen.append(rows)
        return cycle(rows, k)

    scanned = reduced = 0
    with mock.patch.object(kernels, "witness_scan", spy), \
            mock.patch.object(kernels, "least_cycle", cycle_spy):
        for adj, k in inputs:
            seen.clear()
            cycle_seen.clear()
            answer = kernels.saturation_scan(adj, k)
            (cycle_rows,) = cycle_seen
            if not seen:
                continue  # not C_k-free: no witness scan ran
            (rows,) = seen
            assert rows is cycle_rows
            degrees = [row.bit_count() for row in rows]
            assert degrees == sorted(degrees)
            assert answer == scan(rows, k) == scan(adj, k)
            scanned += 1
            if len(adj) >= 18 and adj == build_construction(len(adj))[0].adj:
                small = build_construction(15 + len(adj) % 3)[0]
                assert degrees == sorted(row.bit_count() for row in small.adj)
                assert Graph(len(rows), rows).edge_count == small.edge_count
                reduced += 1
                continue
            assert degrees == sorted(row.bit_count() for row in adj)
            assert Graph(len(rows), rows).edge_count == Graph(len(adj), adj).edge_count
    assert scanned > 56 and reduced == 64 - 18 + 1


def threaded_graphs(count=150, seed=0x7E4D):
    """Seeded graphs built from parallel threads on a random kernel of two
    to five vertices: one class of four to six threads, up to two more
    classes of one to five, now and then a cycle hung on one kernel vertex,
    and a few random edges that may cut a thread short, under a random
    labelling."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        m = rng.randint(2, 5)
        edges = [e for e in itertools.combinations(range(m), 2) if rng.random() < 0.5]
        n = m
        for size in [rng.randint(4, 6)] + [rng.randint(1, 5)
                                           for _ in range(rng.randint(0, 2))]:
            a, b = rng.sample(range(m), 2)
            inner = rng.randint(1, 3)
            for _ in range(size):
                path = [a, *range(n, n + inner), b]
                edges += zip(path, path[1:])
                n += inner
        if rng.random() < 0.3:
            a = rng.randrange(m)
            path = [a, n, n + 1, a]
            edges += zip(path, path[1:])
            n += 2
        for _ in range(rng.randint(0, 2)):
            edges.append(rng.sample(range(n), 2))
        label = rng.sample(range(n), n)  # threads met in any order from either end
        out.append(Graph.from_edges(n, [(label[u], label[v]) for u, v in edges]))
    return out


def test_saturation_scan_equals_unreduced_scan():
    # the quotient has a witness for every non-edge iff the input does, and
    # is C_k-free iff the input is (kernels' Threads): the family at every
    # k, the family's one-edge deletions and additions, and random graphs
    # of parallel threads
    inputs = [(build_construction(n)[0], k) for n in range(9, 65) for k in range(3, 9)]
    for n in range(18, 25):
        g = build_construction(n)[0]
        inputs += [(g.without_edge(u, v), 6) for u, v in g.edges()]
        inputs += [(g.with_edge(u, v), 6) for u, v in g.non_edges()]
    inputs += [(g, k) for g in threaded_graphs() for k in range(3, 9)]
    verdicts = collections.Counter()
    for g, k in inputs:
        witnessed = kernels.witness_scan(g.adj, k)  # on the input rows
        want = kernels.least_cycle(g.adj, k) is None and witnessed
        assert kernels.saturation_scan(g.adj, k) == want, (to_graph6(g), k)
        dropped = kernels._surplus_threads(g.adj)
        assert dropped.bit_count() == surplus_thread_count(g.adj), to_graph6(g)
        if dropped:
            # the lemma needs no C_k-freeness: the witness scans agree alone
            quotient = kernels._degree_sorted(g.adj, ~dropped)
            assert kernels.witness_scan(quotient, k) == witnessed, (to_graph6(g), k)
            free = kernels.least_cycle(g.adj, k) is None
            assert (kernels.least_cycle(quotient, k) is None) == free, (to_graph6(g), k)
            verdicts["saturation", want] += 1
            verdicts["witnesses", witnessed] += 1
            verdicts["cycle-free", free] += 1
    assert all(verdicts[test, verdict]
               for test in ("saturation", "witnesses", "cycle-free")
               for verdict in (True, False)), verdicts


def test_contains_cycle_witness_is_least_path_of_first_cycle_edge(path_table):
    # the least (k-1)-path of the first edge, in edges() order, on a k-cycle
    cases = [(g, lambda u, v, length, i=i: path_table[i, u, v, length])
             for i, (g, _) in enumerate(GRAPHS)]
    cases += [(g, functools.partial(brute_paths, g)) for g in c6_free_graphs()]
    found = 0
    for g, paths in cases:
        for k in range(3, 8):
            want = next((ps[0] for ps in (paths(u, v, k - 1) for u, v in g.edges())
                         if ps), None)
            got = contains_cycle(g, k)
            assert (got and got.vertices) == want, (to_graph6(g), k)
            if got is not None:
                assert got.kind == "cycle" and got.validate(g)
                found += 1
    assert found


def reference_least_cycle(adj, k):
    """least_cycle by its definition, from the per-pair reference: the least
    u on any k-cycle, then u's least neighbour v above u that a path of k-1
    edges avoiding the vertices below u reaches, then the least such path."""
    for u in range(len(adj)):
        for v in range(u + 1, len(adj)):
            if adj[u] >> v & 1:
                p = per_pair_least_path(adj, u, v, k - 1, (1 << u) - 1)
                if p is not None:
                    return p
    return None


def cycle_graphs(family):
    """Seeded random graphs (n = 2..12, every density) and the family for
    n = 9..20."""
    return ([g for g, _ in random_graphs(200, 12, 0xC7C)]
            + [g for n, g in family.items() if n <= 20])


def test_least_cycle_is_the_reference_cycle(family):
    found = collections.Counter()
    for g in cycle_graphs(family):
        for k in range(3, 8):
            want = reference_least_cycle(g.adj, k)
            assert kernels.least_cycle(g.adj, k) == want, (to_graph6(g), k)
            found[k, want is None] += 1
    assert all(found[k, free] for k in range(3, 8) for free in (True, False))


def test_least_cycle_walks_each_cycle_one_way(family):
    # each walk from a path (u, a) seeks only targets below a: the other
    # way round each cycle is never walked
    firsts = []
    walk = kernels._walk

    def spy(adj, masks, visited, path, left, remaining, out):
        if len(path) == 2:
            firsts.append((path[1], remaining))
        return walk(adj, masks, visited, path, left, remaining, out)

    with mock.patch.object(kernels, "_walk", spy):
        for g in cycle_graphs(family):
            for k in range(3, 8):
                kernels.least_cycle(g.adj, k)
    assert firsts
    assert all(remaining >> a == 0 for a, remaining in firsts)


def test_check_saturated_witness_is_least_five_path():
    for g in c6_free_graphs():
        rep = check_saturated(g, 6)
        assert rep.verdict != "not-free"
        for u, v in g.non_edges():
            want = min(brute_paths(g, u, v, 5), default=None)
            got = rep.witnesses.get((u, v))
            assert (got and got.vertices) == want
            if got is not None:
                assert got.kind == "cycle" and got.validate(g.with_edge(u, v))


def test_check_saturated_keeps_non_edge_order():
    for g in c6_free_graphs():
        rep = check_saturated(g, 6)
        found = [e for e in g.non_edges() if brute_paths(g, *e, 5)]
        assert list(rep.witnesses) == found
        lost = [e for e in g.non_edges() if e not in rep.witnesses]
        assert rep.missing == min(lost, default=None)
        assert rep.verdict == ("missing-witness" if lost else "saturated")


def test_import_pulls_in_no_numeric_stack():
    src = str(Path(satforge.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); "
            "import satforge, satforge.cli; "
            "print(sorted({'numpy', 'numba'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_import_leaves_audit_and_search_unloaded():
    src = str(Path(satforge.__file__).resolve().parents[1])
    prelude = f"import sys; sys.path.insert(0, {src!r}); "
    lazy = {"satforge.discharging", "satforge.search", "fractions", "heapq"}
    code = prelude + ("import satforge, satforge.cli; "
                      f"print(sorted({lazy!r} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "[]"
    # in a second interpreter, every public name still resolves
    code = prelude + (
        "from satforge import *; import satforge; "
        "assert all(n in globals() for n in satforge.__all__); "
        "assert set(satforge.__all__) <= set(dir(satforge)); "
        "assert satforge.audit is satforge.discharging.audit; "
        "assert satforge.LevelPartition is satforge.discharging.LevelPartition; "
        "assert satforge.enumerate_saturated is satforge.search.enumerate_saturated; "
        "satforge.no_such_name")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert done.returncode == 1
    assert done.stderr.splitlines()[-1] == (
        "AttributeError: module 'satforge' has no attribute 'no_such_name'")
