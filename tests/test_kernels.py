"""The path search against a brute-force oracle.

The reference enumerates the permutations of candidate inner vertices and keeps
those that form a path, so it shares no code with the pruned search: witnesses
must be the exact lexicographic minimum and path lists the exact sorted list.
Each vertex paired with itself asks for the cycles through it.
"""

import itertools
import random
import subprocess
import sys
from pathlib import Path

import pytest

import satforge
from satforge import kernels
from satforge.graph import Graph, GraphError, find_path, paths_between
from satforge.saturation import check_saturated


def brute_paths(g, u, v, length):
    """Every simple u-v path with exactly `length` edges, sorted; with u == v,
    every cycle of `length` >= 3 edges through u as a closed tuple."""
    if u == v and length < 3:
        return []
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
    and for u == v (cycles through u)."""
    table = {}
    for i, (g, _) in enumerate(GRAPHS):
        for u, v in itertools.combinations_with_replacement(range(g.n), 2):
            for length in LENGTHS:
                ps = brute_paths(g, u, v, length)
                table[i, u, v, length] = ps
                table[i, v, u, length] = sorted(p[::-1] for p in ps)
    return table


def test_backend_selected():
    assert kernels.BACKEND == "python"


def test_python_path_and_cycle_basics():
    g = Graph.cycle(6)
    assert kernels.has_path(g.adj, 0, 3, 3)
    assert not kernels.has_path(g.adj, 0, 3, 4)
    assert not kernels.has_path(g.adj, 0, 0, 6)
    assert kernels.has_cycle(g.adj, 6)
    assert not kernels.has_cycle(g.adj, 5)
    assert kernels.least_path(g.adj, 0, 0, 6) == (0, 1, 2, 3, 4, 5, 0)
    assert kernels.least_path(g.adj, 0, 3, 3, banned=1 << 1) == (0, 5, 4, 3)
    assert kernels.least_path(g.adj, 0, 3, 3, banned=1 << 1 | 1 << 5) is None


def test_reach_masks_are_walk_endpoints():
    g = Graph.path(5)  # 0-1-2-3-4
    assert kernels.reach(g.adj, 4, 4) == [1 << 4, 1 << 3, 1 << 2 | 1 << 4, 1 << 1 | 1 << 3]
    # inner vertices avoid the target and `banned`
    assert kernels.reach(g.adj, 4, 4, banned=1 << 2) == [1 << 4, 1 << 3, 1 << 2 | 1 << 4, 0]


def test_least_path_matches_brute_force(path_table):
    for i, (g, banned) in enumerate(GRAPHS):
        for u, v in itertools.product(range(g.n), repeat=2):
            for length in LENGTHS:
                ps = path_table[i, u, v, length]
                assert kernels.least_path(g.adj, u, v, length) == min(ps, default=None)
                want = min(avoiding(ps, banned), default=None)
                assert kernels.least_path(g.adj, u, v, length, banned) == want
                got = find_path(g, u, v, length, banned=banned)
                assert (got and got.vertices) == (want if u != v else None)


def test_paths_between_matches_brute_force(path_table):
    for i, (g, banned) in enumerate(GRAPHS):
        for u, v in itertools.product(range(g.n), repeat=2):
            for length in LENGTHS:
                ps = path_table[i, u, v, length]
                if u == v:
                    with pytest.raises(GraphError):
                        paths_between(g, u, v, length)
                else:
                    assert [p.vertices for p in paths_between(g, u, v, length)] == ps
                assert kernels.all_paths(g.adj, u, v, length, banned) == avoiding(ps, banned)


def test_existence_tests_match_brute_force(path_table):
    for i, (g, _) in enumerate(GRAPHS):
        for u, v in itertools.product(range(g.n), repeat=2):
            for length in LENGTHS:
                assert kernels.has_path(g.adj, u, v, length) == (
                    u != v and bool(path_table[i, u, v, length]))
        cycles = {k: brute_has_cycle(g, k) for k in range(3, 9)}
        for k, want in cycles.items():
            assert kernels.has_cycle(g.adj, k) == want
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
    assert kernels.saturation_scan(Graph.cycle(6).adj, 6) is False
    assert kernels.saturation_scan(Graph.path(6).adj, 6) is False
    assert kernels.saturation_scan(Graph.complete(5).adj, 6) is True


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


def test_check_saturated_witness_is_least_five_path():
    for g in c6_free_graphs():
        rep = check_saturated(g, 6)
        assert rep.free
        for u, v in g.non_edges():
            want = min(brute_paths(g, u, v, 5), default=None)
            got = rep.witnesses.get((u, v))
            assert (got and got.vertices) == want
            if got is not None:
                assert got.kind == "cycle" and got.validate(g.with_edge(u, v))


def test_import_pulls_in_no_numeric_stack():
    src = str(Path(satforge.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); "
            "import satforge, satforge.cli; "
            "print(sorted({'numpy', 'numba'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "[]"
