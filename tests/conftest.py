import random

import pytest

from satforge import kernels
from satforge.construction import build_construction
from satforge.graph import Graph
from satforge.search import enumerate_saturated


# the failure messages of each audit check, by their leading words
CHECK_MESSAGES = {
    "v1-sum": ("v1-sum check failed",),
    "monotone-sign": ("sign monotonicity broken", "negative charge sank"),
    "class-bounds": ("negative-vertex rule", "pairing rule", "class charge floor",
                     "strong conditional bound", "weak conditional bound"),
    "v4-debt": ("level-4 debt",),
    "v3-debt": ("level-3 debt",),
    "final-nonneg": ("final nonnegativity",),
    "outer-sum-nonneg": ("outer-sum-nonneg check failed",),
}


def failures_of(a, check):
    """The messages in `a.failures` that the audit check `check` reported."""
    return [msg for msg in a.failures if msg.startswith(CHECK_MESSAGES[check])]


@pytest.fixture(scope="session")
def family():
    """Constructed family members for n = 9..30, keyed by n."""
    return {n: build_construction(n)[0] for n in range(9, 31)}


@pytest.fixture(scope="session")
def extremal9():
    """Complete minimum search for 6-cycle saturation at n = 9."""
    res = enumerate_saturated(9, 6)
    assert res.status == "complete"
    return res


@pytest.fixture(scope="session")
def corpus(family, extremal9):
    """Audit corpus: the construction family plus every n = 9 extremal."""
    return list(family.values()) + list(extremal9.graphs)


def complete_graph(n):
    full = (1 << n) - 1
    return Graph(n, [full ^ (1 << v) for v in range(n)])


def cycle_graph(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(n):
    return Graph.from_edges(n, [(0, i) for i in range(1, n)])


def random_connected_graph(rng, n_max=12):
    """Random connected graph: a random spanning tree plus random extra edges."""
    n = rng.randint(2, n_max)
    edges = set()
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        a = order[rng.randrange(i)]
        edges.add(tuple(sorted((a, order[i]))))
    extra = rng.randint(0, n)
    for _ in range(extra):
        u, v = rng.sample(range(n), 2)
        edges.add(tuple(sorted((u, v))))
    return Graph.from_edges(n, edges)


def c6_saturation_process(rng, n):
    """Random C_6-saturation process: visit the vertex pairs in shuffled order
    and add each one unless it would close a 6-cycle. The result is C_6-free
    and maximal, hence C_6-saturated."""
    g = Graph(n, [0] * n)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    for u, v in pairs:
        if not kernels.has_path(g.adj, u, v, 5):
            g = g.with_edge(u, v)
    return g


def process_graphs():
    """The 40 graphs of the random C_6-saturation process, n = 9..14."""
    rng = random.Random(0x6C)
    return [c6_saturation_process(rng, 9 + i % 6) for i in range(40)]


@pytest.fixture()
def rng():
    return random.Random(0xC6)
