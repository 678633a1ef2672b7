"""The extremal C_6-saturated family: a 9-vertex core plus pendant 3-vertex
paths hung between two hubs, with a 1- or 2-clique attached for n not
divisible by 3.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple

from .graph import MAX_VERTICES, Graph, GraphError
from .saturation import check_saturated

# Core on labels x1 x2 y1 y2 y3 y4 a0 b0 c0; reconstructed from the witness
# paths the family's saturation certificate relies on, then re-certified at
# build time.
_CORE_LABELS = ("x1", "x2", "y1", "y2", "y3", "y4", "a0", "b0", "c0")
_CORE_EDGES = (
    ("x1", "x2"), ("x1", "y1"), ("x1", "y2"), ("x1", "a0"),
    ("x2", "y3"), ("x2", "y4"), ("x2", "c0"),
    ("y1", "y2"), ("y2", "y3"), ("y2", "y4"),
    ("a0", "b0"), ("b0", "c0"),
)


class ConstructionError(GraphError):
    pass


class ConstructionSpec(NamedTuple):
    n: int
    t: int
    epsilon: int
    labels: dict  # name -> vertex id, a bijection onto 0..n-1


@cache
def build_g0() -> Graph:
    """The 9-vertex, 12-edge core, certified C_6-saturated on its first
    build; later calls return the same immutable graph."""
    idx = {name: i for i, name in enumerate(_CORE_LABELS)}
    g = Graph.from_edges(9, [(idx[a], idx[b]) for a, b in _CORE_EDGES])
    if g.edge_count != 12:
        raise ConstructionError("core must have 12 edges")
    if not check_saturated(g, 6).saturated:
        raise ConstructionError("core failed its saturation certificate")
    return g


def build_construction(n: int):
    """The n-vertex family member and its label map.

    Pendant paths a_i-b_i-c_i (i = 1..t-3) attach through edges x1-a_i and
    x2-c_i; for n mod 3 = eps in {1,2} a K_eps is joined completely to y4.
    """
    if n < 9:
        raise ConstructionError("family starts at n = 9")
    if n > MAX_VERTICES:
        raise ConstructionError(f"graphs have at most {MAX_VERTICES} vertices")
    t, eps = divmod(n, 3)
    labels = {name: i for i, name in enumerate(_CORE_LABELS)}
    nid = 9
    edges = [(labels[a], labels[b]) for a, b in _CORE_EDGES]
    for i in range(1, t - 2):
        for name in (f"a{i}", f"b{i}", f"c{i}"):
            labels[name] = nid
            nid += 1
        edges += [
            (labels[f"a{i}"], labels[f"b{i}"]),
            (labels[f"b{i}"], labels[f"c{i}"]),
            (labels["x1"], labels[f"a{i}"]),
            (labels["x2"], labels[f"c{i}"]),
        ]
    for j in range(1, eps + 1):
        labels[f"z{j}"] = nid
        edges.append((labels["y4"], nid))
        nid += 1
    if eps == 2:
        edges.append((labels["z1"], labels["z2"]))
    build_g0()  # certify the core once
    g = Graph.from_edges(n, edges)
    return g, ConstructionSpec(n, t, eps, labels)


def upper_bound_edges(n: int) -> int:
    """Edge count of the family member: (4n - eps)/3 + C(eps, 2)."""
    if n < 9:
        raise ConstructionError("defined for n >= 9")
    eps = n % 3
    return (4 * n - eps) // 3 + (eps * (eps - 1)) // 2


def lower_bound_edges(n: int) -> int:
    """ceil(4n/3) - 2."""
    return -(-4 * n // 3) - 2
