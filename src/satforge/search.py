"""Exhaustive minimum-saturation search.

Canonical labeling by individualization-refinement with a twin-cell shortcut,
and a levelwise edge-augmentation enumerator: level m holds one canonical
representative per isomorphism class of C_k-free graphs with m edges, built
by augmenting level m-1. Saturation is tested from the best known lower
bound upward, so the first level producing a saturated graph is sat(n, C_k).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

from .graph import Graph, GraphError, has_path, write_graph6_file

MAX_CANON_VERTICES = 16


class SearchError(GraphError):
    pass


class BudgetExhausted(SearchError):
    """Raised internally when a node or time budget runs out mid-level."""


# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------

def _refine(g, cells):
    """Stable equitable refinement of an ordered partition by neighbor-cell
    signatures."""
    while True:
        cell_id = {}
        for i, c in enumerate(cells):
            for v in c:
                cell_id[v] = i
        out = []
        changed = False
        for c in cells:
            if len(c) == 1:
                out.append(c)
                continue
            groups = {}
            for v in c:
                sig = tuple(sorted(cell_id[w] for w in g.neighbors(v)))
                groups.setdefault(sig, []).append(v)
            if len(groups) > 1:
                changed = True
            for key in sorted(groups):
                out.append(groups[key])
        cells = out
        if not changed:
            return cells


def _is_twin_cell(g, cell):
    """All members share one external neighborhood and induce an empty or
    complete graph; any ordering of the cell is then automorphic."""
    mask = 0
    for v in cell:
        mask |= 1 << v
    ext = {g.adj[v] & ~mask for v in cell}
    if len(ext) != 1:
        return False
    inner = [g.adj[v] & mask for v in cell]
    if all(row == 0 for row in inner):
        return True
    return all(row == mask ^ (1 << v) for v, row in zip(cell, inner))


def _leaf_code(g, cells):
    code = 0
    for j in range(1, g.n):
        for i in range(j):
            code <<= 1
            vj = cells[j][0]
            if g.adj[cells[i][0]] >> vj & 1:
                code |= 1
    return code


def _canon_search(g, cells, best):
    cells = _refine(g, cells)
    split_at = -1
    for idx, c in enumerate(cells):
        if len(c) > 1:
            split_at = idx
            break
    if split_at < 0:
        code = _leaf_code(g, cells)
        if best[0] is None or code < best[0]:
            best[0] = code
            best[1] = [c[0] for c in cells]
        return
    cell = cells[split_at]
    if _is_twin_cell(g, cell):
        fixed = [[v] for v in sorted(cell)]
        _canon_search(g, cells[:split_at] + fixed + cells[split_at + 1:], best)
        return
    for v in sorted(cell):
        rest = [w for w in cell if w != v]
        _canon_search(g, cells[:split_at] + [[v], rest] + cells[split_at + 1:], best)


def canonical_form(g: Graph):
    """(code, ordering): `code` is an isomorphism-invariant integer packing of
    the canonical upper triangle, `ordering[i]` the vertex placed at canonical
    position i."""
    if g.n > MAX_CANON_VERTICES:
        raise SearchError(f"canonical labeling bounded to n <= {MAX_CANON_VERTICES}")
    by_degree = {}
    for v in range(g.n):
        by_degree.setdefault(g.degree(v), []).append(v)
    cells = [by_degree[d] for d in sorted(by_degree)]
    best = [None, None]
    _canon_search(g, cells, best)
    return best[0], best[1]


def canonical_key(g: Graph):
    code, _ = canonical_form(g)
    return (g.n, code)


def canonical_graph(g: Graph) -> Graph:
    """The canonically relabeled copy; equal across an isomorphism class."""
    _, ordering = canonical_form(g)
    perm = [0] * g.n
    for i, v in enumerate(ordering):
        perm[v] = i
    return g.relabel(perm)


def are_isomorphic(a: Graph, b: Graph) -> bool:
    if a.n != b.n or a.edge_count != b.edge_count:
        return False
    return canonical_key(a) == canonical_key(b)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def saturation_lower_bound(n: int, k: int) -> int:
    """Best known edge lower bound for a C_k-saturated graph (connectivity
    gives n-1; the 6-cycle case has a sharper count for n >= 9)."""
    bound = n - 1
    if k == 6 and n >= 9:
        bound = max(bound, -(-7 * n // 6) - 2)
    return bound


@dataclass
class SearchResult:
    n: int
    k: int
    min_edges: int | None
    graphs: list = field(default_factory=list)  # canonical representatives
    status: str = "complete"  # "complete" | "budget-exhausted" | "not-found"
    nodes: int = 0
    elapsed: float = 0.0
    level_sizes: dict = field(default_factory=dict)  # m -> class count

    @property
    def found(self):
        return self.min_edges is not None


class _Budget:
    def __init__(self, nodes, secs):
        self.nodes_left = nodes
        self.deadline = time.monotonic() + secs if secs is not None else None
        self.spent = 0

    def tick(self):
        self.spent += 1
        if self.nodes_left is not None:
            self.nodes_left -= 1
            if self.nodes_left < 0:
                raise BudgetExhausted("node budget exhausted")
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise BudgetExhausted("time budget exhausted")


def _next_level(level, k, budget):
    """Augment every representative by one C_k-preserving edge; dedup by
    canonical key."""
    out = {}
    for g in level.values():
        for u, v in g.non_edges():
            budget.tick()
            if k <= g.n and has_path(g, u, v, k - 1):
                continue  # the new edge would close a k-cycle
            child = g.with_edge(u, v)
            key = canonical_key(child)
            if key not in out:
                out[key] = child
    return out


def enumerate_saturated(n: int, k: int, max_edges=None,
                        budget_nodes=None, budget_secs=None) -> SearchResult:
    """All minimum C_k-saturated graphs on n vertices, up to isomorphism.

    Runs the levelwise enumeration until the first edge count that admits a
    saturated graph, finishing that level so the class list is complete.
    """
    from .saturation import is_saturated_fast

    if n < 1 or k < 3:
        raise SearchError("need n >= 1 and k >= 3")
    if max_edges is None:
        max_edges = n * (n - 1) // 2
    start = time.monotonic()
    budget = _Budget(budget_nodes, budget_secs)
    result = SearchResult(n, k, None)
    m_low = saturation_lower_bound(n, k)
    level = {canonical_key(Graph(n, [0] * n)): Graph(n, [0] * n)}
    result.level_sizes[0] = 1
    try:
        if n * (n - 1) // 2 == 0 and is_saturated_fast(Graph(n, [0] * n), k):
            result.min_edges = 0
            result.graphs = list(level.values())
        m = 0
        while result.min_edges is None and m < max_edges:
            m += 1
            level = _next_level(level, k, budget)
            result.level_sizes[m] = len(level)
            if not level:
                result.status = "not-found"
                break
            if m >= m_low:
                hits = [g for g in level.values() if is_saturated_fast(g, k)]
                if hits:
                    result.min_edges = m
                    result.graphs = [canonical_graph(g) for g in hits]
        if result.min_edges is None and result.status == "complete":
            result.status = "not-found"
    except BudgetExhausted:
        result.status = "budget-exhausted"
    result.nodes = budget.spent
    result.elapsed = time.monotonic() - start
    return result


def min_saturated_edges(n: int, k: int, **kw) -> int:
    res = enumerate_saturated(n, k, **kw)
    if res.status != "complete" or res.min_edges is None:
        raise SearchError(f"search incomplete for n={n}, k={k}: {res.status}")
    return res.min_edges


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def save_result(result: SearchResult, outdir) -> Path:
    """Write the minimum graphs as sat_{n}_{k}.g6 under `outdir`."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / f"sat_{result.n}_{result.k}.g6"
    write_graph6_file(path, result.graphs)
    return path


def summary_table(results) -> str:
    lines = [f"{'n':>4} {'k':>3} {'sat':>5} {'classes':>8} {'status':>18} {'nodes':>10}"]
    for r in results:
        sat = r.min_edges if r.min_edges is not None else "-"
        lines.append(
            f"{r.n:>4} {r.k:>3} {sat!s:>5} {len(r.graphs):>8} "
            f"{r.status:>18} {r.nodes:>10}"
        )
    return "\n".join(lines)
