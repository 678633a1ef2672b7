"""The benchmark's three workloads and the oracle that checks each output.

A workload holds seeded inputs (``items``), the timed call into satforge
(``op``), an oracle (``check``, run outside the timing) and the exact counts
it adds to the traced run (``tally``).  The program only ever sees
graph6 records or ``(n, k)`` arguments.

* ``search``: one full ``enumerate_saturated(9, 6)``.  Most of its time is
  canonical labeling, ``Graph`` construction in ``with_edge`` and the
  C_6-rejection ``has_path``; it never builds witnesses or discharges, so it
  isolates the search layer.  Its input does not depend on the seed.
* ``certify``: ``check_saturated(g, 6)`` on the family for n = 9..64, 300
  graphs of the random C_6-saturation process (n = 9..24) and 200 inputs
  derived from them, each decoded inside the timed call.  Most of its time is
  witness-building ``find_path``; it covers all three verdicts.
* ``audit``: ``discharging.audit(g)`` on the 356 saturated records of
  ``certify``.  The same graph and kernel layers are used for existence
  scans, exact ``Fraction`` stages and ``theta_classes``, and all three audit
  branches are reached.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

import gen

K = 6
WARMUP = 10  # untimed calls before measuring

# (n, k) -> (min_edges, number of extremal classes, classes per edge count).
# The n = 9 row is sat(9, C_6) = 12 with five extremal classes; the n = 6 row
# (smoke scale only) was recorded from the package's own search.
SEARCH_EXPECT = {
    (9, 6): (12, 5, {0: 1, 1: 1, 2: 2, 3: 5, 4: 11, 5: 25, 6: 62, 7: 144,
                     8: 321, 9: 650, 10: 1115, 11: 1457, 12: 1329}),
    (6, 6): (9, 1, {0: 1, 1: 1, 2: 2, 3: 5, 4: 9, 5: 15, 6: 20, 7: 22,
                    8: 18, 9: 10}),
}

# Input sizes per scale: search (n, k); family range; random graphs, their
# vertex range and the number of derived inputs.
SCALES = {
    "full": {"search": (9, 6), "family": range(9, 65), "random": 300,
             "random_n": (9, 24), "derived": 200},
    "smoke": {"search": (6, 6), "family": range(9, 12), "random": 6,
              "random_n": (9, 12), "derived": 4},
}


def make_records(seed: int, scale: str = "full") -> list:
    """(graph6 record, expected verdict) pairs: family, random, derived."""
    size = SCALES[scale]
    rng = random.Random(seed)
    family = [gen.family_member(n) for n in size["family"]]
    # vertex counts cycle through the range, so only structure is random
    lo, hi = size["random_n"]
    randoms = [gen.random_saturated(rng, lo + i % (hi - lo + 1))
               for i in range(size["random"])]
    derived = gen.derive(rng, randoms, size["derived"])
    records = [(gen.to_graph6(adj), "saturated") for adj in family + randoms]
    records += [(gen.to_graph6(adj), verdict) for adj, verdict in derived]
    return records


class Search:
    name = "search"

    def __init__(self, sf, seed, scale):
        self.sf = sf
        self.items = [SCALES[scale]["search"]]
        self.warmup = [SCALES["smoke"]["search"]]
        self.expect = SEARCH_EXPECT[self.items[0]]
        self.graphs_per_op = sum(v for m, v in self.expect[2].items() if m > 0)

    def op(self, item):
        return self.sf.search.enumerate_saturated(*item)

    def check(self, item, res):
        k = item[1]
        min_edges, classes, levels = self.expect
        if res.status != "complete":
            return f"search status {res.status}"
        if res.min_edges != min_edges or len(res.graphs) != classes:
            return f"found {len(res.graphs)} classes at {res.min_edges} edges"
        if dict(res.level_sizes) != levels:
            return f"level sizes {dict(res.level_sizes)}"
        for g in res.graphs:
            if g.edge_count != min_edges or not _saturated(list(g.adj), k):
                return f"returned graph {self.sf.graph.to_graph6(g)} is not a minimum saturated graph"
        return None

    def tally(self, res, counts):
        counts["nodes"] += res.nodes
        counts["classes"] += sum(v for m, v in res.level_sizes.items() if m > 0)


class Certify:
    name = "certify"
    graphs_per_op = 1

    def __init__(self, sf, seed, scale):
        self.sf = sf
        self.items = make_records(seed, scale)
        self.warmup = self.items[:WARMUP]
        # record -> digest of a report that passed the full oracle; a repeated
        # identical report is then accepted without validating G+uv again
        self._verified = {}

    def op(self, item):
        return self.sf.saturation.check_saturated(self.sf.graph.from_graph6(item[0]), K)

    def check(self, item, rep):
        record, expected = item
        digest = hashlib.blake2b(repr(rep).encode(), digest_size=16).digest()
        if self._verified.get(record) == digest:
            return None
        reason = self._full_check(record, expected, rep)
        if reason is None:
            self._verified[record] = digest
        return reason

    def _full_check(self, record, expected, rep):
        g = self.sf.graph.from_graph6(record)
        if rep.verdict != expected:
            return f"{record}: verdict {rep.verdict}, expected {expected}"
        if (rep.verdict == "saturated") != self.sf.saturation.is_saturated_fast(g, K):
            return f"{record}: verdict {rep.verdict} disagrees with is_saturated_fast"
        if rep.verdict == "not-free":
            cyc = rep.free_violation
            if cyc.kind != "cycle" or cyc.length != K:
                return f"{record}: violation {cyc} is not a {K}-cycle"
            return _validates(cyc, g, record)
        non_edges = set(g.non_edges())
        if not set(rep.witnesses) <= non_edges:
            return f"{record}: witness for an edge"
        if rep.verdict == "saturated" and len(rep.witnesses) != len(non_edges):
            return f"{record}: saturated with {len(non_edges) - len(rep.witnesses)} missing witnesses"
        if rep.verdict == "missing-witness" and (
                rep.missing not in non_edges or rep.missing in rep.witnesses):
            return f"{record}: bad missing pair {rep.missing}"
        for (u, v), cyc in rep.witnesses.items():
            if cyc.length != K or {cyc.vertices[0], cyc.vertices[-1]} != {u, v}:
                return f"{record}: witness {cyc.vertices} does not close {u}-{v}"
            reason = _validates(cyc, g.with_edge(u, v), record)
            if reason:
                return reason
        return None

    def tally(self, rep, counts):
        counts[rep.verdict] += 1


BRANCH_KEYS = {"full": "full", "no-good-root": "no_good_root", "delta>=3": "delta_ge3"}


class Audit:
    name = "audit"
    graphs_per_op = 1

    def __init__(self, sf, seed, scale):
        self.sf = sf
        self.items = [r for r in make_records(seed, scale) if r[1] == "saturated"]
        self.warmup = self.items[:WARMUP]

    def op(self, item):
        return self.sf.discharging.audit(self.sf.graph.from_graph6(item[0]))

    def check(self, item, a):
        record = item[0]
        if a.branch not in BRANCH_KEYS:
            return f"{record}: unexpected branch {a.branch}"
        if 3 * a.edges < 4 * a.n - 6 or not a.final_bound_ok:
            return f"{record}: final bound e >= 4n/3 - 2 fails (n={a.n}, e={a.edges})"
        if a.branch != "full":
            return None
        led = a.ledger
        g = led.stages["g"]
        if sum(g.values(), Fraction(0)) + Fraction(4, 3) * a.n != a.edges:
            return f"{record}: charge identity fails"
        v1 = led.partition.levels[0]
        want = Fraction(-5, 3) if led.graph.min_degree() == 1 else Fraction(-2)
        if sum((g[v] for v in v1), Fraction(0)) != want:
            return f"{record}: V_1 charge sum is not {want}"
        outer = {s: sum((c for v, c in led.stages[s].items() if v not in v1), Fraction(0))
                 for s in ("g", "g5", "f7")}
        if outer["g5"] != outer["g"] or outer["f7"] != outer["g"]:
            return f"{record}: charge not conserved outside V_1"
        return None

    def tally(self, a, counts):
        counts["audits"] += 1
        counts["branch_" + BRANCH_KEYS[a.branch]] += 1
        # audits carrying a failed check, e.g. the weak conditional bound:
        # counted, not treated as a benchmark failure
        counts["flagged"] += bool(a.failures)


WORKLOADS = {w.name: w for w in (Search, Certify, Audit)}


def _validates(cyc, host, record):
    try:
        cyc.validate(host)
    except ValueError as exc:
        return f"{record}: {cyc.vertices} does not validate: {exc}"
    return None


def _saturated(adj, k):
    """Independent C_k-saturation test on neighbour bitmasks."""
    n = len(adj)
    for u in range(n):
        for v in range(u + 1, n):
            if adj[u] >> v & 1:
                cut = gen.toggled(adj, u, v)
                if gen.has_path(cut, u, v, k - 1):
                    return False  # edge uv lies on a k-cycle
            elif not gen.has_path(adj, u, v, k - 1):
                return False
    return True
