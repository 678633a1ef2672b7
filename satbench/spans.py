"""In-memory span tracer for the benchmark's traced run.

The tracer wraps satforge's public functions at layer boundaries from the
outside: each wrapper replaces a name where the calling module resolves it
(``search.canonical_form``, ``kernels.has_path``, the ``Graph.with_edge``
method, ...), so the package itself is unchanged.  Every wrapped call records
one span (layer name, start, end, parent span); self time is a span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

# (module, attribute, layer name, count truthy results): one row per place a
# layer is entered.  ``graph.find_path`` is entered both from saturation and
# from graph.contains_cycle, so it is wrapped in both namespaces.
BOUNDARIES = (
    ("search", "canonical_form", "search.canonical_form", False),
    ("graph", "Graph.with_edge", "graph.with_edge", False),
    ("graph", "from_graph6", "graph.from_graph6", False),
    ("graph", "find_path", "graph.find_path", False),
    ("saturation", "find_path", "graph.find_path", False),
    ("saturation", "contains_cycle", "graph.contains_cycle", False),
    ("saturation", "paths_between", "graph.paths_between", False),
    ("discharging", "bfs_levels", "graph.bfs_levels", False),
    ("kernels", "has_path", "kernels.has_path", True),
    ("kernels", "has_cycle", "kernels.has_cycle", False),
    ("kernels", "saturation_scan", "kernels.saturation_scan", False),
    ("saturation", "check_saturated", "saturation.check_saturated", False),
    ("discharging", "theta_classes", "saturation.theta_classes", False),
    ("discharging", "reduce_t2", "saturation.reduce_t2", False),
    ("discharging", "choose_root", "discharging.choose_root", False),
    ("discharging", "initial_charge", "discharging.initial_charge", False),
    ("discharging", "stage_one", "discharging.stage_one", False),
    ("discharging", "stage_two", "discharging.stage_two", False),
    ("discharging", "audit", "discharging.audit", False),
)


class Tracer:
    """Spans of one traced pass, kept in flat arrays.  Wrapped calls made
    while ``on`` is false (the benchmark's own checks) record nothing."""

    def __init__(self):
        self.on = False
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.hits = {}
        self._open = [-1]

    def wrap(self, layer, fn, count_hits=False):
        nid = self._ids.setdefault(layer, len(self._ids))
        if nid == len(self.names):
            self.names.append(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            i = len(self.name)
            self.name.append(nid)
            self.parent.append(self._open[-1])
            self.start.append(0.0)
            self.end.append(0.0)
            self._open.append(i)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._open.pop()
                self.start[i] = t0
                self.end[i] = t1
            if count_hits and out:
                self.hits[layer] = self.hits.get(layer, 0) + 1
            return out

        return traced

    @contextmanager
    def installed(self, package):
        """Wrap every boundary of `package` for the duration of the block."""
        saved = []
        try:
            for module, attr, layer, count_hits in BOUNDARIES:
                owner = getattr(package, module)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                fn = getattr(owner, leaf, None)
                if fn is None:
                    print(f"satbench: {module}.{attr} not found; layer "
                          f"{layer} is not traced there", file=sys.stderr)
                    continue
                saved.append((owner, leaf, fn))
                setattr(owner, leaf, self.wrap(layer, fn, count_hits))
            yield self
        finally:
            for owner, leaf, fn in reversed(saved):
                setattr(owner, leaf, fn)

    def layers(self):
        """layer -> {"calls", "self_s", "hits"} over every recorded span."""
        cover = [0.0] * len(self.name)
        for i, p in enumerate(self.parent):
            if p >= 0:
                cover[p] += self.end[i] - self.start[i]
        out = {layer: {"calls": 0, "self_s": 0.0, "hits": self.hits.get(layer, 0)}
               for layer in self.names}
        for i, nid in enumerate(self.name):
            row = out[self.names[nid]]
            row["calls"] += 1
            row["self_s"] += self.end[i] - self.start[i] - cover[i]
        return out

    def spans(self):
        """Rows of (layer, start, end, parent index), in call order."""
        return {"layers": self.names,
                "columns": ["layer", "start_s", "end_s", "parent"],
                "rows": [[self.name[i], self.start[i], self.end[i], self.parent[i]]
                         for i in range(len(self.name))]}
