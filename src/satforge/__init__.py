"""satforge: cycle-saturation toolkit.

Construction of the extremal C_6-saturated family, saturation certificates,
exhaustive minimum searches with canonical dedup, and the exact-arithmetic
two-stage discharging audit behind the edge lower bound.
"""

from .graph import Graph, CyclePath, LevelPartition, from_graph6, to_graph6
from .saturation import SaturationReport, check_saturated, is_saturated_fast
from .construction import build_construction, lower_bound_edges, upper_bound_edges
from .discharging import DischargeAudit, audit
from .search import SearchResult, enumerate_saturated

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
