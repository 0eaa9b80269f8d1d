"""Block-aware sparse graph ranking with a decidable no-teleportation mode.

Builds a factored block-proximity operator over a directed graph, decides
from a small block indicator matrix whether ranking without uniform
teleportation is well-defined, and computes ranking vectors by sparse
power iteration.
"""

from .decomp import (
    DecompKind,
    Decomposition,
    FactorForm,
    IndicatorMatrix,
    ProximityFactors,
    build_factors,
    indicator,
    materialize_m,
    parse_blocks,
)
from .errors import (
    BlockRankError,
    CapExceededError,
    ConfigurationError,
    ConvergenceError,
    CoverageError,
    DimensionError,
    ParseError,
    ReducibleModelError,
)
from .graph import (
    DanglingPolicy,
    Graph,
    HyperlinkOperator,
    build_hyperlink,
    hyperlink_apply,
    parse_edge_list,
)
from .ranker import (
    ComparisonReport,
    RankParams,
    RankResult,
    compare,
    pagerank,
    rank,
)
from .spectra import (
    CheckReport,
    dense_stationary,
    is_irreducible,
    is_primitive,
    teleportation_free_check,
)

__version__ = "0.1.0"

__all__ = [
    "BlockRankError",
    "CapExceededError",
    "CheckReport",
    "ComparisonReport",
    "ConfigurationError",
    "ConvergenceError",
    "CoverageError",
    "DanglingPolicy",
    "DecompKind",
    "Decomposition",
    "DimensionError",
    "FactorForm",
    "Graph",
    "HyperlinkOperator",
    "IndicatorMatrix",
    "ParseError",
    "ProximityFactors",
    "RankParams",
    "RankResult",
    "ReducibleModelError",
    "build_factors",
    "build_hyperlink",
    "compare",
    "dense_stationary",
    "hyperlink_apply",
    "indicator",
    "is_irreducible",
    "is_primitive",
    "materialize_m",
    "pagerank",
    "parse_blocks",
    "parse_edge_list",
    "rank",
    "teleportation_free_check",
]
