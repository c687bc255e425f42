"""Spatio-temporal traffic pattern mining via nonnegative matrix factorization.

Pipeline: parse raw vehicle-count records, aggregate into a
location-by-hour matrix, min-max normalize, factorize into nonnegative
location and time loadings, select the rank by cluster-dispersion
scores, and compare the extracted patterns across two periods.
"""

from .errors import (
    ConfigError,
    DataError,
    DegenerateClusteringError,
    EmptyInputError,
    HourBinMismatchError,
    InvalidRankError,
    MissingColumnError,
    MissingInputError,
    MixedPeriodsError,
    NonFiniteError,
    NonNegativityError,
    NumericalError,
    ShapeMismatchError,
    TrafficNmfError,
    ZeroTotalError,
)
from .ingest import (
    ColumnMapping,
    CountMatrix,
    HourWindow,
    NormalizedMatrix,
    ParseResult,
    RecordTable,
    TrafficRecord,
    build_matrix,
    minmax_normalize,
    parse_records,
)
from .nmf import FactorPair, NmfConfig, factorize, reconstruction_error
from .patterns import (
    ComparisonReport,
    PatternMatch,
    PatternSet,
    compare_periods,
    extract_patterns,
    match_patterns,
    normalization_column_scales,
)
from .rank import (
    ClusterAssignment,
    RankScanResult,
    assign_clusters,
    between_dispersion,
    calinski_harabasz,
    rank_scan,
    within_dispersion,
)
from .synth import SyntheticSpec, generate_pair, generate_period

__version__ = "0.1.0"

__all__ = [
    "ColumnMapping",
    "ClusterAssignment",
    "ComparisonReport",
    "ConfigError",
    "CountMatrix",
    "DataError",
    "DegenerateClusteringError",
    "EmptyInputError",
    "FactorPair",
    "HourBinMismatchError",
    "HourWindow",
    "InvalidRankError",
    "MissingColumnError",
    "MissingInputError",
    "MixedPeriodsError",
    "NmfConfig",
    "NonFiniteError",
    "NonNegativityError",
    "NormalizedMatrix",
    "NumericalError",
    "ParseResult",
    "PatternMatch",
    "PatternSet",
    "RankScanResult",
    "RecordTable",
    "ShapeMismatchError",
    "SyntheticSpec",
    "TrafficNmfError",
    "TrafficRecord",
    "ZeroTotalError",
    "assign_clusters",
    "between_dispersion",
    "build_matrix",
    "calinski_harabasz",
    "compare_periods",
    "extract_patterns",
    "factorize",
    "generate_pair",
    "generate_period",
    "match_patterns",
    "minmax_normalize",
    "normalization_column_scales",
    "parse_records",
    "rank_scan",
    "reconstruction_error",
    "within_dispersion",
]
