"""Spatio-temporal traffic pattern mining via nonnegative matrix factorization.

Pipeline: parse raw vehicle-count records, aggregate into a
location-by-hour matrix, min-max normalize, factorize into nonnegative
location and time loadings, select the rank by cluster-dispersion
scores, and compare the extracted patterns across two periods.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name and the submodule that defines it. A name is imported on
# first use (PEP 562), so `import trafficnmf.cli` loads only the modules its
# command runs, not the synthetic generator, rank selection or patterns.
_HOME = {
    "ColumnMapping": "ingest",
    "ComparisonReport": "patterns",
    "ConfigError": "errors",
    "CountMatrix": "ingest",
    "DataError": "errors",
    "EmptyInputError": "errors",
    "FactorPair": "nmf",
    "HourBinMismatchError": "errors",
    "HourWindow": "ingest",
    "InvalidRankError": "errors",
    "MissingColumnError": "errors",
    "MissingInputError": "errors",
    "NmfConfig": "nmf",
    "NonFiniteError": "errors",
    "NonNegativityError": "errors",
    "NormalizedMatrix": "ingest",
    "NumericalError": "errors",
    "ParseResult": "ingest",
    "PatternMatch": "patterns",
    "PatternSet": "patterns",
    "RankScanResult": "rank",
    "RecordTable": "ingest",
    "SyntheticSpec": "synth",
    "TrafficNmfError": "errors",
    "TrafficRecord": "ingest",
    "ZeroTotalError": "errors",
    "between_dispersion": "rank",
    "build_matrix": "ingest",
    "calinski_harabasz": "rank",
    "compare_periods": "patterns",
    "extract_patterns": "patterns",
    "factorize": "nmf",
    "generate_pair": "synth",
    "generate_period": "synth",
    "match_patterns": "patterns",
    "minmax_normalize": "ingest",
    "normalization_column_scales": "patterns",
    "parse_records": "ingest",
    "rank_scan": "rank",
    "within_dispersion": "rank",
}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
