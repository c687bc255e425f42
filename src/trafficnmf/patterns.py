"""Extract temporal/spatial patterns from factors and compare two periods.

A pattern is one factor column: an intensity curve over hour bins
(temporal) paired with per-location loadings (spatial). Patterns from two
periods are matched greedily by cosine similarity of their temporal
curves; an earlier-period pattern with no counterpart above the threshold
counts as disappeared.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import HourBinMismatchError, ZeroTotalError
from .ingest import CountMatrix, NormalizedMatrix
from .nmf import DEFAULT_MATCH_THRESHOLD, FactorPair


@dataclass
class PatternSet:
    """Patterns of one period: temporal curves, spatial loadings, labels.

    Temporal columns are rescaled to unit maximum for display and
    matching; the scale divided out of each column is recorded in
    column_norms and multiplied into the spatial column, so the
    factorization product is unchanged.
    """

    temporal: np.ndarray
    spatial: np.ndarray
    hours: list[int]
    locations: list[tuple[str, float, float]]
    period_label: str
    column_norms: np.ndarray

    @property
    def rank(self) -> int:
        return self.temporal.shape[1]

    def reconstruct(self) -> np.ndarray:
        return self.spatial @ self.temporal.T

    def peak_hour(self, pattern: int) -> int:
        return self.hours[int(np.argmax(self.temporal[:, pattern]))]

    def dominant_location_counts(self) -> list[int]:
        """How many locations load most strongly on each pattern."""
        dominant = np.argmax(self.spatial, axis=1)
        return [int((dominant == g).sum()) for g in range(self.rank)]


@dataclass
class PatternMatch:
    """Greedy pairing of two periods' patterns by temporal cosine similarity."""

    pairs: list[tuple[int, int, float]]
    unmatched_a: list[int]
    unmatched_b: list[int]
    threshold: float


@dataclass(frozen=True)
class PatternNote:
    """Per matched pair: similarity and where the daily peak moved."""

    pattern_a: int
    pattern_b: int
    similarity: float
    peak_hour_a: int
    peak_hour_b: int
    peak_shift: int


@dataclass
class ComparisonReport:
    """Cross-period variation summary built from raw counts and matched patterns."""

    match: PatternMatch
    total_a: float
    total_b: float
    total_reduction_pct: float
    per_pattern_notes: list[PatternNote]
    period_a: str
    period_b: str
    dominant_counts_a: list[int]
    dominant_counts_b: list[int]


def normalization_column_scales(x: NormalizedMatrix) -> np.ndarray:
    """Per-hour scale (max - min) stored by min-max normalization.

    Constant columns get scale 1 so they pass through unchanged.
    """
    return x.scale


def extract_patterns(
    pair: FactorPair,
    matrix: CountMatrix,
    column_scale: np.ndarray | None = None,
) -> PatternSet:
    """Turn a factor pair into a labeled pattern set.

    When the factors come from a normalized matrix, pass the per-hour
    normalization scales (normalization_column_scales) as column_scale:
    temporal curves are then expressed in vehicle-count units, which makes
    them comparable across periods whose hour columns were normalized with
    different ranges.

    Each temporal column is then divided by its maximum and the spatial
    column multiplied by it, preserving the factor product exactly.
    All-zero temporal columns keep scale 1 and stay zero.
    """
    if pair.h.shape[0] != len(matrix.hours) or pair.w.shape[0] != len(matrix.locations):
        raise ValueError(
            f"factor shapes ({pair.w.shape}, {pair.h.shape}) do not match "
            f"matrix labels ({len(matrix.locations)} locations, {len(matrix.hours)} hours)"
        )
    h = pair.h
    if column_scale is not None:
        h = h * np.asarray(column_scale, dtype=float)[:, None]
    peaks = h.max(axis=0)
    scales = np.where(peaks > 0, peaks, 1.0)
    temporal = h / scales
    spatial = pair.w * scales
    return PatternSet(
        temporal=temporal,
        spatial=spatial,
        hours=list(matrix.hours),
        locations=list(matrix.locations),
        period_label=matrix.period_label,
        column_norms=scales,
    )


def cosine_similarity_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise cosine similarity of the columns of a and b.

    Zero columns get similarity 0 against everything.
    """
    a_norm = np.linalg.norm(a, axis=0)
    b_norm = np.linalg.norm(b, axis=0)
    sims = a.T @ b
    denom = np.outer(a_norm, b_norm)
    with np.errstate(invalid="ignore", divide="ignore"):
        sims = np.where(denom > 0, sims / np.where(denom > 0, denom, 1.0), 0.0)
    return np.clip(sims, -1.0, 1.0)


def match_patterns(
    a: PatternSet,
    b: PatternSet,
    threshold: float = DEFAULT_MATCH_THRESHOLD,
) -> PatternMatch:
    """Greedily pair patterns across periods by temporal cosine similarity.

    All cross pairs are visited in order of descending similarity (ties by
    lowest a-index, then b-index); a pair is accepted if both patterns are
    still free and the similarity clears the threshold. Spatial loadings
    never drive the matching: the two periods may cover different
    location sets.
    """
    if a.hours != b.hours:
        raise HourBinMismatchError(f"hour bins differ: {a.hours} vs {b.hours}")
    if not (0.0 <= threshold <= 1.0):
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")

    sims = cosine_similarity_matrix(a.temporal, b.temporal)
    candidates = sorted(
        ((i, j) for i in range(a.rank) for j in range(b.rank)),
        key=lambda ij: (-sims[ij[0], ij[1]], ij[0], ij[1]),
    )
    used_a: set[int] = set()
    used_b: set[int] = set()
    pairs: list[tuple[int, int, float]] = []
    for i, j in candidates:
        if i in used_a or j in used_b:
            continue
        if sims[i, j] < threshold:
            break
        pairs.append((i, j, float(sims[i, j])))
        used_a.add(i)
        used_b.add(j)

    pairs.sort(key=lambda p: p[0])
    return PatternMatch(
        pairs=pairs,
        unmatched_a=[i for i in range(a.rank) if i not in used_a],
        unmatched_b=[j for j in range(b.rank) if j not in used_b],
        threshold=threshold,
    )


def compare_periods(
    raw_a: CountMatrix,
    raw_b: CountMatrix,
    match: PatternMatch,
    set_a: PatternSet,
    set_b: PatternSet,
) -> ComparisonReport:
    """Quantify how traffic changed from period A to period B.

    The aggregate reduction always comes from raw count totals, never
    from normalized values. Matched pairs are annotated with their
    similarity and peak-hour shift.
    """
    total_a = raw_a.total()
    total_b = raw_b.total()
    if total_a == 0:
        raise ZeroTotalError("period A has zero total count; reduction undefined")
    reduction = 100.0 * (total_a - total_b) / total_a

    notes = [
        PatternNote(
            pattern_a=i,
            pattern_b=j,
            similarity=sim,
            peak_hour_a=set_a.peak_hour(i),
            peak_hour_b=set_b.peak_hour(j),
            peak_shift=set_b.peak_hour(j) - set_a.peak_hour(i),
        )
        for i, j, sim in match.pairs
    ]
    return ComparisonReport(
        match=match,
        total_a=total_a,
        total_b=total_b,
        total_reduction_pct=reduction,
        per_pattern_notes=notes,
        period_a=set_a.period_label,
        period_b=set_b.period_label,
        dominant_counts_a=set_a.dominant_location_counts(),
        dominant_counts_b=set_b.dominant_location_counts(),
    )
