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
    """Patterns of one period: temporal curves and spatial loadings, with
    the count matrix they were extracted from, which gives the hours,
    locations, period label and raw total.

    Temporal columns are rescaled to unit maximum for display and
    matching; the scale divided out of each column is recorded in
    column_norms and multiplied into the spatial column, so the
    factorization product is unchanged.
    """

    temporal: np.ndarray
    spatial: np.ndarray
    matrix: CountMatrix
    column_norms: np.ndarray

    @property
    def rank(self) -> int:
        return self.temporal.shape[1]

    def reconstruct(self) -> np.ndarray:
        return self.spatial @ self.temporal.T

    def peak_hour(self, pattern: int) -> int:
        return self.matrix.hours[int(np.argmax(self.temporal[:, pattern]))]

    def dominant_patterns(self) -> np.ndarray:
        """The pattern each location loads most strongly on."""
        return np.argmax(self.spatial, axis=1)

    def dominant_location_counts(self) -> list[int]:
        """How many locations load most strongly on each pattern."""
        return np.bincount(self.dominant_patterns(), minlength=self.rank).tolist()


@dataclass
class PatternMatch:
    """Greedy pairing of two periods' patterns by temporal cosine similarity."""

    pairs: list[tuple[int, int, float]]
    unmatched_a: list[int]
    unmatched_b: list[int]
    threshold: float


@dataclass
class ComparisonReport:
    """Cross-period variation summary built from raw counts and matched patterns."""

    set_a: PatternSet
    set_b: PatternSet
    match: PatternMatch
    total_reduction_pct: float


def normalization_column_scales(x: NormalizedMatrix) -> np.ndarray:
    """Per-hour scale (max - min) stored by min-max normalization.

    Constant columns get scale 1 so they pass through unchanged.
    """
    return x.scale


def extract_patterns(pair: FactorPair, x: NormalizedMatrix) -> PatternSet:
    """Turn the factor pair of normalized matrix x into the pattern set of
    x's count matrix.

    Temporal curves are multiplied by x's per-hour normalization scales,
    which expresses them in vehicle-count units and makes them comparable
    across periods whose hour columns were normalized with different
    ranges. Each temporal column is then divided by its maximum and the
    spatial column multiplied by it, preserving the factor product exactly.
    All-zero temporal columns keep scale 1 and stay zero.
    """
    matrix = x.source
    if pair.h.shape[0] != len(matrix.hours) or pair.w.shape[0] != len(matrix.locations):
        raise ValueError(
            f"factor shapes ({pair.w.shape}, {pair.h.shape}) do not match "
            f"matrix labels ({len(matrix.locations)} locations, {len(matrix.hours)} hours)"
        )
    h = pair.h * x.scale[:, None]
    peaks = h.max(axis=0)
    scales = np.where(peaks > 0, peaks, 1.0)
    return PatternSet(temporal=h / scales, spatial=pair.w * scales, matrix=matrix,
                      column_norms=scales)


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
    if a.matrix.hours != b.matrix.hours:
        raise HourBinMismatchError(f"hour bins differ: {a.matrix.hours} vs {b.matrix.hours}")
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


def compare_periods(set_a: PatternSet, set_b: PatternSet, match: PatternMatch) -> ComparisonReport:
    """Quantify how traffic changed from period A to period B.

    The aggregate reduction always comes from the raw count totals of the
    sets' matrices, never from normalized values.
    """
    total_a = set_a.matrix.total()
    if total_a == 0:
        raise ZeroTotalError("period A has zero total count; reduction undefined")
    reduction = 100.0 * (total_a - set_b.matrix.total()) / total_a
    return ComparisonReport(set_a=set_a, set_b=set_b, match=match, total_reduction_pct=reduction)
