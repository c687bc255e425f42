"""Rank selection via cluster-dispersion measures.

Rows of a factor matrix are hard-clustered by their dominant loading
(argmax over pattern columns). Candidate ranks are then scored with
within-cluster dispersion, between-cluster dispersion, and their
Calinski-Harabasz ratio (Calinski & Harabasz, 1974); the scan recommends
the rank with the highest finite ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DegenerateClusteringError, InvalidRankError, NumericalError, TrafficNmfError
from .ingest import NormalizedMatrix
from .nmf import FactorPair, NmfConfig, factorize

POINTS_FACTOR = "factor"
POINTS_MATRIX = "matrix"


@dataclass(frozen=True)
class ClusterAssignment:
    """Hard cluster labels for the rows of a factor matrix.

    k counts the factor columns; some clusters may be empty when a column
    is never any row's maximum.
    """

    labels: np.ndarray
    k: int
    source: str


@dataclass(frozen=True)
class RankScanEntry:
    rank: int
    within_dispersion: float
    between_dispersion: float
    ch_score: float
    final_loss: float


@dataclass
class RankScanResult:
    """Scan table, recommendation, and each scanned rank's factorization.

    pairs[r] is the FactorPair the scan computed at rank r, identical to
    factorize at cfg.at_rank(r), so callers need not solve it again.
    skipped[r] is why candidate rank r has no entry.
    """

    entries: list[RankScanEntry]
    recommended_rank: int
    points: str
    pairs: dict[int, FactorPair]
    skipped: dict[int, str]

    def entry(self, rank: int) -> RankScanEntry:
        for e in self.entries:
            if e.rank == rank:
                return e
        raise KeyError(f"no scan entry for rank {rank}")


def assign_clusters(factor: np.ndarray, source: str = "location-factor") -> ClusterAssignment:
    """Assign each row to the column index of its maximum loading.

    Ties break toward the lowest column index (np.argmax convention).
    """
    factor = np.asarray(factor)
    if factor.ndim != 2 or factor.shape[1] < 1:
        raise ValueError(f"factor must be a 2-d matrix with >=1 column, got shape {factor.shape}")
    labels = np.argmax(factor, axis=1)
    return ClusterAssignment(labels=labels, k=factor.shape[1], source=source)


def within_dispersion(points: np.ndarray, assignment: ClusterAssignment) -> float:
    """Summed squared distance of every point to its own cluster centroid.

    Trace of the pooled within-cluster scatter matrix. Empty clusters
    contribute zero.
    """
    return _dispersions(points, assignment)[0]


def between_dispersion(points: np.ndarray, assignment: ClusterAssignment) -> float:
    """Size-weighted squared distance of cluster centroids to the global centroid.

    Trace of the between-cluster scatter matrix.
    """
    return _dispersions(points, assignment)[1]


def calinski_harabasz(points: np.ndarray, assignment: ClusterAssignment) -> float:
    """(B / (k - 1)) / (W / (n - k)) with k the number of populated clusters.

    Returns positive infinity when the within-dispersion is exactly zero.
    Raises DegenerateClusteringError for k < 2 or n <= k.
    """
    w, b, k_eff = _dispersions(points, assignment)
    return _ch_score(w, b, k_eff, len(assignment.labels))


def _dispersions(points: np.ndarray, assignment: ClusterAssignment) -> tuple[float, float, int]:
    """Within and between dispersion and the number of populated clusters.

    One pass over the populated clusters, each centroid computed once.
    """
    points = np.asarray(points, dtype=float)
    _check_coverage(points, assignment)
    global_centroid = points.mean(axis=0)
    within = between = 0.0
    k_eff = 0
    for g in range(assignment.k):
        members = points[assignment.labels == g]
        n_g = members.shape[0]
        if n_g == 0:
            continue
        k_eff += 1
        centroid = members.mean(axis=0)
        within += float(((members - centroid) ** 2).sum())
        between += n_g * float(((centroid - global_centroid) ** 2).sum())
    return within, between, k_eff


def _ch_score(w: float, b: float, k_eff: int, n: int) -> float:
    if k_eff < 2:
        raise DegenerateClusteringError(f"need >=2 populated clusters, got {k_eff}")
    if n <= k_eff:
        raise DegenerateClusteringError(f"need more points ({n}) than clusters ({k_eff})")
    if w == 0.0:
        return math.inf
    return (b / (k_eff - 1)) / (w / (n - k_eff))


def rank_scan(
    x: NormalizedMatrix | np.ndarray,
    ranks: Iterable[int],
    cfg: NmfConfig,
    points: str = POINTS_FACTOR,
) -> RankScanResult:
    """Factorize at each candidate rank and score the induced clustering.

    Locations are clustered by their dominant loading. `points` picks the
    point set the dispersions are computed on: the location factor's own
    rows, or the rows of the normalized input matrix for a
    factor-independent comparison.

    Each rank factorizes with `cfg.at_rank(rank)`, so evaluating ranks in
    any order (or in parallel) gives identical results. A rank whose
    factorization fails is skipped; a rank whose clustering is degenerate
    keeps its dispersions but gets a NaN score; the result's `skipped` maps
    each skipped rank to the error's message. The recommendation is the
    rank with the highest finite Calinski-Harabasz score.

    Raises InvalidRankError when no candidate rank is at most min(n, m);
    ranks above it are skipped when some candidate fits.
    """
    if points not in (POINTS_FACTOR, POINTS_MATRIX):
        raise ValueError(f"unknown points mode {points!r}")

    data = x.values if isinstance(x, NormalizedMatrix) else np.asarray(x, dtype=float)
    ranks = list(ranks)
    max_rank = min(data.shape)
    if ranks and min(ranks) > max_rank:
        raise InvalidRankError(
            f"every candidate rank {ranks} exceeds min matrix dimension {max_rank}")
    entries: list[RankScanEntry] = []
    pairs: dict[int, FactorPair] = {}
    skipped: dict[int, str] = {}
    for rank in ranks:
        try:
            pair = factorize(x, cfg.at_rank(rank))
        except TrafficNmfError as e:
            skipped[rank] = str(e)
            continue
        w_d, b_d, k_eff = _dispersions(pair.w if points == POINTS_FACTOR else data,
                                       assign_clusters(pair.w))
        try:
            ch = _ch_score(w_d, b_d, k_eff, data.shape[0])
        except DegenerateClusteringError:
            ch = math.nan
        entries.append(RankScanEntry(
            rank=rank,
            within_dispersion=w_d,
            between_dispersion=b_d,
            ch_score=ch,
            final_loss=pair.objective_trace[-1],
        ))
        pairs[rank] = pair

    if not entries:
        raise NumericalError("every candidate rank failed to factorize")
    return RankScanResult(
        entries=entries,
        recommended_rank=_recommend(entries),
        points=points,
        pairs=pairs,
        skipped=skipped,
    )


def _recommend(entries: list[RankScanEntry]) -> int:
    # Highest finite score wins, lowest rank on ties; fall back to
    # infinite scores (perfectly tight clusters) when nothing is finite.
    best_rank, best_score = None, -math.inf
    for e in sorted(entries, key=lambda e: e.rank):
        if math.isfinite(e.ch_score) and e.ch_score > best_score:
            best_rank, best_score = e.rank, e.ch_score
    if best_rank is not None:
        return best_rank
    for e in sorted(entries, key=lambda e: e.rank):
        if e.ch_score == math.inf:
            return e.rank
    return min(e.rank for e in entries)


def _check_coverage(points: np.ndarray, assignment: ClusterAssignment) -> None:
    if points.shape[0] != assignment.labels.shape[0]:
        raise ValueError(
            f"assignment covers {assignment.labels.shape[0]} rows, "
            f"points has {points.shape[0]}"
        )
    labels = assignment.labels
    if labels.size and (labels.min() < 0 or labels.max() >= assignment.k):
        raise ValueError("label out of range for k")
