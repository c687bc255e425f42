"""Rank selection via cluster-dispersion measures.

Rows of a factor matrix are hard-clustered by their dominant loading
(argmax over pattern columns). Candidate ranks are then scored with
within-cluster dispersion, between-cluster dispersion, and their
Calinski-Harabasz ratio (Calinski & Harabasz, 1974); the scan recommends
the rank with the highest finite ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from .errors import DegenerateClusteringError, InvalidRankError, NumericalError, TrafficNmfError
from .ingest import NormalizedMatrix
from .nmf import FactorPair, NmfConfig, factorize

TARGET_LOCATION = "location-factor"
TARGET_TIME = "time-factor"

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

    def populated(self) -> int:
        return len(np.unique(self.labels))


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
    factorize at seed cfg.seed + r, so callers need not solve it again.
    """

    entries: list[RankScanEntry]
    recommended_rank: int
    target: str
    points: str
    pairs: dict[int, FactorPair]

    def entry(self, rank: int) -> RankScanEntry:
        for e in self.entries:
            if e.rank == rank:
                return e
        raise KeyError(f"no scan entry for rank {rank}")


def assign_clusters(factor: np.ndarray, source: str = TARGET_LOCATION) -> ClusterAssignment:
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
    points = np.asarray(points, dtype=float)
    _check_coverage(points, assignment)
    total = 0.0
    for g in range(assignment.k):
        members = points[assignment.labels == g]
        if members.shape[0] == 0:
            continue
        centroid = members.mean(axis=0)
        total += float(((members - centroid) ** 2).sum())
    return total


def between_dispersion(points: np.ndarray, assignment: ClusterAssignment) -> float:
    """Size-weighted squared distance of cluster centroids to the global centroid.

    Trace of the between-cluster scatter matrix.
    """
    points = np.asarray(points, dtype=float)
    _check_coverage(points, assignment)
    global_centroid = points.mean(axis=0)
    total = 0.0
    for g in range(assignment.k):
        members = points[assignment.labels == g]
        n_g = members.shape[0]
        if n_g == 0:
            continue
        centroid = members.mean(axis=0)
        total += n_g * float(((centroid - global_centroid) ** 2).sum())
    return total


def calinski_harabasz(points: np.ndarray, assignment: ClusterAssignment) -> float:
    """(B / (k - 1)) / (W / (n - k)) with k the number of populated clusters.

    Returns positive infinity when the within-dispersion is exactly zero.
    Raises DegenerateClusteringError for k < 2 or n <= k.
    """
    points = np.asarray(points, dtype=float)
    _check_coverage(points, assignment)
    n = points.shape[0]
    k_eff = assignment.populated()
    if k_eff < 2:
        raise DegenerateClusteringError(f"need >=2 populated clusters, got {k_eff}")
    if n <= k_eff:
        raise DegenerateClusteringError(f"need more points ({n}) than clusters ({k_eff})")
    w = within_dispersion(points, assignment)
    b = between_dispersion(points, assignment)
    if w == 0.0:
        return math.inf
    return (b / (k_eff - 1)) / (w / (n - k_eff))


def rank_scan(
    x: NormalizedMatrix | np.ndarray,
    ranks: Iterable[int],
    cfg: NmfConfig,
    target: str = TARGET_LOCATION,
    points: str = POINTS_FACTOR,
) -> RankScanResult:
    """Factorize at each candidate rank and score the induced clustering.

    `target` picks which factor's rows are clustered (location loadings by
    default). `points` picks the point set the dispersions are computed
    on: the clustered factor's own rows, or the corresponding rows of the
    normalized input matrix for a factor-independent comparison.

    Each rank factorizes with seed `cfg.seed + rank`, so evaluating ranks
    in any order (or in parallel) gives identical results. A rank whose
    factorization fails is skipped; a rank whose clustering is degenerate
    keeps its dispersions but gets a NaN score. The recommendation is the
    rank with the highest finite Calinski-Harabasz score.

    Raises InvalidRankError when no candidate rank is at most min(n, m);
    ranks above it are skipped when some candidate fits.
    """
    if target not in (TARGET_LOCATION, TARGET_TIME):
        raise ValueError(f"unknown target {target!r}")
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
    for rank in ranks:
        rank_cfg = replace(cfg, rank=rank, seed=cfg.seed + rank)
        try:
            pair = factorize(x, rank_cfg)
        except TrafficNmfError:
            continue
        factor = _target_factor(pair, target)
        assignment = assign_clusters(factor, source=target)
        if points == POINTS_FACTOR:
            pts = factor
        else:
            pts = data if target == TARGET_LOCATION else data.T
        w_d = within_dispersion(pts, assignment)
        b_d = between_dispersion(pts, assignment)
        try:
            ch = calinski_harabasz(pts, assignment)
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
        target=target,
        points=points,
        pairs=pairs,
    )


def _target_factor(pair: FactorPair, target: str) -> np.ndarray:
    return pair.w if target == TARGET_LOCATION else pair.h


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
    if assignment.labels.size and assignment.labels.max() >= assignment.k:
        raise ValueError("label out of range for k")
