"""Rank selection via cluster-dispersion measures.

The dispersion functions take points and one integer cluster label per
point. The scan labels each location by its dominant loading, the argmax
over the location factor's pattern columns, ties to the lowest column,
and scores candidate ranks with within-cluster dispersion,
between-cluster dispersion, and their Calinski-Harabasz ratio (Calinski
& Harabasz, 1974); it recommends the rank with the highest finite ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DegenerateClusteringError, InvalidRankError, NumericalError, TrafficNmfError
from .ingest import NormalizedMatrix
from .nmf import FactorPair, NmfConfig, factorize


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
    pairs: dict[int, FactorPair]
    skipped: dict[int, str]


def within_dispersion(points: np.ndarray, labels: np.ndarray) -> float:
    """Summed squared distance of every point to its own cluster centroid.

    Trace of the pooled within-cluster scatter matrix.
    """
    return _dispersions(points, labels)[0]


def between_dispersion(points: np.ndarray, labels: np.ndarray) -> float:
    """Size-weighted squared distance of cluster centroids to the global centroid.

    Trace of the between-cluster scatter matrix.
    """
    return _dispersions(points, labels)[1]


def calinski_harabasz(points: np.ndarray, labels: np.ndarray) -> float:
    """(B / (k - 1)) / (W / (n - k)) with k the number of distinct labels.

    Returns positive infinity when the within-dispersion is exactly zero.
    Raises DegenerateClusteringError for k < 2 or n <= k.
    """
    w, b, k = _dispersions(points, labels)
    return _ch_score(w, b, k, len(labels))


def _dispersions(points: np.ndarray, labels: np.ndarray) -> tuple[float, float, int]:
    """Within and between dispersion and the number of distinct labels.

    One pass over the clusters in ascending label order, each centroid
    computed once. ValueError unless labels hold one integer per point.
    """
    points, labels = np.asarray(points, dtype=float), np.asarray(labels)
    if labels.shape != points.shape[:1] or labels.dtype.kind not in "iu":
        raise ValueError(f"labels must be one integer per point: labels have shape "
                         f"{labels.shape} and dtype {labels.dtype}, points have shape "
                         f"{points.shape}")
    global_centroid = points.mean(axis=0)
    within = between = 0.0
    # Not np.unique: called without return_index, it imports numpy.ma, 1.7 MB
    # and about 10 ms in every process that scans.
    clusters = sorted(set(labels.tolist()))
    for g in clusters:
        members = points[labels == g]
        centroid = members.mean(axis=0)
        within += float(((members - centroid) ** 2).sum())
        between += members.shape[0] * float(((centroid - global_centroid) ** 2).sum())
    return within, between, len(clusters)


def _ch_score(w: float, b: float, k: int, n: int) -> float:
    if k < 2:
        raise DegenerateClusteringError(f"need >=2 populated clusters, got {k}")
    if n <= k:
        raise DegenerateClusteringError(f"need more points ({n}) than clusters ({k})")
    if w == 0.0:
        return math.inf
    return (b / (k - 1)) / (w / (n - k))


def rank_scan(x: NormalizedMatrix | np.ndarray, ranks: Iterable[int],
              cfg: NmfConfig) -> RankScanResult:
    """Factorize at each candidate rank and score the induced clustering.

    Locations are clustered by their dominant loading, and the dispersions
    are computed on the location factor's own rows.

    Each rank factorizes with `cfg.at_rank(rank)`, so evaluating ranks in
    any order (or in parallel) gives identical results. A rank whose
    factorization fails is skipped; a rank whose clustering is degenerate
    keeps its dispersions but gets a NaN score; the result's `skipped` maps
    each skipped rank to the error's message. Entries and skips are listed
    by ascending rank, one per distinct rank. The recommendation is the
    rank with the highest finite Calinski-Harabasz score.

    Raises InvalidRankError when there is no candidate rank or none is at
    most min(n, m); ranks above it are skipped when some candidate fits.
    """
    data = x.values if isinstance(x, NormalizedMatrix) else np.asarray(x, dtype=float)
    ranks = list(ranks)
    max_rank = min(data.shape)
    if not ranks:
        raise InvalidRankError("no candidate ranks")
    if min(ranks) > max_rank:
        raise InvalidRankError(
            f"every candidate rank {ranks} exceeds min matrix dimension {max_rank}")
    outcomes: dict[int, FactorPair | TrafficNmfError] = {}
    for rank in dict.fromkeys(ranks):  # each distinct rank once, in the order given
        try:
            outcomes[rank] = factorize(x, cfg.at_rank(rank))
        except TrafficNmfError as e:
            outcomes[rank] = e
    return _score(outcomes)


def _score(outcomes: dict[int, FactorPair | TrafficNmfError]) -> RankScanResult:
    """The scan result of each rank's outcome: the FactorPair that
    `factorize(x, cfg.at_rank(rank))` returned, or the error it raised.

    Depends on the outcomes alone, not on who solved them or in what order.
    Raises NumericalError when every rank failed.
    """
    entries: list[RankScanEntry] = []
    pairs: dict[int, FactorPair] = {}
    skipped: dict[int, str] = {}
    for rank, outcome in sorted(outcomes.items()):
        if isinstance(outcome, TrafficNmfError):
            skipped[rank] = str(outcome)
            continue
        w_d, b_d, k = _dispersions(outcome.w, np.argmax(outcome.w, axis=1))
        try:
            ch = _ch_score(w_d, b_d, k, outcome.w.shape[0])
        except DegenerateClusteringError:
            ch = math.nan
        entries.append(RankScanEntry(
            rank=rank,
            within_dispersion=w_d,
            between_dispersion=b_d,
            ch_score=ch,
            final_loss=outcome.objective_trace[-1],
        ))
        pairs[rank] = outcome

    if not entries:
        raise NumericalError("every candidate rank failed to factorize")
    return RankScanResult(
        entries=entries,
        recommended_rank=_recommend(entries),
        pairs=pairs,
        skipped=skipped,
    )


def _recommend(entries: list[RankScanEntry]) -> int:
    # Entries ascend by rank. Highest finite score wins, lowest rank on ties;
    # fall back to infinite scores (perfectly tight clusters) when nothing is
    # finite, then to the lowest rank.
    finite = [e for e in entries if math.isfinite(e.ch_score)]
    if finite:
        return max(finite, key=lambda e: e.ch_score).rank
    return next((e.rank for e in entries if e.ch_score == math.inf), entries[0].rank)

