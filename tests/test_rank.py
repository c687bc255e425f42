import math

import numpy as np
import pytest

from trafficnmf.errors import DegenerateClusteringError, InvalidRankError
from trafficnmf.ingest import build_matrix, minmax_normalize
from trafficnmf.nmf import NmfConfig, factorize
from trafficnmf.rank import (
    POINTS_MATRIX,
    ClusterAssignment,
    assign_clusters,
    between_dispersion,
    calinski_harabasz,
    rank_scan,
    within_dispersion,
)
from trafficnmf.synth import SyntheticSpec, generate_period

# Worked example: four points, two clusters split by the first coordinate.
# Centroids (0,1) and (4,1), global centroid (2,1); each point sits 1 away
# from its centroid (W = 4), each centroid 2 away from the global one
# weighted by 2 points (B = 16), total scatter 20, CH = (16/1)/(4/2) = 8.
FOUR_POINTS = np.array([[0.0, 0.0], [0.0, 2.0], [4.0, 0.0], [4.0, 2.0]])
FOUR_LABELS = ClusterAssignment(labels=np.array([0, 0, 1, 1]), k=2, source="test")


def total_scatter(points):
    c = points.mean(axis=0)
    return float(((points - c) ** 2).sum())


def ch_bruteforce(points, labels):
    """Independent Calinski-Harabasz oracle: direct double loop, no vectorization."""
    n = points.shape[0]
    present = sorted(set(int(v) for v in labels))
    k = len(present)
    centroids = {}
    for g in present:
        members = [points[i] for i in range(n) if labels[i] == g]
        centroids[g] = sum(members) / len(members)
    global_c = sum(points[i] for i in range(n)) / n
    w = 0.0
    for i in range(n):
        diff = points[i] - centroids[int(labels[i])]
        w += float(diff @ diff)
    b = 0.0
    for g in present:
        n_g = sum(1 for i in range(n) if labels[i] == g)
        diff = centroids[g] - global_c
        b += n_g * float(diff @ diff)
    return (b / (k - 1)) / (w / (n - k))


def test_assign_clear_argmax():
    a = assign_clusters(np.array([[0.9, 0.1]]))
    assert a.labels.tolist() == [0]


def test_assign_tie_breaks_low_index():
    a = assign_clusters(np.array([[0.5, 0.5]]))
    assert a.labels.tolist() == [0]


def test_assign_rowwise():
    a = assign_clusters(np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 1.0]]))
    assert a.labels.tolist() == [0, 1, 0]
    assert a.k == 2


def test_assign_scale_invariance():
    rng = np.random.default_rng(5)
    factor = rng.random((30, 4))
    base = assign_clusters(factor)
    for scale in (0.01, 3.0, 1e6):
        assert np.array_equal(assign_clusters(factor * scale).labels, base.labels)


def test_four_point_worked_example():
    assert within_dispersion(FOUR_POINTS, FOUR_LABELS) == 4.0
    assert between_dispersion(FOUR_POINTS, FOUR_LABELS) == 16.0
    assert calinski_harabasz(FOUR_POINTS, FOUR_LABELS) == 8.0
    assert total_scatter(FOUR_POINTS) == 20.0


def test_singleton_clusters_have_zero_within():
    points = np.arange(8.0).reshape(4, 2)
    a = ClusterAssignment(labels=np.arange(4), k=4, source="test")
    assert within_dispersion(points, a) == 0.0


def test_labels_outside_0_to_k_are_rejected():
    for labels in ([0, 0, 1, 2], [0, -1, 1, 1]):
        bad = ClusterAssignment(labels=np.array(labels), k=2, source="test")
        with pytest.raises(ValueError, match="label out of range"):
            calinski_harabasz(FOUR_POINTS, bad)


def test_identical_points_single_cluster():
    points = np.ones((5, 3))
    a = ClusterAssignment(labels=np.zeros(5, dtype=int), k=1, source="test")
    assert within_dispersion(points, a) == 0.0
    assert between_dispersion(points, a) == 0.0


def test_single_cluster_between_is_zero():
    rng = np.random.default_rng(2)
    points = rng.random((6, 3))
    a = ClusterAssignment(labels=np.zeros(6, dtype=int), k=1, source="test")
    assert between_dispersion(points, a) == 0.0


def test_ch_degenerate_cases():
    points = np.random.default_rng(0).random((4, 2))
    one = ClusterAssignment(labels=np.zeros(4, dtype=int), k=1, source="test")
    with pytest.raises(DegenerateClusteringError):
        calinski_harabasz(points, one)
    singletons = ClusterAssignment(labels=np.arange(4), k=4, source="test")
    with pytest.raises(DegenerateClusteringError):
        calinski_harabasz(points, singletons)


def test_ch_zero_within_is_infinite():
    points = np.array([[0.0, 0.0], [0.0, 0.0], [5.0, 5.0], [5.0, 5.0]])
    a = ClusterAssignment(labels=np.array([0, 0, 1, 1]), k=2, source="test")
    assert calinski_harabasz(points, a) == math.inf


def test_empty_clusters_reduce_effective_k():
    # k=3 declared, one column never wins: CH must use k_eff = 2.
    a = ClusterAssignment(labels=np.array([0, 0, 1, 1]), k=3, source="test")
    assert calinski_harabasz(FOUR_POINTS, a) == 8.0


def test_ch_separated_beats_random_split():
    # Two tight, well-separated blobs of 5 points each.
    rng = np.random.default_rng(8)
    blob_a = rng.normal(0.0, 0.1, size=(5, 2))
    blob_b = rng.normal(10.0, 0.1, size=(5, 2)) + np.array([10.0, 0.0])
    points = np.vstack([blob_a, blob_b])
    separated = ClusterAssignment(np.array([0] * 5 + [1] * 5), k=2, source="test")
    random_split = ClusterAssignment(np.array([0, 1, 0, 1, 0, 1, 0, 1, 0, 1]), k=2, source="test")
    assert calinski_harabasz(points, separated) > calinski_harabasz(points, random_split)


def test_scatter_decomposition_100_random_sets():
    rng = np.random.default_rng(77)
    for _ in range(100):
        n = int(rng.integers(4, 40))
        d = int(rng.integers(1, 8))
        k = int(rng.integers(1, n))
        points = rng.normal(0.0, 5.0, size=(n, d))
        labels = rng.integers(0, k, size=n)
        a = ClusterAssignment(labels=labels, k=k, source="test")
        w = within_dispersion(points, a)
        b = between_dispersion(points, a)
        total = total_scatter(points)
        assert abs((w + b) - total) <= 1e-8 * max(total, 1.0)


def test_ch_matches_bruteforce_20_instances():
    rng = np.random.default_rng(13)
    for _ in range(20):
        points = rng.random((20, 4))
        labels = rng.integers(0, 3, size=20)
        if len(set(labels.tolist())) < 2:
            labels[0], labels[1] = 0, 1
        a = ClusterAssignment(labels=labels, k=3, source="test")
        mine = calinski_harabasz(points, a)
        oracle = ch_bruteforce(points, labels)
        assert abs(mine - oracle) <= 1e-9 * abs(oracle)


def planted_normalized(planted_rank, seed, noise=0.05):
    spec = SyntheticSpec(n_locations=60, n_hours=12, planted_rank=planted_rank,
                         noise_level=noise, seed=seed)
    period = generate_period(spec)
    return minmax_normalize(build_matrix(period.records))


def test_rank_scan_recovers_planted_rank3():
    x = planted_normalized(3, seed=4)
    result = rank_scan(x, range(2, 9), NmfConfig(rank=2, seed=104))
    assert result.recommended_rank == 3
    assert [e.rank for e in result.entries] == list(range(2, 9))


def test_rank_scan_singleton_range():
    x = planted_normalized(3, seed=1)
    result = rank_scan(x, [2], NmfConfig(rank=2, seed=0))
    assert len(result.entries) == 1
    assert result.recommended_rank == 2


def test_rank_scan_deterministic():
    x = planted_normalized(4, seed=2)
    cfg = NmfConfig(rank=2, seed=55)
    r1 = rank_scan(x, range(2, 7), cfg)
    r2 = rank_scan(x, range(2, 7), cfg)
    assert r1.entries == r2.entries
    assert r1.recommended_rank == r2.recommended_rank


def test_rank_scan_order_independent():
    # Per-rank seeding makes evaluation order (or parallelism) irrelevant.
    x = planted_normalized(3, seed=3)
    cfg = NmfConfig(rank=2, seed=17)
    forward = rank_scan(x, range(2, 7), cfg)
    backward = rank_scan(x, range(6, 1, -1), cfg)
    assert sorted(forward.entries, key=lambda e: e.rank) == \
        sorted(backward.entries, key=lambda e: e.rank)
    assert forward.recommended_rank == backward.recommended_rank


def test_rank_scan_pairs_are_the_factorize_solves():
    x = planted_normalized(3, seed=5)
    cfg = NmfConfig(rank=2, seed=30)
    result = rank_scan(x, range(2, 6), cfg)
    assert sorted(result.pairs) == [2, 3, 4, 5]
    for r, pair in result.pairs.items():
        solo = factorize(x, NmfConfig(rank=r, seed=cfg.seed + r))
        assert np.array_equal(pair.w, solo.w)
        assert np.array_equal(pair.h, solo.h)
        assert pair.objective_trace == solo.objective_trace
        assert pair.iterations_run == solo.iterations_run
        assert result.entry(r).final_loss == solo.objective_trace[-1]


def test_rank_scan_skips_oversize_ranks_only_when_some_fit():
    x = np.random.default_rng(8).random((20, 4))
    result = rank_scan(x, range(3, 7), NmfConfig(rank=2, seed=0))
    assert [e.rank for e in result.entries] == [3, 4]
    with pytest.raises(InvalidRankError):
        rank_scan(x, range(5, 7), NmfConfig(rank=2, seed=0))


def test_rank_scan_lists_skipped_ranks_with_their_reason():
    x = np.random.default_rng(8).random((20, 4))
    result = rank_scan(x, range(3, 7), NmfConfig(rank=2, seed=0))
    assert result.skipped == {5: "rank 5 exceeds min matrix dimension 4",
                              6: "rank 6 exceeds min matrix dimension 4"}
    assert rank_scan(x, range(3, 5), NmfConfig(rank=2, seed=0)).skipped == {}


def test_rank_scan_matrix_points_share_total_scatter():
    # In matrix-points mode the scanned point set is the same at every
    # rank, so W + B must equal the one total scatter throughout.
    x = planted_normalized(3, seed=6)
    result = rank_scan(x, range(2, 7), NmfConfig(rank=2, seed=11), points=POINTS_MATRIX)
    total = total_scatter(x.values)
    for e in result.entries:
        assert abs((e.within_dispersion + e.between_dispersion) - total) <= 1e-8 * total


def test_rank_scan_factor_points_decomposition():
    x = planted_normalized(3, seed=9)
    cfg = NmfConfig(rank=2, seed=21)
    result = rank_scan(x, range(2, 6), cfg)
    # Re-derive each entry's point set to check the decomposition per rank.
    from dataclasses import replace

    from trafficnmf.nmf import factorize

    for e in result.entries:
        pair = factorize(x, replace(cfg, rank=e.rank, seed=cfg.seed + e.rank))
        total = total_scatter(pair.w)
        assert abs((e.within_dispersion + e.between_dispersion) - total) <= 1e-8 * max(total, 1e-30)
