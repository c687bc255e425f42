import math
import pickle

import numpy as np
import pytest

from trafficnmf import io as tio
from trafficnmf.errors import DegenerateClusteringError, InvalidRankError, NumericalError
from trafficnmf.ingest import minmax_normalize
from trafficnmf.nmf import FactorPair, NmfConfig, factorize
from trafficnmf.rank import (
    _score,
    between_dispersion,
    calinski_harabasz,
    rank_scan,
    within_dispersion,
)
from trafficnmf.synth import SyntheticSpec, generate_period

from test_ingest import records_matrix

# Worked example: four points, two clusters split by the first coordinate.
# Centroids (0,1) and (4,1), global centroid (2,1); each point sits 1 away
# from its centroid (W = 4), each centroid 2 away from the global one
# weighted by 2 points (B = 16), total scatter 20, CH = (16/1)/(4/2) = 8.
FOUR_POINTS = np.array([[0.0, 0.0], [0.0, 2.0], [4.0, 0.0], [4.0, 2.0]])
FOUR_LABELS = np.array([0, 0, 1, 1])


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


def scan_entry(w):
    """The scan's entry for a solve whose location factor is w."""
    w = np.asarray(w, dtype=float)
    pair = FactorPair(w=w, h=np.ones((w.shape[1], 2)), objective_trace=[1.0],
                      iterations_run=1, converged=True)
    entry, = _score({w.shape[1]: pair}).entries
    return entry


def scored_as(w, labels):
    """Whether the scan's entry for w is that of these cluster labels."""
    entry = scan_entry(w)
    return ((entry.within_dispersion, entry.between_dispersion)
            == (within_dispersion(w, labels), between_dispersion(w, labels)))


def test_assign_clear_argmax():
    # The row [0.9, 0.1] joins column 0, its clearly largest loading.
    w = [[0.9, 0.1], [0.0, 1.0], [1.0, 0.0], [0.1, 0.8]]
    assert scored_as(w, [0, 1, 0, 1])
    assert not scored_as(w, [1, 1, 0, 1])


def test_assign_rowwise():
    # Each location joins the column of its largest loading; a column that
    # no location's largest loading is in forms no cluster.
    w = [[0.9, 0.1], [1.0, 0.0], [0.0, 2.0], [3.0, 1.0]]
    assert scored_as(w, [0, 0, 1, 0])
    assert not scored_as(w, [0, 0, 1, 1])
    assert scan_entry(w).ch_score == calinski_harabasz(w, [0, 0, 1, 0])
    assert scored_as([[1.0, 0.0, 0.0], [2.0, 0.0, 1.0], [0.0, 0.0, 5.0]], [0, 0, 2])


def test_assign_tie_breaks_low_index():
    # The tied row [0.5, 0.5] joins column 0, not column 1.
    w = [[1.0, 0.0], [0.9, 0.0], [0.5, 0.5], [0.0, 1.0], [0.0, 0.9]]
    assert scored_as(w, [0, 0, 0, 1, 1])
    assert not scored_as(w, [0, 0, 1, 1, 1])


def test_assign_scale_invariance():
    # Scaling W scales each point's coordinates, not its cluster.
    factor = np.random.default_rng(5).random((30, 4))
    labels = np.argmax(factor, axis=1)
    assert len(set(labels.tolist())) == 4
    for scale in (0.01, 3.0, 1e6):
        assert scored_as(factor * scale, labels)


def test_four_point_worked_example():
    assert within_dispersion(FOUR_POINTS, FOUR_LABELS) == 4.0
    assert between_dispersion(FOUR_POINTS, FOUR_LABELS) == 16.0
    assert calinski_harabasz(FOUR_POINTS, FOUR_LABELS) == 8.0
    assert total_scatter(FOUR_POINTS) == 20.0


def test_singleton_clusters_have_zero_within():
    points = np.arange(8.0).reshape(4, 2)
    assert within_dispersion(points, np.arange(4)) == 0.0


def test_labels_that_are_not_one_integer_per_point_are_rejected():
    for labels, shape in (([[0], [0], [1], [1]], "(4, 1)"), ([0.0, 0.5, 1.0, 1.0], "(4,)"),
                          ([0, 0, 1], "(3,)"), ([0, 0, 1, 1, 1], "(5,)")):
        for function in (within_dispersion, between_dispersion, calinski_harabasz):
            with pytest.raises(ValueError) as excinfo:
                function(FOUR_POINTS, np.array(labels))
            message = str(excinfo.value)
            assert message.startswith("labels must be one integer per point")
            assert f"labels have shape {shape}" in message
            assert "points have shape (4, 2)" in message


def test_identical_points_single_cluster():
    points = np.ones((5, 3))
    labels = np.zeros(5, dtype=int)
    assert within_dispersion(points, labels) == 0.0
    assert between_dispersion(points, labels) == 0.0


def test_single_cluster_between_is_zero():
    rng = np.random.default_rng(2)
    points = rng.random((6, 3))
    assert between_dispersion(points, np.zeros(6, dtype=int)) == 0.0


def test_ch_degenerate_cases():
    points = np.random.default_rng(0).random((4, 2))
    with pytest.raises(DegenerateClusteringError):
        calinski_harabasz(points, np.zeros(4, dtype=int))
    with pytest.raises(DegenerateClusteringError):
        calinski_harabasz(points, np.arange(4))


def test_ch_zero_within_is_infinite():
    points = np.array([[0.0, 0.0], [0.0, 0.0], [5.0, 5.0], [5.0, 5.0]])
    assert calinski_harabasz(points, np.array([0, 0, 1, 1])) == math.inf


def test_empty_clusters_reduce_effective_k():
    # Label 1 is unused: CH must count the 2 labels present, not 3.
    assert calinski_harabasz(FOUR_POINTS, np.array([0, 0, 2, 2])) == 8.0


def test_ch_separated_beats_random_split():
    # Two tight, well-separated blobs of 5 points each.
    rng = np.random.default_rng(8)
    blob_a = rng.normal(0.0, 0.1, size=(5, 2))
    blob_b = rng.normal(10.0, 0.1, size=(5, 2)) + np.array([10.0, 0.0])
    points = np.vstack([blob_a, blob_b])
    separated = np.array([0] * 5 + [1] * 5)
    random_split = np.array([0, 1, 0, 1, 0, 1, 0, 1, 0, 1])
    assert calinski_harabasz(points, separated) > calinski_harabasz(points, random_split)


def test_scatter_decomposition_100_random_sets():
    rng = np.random.default_rng(77)
    for _ in range(100):
        n = int(rng.integers(4, 40))
        d = int(rng.integers(1, 8))
        k = int(rng.integers(1, n))
        points = rng.normal(0.0, 5.0, size=(n, d))
        labels = rng.integers(0, k, size=n)
        w = within_dispersion(points, labels)
        b = between_dispersion(points, labels)
        total = total_scatter(points)
        assert abs((w + b) - total) <= 1e-8 * max(total, 1.0)


def test_ch_matches_bruteforce_20_instances():
    rng = np.random.default_rng(13)
    for _ in range(20):
        points = rng.random((20, 4))
        labels = rng.integers(0, 3, size=20)
        if len(set(labels.tolist())) < 2:
            labels[0], labels[1] = 0, 1
        mine = calinski_harabasz(points, labels)
        oracle = ch_bruteforce(points, labels)
        assert abs(mine - oracle) <= 1e-9 * abs(oracle)


def planted_normalized(planted_rank, seed, noise=0.05):
    spec = SyntheticSpec(n_locations=60, n_hours=12, planted_rank=planted_rank,
                         noise_level=noise, seed=seed)
    period = generate_period(spec)
    return minmax_normalize(records_matrix(period.records))


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
    backward = rank_scan(x, [6, 5, 4, 3, 2, 2], cfg)  # listed by rank, once each
    assert backward.entries == forward.entries
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
        entry, = (e for e in result.entries if e.rank == r)
        assert entry.final_loss == solo.objective_trace[-1]


def test_score_gives_the_scan_of_outcomes_solved_anywhere(tmp_path):
    # Each rank solved on its own, in reverse order, one of them failing, and
    # the outcomes pickled as a pipe would carry them: the score is the scan's.
    x = planted_normalized(3, seed=6)
    cfg = NmfConfig(rank=2, seed=12)
    ranks = [2, 3, 4, 5, 13]  # 13 exceeds the 12 hour bins
    scan = rank_scan(x, ranks, cfg)

    def outcome(rank):
        try:
            return factorize(x, cfg.at_rank(rank))
        except InvalidRankError as e:
            return e

    outcomes = pickle.loads(pickle.dumps({r: outcome(r) for r in reversed(ranks)}))
    assert isinstance(outcomes[13], InvalidRankError)
    scored = _score(outcomes)
    assert scored.entries == scan.entries
    assert scored.recommended_rank == scan.recommended_rank
    assert scored.skipped == scan.skipped == {13: "rank 13 exceeds min matrix dimension 12"}
    for r, pair in scan.pairs.items():
        assert np.array_equal(scored.pairs[r].w, pair.w)
    tio.write_scan_table(tmp_path / "scan.csv", scan)
    tio.write_scan_table(tmp_path / "scored.csv", scored)
    assert (tmp_path / "scan.csv").read_bytes() == (tmp_path / "scored.csv").read_bytes()
    with pytest.raises(NumericalError, match="every candidate rank failed"):
        _score({13: outcomes[13]})


def test_rank_scan_of_no_ranks_is_an_invalid_rank_error():
    x = np.random.default_rng(8).random((20, 4))
    with pytest.raises(InvalidRankError, match="^no candidate ranks$"):
        rank_scan(x, [], NmfConfig(rank=2, seed=0))


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
