import itertools

import numpy as np
import pytest

from trafficnmf.errors import HourBinMismatchError, ZeroTotalError
from trafficnmf.io import comparison_to_dict
from trafficnmf.ingest import CountMatrix, minmax_normalize
from trafficnmf.nmf import FactorPair, NmfConfig, factorize
from trafficnmf.patterns import (
    PatternSet,
    compare_periods,
    cosine_similarity_matrix,
    extract_patterns,
    match_patterns,
    normalization_column_scales,
)

HOURS = list(range(7, 19))


def make_matrix(values, period="A"):
    values = np.asarray(values, dtype=float)
    locations = [(f"L{i}", 50.0 + i, -1.0) for i in range(values.shape[0])]
    return CountMatrix(values=values, locations=locations,
                       hours=HOURS[: values.shape[1]], period_label=period)


def make_set(temporal, period="A", counts=None):
    temporal = np.asarray(temporal, dtype=float)
    m, r = temporal.shape
    matrix = make_matrix(np.ones((3, m)) if counts is None else counts, period)
    return PatternSet(
        temporal=temporal,
        spatial=np.ones((matrix.shape[0], r)),
        matrix=matrix,
        column_norms=np.ones(r),
    )


def test_extract_unit_max_rescale():
    w = np.ones((2, 1))
    h = np.array([[2.0], [4.0], [8.0]])
    pair = FactorPair(w=w, h=h)
    ps = extract_patterns(pair, minmax_normalize(make_matrix(np.ones((2, 3)))))
    assert np.allclose(ps.temporal[:, 0], [0.25, 0.5, 1.0])
    assert ps.column_norms[0] == 8.0


def test_extract_preserves_product():
    rng = np.random.default_rng(4)
    w, h = rng.random((10, 4)), rng.random((6, 4))
    pair = FactorPair(w=w, h=h)
    ps = extract_patterns(pair, minmax_normalize(make_matrix(np.ones((10, 6)))))
    assert np.abs(ps.reconstruct() - w @ h.T).max() <= 1e-12


def test_extract_zero_column_kept():
    h = np.array([[1.0, 0.0], [0.5, 0.0]])
    pair = FactorPair(w=np.ones((3, 2)), h=h)
    ps = extract_patterns(pair, minmax_normalize(make_matrix(np.ones((3, 2)))))
    assert np.array_equal(ps.temporal[:, 1], np.zeros(2))
    assert ps.column_norms[1] == 1.0


def test_extract_with_column_scale_changes_units():
    rng = np.random.default_rng(14)
    w, h = rng.random((8, 2)), rng.random((5, 2))
    pair = FactorPair(w=w, h=h)
    scale = np.array([10.0, 20.0, 5.0, 1.0, 2.0])
    counts = np.zeros((8, 5))
    counts[0] = scale  # each hour column's max - min is its scale
    x = minmax_normalize(make_matrix(counts))
    assert np.array_equal(x.scale, scale)
    ps = extract_patterns(pair, x)
    scaled_h = h * scale[:, None]
    assert np.abs(ps.reconstruct() - w @ scaled_h.T).max() <= 1e-12
    assert np.allclose(ps.temporal * ps.column_norms, scaled_h)


def test_normalization_column_scales():
    m = make_matrix([[0.0, 5.0], [10.0, 5.0]])
    x = minmax_normalize(m)
    assert normalization_column_scales(x).tolist() == [10.0, 1.0]


def test_match_identical_sets_is_identity():
    rng = np.random.default_rng(2)
    a = make_set(rng.random((12, 5)))
    match = match_patterns(a, a, threshold=0.8)
    assert [(i, j) for i, j, _ in match.pairs] == [(g, g) for g in range(5)]
    assert all(sim == pytest.approx(1.0, abs=1e-12) for _, _, sim in match.pairs)
    assert match.unmatched_a == [] and match.unmatched_b == []


def test_match_recovers_permutation():
    rng = np.random.default_rng(3)
    temporal = rng.random((12, 5))
    perm = [3, 0, 4, 1, 2]
    a = make_set(temporal)
    b = make_set(temporal[:, perm], period="B")
    match = match_patterns(a, b, threshold=0.8)
    recovered = {(i, j) for i, j, _ in match.pairs}
    # Oracle: check against every possible one-to-one pairing.
    sims = cosine_similarity_matrix(a.temporal, b.temporal)
    best = max(
        itertools.permutations(range(5)),
        key=lambda p: sum(sims[i, p[i]] for i in range(5)),
    )
    assert recovered == {(i, best[i]) for i in range(5)}
    assert recovered == {(perm[j], j) for j in range(5)}
    assert all(sim == pytest.approx(1.0, abs=1e-12) for _, _, sim in match.pairs)


def test_match_drop_two_reports_unmatched():
    rng = np.random.default_rng(9)
    # Six curves with low mutual similarity: distinct one-hot-ish bumps.
    temporal = np.eye(12)[:, :6] + 0.05 * rng.random((12, 6))
    a = make_set(temporal)
    b = make_set(temporal[:, :4], period="B")
    match = match_patterns(a, b, threshold=0.8)
    assert len(match.pairs) == 4
    assert match.unmatched_a == [4, 5]
    assert match.unmatched_b == []


def test_match_threshold_blocks_weak_pairs():
    a = make_set(np.array([[1.0], [0.0], [0.0]]))
    b = make_set(np.array([[0.0], [1.0], [0.0]]), period="B")
    match = match_patterns(a, b, threshold=0.8)
    assert match.pairs == []
    assert match.unmatched_a == [0] and match.unmatched_b == [0]


def test_match_hour_bin_mismatch():
    a = make_set(np.ones((12, 2)))
    b = make_set(np.ones((6, 2)), period="B")
    with pytest.raises(HourBinMismatchError):
        match_patterns(a, b)


def test_match_symmetric_up_to_role_swap():
    rng = np.random.default_rng(31)
    for trial in range(10):
        a = make_set(rng.random((12, 4)))
        b = make_set(rng.random((12, 6)), period="B")
        ab = match_patterns(a, b, threshold=0.5)
        ba = match_patterns(b, a, threshold=0.5)
        assert {(i, j) for i, j, _ in ab.pairs} == {(j, i) for i, j, _ in ba.pairs}
        assert ab.unmatched_a == ba.unmatched_b
        assert ab.unmatched_b == ba.unmatched_a


def test_cosine_bounds_for_nonnegative_input():
    rng = np.random.default_rng(6)
    sims = cosine_similarity_matrix(rng.random((10, 5)), rng.random((10, 7)))
    assert sims.min() >= 0.0
    assert sims.max() <= 1.0


def test_peak_hour_rescale_invariant():
    temporal = np.array([[0.1], [0.9], [0.4]])
    ps = make_set(temporal)
    assert ps.peak_hour(0) == HOURS[1]
    scaled = make_set(temporal * 7.3)
    assert scaled.peak_hour(0) == ps.peak_hour(0)


def test_compare_headline_arithmetic():
    a = make_set(np.ones((2, 1)), counts=np.full((2, 2), 25.0))               # total 100
    b = make_set(np.ones((2, 1)), period="B", counts=np.full((2, 2), 12.0))   # total 48
    match = match_patterns(a, b)
    report = compare_periods(a, b, match)
    assert report.total_reduction_pct == 52.0


def test_compare_identical_periods():
    values = np.random.default_rng(12).random((20, 12)) * 100
    raw = make_matrix(values)
    x = minmax_normalize(raw)
    pair = factorize(x, NmfConfig(rank=3, seed=8))
    ps = extract_patterns(pair, x)
    match = match_patterns(ps, ps)
    report = compare_periods(ps, ps, match)
    assert report.total_reduction_pct == 0.0
    assert all(sim == pytest.approx(1.0, abs=1e-12) for _, _, sim in match.pairs)
    assert [n["peak_shift"] for n in comparison_to_dict(report)["matched"]] == [0, 0, 0]


def test_compare_zero_total():
    a = make_set(np.ones((2, 1)), counts=np.zeros((2, 2)))
    b = make_set(np.ones((2, 1)), period="B", counts=np.ones((2, 2)))
    with pytest.raises(ZeroTotalError):
        compare_periods(a, b, match_patterns(a, b))


def test_dominant_location_counts():
    spatial = np.array([[3.0, 1.0], [0.5, 2.0], [4.0, 0.1], [1.0, 1.5]])
    ps = PatternSet(temporal=np.ones((2, 2)), spatial=spatial,
                    matrix=make_matrix(np.ones((4, 2))), column_norms=np.ones(2))
    assert ps.dominant_location_counts() == [2, 2]
