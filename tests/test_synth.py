import numpy as np
import pytest

from trafficnmf.ingest import HourWindow
from trafficnmf.synth import SyntheticSpec, generate_pair, generate_period

from test_ingest import records_matrix


def test_zero_noise_reconstructs_planted_product_exactly():
    spec = SyntheticSpec(n_locations=60, n_hours=12, planted_rank=3, noise_level=0.0, seed=0)
    period = generate_period(spec)
    built = records_matrix(period.records)
    assert np.array_equal(built.values, period.counts)
    assert np.array_equal(built.values, period.planted_product())
    assert period.realized_noise == 0.0


def test_noise_level_realized_within_band():
    for seed in range(5):
        spec = SyntheticSpec(n_locations=60, n_hours=12, planted_rank=4,
                             noise_level=0.05, seed=seed)
        period = generate_period(spec)
        assert 0.04 <= period.realized_noise <= 0.06
        deviation = np.linalg.norm(period.counts - period.planted_product())
        assert deviation / np.linalg.norm(period.planted_product()) == pytest.approx(
            period.realized_noise)


def test_same_seed_same_records():
    spec = SyntheticSpec(n_locations=20, n_hours=12, planted_rank=3, noise_level=0.03, seed=9)
    a = generate_period(spec)
    b = generate_period(spec)
    assert a.records == b.records
    assert np.array_equal(a.counts, b.counts)


def test_counts_are_nonnegative_integers():
    spec = SyntheticSpec(n_locations=30, n_hours=12, planted_rank=5, noise_level=0.05, seed=3)
    period = generate_period(spec)
    assert all(r.count >= 0 for r in period.records)
    assert np.array_equal(period.counts, np.rint(period.counts))


def test_hour_labels_follow_window():
    spec = SyntheticSpec(n_locations=10, n_hours=4, planted_rank=2, noise_level=0.0, seed=1)
    period = generate_period(spec, window=HourWindow(9, 12))
    assert period.hours == [9, 10, 11, 12]
    assert sorted({r.hour for r in period.records}) == [9, 10, 11, 12]


def test_window_size_must_match():
    spec = SyntheticSpec(n_locations=10, n_hours=12, planted_rank=2, noise_level=0.0, seed=1)
    with pytest.raises(ValueError):
        generate_period(spec, window=HourWindow(9, 12))


def test_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSpec(n_locations=10, n_hours=12, planted_rank=13)
    with pytest.raises(ValueError):
        SyntheticSpec(noise_level=-0.1)


def test_pair_drops_patterns_and_scales_total():
    spec = SyntheticSpec(n_locations=60, n_hours=12, planted_rank=6, noise_level=0.0, seed=2)
    a, b = generate_pair(spec, drop=2, count_scale=0.5)
    assert b.planted_h.shape[1] == 4
    assert np.array_equal(b.planted_h, a.planted_h[:, :4])
    ratio = b.counts.sum() / a.counts.sum()
    assert ratio == pytest.approx(0.5, abs=1e-4)


def test_pair_validation():
    spec = SyntheticSpec(n_locations=20, n_hours=12, planted_rank=3)
    with pytest.raises(ValueError):
        generate_pair(spec, drop=3)
    with pytest.raises(ValueError):
        generate_pair(spec, drop=1, count_scale=0.0)


def test_pair_periods_labeled():
    spec = SyntheticSpec(n_locations=20, n_hours=12, planted_rank=4, seed=5)
    a, b = generate_pair(spec, drop=1, period_a="2019", period_b="2020")
    assert a.period_label == "2019" and b.period_label == "2020"
    assert {r.period_label for r in a.records} == {"2019"}
    assert {r.period_label for r in b.records} == {"2020"}
