"""Synthetic count-record generator with planted low-rank structure.

Builds record files whose aggregated count matrix is exactly a product of
known nonnegative factors (plus optional noise), so pipeline results can
be checked against ground truth. Planted temporal patterns are bump
curves at staggered hours; each location loads dominantly on one pattern,
giving the location rows a genuine cluster structure.

Factors are drawn on a 1/100 grid and counts formed by exact integer
matrix products, so at zero noise the emitted records rebuild the planted
product bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ingest import HourWindow, TrafficRecord

# Temporal curves: nonnegative bumps over the hour axis on a small
# baseline. Width scales with the spacing between bump centers so curves
# overlap similarly at every rank.
_CURVE_BASELINE = 0.10
_CURVE_WIDTH_FRACTION = 0.36

# Location loadings, in hundredths: dominant pattern vs. cross-pattern bleed.
# Alternating per-pattern amplitude keeps groups distinguishable even when
# a too-small rank forces neighbouring patterns into one factor column.
_DOMINANT_LOW, _DOMINANT_HIGH = 100, 121
_CROSS_LOW, _CROSS_HIGH = 2, 11
_AMPLITUDE_STEP = 0.4


@dataclass(frozen=True)
class SyntheticSpec:
    """Size, planted rank, noise level, and seed of a generated period."""

    n_locations: int = 60
    n_hours: int = 12
    planted_rank: int = 3
    noise_level: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.planted_rank < 1 or self.planted_rank > min(self.n_locations, self.n_hours):
            raise ValueError(
                f"planted_rank {self.planted_rank} out of range for "
                f"{self.n_locations}x{self.n_hours}"
            )
        if not self.noise_level >= 0:  # also rejects NaN
            raise ValueError(f"noise_level must be >= 0, got {self.noise_level}")
        if not np.isfinite(self.noise_level):
            raise ValueError(f"noise_level must be finite, got {self.noise_level}")
        if self.seed < 0:  # numpy's generators take no negative seed
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class SyntheticPeriod:
    """One generated period: records plus the ground truth behind them."""

    records: list[TrafficRecord]
    counts: np.ndarray
    planted_w: np.ndarray
    planted_h: np.ndarray
    realized_noise: float
    period_label: str
    hours: list[int]

    def planted_product(self) -> np.ndarray:
        return self.planted_w @ self.planted_h.T


def _temporal_curves(n_hours: int, rank: int) -> np.ndarray:
    """Integer-grid bump curves, one column per pattern, values in hundredths."""
    t = np.arange(n_hours, dtype=float)
    spacing = n_hours / rank
    sigma = _CURVE_WIDTH_FRACTION * spacing
    curves = np.empty((n_hours, rank))
    for g in range(rank):
        mu = (g + 0.5) * spacing - 0.5
        bump = np.exp(-((t - mu) ** 2) / (2.0 * sigma**2))
        curves[:, g] = _CURVE_BASELINE + (1.0 - _CURVE_BASELINE) * bump
    return np.rint(curves * 100.0)


def _location_loadings(n_locations: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    """Integer loadings: each location dominant on pattern (index mod rank)."""
    w = rng.integers(_CROSS_LOW, _CROSS_HIGH, size=(n_locations, rank)).astype(float)
    groups = np.arange(n_locations) % rank
    amplitude = 1.0 + _AMPLITUDE_STEP * (np.arange(rank) % 2)
    w[np.arange(n_locations), groups] = np.rint(
        amplitude[groups] * rng.integers(_DOMINANT_LOW, _DOMINANT_HIGH, size=n_locations)
    )
    return w


def _apply_noise(
    target: np.ndarray, noise_level: float, rng: np.random.Generator
) -> tuple[np.ndarray, float]:
    """Round `target` to integer counts after adding scaled Gaussian noise.

    Returns the counts and the realized relative Frobenius deviation from
    the target (includes the rounding contribution).
    """
    if noise_level > 0:
        g = rng.standard_normal(target.shape)
        scale = noise_level * np.linalg.norm(target) / np.linalg.norm(g)
        noisy = target + scale * g
    else:
        noisy = target
    counts = np.maximum(np.rint(noisy), 0.0)
    realized = float(np.linalg.norm(counts - target) / np.linalg.norm(target))
    return counts, realized


def _records_from_counts(
    counts: np.ndarray, hours: list[int], period_label: str
) -> list[TrafficRecord]:
    n_locations = counts.shape[0]
    records = []
    for i in range(n_locations):
        loc_id = f"L{i:05d}"
        lat = 50.0 + 0.05 * (i % 40)
        lon = -5.0 + 0.05 * (i // 40)
        for j, hour in enumerate(hours):
            records.append(
                TrafficRecord(loc_id, lat, lon, hour, int(counts[i, j]), period_label)
            )
    return records


def _period(w: np.ndarray, h: np.ndarray, target: np.ndarray, noise_level: float,
            rng: np.random.Generator, label: str, hours: list[int]) -> SyntheticPeriod:
    """The period planted as `w @ h.T` whose noise-free counts are `target`."""
    counts, realized = _apply_noise(target, noise_level, rng)
    return SyntheticPeriod(
        records=_records_from_counts(counts, hours, label),
        counts=counts,
        planted_w=w,
        planted_h=h,
        realized_noise=realized,
        period_label=label,
        hours=hours,
    )


def generate_period(
    spec: SyntheticSpec,
    period_label: str = "A",
    window: HourWindow | None = None,
) -> SyntheticPeriod:
    """Generate one period of records with planted factors.

    At noise 0 the aggregated matrix equals planted_w @ planted_h.T
    exactly; otherwise the realized relative deviation is measured and
    returned.
    """
    window = window or HourWindow()
    hours = window.hours()
    if len(hours) != spec.n_hours:
        raise ValueError(
            f"hour window {window.start}..{window.end} has {len(hours)} bins, "
            f"spec wants {spec.n_hours}"
        )

    rng = np.random.default_rng(spec.seed)
    h = _temporal_curves(spec.n_hours, spec.planted_rank)
    w = _location_loadings(spec.n_locations, spec.planted_rank, rng)
    return _period(w, h, w @ h.T, spec.noise_level, rng, period_label, hours)


def generate_pair(
    spec: SyntheticSpec,
    drop: int = 2,
    count_scale: float = 0.5,
    period_a: str = "A",
    period_b: str = "B",
    window: HourWindow | None = None,
) -> tuple[SyntheticPeriod, SyntheticPeriod]:
    """Generate two periods where B keeps only the first planted patterns of A.

    B reuses A's temporal curves minus the last `drop` patterns, draws its
    own location loadings (seed + 1), and is rescaled so its grand total
    is count_scale times A's. This is the ground truth for disappearance
    and aggregate-reduction checks.
    """
    if not (0 <= drop < spec.planted_rank):
        raise ValueError(f"drop must be in 0..{spec.planted_rank - 1}, got {drop}")
    if count_scale <= 0:
        raise ValueError(f"count_scale must be > 0, got {count_scale}")
    if not np.isfinite(count_scale):
        raise ValueError(f"count_scale must be finite, got {count_scale}")

    period_one = generate_period(spec, period_label=period_a, window=window)

    rank_b = spec.planted_rank - drop
    rng = np.random.default_rng(spec.seed + 1)
    h_b = period_one.planted_h[:, :rank_b]
    w_b = _location_loadings(spec.n_locations, rank_b, rng)
    base = w_b @ h_b.T
    factor = count_scale * period_one.counts.sum() / base.sum()
    # factor * (w_b @ h_b.T), not (factor * w_b) @ h_b.T: the two round differently.
    return period_one, _period(factor * w_b, h_b, factor * base, spec.noise_level, rng,
                               period_b, period_one.hours)
