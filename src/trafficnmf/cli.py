"""Command-line pipeline: ingest -> rank-scan -> factorize -> run -> synth.

Settings come from flags, an optional JSON config file, or built-in
defaults, in that order of precedence. All outputs are deterministic for
a fixed config: every random choice derives from the single seed, fanned
out per stage (each factorization at rank r uses seed + r, synthetic
period B uses seed + 1).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from . import io as tio
from .errors import ConfigError, DataError, MissingInputError, NumericalError, TrafficNmfError
from .ingest import ColumnMapping, CountMatrix, HourWindow, build_matrix, minmax_normalize, parse_records
from .nmf import INIT_NNDSVD, INIT_RANDOM, FactorPair, NmfConfig, factorize
from .patterns import (
    DEFAULT_MATCH_THRESHOLD,
    compare_periods,
    extract_patterns,
    match_patterns,
    normalization_column_scales,
)
from .rank import POINTS_FACTOR, POINTS_MATRIX, TARGET_LOCATION, TARGET_TIME, rank_scan
from .synth import SyntheticSpec, SyntheticPeriod, generate_pair, generate_period

_DEFAULTS = {
    "label_a": "A",
    "label_b": "B",
    "hours": "7..18",
    "ranks": "2..8",
    "seed": 0,
    "tol": 1e-5,
    "max_iters": 500,
    "init": INIT_RANDOM,
    "threshold": DEFAULT_MATCH_THRESHOLD,
    "out": ".",
    "target": TARGET_LOCATION,
    "points": POINTS_FACTOR,
}


@dataclass
class PipelineConfig:
    """Resolved settings for one invocation."""

    input_a: str | None
    input_b: str | None
    label_a: str
    label_b: str
    window: HourWindow
    ranks: list[int]
    rank_a: int | None
    rank_b: int | None
    seed: int
    tol: float
    max_iters: int
    init: str
    threshold: float
    out: Path
    target: str
    points: str

    def nmf_template(self) -> NmfConfig:
        return NmfConfig(rank=1, max_iters=self.max_iters, tol=self.tol,
                         seed=self.seed, init=self.init)

    def nmf_at(self, rank: int) -> NmfConfig:
        # Same per-rank seed derivation as rank_scan, so a fixed-rank run
        # reproduces the matching scan entry exactly.
        return NmfConfig(rank=rank, max_iters=self.max_iters, tol=self.tol,
                         seed=self.seed + rank, init=self.init)


def _parse_span(text: str, what: str) -> tuple[int, int]:
    try:
        lo, hi = text.split("..")
        lo_i, hi_i = int(lo), int(hi)
    except ValueError:
        raise ConfigError(f"{what} must look like '2..8', got {text!r}") from None
    if lo_i > hi_i:
        raise ConfigError(f"{what} range is empty: {text!r}")
    return lo_i, hi_i


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        cfg = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise ConfigError(f"config file {p} is not valid JSON: {e}") from None
    if not isinstance(cfg, dict):
        raise ConfigError(f"config file {p} must hold a JSON object")
    return cfg


def _resolve(args: argparse.Namespace) -> PipelineConfig:
    """Merge flags over config-file values over defaults; flags win."""
    file_cfg = _load_config_file(getattr(args, "config", None))

    def pick(key: str):
        flag = getattr(args, key, None)
        if flag is not None:
            return flag
        if key in file_cfg:
            return file_cfg[key]
        return _DEFAULTS.get(key)

    lo, hi = _parse_span(str(pick("hours")), "--hours")
    try:
        window = HourWindow(lo, hi)
    except ValueError as e:
        raise ConfigError(str(e)) from None
    r_lo, r_hi = _parse_span(str(pick("ranks")), "--ranks")
    if r_lo < 1:
        raise ConfigError(f"ranks must be >= 1, got {r_lo}")

    init = str(pick("init"))
    if init not in (INIT_RANDOM, INIT_NNDSVD):
        raise ConfigError(f"--init must be {INIT_RANDOM} or {INIT_NNDSVD}, got {init!r}")
    target = str(pick("target"))
    if target not in (TARGET_LOCATION, TARGET_TIME):
        raise ConfigError(f"--target must be {TARGET_LOCATION} or {TARGET_TIME}")
    points = str(pick("points"))
    if points not in (POINTS_FACTOR, POINTS_MATRIX):
        raise ConfigError(f"--points must be {POINTS_FACTOR} or {POINTS_MATRIX}")

    threshold = float(pick("threshold"))
    if not (0.0 <= threshold <= 1.0):
        raise ConfigError(f"--threshold must be in [0, 1], got {threshold}")

    try:
        return PipelineConfig(
            input_a=pick("input_a"),
            input_b=pick("input_b"),
            label_a=str(pick("label_a")),
            label_b=str(pick("label_b")),
            window=window,
            ranks=list(range(r_lo, r_hi + 1)),
            rank_a=pick("rank_a"),
            rank_b=pick("rank_b"),
            seed=int(pick("seed")),
            tol=float(pick("tol")),
            max_iters=int(pick("max_iters")),
            init=init,
            threshold=threshold,
            out=Path(str(pick("out"))),
            target=target,
            points=points,
        )
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad configuration value: {e}") from None


def _require_input(path_str: str | None, flag: str) -> Path:
    if path_str is None:
        raise ConfigError(f"{flag} is required for this command")
    path = Path(path_str)
    if not path.exists():
        raise MissingInputError(f"input file not found: {path}")
    return path


def _ingest_file(path: Path, label: str, window: HourWindow) -> CountMatrix:
    with path.open("r", newline="", encoding="utf-8") as f:
        result = parse_records(f, ColumnMapping(), period_label=label)
    print(f"{path}: {len(result.records)} records parsed, {result.rejections.describe()}")
    matrix = build_matrix(result.records, window)
    n, m = matrix.shape
    print(f"{label}: {n} locations x {m} hour bins")
    return matrix


def _counts_name(label: str) -> str:
    safe = "".join(c if c.isalnum() or c in "-_" else "_" for c in label)
    return f"counts_{safe}.csv"


def cmd_ingest(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    cfg.out.mkdir(parents=True, exist_ok=True)
    inputs = [(cfg.input_a, cfg.label_a, "--input-a")]
    if cfg.input_b is not None:
        inputs.append((cfg.input_b, cfg.label_b, "--input-b"))
    for path_str, label, flag in inputs:
        path = _require_input(path_str, flag)
        matrix = _ingest_file(path, label, cfg.window)
        out_path = cfg.out / _counts_name(label)
        tio.write_count_matrix(out_path, matrix)
        print(f"wrote {out_path}")
    return 0


def cmd_rank_scan(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    cfg.out.mkdir(parents=True, exist_ok=True)
    path = _require_input(cfg.input_a, "--input-a")
    matrix = tio.read_count_matrix(path, period_label=cfg.label_a)
    normalized = minmax_normalize(matrix)
    result = rank_scan(normalized, cfg.ranks, cfg.nmf_template(),
                       target=cfg.target, points=cfg.points)
    out_path = cfg.out / f"rank_scan_{cfg.label_a}.csv"
    tio.write_scan_table(out_path, result)
    print(f"wrote {out_path}")
    print(f"recommended rank: {result.recommended_rank}")
    return 0


def cmd_factorize(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    cfg.out.mkdir(parents=True, exist_ok=True)
    path = _require_input(cfg.input_a, "--input-a")
    if cfg.rank_a is None:
        raise ConfigError("--rank-a is required for factorize")
    matrix = tio.read_count_matrix(path, period_label=cfg.label_a)
    normalized = minmax_normalize(matrix)
    nmf_cfg = cfg.nmf_at(int(cfg.rank_a))
    pair = factorize(normalized, nmf_cfg)
    label = cfg.label_a
    tio.write_factor_tables(
        cfg.out / f"{label}_location_loadings.csv",
        cfg.out / f"{label}_time_loadings.csv",
        cfg.out / f"{label}_diagnostics.json",
        pair, matrix, nmf_cfg,
    )
    print(f"factorized {label} at rank {pair.rank}: "
          f"loss {pair.objective_trace[-1]:.6g} after {pair.iterations_run} iterations"
          f" ({'converged' if pair.converged else 'max iterations'})")
    return 0


def _choose_rank(cfg: PipelineConfig, fixed: int | None, normalized,
                 label: str) -> tuple[int, FactorPair | None]:
    """The rank to factorize at, with the scan's solve at that rank.

    A fixed rank skips the scan and comes back without a pair.
    """
    if fixed is not None:
        return int(fixed), None
    result = rank_scan(normalized, cfg.ranks, cfg.nmf_template(),
                       target=cfg.target, points=cfg.points)
    scan_path = cfg.out / f"rank_scan_{label}.csv"
    tio.write_scan_table(scan_path, result)
    print(f"{label}: scanned ranks {cfg.ranks[0]}..{cfg.ranks[-1]}, "
          f"recommended {result.recommended_rank} (wrote {scan_path})")
    return result.recommended_rank, result.pairs[result.recommended_rank]


def cmd_run(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    cfg.out.mkdir(parents=True, exist_ok=True)
    stage = "setup"
    try:
        stage = "ingest"
        path_a = _require_input(cfg.input_a, "--input-a")
        path_b = _require_input(cfg.input_b, "--input-b")
        matrix_a = _ingest_file(path_a, cfg.label_a, cfg.window)
        matrix_b = _ingest_file(path_b, cfg.label_b, cfg.window)
        tio.write_count_matrix(cfg.out / _counts_name(cfg.label_a), matrix_a)
        tio.write_count_matrix(cfg.out / _counts_name(cfg.label_b), matrix_b)

        stage = "normalize"
        norm_a = minmax_normalize(matrix_a)
        norm_b = minmax_normalize(matrix_b)

        stage = "rank selection"
        rank_a, pair_a = _choose_rank(cfg, cfg.rank_a, norm_a, cfg.label_a)
        rank_b, pair_b = _choose_rank(cfg, cfg.rank_b, norm_b, cfg.label_b)

        stage = "factorization"
        cfg_a, cfg_b = cfg.nmf_at(rank_a), cfg.nmf_at(rank_b)
        if pair_a is None:
            pair_a = factorize(norm_a, cfg_a)
        if pair_b is None:
            pair_b = factorize(norm_b, cfg_b)
        tio.write_factor_tables(
            cfg.out / f"{cfg.label_a}_location_loadings.csv",
            cfg.out / f"{cfg.label_a}_time_loadings.csv",
            cfg.out / f"{cfg.label_a}_diagnostics.json",
            pair_a, matrix_a, cfg_a,
        )
        tio.write_factor_tables(
            cfg.out / f"{cfg.label_b}_location_loadings.csv",
            cfg.out / f"{cfg.label_b}_time_loadings.csv",
            cfg.out / f"{cfg.label_b}_diagnostics.json",
            pair_b, matrix_b, cfg_b,
        )

        stage = "pattern extraction"
        set_a = extract_patterns(pair_a, matrix_a, normalization_column_scales(norm_a))
        set_b = extract_patterns(pair_b, matrix_b, normalization_column_scales(norm_b))
        tio.write_temporal_patterns(cfg.out / f"temporal_patterns_{cfg.label_a}.csv", set_a)
        tio.write_temporal_patterns(cfg.out / f"temporal_patterns_{cfg.label_b}.csv", set_b)
        tio.write_spatial_geojson(cfg.out / f"spatial_patterns_{cfg.label_a}.geojson", set_a)
        tio.write_spatial_geojson(cfg.out / f"spatial_patterns_{cfg.label_b}.geojson", set_b)

        stage = "comparison"
        match = match_patterns(set_a, set_b, cfg.threshold)
        report = compare_periods(matrix_a, matrix_b, match, set_a, set_b)
        tio.write_comparison_report(
            cfg.out / "report.json", cfg.out / "summary.txt", report, set_a, set_b,
        )
    except TrafficNmfError:
        print(f"pipeline failed during {stage}; outputs under {cfg.out} may be partial",
              file=sys.stderr)
        raise

    print(tio.render_summary(report), end="")
    print(f"wrote {cfg.out / 'report.json'} and {cfg.out / 'summary.txt'}")
    return 0


def _write_records_csv(path: Path, period: SyntheticPeriod) -> None:
    cols = ColumnMapping()
    with path.open("w", newline="", encoding="utf-8") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow([cols.location_id, cols.latitude, cols.longitude, cols.hour, cols.count])
        for r in period.records:
            w.writerow([r.location_id, repr(r.latitude), repr(r.longitude), r.hour, r.count])


def _write_planted(out: Path, period: SyntheticPeriod) -> None:
    label = period.period_label
    with (out / f"planted_w_{label}.csv").open("w", newline="", encoding="utf-8") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow([f"p{g + 1}" for g in range(period.planted_w.shape[1])])
        for row in period.planted_w:
            w.writerow([repr(float(v)) for v in row])
    with (out / f"planted_h_{label}.csv").open("w", newline="", encoding="utf-8") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["hour"] + [f"p{g + 1}" for g in range(period.planted_h.shape[1])])
        for j, hour in enumerate(period.hours):
            w.writerow([hour] + [repr(float(v)) for v in period.planted_h[j]])


def cmd_synth(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    cfg.out.mkdir(parents=True, exist_ok=True)
    n_hours = len(cfg.window.hours())
    try:
        spec = SyntheticSpec(
            n_locations=args.locations,
            n_hours=n_hours,
            planted_rank=args.rank,
            noise_level=args.noise,
            seed=cfg.seed,
        )
    except ValueError as e:
        raise ConfigError(str(e)) from None

    manifest: dict = {
        "n_locations": spec.n_locations,
        "n_hours": spec.n_hours,
        "planted_rank": spec.planted_rank,
        "noise_level": spec.noise_level,
        "seed": spec.seed,
        "hours": cfg.window.hours(),
    }
    if args.pair_drop is not None:
        period_a, period_b = generate_pair(
            spec, drop=args.pair_drop, count_scale=args.pair_scale,
            period_a=cfg.label_a, period_b=cfg.label_b, window=cfg.window,
        )
        periods = [period_a, period_b]
        manifest["pair"] = {
            "drop": args.pair_drop,
            "count_scale": args.pair_scale,
            "rank_b": spec.planted_rank - args.pair_drop,
        }
    else:
        periods = [generate_period(spec, period_label=cfg.label_a, window=cfg.window)]

    manifest["periods"] = {}
    for period in periods:
        records_path = cfg.out / f"synth_{period.period_label}.csv"
        _write_records_csv(records_path, period)
        _write_planted(cfg.out, period)
        manifest["periods"][period.period_label] = {
            "records_file": records_path.name,
            "realized_noise": period.realized_noise,
            "total_count": float(period.counts.sum()),
            "planted_rank": period.planted_h.shape[1],
        }
        print(f"wrote {records_path} (realized noise {period.realized_noise:.4f})")
    (cfg.out / "synth_manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {cfg.out / 'synth_manifest.json'}")
    return 0


class _Parser(argparse.ArgumentParser):
    # Usage errors exit 1, not argparse's default 2 (2 is for data errors).
    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--out", help="output directory (default .)")
    p.add_argument("--seed", type=int, help="base random seed (default 0)")
    p.add_argument("--hours", help="inclusive hour window, e.g. 7..18")


def _add_nmf(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol", type=float, help="relative loss-change stopping tolerance")
    p.add_argument("--max-iters", dest="max_iters", type=int, help="iteration cap per factorization")
    p.add_argument("--init", help="factor initialization: random or nndsvd")


def _add_scan(p: argparse.ArgumentParser) -> None:
    p.add_argument("--ranks", help="rank scan range, e.g. 2..8")
    p.add_argument("--target", help="cluster the location-factor or time-factor rows")
    p.add_argument("--points", help="dispersion points: factor rows or matrix rows")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="trafficnmf",
                     description="Elicit and compare spatio-temporal traffic patterns "
                                 "from vehicle-count records.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="aggregate raw count records into matrix tables")
    _add_common(p)
    p.add_argument("--input-a", dest="input_a", help="raw records file for period A")
    p.add_argument("--input-b", dest="input_b", help="raw records file for period B")
    p.add_argument("--label-a", dest="label_a", help="period A label (default A)")
    p.add_argument("--label-b", dest="label_b", help="period B label (default B)")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("rank-scan", help="score candidate ranks on an ingested matrix")
    _add_common(p)
    _add_nmf(p)
    _add_scan(p)
    p.add_argument("--input-a", dest="input_a", help="count-matrix table (from ingest)")
    p.add_argument("--label-a", dest="label_a", help="period label (default A)")
    p.set_defaults(func=cmd_rank_scan)

    p = sub.add_parser("factorize", help="factorize an ingested matrix at a fixed rank")
    _add_common(p)
    _add_nmf(p)
    p.add_argument("--input-a", dest="input_a", help="count-matrix table (from ingest)")
    p.add_argument("--label-a", dest="label_a", help="period label (default A)")
    p.add_argument("--rank-a", dest="rank_a", type=int, help="factorization rank")
    p.set_defaults(func=cmd_factorize)

    p = sub.add_parser("run", help="full two-period pipeline with all exports")
    _add_common(p)
    _add_nmf(p)
    _add_scan(p)
    p.add_argument("--input-a", dest="input_a", help="raw records file for period A")
    p.add_argument("--input-b", dest="input_b", help="raw records file for period B")
    p.add_argument("--label-a", dest="label_a", help="period A label (default A)")
    p.add_argument("--label-b", dest="label_b", help="period B label (default B)")
    p.add_argument("--rank-a", dest="rank_a", type=int,
                   help="fixed rank for period A (skips the scan)")
    p.add_argument("--rank-b", dest="rank_b", type=int,
                   help="fixed rank for period B (skips the scan)")
    p.add_argument("--threshold", type=float, help="pattern-match cosine threshold (default 0.8)")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("synth", help="generate planted-factor record files")
    _add_common(p)
    p.add_argument("--locations", type=int, default=60, help="number of locations (default 60)")
    p.add_argument("--rank", type=int, default=3, help="planted rank (default 3)")
    p.add_argument("--noise", type=float, default=0.0,
                   help="relative Frobenius noise level (default 0)")
    p.add_argument("--label-a", dest="label_a", help="period A label (default A)")
    p.add_argument("--label-b", dest="label_b", help="period B label (default B)")
    p.add_argument("--pair-drop", dest="pair_drop", type=int,
                   help="also emit a period B missing this many of A's patterns")
    p.add_argument("--pair-scale", dest="pair_scale", type=float, default=0.5,
                   help="period B grand total as a fraction of A's (default 0.5)")
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except DataError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NumericalError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
