"""Command-line pipeline: ingest -> rank-scan -> factorize -> run -> synth.

Settings come from flags, an optional JSON config file, or built-in
defaults, in that order of precedence. All outputs are deterministic for
a fixed config: every random choice derives from the single seed, fanned
out per stage (each factorization at rank r is seeded by
NmfConfig.at_rank, synthetic period B uses seed + 1).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys
from dataclasses import dataclass
from io import StringIO
from pathlib import Path

from . import io as tio
from .errors import ConfigError, DataError, MissingInputError, NumericalError, TrafficNmfError
from .ingest import (
    ColumnMapping,
    CountMatrix,
    HourWindow,
    NormalizedMatrix,
    build_matrix,
    minmax_normalize,
    parse_records,
)
from .nmf import INIT_RANDOM, FactorPair, NmfConfig, factorize
from .patterns import (
    DEFAULT_MATCH_THRESHOLD,
    PatternSet,
    compare_periods,
    extract_patterns,
    match_patterns,
    normalization_column_scales,
)
from .rank import POINTS_FACTOR, POINTS_MATRIX, RankScanResult, rank_scan
from .synth import SyntheticSpec, SyntheticPeriod, generate_pair, generate_period


def _parse_span(text) -> tuple[int, int]:
    try:
        lo, hi = str(text).split("..")
        lo_i, hi_i = int(lo), int(hi)
    except ValueError:
        raise ValueError("must look like '2..8'") from None
    if lo_i > hi_i:
        raise ValueError("the range is empty")
    return lo_i, hi_i


def _integer(value) -> int:
    # int() would truncate a config file's 6.7 to 6.
    if isinstance(value, float) and not value.is_integer():
        raise ValueError("not a whole number")
    return int(value)


# Every setting a flag or config-file key can give: key -> (conversion,
# default, help). The flag is the key with dashes; None means unset.
_SETTINGS = {
    "input_a": (str, None, "period A input: raw records, or a count table "
                           "for rank-scan and factorize"),
    "input_b": (str, None, "period B raw records"),
    "label_a": (str, "A", "period A label"),
    "label_b": (str, "B", "period B label"),
    "out": (Path, ".", "output directory"),
    "seed": (_integer, 0, "base random seed"),
    "hours": (_parse_span, "7..18", "inclusive clock-hour window"),
    "ranks": (_parse_span, "2..8", "rank scan range"),
    "rank_a": (_integer, None, "fixed period A rank (run skips A's scan)"),
    "rank_b": (_integer, None, "fixed period B rank (skips B's scan)"),
    "points": (str, POINTS_FACTOR, f"dispersion points: {POINTS_FACTOR} rows "
                                   f"or {POINTS_MATRIX} rows"),
    "tol": (float, 1e-5, "relative loss-change stopping tolerance"),
    "max_iters": (_integer, 500, "iteration cap per factorization"),
    "init": (str, INIT_RANDOM, "factor initialization: random or nndsvd"),
    "threshold": (float, DEFAULT_MATCH_THRESHOLD, "pattern-match cosine threshold"),
    "locations": (_integer, 60, "number of locations"),
    "rank": (_integer, 3, "planted rank"),
    "noise": (float, 0.0, "relative Frobenius noise level"),
    "pair_drop": (_integer, None, "also emit a period B missing this many of A's patterns"),
    "pair_scale": (float, 0.5, "period B grand total as a fraction of A's"),
}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


@dataclass
class PipelineConfig:
    """Resolved settings for one invocation."""

    input_a: str | None
    input_b: str | None
    label_a: str
    label_b: str
    out: Path
    seed: int
    window: HourWindow
    ranks: list[int]
    rank_a: int | None
    rank_b: int | None
    points: str
    nmf: NmfConfig
    threshold: float
    locations: int
    rank: int
    noise: float
    pair_drop: int | None
    pair_scale: float


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
    for key in cfg:
        if key not in _SETTINGS:
            raise ConfigError(f"config file {p} has an unknown key {key!r}")
    return cfg


def _resolve(args: argparse.Namespace) -> PipelineConfig:
    """Merge flags over config-file values over defaults, then convert and
    check every value; flags win."""
    file_cfg = _load_config_file(getattr(args, "config", None))
    values = {}
    for key, (convert, default, _) in _SETTINGS.items():
        value = getattr(args, key, None)
        if value is None:
            value = file_cfg.get(key)
        if value is None:
            value = default
        try:
            if isinstance(value, bool):  # no setting is a switch; int(True) is 1
                raise ValueError("not a boolean setting")
            values[key] = None if value is None else convert(value)
        except (TypeError, ValueError) as e:
            raise ConfigError(f"{_flag(key)} has a bad value {value!r}: {e}") from None

    try:
        window = HourWindow(*values.pop("hours"))
    except ValueError as e:
        raise ConfigError(f"--hours: {e}") from None
    r_lo, r_hi = values.pop("ranks")
    for key, rank in (("ranks", r_lo), ("rank_a", values["rank_a"]), ("rank_b", values["rank_b"])):
        if rank is not None and rank < 1:
            raise ConfigError(f"{_flag(key)} must be >= 1, got {rank}")
    try:
        nmf = NmfConfig(rank=1, max_iters=values.pop("max_iters"), tol=values.pop("tol"),
                        seed=values["seed"], init=values.pop("init"))
    except ValueError as e:
        raise ConfigError(f"bad solver setting: {e}") from None
    if values["points"] not in (POINTS_FACTOR, POINTS_MATRIX):
        raise ConfigError(f"--points must be {POINTS_FACTOR} or {POINTS_MATRIX}")
    if not (0.0 <= values["threshold"] <= 1.0):
        raise ConfigError(f"--threshold must be in [0, 1], got {values['threshold']}")
    return PipelineConfig(window=window, ranks=list(range(r_lo, r_hi + 1)), nmf=nmf, **values)


def _require_input(path_str: str | None, flag: str) -> Path:
    if path_str is None:
        raise ConfigError(f"{flag} is required for this command")
    path = Path(path_str)
    if not path.exists():
        raise MissingInputError(f"input file not found: {path}")
    return path


def _ingest_file(path: Path, label: str, window: HourWindow) -> CountMatrix:
    with tio.read_text(path) as f:
        result = parse_records(f, ColumnMapping(), period_label=label)
    print(f"{path}: {len(result.records)} records parsed, {result.rejections.describe()}")
    matrix = build_matrix(result.records, window)
    n, m = matrix.shape
    print(f"{label}: {n} locations x {m} hour bins")
    return matrix


def _file_label(label: str) -> str:
    """A label as output file names carry it: every character other than a
    letter, a digit, '-' or '_' becomes '_'."""
    return "".join(c if c.isalnum() or c in "-_" else "_" for c in label)


def _out_file(out: Path, name: str, label: str) -> Path:
    return out / name.format(_file_label(label))


def _check_labels(cfg: PipelineConfig) -> None:
    # Two periods whose labels give the same file names would overwrite
    # each other's outputs.
    if _file_label(cfg.label_a) == _file_label(cfg.label_b):
        raise ConfigError(f"--label-a {cfg.label_a!r} and --label-b {cfg.label_b!r} "
                          f"give the same output file names")


def _scan(cfg: PipelineConfig, x: NormalizedMatrix, label: str) -> tuple[RankScanResult, Path]:
    """Scan the configured ranks, note each skipped rank on stderr, and
    write the scan table."""
    result = rank_scan(x, cfg.ranks, cfg.nmf, points=cfg.points)
    for rank, reason in result.skipped.items():
        print(f"{label}: rank {rank} skipped: {reason}", file=sys.stderr)
    scan_path = _out_file(cfg.out, "rank_scan_{}.csv", label)
    tio.write_scan_table(scan_path, result)
    return result, scan_path


def _solve(cfg: PipelineConfig, x: NormalizedMatrix, label: str,
           rank: int | None) -> tuple[NmfConfig, FactorPair]:
    """Solver settings and factorization of one period.

    A fixed rank is solved directly. Otherwise the ranks are scanned, the
    scan table is written, and the scan's own solve at the recommended
    rank is returned.
    """
    if rank is None:
        result, scan_path = _scan(cfg, x, label)
        print(f"{label}: scanned ranks {cfg.ranks[0]}..{cfg.ranks[-1]}, "
              f"recommended {result.recommended_rank} (wrote {scan_path})")
        return cfg.nmf.at_rank(result.recommended_rank), result.pairs[result.recommended_rank]
    nmf_cfg = cfg.nmf.at_rank(rank)
    return nmf_cfg, factorize(x, nmf_cfg)


def _write_factors(out: Path, label: str, nmf_cfg: NmfConfig, pair: FactorPair,
                   matrix: CountMatrix) -> None:
    tio.write_factor_tables(
        _out_file(out, "{}_location_loadings.csv", label),
        _out_file(out, "{}_time_loadings.csv", label),
        _out_file(out, "{}_diagnostics.json", label),
        pair, matrix, nmf_cfg,
    )


def cmd_ingest(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    inputs = [(cfg.input_a, cfg.label_a, "--input-a")]
    if cfg.input_b is not None:
        _check_labels(cfg)
        inputs.append((cfg.input_b, cfg.label_b, "--input-b"))
    cfg.out.mkdir(parents=True, exist_ok=True)
    for path_str, label, flag in inputs:
        path = _require_input(path_str, flag)
        matrix = _ingest_file(path, label, cfg.window)
        out_path = _out_file(cfg.out, "counts_{}.csv", label)
        tio.write_count_matrix(out_path, matrix)
        print(f"wrote {out_path}")
    return 0


def cmd_rank_scan(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    cfg.out.mkdir(parents=True, exist_ok=True)
    path = _require_input(cfg.input_a, "--input-a")
    matrix = tio.read_count_matrix(path, period_label=cfg.label_a)
    result, out_path = _scan(cfg, minmax_normalize(matrix), cfg.label_a)
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
    nmf_cfg, pair = _solve(cfg, minmax_normalize(matrix), cfg.label_a, cfg.rank_a)
    _write_factors(cfg.out, cfg.label_a, nmf_cfg, pair, matrix)
    print(f"factorized {cfg.label_a} at rank {pair.rank}: "
          f"loss {pair.objective_trace[-1]:.6g} after {pair.iterations_run} iterations"
          f" ({'converged' if pair.converged else 'max iterations'})")
    return 0


def _period(cfg: PipelineConfig, path: Path, label: str,
            rank: int | None) -> tuple[CountMatrix, PatternSet, tuple[str, str]]:
    """Everything `run` does for one period: ingest, count table, normalize,
    scan or fixed-rank solve, factor tables, patterns and pattern files.

    Returns the count matrix, the patterns and the (stdout, stderr) text of
    the period, captured so that a worker process never writes to the
    shared streams. An exception leaves with `stage`, the pipeline stage it
    came from, and `output`, the text captured until then.
    """
    out, err = StringIO(), StringIO()
    stage = "ingest"
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            matrix = _ingest_file(path, label, cfg.window)
            tio.write_count_matrix(_out_file(cfg.out, "counts_{}.csv", label), matrix)
            stage = "normalize"
            x = minmax_normalize(matrix)
            stage = "rank selection" if rank is None else "factorization"
            nmf_cfg, pair = _solve(cfg, x, label, rank)
            _write_factors(cfg.out, label, nmf_cfg, pair, matrix)
            stage = "pattern extraction"
            patterns = extract_patterns(pair, matrix, normalization_column_scales(x))
            tio.write_temporal_patterns(
                _out_file(cfg.out, "temporal_patterns_{}.csv", label), patterns)
            tio.write_spatial_geojson(
                _out_file(cfg.out, "spatial_patterns_{}.geojson", label), patterns)
    except BaseException as e:
        e.stage, e.output = stage, (out.getvalue(), err.getvalue())
        raise
    return matrix, patterns, (out.getvalue(), err.getvalue())


def _period_worker(conn, cfg: PipelineConfig, path: Path, label: str,
                   rank: int | None) -> None:
    """`_period` in a worker process: sends ("ok", result) or ("error",
    exception) back. Exceptions pickle their attributes, `stage` included."""
    try:
        reply = ("ok", _period(cfg, path, label, rank))
    except Exception as e:
        if not isinstance(e, TrafficNmfError):  # a bug: keep the worker's traceback
            import traceback  # here, so the other commands do not load it

            e.output = (e.output[0], e.output[1] + traceback.format_exc())
        reply = ("error", e)
    with conn:
        conn.send(reply)


def _receive(worker, conn, label: str):
    """The worker's `_period` result; raises the worker's exception."""
    try:
        status, value = conn.recv()
    except EOFError:
        worker.join()
        raise RuntimeError(f"the worker process of period {label} exited with code "
                           f"{worker.exitcode} without a result") from None
    if status == "error":
        raise value
    return value


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _start_method() -> str:
    """How `run` starts its worker: "fork" when this process has one thread,
    else "spawn".

    A forked worker starts at once with numpy and this package already
    imported; a spawned one imports them again first. Forking a process
    that has other threads can leave the child holding a lock no thread
    will release, so where the thread count cannot be read (no
    /proc/self/task: not Linux, or no /proc) the worker is spawned too.
    """
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:
        return "spawn"
    return "fork" if threads == 1 else "spawn"


def _emit(output: tuple[str, str]) -> None:
    sys.stdout.write(output[0])
    sys.stderr.write(output[1])


def cmd_run(args: argparse.Namespace) -> int:
    """Both periods, then the comparison.

    With two or more CPUs, period B runs in a worker process (started as
    `_start_method` says) while period A runs here; with one, B runs here
    after A. The outputs are the same either way. A failure in B is raised
    once A is done.
    """
    import multiprocessing  # only `run` starts a worker; other commands skip the import

    cfg = _resolve(args)
    _check_labels(cfg)
    cfg.out.mkdir(parents=True, exist_ok=True)
    stage = "ingest"
    worker = conn = None
    try:
        path_a = _require_input(cfg.input_a, "--input-a")
        period_b = (cfg, _require_input(cfg.input_b, "--input-b"), cfg.label_b, cfg.rank_b)
        if _cpu_count() > 1:
            ctx = multiprocessing.get_context(_start_method())
            conn, child_conn = ctx.Pipe(duplex=False)
            # With this process's copy of the write end closed, a worker that
            # dies without replying ends the read with EOFError, not a hang.
            with child_conn:
                process = ctx.Process(target=_period_worker, args=(child_conn, *period_b))
                process.start()
            worker = process
        matrix_a, patterns_a, output = _period(cfg, path_a, cfg.label_a, cfg.rank_a)
        _emit(output)
        if worker is not None:
            matrix_b, patterns_b, output = _receive(worker, conn, cfg.label_b)
        else:
            matrix_b, patterns_b, output = _period(*period_b)
        _emit(output)

        stage = "comparison"
        match = match_patterns(patterns_a, patterns_b, cfg.threshold)
        report = compare_periods(matrix_a, matrix_b, match, patterns_a, patterns_b)
        tio.write_comparison_report(
            cfg.out / "report.json", cfg.out / "summary.txt", report, patterns_a, patterns_b,
        )
    except BaseException as e:
        if worker is not None:
            worker.terminate()
        _emit(getattr(e, "output", ("", "")))
        if isinstance(e, TrafficNmfError):
            print(f"pipeline failed during {getattr(e, 'stage', stage)}; "
                  f"outputs under {cfg.out} may be partial", file=sys.stderr)
        raise
    finally:
        if worker is not None:
            worker.join()
        if conn is not None:
            conn.close()

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
    with _out_file(out, "planted_w_{}.csv", label).open("w", newline="", encoding="utf-8") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow([f"p{g + 1}" for g in range(period.planted_w.shape[1])])
        for row in period.planted_w:
            w.writerow([repr(float(v)) for v in row])
    with _out_file(out, "planted_h_{}.csv", label).open("w", newline="", encoding="utf-8") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["hour"] + [f"p{g + 1}" for g in range(period.planted_h.shape[1])])
        for j, hour in enumerate(period.hours):
            w.writerow([hour] + [repr(float(v)) for v in period.planted_h[j]])


def cmd_synth(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    if cfg.pair_drop is not None:
        _check_labels(cfg)
    try:
        spec = SyntheticSpec(
            n_locations=cfg.locations,
            n_hours=len(cfg.window.hours()),
            planted_rank=cfg.rank,
            noise_level=cfg.noise,
            seed=cfg.seed,
        )
        if cfg.pair_drop is not None:
            periods = list(generate_pair(
                spec, drop=cfg.pair_drop, count_scale=cfg.pair_scale,
                period_a=cfg.label_a, period_b=cfg.label_b, window=cfg.window,
            ))
        else:
            periods = [generate_period(spec, period_label=cfg.label_a, window=cfg.window)]
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
    if cfg.pair_drop is not None:
        manifest["pair"] = {
            "drop": cfg.pair_drop,
            "count_scale": cfg.pair_scale,
            "rank_b": spec.planted_rank - cfg.pair_drop,
        }

    cfg.out.mkdir(parents=True, exist_ok=True)
    manifest["periods"] = {}
    for period in periods:
        records_path = _out_file(cfg.out, "synth_{}.csv", period.period_label)
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


_SOLVER = ("tol", "max_iters", "init")

# (command, handler, help, settings beyond --config, --out, --seed and --hours)
_COMMANDS = (
    ("ingest", cmd_ingest, "aggregate raw count records into matrix tables",
     ("input_a", "input_b", "label_a", "label_b")),
    ("rank-scan", cmd_rank_scan, "score candidate ranks on an ingested matrix",
     ("input_a", "label_a", "ranks", "points", *_SOLVER)),
    ("factorize", cmd_factorize, "factorize an ingested matrix at a fixed rank",
     ("input_a", "label_a", "rank_a", *_SOLVER)),
    ("run", cmd_run, "full two-period pipeline with all exports",
     ("input_a", "input_b", "label_a", "label_b", "ranks", "rank_a", "rank_b", "points",
      *_SOLVER, "threshold")),
    ("synth", cmd_synth, "generate planted-factor record files",
     ("label_a", "label_b", "locations", "rank", "noise", "pair_drop", "pair_scale")),
)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="trafficnmf",
                     description="Elicit and compare spatio-temporal traffic patterns "
                                 "from vehicle-count records.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, handler, text, keys in _COMMANDS:
        p = sub.add_parser(command, help=text)
        p.add_argument("--config", help="JSON config file; flags override its values")
        for key in ("out", "seed", "hours", *keys):
            _, default, help_text = _SETTINGS[key]
            if default is not None:
                help_text += f" (default {default})"
            p.add_argument(_flag(key), dest=key, help=help_text)
        p.set_defaults(func=handler)
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
