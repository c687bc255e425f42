"""Command-line pipeline: ingest -> rank-scan -> factorize -> run -> synth.

Settings come from flags, an optional JSON config file, or built-in
defaults, in that order of precedence. All outputs are deterministic for
a fixed config and BLAS thread count (one unless OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS or MKL_NUM_THREADS sets another): every random choice
derives from the single seed, fanned out per stage (each factorization at
rank r is seeded by NmfConfig.at_rank, synthetic period B uses seed + 1).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import sys
from dataclasses import dataclass
from io import StringIO
from pathlib import Path
from typing import TYPE_CHECKING

# One BLAS thread unless the user set a count, read as the next import loads
# numpy: more would start BLAS threads, and `run` would then not fork.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

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
from .nmf import (
    DEFAULT_MATCH_THRESHOLD,
    INIT_RANDOM,
    FactorPair,
    NmfConfig,
    factorize,
)

# Each command imports only what it runs: rank selection in rank-scan and
# run, patterns in run, the synthetic generator in synth.
if TYPE_CHECKING:
    from .patterns import PatternSet
    from .rank import RankScanResult


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
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:  # e.g. a directory, or a byte that is not UTF-8
        raise ConfigError(f"config file {p} cannot be read: {e}") from None
    try:
        cfg = json.loads(text)
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
        try:
            result = parse_records(f, ColumnMapping(), period_label=label)
            print(f"{path}: {len(result.records)} records parsed, {result.rejections.describe()}")
            matrix = build_matrix(result.records, window)
        except DataError as e:  # these know no file name; read_text's own errors carry it
            sep = ", " if str(e).startswith("line ") else ": "  # "<file>, line N:" as theirs
            raise type(e)(f"{path}{sep}{e}") from None
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
    from .rank import rank_scan

    result = rank_scan(x, cfg.ranks, cfg.nmf)
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


def _period(cfg: PipelineConfig, path: Path, label: str, rank: int | None) -> PatternSet:
    """Everything `run` does for one period: ingest, count table, normalize,
    scan or fixed-rank solve, factor tables, patterns and pattern files.

    Returns the patterns, which carry the count matrix. An exception leaves
    with `stage`, the pipeline stage it came from.
    """
    from .patterns import extract_patterns

    stage = "ingest"
    try:
        matrix = _ingest_file(path, label, cfg.window)
        tio.write_count_matrix(_out_file(cfg.out, "counts_{}.csv", label), matrix)
        stage = "normalize"
        x = minmax_normalize(matrix)
        stage = "rank selection" if rank is None else "factorization"
        nmf_cfg, pair = _solve(cfg, x, label, rank)
        _write_factors(cfg.out, label, nmf_cfg, pair, matrix)
        stage = "pattern extraction"
        patterns = extract_patterns(pair, x)
        tio.write_temporal_patterns(
            _out_file(cfg.out, "temporal_patterns_{}.csv", label), patterns)
        tio.write_spatial_geojson(
            _out_file(cfg.out, "spatial_patterns_{}.geojson", label), patterns)
    except BaseException as e:
        e.stage = stage
        raise
    return patterns


def _period_worker(conn, cfg: PipelineConfig, path: Path, label: str,
                   rank: int | None) -> None:
    """`_period` in a worker process, its output captured so that it never
    writes to the shared streams: sends (("ok", patterns) or ("error",
    exception), stdout, stderr) back. Exceptions pickle `stage` with them."""
    out, err = StringIO(), StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            reply = ("ok", _period(cfg, path, label, rank))
    except Exception as e:
        if not isinstance(e, TrafficNmfError):  # a bug: keep the worker's traceback
            import traceback  # here, so the other commands do not load it

            err.write(traceback.format_exc())
        reply = ("error", e)
    with conn:
        conn.send((reply, out.getvalue(), err.getvalue()))


def _receive(worker, conn, label: str) -> PatternSet:
    """Write the worker's stdout and stderr here, then return the patterns
    of its `_period` or raise its exception."""
    try:
        (status, value), out, err = conn.recv()
    except EOFError:
        worker.join()
        raise RuntimeError(f"the worker process of period {label} exited with code "
                           f"{worker.exitcode} without a result") from None
    sys.stdout.write(out)
    sys.stderr.write(err)
    if status == "error":
        raise value
    return value


def _forks_worker() -> bool:
    """Whether `run` forks a worker for period B: when this process has one
    thread and may run on two or more CPUs.

    A forked worker starts at once with numpy and this package already
    imported. Forking a process that has other threads can leave the child
    holding a lock no thread will release, so such a process runs B after A,
    as does one whose threads cannot be counted (no /proc/self/task: not
    Linux, or no /proc).
    """
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:
        return False
    return threads == 1 and len(os.sched_getaffinity(0)) > 1


def cmd_run(args: argparse.Namespace) -> int:
    """Both periods, then the comparison.

    When `_forks_worker` says so, period B runs in a forked worker process
    while period A runs here; otherwise B runs here after A. The outputs are
    the same either way. A failure in B is raised once A is done.
    """
    import multiprocessing  # only `run` starts a worker; other commands skip the import

    from .patterns import compare_periods, match_patterns

    cfg = _resolve(args)
    _check_labels(cfg)
    cfg.out.mkdir(parents=True, exist_ok=True)
    stage = "ingest"
    worker = conn = None
    try:
        path_a = _require_input(cfg.input_a, "--input-a")
        period_b = (cfg, _require_input(cfg.input_b, "--input-b"), cfg.label_b, cfg.rank_b)
        if _forks_worker():
            ctx = multiprocessing.get_context("fork")
            conn, child_conn = ctx.Pipe(duplex=False)
            # With this process's copy of the write end closed, a worker that
            # dies without replying ends the read with EOFError, not a hang.
            with child_conn:
                process = ctx.Process(target=_period_worker, args=(child_conn, *period_b))
                process.start()
            worker = process
        patterns_a = _period(cfg, path_a, cfg.label_a, cfg.rank_a)
        if worker is not None:
            patterns_b = _receive(worker, conn, cfg.label_b)
        else:
            patterns_b = _period(*period_b)

        stage = "comparison"
        match = match_patterns(patterns_a, patterns_b, cfg.threshold)
        report = compare_periods(patterns_a, patterns_b, match)
        summary = tio.write_comparison_report(cfg.out / "report.json", cfg.out / "summary.txt",
                                              report)
    except BaseException as e:
        if worker is not None:
            worker.terminate()
        if isinstance(e, TrafficNmfError):
            print(f"pipeline failed during {getattr(e, 'stage', stage)}; "
                  f"outputs under {cfg.out} may be partial", file=sys.stderr)
        raise
    finally:
        if worker is not None:
            worker.join()
        if conn is not None:
            conn.close()

    print(summary, end="")
    print(f"wrote {cfg.out / 'report.json'} and {cfg.out / 'summary.txt'}")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    from .synth import SyntheticSpec, generate_pair, generate_period

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
        label = period.period_label
        records_path = _out_file(cfg.out, "synth_{}.csv", label)
        tio.write_synth_period(records_path, _out_file(cfg.out, "planted_w_{}.csv", label),
                               _out_file(cfg.out, "planted_h_{}.csv", label), period)
        manifest["periods"][label] = {
            "records_file": records_path.name,
            "realized_noise": period.realized_noise,
            "total_count": float(period.counts.sum()),
            "planted_rank": period.planted_h.shape[1],
        }
        print(f"wrote {records_path} (realized noise {period.realized_noise:.4f})")
    tio.write_json(cfg.out / "synth_manifest.json", manifest)
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
     ("input_a", "label_a", "ranks", *_SOLVER)),
    ("factorize", cmd_factorize, "factorize an ingested matrix at a fixed rank",
     ("input_a", "label_a", "rank_a", *_SOLVER)),
    ("run", cmd_run, "full two-period pipeline with all exports",
     ("input_a", "input_b", "label_a", "label_b", "ranks", "rank_a", "rank_b", *_SOLVER,
      "threshold")),
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
    """Run one command; returns its exit code.

    Without `argv` this is the program itself (`python -m trafficnmf.cli`, the
    `trafficnmf` script), and the objects alive at this point, modules,
    classes and functions, live until it exits. They are frozen out of the
    garbage collector, which then skips them at every collection, the one at
    exit included, and `run`'s forked worker inherits them frozen. A caller
    that passes `argv` keeps its collector as it was.
    """
    if argv is None:
        gc.freeze()
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
