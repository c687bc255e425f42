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
import pickle
import sys
from dataclasses import asdict
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
    RejectionSummary,
    _accepted_rows,
    _Aggregate,
    minmax_normalize,
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


# Every setting: key -> (conversion, default or None for unset, help). A command
# takes those `_COMMANDS` lists, as flags (the key with dashes) or config keys.
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


def _load_config_file(path: str | None, command: str, keys: tuple[str, ...]) -> dict:
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
        if key not in keys:
            raise ConfigError(f"config file {p} has an unknown key {key!r} for {command}")
    return cfg


def _resolve(args: argparse.Namespace) -> argparse.Namespace:
    """Merge flags over config-file values over defaults, then convert and
    check every value; flags win. The result holds the command's settings in
    `_COMMANDS`, plus `window` and `nmf` if it takes `hours` and `_SOLVER`."""
    keys = next(c[3] for c in _COMMANDS if c[0] == args.command)
    file_cfg = _load_config_file(args.config, args.command, keys)
    cfg = argparse.Namespace()
    for key in keys:
        convert, default, _ = _SETTINGS[key]
        value = getattr(args, key)
        if value is None:
            value = file_cfg.get(key)
        if value is None:
            value = default
        try:
            if isinstance(value, bool):  # no setting is a switch; int(True) is 1
                raise ValueError("not a boolean setting")
            setattr(cfg, key, None if value is None else convert(value))
        except (TypeError, ValueError) as e:
            raise ConfigError(f"{_flag(key)} has a bad value {value!r}: {e}") from None

    if "hours" in keys:
        try:
            cfg.window = HourWindow(*cfg.hours)
        except ValueError as e:
            raise ConfigError(f"--hours: {e}") from None
    for key in ("ranks", "rank_a", "rank_b"):
        value = vars(cfg).get(key)
        for rank in value if isinstance(value, tuple) else [value]:  # a span, or one rank
            if rank is not None and not 1 <= rank <= 24:  # no matrix has more hour bins
                raise ConfigError(f"{_flag(key)} must be in 1..24, got {rank}")
    if "tol" in keys:  # the solver settings
        try:
            cfg.nmf = NmfConfig(rank=1, seed=cfg.seed, **{k: getattr(cfg, k) for k in _SOLVER})
        except ValueError as e:
            raise ConfigError(f"bad solver setting: {e}") from None
    if "threshold" in keys and not 0.0 <= cfg.threshold <= 1.0:
        raise ConfigError(f"--threshold must be in [0, 1], got {cfg.threshold}")
    return cfg


def _require_input(path_str: str | None, flag: str) -> Path:
    if path_str is None:
        raise ConfigError(f"{flag} is required for this command")
    path = Path(path_str)
    if not path.exists():
        raise MissingInputError(f"input file not found: {path}")
    return path


def _make_out(out: Path) -> None:
    """Make the output directory and its parents; ConfigError if that fails."""
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:  # e.g. --out, or a directory above it, is a file
        raise ConfigError(f"--out {out} cannot be made a directory: {e.strerror}") from None


def _ingest(cfg: argparse.Namespace, path: Path, label: str) -> CountMatrix:
    """Parse and aggregate one period's raw records in one pass; write its count table."""
    with tio.read_text(path) as f:
        try:
            cells, rejections = _Aggregate(cfg.window), RejectionSummary()
            for group in _accepted_rows(f, ColumnMapping(), rejections, cells.codes):
                cells.add(*group)
            print(f"{path}: {cells.records} records parsed, {rejections.describe()}")
            matrix = cells.matrix(label)
        except DataError as e:  # these know no file name
            sep = ", " if str(e).startswith("line ") else ": "  # "<file>, line N:" as theirs
            raise type(e)(f"{path}{sep}{e}") from None
    n, m = matrix.shape
    print(f"{label}: {n} locations x {m} hour bins")
    tio.write_count_matrix(_out_file(cfg.out, "counts_{}.csv", label), matrix)
    return matrix


def _file_label(label: str) -> str:
    """A label as output file names carry it: every character other than a
    letter, a digit, '-' or '_' becomes '_'."""
    return "".join(c if c.isalnum() or c in "-_" else "_" for c in label)


def _out_file(out: Path, name: str, label: str) -> Path:
    return out / name.format(_file_label(label))


def _check_labels(cfg: argparse.Namespace) -> None:
    # Two periods whose labels give the same file names would overwrite
    # each other's outputs.
    if _file_label(cfg.label_a) == _file_label(cfg.label_b):
        raise ConfigError(f"--label-a {cfg.label_a!r} and --label-b {cfg.label_b!r} "
                          f"give the same output file names")


def _scan(cfg: argparse.Namespace, x: NormalizedMatrix, label: str) -> tuple[RankScanResult, Path]:
    """Scan the configured ranks, note each skipped rank on stderr, and
    write the scan table."""
    from .rank import rank_scan

    result = rank_scan(x, range(cfg.ranks[0], cfg.ranks[1] + 1), cfg.nmf)
    for rank, reason in result.skipped.items():
        print(f"{label}: rank {rank} skipped: {reason}", file=sys.stderr)
    scan_path = _out_file(cfg.out, "rank_scan_{}.csv", label)
    tio.write_scan_table(scan_path, result)
    return result, scan_path


def _prepare(cfg: argparse.Namespace, path: Path, label: str, raw: bool) -> NormalizedMatrix:
    """The first step of a period: its normalized matrix, whose `source` is
    the count matrix. Raw records are ingested, and their count table is
    written; otherwise `path` is a count table, and it is read."""
    matrix = _ingest(cfg, path, label) if raw else tio.read_count_matrix(path, period_label=label)
    return minmax_normalize(matrix)


def _solve(cfg: argparse.Namespace, x: NormalizedMatrix, label: str,
           rank: int | None) -> tuple[NmfConfig, FactorPair]:
    """The second step: solver settings and factorization of one period.

    A fixed rank is solved directly. Otherwise the ranks are scanned, the
    scan table is written, and the scan's own solve at the recommended
    rank is returned.
    """
    if rank is None:
        result, scan_path = _scan(cfg, x, label)
        print(f"{label}: scanned ranks {cfg.ranks[0]}..{cfg.ranks[1]}, "
              f"recommended {result.recommended_rank} (wrote {scan_path})")
        return cfg.nmf.at_rank(result.recommended_rank), result.pairs[result.recommended_rank]
    nmf_cfg = cfg.nmf.at_rank(rank)
    return nmf_cfg, factorize(x, nmf_cfg)


def _finish(cfg: argparse.Namespace, x: NormalizedMatrix, label: str, nmf_cfg: NmfConfig,
            pair: FactorPair, patterns: bool = False) -> PatternSet | None:
    """The last step: write the factor tables, and with `patterns` also
    extract the patterns, write the pattern files and return the patterns."""
    tio.write_factor_tables(
        _out_file(cfg.out, "{}_location_loadings.csv", label),
        _out_file(cfg.out, "{}_time_loadings.csv", label),
        _out_file(cfg.out, "{}_diagnostics.json", label),
        pair, x.source, nmf_cfg,
    )
    if not patterns:
        return None
    from .patterns import extract_patterns

    found = extract_patterns(pair, x)
    tio.write_temporal_patterns(_out_file(cfg.out, "temporal_patterns_{}.csv", label), found)
    tio.write_spatial_geojson(_out_file(cfg.out, "spatial_patterns_{}.geojson", label), found)
    return found


def cmd_ingest(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    inputs = [(cfg.input_a, cfg.label_a, "--input-a")]
    if cfg.input_b is not None:
        _check_labels(cfg)
        inputs.append((cfg.input_b, cfg.label_b, "--input-b"))
    _make_out(cfg.out)
    for path_str, label, flag in inputs:
        _ingest(cfg, _require_input(path_str, flag), label)
        print(f"wrote {_out_file(cfg.out, 'counts_{}.csv', label)}")
    return 0


def cmd_rank_scan(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    _make_out(cfg.out)
    x = _prepare(cfg, _require_input(cfg.input_a, "--input-a"), cfg.label_a, raw=False)
    result, out_path = _scan(cfg, x, cfg.label_a)
    print(f"wrote {out_path}")
    print(f"recommended rank: {result.recommended_rank}")
    return 0


def cmd_factorize(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    _make_out(cfg.out)
    path = _require_input(cfg.input_a, "--input-a")
    if cfg.rank_a is None:
        raise ConfigError("--rank-a is required for factorize")
    x = _prepare(cfg, path, cfg.label_a, raw=False)
    nmf_cfg, pair = _solve(cfg, x, cfg.label_a, cfg.rank_a)
    _finish(cfg, x, cfg.label_a, nmf_cfg, pair)
    print(f"factorized {cfg.label_a} at rank {pair.rank}: "
          f"loss {pair.objective_trace[-1]:.6g} after {pair.iterations_run} iterations"
          f" ({'converged' if pair.converged else 'max iterations'})")
    return 0


def _period(cfg: argparse.Namespace, path: Path, label: str, rank: int | None,
            base: bool = False) -> PatternSet:
    """Everything `run` does for one period: prepare, solve and finish.

    Returns the patterns, which carry the count matrix. The `base` period
    of the comparison fails as soon as its counts are known to sum to 0. A
    package error leaves with `stage`, the pipeline stage it came from:
    "ingest", "comparison" for that zero total, then "rank selection" or
    "factorization".
    """
    stage = "ingest"
    try:
        x = _prepare(cfg, path, label, raw=True)
        if base:
            from .patterns import _reduction_base

            stage = "comparison"
            _reduction_base(x.source)
        stage = "rank selection" if rank is None else "factorization"
        return _finish(cfg, x, label, *_solve(cfg, x, label, rank), patterns=True)
    except TrafficNmfError as e:
        e.stage = stage
        raise


def _period_worker(fd: int, cfg: argparse.Namespace, path: Path, label: str,
                   rank: int | None) -> None:
    """`_period` in a worker process, its output captured so that it never
    writes to the shared streams: pickles (("ok", patterns) or ("error",
    exception), stdout, stderr) into the pipe `fd`; exceptions keep `stage`."""
    out, err = StringIO(), StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            reply = ("ok", _period(cfg, path, label, rank))
    except Exception as e:
        if not isinstance(e, TrafficNmfError):  # a bug: keep the worker's traceback
            import traceback  # here, so the other commands do not load it

            err.write(traceback.format_exc())
        reply = ("error", e)
    with open(fd, "wb") as pipe:  # pickled whole first: one that cannot be leaves EOF
        pipe.write(pickle.dumps((reply, out.getvalue(), err.getvalue())))


def _receive(pid: int, fd: int, label: str) -> PatternSet:
    """Write the worker's stdout and stderr here, then return its `_period`'s
    patterns or raise its exception; reap a worker that left no reply."""
    with open(fd, "rb", closefd=False) as pipe:
        data = pipe.read()
    try:
        (status, value), out, err = pickle.loads(data)
    except (EOFError, pickle.UnpicklingError):  # no reply, or a cut one
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        raise RuntimeError(f"the worker process of period {label} exited with code "
                           f"{code} without a result") from None
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
    the same either way. A failure in B is raised once A is done. From just
    before the fork, a SIGTERM to this process, in the main thread, stops the
    worker too, and this process then exits with code 143 (128 + SIGTERM).
    """
    import signal  # only `run` stops a worker; other commands skip the import
    import threading

    from .patterns import compare_periods, match_patterns

    owner = os.getpid()

    def exit_on_sigterm(signum, frame):
        if os.getpid() != owner:  # a worker not yet in its `try`: leave as it would
            os._exit(128 + signum)
        raise SystemExit(128 + signum)

    cfg = _resolve(args)
    _check_labels(cfg)
    _make_out(cfg.out)
    stage = "ingest"
    worker = fd = previous = None
    try:
        path_a = _require_input(cfg.input_a, "--input-a")
        period_b = (cfg, _require_input(cfg.input_b, "--input-b"), cfg.label_b, cfg.rank_b)
        if _forks_worker():
            if threading.current_thread() is threading.main_thread():  # as signal requires
                previous = signal.signal(signal.SIGTERM, exit_on_sigterm)
            fd, write_fd = os.pipe()
            signal.pthread_sigmask(signal.SIG_BLOCK, [signal.SIGTERM])  # held until `worker`
            worker = os.fork()                                           # is set; the child's
            signal.pthread_sigmask(signal.SIG_UNBLOCK, [signal.SIGTERM])  # pending set is empty
            if worker == 0:  # the worker: it leaves by os._exit, never into the caller's
                try:         # stack, its atexit handlers or its unflushed stdio buffers
                    os.close(fd)
                    _period_worker(write_fd, *period_b)
                    os._exit(0)
                except BaseException:  # e.g. a reply that cannot be pickled
                    import traceback

                    os.write(2, traceback.format_exc().encode(errors="backslashreplace"))
                finally:
                    os._exit(1)
            # With this process's copy of the write end closed, a worker that
            # dies without replying ends the read at EOF, not a hang.
            os.close(write_fd)
        patterns_a = _period(cfg, path_a, cfg.label_a, cfg.rank_a, base=True)
        if worker is not None:
            patterns_b = _receive(worker, fd, cfg.label_b)
        else:
            patterns_b = _period(*period_b)

        stage = "comparison"
        match = match_patterns(patterns_a, patterns_b, cfg.threshold)
        report = compare_periods(patterns_a, patterns_b, match)
        summary = tio.write_comparison_report(cfg.out / "report.json", cfg.out / "summary.txt",
                                              report)
    except TrafficNmfError as e:
        print(f"pipeline failed during {getattr(e, 'stage', stage)}; "
              f"outputs under {cfg.out} may be partial", file=sys.stderr)
        raise
    finally:
        if worker is not None:
            with contextlib.suppress(ChildProcessError):  # `_receive` reaps one that died
                if os.waitpid(worker, os.WNOHANG)[0] == 0:  # running: A failed, SIGTERM
                    os.kill(worker, signal.SIGTERM)         # came, or it is just leaving
                    os.waitpid(worker, 0)
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)
        if fd is not None:
            os.close(fd)

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

    manifest: dict = {**asdict(spec), "hours": cfg.window.hours()}
    if cfg.pair_drop is not None:
        manifest["pair"] = {
            "drop": cfg.pair_drop,
            "count_scale": cfg.pair_scale,
            "rank_b": spec.planted_rank - cfg.pair_drop,
        }

    _make_out(cfg.out)
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


_SOLVER = ("tol", "max_iters", "init")  # settings named as NmfConfig's fields

# (command, handler, help, the settings it takes beyond --config, in --help's order)
_COMMANDS = (
    ("ingest", cmd_ingest, "aggregate raw count records into matrix tables",
     ("out", "hours", "input_a", "input_b", "label_a", "label_b")),
    ("rank-scan", cmd_rank_scan, "score candidate ranks on an ingested matrix",
     ("out", "seed", "input_a", "label_a", "ranks", *_SOLVER)),
    ("factorize", cmd_factorize, "factorize an ingested matrix at a fixed rank",
     ("out", "seed", "input_a", "label_a", "rank_a", *_SOLVER)),
    ("run", cmd_run, "full two-period pipeline with all exports",
     ("out", "seed", "hours", "input_a", "input_b", "label_a", "label_b", "ranks", "rank_a",
      "rank_b", *_SOLVER, "threshold")),
    ("synth", cmd_synth, "generate planted-factor record files",
     ("out", "seed", "hours", "label_a", "label_b", "locations", "rank", "noise", "pair_drop",
      "pair_scale")),
)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="trafficnmf",
                     description="Elicit and compare spatio-temporal traffic patterns "
                                 "from vehicle-count records.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, handler, text, keys in _COMMANDS:
        p = sub.add_parser(command, help=text)
        p.add_argument("--config", help="JSON config file; flags override its values")
        for key in keys:
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
    except (ConfigError, DataError, NumericalError) as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code


if __name__ == "__main__":
    sys.exit(main())
