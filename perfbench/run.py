"""Benchmark of the trafficnmf pipeline: timed end-to-end runs and a traced per-layer run.

Run from the root of a checkout; the program is run from its ``src/`` as
child processes:

    python3 perfbench/run.py --workload paper_scan --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all        # every workload in turn

With ``--trace 0`` it repeats the workload for ``--seconds`` and reports the
end-to-end metrics; with ``--trace 1`` it alternates untraced repetitions
with traced ones (see tracer.py) and reports the per-layer metrics. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. See README.md in this directory.
"""

from __future__ import annotations

import os

# Single-threaded BLAS in this process and, through the environment, in every
# program process: thread count changes the last digits of the solver output.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

import tracer  # noqa: E402
from workloads import FULL, WORKLOADS, Proc, prepare_inputs, quality, tree_digest  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# setup_s samples are taken in batches before every repetition and once after
# the last, so they span the same stretch of time as the repetitions.
SETUP_BATCH = 2
# A run starts no repetition after this many seconds and kills any program
# process still running at HARD_DEADLINE_S, so it always ends within 180 s.
SOFT_DEADLINE_S = 140.0
HARD_DEADLINE_S = 170.0

END_TO_END = [
    ("wall_s", "s", "lower"),
    ("records_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("success_ratio", "ratio", "higher"),
    ("rel_residual", "ratio", "lower"),
    ("pattern_recovery", "cosine", "higher"),
]


@dataclass
class Rep:
    """One repetition of a workload: all of its program processes."""

    traced: bool
    wall_s: float
    process_walls: list[float]
    rss_mb: float
    errors: list[str]
    residual: float | None = None
    recovery: float | None = None
    layers: dict[str, float] = field(default_factory=dict)


class Program:
    """Starts program processes through launcher.py, with pinned threads."""

    def __init__(self, logs: Path, started: float) -> None:
        self.logs = logs
        self.started = started
        self.count = 0
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        self.launcher = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "launcher.py")], env=env, cwd=ROOT,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __enter__(self) -> "Program":
        return self

    def __exit__(self, *exc) -> None:
        self.launcher.stdin.close()
        self.launcher.wait()
        self.launcher.stdout.close()

    def spawn(self, cmd: list[str]):
        """Run cmd to completion; return (wall s, max RSS MB, exit code, stdout)."""
        self.count += 1
        out_path = self.logs / f"{self.count}.out"
        request = {"cmd": cmd, "stdout": str(out_path),
                   "stderr": str(self.logs / f"{self.count}.err"),
                   "timeout": HARD_DEADLINE_S - (time.monotonic() - self.started)}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = json.loads(self.launcher.stdout.readline())
        return (reply["wall_s"], reply["rss_kb"] / 1024.0, reply["code"],
                out_path.read_text(encoding="utf-8"))

    def call(self, spans: list[Path] | None = None):
        """A workload `call(argv)`: untraced, or traced with one span file per process."""
        def call(argv: list[str]) -> Proc:
            if spans is None:
                cmd = [sys.executable, "-m", "trafficnmf.cli", *argv]
            else:
                spans.append(self.logs / f"spans_{self.count + 1}.json")
                cmd = [sys.executable, str(BENCH_DIR / "tracer.py"), str(spans[-1]), "--", *argv]
            wall, rss, code, stdout = self.spawn(cmd)
            return Proc(argv, wall, rss, code, stdout)
        return call


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_desc = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_desc = "unknown"
    return {"blas_threads": int(BLAS_THREADS),
            "thread_vars": {v: os.environ[v] for v in THREAD_VARS},
            "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": blas_desc}


def high_percentile(samples: list[float]) -> dict | None:
    """The highest percentile with at least ten samples beyond it (None below 11 samples)."""
    n = len(samples)
    if n < 11:
        return None
    return {"percentile": round(100.0 * (n - 10) / n, 1), "value": sorted(samples)[n - 11],
            "samples": n}


def measure(workload_name: str, seed: int, seconds: float, trace: bool, scale=None,
            corrupt: Callable[[Path, int], None] | None = None) -> dict:
    """One benchmark run of one workload; returns the result object.

    `corrupt(out_dir, repetition)` is called after the program wrote a
    repetition's outputs and before they are checked (for the self-test).
    """
    workload = WORKLOADS[workload_name]
    scale = scale or FULL
    started = time.monotonic()
    base = WORK / "runs" / workload.name
    shutil.rmtree(base, ignore_errors=True)
    logs, out = base / "logs", base / "out"
    logs.mkdir(parents=True)
    with Program(logs, started) as program:
        gen_start = time.perf_counter()
        inputs, truth, generated = prepare_inputs(workload, scale, seed, WORK / "cache",
                                                  program.call())
        generate_s = time.perf_counter() - gen_start

        setup: list[float] = []

        def sample_setup(count: int) -> None:
            for _ in range(count):
                wall, _, code, _ = program.spawn([sys.executable, "-m", "trafficnmf.cli", "--help"])
                if code != 0:
                    raise RuntimeError(f"trafficnmf --help exited {code}")
                setup.append(wall)

        if not trace:
            sample_setup(1)  # warm the file cache and the bytecode cache
            setup.clear()

        reference: dict[str, str] = {}

        def repetition(traced: bool) -> Rep:
            index = len(reps)
            shutil.rmtree(out, ignore_errors=True)
            out.mkdir(parents=True)
            spans: list[Path] = []
            procs = workload.execute(inputs, truth, out, program.call(spans if traced else None))
            rep = Rep(traced, sum(p.wall_s for p in procs), [p.wall_s for p in procs],
                      max(p.rss_mb for p in procs), [])
            rep.errors = [f"{p.argv[0]} exited {p.code}" for p in procs if p.code != 0]
            if rep.errors:
                return rep
            if corrupt:
                corrupt(out, index)
            try:
                rep.errors += workload.check(inputs, truth, out, procs)
                rep.residual, rep.recovery = quality(workload.factorizations(truth, out))
                digest = tree_digest(out)
            except (OSError, ValueError, KeyError, IndexError, AttributeError) as e:
                rep.errors.append(f"output check raised {e!r}")
                return rep
            if not reference:
                reference.update(digest)
            elif digest != reference:
                changed = sorted(k for k in digest.keys() | reference.keys()
                                 if digest.get(k) != reference.get(k))
                rep.errors.append(f"outputs differ from the first repetition's: {changed[:5]}")
            if traced:
                rep.layers = tracer.layer_metrics(
                    [json.loads(p.read_text(encoding="utf-8")) for p in spans])
                rep.layers["io.bytes_written"] = sum(
                    p.stat().st_size for p in out.rglob("*") if p.is_file())
            return rep

        reps: list[Rep] = []
        durations: list[float] = []
        measure_start = time.monotonic()
        while True:
            # Traced runs alternate with untraced ones, which give the overhead's base.
            traced = trace and len(reps) % 2 == 1
            rep_start = time.monotonic()
            if not trace:
                sample_setup(SETUP_BATCH)
            reps.append(repetition(traced))
            durations.append(time.monotonic() - rep_start)
            step = statistics.median(durations)
            done = len(reps) >= 2 and time.monotonic() - measure_start + step > seconds
            if done or time.monotonic() - started + step > SOFT_DEADLINE_S:
                break
        if not trace:
            sample_setup(SETUP_BATCH)

    shutil.rmtree(out, ignore_errors=True)
    failed = [r for r in reps if r.errors]
    ok = [r for r in reps if not r.errors]
    result = {"correct": False, "attempted": len(reps), "failed": len(failed)}
    info = {"workload": workload.name, "seed": seed, "scale": scale.__dict__,
            "environment": environment(), "generate_s": generate_s,
            "inputs_cached": not generated, "input_rows": truth["rows"],
            "errors": [e for r in failed for e in r.errors]}

    untraced = [r for r in ok if not r.traced]
    if trace:
        traced_reps = [r for r in ok if r.traced]
        result["metrics"] = _layer_result(traced_reps, untraced, info)
    else:
        walls = [r.wall_s for r in untraced]
        wall = statistics.median(walls) if walls else None
        process_walls = [w for r in untraced for w in r.process_walls]
        info.update({"wall_s_samples": walls, "wall_s_high": high_percentile(walls),
                     "process_wall_s_high": high_percentile(process_walls),
                     "setup_s_samples": setup, "fail_ratio": len(failed) / len(reps)})
        values = {
            "wall_s": wall,
            "records_per_s": truth["rows"] / wall if wall else None,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": max((r.rss_mb for r in untraced), default=None),
            "success_ratio": 1.0 - len(failed) / len(reps),
            "rel_residual": max((r.residual for r in ok), default=None),
            "pattern_recovery": min((r.recovery for r in ok), default=None),
        }
        result["metrics"] = {name: {"value": values[name], "unit": unit}
                             for name, unit, _ in END_TO_END}
    result["correct"] = not info["errors"]
    result["info"] = info
    return result


def _layer_result(traced: list[Rep], untraced: list[Rep], info: dict) -> dict:
    units = {name: unit for name, unit, _ in tracer.PER_LAYER}
    values: dict[str, float | None] = {name: None for name in units}
    if traced:
        for name in traced[0].layers:
            samples = [r.layers[name] for r in traced]
            if units[name] in ("s", "ms"):
                values[name] = statistics.median(samples)
            elif len(set(samples)) == 1:
                values[name] = samples[0]
            else:
                info["errors"].append(f"count {name} differs across traced runs: {samples}")
        traced_wall = statistics.median(r.wall_s for r in traced)
        values["trace.wall_s"] = traced_wall
        if untraced:
            values["trace.overhead_s"] = traced_wall - statistics.median(
                r.wall_s for r in untraced)
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def _print_result(result: dict) -> None:
    info = result.pop("info")
    name = info["workload"]
    for metric, m in result["metrics"].items():
        print(f"{name}  {metric:<34} {m['value']!s:>24} {m['unit']}")
    if "fail_ratio" in info:
        print(f"{name}  {'fail_ratio':<34} {info['fail_ratio']!s:>24} ratio")
    for error in info["errors"]:
        print(f"{name}  FAILED: {error}")
    print("info: " + json.dumps(info, sort_keys=True))


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "trafficnmf" / "cli.py").is_file():
        print(f"error: no trafficnmf sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = measure(name, args.seed, args.seconds, bool(args.trace))
        _print_result(results[name])
        if len(names) > 1:
            print(json.dumps(results[name]))
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}.{k}": v for n, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
