"""Traced runs: one trafficnmf CLI command in-process, with a span around every
call into a layer's public functions, and the per-layer metrics derived from them.

Run as a script, it is the traced program process:

    python3 perfbench/tracer.py SPANS.json -- COMMAND [FLAGS...]

It times ``import trafficnmf.cli``, replaces each traced function under every
name its callers look it up by, calls ``trafficnmf.cli.main(argv)`` and writes
the spans (name, start, end, parent span, counts taken from return values) to
SPANS.json. The source files are not changed. Imported as a module, it turns
the span files of one workload repetition into per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (span name, function, modules whose global of that name is replaced).
# The package binds callers' own names with `from .x import y`, so the
# calling modules are patched as well as the defining one.
SPANS = [
    ("ingest.parse", "parse_records", ("ingest", "cli")),
    ("ingest.aggregate", "build_matrix", ("ingest", "cli")),
    ("ingest.normalize", "minmax_normalize", ("ingest", "cli")),
    ("nmf.solve", "factorize", ("nmf", "rank", "cli")),
    ("rank.scan", "rank_scan", ("rank", "cli")),
    ("patterns", "normalization_column_scales", ("patterns", "cli")),
    ("patterns", "extract_patterns", ("patterns", "cli")),
    ("patterns", "match_patterns", ("patterns", "cli")),
    ("patterns", "compare_periods", ("patterns", "cli")),
    ("io.count_tables", "write_count_matrix", ("io",)),
    ("io.read", "read_count_matrix", ("io",)),
    ("io.factor_tables", "write_factor_tables", ("io",)),
    ("io.geojson", "write_spatial_geojson", ("io",)),
    ("io.other_writes", "write_scan_table", ("io",)),
    ("io.other_writes", "write_temporal_patterns", ("io",)),
    ("io.other_writes", "write_comparison_report", ("io",)),
    ("io.other_writes", "render_summary", ("io",)),
]
# Calls that are counted but get no span, so they stay inside the scan's self time.
COUNTED = [
    ("rank.dispersion_calls", "within_dispersion", ("rank",)),
    ("rank.dispersion_calls", "between_dispersion", ("rank",)),
]

TIME_METRIC = {
    "ingest.parse": "ingest.parse_s",
    "ingest.aggregate": "ingest.aggregate_s",
    "ingest.normalize": "ingest.normalize_s",
    "nmf.solve": "nmf.solve_s",
    "rank.scan": "rank.scan_s",
    "patterns": "patterns.s",
    "io.count_tables": "io.count_tables_s",
    "io.factor_tables": "io.factor_tables_s",
    "io.geojson": "io.geojson_s",
    "io.other_writes": "io.other_writes_s",
    "io.read": "io.read_s",
}

SCAN_RANKS = range(2, 9)

# Every per-layer metric as (name, unit, better).
PER_LAYER = (
    [("cli.import_s", "s", "lower"), ("cli.self_s", "s", "lower"),
     ("ingest.parse_s", "s", "lower"), ("ingest.rows", "count", "higher"),
     ("ingest.rows_rejected", "count", "lower"), ("ingest.aggregate_s", "s", "lower"),
     ("ingest.normalize_s", "s", "lower"),
     ("nmf.solves", "count", "lower"), ("nmf.solve_s", "s", "lower"),
     ("nmf.iterations", "count", "lower"), ("nmf.ms_per_iter", "ms", "lower"),
     ("nmf.capped", "count", "lower"), ("nmf.repeat_solves", "count", "lower"),
     ("nmf.gflop_computed", "GFLOP", "lower")]
    + [(f"nmf.scan.{p}.r{k}.{what}", unit, better)
       for p in "ab" for k in SCAN_RANKS
       for what, unit, better in (("iterations", "count", "lower"),
                                  ("ms_per_iter", "ms", "lower"),
                                  ("converged", "count", "higher"))]
    + [("rank.scan_s", "s", "lower"), ("rank.scan_self_s", "s", "lower"),
       ("rank.dispersion_calls", "count", "lower"), ("patterns.s", "s", "lower"),
       ("io.count_tables_s", "s", "lower"), ("io.factor_tables_s", "s", "lower"),
       ("io.geojson_s", "s", "lower"), ("io.other_writes_s", "s", "lower"),
       ("io.read_s", "s", "lower"), ("io.bytes_written", "bytes", "lower"),
       ("trace.wall_s", "s", "lower"), ("trace.overhead_s", "s", "lower")]
)


def mu_flops(n: int, m: int, r: int, iterations: int) -> int:
    """Floating-point operations of one multiplicative-update solve, from shapes.

    Per iteration: X^T W and X H (2nmr each), W^T W and H^T H (2nr^2, 2mr^2),
    H(W^T W) and W(H^T H) (2mr^2, 2nr^2), the elementwise ratio and product
    of both updates (3(n+m)r), and the explicit residual X - W H^T with its
    norm (2nmr + 3nm). The loss at initialisation adds one residual.
    """
    per_iter = 6 * n * m * r + 4 * r * r * (n + m) + 3 * r * (n + m) + 3 * n * m
    return iterations * per_iter + 2 * n * m * r + 3 * n * m


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []

    def call(self, name: str, fn, args, kwargs):
        index = len(self.spans)
        span = {"name": name, "parent": self._stack[-1] if self._stack else None, "attrs": {}}
        self.spans.append(span)
        self._stack.append(index)
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
        span["attrs"] = _attrs(name, args, result)
        return result

    def install(self) -> None:
        for name, func, modules in SPANS:
            self._replace(func, modules, self._spanned(name, func, modules[0]))
        for counter, func, modules in COUNTED:
            self._replace(func, modules, self._counted(counter, func, modules[0]))

    def _spanned(self, name, func, home):
        original = getattr(importlib.import_module(f"trafficnmf.{home}"), func)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self.call(name, original, args, kwargs)
        return wrapper

    def _counted(self, counter, func, home):
        original = getattr(importlib.import_module(f"trafficnmf.{home}"), func)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            self.counters[counter] = self.counters.get(counter, 0) + 1
            return original(*args, **kwargs)
        return wrapper

    @staticmethod
    def _replace(func, modules, wrapper) -> None:
        for module in modules:
            setattr(importlib.import_module(f"trafficnmf.{module}"), func, wrapper)


def _attrs(name: str, args, result) -> dict:
    """Counts for a finished span, read from the call's arguments and return value."""
    if name == "nmf.solve":
        x, cfg = args[0], args[1]
        data = getattr(x, "values", x)
        n, m = data.shape
        return {"n": n, "m": m, "rank": cfg.rank, "iterations": result.iterations_run,
                "converged": bool(result.converged),
                # Identical input object and solver settings: a repeated solve.
                "key": [id(data), cfg.rank, cfg.seed, cfg.max_iters, cfg.tol, cfg.init]}
    if name == "ingest.parse":
        rejected = result.rejections
        return {"rows": len(result.records) + rejected.total, "rejected": rejected.total}
    return {}


def _traced_main(spans_path: str, argv: list[str]) -> int:
    start = time.perf_counter()
    import trafficnmf.cli as cli
    import_s = time.perf_counter() - start

    tracer = Tracer()
    tracer.install()
    code = 1
    try:
        code = tracer.call("cli.main", cli.main, (argv,), {})
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else (0 if e.code is None else 1)
    finally:
        with open(spans_path, "w", encoding="utf-8") as f:
            json.dump({"argv": argv, "import_s": import_s, "spans": tracer.spans,
                       "counters": tracer.counters}, f)
    return code


def layer_metrics(traces: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one workload repetition from its processes' span files.

    Self time is a span's duration minus that of its direct children.
    Nested spans of the same name (a traced writer calling another) count
    once, through the outermost. The per-rank scan metrics are filled from
    `run` commands only, whose first scan is period a and second period b;
    they stay 0 on workloads without such a scan.
    """
    out = {name: 0.0 for name, _, _ in PER_LAYER if not name.startswith("trace.")}
    for trace in traces:
        spans = trace["spans"]
        out["cli.import_s"] += trace["import_s"]
        out["rank.dispersion_calls"] += trace["counters"].get("rank.dispersion_calls", 0)
        duration = [s["end"] - s["start"] for s in spans]
        child_time = [0.0] * len(spans)
        for s, d in zip(spans, duration):
            if s["parent"] is not None:
                child_time[s["parent"]] += d
        seen_keys = set()
        scans: list[int] = []
        for i, s in enumerate(spans):
            name, attrs = s["name"], s["attrs"]
            if name == "cli.main":
                out["cli.self_s"] += duration[i] - child_time[i]
                continue
            if _nested_in_same(spans, i):
                continue
            out[TIME_METRIC[name]] += duration[i]
            if name == "ingest.parse" and attrs:
                out["ingest.rows"] += attrs["rows"]
                out["ingest.rows_rejected"] += attrs["rejected"]
            elif name == "rank.scan":
                out["rank.scan_self_s"] += duration[i] - child_time[i]
                scans.append(i)
            elif name == "nmf.solve" and attrs:
                out["nmf.solves"] += 1
                out["nmf.iterations"] += attrs["iterations"]
                out["nmf.capped"] += 0 if attrs["converged"] else 1
                key = tuple(attrs["key"])
                out["nmf.repeat_solves"] += 1 if key in seen_keys else 0
                seen_keys.add(key)
                out["nmf.gflop_computed"] += mu_flops(
                    attrs["n"], attrs["m"], attrs["rank"], attrs["iterations"]) / 1e9
        if trace["argv"][0] == "run":
            for period, scan in zip("ab", scans):
                for j, s in enumerate(spans):
                    k = s["attrs"].get("rank")
                    if s["parent"] == scan and s["name"] == "nmf.solve" and k in SCAN_RANKS:
                        prefix = f"nmf.scan.{period}.r{k}"
                        out[f"{prefix}.iterations"] = s["attrs"]["iterations"]
                        out[f"{prefix}.ms_per_iter"] = 1e3 * duration[j] / max(
                            s["attrs"]["iterations"], 1)
                        out[f"{prefix}.converged"] = int(s["attrs"]["converged"])
    if out["nmf.iterations"]:
        out["nmf.ms_per_iter"] = 1e3 * out["nmf.solve_s"] / out["nmf.iterations"]
    units = {name: unit for name, unit, _ in PER_LAYER}
    return {k: int(v) if units[k] == "count" else v for k, v in out.items()}


def _nested_in_same(spans: list[dict], i: int) -> bool:
    parent = spans[i]["parent"]
    while parent is not None:
        if spans[parent]["name"] == spans[i]["name"]:
            return True
        parent = spans[parent]["parent"]
    return False


if __name__ == "__main__":
    if len(sys.argv) < 4 or sys.argv[2] != "--":
        sys.exit("usage: tracer.py SPANS.json -- COMMAND [FLAGS...]")
    sys.exit(_traced_main(sys.argv[1], sys.argv[3:]))
