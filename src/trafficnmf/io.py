"""Readers and writers for the delimited tables, geo features, and reports.

All writers are byte-deterministic: fixed newlines, repr-based float
formatting, sorted JSON keys, and no timestamps, so identical inputs
always produce identical files.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
from collections.abc import Iterator
from pathlib import Path
from typing import TextIO

import numpy as np

from .errors import DataError, MissingInputError
from .ingest import CountMatrix
from .nmf import FactorPair, NmfConfig
from .patterns import ComparisonReport, PatternSet
from .rank import RankScanResult


def _fmt(value: float) -> str:
    """Shortest exact decimal form; integral floats print without '.0'."""
    v = float(value)
    if math.isfinite(v) and v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def _writer(f):
    return csv.writer(f, lineterminator="\n")


def _hour_col(hour: int) -> str:
    return f"h{hour:02d}"


@contextlib.contextmanager
def read_text(path: Path) -> Iterator[TextIO]:
    """Open a delimited input file for `csv`: UTF-8, newlines left to csv.

    One byte that is not UTF-8, anywhere in the file, rejects the whole
    file: DataError naming the file and the physical line of the first such
    byte. That line is found only on this error path, by decoding the file
    again from its bytes.
    """
    with path.open("r", newline="", encoding="utf-8") as f:
        try:
            yield f
        except UnicodeDecodeError:
            data = path.read_bytes()
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as e:
                before = data[:e.start].decode("utf-8")
                # "\r\n", "\r" and "\n" each end a line, as for csv.
                line = 1 + before.count("\n") + before.count("\r") - before.count("\r\n")
                raise DataError(f"{path}, line {line}: byte {data[e.start]:#04x} is not UTF-8; "
                                f"the whole file is rejected") from None
            raise


def write_count_matrix(path: Path | str, m: CountMatrix) -> None:
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as f:
        w = _writer(f)
        w.writerow(["location_id", "latitude", "longitude"] + [_hour_col(h) for h in m.hours])
        for i, (loc_id, lat, lon) in enumerate(m.locations):
            w.writerow([loc_id, _fmt(lat), _fmt(lon)] + [_fmt(v) for v in m.values[i]])


def read_count_matrix(path: Path | str, period_label: str | None = None) -> CountMatrix:
    """Read a matrix table written by write_count_matrix.

    The period label defaults to the file stem since the table itself does
    not carry one. Raises DataError, naming the file and line, on a byte
    that is not UTF-8, a line csv cannot split, a repeated hour column, a
    row with the wrong number of cells, an empty location id, a non-numeric
    cell, a repeated location id, a negative count or coordinates out of
    range. NaN and infinite counts are left for the solver to reject.
    """
    path = Path(path)
    if not path.exists():
        raise MissingInputError(f"no such file: {path}")
    with read_text(path) as f:
        reader = csv.reader(f)
        try:
            header = next(reader, None)
            if header is None:
                raise DataError(f"{path} is empty")
            if header[:3] != ["location_id", "latitude", "longitude"]:
                raise DataError(f"{path} is not a count-matrix table (header {header[:3]})")
            hours = []
            for name in header[3:]:
                if not (name.startswith("h") and name[1:].isdigit()):
                    raise DataError(f"unexpected hour column {name!r} in {path}")
                if int(name[1:]) in hours:
                    raise DataError(f"{path}, line 1: hour column {name!r} appears more than once")
                hours.append(int(name[1:]))
            ids: list[str] = []
            rows: list[list[float]] = []
            lines: list[int] = []
            for row in reader:
                if not row:
                    continue
                if len(row) != len(header):
                    raise DataError(f"{path}, line {reader.line_num}: "
                                    f"{len(row)} cells, header has {len(header)}")
                if not row[0].strip():
                    raise DataError(f"{path}, line {reader.line_num}: empty location id")
                try:
                    rows.append([float(v) for v in row[1:]])
                except ValueError as e:
                    raise DataError(f"{path}, line {reader.line_num}: {e}") from None
                ids.append(row[0])
                lines.append(reader.line_num)
        except csv.Error as e:  # e.g. a field longer than csv.field_size_limit()
            raise DataError(f"{path}, line {reader.line_num}: {e}") from None
    if not rows:
        raise DataError(f"{path} has no data rows")
    table = np.array(rows)
    lat, lon, values = table[:, 0], table[:, 1], table[:, 2:]

    def fail(row: int, what: str) -> DataError:
        return DataError(f"{path}, line {lines[row]}: {what}")

    if len(set(ids)) < len(ids):
        seen: set[str] = set()
        for i, loc_id in enumerate(ids):
            if loc_id in seen:
                raise fail(i, f"location id {loc_id!r} appears more than once")
            seen.add(loc_id)
    # Negated so that NaN coordinates count as out of range.
    bad = np.flatnonzero(~((-90.0 <= lat) & (lat <= 90.0) & (-180.0 <= lon) & (lon <= 180.0)))
    if len(bad):
        i = bad[0]
        raise fail(i, f"coordinates ({float(lat[i])!r}, {float(lon[i])!r}) out of range")
    negative = np.argwhere((values < 0) & np.isfinite(values))
    if len(negative):
        i, j = negative[0]
        raise fail(i, f"negative count {float(values[i, j])!r}")
    return CountMatrix(
        values=values.copy(),
        locations=list(zip(ids, lat.tolist(), lon.tolist())),
        hours=hours,
        period_label=period_label if period_label is not None else path.stem,
    )


def write_factor_tables(
    location_path: Path | str,
    time_path: Path | str,
    diagnostics_path: Path | str,
    pair: FactorPair,
    matrix: CountMatrix,
    cfg: NmfConfig,
) -> None:
    """Write location loadings, time loadings, and a solve-diagnostics record."""
    pattern_cols = [f"p{g + 1}" for g in range(pair.rank)]
    with Path(location_path).open("w", newline="", encoding="utf-8") as f:
        w = _writer(f)
        w.writerow(["location_id", "latitude", "longitude"] + pattern_cols)
        for i, (loc_id, lat, lon) in enumerate(matrix.locations):
            w.writerow([loc_id, _fmt(lat), _fmt(lon)] + [_fmt(v) for v in pair.w[i]])
    with Path(time_path).open("w", newline="", encoding="utf-8") as f:
        w = _writer(f)
        w.writerow(["hour"] + pattern_cols)
        for j, hour in enumerate(matrix.hours):
            w.writerow([hour] + [_fmt(v) for v in pair.h[j]])
    diagnostics = {
        "config": {
            "rank": cfg.rank,
            "max_iters": cfg.max_iters,
            "tol": cfg.tol,
            "seed": cfg.seed,
            "init": cfg.init,
        },
        "iterations_run": pair.iterations_run,
        "converged": pair.converged,
        "final_loss": pair.objective_trace[-1],
        "objective_trace": pair.objective_trace,
    }
    _write_json(diagnostics_path, diagnostics)


def write_scan_table(path: Path | str, result: RankScanResult) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as f:
        w = _writer(f)
        w.writerow(["rank", "within_dispersion", "between_dispersion", "ch_score", "final_loss"])
        for e in result.entries:
            w.writerow([
                e.rank,
                _fmt(e.within_dispersion),
                _fmt(e.between_dispersion),
                _fmt(e.ch_score),
                _fmt(e.final_loss),
            ])


def write_temporal_patterns(path: Path | str, patterns: PatternSet) -> None:
    """Unit-max temporal curves, one column per pattern."""
    with Path(path).open("w", newline="", encoding="utf-8") as f:
        w = _writer(f)
        w.writerow(["hour"] + [f"p{g + 1}" for g in range(patterns.rank)])
        for j, hour in enumerate(patterns.hours):
            w.writerow([hour] + [_fmt(v) for v in patterns.temporal[j]])


def write_spatial_geojson(path: Path | str, patterns: PatternSet) -> None:
    """One point feature per location with per-pattern loadings and the
    dominant pattern, for external map rendering."""
    dominant = np.argmax(patterns.spatial, axis=1)
    features = []
    for i, (loc_id, lat, lon) in enumerate(patterns.locations):
        properties = {"location_id": loc_id, "dominant_pattern": f"p{int(dominant[i]) + 1}"}
        for g in range(patterns.rank):
            properties[f"p{g + 1}"] = float(patterns.spatial[i, g])
        features.append({
            "type": "Feature",
            "geometry": {"type": "Point", "coordinates": [float(lon), float(lat)]},
            "properties": properties,
        })
    # Compact separators without an indent let json use its C encoder; map
    # tools do not need the file to be readable by eye.
    text = json.dumps({"type": "FeatureCollection", "features": features},
                      separators=(",", ":"), sort_keys=True)
    Path(path).write_text(text + "\n", encoding="utf-8")


def _plabel(index: int) -> str:
    return f"p{index + 1}"


def comparison_to_dict(report: ComparisonReport, set_a: PatternSet, set_b: PatternSet) -> dict:
    # Patterns are referenced by the same p1..pr labels used as column
    # names in the factor and temporal tables.
    return {
        "period_a": {
            "label": report.period_a,
            "rank": set_a.rank,
            "total_count": report.total_a,
            "dominant_location_counts": {
                _plabel(g): n for g, n in enumerate(report.dominant_counts_a)
            },
            "temporal_peak_intensity": [float(v) for v in set_a.column_norms],
        },
        "period_b": {
            "label": report.period_b,
            "rank": set_b.rank,
            "total_count": report.total_b,
            "dominant_location_counts": {
                _plabel(g): n for g, n in enumerate(report.dominant_counts_b)
            },
            "temporal_peak_intensity": [float(v) for v in set_b.column_norms],
        },
        "total_reduction_pct": report.total_reduction_pct,
        "threshold": report.match.threshold,
        "matched": [
            {
                "pattern_a": _plabel(n.pattern_a),
                "pattern_b": _plabel(n.pattern_b),
                "similarity": n.similarity,
                "peak_hour_a": n.peak_hour_a,
                "peak_hour_b": n.peak_hour_b,
                "peak_shift": n.peak_shift,
            }
            for n in report.per_pattern_notes
        ],
        "unmatched_a": [_plabel(i) for i in report.match.unmatched_a],
        "unmatched_b": [_plabel(j) for j in report.match.unmatched_b],
        "disappeared_count": len(report.match.unmatched_a),
    }


def write_comparison_report(
    json_path: Path | str,
    text_path: Path | str,
    report: ComparisonReport,
    set_a: PatternSet,
    set_b: PatternSet,
) -> None:
    _write_json(json_path, comparison_to_dict(report, set_a, set_b))
    Path(text_path).write_text(render_summary(report), encoding="utf-8")


def render_summary(report: ComparisonReport) -> str:
    a, b = report.period_a, report.period_b
    lines = [
        f"Period comparison: {a} vs {b}",
        f"Total vehicle count: {_fmt(report.total_a)} -> {_fmt(report.total_b)} "
        f"({report.total_reduction_pct:.1f}% reduction)",
        f"Patterns: {len(report.dominant_counts_a)} in {a}, "
        f"{len(report.dominant_counts_b)} in {b} "
        f"(match threshold {report.match.threshold:g})",
    ]
    if report.per_pattern_notes:
        lines.append("Matched patterns:")
        for n in report.per_pattern_notes:
            shift = f"shifted {n.peak_shift:+d}h" if n.peak_shift else "unchanged"
            lines.append(
                f"  {a} p{n.pattern_a + 1} ~ {b} p{n.pattern_b + 1}"
                f" (similarity {n.similarity:.3f}), peak {n.peak_hour_a:02d}:00 ->"
                f" {n.peak_hour_b:02d}:00 ({shift})"
            )
    else:
        lines.append("Matched patterns: none")
    gone = ", ".join(f"p{i + 1}" for i in report.match.unmatched_a) or "none"
    new = ", ".join(f"p{j + 1}" for j in report.match.unmatched_b) or "none"
    lines.append(f"Disappeared from {a}: {gone}")
    lines.append(f"New in {b}: {new}")
    lines.append("Dominant-pattern location counts:")
    lines.append("  " + a + ": " + _dominant_line(report.dominant_counts_a))
    lines.append("  " + b + ": " + _dominant_line(report.dominant_counts_b))
    return "\n".join(lines) + "\n"


def _dominant_line(counts: list[int]) -> str:
    return ", ".join(f"p{g + 1}={n}" for g, n in enumerate(counts))


def _write_json(path: Path | str, obj) -> None:
    Path(path).write_text(
        json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
