"""Readers and writers for the delimited tables, geo features, and reports.

All writers are byte-deterministic: every delimited table goes through
`_write_table` ("\n" line ends, minimal quoting), floats print through
`_fmt` (through repr in the synth files), JSON keys are sorted, and
nothing carries a timestamp, so identical inputs always produce
identical files.
"""

from __future__ import annotations

import csv
import json
import math
from collections.abc import Iterable, Iterator
from pathlib import Path
from typing import TYPE_CHECKING, TextIO

import numpy as np

from .errors import DataError, MissingInputError
from .ingest import ColumnMapping, CountMatrix, _floats, _in_range, _split_rows

if TYPE_CHECKING:  # annotations only, so that every command need not load rank and patterns
    from .nmf import FactorPair, NmfConfig
    from .patterns import ComparisonReport, PatternSet
    from .rank import RankScanResult
    from .synth import SyntheticPeriod

_LOCATION_HEADER = ["location_id", "latitude", "longitude"]


def _fmt(value: float) -> str:
    """Shortest exact decimal form; integral floats print without '.0'."""
    v = float(value)
    if math.isfinite(v) and v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def _plabel(index: int) -> str:
    """The label of pattern `index`, as table columns and reports name it."""
    return f"p{index + 1}"


def _hour_col(hour: int) -> str:
    return f"h{hour:02d}"


def _write_table(path: Path | str, header: list[str], rows: Iterable[list[str]]) -> None:
    """Write one delimited output table: UTF-8, "\n" line ends, minimal quoting.

    Every cell is a str. With "\n" line ends csv does not quote a cell
    holding a bare "\r", which a reader would then split, so a row with
    such a cell is written with every cell quoted.
    """
    with Path(path).open("w", newline="", encoding="utf-8") as f:
        minimal = csv.writer(f, lineterminator="\n")
        quote_all = csv.writer(f, lineterminator="\n", quoting=csv.QUOTE_ALL)
        minimal.writerow(header)
        for row in rows:
            (quote_all if "\r" in "".join(row) else minimal).writerow(row)


def _location_rows(locations: list[tuple[str, float, float]],
                   values: np.ndarray) -> Iterator[list[str]]:
    fmt = _fmt
    if (np.abs(values) < 1e15).all() and (values == np.trunc(values)).all():
        values, fmt = values.astype(np.int64), str  # whole, as counts are: _fmt's own text
    for (loc_id, lat, lon), row in zip(locations, values):
        yield [loc_id, _fmt(lat), _fmt(lon), *map(fmt, row.tolist())]


def _hour_rows(hours: list[int], values: np.ndarray) -> Iterator[list[str]]:
    for hour, row in zip(hours, values):
        yield [str(hour), *map(_fmt, row.tolist())]


def read_text(path: Path) -> TextIO:
    """Open a delimited input file for `csv`: UTF-8, newlines left to csv.

    A byte that is not UTF-8 is kept as a lone surrogate, which the reader
    of the rows (`ingest._split_rows`) rejects, naming its line, so that an
    input that cannot be read twice, such as a pipe, is read once. A file
    that cannot be opened, such as a directory, is a MissingInputError
    naming it.
    """
    try:
        return path.open(encoding="utf-8", errors="surrogateescape", newline="")
    except OSError as e:
        raise MissingInputError(f"{path} cannot be read: {e.strerror}") from None


def write_count_matrix(path: Path | str, m: CountMatrix) -> None:
    _write_table(path, _LOCATION_HEADER + [_hour_col(h) for h in m.hours],
                 _location_rows(m.locations, m.values))


def read_count_matrix(path: Path | str, period_label: str | None = None) -> CountMatrix:
    """Read a matrix table written by write_count_matrix.

    The period label defaults to the file stem since the table itself does
    not carry one. Location ids are stripped, as raw records' are. Raises
    DataError, naming the file and line, on a byte that is not UTF-8, a
    line csv cannot split, no hour column, an hour column other than h
    followed by an hour 0..23 or a repeated one, and at the first row with
    the wrong number of cells, an empty location id or a non-numeric cell;
    then on a repeated location id, coordinates out of range or a negative
    count. NaN and infinite counts are left for the solver to reject.
    """
    path = Path(path)
    hours: list[int] = []

    def columns(header: list[str] | None) -> list[int]:
        if header is None:
            raise DataError(f"{path} is empty")
        if header[:3] != _LOCATION_HEADER:
            raise DataError(f"{path} is not a count-matrix table (header {header[:3]})")
        if len(header) == 3:
            raise DataError(f"{path}, line 1: no hour column")
        for name in header[3:]:
            digits = name[1:]
            # isdigit alone would pass "²", which int() rejects.
            if not (name.startswith("h") and digits.isascii() and digits.isdigit()
                    and int(digits) <= 23):
                raise DataError(f"{path}, line 1: unexpected hour column {name!r}")
            if int(digits) in hours:
                raise DataError(f"{path}, line 1: hour column {name!r} appears more than once")
            hours.append(int(digits))
        return list(range(len(header)))

    def fail(line: int, what: str) -> DataError:
        return DataError(f"{path}, line {line}: {what}")

    ids, blocks, lines = [], [], []
    with read_text(path) as f:
        for cells, line_nos, widths in _split_rows(f, ",", columns, f"{path}, "):
            block_ids = list(map(str.strip, cells[0]))
            numbers, failed = zip(*map(_floats, cells[1:]))
            empty = ~np.fromiter(map(bool, block_ids), bool, len(block_ids))
            bad = np.flatnonzero((widths != len(cells)) | empty | np.any(failed, axis=0))
            if len(bad):
                i = bad[0]
                if widths[i] != len(cells):
                    raise fail(line_nos[i], f"{widths[i]} cells, header has {len(cells)}")
                if empty[i]:
                    raise fail(line_nos[i], "empty location id")
                for column in cells[1:]:
                    try:
                        float(column[i])
                    except ValueError as e:
                        raise fail(line_nos[i], str(e)) from None
            ids += block_ids
            blocks.append(np.column_stack(numbers))
            lines.append(line_nos)
            del cells  # not alive while the next block is split
    if not ids:
        raise DataError(f"{path} has no data rows")
    table, line_of = np.concatenate(blocks), np.concatenate(lines)
    lat, lon, values = table[:, 0], table[:, 1], table[:, 2:]

    seen: set[str] = set()
    for i, loc_id in enumerate(ids):
        if loc_id in seen:
            raise fail(line_of[i], f"location id {loc_id!r} appears more than once")
        seen.add(loc_id)
    bad = np.flatnonzero(~_in_range(lat, lon))
    if len(bad):
        i = bad[0]
        raise fail(line_of[i], f"coordinates ({float(lat[i])!r}, {float(lon[i])!r}) out of range")
    negative = np.argwhere((values < 0) & np.isfinite(values))
    if len(negative):
        i, j = negative[0]
        raise fail(line_of[i], f"negative count {float(values[i, j])!r}")
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
    pattern_cols = [_plabel(g) for g in range(pair.rank)]
    _write_table(location_path, _LOCATION_HEADER + pattern_cols,
                 _location_rows(matrix.locations, pair.w))
    _write_table(time_path, ["hour", *pattern_cols], _hour_rows(matrix.hours, pair.h))
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
    write_json(diagnostics_path, diagnostics)


def write_scan_table(path: Path | str, result: RankScanResult) -> None:
    _write_table(
        path, ["rank", "within_dispersion", "between_dispersion", "ch_score", "final_loss"],
        ([str(e.rank), _fmt(e.within_dispersion), _fmt(e.between_dispersion),
          _fmt(e.ch_score), _fmt(e.final_loss)] for e in result.entries),
    )


def write_temporal_patterns(path: Path | str, patterns: PatternSet) -> None:
    """Unit-max temporal curves, one column per pattern."""
    _write_table(path, ["hour", *(_plabel(g) for g in range(patterns.rank))],
                 _hour_rows(patterns.matrix.hours, patterns.temporal))


def write_synth_period(records_path: Path | str, w_path: Path | str, h_path: Path | str,
                       period: SyntheticPeriod) -> None:
    """A synthetic period's raw records and its planted location and time
    factors. Floats are written as repr, so a planted 100 reads 100.0."""
    cols = ColumnMapping()
    _write_table(
        records_path, [cols.location_id, cols.latitude, cols.longitude, cols.hour, cols.count],
        ([r.location_id, repr(r.latitude), repr(r.longitude), str(r.hour), str(r.count)]
         for r in period.records),
    )
    labels = [_plabel(g) for g in range(period.planted_h.shape[1])]
    _write_table(w_path, labels, ([*map(repr, row.tolist())] for row in period.planted_w))
    _write_table(h_path, ["hour", *labels],
                 ([str(hour), *map(repr, row.tolist())]
                  for hour, row in zip(period.hours, period.planted_h)))


def write_spatial_geojson(path: Path | str, patterns: PatternSet) -> None:
    """One point feature per location with per-pattern loadings and the
    dominant pattern, for external map rendering.

    The file holds what json.dumps writes with sorted keys and compact
    separators, built from one text template per feature and written one
    feature at a time.
    """
    order = sorted(range(patterns.rank), key=_plabel)  # json's key order: p10 before p2
    feature = ('{"geometry":{"coordinates":[%s,%s],"type":"Point"},'
               '"properties":{"dominant_pattern":"%s","location_id":%s,'
               + ",".join(f'"{_plabel(g)}":%s' for g in order) + '},"type":"Feature"}')
    locations = patterns.matrix.locations
    lat_lon = np.array([loc[1:] for loc in locations], dtype=float).reshape(-1, 2)
    numbers = np.hstack([lat_lon[:, ::-1], patterns.spatial[:, order]])
    # json writes a float as repr does, but NaN and the infinities as NaN and Infinity.
    number = repr if np.isfinite(numbers).all() else json.dumps
    dominant = patterns.dominant_patterns().tolist()
    with Path(path).open("w", encoding="utf-8") as f:
        f.write('{"features":[')
        for i, (loc, row, g) in enumerate(zip(locations, numbers, dominant)):
            row = row.tolist()
            f.write("," * (i > 0) + feature % (*map(number, row[:2]), _plabel(g),
                                               json.dumps(loc[0]), *map(number, row[2:])))
        f.write('],"type":"FeatureCollection"}\n')


def comparison_to_dict(report: ComparisonReport) -> dict:
    """The facts of a comparison, as report.json holds them. Patterns are
    named p1..pr, as in the columns of the factor and temporal tables."""
    set_a, set_b = report.set_a, report.set_b
    out = {
        "total_reduction_pct": report.total_reduction_pct,
        "threshold": report.match.threshold,
        "matched": [
            {
                "pattern_a": _plabel(i),
                "pattern_b": _plabel(j),
                "similarity": sim,
                "peak_hour_a": set_a.peak_hour(i),
                "peak_hour_b": set_b.peak_hour(j),
                "peak_shift": set_b.peak_hour(j) - set_a.peak_hour(i),
            }
            for i, j, sim in report.match.pairs
        ],
        "unmatched_a": [_plabel(i) for i in report.match.unmatched_a],
        "unmatched_b": [_plabel(j) for j in report.match.unmatched_b],
        "disappeared_count": len(report.match.unmatched_a),
    }
    for key, patterns in (("period_a", set_a), ("period_b", set_b)):
        counts = patterns.dominant_location_counts()
        out[key] = {
            "label": patterns.matrix.period_label,
            "rank": patterns.rank,
            "total_count": patterns.matrix.total(),
            "dominant_location_counts": {_plabel(g): n for g, n in enumerate(counts)},
            "temporal_peak_intensity": [float(v) for v in patterns.column_norms],
        }
    return out


def write_comparison_report(json_path: Path | str, text_path: Path | str,
                            report: ComparisonReport) -> str:
    """Write report.json and summary.txt from one set of facts; returns the
    summary's text."""
    facts = comparison_to_dict(report)
    write_json(json_path, facts)
    text = render_summary(facts)
    Path(text_path).write_text(text, encoding="utf-8")
    return text


def render_summary(facts: dict) -> str:
    """The text of summary.txt from the facts `comparison_to_dict` returns,
    or report.json holds: its dominant counts are listed p1, p2, ..., p10."""
    a, b = facts["period_a"], facts["period_b"]
    lines = [
        f"Period comparison: {a['label']} vs {b['label']}",
        f"Total vehicle count: {_fmt(a['total_count'])} -> {_fmt(b['total_count'])} "
        f"({facts['total_reduction_pct']:.1f}% reduction)",
        f"Patterns: {a['rank']} in {a['label']}, {b['rank']} in {b['label']} "
        f"(match threshold {facts['threshold']:g})",
    ]
    if facts["matched"]:
        lines.append("Matched patterns:")
        for n in facts["matched"]:
            shift = f"shifted {n['peak_shift']:+d}h" if n["peak_shift"] else "unchanged"
            lines.append(
                f"  {a['label']} {n['pattern_a']} ~ {b['label']} {n['pattern_b']}"
                f" (similarity {n['similarity']:.3f}), peak {n['peak_hour_a']:02d}:00 ->"
                f" {n['peak_hour_b']:02d}:00 ({shift})"
            )
    else:
        lines.append("Matched patterns: none")
    lines.append(f"Disappeared from {a['label']}: {', '.join(facts['unmatched_a']) or 'none'}")
    lines.append(f"New in {b['label']}: {', '.join(facts['unmatched_b']) or 'none'}")
    lines.append("Dominant-pattern location counts:")
    for period in (a, b):
        counts = sorted(period["dominant_location_counts"].items(), key=lambda c: int(c[0][1:]))
        lines.append(f"  {period['label']}: " + ", ".join(f"{g}={n}" for g, n in counts))
    return "\n".join(lines) + "\n"


def write_json(path: Path | str, obj) -> None:
    Path(path).write_text(
        json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
