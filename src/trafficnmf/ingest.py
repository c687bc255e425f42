"""Parse raw vehicle-count records and aggregate them into location-by-hour matrices.

The input is a delimited text table with one row per count observation
(location, coordinates, clock hour, vehicle count). Records are summed
per (location, hour bin) into a dense count matrix, which is then
min-max normalized per hour-bin column before factorization.
"""

from __future__ import annotations

import csv
import io
import operator
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DataError,
    EmptyInputError,
    MissingColumnError,
    MixedPeriodsError,
)


@dataclass(frozen=True)
class ColumnMapping:
    """Maps the required column roles to header names in the input table.

    Defaults match the Department for Transport (GB) raw-count headers.
    """

    location_id: str = "count_point_id"
    latitude: str = "latitude"
    longitude: str = "longitude"
    hour: str = "hour"
    count: str = "all_motor_vehicles"
    delimiter: str = ","

    def required(self) -> tuple[str, ...]:
        return (self.location_id, self.latitude, self.longitude, self.hour, self.count)


@dataclass(frozen=True)
class HourWindow:
    """Inclusive range of clock-hour bins, default 07:00 through 18:00 starts."""

    start: int = 7
    end: int = 18

    def __post_init__(self) -> None:
        if not (0 <= self.start <= self.end <= 23):
            raise ValueError(f"invalid hour window {self.start}..{self.end}")

    def hours(self) -> list[int]:
        return list(range(self.start, self.end + 1))

    def __contains__(self, hour: int) -> bool:
        return self.start <= hour <= self.end


@dataclass(frozen=True)
class TrafficRecord:
    """One count observation: a location saw `count` vehicles during clock hour `hour`."""

    location_id: str
    latitude: float
    longitude: float
    hour: int
    count: int
    period_label: str


@dataclass(frozen=True)
class RecordTable:
    """Count observations of one period held as columns, one entry per record.

    Counts are stored as float64: every accepted count is an integral
    float, so the column holds it exactly.
    """

    location_ids: np.ndarray
    latitude: np.ndarray
    longitude: np.ndarray
    hour: np.ndarray
    count: np.ndarray
    period_label: str

    def __len__(self) -> int:
        return len(self.location_ids)

    @classmethod
    def from_records(cls, records: Iterable[TrafficRecord]) -> RecordTable:
        """Collect record objects into columns; they must share one period label."""
        records = list(records)
        periods = {r.period_label for r in records}
        if len(periods) > 1:
            raise MixedPeriodsError(f"records span multiple periods: {sorted(periods)}")
        return cls(
            location_ids=np.array([r.location_id for r in records], dtype=object),
            latitude=np.array([r.latitude for r in records], dtype=float),
            longitude=np.array([r.longitude for r in records], dtype=float),
            hour=np.array([r.hour for r in records], dtype=np.int64),
            count=np.array([r.count for r in records], dtype=float),
            period_label=periods.pop() if periods else "",
        )


@dataclass
class RejectionSummary:
    """Per-reason tally of input rows that were skipped rather than parsed.

    Each sample is (line number, reason); the line number is the physical
    line of the input on which the row ends, counting the header as line 1.
    """

    total: int = 0
    by_reason: dict[str, int] = field(default_factory=dict)
    samples: list[tuple[int, str]] = field(default_factory=list)

    _MAX_SAMPLES = 10

    def add(self, line_no: int, reason: str) -> None:
        self.total += 1
        self.by_reason[reason] = self.by_reason.get(reason, 0) + 1
        if len(self.samples) < self._MAX_SAMPLES:
            self.samples.append((line_no, reason))

    def describe(self) -> str:
        if self.total == 0:
            return "0 rows rejected"
        parts = ", ".join(f"{reason}: {n}" for reason, n in sorted(self.by_reason.items()))
        return f"{self.total} rows rejected ({parts})"


@dataclass
class ParseResult:
    records: RecordTable
    rejections: RejectionSummary


@dataclass
class CountMatrix:
    """Dense nonnegative location-by-hour matrix of summed vehicle counts.

    Rows are sorted by location id, columns by hour-bin start. `locations`
    carries (id, latitude, longitude) per row for geo-tagged exports.
    """

    values: np.ndarray
    locations: list[tuple[str, float, float]]
    hours: list[int]
    period_label: str

    @property
    def row_labels(self) -> list[str]:
        return [loc_id for loc_id, _, _ in self.locations]

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def total(self) -> float:
        return float(self.values.sum())


@dataclass
class NormalizedMatrix:
    """Min-max normalized view of a CountMatrix, entries in [0, 1].

    Column j holds (count - lo[j]) / scale[j], where scale is the column's
    max - min, or 1 for a constant column, so the normalization can be
    inverted.
    """

    values: np.ndarray
    lo: np.ndarray
    scale: np.ndarray
    source: CountMatrix

    def denormalize(self) -> np.ndarray:
        return self.values * self.scale + self.lo


def _column_indices(header: list[str], schema: ColumnMapping) -> list[int]:
    indices = []
    for name in schema.required():
        found = [i for i, h in enumerate(header) if h == name]
        if not found:
            raise MissingColumnError(f"column {name!r} not found in header {header}")
        if len(found) > 1:
            raise DataError(f"column {name!r} appears {len(found)} times in header {header}")
        indices.append(found[0])
    return indices


def parse_records(
    stream: io.TextIOBase | str,
    schema: ColumnMapping | None = None,
    period_label: str = "",
) -> ParseResult:
    """Parse a delimited text table into a columnar record table.

    Rows with missing fields, non-numeric values, negative counts, hours
    outside 0..23, or out-of-range coordinates are skipped and tallied in
    the returned rejection summary; they never abort the parse. A field
    missing from a short row counts as empty. Blank lines are not rows.

    Raises MissingColumnError if the header lacks a mapped column,
    DataError if it names a mapped column twice, and EmptyInputError if no
    data rows are present.
    """
    schema = schema or ColumnMapping()
    if isinstance(stream, str):
        stream = io.StringIO(stream)

    reader = csv.reader(stream, delimiter=schema.delimiter)
    header = next(reader, None)
    if header is None:
        raise EmptyInputError("input has no header row")
    indices = _column_indices(header, schema)
    pick = operator.itemgetter(*indices)
    width = max(indices) + 1

    locs: list[str] = []
    lats: list[float] = []
    lons: list[float] = []
    hours: list[float] = []
    counts: list[float] = []
    rejections = RejectionSummary()
    reject = rejections.add
    n_rows = 0
    for row in reader:
        if not row:
            continue
        n_rows += 1
        if len(row) < width:
            row += [""] * (width - len(row))
        loc, lat, lon, hour, count = pick(row)
        loc = loc.strip()
        try:
            lat = float(lat)
            lon = float(lon)
            count = float(count)
        except ValueError:
            reject(reader.line_num, "malformed")
            continue
        # Counts must be integral: "120.0" is accepted, a truncatable "120.7" is not.
        if not loc or not count.is_integer():
            reject(reader.line_num, "malformed")
            continue
        if count < 0:
            reject(reader.line_num, "negative count")
            continue
        try:
            hour = float(hour)
        except ValueError:
            reject(reader.line_num, "unmappable hour")
            continue
        if not (hour.is_integer() and 0 <= hour <= 23):
            reject(reader.line_num, "unmappable hour")
            continue
        if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
            reject(reader.line_num, "coordinates out of range")
            continue
        locs.append(loc)
        lats.append(lat)
        lons.append(lon)
        hours.append(hour)
        counts.append(count)

    if n_rows == 0:
        raise EmptyInputError("input has a header but no data rows")
    table = RecordTable(
        location_ids=np.array(locs, dtype=object),
        latitude=np.array(lats, dtype=float),
        longitude=np.array(lons, dtype=float),
        hour=np.array(hours, dtype=float).astype(np.int64),
        count=np.array(counts, dtype=float),
        period_label=period_label,
    )
    return ParseResult(table, rejections)


def build_matrix(
    records: RecordTable | Iterable[TrafficRecord], window: HourWindow | None = None
) -> CountMatrix:
    """Sum records into a location-by-hour count matrix over the given window.

    Entry (i, j) is the cumulative count for location i at hour bin j;
    (location, hour) cells with no record are 0. The result is independent
    of the input record order. A sequence of TrafficRecord objects is
    first collected into a RecordTable.
    """
    window = window or HourWindow()
    table = records if isinstance(records, RecordTable) else RecordTable.from_records(records)
    keep = (table.hour >= window.start) & (table.hour <= window.end)
    if not keep.any():
        raise EmptyInputError("no records inside the hour window")

    # Sorting the distinct ids in Python keeps str ordering exact; numpy's
    # fixed-width strings would drop trailing NULs.
    loc_ids = table.location_ids[keep].tolist()
    ids = sorted(set(loc_ids))
    row_of = {loc_id: i for i, loc_id in enumerate(ids)}
    n_hours = window.end - window.start + 1
    loc = np.array([row_of[loc_id] for loc_id in loc_ids], dtype=np.int64)
    cell = loc * n_hours + (table.hour[keep] - window.start)
    count = table.count[keep]
    lat = table.latitude[keep]
    lon = table.longitude[keep]
    # One order fixes both each location's coordinates (its first record)
    # and the order in which each cell's counts are summed, so neither
    # depends on the input order.
    order = np.lexsort((lon, lat, count, cell))
    cell = cell[order]
    first = order[np.flatnonzero(np.diff(loc[order], prepend=-1))]

    values = np.bincount(cell, weights=count[order], minlength=len(ids) * n_hours)
    locations = list(zip(ids, lat[first].tolist(), lon[first].tolist()))
    return CountMatrix(values.reshape(len(ids), n_hours), locations, window.hours(),
                       period_label=table.period_label)


def minmax_normalize(m: CountMatrix) -> NormalizedMatrix:
    """Rescale each hour-bin column of a count matrix into [0, 1].

    Column c maps via (x - min_c) / (max_c - min_c); constant columns map
    to all zeros so no mass is invented. A NaN count makes its column NaN,
    which the solver rejects.
    """
    if m.values.size == 0:
        raise EmptyInputError("cannot normalize an empty matrix")
    lo = m.values.min(axis=0)
    span = m.values.max(axis=0) - lo
    scale = np.where(span > 0, span, 1.0)
    return NormalizedMatrix((m.values - lo) / scale, lo, scale, source=m)
