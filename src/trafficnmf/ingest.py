"""Parse raw vehicle-count records and aggregate them into location-by-hour matrices.

The input is a delimited text table with one row per count observation
(location, coordinates, clock hour, vehicle count). Records are summed
per (location, hour bin) into a dense count matrix, which is then
min-max normalized per hour-bin column before factorization.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, EmptyInputError, MissingColumnError


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


def _column_indices(header: list[str] | None, schema: ColumnMapping) -> list[int]:
    if header is None:
        raise EmptyInputError("input has no header row")
    indices = []
    for name in schema.required():
        found = [i for i, h in enumerate(header) if h == name]
        if not found:
            raise MissingColumnError(f"column {name!r} not found in header {header}")
        if len(found) > 1:
            raise DataError(f"column {name!r} appears {len(found)} times in header {header}")
        indices.append(found[0])
    return indices


# The input is read in blocks of whole lines of about this many characters.
# Blocks stay small because the string columns of one block are alive at
# once.
_BLOCK_CHARS = 1 << 16

_REASONS = ("malformed", "negative count", "unmappable hour", "coordinates out of range")


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
    DataError if it names a mapped column twice or if csv cannot split a
    line (naming the line), and EmptyInputError if no data rows are
    present.
    """
    schema = schema or ColumnMapping()
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    rejections = RejectionSummary()
    columns, n_rows, ids = [[] for _ in range(5)], 0, {}
    for fields, lines, _ in _split_rows(stream, schema.delimiter,
                                        lambda header: _column_indices(header, schema)):
        n_rows += len(lines)
        for column, block in zip(columns, _validate(fields, lines, rejections, ids)):
            column.append(block)
    if n_rows == 0:
        raise EmptyInputError("input has a header but no data rows")
    # One column at a time, its blocks freed once it is joined.
    locs, lats, lons, hours, counts = (np.concatenate(columns.pop(0)) for _ in range(5))
    table = RecordTable(location_ids=locs, latitude=lats, longitude=lons, hour=hours,
                        count=counts, period_label=period_label)
    return ParseResult(table, rejections)


def _split_rows(stream, delimiter: str, columns, where: str = ""):
    """Yield, one block at a time, the picked fields of the data rows as
    string columns ("" where a row is short), the physical line on which
    each row ends and each row's number of fields. `columns(header)` gets
    the header's fields (None for an empty input, where it must raise) and
    returns the indices to pick.

    Blocks of ASCII lines without quotes or bare "\\r" are split at their
    delimiter offsets; from the first block that is not, the rest goes
    through csv. A line csv cannot split is a DataError, `where` and the
    line, raised once the rows before it are yielded.
    """
    limit = csv.field_size_limit()
    indices = None
    line_no = 0  # physical lines read so far
    while block := stream.readlines(_BLOCK_CHARS):
        text = "".join(block)
        if not _is_plain(text, max(map(len, block)), limit):
            break
        first = line_no + 1
        line_no += len(block)
        if indices is None:
            header = block[0].rstrip("\r\n")
            indices = columns(header.split(delimiter) if header else [])
            text = text[len(block[0]):]
            first += 1
        yield _split_plain(text, indices, ord(delimiter), first)
    if not block:  # every block was plain
        if indices is None:
            columns(None)
        return

    reader = csv.reader(itertools.chain(block, stream), delimiter=delimiter)
    try:
        if indices is None:
            indices = columns(next(reader))
        yield from _split_csv(reader, indices, line_no)
    except csv.Error as e:  # e.g. a bare "\r" in an unquoted field of a str, or a
        # field longer than csv.field_size_limit()
        raise DataError(f"{where}line {line_no + reader.line_num}: {e}") from None


def _is_plain(text: str, longest: int, limit: int) -> bool:
    """Whether csv would split each line of `text` at every delimiter: ASCII,
    no quote, "\\r" only in "\\r\\n" and no line longer than csv's field limit."""
    return (text.isascii() and '"' not in text and longest <= limit
            and ("\r" not in text or text.count("\r") == text.count("\r\n")))


def _split_plain(text: str, indices: list[int], delimiter: int, first_line: int):
    """Split a plain block (`_is_plain`) at its newline and delimiter offsets:
    the picked fields of each non-blank line, "" where a line is short, the
    line numbers of those lines, the first line being `first_line`, and
    their numbers of fields."""
    if "\r" in text:
        text = text.replace("\r\n", "\n")  # a plain block has no other "\r"
    if not text.endswith("\n"):
        text += "\n"  # the input's last line has no line end
    chars = np.frombuffer(text.encode("ascii"), np.uint8)
    # Every separator, with one before the block; each line's fields lie
    # between its separators.
    bounds = np.concatenate(([-1], np.flatnonzero((chars == delimiter) | (chars == ord("\n")))))
    line_ends = np.flatnonzero(chars[bounds[1:]] == ord("\n")) + 1
    before = np.concatenate(([0], line_ends[:-1]))
    rows = np.flatnonzero(bounds[line_ends] > bounds[before] + 1)
    widths = line_ends[rows] - before[rows]
    # One row per non-blank line, one column per picked field.
    k = np.array(indices)
    before = before[rows, None]
    present = k < widths[:, None]
    at = np.minimum(before + k, len(bounds) - 2)
    begin = np.where(present, bounds[at] + 1, 0).ravel()
    end = np.where(present, bounds[at + 1], 0).ravel()
    # Gather the fields, row by row, into one string in which "\n", which no
    # field holds, ends each field, and split that string once. The offsets
    # fit int32, which halves the largest arrays of a count table's block.
    size = end - begin + 1
    out = np.cumsum(size) - size
    source = np.repeat((begin - out).astype(np.int32), size)
    source += np.arange(len(source), dtype=np.int32)
    source[out + size - 1] = len(text) - 1
    picked = chars[source].tobytes().decode("ascii").split("\n")
    return [picked[j:-1:len(k)] for j in range(len(k))], rows + first_line, widths


def _split_csv(reader, indices: list[int], line_no: int):
    """Pick the fields of each row csv splits, "" where a row is short, with
    the physical line on which it ends, `line_no` lines having been read
    before the reader's first, and its number of fields. A csv.Error is
    raised again once the rows before it are yielded."""
    pick = operator.itemgetter(*indices)
    width = max(indices) + 1
    batch = max(1, _BLOCK_CHARS // 64)  # about the rows of one block
    picked, lines, widths = [], [], []

    def rows():
        return list(zip(*picked)), np.array(lines) + line_no, np.array(widths)

    try:
        for row in reader:
            if not row:
                continue
            widths.append(len(row))
            row += [""] * (width - len(row))
            picked.append(pick(row))
            lines.append(reader.line_num)
            if len(picked) == batch:
                yield rows()
                picked, lines, widths = [], [], []
    except csv.Error:
        if picked:
            yield rows()
        raise
    if picked:
        yield rows()


def _floats(column) -> tuple[np.ndarray, np.ndarray]:
    """A column's values as floats, NaN where a value does not parse, and the
    mask of those values. Values are parsed one at a time only when the
    column holds one that does not parse."""
    n = len(column)
    try:
        return np.fromiter(map(float, column), float, n), np.zeros(n, bool)
    except ValueError:
        pass
    values, failed = np.empty(n), np.zeros(n, bool)
    for i, text in enumerate(column):
        try:
            values[i] = float(text)
        except ValueError:
            values[i], failed[i] = math.nan, True
    return values, failed


def _in_range(lat: np.ndarray, lon: np.ndarray) -> np.ndarray:
    """Where coordinates lie in -90..90 and -180..180; NaN lies outside."""
    return (-90.0 <= lat) & (lat <= 90.0) & (-180.0 <= lon) & (lon <= 180.0)


def _integral(values: np.ndarray) -> np.ndarray:
    return np.isfinite(values) & (np.floor(values) == values)


def _validate(fields, lines: np.ndarray, rejections: RejectionSummary, ids: dict[str, str]):
    """Check one block of rows, add its rejections in row order and return
    its accepted rows as five arrays, the hours as int64. Each location id
    is the first string `ids` holds for it, so the rows of one location
    share one string.

    Each row's reason is the first of the checks that fails, in this order:
    location, latitude, longitude or count missing or not a number, or a
    count that is not integral (malformed); a negative count; an hour that
    is not a number or not an integer in 0..23; coordinates out of range.
    """
    loc_ids, lat, lon, hour, count = fields
    loc_ids = list(map(str.strip, loc_ids))
    loc_ids = list(map(ids.setdefault, loc_ids, loc_ids))
    (lat, bad_lat), (lon, bad_lon), (hour, bad_hour), (count, bad_count) = map(
        _floats, (lat, lon, hour, count))
    has_id = np.fromiter(map(bool, loc_ids), bool, len(loc_ids))

    reason = np.full(len(loc_ids), -1)
    # Later assignments take precedence, so the checks run here in reverse.
    reason[~_in_range(lat, lon)] = 3
    reason[bad_hour | ~(_integral(hour) & (0 <= hour) & (hour <= 23))] = 2
    reason[count < 0] = 1
    reason[bad_lat | bad_lon | bad_count | ~has_id | ~_integral(count)] = 0
    rejected = np.flatnonzero(reason >= 0)
    for line, r in zip(lines[rejected].tolist(), reason[rejected].tolist()):
        rejections.add(line, _REASONS[r])

    keep = reason < 0
    return (np.array(loc_ids, dtype=object)[keep], lat[keep], lon[keep],
            hour[keep].astype(np.int64), count[keep])


def build_matrix(records: RecordTable, window: HourWindow | None = None) -> CountMatrix:
    """Sum parsed records into a location-by-hour count matrix over the given window.

    Entry (i, j) is the cumulative count for location i at hour bin j;
    (location, hour) cells with no record are 0. The result is independent
    of the input record order.
    """
    window = window or HourWindow()
    keep = (records.hour >= window.start) & (records.hour <= window.end)
    if not keep.any():
        raise EmptyInputError("no records inside the hour window")
    columns = (records.location_ids, records.hour, records.count, records.latitude,
               records.longitude)
    loc_ids, hour, count, lat, lon = columns if keep.all() else (c[keep] for c in columns)

    # Sorting the distinct ids in Python keeps str ordering exact; numpy's
    # fixed-width strings would drop trailing NULs.
    ids = sorted(set(loc_ids))
    row_of = {loc_id: i for i, loc_id in enumerate(ids)}
    n_hours = window.end - window.start + 1
    loc = np.fromiter(map(row_of.__getitem__, loc_ids), np.int64, len(loc_ids))
    cell = loc * n_hours
    cell += hour - window.start
    # Each cell's counts are summed in ascending order, so the sum does not
    # depend on the input order. Below 2**53 every partial sum of integral
    # counts is exact, so any order gives those bits.
    in_order = np.abs(count).sum() < 2**53 and (np.trunc(count) == count).all()
    order = slice(None) if in_order else np.lexsort((count, cell))
    values = np.bincount(cell[order], weights=count[order], minlength=len(ids) * n_hours)
    # A location's coordinates are those of the first of the records in its
    # first cell, ordered by count, latitude and longitude.
    filled = np.bincount(cell, minlength=len(ids) * n_hours).reshape(len(ids), n_hours) > 0
    first_cell = filled.argmax(axis=1) + np.arange(len(ids)) * n_hours
    candidates = np.flatnonzero(cell == first_cell[loc])
    order = candidates[np.lexsort(tuple(c[candidates] for c in (lon, lat, count, cell)))]
    first = order[np.flatnonzero(np.diff(loc[order], prepend=-1))]
    locations = list(zip(ids, lat[first].tolist(), lon[first].tolist()))
    return CountMatrix(values.reshape(len(ids), n_hours), locations, window.hours(),
                       period_label=records.period_label)


def minmax_normalize(m: CountMatrix) -> NormalizedMatrix:
    """Rescale each hour-bin column of a count matrix into [0, 1].

    Column c maps via (x - min_c) / (max_c - min_c); constant columns map
    to all zeros so no mass is invented. A NaN or infinite count makes its
    column NaN, which the solver rejects.
    """
    if m.values.size == 0:
        raise EmptyInputError("cannot normalize an empty matrix")
    lo = m.values.min(axis=0)
    # An infinite count gives inf - inf or inf / inf: NaN, left to the solver.
    with np.errstate(invalid="ignore"):
        span = m.values.max(axis=0) - lo
        scale = np.where(span > 0, span, 1.0)
        return NormalizedMatrix((m.values - lo) / scale, lo, scale, source=m)
