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
from collections import defaultdict
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
    """Valid count observations of one period held as columns, one entry per
    record. DataError names the first record that fails a check of
    `parse_records` or whose id is not a nonblank str. Counts are float64,
    exact for every valid count; hours are int64, so hour 7.0 is hour 7."""

    location_ids: np.ndarray
    latitude: np.ndarray
    longitude: np.ndarray
    hour: np.ndarray
    count: np.ndarray
    period_label: str

    def __post_init__(self) -> None:
        ids = np.asarray(self.location_ids, dtype=object)
        lat, lon, count = (np.asarray(c, dtype=float)
                           for c in (self.latitude, self.longitude, self.count))
        hour = np.asarray(self.hour)
        hour = hour if hour.dtype == np.int64 else hour.astype(float)
        if len({len(c) for c in (ids, lat, lon, hour, count)}) > 1:
            raise DataError("the columns of a record table differ in length")
        blank = np.fromiter((not (isinstance(i, str) and i.strip()) for i in ids), bool, len(ids))
        reason = _reasons(lat, lon, hour, count, blank)
        if (reason >= 0).any():
            i = np.flatnonzero(reason >= 0)[0]
            raise DataError(f"record at index {i} (location {ids[i]!r}): {_REASONS[reason[i]]}")
        for name, column in (("location_ids", ids), ("latitude", lat), ("longitude", lon),
                             ("hour", hour.astype(np.int64, copy=False)), ("count", count)):
            object.__setattr__(self, name, column)  # the dataclass is frozen

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
# Accepted rows are taken in groups of about this many, so that a period
# makes few numpy calls while a group's arrays stay small.
_GROUP_ROWS = 8192

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
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    rejections, codes = RejectionSummary(), defaultdict(itertools.count().__next__)
    columns = list(zip(*_accepted_rows(stream, schema or ColumnMapping(), rejections, codes)))
    # One column at a time, its groups freed once it is joined. The rows of
    # one location share one id string.
    locs, lats, lons, hours, counts = (np.concatenate(columns.pop(0)) for _ in range(5))
    locs = np.array(list(codes), dtype=object)[locs]
    return ParseResult(RecordTable(locs, lats, lons, hours, counts, period_label), rejections)


def _accepted_rows(stream, schema: ColumnMapping, rejections: RejectionSummary, codes):
    """Yield the accepted rows, as `_validate` returns a block's, in groups of
    about `_GROUP_ROWS`, adding the rejected ones to `rejections`. Raises
    EmptyInputError at the end if the input has no data rows."""
    n_rows, group, rows = 0, [], 0
    for fields, lines, _ in _split_rows(stream, schema.delimiter,
                                        lambda header: _column_indices(header, schema)):
        n_rows += len(lines)
        group.append(_validate(fields, lines, rejections, codes))
        rows += len(group[-1][3])
        if rows >= _GROUP_ROWS:
            yield [np.concatenate(column) for column in zip(*group)]
            group, rows = [], 0
    if n_rows == 0:
        raise EmptyInputError("input has a header but no data rows")
    if group:
        yield [np.concatenate(column) for column in zip(*group)]


def _split_rows(stream, delimiter: str, columns, where: str = ""):
    """Yield, one block at a time, the picked fields of the data rows as
    string columns ("" where a row is short), the physical line on which
    each row ends and each row's number of fields. `columns(header)` gets
    the header's fields (None for an empty input, where it must raise) and
    returns the indices to pick.

    Blocks of ASCII lines without quotes or bare "\\r" are split at their
    delimiter offsets; from the first block that is not, the rest goes
    through csv. A line csv cannot split is a DataError, `where` and the
    line, raised once the rows before it are yielded; so is a line that is
    not valid text (`_blocks`), raised before its block is split.
    """
    limit = csv.field_size_limit()
    indices = None
    blocks = _blocks(stream, where)
    for block, text, first in blocks:
        if not _is_plain(text, max(map(len, block)), limit):
            break
        if indices is None:
            header = block[0].rstrip("\r\n")
            indices = columns(header.split(delimiter) if header else [])
            text = text[len(block[0]):]
            first += 1
        yield _split_plain(text, indices, ord(delimiter), first)
    else:  # every block was plain
        if indices is None:
            columns(None)
        return

    lines = itertools.chain(block, itertools.chain.from_iterable(b for b, _, _ in blocks))
    reader = csv.reader(lines, delimiter=delimiter)
    try:
        if indices is None:
            indices = columns(next(reader))
        yield from _split_csv(reader, indices, first - 1)
    except csv.Error as e:  # e.g. a bare "\r" in an unquoted field of a str, or a
        # field longer than csv.field_size_limit()
        raise DataError(f"{where}line {first - 1 + reader.line_num}: {e}") from None


def _blocks(stream, where: str):
    """Yield the input a block of whole lines at a time, as
    `stream.readlines(_BLOCK_CHARS)` gives it: the lines, their text and the
    physical line of the first. A line holding a lone surrogate, which no
    UTF-8 text holds, is a DataError, `where` and the line: U+DC80..U+DCFF
    is a byte that is not UTF-8, as a file opened with
    errors="surrogateescape" keeps it; any other is a character."""
    line_no = 0  # physical lines read so far
    while block := stream.readlines(_BLOCK_CHARS):
        text = "".join(block)
        if not text.isascii():
            for k, line in enumerate(block, line_no + 1):
                try:
                    line.encode()
                except UnicodeEncodeError as e:
                    code = ord(line[e.start])
                    what = (f"byte {code - 0xDC00:#04x} is not UTF-8" if 0xDC80 <= code <= 0xDCFF
                            else f"character U+{code:04X} is not valid text")
                    raise DataError(f"{where}line {k}: {what}; "
                                    "the whole file is rejected") from None
        yield block, text, line_no + 1
        line_no += len(block)


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


def _whole(text: str) -> bool:
    """Whether the number that `float` parses from `text` is whole, exactly."""
    from decimal import Decimal  # loaded only on the rare count that needs it

    # Decimal reads a text of any length; int() and Fraction stop at 4300 digits.
    number = Decimal(text)
    return number == number.to_integral_value()


def _reasons(lat, lon, hour, count, malformed: np.ndarray) -> np.ndarray:
    """Each row's index into `_REASONS` of the first check it fails, or -1:
    flagged in `malformed` or a count not integral; a negative count; an
    hour not an integer in 0..23; coordinates out of range. NaN fails each."""
    reason = np.full(len(count), -1, np.int8)
    # Later assignments take precedence, so the checks run here in reverse.
    reason[~_in_range(lat, lon)] = 3
    reason[~(_integral(hour) & (0 <= hour) & (hour <= 23))] = 2
    reason[count < 0] = 1
    reason[malformed | ~_integral(count)] = 0
    return reason


def _validate(fields, lines: np.ndarray, rejections: RejectionSummary, codes: defaultdict):
    """Check one block of rows, add its rejections in row order and return
    its accepted rows as five arrays, the hours as int64 and each location
    id as its code in `codes`, which gives a new id the next code.

    `_reasons` gives each row's reason, an empty location, a latitude or
    longitude that is not a number, or a count whose text is not a whole
    number being malformed.
    """
    loc_ids, lat, lon, hour, count_text = fields
    loc_ids = list(map(str.strip, loc_ids))
    (lat, bad_lat), (lon, bad_lon), (hour, _), (count, _) = map(
        _floats, (lat, lon, hour, count_text))
    has_id = np.fromiter(map(bool, loc_ids), bool, len(loc_ids))
    malformed = bad_lat | bad_lon | ~has_id
    # From 2**52 on every float is whole, so float() may have rounded away a
    # fraction that only the text still shows.
    for i in np.flatnonzero(np.isfinite(count) & (np.abs(count) >= 2**52)).tolist():
        malformed[i] |= not _whole(count_text[i])
    reason = _reasons(lat, lon, hour, count, malformed)
    rejected = np.flatnonzero(reason >= 0)
    for line, r in zip(lines[rejected].tolist(), reason[rejected].tolist()):
        rejections.add(line, _REASONS[r])

    keep = reason < 0
    loc = np.fromiter(map(codes.__getitem__, itertools.compress(loc_ids, keep.tolist())),
                      np.int64, np.count_nonzero(keep))
    return loc, lat[keep], lon[keep], hour[keep].astype(np.int64), count[keep]


def build_matrix(records: RecordTable, window: HourWindow | None = None) -> CountMatrix:
    """Sum a record table into a location-by-hour count matrix over the given window.

    Entry (i, j) is the cumulative count for location i at hour bin j;
    (location, hour) cells with no record are 0. Sums are exact, whatever
    the record order; a cell that reaches 2**53 is a DataError.
    """
    cells = _Aggregate(window or HourWindow())
    loc = np.fromiter(map(cells.codes.__getitem__, records.location_ids), np.int64, len(records))
    cells.add(loc, records.latitude, records.longitude, records.hour, records.count)
    return cells.matrix(records.period_label)


class _Aggregate:
    """Valid records summed per (location, hour) cell over an hour window in
    record order, a block at a time, in memory per location; a location's
    coordinates are its least record's by (hour, count, latitude, longitude),
    first added first."""

    def __init__(self, window: HourWindow) -> None:
        self.window = window
        self.records = 0  # records added, inside the window or not
        self.codes = defaultdict(itertools.count().__next__)  # a new id gets the next code
        self.sums = np.zeros(0)
        self.candidate = np.zeros((0, 4))

    def add(self, loc, lat, lon, hour, count) -> None:
        """Add one block of valid records, given as columns in `_validate`'s
        order, each location id as its code in `codes`."""
        self.records += len(hour)
        start, n_hours = self.window.start, self.window.end - self.window.start + 1
        keep = (hour >= start) & (hour <= self.window.end)
        if not keep.all():
            loc, lat, lon, hour, count = (c[keep] for c in (loc, lat, lon, hour, count))
        if grow := len(self.codes) - len(self.candidate):
            self.sums = np.concatenate((self.sums, np.zeros(grow * n_hours)))
            self.candidate = np.concatenate((self.candidate, np.full((grow, 4), 24.0)))

        cell = loc * n_hours
        cell += hour - start
        # Whole, nonnegative counts: each partial sum is exact below 2**53.
        np.add.at(self.sums, cell, count)

        # The candidates that compete: the records at their location's lowest
        # hour so far, after the held candidates at that hour. Key by key,
        # each location keeps those at the least value; the first left wins.
        lowest = self.candidate[:, 0].copy()
        np.minimum.at(lowest, loc, hour)
        rows = np.flatnonzero(hour == lowest[loc])
        held = np.flatnonzero((np.bincount(loc[rows], minlength=len(lowest)) > 0)
                              & (self.candidate[:, 0] == lowest))
        code = np.concatenate((held, loc[rows]))
        keys = np.concatenate((self.candidate[held],
                               np.column_stack([c[rows] for c in (hour, count, lat, lon)])))
        for k in (1, 2, 3):
            least = np.full(len(lowest), np.inf)
            np.minimum.at(least, code, keys[:, k])
            left = keys[:, k] == least[code]
            code, keys = code[left], keys[left]
        first = np.unique(code, return_index=True)[1]
        self.candidate[code[first]] = keys[first]

    def matrix(self, period_label: str) -> CountMatrix:
        """The count matrix of the locations with a record inside the window,
        rows sorted by id. EmptyInputError if there are none, naming the
        hour window only if a record was added; DataError, naming the
        location and hour, if a cell's sum reaches 2**53, past which float64
        no longer holds every whole number."""
        ids = list(self.codes)
        # Sorting the ids in Python keeps str ordering exact; numpy's
        # fixed-width strings would drop trailing NULs.
        rows = sorted(np.flatnonzero(self.candidate[:, 0] < 24).tolist(), key=ids.__getitem__)
        if not rows:
            raise EmptyInputError("no records inside the hour window" if self.records
                                  else "no valid records")
        values = self.sums.reshape(len(self.candidate), -1)[rows]
        if len(big := np.argwhere(values >= 2**53)):
            i, j = big[0]
            raise DataError(f"location {ids[rows[i]]!r}, hour {self.window.start + j}: the "
                            f"counts sum to 2**53 or more, too large to sum exactly in float64")
        locations = list(zip(map(ids.__getitem__, rows), *self.candidate[rows, 2:].T.tolist()))
        return CountMatrix(values, locations, self.window.hours(), period_label=period_label)


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
