import csv
import io
import itertools
import random
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trafficnmf import ingest
from trafficnmf.errors import DataError, EmptyInputError, MissingColumnError
from trafficnmf.ingest import (
    ColumnMapping,
    HourWindow,
    RejectionSummary,
    TrafficRecord,
    build_matrix,
    minmax_normalize,
    parse_records,
)

HEADER = "count_point_id,latitude,longitude,hour,all_motor_vehicles"


def rec(loc, hour, count, period="A", lat=51.0, lon=-0.1):
    return TrafficRecord(loc, lat, lon, hour, count, period)


def records_matrix(records, window=None):
    """The count matrix of valid TrafficRecord objects, built from their raw
    text through parse_records, as the program builds one from a raw file."""
    text = "".join(f"\n{r.location_id},{r.latitude!r},{r.longitude!r},{r.hour},{r.count}"
                   for r in records)
    result = parse_records(HEADER + text + "\n", period_label=records[0].period_label)
    assert result.rejections.total == 0
    return build_matrix(result.records, window)


def test_parse_single_row():
    result = parse_records(HEADER + "\n941,51.5,-0.1,7,120\n")
    assert len(result.records) == 1
    t = result.records
    assert (t.location_ids[0], t.latitude[0], t.longitude[0], t.hour[0], t.count[0]) == (
        "941", 51.5, -0.1, 7, 120)
    assert result.rejections.total == 0


def test_parse_header_only_is_empty_input():
    with pytest.raises(EmptyInputError):
        parse_records(HEADER + "\n")


def test_parse_rejects_negative_count():
    result = parse_records(HEADER + "\n941,51.5,-0.1,7,-5\n942,51.5,-0.1,7,3\n")
    assert len(result.records) == 1
    assert result.rejections.total == 1
    assert result.rejections.by_reason == {"negative count": 1}


def test_parse_rejects_bad_hour_and_coordinates():
    text = (HEADER
            + "\n1,51.5,-0.1,25,10"        # hour out of range
            + "\n2,95.0,-0.1,7,10"         # latitude out of range
            + "\n3,51.5,-0.1,notanhour,10"  # unparseable hour
            + "\n4,51.5,-0.1,7.5,10"       # fractional hour
            + "\n5,51.5,-0.1,7,12.7\n")    # fractional count
    result = parse_records(text)
    assert len(result.records) == 0
    assert result.rejections.total == 5
    assert result.rejections.by_reason["unmappable hour"] == 3
    assert result.rejections.by_reason["coordinates out of range"] == 1
    assert result.rejections.by_reason["malformed"] == 1


def test_parse_accepts_integral_float_formatting():
    result = parse_records(HEADER + "\n941,51.5,-0.1,7.0,120.0\n")
    t = result.records
    assert (t.hour[0], t.count[0]) == (7, 120)


def test_parse_missing_column():
    with pytest.raises(MissingColumnError):
        parse_records("count_point_id,latitude,longitude,hour\n1,51.5,-0.1,7\n")


def test_parse_custom_schema_and_delimiter():
    schema = ColumnMapping(location_id="site", latitude="lat", longitude="lon",
                           hour="hr", count="vehicles", delimiter=";")
    result = parse_records("site;lat;lon;hr;vehicles\nx1;50.0;1.0;9;42\n", schema)
    assert result.records.count[0] == 42


def test_parse_sets_period_label():
    result = parse_records(HEADER + "\n941,51.5,-0.1,7,120\n", period_label="2019")
    assert result.records.period_label == "2019"


def test_parse_tolerates_extra_columns():
    # Raw count downloads carry many more columns than the mapped roles.
    text = (
        "count_point_id,year,region_id,road_name,latitude,longitude,hour,"
        "direction_of_travel,pedal_cycles,all_motor_vehicles\n"
        "941,2019,3,M4,51.5,-0.1,7,N,12,120\n"
        "941,2019,3,M4,51.5,-0.1,7,S,9,95\n"
    )
    result = parse_records(text)
    assert result.records.count.tolist() == [120, 95]
    m = build_matrix(result.records)
    assert m.values[0, 0] == 215.0


def test_build_matrix_hand_summed():
    records = [rec("L1", 7, 5), rec("L1", 7, 3), rec("L2", 9, 4)]
    m = records_matrix(records)
    assert m.shape == (2, 12)
    assert m.hours == list(range(7, 19))
    assert m.row_labels == ["L1", "L2"]
    expected = np.zeros((2, 12))
    expected[0, 0] = 8.0
    expected[1, 2] = 4.0
    assert np.array_equal(m.values, expected)


def test_build_matrix_single_zero_record():
    m = records_matrix([rec("L1", 7, 0)])
    assert m.shape == (1, 12)
    assert np.array_equal(m.values, np.zeros((1, 12)))


def test_build_matrix_empty_window():
    with pytest.raises(EmptyInputError):
        records_matrix([rec("L1", 3, 5)], HourWindow(7, 18))


def test_build_matrix_filters_to_window():
    records = [rec("L1", 7, 5), rec("L1", 3, 99), rec("L1", 20, 7)]
    m = records_matrix(records, HourWindow(7, 18))
    assert m.total() == 5


def test_build_matrix_conservation_and_permutation_invariance():
    rng = np.random.default_rng(0)
    for trial in range(10):
        records = [
            rec(f"L{rng.integers(0, 8)}", int(rng.integers(0, 24)), int(rng.integers(0, 500)))
            for _ in range(60)
        ]
        window = HourWindow(7, 18)
        m = records_matrix(records, window)
        in_window = sum(r.count for r in records if r.hour in window)
        assert m.total() == in_window

        shuffled = records[:]
        random.Random(trial).shuffle(shuffled)
        m2 = records_matrix(shuffled, window)
        assert np.array_equal(m.values, m2.values)
        assert m.locations == m2.locations
        assert m.hours == m2.hours


def test_build_matrix_sums_a_cell_past_2_53_in_ascending_order():
    """Summed in record order, 2**53 + 1 + 1 rounds to 2**53 twice; summed
    in ascending order it is exact, whatever order the records came in."""
    assert float(2**53) + 1 + 1 == 2**53
    for counts in itertools.permutations([2**53, 1, 1]):
        text = "".join(f"\nL1,51.0,-0.1,7,{c}" for c in counts)
        m = build_matrix(parse_records(HEADER + text + "\n").records)
        assert m.values[0, 0] == 2**53 + 2, counts


def test_build_matrix_takes_coordinates_from_the_first_record_of_the_first_cell():
    """A location's coordinates come from its earliest hour; there, from the
    smallest count, then the smallest latitude, then the smallest longitude."""
    records = [rec("L1", 8, 1, lat=40.0, lon=-9.0), rec("L1", 7, 5, lat=50.0, lon=-3.0),
               rec("L1", 7, 5, lat=49.0, lon=-1.0), rec("L1", 7, 5, lat=49.0, lon=-2.0),
               rec("L1", 7, 6, lat=10.0, lon=-9.0)]
    for order in itertools.permutations(records):
        assert records_matrix(list(order)).locations == [("L1", 49.0, -2.0)]


def test_parse_records_keeps_one_id_string_per_location():
    """Across blocks, on the plain path and on the csv path, every row of a
    location holds the same string object, the stripped one for padded ids."""
    ids = ["L1", " L1 ", "L2", "L2\t", "L10"] * 20
    plain = HEADER + "".join(f"\n{loc},51.0,-0.1,{7 + k % 12},{k}" for k, loc in enumerate(ids))
    quoted = plain + '\n"L2",51.0,-0.1,7,1\nL1,51.0,-0.1,8,2\n'
    with mock.patch.object(ingest, "_BLOCK_CHARS", 50):
        for text in (plain + "\n", quoted):
            loc_ids = parse_records(text).records.location_ids
            assert sorted(set(loc_ids)) == ["L1", "L10", "L2"]
            assert len({id(loc) for loc in loc_ids}) == 3


def dft_shaped_file(n_locations=1000):
    """A raw-count file object of 24 rows per location: two directions in
    each hour of the default window, shuffled."""
    rng = random.Random(0)
    rows = [f"CP{i:06d},{51 + i / 1e4!r},{-1 - i / 1e4!r},{hour},{rng.randrange(2000)}"
            for i in range(n_locations) for hour in range(7, 19) for _ in "NS"]
    rng.shuffle(rows)
    data = "\n".join([HEADER, *rows, ""]).encode("ascii")
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=""), len(rows)


def test_parse_and_aggregate_hold_memory_per_location_not_per_row(monkeypatch):
    """The parsed table keeps five 8-byte columns and one id string per
    location, about 43 bytes per row (97 with one string per row); the
    parse peaks at about 58 bytes per row (97 with every block alive while
    all columns are joined); and build_matrix's peak is about 33 bytes per
    row (83 with a sorted copy of each column). The bounds sit 30-40% above
    those values."""
    # Small blocks, so that joining the columns, not one block's strings,
    # sets the parse peak.
    monkeypatch.setattr(ingest, "_BLOCK_CHARS", 4096)
    f, n_rows = dft_shaped_file()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = parse_records(f)
        retained, parse_peak = (v - before for v in tracemalloc.get_traced_memory())
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        m = build_matrix(result.records)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert m.shape == (1000, 12)
    assert retained / n_rows < 60
    assert parse_peak / n_rows < 75
    assert peak / n_rows < 46


def test_minmax_column_formula():
    m = records_matrix([rec("L1", 7, 2), rec("L2", 7, 4), rec("L3", 7, 6)], HourWindow(7, 7))
    x = minmax_normalize(m)
    assert np.allclose(x.values[:, 0], [0.0, 0.5, 1.0])
    assert (x.lo[0], x.lo[0] + x.scale[0]) == (2.0, 6.0)


def test_minmax_constant_column_maps_to_zero():
    m = records_matrix([rec("L1", 7, 5), rec("L2", 7, 5), rec("L3", 7, 5)], HourWindow(7, 7))
    x = minmax_normalize(m)
    assert np.array_equal(x.values[:, 0], np.zeros(3))


def test_minmax_keeps_nan_count_nan():
    m = records_matrix([rec("L1", 7, 2), rec("L2", 7, 4), rec("L1", 8, 1), rec("L2", 8, 3)])
    m.values[1, 0] = np.nan
    x = minmax_normalize(m)
    assert np.isnan(x.values[1, 0])
    assert x.values[:, 1].tolist() == [0.0, 1.0]


def test_minmax_infinite_count_gives_nan_without_a_warning():
    m = records_matrix([rec("L1", 7, 2), rec("L2", 7, 4), rec("L1", 8, 1), rec("L2", 8, 3)])
    m.values[1, 0] = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = minmax_normalize(m)
    assert np.isnan(x.values[1, 0])
    assert x.values[:, 1].tolist() == [0.0, 1.0]


def test_minmax_identity_on_unit_range():
    m = records_matrix([rec("L1", 7, 0), rec("L2", 7, 1)], HourWindow(7, 7))
    x = minmax_normalize(m)
    assert np.array_equal(x.values[:, 0], np.array([0.0, 1.0]))


def test_minmax_bounds_and_roundtrip():
    rng = np.random.default_rng(1)
    for trial in range(20):
        records = [
            rec(f"L{i}", int(h), int(rng.integers(0, 1000)))
            for i in range(rng.integers(2, 12))
            for h in range(7, 19)
        ]
        m = records_matrix(records)
        x = minmax_normalize(m)
        assert x.values.min() >= 0.0 and x.values.max() <= 1.0
        for j in range(m.values.shape[1]):
            lo, hi = m.values[:, j].min(), m.values[:, j].max()
            assert (x.lo[j], x.scale[j]) == (lo, hi - lo if hi > lo else 1.0)
            if hi > lo:
                assert x.values[:, j].min() == 0.0
                assert x.values[:, j].max() == 1.0
        back = x.denormalize()
        scale = max(1.0, np.abs(m.values).max())
        assert np.abs(back - m.values).max() / scale < 1e-9


def test_parse_short_row_missing_location_is_malformed():
    text = "latitude,longitude,hour,all_motor_vehicles,count_point_id\n51,0,7,5,L2\n51,0,7,5\n"
    result = parse_records(text)
    assert build_matrix(result.records).row_labels == ["L2"]
    assert result.rejections.by_reason == {"malformed": 1}


def test_parse_short_row_missing_hour_is_unmappable_hour():
    text = "count_point_id,latitude,longitude,all_motor_vehicles,hour\nL1,51,0,5\n"
    result = parse_records(text)
    assert result.rejections.by_reason == {"unmappable hour": 1}


def test_parse_repeated_mapped_column_is_data_error():
    text = "count_point_id,latitude,longitude,hour,hour,all_motor_vehicles\nL1,51,0,7,8,5\n"
    with pytest.raises(DataError, match="'hour'"):
        parse_records(text)


@pytest.mark.parametrize("row, message", [
    ("2\r,51.5,-0.1,7,10", "line 3: new-line character seen in unquoted field"),
    ('"' + "2" * (csv.field_size_limit() + 1) + '",51.5,-0.1,7,10',
     "line 3: field larger than field limit"),
], ids=["bare-cr", "long-field"])
def test_parse_line_csv_cannot_split_is_data_error(row, message):
    with pytest.raises(DataError) as excinfo:
        parse_records(HEADER + "\n1,51.5,-0.1,7,10\n" + row + "\n")
    assert str(excinfo.value).startswith(message)


def test_rejection_samples_count_blank_lines():
    text = HEADER + "\n1,51.5,-0.1,7,10\n\n\n2,51.5,-0.1,7,-3\n"
    result = parse_records(text)
    assert result.rejections.samples == [(5, "negative count")]


def test_rejection_samples_count_lines_inside_quoted_fields():
    text = ("count_point_id,road_name,latitude,longitude,hour,all_motor_vehicles\n"
            '1,"A4\nWest",51.5,-0.1,7,10\n'
            "2,M4,51.5,-0.1,7,-3\n")
    result = parse_records(text)
    assert result.rejections.samples == [(4, "negative count")]


def reference_parse_and_build(stream, schema, label, window):
    """Row-object parse and sorted-loop aggregation, as before the columnar path,
    with short rows' missing location read as empty and lines counted physically."""
    reader = csv.DictReader(stream, delimiter=schema.delimiter)
    try:
        return _reference(reader, schema, label, window)
    except csv.Error as e:
        raise DataError(f"line {reader.reader.line_num}: {e}") from None


def _reference(reader, schema, label, window):
    for name in schema.required():
        if name not in reader.fieldnames:
            raise MissingColumnError(name)

    def as_int(raw):
        v = float(raw)
        if not v.is_integer():
            raise ValueError(raw)
        return int(v)

    records, rejections, n_rows = [], RejectionSummary(), 0
    for row in reader:
        n_rows += 1
        line_no = reader.reader.line_num
        try:
            loc = (row[schema.location_id] or "").strip()
            lat, lon = float(row[schema.latitude]), float(row[schema.longitude])
            count = as_int(row[schema.count])
        except (TypeError, ValueError):
            rejections.add(line_no, "malformed")
            continue
        if not loc:
            rejections.add(line_no, "malformed")
        elif count < 0:
            rejections.add(line_no, "negative count")
        else:
            try:
                hour = as_int(row[schema.hour])
                if not (0 <= hour <= 23):
                    raise ValueError(hour)
            except (TypeError, ValueError):
                rejections.add(line_no, "unmappable hour")
                continue
            if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
                rejections.add(line_no, "coordinates out of range")
            else:
                records.append(TrafficRecord(loc, lat, lon, hour, count, label))
    if n_rows == 0:
        raise EmptyInputError("no rows")

    in_window = sorted((r for r in records if r.hour in window),
                       key=lambda r: (r.location_id, r.hour, r.count, r.latitude, r.longitude))
    if not in_window:
        raise EmptyInputError("empty window")
    locations, row_of = [], {}
    for r in in_window:
        if r.location_id not in row_of:
            row_of[r.location_id] = len(locations)
            locations.append((r.location_id, r.latitude, r.longitude))
    values = np.zeros((len(locations), len(window.hours())))
    for r in in_window:
        values[row_of[r.location_id], r.hour - window.start] += r.count
    return records, rejections, values, locations


def _outcome(compute):
    try:
        return compute()
    except (EmptyInputError, MissingColumnError) as e:
        return type(e).__name__
    except DataError as e:  # a line csv cannot split: the same line and message
        return str(e)


def _mostly(valid, odd):
    """Mostly valid field text, so that most rows are accepted."""
    return st.integers(0, 11).flatmap(lambda k: odd if k == 11 else valid)


_FIELDS = {
    "location_id": _mostly(st.sampled_from(["L1", "L2", "L10", "b", " L1 ", "L2\t"]),
                           st.sampled_from(["", "  "])),
    "latitude": _mostly(
        st.one_of(st.floats(-90, 90).map(repr), st.sampled_from(["0", "-0", " 12 "])),
        st.sampled_from(["91", "-95.5", "nan", "inf", "x", ""])),
    "longitude": _mostly(
        st.one_of(st.floats(-180, 180).map(repr), st.sampled_from(["-0", "1e1"])),
        st.sampled_from(["-181", "-inf", "", "y"])),
    "hour": _mostly(st.one_of(st.integers(0, 23).map(str), st.sampled_from(["7.0", "-0", " 9 "])),
                    st.sampled_from(["24", "-1", "7.5", "nan", "inf", "", "seven"])),
    "count": _mostly(
        st.one_of(st.integers(0, 600).map(str), st.integers(2**52, 2**60).map(str),
                  st.sampled_from(["7.0", "-0", "1e20"])),
        st.sampled_from(["-3", "-12", "2.5", "nan", "inf", "", "many"])),
}
# Extra columns of the first rows hold plain text; later rows may add
# delimiters, quotes, line ends and non-ASCII letters, which csv.writer quotes
# or leaves as they are.
_PLAIN_EXTRA = st.text(alphabet="ab ", max_size=4)
_ODD_EXTRA = st.text(alphabet="ab ,;|\t\"\n\r\u00e9\u03a9", max_size=4)


@st.composite
def raw_tables(draw):
    delimiter = draw(st.sampled_from([",", ";", "\t", "|"]))
    line_end = draw(st.sampled_from(["\n", "\r\n"]))
    schema = ColumnMapping(delimiter=delimiter)
    roles = draw(st.permutations(list(_FIELDS) + ["road_name", "direction"]))
    names = [getattr(schema, role, role) for role in roles]

    def rows(extra):
        full_row = st.tuples(*(_FIELDS.get(role, extra) for role in roles)).map(list)
        # Some rows are cut short, some are followed by a blank line.
        row = st.tuples(full_row, st.integers(0, 9), st.integers(1, len(roles) - 1),
                        st.integers(0, 9)).map(
            lambda r: (r[0][:r[2]] if r[1] == 9 else r[0], r[3] == 9))
        return st.lists(row, max_size=20)

    plain = draw(rows(_PLAIN_EXTRA))
    odd = draw(rows(_ODD_EXTRA))
    # Repeat some rows so (location, hour) cells get several records.
    both = plain + odd
    if both:
        odd += draw(st.lists(st.sampled_from(both), max_size=10))
    out = io.StringIO()
    writer = csv.writer(out, delimiter=delimiter, lineterminator=line_end)
    writer.writerow(names)

    def write(rows):
        for fields, blank_after in rows:
            writer.writerow(fields)
            if blank_after:
                out.write(line_end)
        return out.tell()

    plain_end = write(plain)
    write(draw(st.permutations(odd)))
    text = out.getvalue()
    if draw(st.booleans()):
        # A bare "\r" after the plain rows: a str input cannot split its line,
        # a file opened with newline="" ends a line there.
        at = draw(st.integers(plain_end, len(text)))
        text = text[:at] + "\r" + text[at:]
    start = draw(st.integers(0, 23))
    window = draw(st.sampled_from([HourWindow(0, 23), HourWindow(), HourWindow(start, 23)]))
    return text, schema, window


@settings(max_examples=150, deadline=None)
@given(raw_tables(), st.booleans())
def test_columnar_ingest_matches_record_reference(table, as_file):
    """The columnar parse equals the record reference for a str and for a file
    opened with newline="", in one block and in blocks of about 50 characters,
    where the first block that is not plain ASCII without quotes switches the
    rest of the input to csv."""
    text, schema, window = table

    def stream():
        if as_file:  # as the CLI opens its inputs
            return io.TextIOWrapper(io.BytesIO(text.encode("utf-8")), encoding="utf-8",
                                    newline="")
        return io.StringIO(text)

    def reference():
        return reference_parse_and_build(stream(), schema, "P", window)

    def columnar():
        result = parse_records(stream() if as_file else text, schema, period_label="P")
        return result, build_matrix(result.records, window)

    want = _outcome(reference)
    for block_chars in (ingest._BLOCK_CHARS, 50):
        with mock.patch.object(ingest, "_BLOCK_CHARS", block_chars):
            got = _outcome(columnar)
        if isinstance(want, str):
            assert got == want
            continue
        result, m = got
        records, rejections, values, locations = want
        assert len(result.records) == len(records)
        assert result.rejections == rejections
        assert np.array_equal(m.values, values)
        assert repr(m.locations) == repr(locations)
        assert m.hours == window.hours()
        assert m.period_label == "P"


# Cell text a reader may meet: numbers out of range or not finite, signed
# zero, padding, an empty cell, Unicode digits, or arbitrary short text.
READER_CELLS = _mostly(st.sampled_from(["nan", "inf", "-inf", "1e400", "-0", " 5 ", "", "-1",
                                        "7.5", "24", "91", "-91", "181", "L1", "\u0663", "1_0"]),
                       st.text(max_size=5))
# Column values. Now and then an id is blank or a count negative, so that
# short tables, which one bad cell rejects, meet them often.
READER_IDS = _mostly(st.from_regex(r"L[0-9]{1,3}", fullmatch=True), st.just(" "))
READER_LATS = st.floats(-90, 90).map(repr)
READER_LONS = st.floats(-180, 180).map(repr)
READER_COUNTS = _mostly(st.integers(0, 10**6).map(str), st.just("-1"))


def reader_rows(*columns, max_rows=8):
    """Up to max_rows rows with one cell per column strategy. In half of the
    rows one cell, in any column, is READER_CELLS text instead; one row in
    twenty is a cell short and one a cell long."""
    n = len(columns)

    def build(drawn):
        *cells, odd_at, odd, size = drawn
        if odd_at >= n:
            cells[odd_at - n] = odd
        return cells[:-1] if size == 18 else cells + ["1"] if size == 19 else cells

    row = st.tuples(*columns, st.integers(0, 2 * n - 1), READER_CELLS, st.integers(0, 19))
    return st.lists(row.map(build), max_size=max_rows)


@settings(max_examples=150, deadline=None)
@given(rows=reader_rows(*(_FIELDS[k] for k in ("location_id", "latitude", "longitude", "hour",
                                                "count"))))
def test_every_record_parse_records_accepts_is_valid(rows):
    """Every record parse_records accepts holds the id and numbers of one
    input row, and they are valid; any other input raises DataError."""
    out = io.StringIO(newline="")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(HEADER.split(","))
    writer.writerows(rows)
    try:
        t = parse_records(out.getvalue()).records
    except DataError:  # any other exception fails the test
        return

    def number(cell):
        try:
            return float(cell)
        except ValueError:
            return None

    sources = {(row[0].strip(), *map(number, row[1:5])) for row in rows if len(row) >= 5}
    assert all(r in sources for r in zip(t.location_ids, t.latitude, t.longitude, t.hour, t.count))
    assert all(loc.strip() for loc in t.location_ids)
    assert np.all((-90 <= t.latitude) & (t.latitude <= 90))
    assert np.all((-180 <= t.longitude) & (t.longitude <= 180))
    assert t.hour.dtype.kind == "i" and np.all((0 <= t.hour) & (t.hour <= 23))
    assert np.all(np.isfinite(t.count) & (t.count >= 0) & (t.count == np.floor(t.count)))
