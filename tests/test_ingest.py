import contextlib
import csv
import io
import itertools
import os
import random
import tempfile
import threading
import tracemalloc
import warnings
from decimal import Decimal
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trafficnmf import ingest
from trafficnmf import io as tio
from trafficnmf.cli import main
from trafficnmf.errors import DataError, EmptyInputError, MissingColumnError
from trafficnmf.ingest import (
    ColumnMapping,
    HourWindow,
    RecordTable,
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


def test_a_count_past_2_52_is_whole_only_if_its_text_is(tmp_path):
    """From 2**52 on float() rounds every count to a whole number, so the
    text decides: a fraction there is malformed, as 2.5 is."""
    # Past 4300 digits int() refuses a text, so L5's and L6's are checked too.
    rows = ["L1,51,0,7,4503599627370496.5", "L2,51,0,7,4503599627370496",
            "L3,51,0,7,4.503599627370496e15", "L4,51,0,7,-9007199254740993.5",
            "L5,51,0,7,4503599627370496." + "0" * 5000,
            "L6,51,0,7,4503599627370496." + "0" * 4999 + "1"]
    text = "\n".join([HEADER, *rows]) + "\n"
    result = parse_records(text)
    assert result.records.location_ids.tolist() == ["L2", "L3", "L5"]
    assert result.records.count.tolist() == [2**52, 2**52, 2**52]
    assert result.rejections.samples == [(2, "malformed"), (5, "malformed"), (7, "malformed")]

    path = tmp_path / "big.csv"
    path.write_text(text)
    code, out, err = cli_ingest(path, tmp_path / "out")
    assert (code, err) == (0, "")
    assert out.startswith(f"{path}: 3 records parsed, 3 rows rejected (malformed: 3)\n")
    table = (tmp_path / "out" / "counts_A.csv").read_text().splitlines()[1:]
    assert [(row.split(",")[0], float(row.split(",")[3])) for row in table] == [
        ("L2", 2**52), ("L3", 2**52), ("L5", 2**52)]


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


@pytest.mark.parametrize("column, value, reason", [
    ("location_ids", "", "malformed"),
    ("location_ids", " ", "malformed"),
    ("location_ids", 3, "malformed"),
    ("count", np.nan, "malformed"),
    ("count", 2.5, "malformed"),
    ("count", -5, "negative count"),
    ("hour", 24, "unmappable hour"),
    ("hour", 7.5, "unmappable hour"),
    ("hour", np.nan, "unmappable hour"),
    ("latitude", 999, "coordinates out of range"),
    ("longitude", np.nan, "coordinates out of range"),
])
def test_record_table_rejects_an_invalid_record(column, value, reason):
    columns = {"location_ids": ["L1", "L2", "L3"], "latitude": [51.0, 52.0, 53.0],
               "longitude": [-0.1, -0.2, -0.3], "hour": [7, 8, 9], "count": [1, 2, 3]}
    columns[column][1] = value
    with pytest.raises(DataError) as excinfo:
        RecordTable(**columns, period_label="A")
    assert str(excinfo.value) == (
        f"record at index 1 (location {columns['location_ids'][1]!r}): {reason}")


def test_record_table_reports_its_first_invalid_record_and_unequal_columns():
    with pytest.raises(DataError, match=r"^record at index 0 \(location 'L1'\): negative count$"):
        RecordTable(["L1", "L2"], [999, 51], [0, 0], [7, 7], [-5, 3], "A")
    with pytest.raises(DataError, match="differ in length"):
        RecordTable(["L1", "L2"], [51, 51], [0, 0], [7, 7], [3], "A")


def test_record_table_takes_an_integral_float_hour_as_the_int_hour():
    columns = (["L1", "L2"], [51.0, 52.0], [0.0, 0.0])
    t = RecordTable(*columns, np.array([7.0, 8.0]), [1, 2], "A")
    assert t.hour.dtype == np.int64 and t.hour.tolist() == [7, 8]
    want = build_matrix(RecordTable(*columns, [7, 8], [1, 2], "A"))
    assert np.array_equal(build_matrix(t).values, want.values)


_CELL_2_53 = ("location 'L1', hour 7: the counts sum to 2**53 or more, "
              "too large to sum exactly in float64")


def _cell_table(counts):
    return HEADER + "".join(f"\nL1,51.0,-0.1,7,{c}" for c in counts) + "\n"


def test_build_matrix_sums_a_cell_past_2_53_in_ascending_order():
    """Summed in record order, 2**53 + 1 + 1 rounds to 2**53 twice, and no
    order makes an already-rounded count exact: in every order, such a cell
    is a DataError from build_matrix. A cell that sums to 2**53 - 1 stays
    exact."""
    assert float(2**53) + 1 + 1 == 2**53
    for counts in itertools.permutations([2**53, 1, 1]):
        with pytest.raises(DataError) as excinfo:
            build_matrix(parse_records(_cell_table(counts)).records)
        assert str(excinfo.value) == _CELL_2_53, counts
        exact = [2**53 - 3 if c == 2**53 else c for c in counts]
        assert build_matrix(parse_records(_cell_table(exact)).records).values[0, 0] == 2**53 - 1


def test_cli_ingest_sums_a_cell_past_2_53_across_blocks_in_ascending_order(tmp_path):
    """Counts 2**53, 1 and 1 of one cell, each in its own block and group:
    in every order, the CLI exits 2 with build_matrix's DataError. A cell
    that sums to 2**53 - 1 is written exactly."""
    for k, counts in enumerate(itertools.permutations([2**53, 1, 1])):
        exact = [2**53 - 3 if c == 2**53 else c for c in counts]
        for name, text, code in (("big", _cell_table(counts), 2), ("exact", _cell_table(exact), 0)):
            path = tmp_path / f"{name}{k}.csv"
            path.write_text(text)
            with (mock.patch.object(ingest, "_BLOCK_CHARS", 1),
                  mock.patch.object(ingest, "_GROUP_ROWS", 1)):
                got = cli_ingest(path, tmp_path / "out")
            tally = f"{path}: 3 records parsed, 0 rows rejected\n"
            if code:
                assert got == (2, tally, f"error: {path}: {_CELL_2_53}\n"), counts
            else:
                assert got[0] == 0 and got[1].startswith(tally), counts
                row = (tmp_path / "out" / "counts_A.csv").read_text().splitlines()[1]
                assert float(row.split(",")[3]) == 2**53 - 1


def test_cli_ingest_of_a_pipe_whose_cell_reaches_2_53_exits_2(tmp_path):
    """A pipe is read once, as a file is, and gives the file's DataError."""
    path = tmp_path / "pipe.csv"
    os.mkfifo(path)
    writer = threading.Thread(target=path.write_text, args=(_cell_table([2**53, 1, 1]),),
                              daemon=True)
    writer.start()
    try:
        with (mock.patch.object(ingest, "_BLOCK_CHARS", 1),
              mock.patch.object(ingest, "_GROUP_ROWS", 1)):
            got = cli_ingest(path, tmp_path / "out")
    finally:
        writer.join(timeout=60)
    assert not writer.is_alive()
    assert got == (2, f"{path}: 3 records parsed, 0 rows rejected\n",
                   f"error: {path}: {_CELL_2_53}\n")


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_cli_ingest_of_a_pipe_with_a_byte_that_is_not_utf8_exits_2_at_once(tmp_path, newline):
    """A pipe gives the regular file's DataError, at once: the reader
    numbers the lines as it takes them, block by block, and reads each
    input once. The writer sends a few bytes at a time, so that line ends
    fall across the pipe's reads. With "\r\n", one line end straddles byte
    2**16, so the text layer, which reads a regular file in chunks whose
    size divides 2**16, gets its "\r" and its "\n" in two reads."""
    rows = [HEADER.encode()] + [f"L{i},51.0,-0.1,7,{i}".encode() for i in range(1, 6000)]
    rows[5000] = b"L\xa3" + rows[5000]  # line 5001, past the reader's first block of lines
    if newline == "\r\n":
        split = b"\r\n".join(rows).index(b"\r\n", 2**16 - 40)
        rows[1] = b"x" * (2**16 - 1 - split) + rows[1]
    data = newline.encode().join(rows)
    file = tmp_path / "file.csv"
    file.write_bytes(data)
    assert newline != "\r\n" or data[2**16 - 1:2**16 + 1] == b"\r\n"
    message = "byte 0xa3 is not UTF-8; the whole file is rejected\n"
    assert cli_ingest(file, tmp_path / "out") == (2, "", f"error: {file}, line 5001: {message}")

    path = tmp_path / "pipe.csv"
    os.mkfifo(path)

    def write():
        with contextlib.suppress(BrokenPipeError), path.open("wb", buffering=0) as pipe:
            for k in range(0, len(data), 7):
                pipe.write(data[k:k + 7])

    outcome = []
    writer = threading.Thread(target=write, daemon=True)
    reader = threading.Thread(target=lambda: outcome.append(cli_ingest(path, tmp_path / "out")),
                              daemon=True)
    writer.start()
    reader.start()
    reader.join(timeout=60)
    writer.join(timeout=60)
    assert not reader.is_alive() and not writer.is_alive()
    assert outcome == [(2, "", f"error: {path}, line 5001: {message}")]


def _first_bad_byte(data: bytes) -> tuple[int, int]:
    """The physical line and the value of the first byte of `data` that is not
    UTF-8, found on the bytes: "\n", "\r" and "\r\n" each end one line."""
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as e:
        before = data[:e.start]
        return (1 + before.count(b"\n") + before.count(b"\r") - before.count(b"\r\n"),
                data[e.start])
    raise AssertionError("no byte that is not UTF-8")


# A byte that is not UTF-8 alone, a sequence cut short, an encoded
# surrogate and a code point past U+10FFFF.
_BAD_BYTES = st.sampled_from([b"\xa3", b"\x80", b"\xff", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80",
                              b"\xf4\x90\x80\x80"])


@settings(max_examples=100, deadline=None)
@given(n_rows=st.integers(1, 40), line_end=st.sampled_from([b"\n", b"\r\n", b"\r"]),
       quoted_at=st.integers(0, 60), accented_at=st.integers(0, 60), bad=_BAD_BYTES,
       block_chars=st.sampled_from([1, 20, 50, ingest._BLOCK_CHARS]), data=st.data())
def test_a_byte_that_is_not_utf8_is_named_with_its_line(n_rows, line_end, quoted_at,
                                                         accented_at, bad, block_chars, data):
    """`ingest` of raw records and `read_count_matrix` of a count table both
    name the line and the byte that the bytes themselves give, with a quoted
    id or a valid non-ASCII id, before or after the bad byte, moving the
    rest of the file onto the csv path."""
    def table(header, row):
        rows = [row(i).encode() for i in range(n_rows)]
        if quoted_at < n_rows:
            rows[quoted_at] = b'"' + rows[quoted_at].replace(b",", b'",', 1)
        if accented_at < n_rows:
            rows[accented_at] = rows[accented_at].replace(b"L", "Lé".encode(), 1)
        text = line_end.join([header.encode(), *rows]) + line_end
        at = data.draw(st.integers(0, len(text)))
        return text[:at] + bad + text[at:]

    raw = table(HEADER, lambda i: f"L{i},51.0,-0.1,{7 + i % 12},{i}")
    counts = table("location_id,latitude,longitude,h07", lambda i: f"L{i},50,0,{i}")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, text in (("raw.csv", raw), ("counts.csv", counts)):
            (tmp / name).write_bytes(text)
        with mock.patch.object(ingest, "_BLOCK_CHARS", block_chars):
            line, byte = _first_bad_byte(raw)
            message = f"line {line}: byte {byte:#04x} is not UTF-8; the whole file is rejected"
            assert cli_ingest(tmp / "raw.csv", tmp / "out") == (
                2, "", f"error: {tmp / 'raw.csv'}, {message}\n")

            line, byte = _first_bad_byte(counts)
            with pytest.raises(DataError) as excinfo:
                tio.read_count_matrix(tmp / "counts.csv")
            assert str(excinfo.value) == (f"{tmp / 'counts.csv'}, line {line}: byte {byte:#04x} "
                                          f"is not UTF-8; the whole file is rejected")


@pytest.mark.parametrize("char, what", [
    ("\ud800", "character U+D800 is not valid text"),
    ("\udc7f", "character U+DC7F is not valid text"),
    ("\udc80", "byte 0x80 is not UTF-8"),
    ("\udcff", "byte 0xff is not UTF-8"),
    ("\udfff", "character U+DFFF is not valid text"),
])
@pytest.mark.parametrize("quoted", [False, True], ids=["plain", "csv"])
def test_a_lone_surrogate_in_text_is_a_data_error_naming_its_line(char, what, quoted):
    """No UTF-8 text holds a lone surrogate, so a str or a stream holding one
    is rejected, as a file holding a byte that is not UTF-8 is: U+DC80..U+DCFF
    is such a byte as errors="surrogateescape" keeps it, any other is named
    as a character. A quoted id on line 2 puts the surrogate on the csv path."""
    first = '"L1",51,0,7,5' if quoted else "L1,51,0,7,5"
    text = "\n".join([HEADER, first, "L2,51,0,7,5", f"L{char},51,0,7,5", "L4,51,0,7,5", ""])
    for block_chars in (ingest._BLOCK_CHARS, 1):
        with mock.patch.object(ingest, "_BLOCK_CHARS", block_chars):
            for stream in (text, io.StringIO(text)):
                with pytest.raises(DataError) as excinfo:
                    parse_records(stream)
                assert str(excinfo.value) == f"line 4: {what}; the whole file is rejected"


def test_a_caller_who_opens_with_surrogateescape_gets_the_data_error(tmp_path):
    """A file opened as `io.read_text` opens it gives parse_records' DataError;
    opened with strict decoding, it raises UnicodeDecodeError."""
    path = tmp_path / "bad.csv"
    path.write_bytes(f"{HEADER}\r\nL1,51,0,7,5\r\nL\xa3,51,0,7,5\r\n".encode("latin-1"))
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as f:
        with pytest.raises(DataError) as excinfo:
            parse_records(f)
    assert str(excinfo.value) == "line 3: byte 0xa3 is not UTF-8; the whole file is rejected"
    with open(path, newline="", encoding="utf-8") as f, pytest.raises(UnicodeDecodeError):
        parse_records(f)


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
    parse peaks at about 60 bytes per row (97 with every block alive while
    all columns are joined); and build_matrix's peak is about 37 bytes per
    row (83 with a sorted copy of each column). The bounds sit 25-40% above
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


def cli_ingest(path, out, hours="7..18"):
    """`trafficnmf ingest` of one raw file, in-process: exit code, stdout and stderr."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(["ingest", "--input-a", str(path), "--hours", hours, "--out", str(out)])
    return code, stdout.getvalue(), stderr.getvalue()


def library_ingest(path, out, window):
    """What `cli_ingest(path, out)` must give, from build_matrix(parse_records(...)):
    the exit code, stdout and stderr, and the count matrix (None on an error)."""
    tally = ""
    try:
        with tio.read_text(path) as f:
            result = parse_records(f)
            tally = (f"{path}: {len(result.records)} records parsed, "
                     f"{result.rejections.describe()}\n")
            m = build_matrix(result.records, window)
    except DataError as e:
        sep = ", " if str(e).startswith("line ") else ": "
        return (2, tally, f"error: {path}{sep}{e}\n"), None
    lines = f"A: {m.shape[0]} locations x {m.shape[1]} hour bins\nwrote {out / 'counts_A.csv'}\n"
    return (0, tally + lines, ""), m


# Rows for the streamed ingest: a few ids, exactly tied coordinates
# (signed zeros included), every hour, and a bad value of each rejection
# reason in some column.
_CLI_ROW = st.tuples(
    st.sampled_from(["L1", "L2", "L10", " L1 ", ""]),
    st.sampled_from(["51.5", "0", "-0", "91"]),
    st.sampled_from(["-0.1", "0", "-0", "-0.1"]),
    st.sampled_from([*map(str, range(24)), "24"]),
    st.sampled_from(["0", "1", "7", "300", "-3", "2.5"]),
).map(",".join)


@settings(max_examples=150, deadline=None)
# A location's first record in the window, and an exact tie of its
# coordinates, lie in later blocks and groups than its other records.
@example(rows=["L1,10.5,-9.5,12,1", "L2,20.5,-2.5,9,5", "L1,30.5,-3.5,8,4", "L2,10.5,-3.5,9,5",
               "L2,10.5,-3.25,9,5", "L1,40.5,-4.5,8,3", "L2,10.5,-3.5,9,5"],
         quoted_at=50, line_end="\n", hours="7..18", block_chars=1, group_rows=1)
@given(rows=st.lists(_CLI_ROW, min_size=8, max_size=40), quoted_at=st.integers(0, 50),
       line_end=st.sampled_from(["\n", "\r\n"]), hours=st.sampled_from(["7..18", "0..23", "9..9"]),
       block_chars=st.sampled_from([1, 40]), group_rows=st.sampled_from([1, 3, 8192]))
def test_cli_ingest_equals_build_matrix_of_parse_records(rows, quoted_at, line_end, hours,
                                                         block_chars, group_rows):
    """Streamed over at least 3 blocks and, with small groups, summed and
    merged group by group, the CLI's ingest prints the tallies and writes the
    count table that build_matrix(parse_records(...)) gives. A quoted id from
    `quoted_at` on moves the rest of the file onto the csv path."""
    rows = list(rows)
    if quoted_at < len(rows):
        loc_id, rest = rows[quoted_at].split(",", 1)
        rows[quoted_at] = f'"{loc_id}",{rest}'
    text = line_end.join([HEADER, *rows, ""])
    assert len(text) > 3 * block_chars
    window = HourWindow(*map(int, hours.split("..")))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        path = tmp / "raw.csv"
        path.write_bytes(text.encode("ascii"))
        want, m = library_ingest(path, tmp / "out", window)
        with (mock.patch.object(ingest, "_BLOCK_CHARS", block_chars),
              mock.patch.object(ingest, "_GROUP_ROWS", group_rows)):
            assert cli_ingest(path, tmp / "out", hours) == want
        if m is not None:
            tio.write_count_matrix(tmp / "want.csv", m)
            assert (tmp / "out" / "counts_A.csv").read_bytes() == (tmp / "want.csv").read_bytes()


def test_cli_ingest_peak_does_not_grow_with_rows_per_location(tmp_path):
    """Twice the rows at the same 1000 locations raise the traced peak of a
    CLI ingest by under 10%: only the blocks in flight hold rows."""
    peaks = []
    for directions in ("NS", "NSEW"):
        rng = random.Random(0)
        rows = [f"CP{i:06d},{51 + i / 1e4!r},{-1 - i / 1e4!r},{hour},{rng.randrange(2000)}"
                for i in range(1000) for hour in range(7, 19) for _ in directions]
        rng.shuffle(rows)
        path = tmp_path / f"raw_{directions}.csv"
        path.write_text("\n".join([HEADER, *rows, ""]))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assert cli_ingest(path, tmp_path / directions)[0] == 0
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.1 * peaks[0], peaks


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

    def as_count(raw):
        # Whole by its text, exactly: float() rounds 4503599627370496.5 to a
        # whole number.
        v = as_int(raw)
        exact = Decimal(raw)
        if exact != exact.to_integral_value():
            raise ValueError(raw)
        return v

    records, rejections, n_rows = [], RejectionSummary(), 0
    for row in reader:
        n_rows += 1
        line_no = reader.reader.line_num
        try:
            loc = (row[schema.location_id] or "").strip()
            lat, lon = float(row[schema.latitude]), float(row[schema.longitude])
            count = as_count(row[schema.count])
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
    sums = {}
    for r in in_window:
        cell = (row_of[r.location_id], r.hour - window.start)
        sums[cell] = sums.get(cell, 0) + r.count
    values = np.zeros((len(locations), len(window.hours())))
    for (i, j), total in sorted(sums.items()):  # exact int sums
        if total >= 2**53:
            raise DataError(f"location {locations[i][0]!r}, hour {window.start + j}: the counts "
                            f"sum to 2**53 or more, too large to sum exactly in float64")
        values[i, j] = total
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
        st.one_of(st.integers(0, 600).map(str),
                  st.builds(str.format, st.sampled_from(["{}", "{}.0", "{}.5", "{}0e-1", "{}5e-1"]),
                            st.integers(2**52, 2**60)),
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
