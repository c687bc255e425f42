import csv
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from trafficnmf import io as tio
from trafficnmf.errors import DataError, EmptyInputError, MissingInputError
from trafficnmf.ingest import CountMatrix, HourWindow, build_matrix, minmax_normalize, parse_records
from trafficnmf.nmf import NmfConfig, factorize
from trafficnmf.patterns import (
    compare_periods,
    extract_patterns,
    match_patterns,
    normalization_column_scales,
)
from trafficnmf.rank import rank_scan
from trafficnmf.synth import SyntheticSpec, generate_period


@pytest.fixture
def matrix():
    period = generate_period(SyntheticSpec(n_locations=12, n_hours=12, planted_rank=3,
                                           noise_level=0.02, seed=4))
    return build_matrix(period.records)


def test_count_matrix_roundtrip(tmp_path, matrix):
    path = tmp_path / "counts_A.csv"
    tio.write_count_matrix(path, matrix)
    back = tio.read_count_matrix(path, period_label="A")
    assert np.array_equal(back.values, matrix.values)
    assert back.locations == matrix.locations
    assert back.hours == matrix.hours
    assert back.period_label == "A"


# Location ids as raw files may carry them: a comma, a quote, a newline, NUL and
# a byte-order mark among ordinary characters, spaces that parsing strips, or
# nothing left after the strip (a rejected row), and a bare "\r", which the
# table writer quotes.
RAW_IDS = st.text(alphabet=st.sampled_from([",", '"', "\n", "\r", "\x00", "\ufeff", " ", "a", "7",
                                            "é"]),
                  max_size=6)
RAW_ROWS = st.lists(
    st.tuples(RAW_IDS,
              st.floats(-90, 90, allow_nan=False),
              st.floats(-180, 180, allow_nan=False),
              st.integers(0, 23),
              st.integers(0, 10**6)),
    min_size=1, max_size=30)


@settings(max_examples=150, deadline=None)
@given(rows=RAW_ROWS)
def test_accepted_raw_records_round_trip_through_a_count_table(rows):
    raw = io.StringIO(newline="")
    writer = csv.writer(raw)  # "\r\n" line ends, so that csv quotes an id holding "\r"
    writer.writerow(["count_point_id", "latitude", "longitude", "hour", "all_motor_vehicles"])
    writer.writerows([loc, repr(lat), repr(lon), hour, count] for loc, lat, lon, hour, count in rows)
    try:
        matrix = build_matrix(parse_records(raw.getvalue()).records, HourWindow(0, 23))
    except EmptyInputError:  # every row rejected
        assume(False)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "counts.csv"
        tio.write_count_matrix(path, matrix)
        back = tio.read_count_matrix(path)
    assert back.locations == matrix.locations
    assert back.hours == matrix.hours
    assert np.array_equal(back.values, matrix.values)
    accepted = {loc.strip() for loc, *_ in rows if loc.strip()}
    assert [loc for loc, _, _ in back.locations] == sorted(accepted)


def test_read_count_matrix_defaults_period_to_stem(tmp_path, matrix):
    path = tmp_path / "counts_2019.csv"
    tio.write_count_matrix(path, matrix)
    assert tio.read_count_matrix(path).period_label == "counts_2019"


def test_read_count_matrix_missing_file(tmp_path):
    with pytest.raises(MissingInputError):
        tio.read_count_matrix(tmp_path / "nope.csv")


def test_read_count_matrix_rejects_foreign_table(tmp_path):
    path = tmp_path / "other.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(DataError):
        tio.read_count_matrix(path)


@pytest.mark.parametrize("rows, message", [
    (["L1,50,0,1,2", "L2,50,0,1"], "line 3: 4 cells, header has 5"),
    (["L1,50,0,1,2", "", "L2,50,0,1,many"], "line 4: could not convert"),
    (["L1,50,0,1,2", "L1,51,0,1,2"], "line 3: location id 'L1' appears more than once"),
    (["L1,50,0,1,2", "L2,999,0,1,2"], "line 3: coordinates (999.0, 0.0) out of range"),
    (["L1,50,0,1,2", "L2,50,nan,1,2"], "line 3: coordinates (50.0, nan) out of range"),
    (["L1,50,0,1,2", "L2,50,0,-4,2"], "line 3: negative count -4.0"),
    (["L1,50,0,1,2", ",50,0,1,2"], "line 3: empty location id"),
    (["L1,50,0,1,2", "  ,50,0,1,2"], "line 3: empty location id"),
    (["L1,50,0,1,2", "L2,50,0,1," + "9" * (csv.field_size_limit() + 1)],
     "line 3: field larger than field limit"),
])
def test_read_count_matrix_rejects_bad_rows(tmp_path, rows, message):
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(["location_id,latitude,longitude,h07,h08"] + rows) + "\n")
    with pytest.raises(DataError) as excinfo:
        tio.read_count_matrix(path)
    assert str(excinfo.value).startswith(f"{path}, {message}")


@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
def test_read_count_matrix_rejects_a_non_utf8_byte_naming_its_line(tmp_path, newline):
    rows = [b"location_id,latitude,longitude,h07,h08"]
    rows += [f"L{i},50,0,{i},2".encode() for i in range(3000)]
    rows[10] = "L\u00e9,50,0,1,2".encode()  # two bytes, one character
    rows[2500] = b"L\xa3" + rows[2500]  # line 2501, past the first block read
    path = tmp_path / "bad.csv"
    path.write_bytes(newline.join(rows) + newline)
    with pytest.raises(DataError) as excinfo:
        tio.read_count_matrix(path)
    assert str(excinfo.value) == (
        f"{path}, line 2501: byte 0xa3 is not UTF-8; the whole file is rejected")


@pytest.mark.parametrize("hours", ["h07,h\u00b2", "h07,h99", "h07,h24", "h07,x08"],
                         ids=["superscript-digit", "h99", "h24", "no-h"])
def test_read_count_matrix_rejects_a_column_that_names_no_hour(tmp_path, hours):
    path = tmp_path / "bad.csv"
    path.write_text(f"location_id,latitude,longitude,{hours}\nL1,50,0,3,4\n", encoding="utf-8")
    with pytest.raises(DataError) as excinfo:
        tio.read_count_matrix(path)
    name = hours.split(",")[1]
    assert str(excinfo.value) == f"{path}, line 1: unexpected hour column {name!r}"


def test_read_count_matrix_rejects_repeated_hour_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("location_id,latitude,longitude,h07,h07\nL1,50,0,3,4\n")
    with pytest.raises(DataError) as excinfo:
        tio.read_count_matrix(path)
    assert str(excinfo.value) == f"{path}, line 1: hour column 'h07' appears more than once"


def test_read_count_matrix_leaves_non_finite_counts_to_the_solver(tmp_path):
    path = tmp_path / "nonfinite.csv"
    path.write_text("location_id,latitude,longitude,h07,h08\nL1,50,0,nan,2\nL2,50,0,-inf,2\n")
    m = tio.read_count_matrix(path)
    assert np.isnan(m.values[0, 0]) and m.values[1, 0] == -np.inf


def test_factor_and_pattern_exports(tmp_path, matrix):
    x = minmax_normalize(matrix)
    cfg = NmfConfig(rank=3, seed=11)
    pair = factorize(x, cfg)
    tio.write_factor_tables(tmp_path / "loc.csv", tmp_path / "time.csv",
                            tmp_path / "diag.json", pair, matrix, cfg)
    loc_lines = (tmp_path / "loc.csv").read_text().splitlines()
    assert loc_lines[0] == "location_id,latitude,longitude,p1,p2,p3"
    assert len(loc_lines) == 1 + len(matrix.locations)
    time_lines = (tmp_path / "time.csv").read_text().splitlines()
    assert time_lines[0] == "hour,p1,p2,p3"
    diag = json.loads((tmp_path / "diag.json").read_text())
    assert diag["config"]["rank"] == 3
    assert diag["final_loss"] == pair.objective_trace[-1]
    assert diag["iterations_run"] == pair.iterations_run

    ps = extract_patterns(pair, matrix, normalization_column_scales(x))
    tio.write_temporal_patterns(tmp_path / "temporal.csv", ps)
    rows = (tmp_path / "temporal.csv").read_text().splitlines()
    assert rows[0] == "hour,p1,p2,p3"
    assert len(rows) == 13

    tio.write_spatial_geojson(tmp_path / "spatial.geojson", ps)
    geo = json.loads((tmp_path / "spatial.geojson").read_text())
    assert geo["type"] == "FeatureCollection"
    assert len(geo["features"]) == len(matrix.locations)
    feature = geo["features"][0]
    assert feature["geometry"]["type"] == "Point"
    assert set(feature["properties"]) == {"location_id", "dominant_pattern", "p1", "p2", "p3"}


def test_scan_table(tmp_path, matrix):
    x = minmax_normalize(matrix)
    result = rank_scan(x, range(2, 5), NmfConfig(rank=2, seed=0))
    tio.write_scan_table(tmp_path / "scan.csv", result)
    lines = (tmp_path / "scan.csv").read_text().splitlines()
    assert lines[0] == "rank,within_dispersion,between_dispersion,ch_score,final_loss"
    assert len(lines) == 4
    assert [int(line.split(",")[0]) for line in lines[1:]] == [2, 3, 4]


def test_comparison_report_files(tmp_path, matrix):
    x = minmax_normalize(matrix)
    pair = factorize(x, NmfConfig(rank=3, seed=5))
    ps = extract_patterns(pair, matrix, normalization_column_scales(x))
    match = match_patterns(ps, ps)
    report = compare_periods(matrix, matrix, match, ps, ps)
    tio.write_comparison_report(tmp_path / "report.json", tmp_path / "summary.txt",
                                report, ps, ps)
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["total_reduction_pct"] == 0.0
    assert doc["disappeared_count"] == 0
    assert len(doc["matched"]) == 3
    summary = (tmp_path / "summary.txt").read_text()
    assert "0.0% reduction" in summary
    assert "Disappeared" in summary


def test_writers_are_deterministic(tmp_path, matrix):
    x = minmax_normalize(matrix)
    cfg = NmfConfig(rank=3, seed=2)
    pair = factorize(x, cfg)
    ps = extract_patterns(pair, matrix, normalization_column_scales(x))
    for _ in range(2):
        tio.write_count_matrix(tmp_path / f"m{_}.csv", matrix)
        tio.write_temporal_patterns(tmp_path / f"t{_}.csv", ps)
        tio.write_spatial_geojson(tmp_path / f"g{_}.geojson", ps)
    assert (tmp_path / "m0.csv").read_bytes() == (tmp_path / "m1.csv").read_bytes()
    assert (tmp_path / "t0.csv").read_bytes() == (tmp_path / "t1.csv").read_bytes()
    assert (tmp_path / "g0.geojson").read_bytes() == (tmp_path / "g1.geojson").read_bytes()


def test_fmt_integral_and_float():
    assert tio._fmt(8342.0) == "8342"
    assert tio._fmt(0.5) == "0.5"
    assert tio._fmt(float("inf")) == "inf"
    assert float(tio._fmt(1 / 3)) == 1 / 3


def test_count_tables_and_synth_files_keep_their_own_number_formats(tmp_path):
    # Count and factor tables print integral floats without ".0" and other
    # floats as repr; synth files print every float as repr.
    m = CountMatrix(values=np.array([[3.0, 0.5], [1e20, 2.0]]),
                    locations=[("a,b", 50.0, -0.25), ("c", 51.5, 1.0)],
                    hours=[7, 8], period_label="A")
    tio.write_count_matrix(tmp_path / "counts.csv", m)
    assert (tmp_path / "counts.csv").read_bytes() == (
        b"location_id,latitude,longitude,h07,h08\n"
        b'"a,b",50,-0.25,3,0.5\n'
        b"c,51.5,1,1e+20,2\n"
    )
    period = generate_period(SyntheticSpec(n_locations=2, n_hours=2, planted_rank=2),
                             window=HourWindow(7, 8))
    tio.write_synth_period(tmp_path / "synth.csv", tmp_path / "w.csv", tmp_path / "h.csv", period)
    assert (tmp_path / "synth.csv").read_bytes() == (
        b"count_point_id,latitude,longitude,hour,all_motor_vehicles\n"
        b"L00000,50.0,-5.0,7,10684\n"
        b"L00000,50.0,-5.0,8,1972\n"
        b"L00001,50.05,-5.0,7,2280\n"
        b"L00001,50.05,-5.0,8,14072\n"
    )
    assert (tmp_path / "w.csv").read_bytes() == b"p1,p2\n106.0,7.0\n6.0,140.0\n"
    assert (tmp_path / "h.csv").read_bytes() == b"hour,p1,p2\n7,100.0,12.0\n8,12.0,100.0\n"
