import csv
import gc
import json
import os
import pickle
import select
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import trafficnmf.cli as cli
from trafficnmf.cli import main


def run_cli(*argv):
    return main(list(argv))


def exit_code(*argv):
    """The CLI's exit status, whether main returns it or argparse exits."""
    try:
        return run_cli(*argv)
    except SystemExit as e:
        return e.code


@pytest.fixture
def synth_pair(tmp_path):
    out = tmp_path / "synth"
    code = run_cli("synth", "--rank", "6", "--noise", "0.02", "--pair-drop", "2",
                   "--seed", "0", "--label-a", "2019", "--label-b", "2020",
                   "--out", str(out))
    assert code == 0
    return out / "synth_2019.csv", out / "synth_2020.csv"


def test_missing_input_exits_2(tmp_path, capsys):
    code = run_cli("ingest", "--input-a", str(tmp_path / "absent.csv"),
                   "--out", str(tmp_path))
    assert code == 2
    assert "not found" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["ingest", "rank-scan"])
def test_input_that_is_a_directory_exits_2_naming_it(tmp_path, capsys, command):
    # Raw records and count tables alike.
    adir = tmp_path / "adir"
    adir.mkdir()
    assert run_cli(command, "--input-a", str(adir), "--out", str(tmp_path / "out")) == 2
    assert capsys.readouterr().err == f"error: {adir} cannot be read: Is a directory\n"


@pytest.mark.parametrize("below", [False, True], ids=["a-file", "below-a-file"])
@pytest.mark.parametrize("command", ["ingest", "rank-scan", "factorize", "run", "synth"])
def test_out_that_cannot_be_a_directory_exits_1(tmp_path, synth_pair, capsys, command, below):
    raw_a, raw_b = synth_pair
    blocker = tmp_path / "file"
    blocker.write_text("kept\n")
    out = blocker / "out" if below else blocker
    inputs = {"ingest": ["--input-a", str(raw_a)], "synth": [],
              "rank-scan": ["--input-a", str(write_count_table(tmp_path / "t.csv", [[1, 2]]))],
              "factorize": ["--input-a", str(tmp_path / "t.csv"), "--rank-a", "1"],
              "run": ["--input-a", str(raw_a), "--input-b", str(raw_b)]}[command]
    capsys.readouterr()
    assert run_cli(command, *inputs, "--out", str(out)) == 1
    reason = "Not a directory" if below else "File exists"
    assert capsys.readouterr().err == f"error: --out {out} cannot be made a directory: {reason}\n"
    assert blocker.read_text() == "kept\n"


def test_usage_error_exits_1(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        run_cli("ingest", "--no-such-flag")
    assert excinfo.value.code == 1


def test_bad_range_exits_1(tmp_path, synth_pair, capsys):
    raw_a, _ = synth_pair
    code = run_cli("ingest", "--input-a", str(raw_a), "--hours", "banana",
                   "--out", str(tmp_path))
    assert code == 1
    assert "--hours" in capsys.readouterr().err


def write_count_table(path, rows):
    """A count-matrix table with hours 7.. and one row of counts per location."""
    hours = ",".join(f"h{7 + j:02d}" for j in range(len(rows[0])))
    lines = [f"location_id,latitude,longitude,{hours}"]
    lines += [f"L{i},50,0," + ",".join(str(v) for v in row) for i, row in enumerate(rows)]
    path.write_text("\n".join(lines) + "\n")
    return path


def test_numerical_failure_exits_3(tmp_path, capsys):
    # An infinite count fails every rank's factorization.
    table = write_count_table(tmp_path / "inf.csv", [[3, 1, 4], [1, 5, "inf"], [2, 6, 5]])
    code = run_cli("rank-scan", "--input-a", str(table), "--ranks", "2..3",
                   "--out", str(tmp_path))
    assert code == 3
    assert "every candidate rank failed" in capsys.readouterr().err


def test_factorize_non_finite_table_exits_3(tmp_path, capsys):
    table = write_count_table(tmp_path / "inf.csv", [[3, 1, 4], [1, 5, "inf"], [2, 6, 5]])
    code = run_cli("factorize", "--input-a", str(table), "--rank-a", "2",
                   "--out", str(tmp_path))
    assert code == 3
    assert "infinite" in capsys.readouterr().err
    assert not (tmp_path / "A_diagnostics.json").exists()


def test_nan_count_exits_3(tmp_path, capsys):
    # A NaN count must reach the solver, not zero its hour column.
    table = write_count_table(tmp_path / "nan.csv", [[3, 1, 4], [1, 5, "nan"], [2, 6, 5]])
    assert run_cli("factorize", "--input-a", str(table), "--rank-a", "2",
                   "--out", str(tmp_path)) == 3
    assert "NaN" in capsys.readouterr().err
    assert not (tmp_path / "A_time_loadings.csv").exists()
    assert run_cli("rank-scan", "--input-a", str(table), "--ranks", "2..3",
                   "--out", str(tmp_path)) == 3
    assert "every candidate rank failed" in capsys.readouterr().err


@pytest.mark.parametrize("argv, config, message", [
    (["run", "--max-iters", "0"], None, "max_iters must be >= 1, got 0"),
    (["run", "--tol", "0"], None, "tol must be > 0, got 0.0"),
    (["run", "--tol", "-1"], None, "tol must be > 0, got -1.0"),
    (["run", "--tol", "nan"], None, "tol must be > 0, got nan"),
    (["run"], {"rank_a": "x"}, "--rank-a has a bad value 'x'"),
    (["run"], {"rank_a": 6.7}, "--rank-a has a bad value 6.7"),
    (["run"], {"rank_b": True}, "--rank-b has a bad value True"),
    (["run"], {"max_iter": 5}, "unknown key 'max_iter'"),
    (["run"], {"target": "location-factor"}, "unknown key 'target'"),
    (["run", "--target", "location-factor"], None, "unrecognized arguments: --target"),
    (["synth", "--rank", "3", "--pair-drop", "3"], None, "drop must be in 0..2, got 3"),
    (["synth", "--pair-drop", "1", "--pair-scale", "0"], None, "count_scale must be > 0"),
    (["synth", "--noise", "nan"], None, "noise_level must be >= 0, got nan"),
    (["synth", "--pair-drop", "1", "--label-a", "X", "--label-b", "X"], None,
     "give the same output file names"),
    (["synth", "--noise", "inf"], None, "noise_level must be finite, got inf"),
    (["synth", "--pair-drop", "1", "--pair-scale", "inf"], None,
     "count_scale must be finite, got inf"),
    (["synth", "--seed", "-1"], None, "seed must be >= 0, got -1"),
    (["run", "--seed", "-9"], None, "seed must be >= 0, got -9"),
    (["rank-scan", "--seed", "-5"], None, "seed must be >= 0, got -5"),
    (["factorize", "--rank-a", "2", "--seed", "-5"], None, "seed must be >= 0, got -5"),
    (["run", "--tol", "1"], None, "tol must be < 1, got 1.0"),
    (["run", "--tol", "inf"], None, "tol must be < 1, got inf"),
    (["factorize", "--rank-a", "4", "--tol", "inf"], None, "tol must be < 1, got inf"),
    # A setting the command does not take, as a flag or a config key.
    (["ingest", "--seed", "9"], None, "unrecognized arguments: --seed 9"),
    (["rank-scan", "--hours", "8..9"], None, "unrecognized arguments: --hours 8..9"),
    (["factorize", "--hours", "8..9"], None, "unrecognized arguments: --hours 8..9"),
    (["rank-scan"], {"threshold": 0.5}, "unknown key 'threshold' for rank-scan"),
    # No count table or window has more than 24 hour bins.
    (["run", "--ranks", "2..25"], None, "--ranks must be in 1..24, got 25"),
    (["run", "--rank-b", "25"], None, "--rank-b must be in 1..24, got 25"),
    (["rank-scan", "--ranks", "8..2"], None, "--ranks has a bad value '8..2': the range is empty"),
    (["ingest", "--hours", "5..30"], None, "--hours: invalid hour window 5..30"),
    (["run", "--threshold", "1.5"], None, "--threshold must be in [0, 1], got 1.5"),
    (["run", "--config", "absent.json"], None, "config file not found: absent.json"),
    (["run"], [1, 2], "must hold a JSON object"),
])
def test_bad_setting_exits_1_and_writes_nothing(tmp_path, synth_pair, capsys,
                                                argv, config, message):
    raw_a, raw_b = synth_pair
    if argv[0] == "run":
        argv = [*argv, "--input-a", str(raw_a), "--input-b", str(raw_b)]
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv = [*argv, "--config", str(tmp_path / "cfg.json")]
    out = tmp_path / "out"
    assert exit_code(*argv, "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert "error: " in err and message in err
    assert not out.exists()


@pytest.mark.parametrize("argv, code, message", [
    (["ingest"], 1, "--input-a is required for ingest"),
    (["ingest", "--input-a", "ABSENT"], 2, "input file not found: ABSENT"),
    (["ingest", "--input-a", "RAW_A", "--input-b", "ABSENT"], 2, "input file not found: ABSENT"),
    (["rank-scan"], 1, "--input-a is required for rank-scan"),
    (["rank-scan", "--input-a", "ABSENT"], 2, "input file not found: ABSENT"),
    (["factorize", "--rank-a", "2"], 1, "--input-a is required for factorize"),
    (["factorize", "--input-a", "RAW_A"], 1, "--rank-a is required for factorize"),
    (["factorize", "--input-a", "ABSENT", "--rank-a", "2"], 2, "input file not found: ABSENT"),
    (["run", "--input-b", "RAW_B"], 1, "--input-a is required for run"),
    (["run", "--input-a", "RAW_A"], 1, "--input-b is required for run"),
    (["run", "--input-a", "ABSENT", "--input-b", "RAW_B"], 2, "input file not found: ABSENT"),
    (["run", "--input-a", "RAW_A", "--input-b", "ABSENT"], 2, "input file not found: ABSENT"),
    # Path("") is ".", a directory; a directory cannot be read as a file.
    (["ingest", "--input-a", ""], 1, "--input-a has a bad value '': an empty path"),
    (["run", "--input-a", "RAW_A", "--input-b", ""], 1,
     "--input-b has a bad value '': an empty path"),
    (["ingest", "--input-a", "DIR"], 2, "DIR cannot be read: Is a directory"),
    (["rank-scan", "--input-a", "DIR"], 2, "DIR cannot be read: Is a directory"),
    (["run", "--input-a", "RAW_A", "--input-b", "DIR"], 2, "DIR cannot be read: Is a directory"),
])
def test_missing_setting_or_input_writes_nothing(tmp_path, synth_pair, capsys, argv, code,
                                                 message):
    """Required settings and input files are checked before --out is made."""
    raw_a, raw_b = synth_pair
    names = {"RAW_A": str(raw_a), "RAW_B": str(raw_b), "ABSENT": str(tmp_path / "absent.csv"),
             "DIR": str(tmp_path / "dir")}
    (tmp_path / "dir").mkdir()
    capsys.readouterr()
    out = tmp_path / "out"
    assert run_cli(*[names.get(a, a) for a in argv], "--out", str(out)) == code
    for name in ("ABSENT", "DIR"):
        message = message.replace(name, names[name])
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["ingest", "run", "rank-scan", "factorize"])
def test_non_utf8_byte_exits_2_naming_file_and_line(tmp_path, synth_pair, capsys, command):
    raw_a, raw_b = synth_pair
    if command in ("ingest", "run"):
        # A road name in an unmapped column, as a cp1252 re-save writes it.
        lines = raw_b.read_bytes().splitlines()
        lines = [lines[0] + b",road_name"] + [line + b",Aroad" for line in lines[1:]]
        lines[6] = lines[6].replace(b"Aroad", b"A\xa3road")
        bad = tmp_path / "bad_2020.csv"
        argv = ["--input-a", str(raw_a), "--input-b", str(bad)]
        if command == "run":
            argv += ["--rank-a", "6", "--rank-b", "4"]
    else:
        assert run_cli("ingest", "--input-a", str(raw_a), "--out", str(tmp_path)) == 0
        lines = (tmp_path / "counts_A.csv").read_bytes().splitlines()
        lines[6] = b"\xa3" + lines[6]
        bad = tmp_path / "bad_counts.csv"
        argv = ["--input-a", str(bad)] + (["--rank-a", "6"] if command == "factorize" else [])
    bad.write_bytes(b"\r\n".join(lines) + b"\r\n")
    capsys.readouterr()
    assert run_cli_within(120, command, *argv, "--out", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert f"error: {bad}, line 7: byte 0xa3 is not UTF-8; the whole file is rejected\n" in err
    assert "Traceback" not in err


HEADER = "count_point_id,latitude,longitude,hour,all_motor_vehicles\n"


@pytest.mark.parametrize("command", ["run", "ingest"])
@pytest.mark.parametrize("text, message", [
    (None, ": input has no header row"),
    (HEADER, ": input has a header but no data rows"),
    (HEADER.replace("all_motor_vehicles", "cars"), ": column 'all_motor_vehicles' not found"),
    (HEADER + "L1,50,0,8," + "9" * (csv.field_size_limit() + 1) + "\n",
     ", line 2: field larger than field limit"),
    (HEADER + "L1,50,0,3,10\n", ": no records inside the hour window"),
    (HEADER + "L1,50,0,8,-1\nL2,50,0,25,10\n", ": no valid records"),
], ids=["empty", "header-only", "missing-column", "unsplittable", "outside-the-window",
        "every-row-rejected"])
def test_parse_error_names_its_input(tmp_path, synth_pair, capsys, command, text, message):
    # Period B's file fails to parse; the error says which file it was, once.
    raw_a, _ = synth_pair
    if text is None:
        bad = Path(os.devnull)
    else:
        bad = tmp_path / "bad_b.csv"
        bad.write_text(text)
    argv = [command, "--input-a", str(raw_a), "--input-b", str(bad), "--out", str(tmp_path / "out")]
    if command == "run":
        argv += ["--rank-a", "6", "--rank-b", "4"]
    capsys.readouterr()
    assert run_cli_within(120, *argv) == 2
    err = capsys.readouterr().err
    assert f"error: {bad}{message}" in err
    assert err.count(str(bad)) == 1


def test_factorize_invalid_table_exits_2(tmp_path, capsys):
    table = tmp_path / "bad.csv"
    table.write_text("location_id,latitude,longitude,h07,h08\nL1,999,0,3,-4\nL1,50,0,1,2\n")
    code = run_cli("factorize", "--input-a", str(table), "--rank-a", "1",
                   "--label-a", "A", "--out", str(tmp_path / "out"))
    assert code == 2
    assert "line 3: location id 'L1' appears more than once" in capsys.readouterr().err
    assert not (tmp_path / "out" / "A_location_loadings.csv").exists()


@pytest.mark.parametrize("hour", ["h\u00b2", "h99"])
def test_factorize_table_with_a_column_that_names_no_hour_exits_2(tmp_path, capsys, hour):
    table = tmp_path / "bad.csv"
    table.write_text(f"location_id,latitude,longitude,h07,{hour}\nL1,50,0,3,4\nL2,51,0,1,2\n",
                     encoding="utf-8")
    code = run_cli("factorize", "--input-a", str(table), "--rank-a", "1",
                   "--label-a", "A", "--out", str(tmp_path / "out"))
    assert code == 2
    assert f"error: {table}, line 1: unexpected hour column {hour!r}" in capsys.readouterr().err
    assert not (tmp_path / "out" / "A_time_loadings.csv").exists()


@pytest.mark.parametrize("command", [["rank-scan"], ["factorize", "--rank-a", "1"]],
                         ids=["rank-scan", "factorize"])
def test_table_with_no_hour_column_exits_2_naming_the_file(tmp_path, capsys, command):
    table = tmp_path / "bad.csv"
    table.write_text("location_id,latitude,longitude\nL1,50,0\nL2,51,0\n")
    code = run_cli(*command, "--input-a", str(table), "--out", str(tmp_path / "out"))
    assert code == 2
    assert capsys.readouterr().err == f"error: {table}, line 1: no hour column\n"


def test_rank_scan_without_fitting_rank_exits_1(tmp_path, capsys):
    rows = [[(i * 7 + j * 3) % 11 for j in range(12)] for i in range(30)]
    table = write_count_table(tmp_path / "twelve.csv", rows)
    code = run_cli("rank-scan", "--input-a", str(table), "--ranks", "20..22",
                   "--out", str(tmp_path))
    assert code == 1
    assert "exceeds min matrix dimension 12" in capsys.readouterr().err


def test_ingest_reports_shape_and_writes_counts(tmp_path, synth_pair, capsys):
    raw_a, raw_b = synth_pair
    out = tmp_path / "ingested"
    code = run_cli("ingest", "--input-a", str(raw_a), "--input-b", str(raw_b),
                   "--label-a", "2019", "--label-b", "2020", "--out", str(out))
    assert code == 0
    text = capsys.readouterr().out
    assert "2019: 60 locations x 12 hour bins" in text
    assert "2020: 60 locations x 12 hour bins" in text
    assert (out / "counts_2019.csv").exists()
    assert (out / "counts_2020.csv").exists()


def test_rank_scan_recommends_planted_rank(tmp_path, capsys):
    synth_out = tmp_path / "s"
    run_cli("synth", "--rank", "3", "--noise", "0.05", "--seed", "4",
            "--label-a", "A", "--out", str(synth_out))
    ingest_out = tmp_path / "i"
    run_cli("ingest", "--input-a", str(synth_out / "synth_A.csv"), "--out", str(ingest_out))
    capsys.readouterr()
    code = run_cli("rank-scan", "--input-a", str(ingest_out / "counts_A.csv"),
                   "--ranks", "2..8", "--seed", "100", "--out", str(tmp_path))
    assert code == 0
    assert "recommended rank: 3" in capsys.readouterr().out
    scan_lines = (tmp_path / "rank_scan_A.csv").read_text().splitlines()
    assert len(scan_lines) == 8


def test_rank_scan_singleton_range(tmp_path, capsys):
    synth_out = tmp_path / "s"
    run_cli("synth", "--rank", "3", "--seed", "1", "--out", str(synth_out))
    run_cli("ingest", "--input-a", str(synth_out / "synth_A.csv"), "--out", str(synth_out))
    capsys.readouterr()
    code = run_cli("rank-scan", "--input-a", str(synth_out / "counts_A.csv"),
                   "--ranks", "2..2", "--out", str(tmp_path))
    assert code == 0
    assert "recommended rank: 2" in capsys.readouterr().out
    assert len((tmp_path / "rank_scan_A.csv").read_text().splitlines()) == 2


def test_run_identical_periods(tmp_path, synth_pair, capsys):
    raw_a, _ = synth_pair
    out = tmp_path / "same"
    code = run_cli("run", "--input-a", str(raw_a), "--input-b", str(raw_a),
                   "--rank-a", "6", "--rank-b", "6", "--seed", "3",
                   "--label-a", "X", "--label-b", "Y", "--out", str(out))
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["total_reduction_pct"] == 0.0
    assert report["unmatched_a"] == [] and report["unmatched_b"] == []
    assert all(p["similarity"] > 0.999999 for p in report["matched"])


def test_run_drop_two_scenario(tmp_path, synth_pair):
    raw_a, raw_b = synth_pair
    out = tmp_path / "cmp"
    code = run_cli("run", "--input-a", str(raw_a), "--input-b", str(raw_b),
                   "--label-a", "2019", "--label-b", "2020",
                   "--rank-a", "6", "--rank-b", "4", "--seed", "0",
                   "--threshold", "0.8", "--out", str(out))
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert len(report["unmatched_a"]) == 2
    assert report["disappeared_count"] == 2
    assert report["total_reduction_pct"] == pytest.approx(50.0, abs=1.0)
    assert (out / "spatial_patterns_2019.geojson").exists()
    assert (out / "temporal_patterns_2020.csv").exists()


def test_run_uses_scan_when_rank_not_fixed(tmp_path, capsys):
    synth_out = tmp_path / "s"
    run_cli("synth", "--rank", "3", "--noise", "0.05", "--seed", "6",
            "--pair-drop", "1", "--out", str(synth_out))
    out = tmp_path / "auto"
    capsys.readouterr()
    code = run_cli("run", "--input-a", str(synth_out / "synth_A.csv"),
                   "--input-b", str(synth_out / "synth_B.csv"),
                   "--ranks", "2..6", "--seed", "6", "--out", str(out))
    assert code == 0
    assert (out / "rank_scan_A.csv").exists()
    assert (out / "rank_scan_B.csv").exists()
    report = json.loads((out / "report.json").read_text())
    assert report["period_a"]["rank"] == 3
    assert report["period_b"]["rank"] == 2


def test_config_file_with_flag_override(tmp_path, synth_pair, capsys):
    raw_a, raw_b = synth_pair
    cfg = {
        "input_a": str(raw_a),
        "input_b": str(raw_b),
        "label_a": "2019",
        "label_b": "2020",
        "rank_a": 6,
        "rank_b": 4,
        "seed": 0,
        "threshold": 0.8,
        "out": str(tmp_path / "from_config"),
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    code = run_cli("run", "--config", str(cfg_path))
    assert code == 0
    assert (tmp_path / "from_config" / "report.json").exists()

    # flag overrides the config file's out dir
    code = run_cli("run", "--config", str(cfg_path), "--out", str(tmp_path / "flag_wins"))
    assert code == 0
    assert (tmp_path / "flag_wins" / "report.json").exists()


# A value other than its default for each setting, as a config file holds it.
OTHER_VALUES = {"label_a": "spring 19", "label_b": "autumn", "seed": 3, "hours": "8..17",
                "ranks": "3..5", "rank_a": 4, "rank_b": 3, "tol": 0.001, "max_iters": 25,
                "init": "nndsvd", "threshold": 0.6, "locations": 30, "rank": 4, "noise": 0.1,
                "pair_drop": 2, "pair_scale": 0.3}


@pytest.mark.parametrize("command", [c[0] for c in cli._COMMANDS])
def test_each_setting_as_a_flag_or_a_config_key_gives_the_same_outputs(
        tmp_path, synth_pair, capsys, monkeypatch, command):
    """For every setting a command takes, a value given as a flag and the
    same value given as a config-file key write the same --out tree, stdout
    and stderr."""
    raw_a, raw_b = synth_pair
    assert run_cli("ingest", "--input-a", str(raw_a), "--out", str(tmp_path)) == 0
    counts = str(tmp_path / "counts_A.csv")
    # The other settings each run gives as flags: what the command needs, and
    # few iterations.
    given = {
        "ingest": {"input_a": str(raw_a), "input_b": str(raw_b)},
        "rank-scan": {"input_a": counts, "max_iters": 30},
        "factorize": {"input_a": counts, "rank_a": 5, "max_iters": 30},
        "run": {"input_a": str(raw_a), "input_b": str(raw_b), "max_iters": 30},
        "synth": {"pair_drop": 1},
    }[command]
    take_path(monkeypatch, "in-process")
    keys = next(c[3] for c in cli._COMMANDS if c[0] == command)
    for key in keys:
        outputs = []
        for way in ("flag", "config"):
            out = tmp_path / key / way
            settings = {**given, "out": str(out)}
            if key not in ("input_a", "input_b", "out"):
                settings[key] = OTHER_VALUES[key]
            config = {key: settings.pop(key)} if way == "config" else {}
            config_path = tmp_path / key / f"{way}.json"
            config_path.parent.mkdir(exist_ok=True)
            config_path.write_text(json.dumps(config))
            flags = [a for k, v in settings.items() for a in (cli._flag(k), str(v))]
            capsys.readouterr()
            assert run_cli(command, "--config", str(config_path), *flags) == 0, (key, way)
            captured = capsys.readouterr()
            outputs.append(({p.name: p.read_bytes() for p in out.iterdir()},
                            captured.out.replace(str(out), "OUT"), captured.err))
        assert outputs[0] == outputs[1], key


def test_bad_config_file_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = run_cli("run", "--config", str(bad))
    assert code == 1
    assert "not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["not-utf8", "directory"])
def test_config_file_that_cannot_be_read_exits_1(tmp_path, capsys, kind):
    config = tmp_path / "cfg.json"
    if kind == "directory":
        config.mkdir()
    else:
        config.write_bytes(b'{"seed": 1, "label_a": "A\xa3"}')
    out = tmp_path / "out"
    assert run_cli("ingest", "--config", str(config), "--out", str(out)) == 1
    assert capsys.readouterr().err.startswith(f"error: config file {config} cannot be read: ")
    assert not out.exists()


def test_factorize_fixed_rank(tmp_path, synth_pair, capsys):
    raw_a, _ = synth_pair
    run_cli("ingest", "--input-a", str(raw_a), "--label-a", "2019", "--out", str(tmp_path))
    capsys.readouterr()
    code = run_cli("factorize", "--input-a", str(tmp_path / "counts_2019.csv"),
                   "--label-a", "2019", "--rank-a", "6", "--seed", "0",
                   "--out", str(tmp_path))
    assert code == 0
    assert "factorized 2019 at rank 6" in capsys.readouterr().out
    assert (tmp_path / "2019_location_loadings.csv").exists()
    assert (tmp_path / "2019_time_loadings.csv").exists()
    diag = json.loads((tmp_path / "2019_diagnostics.json").read_text())
    # NmfConfig's fields, exactly; the seed is the base seed 0 + rank 6.
    assert diag["config"] == {"rank": 6, "max_iters": 500, "tol": 1e-5, "seed": 6,
                              "init": "random"}


def test_factorize_requires_rank(tmp_path, synth_pair):
    raw_a, _ = synth_pair
    run_cli("ingest", "--input-a", str(raw_a), "--out", str(tmp_path))
    code = run_cli("factorize", "--input-a", str(tmp_path / "counts_A.csv"),
                   "--out", str(tmp_path))
    assert code == 1


def test_pipeline_composition_matches_run(tmp_path, synth_pair):
    # run outputs == the same stages invoked as separate commands
    raw_a, raw_b = synth_pair
    run_out = tmp_path / "whole"
    run_cli("run", "--input-a", str(raw_a), "--input-b", str(raw_b),
            "--label-a", "2019", "--label-b", "2020",
            "--ranks", "2..8", "--seed", "0", "--out", str(run_out))

    step_out = tmp_path / "steps"
    run_cli("ingest", "--input-a", str(raw_a), "--input-b", str(raw_b),
            "--label-a", "2019", "--label-b", "2020", "--out", str(step_out))
    run_cli("rank-scan", "--input-a", str(step_out / "counts_2019.csv"),
            "--label-a", "2019", "--ranks", "2..8", "--seed", "0", "--out", str(step_out))
    run_cli("rank-scan", "--input-a", str(step_out / "counts_2020.csv"),
            "--label-a", "2020", "--ranks", "2..8", "--seed", "0", "--out", str(step_out))
    run_cli("factorize", "--input-a", str(step_out / "counts_2019.csv"),
            "--label-a", "2019", "--rank-a", "6", "--seed", "0", "--out", str(step_out))

    for name in ("counts_2019.csv", "counts_2020.csv", "rank_scan_2019.csv",
                 "rank_scan_2020.csv", "2019_location_loadings.csv",
                 "2019_time_loadings.csv", "2019_diagnostics.json"):
        assert (run_out / name).read_bytes() == (step_out / name).read_bytes(), name


def test_run_reuses_scan_factorization(tmp_path, synth_pair, monkeypatch):
    # The scan's solve at the recommended rank is the final factorization:
    # run calls factorize itself only for fixed ranks, and its outputs
    # match a run with those ranks fixed byte for byte.
    raw_a, raw_b = synth_pair
    solves = []
    real_factorize = cli.factorize

    def counting_factorize(x, nmf_cfg):
        solves.append(nmf_cfg.rank)
        return real_factorize(x, nmf_cfg)

    monkeypatch.setattr(cli, "factorize", counting_factorize)
    # Only the in-process path calls the patched function for period B.
    monkeypatch.setattr(cli, "_forks_worker", lambda: False)
    common = ["--input-a", str(raw_a), "--input-b", str(raw_b), "--label-a", "2019",
              "--label-b", "2020", "--ranks", "2..8", "--seed", "0"]
    scanned = tmp_path / "scanned"
    assert run_cli("run", *common, "--out", str(scanned)) == 0
    assert solves == []

    report = json.loads((scanned / "report.json").read_text())
    rank_a, rank_b = report["period_a"]["rank"], report["period_b"]["rank"]
    fixed = tmp_path / "fixed"
    assert run_cli("run", *common, "--rank-a", str(rank_a), "--rank-b", str(rank_b),
                   "--out", str(fixed)) == 0
    assert solves == [rank_a, rank_b]

    for label, rank in (("2019", rank_a), ("2020", rank_b)):
        for suffix in ("location_loadings.csv", "time_loadings.csv", "diagnostics.json"):
            name = f"{label}_{suffix}"
            assert (scanned / name).read_bytes() == (fixed / name).read_bytes(), name
        scan_rows = (scanned / f"rank_scan_{label}.csv").read_text().splitlines()[1:]
        scan_loss = {int(r.split(",")[0]): float(r.split(",")[-1]) for r in scan_rows}
        diag = json.loads((scanned / f"{label}_diagnostics.json").read_text())
        assert diag["final_loss"] == scan_loss[rank]


def test_run_rerun_same_dir_is_idempotent(tmp_path, synth_pair):
    raw_a, raw_b = synth_pair
    out = tmp_path / "idem"
    argv = ["run", "--input-a", str(raw_a), "--input-b", str(raw_b),
            "--rank-a", "6", "--rank-b", "4", "--seed", "0", "--out", str(out)]
    assert run_cli(*argv) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert run_cli(*argv) == 0
    after = {p.name: p.read_bytes() for p in out.iterdir()}
    assert before == after


def test_synth_manifest_consistent(tmp_path):
    out = tmp_path / "s"
    run_cli("synth", "--rank", "4", "--noise", "0.05", "--seed", "2",
            "--pair-drop", "1", "--pair-scale", "0.6", "--out", str(out))
    manifest = json.loads((out / "synth_manifest.json").read_text())
    # SyntheticSpec's fields and the hours, exactly, beside the pair and the periods.
    assert {k: v for k, v in manifest.items() if k not in ("pair", "periods")} == {
        "n_locations": 60, "n_hours": 12, "planted_rank": 4, "noise_level": 0.05, "seed": 2,
        "hours": list(range(7, 19))}
    assert manifest["pair"] == {"drop": 1, "count_scale": 0.6, "rank_b": 3}
    for period in ("A", "B"):
        info = manifest["periods"][period]
        assert 0.04 <= info["realized_noise"] <= 0.06
        total = sum(
            int(line.split(",")[-1])
            for line in (out / info["records_file"]).read_text().splitlines()[1:]
        )
        assert total == info["total_count"]
    # noise perturbs the calibrated totals by O(noise / sqrt(cells))
    ratio = manifest["periods"]["B"]["total_count"] / manifest["periods"]["A"]["total_count"]
    assert ratio == pytest.approx(0.6, abs=0.005)


def test_synth_same_seed_identical_files(tmp_path):
    out1, out2 = tmp_path / "one", tmp_path / "two"
    for out in (out1, out2):
        run_cli("synth", "--rank", "3", "--noise", "0.03", "--seed", "11", "--out", str(out))
    assert (out1 / "synth_A.csv").read_bytes() == (out2 / "synth_A.csv").read_bytes()
    assert (out1 / "synth_manifest.json").read_bytes() == (out2 / "synth_manifest.json").read_bytes()


def run_cli_within(seconds, *argv):
    """run_cli, but a run that does not return in time fails the test
    instead of hanging it."""
    outcome = []

    def target():
        try:
            outcome.append((True, run_cli(*argv)))
        except BaseException as e:
            outcome.append((False, e))

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    assert outcome, f"{argv[0]} did not return within {seconds} s"
    ok, value = outcome[0]
    if not ok:
        raise value
    return value


# Forcing fork in this process forks a process with threads (run_cli_within's,
# and BLAS's unless pinned), which Python 3.12+ warns about. `run` itself
# forks only a single-threaded process: see test_start_method_* and
# test_run_in_a_real_process_*.
forks_with_threads = pytest.mark.filterwarnings(
    "ignore:This process .* is multi-threaded:DeprecationWarning")
PATHS = [pytest.param("fork", marks=forks_with_threads), "in-process"]


def take_path(monkeypatch, path):
    """Make `run` handle period B in a forked worker, or in this process
    after period A."""
    monkeypatch.setattr(cli, "_forks_worker", lambda: path == "fork")


def open_fds():
    return set(os.listdir("/proc/self/fd"))


def assert_nothing_left(fds):
    """No child of this process is left, running or unreaped, and the open
    descriptors are `fds` again."""
    with pytest.raises(ChildProcessError):  # not a pid: waitpid would have reaped one
        os.waitpid(-1, os.WNOHANG)
    assert open_fds() == fds


@pytest.mark.parametrize("tasks, cpus, forks", [
    (["4242"], {0, 1}, True),
    (["4242", "4243"], {0, 1}, False),
    (FileNotFoundError, {0, 1}, False),
    (PermissionError, {0, 1}, False),
    (["4242"], {0}, False),
], ids=["one-thread", "two-threads", "no-proc", "unreadable", "one-cpu"])
def test_start_method_forks_only_a_single_threaded_process(monkeypatch, tasks, cpus, forks):
    def listdir(path):
        assert path == "/proc/self/task"
        if isinstance(tasks, type):
            raise tasks(path)
        return tasks

    monkeypatch.setattr(os, "listdir", listdir)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    assert cli._forks_worker() is forks


def test_start_method_counts_this_process_threads():
    # run_cli_within's thread, like this one, makes the process multi-threaded.
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(60,))
    thread.start()
    try:
        assert cli._forks_worker() is False
    finally:
        release.set()
        thread.join(60)
    assert not thread.is_alive()


@forks_with_threads
@pytest.mark.parametrize("ranks", [[], ["--rank-a", "6", "--rank-b", "4"]],
                         ids=["scanned", "fixed"])
def test_run_worker_and_in_process_paths_agree(tmp_path, synth_pair, capsys, monkeypatch,
                                               ranks):
    raw_a, raw_b = synth_pair
    render, summaries = cli.tio.render_summary, []

    def spy(facts):
        summaries.append(render(facts))
        return summaries[-1]

    monkeypatch.setattr(cli.tio, "render_summary", spy)
    outputs = {}
    for path in ("fork", "in-process"):
        take_path(monkeypatch, path)
        out = tmp_path / path
        assert run_cli_within(120, "run", "--input-a", str(raw_a), "--input-b", str(raw_b),
                              "--label-a", "2019", "--label-b", "2020", "--seed", "0",
                              *ranks, "--out", str(out)) == 0
        captured = capsys.readouterr()
        files = {p.name: p.read_bytes() for p in out.iterdir()}
        outputs[path] = (files, captured.out.replace(str(out), "OUT"), captured.err)
    assert outputs["fork"] == outputs["in-process"]
    files, stdout, _ = outputs["fork"]
    assert len(files) == (14 if ranks else 16)
    lines = stdout.splitlines()
    # Grouped by period: A's lines, then B's, then the summary.
    assert lines[1] == "2019: 60 locations x 12 hour bins"
    assert lines[2 if ranks else 3].endswith("synth_2020.csv: 720 records parsed, 0 rows rejected")
    assert lines[-1] == "wrote OUT/report.json and OUT/summary.txt"
    # Once per run, the summary is rendered, written and printed.
    assert len(summaries) == 2
    assert stdout.endswith(files["summary.txt"].decode() + lines[-1] + "\n")


@pytest.mark.parametrize("path", PATHS)
def test_run_prints_period_a_as_it_runs(tmp_path, synth_pair, capsys, monkeypatch, path):
    # A's ingest lines are on stdout when A's solve starts, on either path:
    # only the forked worker holds its output back.
    raw_a, raw_b = synth_pair
    take_path(monkeypatch, path)
    normalize, this_process, seen = cli.minmax_normalize, os.getpid(), []

    def spy(matrix):
        if os.getpid() == this_process and not seen:
            seen.append(capsys.readouterr().out)
        return normalize(matrix)

    monkeypatch.setattr(cli, "minmax_normalize", spy)
    capsys.readouterr()
    assert run_cli_within(120, "run", "--input-a", str(raw_a), "--input-b", str(raw_b),
                          "--label-a", "2019", "--label-b", "2020", "--rank-a", "6",
                          "--rank-b", "4", "--out", str(tmp_path / "out")) == 0
    assert seen == [f"{raw_a}: 720 records parsed, 0 rows rejected\n"
                    "2019: 60 locations x 12 hour bins\n"]


@pytest.mark.parametrize("path", PATHS)
def test_run_failure_in_period_b_exits_2_after_a(tmp_path, synth_pair, capsys, monkeypatch,
                                                 path):
    raw_a, _ = synth_pair
    fds = open_fds()
    header_only = tmp_path / "header_only.csv"
    header_only.write_text("count_point_id,latitude,longitude,hour,all_motor_vehicles\n")
    take_path(monkeypatch, path)
    out = tmp_path / "out"
    assert run_cli_within(120, "run", "--input-a", str(raw_a), "--input-b", str(header_only),
                          "--rank-a", "6", "--rank-b", "4", "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert "A: 60 locations x 12 hour bins" in captured.out
    assert "pipeline failed during ingest" in captured.err
    assert "header but no data rows" in captured.err
    assert {"counts_A.csv", "A_location_loadings.csv", "spatial_patterns_A.geojson"} <= set(
        p.name for p in out.iterdir())
    assert not (out / "report.json").exists()
    assert_nothing_left(fds)


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("zero_a, flags, code, stage", [
    (False, ["--ranks", "13..14"], 1, "rank selection"),
    (False, ["--rank-a", "20"], 1, "factorization"),
    (False, ["--rank-b", "20"], 1, "factorization"),
    (True, ["--rank-a", "6", "--rank-b", "4"], 2, "comparison"),
], ids=["ranks", "rank-a", "rank-b", "zero-a"])
def test_run_failure_names_its_stage(tmp_path, synth_pair, capsys, monkeypatch, zero_a, flags,
                                     code, stage, path):
    # Every stage a package error can come from after ingest, on either path.
    fds = open_fds()
    raw_a, raw_b = synth_pair
    if zero_a:  # every count of A is 0, so A's total is 0
        header, *rows = raw_a.read_text().splitlines()
        raw_a = tmp_path / "zero_a.csv"
        raw_a.write_text("\n".join([header] + [r.rsplit(",", 1)[0] + ",0" for r in rows]) + "\n")
    take_path(monkeypatch, path)
    out = tmp_path / "out"
    assert run_cli_within(120, "run", "--input-a", str(raw_a), "--input-b", str(raw_b), *flags,
                          "--out", str(out)) == code
    assert f"pipeline failed during {stage}; outputs under {out} may be partial\n" in (
        capsys.readouterr().err)
    assert_nothing_left(fds)


@pytest.mark.parametrize("path", PATHS)
def test_run_with_a_zero_total_period_a_stops_after_its_count_table(tmp_path, synth_pair,
                                                                    capsys, monkeypatch, path):
    """A's zero total is known once its count matrix exists: nothing of A is
    solved, A's count table is written whole, and in this process B is never
    read. A forked B's worker is stopped wherever it has got to."""
    fds = open_fds()
    raw_a, raw_b = synth_pair
    header, *rows = raw_a.read_text().splitlines()
    zero_a = tmp_path / "zero_a.csv"
    zero_a.write_text("\n".join([header] + [r.rsplit(",", 1)[0] + ",0" for r in rows]) + "\n")
    assert run_cli_within(120, "ingest", "--input-a", str(zero_a),
                          "--out", str(tmp_path / "ingested")) == 0
    capsys.readouterr()
    take_path(monkeypatch, path)
    out = tmp_path / "out"
    assert run_cli_within(120, "run", "--input-a", str(zero_a), "--input-b", str(raw_b),
                          "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"pipeline failed during comparison; outputs under {out} may be "
                            f"partial\nerror: period A has zero total count; reduction undefined\n")
    assert (out / "counts_A.csv").read_bytes() == (
        tmp_path / "ingested" / "counts_A.csv").read_bytes()
    assert not [p for p in out.iterdir() if p.name.startswith("A_")]
    if path == "in-process":
        assert str(raw_b) not in captured.out
        assert [p.name for p in out.iterdir()] == ["counts_A.csv"]
    assert_nothing_left(fds)


@forks_with_threads
def test_run_failure_in_period_a_stops_the_worker(tmp_path, synth_pair, capsys, monkeypatch):
    _, raw_b = synth_pair
    table = write_count_table(tmp_path / "table.csv", [[1, 2], [3, 4]])
    for path in ("fork", "in-process"):
        fds = open_fds()
        take_path(monkeypatch, path)
        # A count table is not raw records: A fails in ingest while B runs.
        assert run_cli_within(120, "run", "--input-a", str(table), "--input-b", str(raw_b),
                              "--out", str(tmp_path / path)) == 2, path
        assert "pipeline failed during ingest" in capsys.readouterr().err
        assert_nothing_left(fds)


@forks_with_threads
def test_run_failure_in_period_a_terminates_a_worker_still_running(tmp_path, synth_pair,
                                                                   capsys, monkeypatch):
    _, raw_b = synth_pair
    table = write_count_table(tmp_path / "table.csv", [[1, 2], [3, 4]])
    fds = open_fds()
    take_path(monkeypatch, "fork")
    period = cli._period

    def slow_b(cfg, path, label, rank, base=False):
        if label == "B":  # in the worker, which only SIGTERM ends in time
            time.sleep(300)
        return period(cfg, path, label, rank, base)

    monkeypatch.setattr(cli, "_period", slow_b)
    start = time.monotonic()
    assert run_cli_within(60, "run", "--input-a", str(table), "--input-b", str(raw_b),
                          "--out", str(tmp_path / "out")) == 2
    assert time.monotonic() - start < 60
    assert "pipeline failed during ingest" in capsys.readouterr().err
    assert_nothing_left(fds)


@forks_with_threads
def test_run_with_a_worker_that_dies_raises_after_a(tmp_path, synth_pair, monkeypatch):
    raw_a, raw_b = synth_pair
    fds = open_fds()
    take_path(monkeypatch, "fork")
    monkeypatch.setattr(cli, "_period_worker", lambda fd, *period: os._exit(5))
    out = tmp_path / "out"
    with pytest.raises(RuntimeError, match="period B exited with code 5 without a result"):
        run_cli_within(60, "run", "--input-a", str(raw_a), "--input-b", str(raw_b),
                       "--rank-a", "6", "--rank-b", "4", "--out", str(out))
    assert (out / "A_location_loadings.csv").exists()
    assert not (out / "counts_B.csv").exists()
    assert_nothing_left(fds)


@pytest.mark.parametrize("path", PATHS)
def test_run_with_a_directory_as_input_b_exits_2_naming_it(tmp_path, synth_pair, capsys,
                                                          monkeypatch, path):
    raw_a, _ = synth_pair
    fds = open_fds()
    take_path(monkeypatch, path)
    out = tmp_path / "out"
    assert run_cli_within(120, "run", "--input-a", str(raw_a), "--input-b", str(tmp_path),
                          "--rank-a", "6", "--rank-b", "4", "--out", str(out)) == 2
    assert capsys.readouterr().err == f"error: {tmp_path} cannot be read: Is a directory\n"
    assert not out.exists()
    assert_nothing_left(fds)


@pytest.mark.parametrize("path", PATHS)
def test_run_unexpected_error_in_period_b_propagates(tmp_path, synth_pair, capsys, monkeypatch,
                                                     path):
    raw_a, raw_b = synth_pair
    fds = open_fds()
    take_path(monkeypatch, path)
    ingest = cli._ingest

    def broken(cfg, file, label):  # a bug in period B's ingest
        if label == "B":
            raise ZeroDivisionError("a bug")
        return ingest(cfg, file, label)

    monkeypatch.setattr(cli, "_ingest", broken)
    with pytest.raises(ZeroDivisionError):
        run_cli_within(120, "run", "--input-a", str(raw_a), "--input-b", str(raw_b),
                       "--rank-a", "6", "--rank-b", "4", "--out", str(tmp_path / "out"))
    if path == "fork":  # the worker's traceback is kept
        assert "Traceback" in capsys.readouterr().err
    assert_nothing_left(fds)


@forks_with_threads
def test_worker_that_dies_without_a_result_is_an_error():
    fds = open_fds()
    for reply in (b"", pickle.dumps((("ok", None), "", ""))[:-3]):  # none, and a cut one
        fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:  # the worker: nothing but the reply, then out
            try:
                os.write(write_fd, reply)
            finally:
                os._exit(7)
        os.close(write_fd)
        try:
            assert select.select([fd], [], [], 60)[0]  # the reply's end, not a hang
            with pytest.raises(RuntimeError,
                               match="period B exited with code 7 without a result"):
                cli._receive(pid, fd, "B")
        finally:
            os.close(fd)
        assert_nothing_left(fds)


def program_env():
    """This process's environment, with this checkout's trafficnmf first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(cli.__file__).parents[1])] + ([env["PYTHONPATH"]] if "PYTHONPATH" in env else []))
    return env


def program(argv, env, *flags):
    """`python [flags] -m trafficnmf.cli argv` as its own process, finished."""
    return subprocess.run([sys.executable, *flags, "-m", "trafficnmf.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=120)


def program_process(script, argv):
    """`python -c script argv` as its own process, started, with text pipes."""
    return subprocess.Popen([sys.executable, "-c", script, *argv], env=program_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


@pytest.mark.parametrize("blas_threads, forks", [("1", True), (None, True), ("2", False)],
                         ids=["pinned-blas-forks", "unset-blas-forks", "unpinned-blas-in-process"])
def test_run_in_a_real_process_warns_nothing(tmp_path, synth_pair, capsys, monkeypatch,
                                             blas_threads, forks):
    # A bare `run` process with every warning an error: with one BLAS thread,
    # set by the user or, when unset, by the program, it is single-threaded
    # and forks; with two that the user set, OpenBLAS's own thread makes it
    # run period B after A. Either way --out equals the in-process path's.
    raw_a, raw_b = synth_pair
    env = program_env()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.pop(var, None)
        if blas_threads is not None:
            env[var] = blas_threads
    probe = subprocess.run(
        [sys.executable, "-c", "import os, trafficnmf.cli as c; "
                               "print(c._forks_worker(), len(os.sched_getaffinity(0)))"],
        env=env, capture_output=True, text=True, timeout=60)
    taken, cpus = probe.stdout.split()
    if forks and cpus == "1":
        pytest.skip("a run on one CPU does not fork")
    assert taken == str(forks), probe.stderr

    argv = ["run", "--input-a", str(raw_a), "--input-b", str(raw_b), "--seed", "0"]
    out = tmp_path / "real"
    proc = program([*argv, "--out", str(out)], env, "-X", "dev", "-W", "error")
    assert (proc.returncode, proc.stderr) == (0, "")
    monkeypatch.setattr(cli, "_forks_worker", lambda: False)
    reference = tmp_path / "in-process"
    capsys.readouterr()
    assert run_cli(*argv, "--out", str(reference)) == 0
    assert proc.stdout.replace(str(out), "OUT") == capsys.readouterr().out.replace(
        str(reference), "OUT")
    assert {p.name: p.read_bytes() for p in out.iterdir()} == {
        p.name: p.read_bytes() for p in reference.iterdir()}


# `run` in a process of its own whose worker is forked, with `cli._period`
# wrapped by `wrap(period, cfg, path, label, rank, base)`, which the test
# defines before this; argv follows the script. It prints "no child left" once
# main has returned or raised with every child of the process reaped.
WRAPPED_RUN = """
import os, sys
import trafficnmf.cli as cli

period = cli._period
cli._period = lambda *a, **k: wrap(period, *a, **k)
cli._forks_worker = lambda: True
try:
    sys.exit(cli.main(sys.argv[1:]))
finally:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        print("no child left", flush=True)
"""


def test_worker_reply_that_cannot_be_pickled_keeps_its_traceback(tmp_path, synth_pair):
    # B raises a DataError holding a lambda, which its reply cannot pickle.
    raw_a, raw_b = synth_pair
    script = """
from trafficnmf.errors import DataError

def wrap(period, cfg, path, label, rank, base=False):
    if label == "B":
        e = DataError("B failed")
        e.hook = lambda: None
        raise e
    return period(cfg, path, label, rank, base)
""" + WRAPPED_RUN
    proc = program_process(script, ["run", "--input-a", str(raw_a), "--input-b", str(raw_b),
                                    "--rank-a", "6", "--rank-b", "4",
                                    "--out", str(tmp_path / "out")])
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 1
    assert out.endswith("\nno child left\n")
    # The worker's traceback, then this process's.
    pickling = err.index("Can't pickle")
    assert err.rindex("Traceback (most recent call last):", 0, pickling) == 0
    assert err.index("RuntimeError: the worker process of period B exited with code 1 "
                     "without a result") > pickling


@pytest.mark.parametrize("waiting_in", ["period-a", "receive"])
def test_sigterm_to_run_stops_the_worker(tmp_path, synth_pair, waiting_in):
    """A SIGTERM to `run`'s process, while period A runs or while it waits
    for B's reply, stops B's worker: run exits 143 with no process left, and
    no file appears under --out afterwards. B's worker would write its
    count table 1.5 s after it starts."""
    raw_a, raw_b = synth_pair
    marks = tmp_path / "marks"
    marks.mkdir()
    script = f"""
import os, time
from pathlib import Path

def wrap(period, cfg, path, label, rank, base=False):
    (Path({str(marks)!r}) / label).write_text(str(os.getpid()))
    time.sleep(1.5 if label == "B" else 0 if {waiting_in!r} == "receive" else 300)
    patterns = period(cfg, path, label, rank, base)
    (Path({str(marks)!r}) / (label + ".done")).touch()
    return patterns
""" + WRAPPED_RUN
    out = tmp_path / "out"
    proc = program_process(script, ["run", "--input-a", str(raw_a), "--input-b", str(raw_b),
                                    "--rank-a", "6", "--rank-b", "4", "--out", str(out)])
    try:
        # A has begun (or, with "receive", is done) in this process, and B
        # in the worker.
        wanted = {"A" if waiting_in == "period-a" else "A.done", "B"}
        deadline = time.monotonic() + 60
        while not wanted <= {p.name for p in marks.iterdir()}:
            assert time.monotonic() < deadline and proc.poll() is None
            time.sleep(0.01)
        proc.terminate()
        stdout, stderr = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert (proc.returncode, stdout.splitlines()[-1], stderr) == (143, "no child left", "")
    with pytest.raises(ProcessLookupError):  # the worker is gone, reaped by run
        os.kill(int((marks / "B").read_text()), 0)
    left = sorted(p.name for p in out.iterdir())
    time.sleep(max(0.0, (marks / "B").stat().st_mtime + 2.5 - time.time()))
    assert sorted(p.name for p in out.iterdir()) == left
    assert "counts_B.csv" not in left


@pytest.mark.parametrize("when", ["before", "after", "in-worker"])
def test_sigterm_to_run_as_it_forks_leaves_nothing(tmp_path, synth_pair, when):
    """A SIGTERM that reaches `run` just before it forks B's worker, or just
    after, before the worker's pid is stored, ends it with code 143, no
    process left and nothing on stderr. One that reaches the worker before
    it starts its work ends the worker alone, at once, as if killed: `run`
    reports that B's worker exited with code 143."""
    raw_a, raw_b = synth_pair
    fds = open_fds()
    script = f"""
import os, signal

fork = os.fork

def fork_with_sigterm():
    if {when!r} == "before":
        os.kill(os.getpid(), signal.SIGTERM)
    pid = fork()
    if {when!r} == ("after" if pid else "in-worker"):
        os.kill(os.getpid(), signal.SIGTERM)
    return pid

os.fork = fork_with_sigterm

def wrap(period, *args, **kwargs):
    return period(*args, **kwargs)
""" + WRAPPED_RUN
    proc = program_process(script, ["run", "--input-a", str(raw_a), "--input-b", str(raw_b),
                                    "--rank-a", "6", "--rank-b", "4",
                                    "--out", str(tmp_path / "out")])
    out, err = proc.communicate(timeout=120)
    assert out.endswith("no child left\n") and out.count("no child left") == 1
    if when == "in-worker":
        assert proc.returncode == 1
        assert err.endswith("RuntimeError: the worker process of period B exited with code "
                            "143 without a result\n")
    else:
        assert (proc.returncode, out, err) == (143, "no child left\n", "")
    assert_nothing_left(fds)


def test_rank_scan_in_a_real_process_matches_in_process(tmp_path, capsys):
    # In-process runs get the BLAS thread count the program gives itself
    # (see conftest.py). A 1600-location scan writes other bytes on two
    # threads than on one.
    raw = tmp_path / "synth"
    assert run_cli("synth", "--locations", "1600", "--rank", "6", "--noise", "0.05",
                   "--seed", "0", "--out", str(raw)) == 0
    assert run_cli("ingest", "--input-a", str(raw / "synth_A.csv"), "--out", str(tmp_path)) == 0
    argv = ["rank-scan", "--input-a", str(tmp_path / "counts_A.csv")]
    proc = program([*argv, "--out", str(tmp_path / "real")], program_env())
    assert (proc.returncode, proc.stderr) == (0, "")
    assert run_cli(*argv, "--out", str(tmp_path / "in-process")) == 0
    assert ((tmp_path / "real" / "rank_scan_A.csv").read_bytes()
            == (tmp_path / "in-process" / "rank_scan_A.csv").read_bytes())


@pytest.mark.parametrize("command", ["ingest", "rank-scan", "factorize"])
def test_command_in_a_real_process_warns_nothing(tmp_path, synth_pair, capsys, command):
    # The program's own exit path, with start-up objects frozen out of the
    # collector, leaks no resource and loses no output.
    raw_a, raw_b = synth_pair
    assert run_cli("ingest", "--input-a", str(raw_a), "--out", str(tmp_path)) == 0
    argv = {
        "ingest": ["ingest", "--input-a", str(raw_a), "--input-b", str(raw_b)],
        "rank-scan": ["rank-scan", "--input-a", str(tmp_path / "counts_A.csv"), "--ranks", "2..8"],
        "factorize": ["factorize", "--input-a", str(tmp_path / "counts_A.csv"), "--rank-a", "6"],
    }[command]
    out = tmp_path / "real"
    proc = program([*argv, "--out", str(out)], program_env(), "-X", "dev", "-W", "error")
    assert (proc.returncode, proc.stderr) == (0, "")
    reference = tmp_path / "in-process"
    capsys.readouterr()
    assert run_cli(*argv, "--out", str(reference)) == 0
    assert proc.stdout.replace(str(out), "OUT") == capsys.readouterr().out.replace(
        str(reference), "OUT")
    assert {p.name: p.read_bytes() for p in out.iterdir()} == {
        p.name: p.read_bytes() for p in reference.iterdir()}


def test_each_command_loads_only_the_modules_it_runs(tmp_path, synth_pair):
    raw_a, raw_b = synth_pair
    env = program_env()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    out = str(tmp_path)
    counts = str(tmp_path / "counts_A.csv")
    rank, patterns, synth = "trafficnmf.rank", "trafficnmf.patterns", "trafficnmf.synth"
    # command: (argv, modules it needs, modules it must not load)
    commands = {
        "--help": (["--help"], {"numpy", "trafficnmf.io"}, {rank, patterns, synth}),
        "ingest": (["ingest", "--input-a", str(raw_a), "--out", out],
                   {"trafficnmf.ingest", "trafficnmf.io"}, {rank, patterns, synth}),
        "rank-scan": (["rank-scan", "--input-a", counts, "--ranks", "2..4", "--out", out],
                      {rank}, {patterns, synth}),
        "factorize": (["factorize", "--input-a", counts, "--rank-a", "3", "--out", out],
                      {"trafficnmf.nmf"}, {rank, patterns, synth}),
        "run": (["run", "--input-a", str(raw_a), "--input-b", str(raw_b), "--ranks", "2..4",
                 "--out", out], {rank, patterns}, {synth, "multiprocessing"}),
    }
    for command, (argv, needed, unused) in commands.items():
        proc = program(argv, env, "-X", "importtime")
        assert proc.returncode == 0, proc.stderr
        loaded = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                  if line.startswith("import time:")}
        assert needed <= loaded, command
        assert not loaded & unused, command


def test_main_with_argv_leaves_the_collector_as_it_was(tmp_path, synth_pair):
    raw_a, _ = synth_pair
    frozen = gc.get_freeze_count()
    assert run_cli("ingest", "--input-a", str(raw_a), "--out", str(tmp_path)) == 0
    assert gc.get_freeze_count() == frozen


def test_the_program_freezes_its_start_up_objects(tmp_path, synth_pair):
    raw_a, _ = synth_pair
    argv = ["trafficnmf", "ingest", "--input-a", str(raw_a), "--out", str(tmp_path)]
    proc = subprocess.run(
        [sys.executable, "-c", "import gc, sys; from trafficnmf.cli import main; "
                               f"sys.argv = {argv!r}; before = gc.get_freeze_count(); "
                               "print(main(), before, gc.get_freeze_count() > 0)"],
        env=program_env(), capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines()[-1] == "0 0 True"


def test_run_sanitizes_labels_in_every_file_name(tmp_path, synth_pair, capsys):
    raw_a, raw_b = synth_pair
    out = tmp_path / "out"
    assert run_cli("run", "--input-a", str(raw_a), "--input-b", str(raw_b),
                   "--label-a", "2019/20", "--label-b", "2020 21", "--ranks", "5..7",
                   "--out", str(out)) == 0
    names = {p.name for p in out.iterdir()}
    for label in ("2019_20", "2020_21"):
        assert {f"counts_{label}.csv", f"rank_scan_{label}.csv",
                f"{label}_location_loadings.csv", f"{label}_time_loadings.csv",
                f"{label}_diagnostics.json", f"temporal_patterns_{label}.csv",
                f"spatial_patterns_{label}.geojson"} <= names
    assert all(p.is_file() for p in out.iterdir())
    assert json.loads((out / "report.json").read_text())["period_a"]["label"] == "2019/20"


@pytest.mark.parametrize("command", ["run", "ingest"])
@pytest.mark.parametrize("labels", [("X", "X"), ("a/b", "a_b")])
def test_labels_giving_the_same_file_names_exit_1(tmp_path, synth_pair, capsys,
                                                  command, labels):
    raw_a, raw_b = synth_pair
    out = tmp_path / "out"
    assert run_cli(command, "--input-a", str(raw_a), "--input-b", str(raw_b),
                   "--label-a", labels[0], "--label-b", labels[1], "--out", str(out)) == 1
    assert "give the same output file names" in capsys.readouterr().err
    assert not out.exists()


def test_scan_reports_skipped_ranks(tmp_path, capsys):
    rows = [[(i * 7 + j * 3) % 11 for j in range(12)] for i in range(30)]
    table = write_count_table(tmp_path / "twelve.csv", rows)
    assert run_cli("rank-scan", "--input-a", str(table), "--ranks", "10..13",
                   "--out", str(tmp_path)) == 0
    assert capsys.readouterr().err == (
        "A: rank 13 skipped: rank 13 exceeds min matrix dimension 12\n")
    scan_rows = (tmp_path / "rank_scan_A.csv").read_text().splitlines()[1:]
    assert [int(r.split(",")[0]) for r in scan_rows] == [10, 11, 12]


def test_run_reports_skipped_ranks_of_both_periods(tmp_path, synth_pair, capsys):
    raw_a, raw_b = synth_pair
    assert run_cli_within(120, "run", "--input-a", str(raw_a), "--input-b", str(raw_b),
                          "--ranks", "11..13", "--out", str(tmp_path / "out")) == 0
    assert capsys.readouterr().err == (
        "A: rank 13 skipped: rank 13 exceeds min matrix dimension 12\n"
        "B: rank 13 skipped: rank 13 exceeds min matrix dimension 12\n")
