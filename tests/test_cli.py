import json

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


def test_factorize_invalid_table_exits_2(tmp_path, capsys):
    table = tmp_path / "bad.csv"
    table.write_text("location_id,latitude,longitude,h07,h08\nL1,999,0,3,-4\nL1,50,0,1,2\n")
    code = run_cli("factorize", "--input-a", str(table), "--rank-a", "1",
                   "--label-a", "A", "--out", str(tmp_path / "out"))
    assert code == 2
    assert "line 3: location id 'L1' appears more than once" in capsys.readouterr().err
    assert not (tmp_path / "out" / "A_location_loadings.csv").exists()


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


def test_bad_config_file_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = run_cli("run", "--config", str(bad))
    assert code == 1
    assert "not valid JSON" in capsys.readouterr().err


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
    assert diag["config"]["seed"] == 6  # base seed 0 + rank 6


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
    assert manifest["planted_rank"] == 4
    assert manifest["pair"]["rank_b"] == 3
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
