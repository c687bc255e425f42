"""Self-test of the benchmark at toy size.

Runs every workload once timed and once traced, asserts that each metric
named in BENCHMARK.json is reported with its unit, and asserts that a
deliberately corrupted output is counted as a failed run. Run from the
repository root:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run
import tracer
from workloads import TOY, WORKLOADS


def _tamper_report(out: Path, rep: int) -> None:
    path = out / "report.json"
    report = json.loads(path.read_text(encoding="utf-8"))
    report["disappeared_count"] += 1
    path.write_text(json.dumps(report), encoding="utf-8")


def _tamper_counts(out: Path, rep: int) -> None:
    path = out / "counts_B.csv"
    path.write_bytes(path.read_bytes().replace(b",", b";", 1))


def _tamper_second_run(out: Path, rep: int) -> None:
    # The first repetition is the reference, so only the byte comparison catches this.
    if rep == 1:
        with (out / "r1" / "r1_diagnostics.json").open("a", encoding="utf-8") as f:
            f.write(" ")


CORRUPTIONS = {"paper_scan": _tamper_report, "raw_ingest": _tamper_counts,
               "region_staged": _tamper_second_run}


def _assert_metrics(result: dict, expected: list[dict], what: str) -> None:
    names = {m["name"]: m["unit"] for m in expected}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == names, f"{what}: metrics {sorted(got)} != {sorted(names)}"
    missing = [n for n, m in result["metrics"].items() if not isinstance(m["value"], (int, float))]
    assert not missing, f"{what}: no value for {missing}"


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == [m[0] for m in run.END_TO_END]
    assert [m["name"] for m in spec["per_layer"]] == [m[0] for m in tracer.PER_LAYER]
    sys.path.insert(0, str(run.SRC))

    for name in WORKLOADS:
        timed = run.measure(name, seed=0, seconds=0, trace=False, scale=TOY)
        assert timed["correct"] and timed["failed"] == 0, timed["info"]["errors"]
        _assert_metrics(timed, spec["end_to_end"], f"{name} timed")

        traced = run.measure(name, seed=0, seconds=0, trace=True, scale=TOY)
        assert traced["correct"] and traced["failed"] == 0, traced["info"]["errors"]
        _assert_metrics(traced, spec["per_layer"], f"{name} traced")

        broken = run.measure(name, seed=0, seconds=0, trace=False, scale=TOY,
                             corrupt=CORRUPTIONS[name])
        assert not broken["correct"] and broken["failed"] >= 1, broken["info"]
        print(f"{name}: ok ({timed['attempted']} timed, {traced['attempted']} traced runs; "
              f"corruption caught: {broken['info']['errors'][0]})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
