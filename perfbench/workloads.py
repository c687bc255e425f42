"""The benchmark's workloads: deterministic inputs, program steps and output checks.

Each workload builds its inputs from the workload seed with the public
``trafficnmf.synth`` API (plus, for ``raw_ingest``, a transform of the
benchmark's own that reshapes records like the GB DfT raw-count files),
runs the ``trafficnmf`` CLI through a caller-supplied ``call(argv)`` and
checks what the program wrote. The program only ever sees the generated
files, never the seed.
"""

from __future__ import annotations

import hashlib
import json
import re
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# Bump when generated bytes change, so stale cache entries are not reused.
GENERATOR_VERSION = 1
CACHE_ENTRIES_PER_WORKLOAD = 2

RECORD_HEADER = "count_point_id,latitude,longitude,hour,all_motor_vehicles"

# Column layout of the GB DfT raw-count files (32 of their columns).
DFT_HEADER = (
    "count_point_id,direction_of_travel,year,count_date,hour,region_id,region_name,"
    "local_authority_id,local_authority_name,road_name,road_type,"
    "start_junction_road_name,end_junction_road_name,easting,northing,latitude,longitude,"
    "link_length_km,link_length_miles,pedal_cycles,two_wheeled_motor_vehicles,"
    "cars_and_taxis,buses_and_coaches,lgvs,hgvs_2_rigid_axle,hgvs_3_rigid_axle,"
    "hgvs_4_or_more_rigid_axle,hgvs_3_or_4_articulated_axle,hgvs_5_articulated_axle,"
    "hgvs_6_articulated_axle,all_hgvs,all_motor_vehicles"
)
REJECT_REASONS = ("malformed", "negative count", "unmappable hour", "coordinates out of range")
BAD_ROW_SHARE = 0.01


@dataclass(frozen=True)
class Scale:
    """Input sizes; FULL is the benchmark, TOY is the self-test."""

    locations: int
    regions: int
    region_locations: tuple[int, int]  # smallest and largest region


# The pair is a quarter of the paper's 12656 locations, so a repetition
# takes 3-4 s and a 40-second run holds about ten: their median smooths
# over the host's speed swings, which last 5-20 s.
FULL = Scale(locations=3164, regions=8, region_locations=(300, 800))
TOY = Scale(locations=900, regions=2, region_locations=(300, 400))


@dataclass
class Proc:
    """One finished program process."""

    argv: list[str]
    wall_s: float
    rss_mb: float
    code: int
    stdout: str


Call = Callable[[list[str]], Proc]


@dataclass
class Factorization:
    """A final factorization written by the program, with the truth behind it."""

    counts: Path
    location_loadings: Path
    time_loadings: Path
    planted_h: np.ndarray  # hours x patterns that should be present


def _write_records(path: Path, period) -> None:
    rows = [RECORD_HEADER]
    rows += [f"{r.location_id},{r.latitude!r},{r.longitude!r},{r.hour},{r.count}"
             for r in period.records]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def _paper_pair(scale: Scale, seed: int):
    from trafficnmf.synth import SyntheticSpec, generate_pair

    spec = SyntheticSpec(n_locations=scale.locations, n_hours=12, planted_rank=6,
                         noise_level=0.05, seed=seed)
    return generate_pair(spec, drop=2, count_scale=0.5)


def _dft_rows(period, rng: np.random.Generator) -> tuple[list[str], dict[str, int]]:
    """Rewrite one period as DfT-shaped rows: two directions per (location, hour),
    shuffled, plus 1% bad rows spread over the four rejection reasons."""
    counts = period.counts.astype(np.int64)
    n, m = counts.shape
    loc_ids = [f"L{i:05d}" for i in range(n)]
    lats = [repr(r.latitude) for r in period.records[::m]]
    lons = [repr(r.longitude) for r in period.records[::m]]
    head = [f"{loc_ids[i]},{{d}},2019,2019-06-{10 + i % 18} 00:00:00" for i in range(n)]
    mid = [
        f"{3 + i % 9},Region {3 + i % 9},{100 + i % 150},Authority {100 + i % 150},"
        f"A{i % 997},{'Major' if i % 3 else 'Minor'},J{i % 211},J{(i + 1) % 211},"
        f"{400000 + 17 * i},{200000 + 13 * i},{lats[i]},{lons[i]},"
        f"{0.5 + (i % 40) / 10:.1f},{(0.5 + (i % 40) / 10) * 0.621371:.2f}"
        for i in range(n)
    ]
    hours = period.hours

    # Direction split and a plausible class breakdown that sums to the count.
    north = rng.binomial(counts, 0.5)
    rows: list[str] = []
    for i in range(n):
        for j, hour in enumerate(hours):
            for d, c in (("N", int(north[i, j])), ("S", int(counts[i, j] - north[i, j]))):
                two = c // 50
                bus = c // 80
                lgv = c // 7
                h2, h3, h4, a34, a5, a6 = c // 60, c // 200, c // 300, c // 250, c // 150, c // 120
                hgv = h2 + h3 + h4 + a34 + a5 + a6
                cars = c - two - bus - lgv - hgv
                rows.append(
                    f"{head[i].format(d=d)},{hour},{mid[i]},{c // 40},{two},{cars},{bus},"
                    f"{lgv},{h2},{h3},{h4},{a34},{a5},{a6},{hgv},{c}"
                )

    n_bad = round(BAD_ROW_SHARE * len(rows))
    per_reason, extra = divmod(n_bad, len(REJECT_REASONS))
    tallies = {}
    bad: list[str] = []
    for k, reason in enumerate(REJECT_REASONS):
        tallies[reason] = per_reason + (1 if k < extra else 0)
        for src in rng.integers(0, len(rows), size=tallies[reason]):
            f = rows[src].split(",")
            if reason == "malformed":
                f[15] = ""  # latitude
            elif reason == "negative count":
                f[31] = str(-1 - int(f[31]))
            elif reason == "unmappable hour":
                f[4] = "24"
            else:
                f[15] = "91.5"
            bad.append(",".join(f))
    rows += bad
    order = rng.permutation(len(rows))
    return [rows[k] for k in order], tallies


class Workload:
    name = ""
    why = ""

    def generate(self, scale: Scale, seed: int, dest: Path, call: Call) -> dict:
        """Write inputs into dest and return the ground truth as JSON-able data."""
        raise NotImplementedError

    def execute(self, inputs: Path, truth: dict, out: Path, call: Call) -> list[Proc]:
        """Run the program steps of one repetition; stop at the first failing step."""
        raise NotImplementedError

    def check(self, inputs: Path, truth: dict, out: Path, procs: list[Proc]) -> list[str]:
        """Workload-specific output checks; each returned string is one failure."""
        raise NotImplementedError

    def factorizations(self, truth: dict, out: Path) -> list[Factorization]:
        raise NotImplementedError


class _PairRun(Workload):
    """`trafficnmf run` on a generated two-period pair."""

    run_flags: list[str] = []

    def execute(self, inputs, truth, out, call):
        return [call(["run", "--input-a", str(inputs / truth["files"]["A"]),
                      "--input-b", str(inputs / truth["files"]["B"]),
                      "--label-a", "A", "--label-b", "B", "--seed", "0",
                      *self.run_flags, "--out", str(out)])]

    def factorizations(self, truth, out):
        return [Factorization(out / f"counts_{p}.csv", out / f"{p}_location_loadings.csv",
                              out / f"{p}_time_loadings.csv", np.array(truth["planted_h"][p]))
                for p in ("A", "B")]

    @staticmethod
    def _truth(pair, files: dict[str, str], rows: int) -> dict:
        a, b = pair
        return {"files": files, "rows": rows,
                "planted_h": {"A": a.planted_h.tolist(), "B": b.planted_h.tolist()}}


class PaperScan(_PairRun):
    name = "paper_scan"
    why = ("quarter-paper-scale pair with rank scans 2..8: the NMF solver and the rank "
           "scan do most of the work")
    run_flags = ["--ranks", "2..8"]

    def generate(self, scale, seed, dest, call):
        pair = _paper_pair(scale, seed)
        for p in pair:
            _write_records(dest / f"synth_{p.period_label}.csv", p)
        rows = sum(len(p.records) for p in pair)
        return self._truth(pair, {"A": "synth_A.csv", "B": "synth_B.csv"}, rows)

    def check(self, inputs, truth, out, procs):
        errors = []
        recommended = re.findall(r"^(\w+): scanned ranks .*, recommended (\d+)",
                                 procs[0].stdout, re.M)
        if recommended != [("A", "6"), ("B", "4")]:
            errors.append(f"recommended ranks {recommended}, expected A 6 and B 4")
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        if report["disappeared_count"] != 2:
            errors.append(f"disappeared_count {report['disappeared_count']}, expected 2")
        if abs(report["total_reduction_pct"] - 50.0) > 0.5:
            errors.append(f"reduction {report['total_reduction_pct']}%, expected 50.0 +- 0.5")
        return errors


class RawIngest(_PairRun):
    name = "raw_ingest"
    why = ("the same pair as DfT-shaped raw rows (32 columns, two directions, shuffled, "
           "1% bad) at fixed ranks: ingest dominates, the solver is nearly bypassed")
    run_flags = ["--rank-a", "6", "--rank-b", "4"]

    def generate(self, scale, seed, dest, call):
        pair = _paper_pair(scale, seed)
        rng = np.random.default_rng([seed, GENERATOR_VERSION])
        rows = 0
        tallies = {}
        clean = dest / "clean"
        clean.mkdir()
        for p in pair:
            label = p.period_label
            lines, tallies[label] = _dft_rows(p, rng)
            rows += len(lines)
            (dest / f"dft_{label}.csv").write_text(
                DFT_HEADER + "\n" + "\n".join(lines) + "\n", encoding="utf-8")
            _write_records(clean / f"synth_{label}.csv", p)
        # Expected count tables: the program's own ingest of the clean pair.
        proc = call(["ingest", "--input-a", str(clean / "synth_A.csv"),
                     "--input-b", str(clean / "synth_B.csv"), "--label-a", "A",
                     "--label-b", "B", "--out", str(dest / "expected")])
        if proc.code != 0:
            raise RuntimeError(f"ingest of the clean pair exited {proc.code}")
        shutil.rmtree(clean)
        truth = self._truth(pair, {"A": "dft_A.csv", "B": "dft_B.csv"}, rows)
        truth["rejections"] = tallies
        return truth

    def check(self, inputs, truth, out, procs):
        errors = []
        for p in ("A", "B"):
            name = f"counts_{p}.csv"
            if (out / name).read_bytes() != (inputs / "expected" / name).read_bytes():
                errors.append(f"{name} differs from the clean pair's count table")
            line = re.search(rf"dft_{p}\.csv: \d+ records parsed, (.*)$", procs[0].stdout, re.M)
            printed = dict((reason, int(k)) for reason, k in
                           re.findall(r"([a-z][a-z ]*): (\d+)", line.group(1))) if line else None
            injected = {reason: k for reason, k in truth["rejections"][p].items() if k}
            if printed != injected:
                errors.append(f"period {p} rejection tallies {printed}, injected {injected}")
        return errors


class RegionStaged(Workload):
    name = "region_staged"
    why = ("8 small 24-hour regions through ingest, rank-scan and factorize: 24 short "
           "processes, start-up and per-iteration overhead dominate")

    def generate(self, scale, seed, dest, call):
        from trafficnmf.ingest import HourWindow
        from trafficnmf.synth import SyntheticSpec, generate_period

        # Region sizes and ranks are fixed, so the amount of work does not
        # depend on the seed; the seed only draws the loadings and the noise.
        sizes = np.linspace(*scale.region_locations, scale.regions).round().astype(int)
        regions = []
        rows = 0
        for k, n in enumerate(sizes.tolist(), start=1):
            rank = 3 + (k - 1) % 3
            spec = SyntheticSpec(n_locations=n, n_hours=24, planted_rank=rank,
                                 noise_level=0.02, seed=seed * 1000 + k)
            label = f"r{k}"
            period = generate_period(spec, period_label=label, window=HourWindow(0, 23))
            _write_records(dest / f"region_{k}.csv", period)
            # The program reads the records once and the count table twice.
            rows += len(period.records) + 2 * n
            regions.append({"label": label, "file": f"region_{k}.csv", "rank": rank,
                            "planted_h": period.planted_h.tolist()})
        return {"regions": regions, "rows": rows}

    def execute(self, inputs, truth, out, call):
        procs = []
        for region in truth["regions"]:
            label = region["label"]
            rdir = out / label
            counts = str(rdir / f"counts_{label}.csv")
            procs.append(call(["ingest", "--input-a", str(inputs / region["file"]),
                               "--label-a", label, "--hours", "0..23", "--out", str(rdir)]))
            if procs[-1].code != 0:
                break
            procs.append(call(["rank-scan", "--input-a", counts, "--label-a", label,
                               "--ranks", "2..10", "--seed", "0", "--out", str(rdir)]))
            found = re.search(r"^recommended rank: (\d+)$", procs[-1].stdout, re.M)
            if procs[-1].code != 0 or not found:
                break
            procs.append(call(["factorize", "--input-a", counts, "--label-a", label,
                               "--rank-a", found.group(1), "--seed", "0", "--out", str(rdir)]))
            if procs[-1].code != 0:
                break
        return procs

    def check(self, inputs, truth, out, procs):
        errors = []
        recommended = [int(r) for p in procs if p.argv[0] == "rank-scan"
                       for r in re.findall(r"^recommended rank: (\d+)$", p.stdout, re.M)]
        planted = [r["rank"] for r in truth["regions"]]
        if recommended != planted:
            errors.append(f"recommended ranks {recommended}, planted {planted}")
        return errors

    def factorizations(self, truth, out):
        return [Factorization(out / r["label"] / f"counts_{r['label']}.csv",
                              out / r["label"] / f"{r['label']}_location_loadings.csv",
                              out / r["label"] / f"{r['label']}_time_loadings.csv",
                              np.array(r["planted_h"]))
                for r in truth["regions"]]


WORKLOADS: dict[str, Workload] = {w.name: w for w in (PaperScan(), RawIngest(), RegionStaged())}


def prepare_inputs(workload: Workload, scale: Scale, seed: int, cache: Path,
                   call: Call) -> tuple[Path, dict, bool]:
    """Return (input dir, truth, whether it was generated now), caching by spec and seed."""
    spec = {"workload": workload.name, "scale": [scale.locations, scale.regions,
            list(scale.region_locations)], "seed": seed, "version": GENERATOR_VERSION}
    key = hashlib.sha256(json.dumps(spec, sort_keys=True).encode()).hexdigest()[:16]
    entry = cache / f"{workload.name}-{key}"
    truth_file = entry / "truth.json"
    if truth_file.exists():
        entry.touch()
        return entry, json.loads(truth_file.read_text(encoding="utf-8")), False

    shutil.rmtree(entry, ignore_errors=True)
    entry.mkdir(parents=True)
    truth = workload.generate(scale, seed, entry, call)
    truth["spec"] = spec
    truth_file.write_text(json.dumps(truth), encoding="utf-8")

    # Keep the cache bounded: at most a few entries per workload.
    old = sorted(cache.glob(f"{workload.name}-*"), key=lambda p: p.stat().st_mtime, reverse=True)
    for stale in old[CACHE_ENTRIES_PER_WORKLOAD:]:
        shutil.rmtree(stale, ignore_errors=True)
    return entry, truth, True


def tree_digest(root: Path) -> dict[str, str]:
    """sha256 of every file under root, keyed by relative path."""
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _read_table(path: Path) -> np.ndarray:
    """Numeric columns of a table whose leading non-numeric columns are skipped."""
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    skip = 3 if header[0] == "location_id" else 1
    return np.array([[float(v) for v in line.split(",")[skip:]] for line in lines[1:]])


def quality(factorizations: list[Factorization]) -> tuple[float, float]:
    """(worst relative residual, worst planted-pattern recovery) over the final solves.

    The residual is ||X - Xhat|| / ||X||, with X the written count table and
    Xhat = W H^T mapped back through the per-hour min-max scaling, so it is
    in vehicle counts. (On the normalized table the denominator depends on
    each hour's minimum count, which moves it by several percent from seed
    to seed; in counts it is steady.) Recovery is, for each planted
    temporal pattern, the best cosine with a recovered curve in
    vehicle-count units (H times the per-hour scale); the worst such pattern
    is reported.
    """
    worst_residual, worst_recovery = 0.0, 1.0
    for f in factorizations:
        counts = _read_table(f.counts)
        lo, hi = counts.min(axis=0), counts.max(axis=0)
        scale = np.where(hi > lo, hi - lo, 1.0)
        w, h = _read_table(f.location_loadings), _read_table(f.time_loadings)
        curves = h * scale[:, None]
        residual = np.linalg.norm(counts - (w @ curves.T + lo))
        worst_residual = max(worst_residual, float(residual / np.linalg.norm(counts)))
        planted = f.planted_h
        cos = (planted.T @ curves) / np.outer(np.linalg.norm(planted, axis=0),
                                              np.linalg.norm(curves, axis=0))
        worst_recovery = min(worst_recovery, float(np.nan_to_num(cos).max(axis=1).min()))
    return worst_residual, worst_recovery
