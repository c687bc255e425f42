"""What the benchmark under perfbench/ uses of the package, checked in seconds.

perfbench/tracer.py wraps package functions by name, and perfbench/workloads.py
writes its inputs from `SyntheticPeriod.records`. Renaming or deleting either
breaks the benchmark; its own self-test (perfbench/selftest.py) would show
that too, but takes about half a minute.
"""

import subprocess
import sys
from pathlib import Path

import trafficnmf

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SRC = Path(trafficnmf.__file__).resolve().parents[1]

# Run in its own process: installing the tracer replaces package functions.
SCRIPT = """
import sys
from pathlib import Path

sys.path[:0] = sys.argv[1:3]
import numpy as np
import tracer
import workloads
from trafficnmf.ingest import build_matrix, parse_records
from trafficnmf.synth import SyntheticSpec, generate_pair

tracer.Tracer().install()  # every traced name still exists

spec = SyntheticSpec(n_locations=40, n_hours=12, planted_rank=6, noise_level=0.05, seed=0)
for period in generate_pair(spec, drop=2, count_scale=0.5):
    path = Path(sys.argv[3]) / f"synth_{period.period_label}.csv"
    workloads._write_records(path, period)
    with path.open(newline="") as f:
        matrix = build_matrix(parse_records(f).records)
    assert np.array_equal(matrix.values, period.counts)
    rows, tallies = workloads._dft_rows(period, np.random.default_rng(0))
    assert len(rows) == 2 * period.counts.size + sum(tallies.values())
print("ok")
"""


def test_tracer_and_workload_inputs_still_fit_the_package(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(PERFBENCH), str(SRC), str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"
