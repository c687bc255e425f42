"""Golden runs: a fixed list of CLI cases, each run and saved byte for byte.

    python3 tools/golden_runs.py SRC OUT

SRC is a checkout's ``src/`` directory and OUT a new output directory. The
tool writes the inputs once into OUT/inputs, then runs every case of
``CASES`` as ``python -m trafficnmf.cli`` with SRC on ``PYTHONPATH`` and
BLAS on one thread, from OUT with relative paths: once as it starts (on
Linux with two or more CPUs, ``run`` forks period B's worker) and once under
``taskset -c 0`` (``run`` runs B after A). For each case and path,
OUT/cases/<case>/<path>/ holds ``stdout``, ``stderr``, ``exit_code`` and the
case's ``--out`` tree as ``out/``.

Run it on two checkouts and compare:

    python3 tools/golden_runs.py parent/src golden-parent
    python3 tools/golden_runs.py src golden-change
    diff -r golden-parent golden-change

An empty diff means every output file, stream and exit code is the same.
Where period A fails while B's worker may still be running, what B leaves
under ``--out`` depends on timing, so on the forking path those cases keep
of ``out/`` only A's ``counts_A.csv``, which A writes itself.

The DfT-shaped pair is built by importing ``perfbench/workloads.py`` from
this repository; nothing else is needed beyond the package's own
dependencies.
"""

from __future__ import annotations

import os

# Before numpy loads: the synthetic inputs and every run use one BLAS thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PATHS = {"default": [], "taskset": ["taskset", "-c", "0"]}


# (case, argv without --out, racy: period A fails while B's worker may still run).
CASES = [
    *[(f"run-{n}-{kind}", ["run", "--input-a", f"inputs/synth{n}/synth_A.csv",
                           "--input-b", f"inputs/synth{n}/synth_B.csv", *flags], False)
      for n in (800, 3164)
      for kind, flags in (("scanned", []), ("fixed", ["--rank-a", "6", "--rank-b", "4"]),
                          ("skipped", ["--ranks", "2..14"]))],
    ("run-fail-b-header-only", ["run", "--input-a", "inputs/synth800/synth_A.csv",
                                "--input-b", "inputs/header_only.csv"], False),
    # B's worker fails as it opens its input.
    ("run-fail-b-directory", ["run", "--input-a", "inputs/synth800/synth_A.csv",
                              "--input-b", "inputs"], False),
    ("run-fail-a-table", ["run", "--input-a", "inputs/counts_A.csv",
                          "--input-b", "inputs/synth800/synth_B.csv"], True),
    ("run-fail-ranks", ["run", "--input-a", "inputs/synth800/synth_A.csv",
                        "--input-b", "inputs/synth800/synth_B.csv", "--ranks", "13..14"], True),
    ("run-fail-rank-a", ["run", "--input-a", "inputs/synth800/synth_A.csv",
                         "--input-b", "inputs/synth800/synth_B.csv", "--rank-a", "20"], True),
    ("run-fail-zero-a", ["run", "--input-a", "inputs/zero_A.csv",
                         "--input-b", "inputs/synth800/synth_B.csv",
                         "--rank-a", "6", "--rank-b", "4"], True),
    ("run-dft-fixed", ["run", "--input-a", "inputs/dft/dft_A.csv",
                       "--input-b", "inputs/dft/dft_B.csv", "--rank-a", "6", "--rank-b", "4"],
     False),
    ("run-quoted-a", ["run", "--input-a", "inputs/quoted_A.csv", "--input-b",
                      "inputs/synth800/synth_B.csv", "--rank-a", "6", "--rank-b", "4"], False),
    ("ingest-dft-all-hours", ["ingest", "--input-a", "inputs/dft/dft_A.csv",
                              "--input-b", "inputs/dft/dft_B.csv", "--hours", "0..23"], False),
    ("ingest", ["ingest", "--input-a", "inputs/synth800/synth_A.csv",
                "--input-b", "inputs/synth800/synth_B.csv"], False),
    # One cell sums past 2**53, which float64 cannot sum exactly.
    ("ingest-cell-2-53", ["ingest", "--input-a", "inputs/cell_2_53.csv"], False),
    ("rank-scan", ["rank-scan", "--input-a", "inputs/counts_A.csv", "--ranks", "2..10"], False),
    # Rank 1 puts every location in one cluster: its score is NaN.
    ("rank-scan-from-1", ["rank-scan", "--input-a", "inputs/counts_A.csv", "--ranks", "1..4"],
     False),
    # A byte that is not UTF-8: in plain rows, after the switch to csv in a
    # file with "\r\n" line ends, and in a count table.
    ("ingest-bad-byte-plain", ["ingest", "--input-a", "inputs/bad_byte_A.csv"], False),
    ("run-bad-byte-csv-crlf-b", ["run", "--input-a", "inputs/synth800/synth_A.csv",
                                 "--input-b", "inputs/bad_byte_crlf_B.csv"], False),
    ("rank-scan-bad-byte", ["rank-scan", "--input-a", "inputs/bad_byte_counts_A.csv"], False),
    ("factorize", ["factorize", "--input-a", "inputs/counts_A.csv", "--rank-a", "5",
                   "--init", "nndsvd"], False),
]


def _program(src: Path, cwd: Path, argv: list[str], prefix=()) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([*prefix, sys.executable, "-m", "trafficnmf.cli", *argv], cwd=cwd,
                          env=env, capture_output=True, timeout=600)


def _checked(proc: subprocess.CompletedProcess) -> None:
    if proc.returncode != 0:
        raise SystemExit(f"input step failed ({proc.returncode}): {proc.stderr.decode()}")


def make_inputs(src: Path, root: Path) -> None:
    """The synthetic pairs, the DfT-shaped pair, and the inputs of the failure
    and csv-path cases."""
    inputs = root / "inputs"
    for n in (800, 3164):
        _checked(_program(src, root, [
            "synth", "--locations", str(n), "--rank", "6", "--noise", "0.05",
            "--pair-drop", "2", "--seed", "0", "--out", f"inputs/synth{n}"]))
    _checked(_program(src, root, ["ingest", "--input-a", "inputs/synth800/synth_A.csv",
                                  "--out", "inputs"]))
    header, *rows = (inputs / "synth800" / "synth_A.csv").read_text(encoding="utf-8").splitlines()
    (inputs / "header_only.csv").write_text(header + "\n", encoding="utf-8")
    zero = [header] + [row.rsplit(",", 1)[0] + ",0" for row in rows]
    (inputs / "zero_A.csv").write_text("\n".join(zero) + "\n", encoding="utf-8")
    # One quoted id in the first row sends the whole file through csv.
    loc_id, rest = rows[0].split(",", 1)
    quoted = [header, f'"{loc_id}",{rest}', *rows[1:]]
    (inputs / "quoted_A.csv").write_text("\n".join(quoted) + "\n", encoding="utf-8")
    big = [header] + [f"L1,51.0,-0.1,7,{count}" for count in (2**53, 1, 1)]
    (inputs / "cell_2_53.csv").write_text("\n".join(big) + "\n", encoding="utf-8")
    # Byte 0xa3, a pound sign in cp1252, after an id: on line 501 of A; on
    # line 4001 of B with "\r\n" line ends, a quoted id on line 2 having moved
    # the file onto csv; on line 301 of A's count table.
    bad = [line.encode() for line in [header, *rows]]
    bad[500] = bad[500].replace(b",", b"\xa3,", 1)
    (inputs / "bad_byte_A.csv").write_bytes(b"\n".join(bad) + b"\n")
    header_b, *rows_b = (inputs / "synth800" / "synth_B.csv").read_bytes().splitlines()
    loc_id, rest = rows_b[0].split(b",", 1)
    bad = [header_b, b'"' + loc_id + b'",' + rest, *rows_b[1:]]
    bad[4000] = bad[4000].replace(b",", b"\xa3,", 1)
    (inputs / "bad_byte_crlf_B.csv").write_bytes(b"\r\n".join(bad) + b"\r\n")
    bad = (inputs / "counts_A.csv").read_bytes().splitlines()
    bad[300] = bad[300].replace(b",", b"\xa3,", 1)
    (inputs / "bad_byte_counts_A.csv").write_bytes(b"\n".join(bad) + b"\n")

    sys.dont_write_bytecode = True  # leave no __pycache__ in either tree
    sys.path[:0] = [str(src), str(REPO / "perfbench")]
    import numpy as np
    import workloads

    dft = inputs / "dft"
    dft.mkdir()
    rng = np.random.default_rng([0, workloads.GENERATOR_VERSION])
    for period in workloads._paper_pair(workloads.FULL, 0):
        lines, _ = workloads._dft_rows(period, rng)
        (dft / f"dft_{period.period_label}.csv").write_text(
            workloads.DFT_HEADER + "\n" + "\n".join(lines) + "\n", encoding="utf-8")


def run_cases(src: Path, root: Path) -> None:
    for name, argv, racy in CASES:
        for path, prefix in PATHS.items():
            case = Path("cases") / name / path
            (root / case).mkdir(parents=True)
            proc = _program(src, root, [*argv, "--out", str(case / "out")], prefix)
            (root / case / "stdout").write_bytes(proc.stdout)
            (root / case / "stderr").write_bytes(proc.stderr)
            (root / case / "exit_code").write_text(f"{proc.returncode}\n")
            if racy and path == "default":
                for written in (root / case / "out").glob("*"):
                    if written.name != "counts_A.csv":
                        written.unlink()
            print(f"{name} [{path}]: exit {proc.returncode}")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 1
    src, root = Path(argv[0]).resolve(), Path(argv[1])
    if not (src / "trafficnmf" / "cli.py").is_file():
        print(f"{src} holds no trafficnmf package", file=sys.stderr)
        return 1
    root.mkdir(parents=True)  # a new directory: stale files would hide a difference
    make_inputs(src, root)
    run_cases(src, root)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
