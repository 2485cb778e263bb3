#!/usr/bin/env python3
"""Print the sha256 of the report of each of a fixed list of small CLI runs.

Each line reads `<sha256>  <subcommand and flags>`, as sha256sum prints
it.  The reports are written to a temporary directory through
`beamlab.cli.main` and then removed.  Run it on two trees and diff the
output to see which reports a change moved:

    PYTHONPATH=src python3 scripts/report_digests.py

With `--write` it also refreshes DIGEST_FILE: the host fingerprint line,
then the digest lines.  tests/test_scripts.py requires every digest to
equal the committed one on a host of the same fingerprint, so a change
that moves a report refreshes the file in the same commit.
"""

import argparse
import hashlib
import json
import pathlib
import sys
import tempfile

import numpy as np
from numpy._core._multiarray_umath import __cpu_features__

from beamlab import cli

DIGEST_FILE = pathlib.Path(__file__).resolve().parent.parent / "tests/data/report_digests.txt"

JUNCTION = ["--n-total", "200", "--e-c", "0.2", "--lam", "0.1", "--n0", "101",
            "--phi0", "0.5"]
JOBS = [
    # the runs of acceptance criterion 9
    ["bound-check", "--seed", "7", "--samples", "120", "--cutoff", "2",
     "--mixtures", "10"],
    ["neg-sweep", "--seed", "9", "--samples", "15", "--k-max", "3"],
    ["compare", "--n-total", "4", "--e-c", "10", "--lam", "1"],
    ["pendulum", "--phi0", "0.3", "--phidot0", "0", "--omega", "2", "--horizon", "3",
     "--dt", "0.01"],
    ["bound-check", "--seed", "5", "--samples", "80", "--cutoff", "2", "--workers", "1"],
    ["bound-check", "--seed", "5", "--samples", "80", "--cutoff", "2", "--workers", "3"],
    # the benchmark's plasma-compare and exact-evolve steps
    ["compare", "--n-total", "200", "--e-c", "0.2", "--lam", "0.1", "--phi0", "0.05",
     "--horizon", "20"],
    ["jj-evolve", "--model", "bose_hubbard", "--n-total", "1999", "--e-c", "0.01",
     "--lam", "0.001", "--dt", "0.2357"],
    ["jj-evolve", "--model", "mean_field", *JUNCTION],
    ["jj-evolve", "--model", "bose_hubbard", *JUNCTION],
    ["jj-evolve", "--model", "mean_field", *JUNCTION, "--horizon", "10", "--dt", "1.0"],
    ["jj-evolve", "--model", "bose_hubbard", *JUNCTION, "--horizon", "10", "--dt", "1.0"],
    ["pendulum", "--phi0", "2.5", "--phidot0", "0.4", "--omega", "1.3", "--e-c", "0.5",
     "--n-bar1", "10"],
    ["fluctuations", "--n-bar1-values", "25,100,400"],
    ["tomography", "--config", "{scene}"],
    # self-trapped: the charging field, not the rate, sets the step
    ["jj-evolve", "--n-total", "1000", "--e-c", "1", "--lam", "0.001", "--n0", "900",
     "--phi0", "0.3", "--horizon", "4"],
    # JSON reports: the tomography scene and one trajectory
    ["tomography", "--config", "{scene}", "--format", "json"],
    ["jj-evolve", "--model", "bose_hubbard", *JUNCTION, "--horizon", "10", "--dt", "1.0",
     "--format", "json"],
    # smaller copies of the benchmark's bound-mix and bright-sweep steps:
    # cutoff-3 chunks, mixtures, and chunks of two states at k = 10
    ["bound-check", "--seed", "3", "--samples", "2000", "--cutoff", "3",
     "--mixtures", "200"],
    ["neg-sweep", "--seed", "3", "--samples", "20", "--k-max", "10"],
    # five states in chunks of 4 and 1 at k = 8, 3 and 2 at k = 9, 2, 2 and
    # 1 at k = 10, and of one state, past the chunk budget, from k = 11
    ["neg-sweep", "--seed", "3", "--samples", "5", "--k-max", "16"],
    # 50,001 rows: a report written in three blocks of reports.BLOCK_ROWS
    ["pendulum", "--omega", "1", "--phi0", "1", "--horizon", "1", "--dt", "2e-5"],
    # the fluctuation scan at a filling other than 1/2
    ["fluctuations", "--n-bar1-values", "30,300,3000", "--p", "0.3"],
    # bound records reach JSON as ints, floats and true/false
    ["bound-check", "--seed", "7", "--samples", "120", "--cutoff", "2",
     "--mixtures", "10", "--format", "json"],
    # records pickled out of pool workers: the serial job's digest
    ["neg-sweep", "--seed", "9", "--samples", "15", "--k-max", "3", "--workers", "2"],
    # one lone state per k, each Gamma column one einsum over up to 83,521
    # rows
    ["neg-sweep", "--seed", "3", "--samples", "1", "--k-max", "16"],
]
SCENE = {"stokes": {"i": 1.0, "m": 0.2, "c": 0.0, "s": 0.1}, "seed": 3, "shots": 500}


def digests(out_dir: pathlib.Path) -> list[tuple[str, str]]:
    """(sha256 of the report, job) per job; a job that exits nonzero raises."""
    scene = out_dir / "scene.json"
    scene.write_text(json.dumps(SCENE))
    lines = []
    for i, job in enumerate(JOBS):
        argv = [arg.format(scene=scene) for arg in job]
        out = out_dir / f"report{i}.csv"
        code = cli.main(argv + ["--out", str(out)])
        if code != 0:
            raise SystemExit(f"{' '.join(job)} exited {code}")
        lines.append((hashlib.sha256(out.read_bytes()).hexdigest(), " ".join(job)))
    return lines


def host_fingerprint() -> str:
    """What a report's bits depend on besides the code: numpy's version, the
    CPU features it enabled, and the OpenBLAS it was built with."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    features = ",".join(sorted(name for name, on in __cpu_features__.items() if on))
    return (f"# host: numpy {np.__version__}; cpu {features}; "
            f"{' '.join(blas.get('openblas configuration', blas['name']).split())}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help=f"also write the digests to {DIGEST_FILE.name}")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        lines = [f"{digest}  {job}" for digest, job in digests(pathlib.Path(tmp))]
    print("\n".join(lines))
    if args.write:
        DIGEST_FILE.write_text("\n".join([host_fingerprint(), *lines]) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
