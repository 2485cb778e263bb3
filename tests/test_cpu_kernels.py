"""Report values across CPU kernels.

A report's bytes depend on numpy's SIMD dispatch and on the OpenBLAS
kernel, so another host may write other bits.  Here one child process per
setting runs four reports, with numpy's AVX-512 and AVX2 kernels turned off
in one child and OpenBLAS's Haswell kernels forced in another, and every
cell must stay within 1e-12 relative (absolute below 1) of the default
run's.  Only the children's environment is set.  On a CPU without those
features a setting changes nothing, and the check still holds."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from beamlab import reports

SETTINGS = {
    "numpy": {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4 X86_V3"},
    "openblas": {"OPENBLAS_CORETYPE": "Haswell"},
}
JOBS = {
    "bound-check": ["--seed", "7", "--samples", "120", "--cutoff", "2", "--mixtures", "10"],
    "neg-sweep": ["--seed", "9", "--samples", "15", "--k-max", "3"],
    "compare": ["--n-total", "200", "--e-c", "0.2", "--lam", "0.1", "--phi0", "0.05",
                "--horizon", "20"],
    "jj-evolve": ["--model", "bose_hubbard", "--n-total", "200", "--e-c", "0.2",
                  "--lam", "0.1", "--n0", "101", "--phi0", "0.5"],
}
TOLERANCE = 1e-12

RUN_JOBS = r"""
import json, sys
from beamlab import cli

jobs, out = json.loads(sys.argv[1]), sys.argv[2]
for name, argv in jobs.items():
    assert cli.main([name, *argv, "--out", f"{out}/{name}.csv"]) == 0, name
"""


def run_jobs(out: Path, setting: dict) -> None:
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {name: value for name, value in os.environ.items()
           if name not in ("NPY_DISABLE_CPU_FEATURES", "OPENBLAS_CORETYPE")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out.mkdir()
    proc = subprocess.run([sys.executable, "-c", RUN_JOBS, json.dumps(JOBS), str(out)],
                          env={**env, **setting}, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr


def cells(path: Path) -> dict:
    """Every cell of a report, rows and header values alike, by its place."""
    rows, header = reports.load_report(str(path))
    found = {}

    def walk(key, value):
        if isinstance(value, dict):
            for name, item in value.items():
                walk((*key, name), item)
        else:
            found[key] = value

    walk(("header",), header)
    for number, row in enumerate(rows):
        walk(("row", number), row)
    return found


def moved(key, want, got) -> float:
    """How far `got` lies from `want` in units of the tolerance's scale; a
    phase (`phi*`, `div_phi`) modulo 2 pi, because an ulp can flip its branch."""
    if not (isinstance(want, float) and isinstance(got, float)):     # bools, ints, text
        return 0.0 if (type(want), want) == (type(got), got) else math.inf
    diff = got - want
    if key[-1].startswith("phi") or key[-1] == "div_phi":
        diff = math.remainder(diff, 2 * math.pi)
    return abs(diff) / max(1.0, abs(want))


@pytest.fixture(scope="module")
def default_run(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("kernels") / "default"
    run_jobs(out, {})
    return out


@pytest.mark.parametrize("setting", sorted(SETTINGS))
def test_report_values_agree_across_cpu_kernels(tmp_path, default_run, setting):
    run_jobs(tmp_path / setting, SETTINGS[setting])
    for name in JOBS:
        want, got = (cells(run / f"{name}.csv") for run in (default_run, tmp_path / setting))
        assert want.keys() == got.keys(), name
        worst = max(want, key=lambda key: moved(key, want[key], got[key]))
        assert moved(worst, want[worst], got[worst]) <= TOLERANCE, (
            name, worst, want[worst], got[worst])
