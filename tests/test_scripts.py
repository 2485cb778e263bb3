"""The scripts run end to end and write their reports."""

import importlib.util
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from beamlab import cli, reports

ROOT = Path(__file__).resolve().parent.parent
REPORTS = {"negativity_sweep.csv": "seed,cutoff,n_a,n_b,n_ab,negativity,bound_exact",
           "jj_plasma.csv": "time,n1_exact,n1_meanfield,n1_pendulum,phi_exact",
           "jj_dichotomy.csv": "time,n1_exact,n1_meanfield,n1_pendulum,phi_exact",
           "fluctuations.csv": "n_bar1,number_variance,phase_width"}
# the driver scripts that paper_results.py replaced, the `beamlab` subcommand
# of each job that now writes their reports, and those reports
SCRIPTS = [
    ("jj_model_comparison.py", ["compare", "compare"], ["jj_plasma.csv", "jj_dichotomy.csv"]),
    ("fluctuation_scaling.py", ["fluctuations"], ["fluctuations.csv"]),
    ("negativity_bound_sweep.py", ["neg-sweep"], ["negativity_sweep.csv"]),
]


@pytest.fixture(scope="module")
def paper_results(tmp_path_factory):
    """One run of scripts/paper_results.py: (its output directory, its stdout)."""
    cwd = tmp_path_factory.mktemp("paper_results")
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "paper_results.py"),
                           "--out-dir", "out"], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    return cwd / "out", proc.stdout


def load_script(name: str):
    """scripts/<name>.py as a module."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def read_report(path: Path) -> tuple[dict, str, int]:
    """A CSV report's config echo, its column line and its data-row count."""
    lines = path.read_text().splitlines()
    config = json.loads(lines[0].removeprefix("# config: "))
    columns = next(line for line in lines if not line.startswith("#"))
    return config, columns, len(lines) - lines.index(columns) - 1


def test_paper_results_writes_the_four_reports(paper_results):
    out_dir, stdout = paper_results
    for name, header in REPORTS.items():
        config, columns, n_rows = read_report(out_dir / name)
        assert "subcommand" in config
        assert columns.startswith(header)
        assert n_rows > 0
        assert name in stdout
    # the plasma run starts on the background, not on the CLI's n_bar1 + 1
    plasma = (out_dir / "jj_plasma.csv").read_text().splitlines()[0]
    assert '"n0": 100.0' in plasma


@pytest.mark.parametrize("script,args,reports", SCRIPTS)
def test_script_writes_its_report(paper_results, script, args, reports):
    out_dir, _ = paper_results
    assert not (ROOT / "scripts" / script).exists()
    for name, subcommand in zip(reports, args, strict=True):
        config, columns, n_rows = read_report(out_dir / name)
        assert config["subcommand"] == subcommand, (script, name)
        assert columns.startswith(REPORTS[name]), (script, name)
        assert n_rows > 0, (script, name)


def test_report_digests_prints_one_digest_per_job():
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "report_digests.py")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 27
    digests = [line.split("  ", 1) for line in lines]
    assert all(len(d) == 64 and int(d, 16) >= 0 and job for d, job in digests)
    # the pooled bound-check and neg-sweep runs write the serial runs' bytes
    assert digests[4][0] == digests[5][0] and digests[5][1].endswith("--workers 3")
    assert digests[1][0] == digests[24][0] and digests[24][1].endswith("--workers 2")


def test_reports_keep_their_committed_digests(tmp_path, monkeypatch):
    # tests/data/report_digests.txt holds the digests of the last change
    # that moved a report, written by `report_digests.py --write`; a
    # report's bits depend on the host too, so another host skips
    script = load_script("report_digests")
    fingerprint, *committed = script.DIGEST_FILE.read_text().splitlines()
    if fingerprint != script.host_fingerprint():
        pytest.skip(f"digests committed on another host: {fingerprint!r}, "
                    f"this host: {script.host_fingerprint()!r}")
    monkeypatch.setattr(script, "DIGEST_FILE", tmp_path / "report_digests.txt")
    assert script.main(["--write"]) == 0
    written, *got = script.DIGEST_FILE.read_text().splitlines()
    assert written == fingerprint
    assert len(got) == len(committed) == len(script.JOBS)
    moved = [line for line, want in zip(got, committed) if line != want]
    assert not moved, f"reports moved: {moved}"


def test_report_digests_compare_names_the_moved_job_and_column(tmp_path, monkeypatch):
    # two of the jobs: a CSV trajectory and a JSON bound-check report
    script = load_script("report_digests")
    monkeypatch.setattr(script, "JOBS", [script.JOBS[3], script.JOBS[23]])
    a, b = tmp_path / "a", tmp_path / "b"
    assert script.main(["--out-dir", str(a)]) == 0
    assert sorted(path.name for path in a.glob("0*")) == ["00.csv", "01.json"]
    assert script.compare(a, a) == []
    shutil.copytree(a, b)
    report = json.loads((b / "01.json").read_text())
    row = report["rows"][3]
    row["negativity"] = float(np.nextafter(row["negativity"], math.inf))
    (b / "01.json").write_text(json.dumps(report, indent=2) + "\n")
    lines = script.compare(a, b)
    assert lines[0] == f"job 1: {' '.join(script.JOBS[1])}"
    moved = [line for line in lines[1:] if not line.endswith("change 0, relative 0")]
    assert len(moved) == 1 and moved[0].startswith("  negativity: "), lines
    # a phase column is compared modulo 2 pi
    rows = reports.load_report(str(a / "00.csv"))[0]
    turned = [{**row, "phi": row["phi"] + 2 * math.pi} for row in rows]
    absolute, relative = script.column_changes(rows, turned)["phi"]
    assert absolute < 1e-14 and relative < 1e-13


def test_report_digests_do_not_depend_on_the_blas_thread_timeout():
    # the timeout sets how long an idle OpenBLAS thread spins, not how a sum
    # is split: at 2 threads every report keeps its bytes between the CLI's
    # default and OpenBLAS's own, 28.  This process has imported beamlab.cli
    # and so has the variable set; the first child drops it.
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    outputs = []
    for timeout in (None, "28"):
        env = {name: value for name, value in os.environ.items()
               if name != "OPENBLAS_THREAD_TIMEOUT"}
        env |= {"PYTHONPATH": os.pathsep.join(filter(None, paths)),
                "OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "2"}
        if timeout is not None:
            env["OPENBLAS_THREAD_TIMEOUT"] = timeout
        proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "report_digests.py")],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert len(outputs[0].splitlines()) == 27
    assert outputs[0] == outputs[1]


def test_paper_results_summary_prints_an_undefined_phase(tmp_path):
    # a compare report whose phase divergence is NaN, which reads back None
    out = tmp_path / "cmp.csv"
    assert cli.main(["compare", "--n-total", "4", "--e-c", "1", "--lam", "0",
                     "--n0", "0", "--horizon", "1", "--out", str(out)]) == 0
    script = load_script("paper_results")
    lines = script.summary("jj_dichotomy.csv", *reports.load_report(str(out)))
    assert "max |phi_exact - phi_mf| = undefined," in lines[0]
