"""The driver scripts run end to end and write their reports."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = [
    ("jj_model_comparison.py", ["--out-dir", "."],
     {"jj_plasma.csv": "time,n1_exact,n1_meanfield,n1_pendulum,phi_exact",
      "jj_dichotomy.csv": "time,n1_exact,n1_meanfield,n1_pendulum,phi_exact"}),
    ("fluctuation_scaling.py", ["--out", "fluctuations.csv"],
     {"fluctuations.csv": "n_bar1,number_variance,phase_width"}),
    ("negativity_bound_sweep.py",
     ["--k-max", "3", "--samples", "20", "--out", "negativity_sweep.csv"],
     {"negativity_sweep.csv": "k,bound,max_negativity,margin,samples"}),
]


@pytest.mark.parametrize("script,args,reports", SCRIPTS)
def test_script_writes_its_report(tmp_path, script, args, reports):
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    for name, header in reports.items():
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0].startswith("# config: ")
        columns = next(line for line in lines if not line.startswith("#"))
        assert columns.startswith(header)
        assert len(lines) > lines.index(columns) + 1


def test_report_digests_prints_one_digest_per_job():
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "report_digests.py")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 14
    digests = [line.split("  ", 1) for line in lines]
    assert all(len(d) == 64 and int(d, 16) >= 0 and job for d, job in digests)
    # the pooled bound-check run writes the serial run's bytes
    assert digests[4][0] == digests[5][0] and digests[5][1].endswith("--workers 3")
