import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from beamlab import cli, reports


def run(argv):
    return cli.main(argv)


def test_pendulum_fixed_point_zeros(tmp_path):
    out = tmp_path / "pend.csv"
    assert run(["pendulum", "--phi0", "0", "--phidot0", "0", "--omega", "2.0",
                "--horizon", "1.0", "--dt", "0.01", "--out", str(out)]) == 0
    rows, header = reports.load_report(str(out))
    assert header["config"]["subcommand"] == "pendulum"
    assert all(r["phi"] == 0.0 for r in rows)
    assert rows[0]["time"] == 0.0 and rows[-1]["time"] == 1.0


def test_pendulum_report_columns(tmp_path):
    # a pendulum carries a phase velocity and no product fidelity
    out = tmp_path / "pend.csv"
    assert run(["pendulum", "--phi0", "0.3", "--omega", "2", "--horizon", "1",
                "--dt", "0.01", "--e-c", "0.5", "--n-bar1", "10",
                "--out", str(out)]) == 0
    rows, _ = reports.load_report(str(out))
    assert list(rows[0].keys()) == ["time", "n1", "phi", "norm_drift", "energy",
                                    "phidot"]
    assert rows[0]["phidot"] == 0.0 and rows[-1]["phidot"] < 0.0
    assert all(r["n1"] == pytest.approx(10.0 + r["phidot"] / 0.5) for r in rows)


def test_pendulum_defaults_follow_the_size_of_omega(tmp_path):
    # the model reads |omega|, and so do the default horizon and dt
    loaded = []
    for omega in ("2", "-2"):
        out = tmp_path / f"pend{omega}.csv"
        assert run(["pendulum", "--phi0", "0.3", "--omega", omega, "--out", str(out)]) == 0
        loaded.append(reports.load_report(str(out)))
    (rows, header), (flipped_rows, flipped_header) = loaded
    assert rows == flipped_rows
    for config in (header["config"], flipped_header["config"]):
        assert (config["horizon"], config["dt"]) == (5.0, 0.005)


def test_bound_check_deterministic_across_runs_and_workers(tmp_path):
    args = ["bound-check", "--seed", "7", "--samples", "60", "--cutoff", "2",
            "--mixtures", "5"]
    paths = [tmp_path / f"r{i}.csv" for i in range(3)]
    assert run(args + ["--out", str(paths[0])]) == 0
    assert run(args + ["--out", str(paths[1])]) == 0
    assert run(args + ["--out", str(paths[2]), "--workers", "2"]) == 0
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]


POOLED_RUNS = {
    "bound-check": ["bound-check", "--seed", "7", "--samples", "12", "--cutoff", "1",
                    "--mixtures", "2"],
    "neg-sweep": ["neg-sweep", "--seed", "11", "--samples", "8", "--k-max", "2"],
}


@pytest.mark.parametrize("method", ["fork", "spawn"])
@pytest.mark.parametrize("subcommand", sorted(POOLED_RUNS))
def test_pooled_reports_match_serial_under_each_start_method(
        tmp_path, monkeypatch, subcommand, method):
    started = []
    get_context = cli.get_context

    def recording_context(name):
        started.append(name)
        return get_context(name)

    monkeypatch.setattr(cli, "START_METHOD", method)
    monkeypatch.setattr(cli, "get_context", recording_context)
    blobs = []
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}.csv"
        assert run(POOLED_RUNS[subcommand] + ["--workers", workers,
                                              "--out", str(out)]) == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]
    assert started and set(started) == {method}


class _SerialContext:
    """Stands in for a multiprocessing context: records the pool size and
    maps in this process."""

    def __init__(self, sizes):
        self.sizes = sizes

    def Pool(self, processes):  # noqa: N802 - mirrors multiprocessing
        self.sizes.append(processes)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, func, tasks):
        return [func(task) for task in tasks]


def test_pool_starts_at_most_one_process_per_usable_cpu(tmp_path, monkeypatch):
    sizes = []
    monkeypatch.setattr(cli, "get_context", lambda name: _SerialContext(sizes))
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1, 2})
    argv = ["bound-check", "--seed", "5", "--samples", "400", "--cutoff", "1"]
    serial, pooled = tmp_path / "serial.csv", tmp_path / "pooled.csv"
    assert run(argv + ["--out", str(serial)]) == 0
    assert run(argv + ["--workers", "200", "--out", str(pooled)]) == 0
    assert sizes == [3]
    assert pooled.read_bytes() == serial.read_bytes()

    monkeypatch.delattr(cli.os, "sched_getaffinity")
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 5)
    assert run(argv + ["--workers", "7", "--out", str(pooled)]) == 0
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert run(argv + ["--workers", "2", "--out", str(pooled)]) == 0
    assert sizes == [3, 5, 1]
    # below two samples per task the run stays serial, whatever the CPUs
    assert run(argv + ["--workers", "201", "--out", str(pooled)]) == 0
    assert sizes == [3, 5, 1]
    assert pooled.read_bytes() == serial.read_bytes()


def test_neg_sweep_cli_pool_with_blas_threads_matches_serial(tmp_path):
    # the pool forks a process whose BLAS has started two threads
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path,
           "OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "2"}
    blobs = []
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "beamlab.cli", "neg-sweep", "--seed", "3",
             "--samples", "20", "--k-max", "3", "--workers", workers,
             "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        blobs.append(out.read_bytes())
    assert blobs[0].count(b"\n") > 60
    assert blobs[0] == blobs[1]


BLAS_TIMEOUT_AT_NUMPY_LOAD = r"""
import os, sys

class Probe:                # notes the variable when numpy starts to load
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not hasattr(self, "seen"):
            self.seen = os.environ.get("OPENBLAS_THREAD_TIMEOUT")

probe = Probe()
sys.meta_path.insert(0, probe)
import beamlab.cli
print(probe.seen, os.environ["OPENBLAS_THREAD_TIMEOUT"])
"""


@pytest.mark.parametrize("given,expected", [(None, "20"), ("28", "28")])
def test_cli_sets_the_blas_thread_timeout_before_numpy_loads(given, expected):
    # OpenBLAS reads the variable once, when numpy loads it; a value the
    # user set wins.  This process has imported beamlab.cli and so has the
    # variable set: each child's is dropped or given explicitly.
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {name: value for name, value in os.environ.items()
           if name != "OPENBLAS_THREAD_TIMEOUT"}
    env["PYTHONPATH"] = path
    if given is not None:
        env["OPENBLAS_THREAD_TIMEOUT"] = given
    proc = subprocess.run([sys.executable, "-c", BLAS_TIMEOUT_AT_NUMPY_LOAD],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [expected, expected]


def test_cli_stderr_is_one_error_line_or_one_line_per_warning(tmp_path):
    # a fresh process, free of pytest's warning filters; N = 4 puts fewer
    # than 10 pairs on each electrode, which warns
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {name: value for name, value in os.environ.items()
           if name != "PYTHONWARNINGS"}
    junction = ["--n-total", "4", "--e-c", "1", "--lam", "1"]
    warning = ("warning: n_bar1 = 2.0, N = 4: at least one electrode holds fewer "
               "than ~10 background pairs; two-level-style derived constants are "
               "only indicative here\n")
    for argv, code, stderr in (
            (["jj-evolve", *junction, "--dt", "0"], 1,
             "error: --dt must be in (0, inf), got '0'\n"),
            (["jj-evolve", *junction, "--horizon", "1", "--dt", "0.1"], 0, warning),
            (["compare", *junction], 0, warning)):
        proc = subprocess.run(
            [sys.executable, "-m", "beamlab.cli", *argv, "--out", str(tmp_path / "r.csv")],
            env={**env, "PYTHONPATH": path}, capture_output=True, text=True,
            timeout=120)
        assert (proc.returncode, proc.stderr) == (code, stderr), argv


SCIPY_FREE_RUNS = r"""
import sys
from beamlab import cli, fock

def scipy_loaded():
    return any(name.partition(".")[0] == "scipy" for name in sys.modules)

bound_chunk = cli._bound_chunk

def checked_chunk(task):        # what each forked pool worker runs
    rows = bound_chunk(task)
    assert not scipy_loaded(), "a pool worker loaded scipy"
    return rows

if cli.START_METHOD == "fork":
    cli._bound_chunk = checked_chunk
out, scene = sys.argv[1:]
for argv in (["bound-check", "--seed", "1", "--samples", "20", "--cutoff", "1",
              "--mixtures", "3"],
             ["neg-sweep", "--seed", "2", "--samples", "8", "--k-max", "2",
              "--workers", "1"],
             ["neg-sweep", "--seed", "2", "--samples", "8", "--k-max", "2",
              "--workers", "2"],
             ["tomography", "--config", scene],
             ["jj-evolve", "--model", "mean_field", "--n-total", "40", "--e-c", "0.2",
              "--lam", "0.1", "--horizon", "1", "--dt", "0.1"],
             ["compare", "--n-total", "4", "--e-c", "10", "--lam", "1"],
             # the benchmark's two junction steps: the exact model on its window
             ["compare", "--n-total", "200", "--e-c", "0.2", "--lam", "0.1", "--phi0",
              "0.05", "--horizon", "20"],
             ["jj-evolve", "--model", "bose_hubbard", "--n-total", "1999", "--e-c",
              "0.01", "--lam", "0.001", "--dt", "0.2357"]):
    assert cli.main(argv + ["--out", out]) == 0, argv
    assert not scipy_loaded(), argv
# a state that spreads over a sector of more than DENSE_EIGH_LIMIT rows is
# solved by scipy
assert cli.main(["jj-evolve", "--model", "bose_hubbard", "--n-total",
                 str(fock.DENSE_EIGH_LIMIT), "--e-c", "0", "--lam", "1", "--n0", "0",
                 "--horizon", "3", "--dt", "1", "--out", out]) == 0
assert scipy_loaded()
"""


def run_fresh(script, *args) -> str:
    """Run `script` in a fresh interpreter that imports beamlab from src/;
    its stdout."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_beam_subcommands_never_load_scipy(tmp_path):
    # nor does either junction model, which builds no sparse matrix, while the
    # exact model's eigensolve stays within fock.DENSE_EIGH_LIMIT rows
    # a fresh process: the test session itself has scipy loaded
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps({"stokes": {"i": 1.0, "m": 0.2, "c": 0.0, "s": 0.1},
                                 "shots": 100, "seed": 4}))
    run_fresh(SCIPY_FREE_RUNS, tmp_path / "out.csv", scene)


# one CLI run in a child of its own, so that RUSAGE_CHILDREN's peak is its
PEAK_OF_ONE_RUN = r"""
import resource, subprocess, sys
subprocess.run([sys.executable, "-m", "beamlab.cli", *sys.argv[1:]], check=True)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in kB on Linux")
def test_report_memory_is_bounded_by_the_model_arrays(tmp_path):
    # a report holds its columns and one block of rows: 2e5 pendulum rows,
    # whose arrays take about 12 MB, peak within 30 MB of 101 rows in either
    # format (one dict per row took about 106 MB more; JSON blocks of 20,000
    # row dicts and their text, 46 MB more)
    for fmt in ("csv", "json"):
        peaks = [int(run_fresh(PEAK_OF_ONE_RUN, "pendulum", "--omega", "1", "--phi0", "1",
                               "--horizon", "1", "--dt", dt, "--format", fmt,
                               "--out", tmp_path / f"r.{fmt}")) / 1024
                 for dt in ("1e-2", "5e-6")]
        assert peaks[1] - peaks[0] < 30, (fmt, peaks)


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in kB on Linux")
def test_bound_check_memory_grows_only_by_its_records(tmp_path):
    # a bound row is one 65-byte record from chunk to report: 60,000 states
    # peak within 30 MB of 600, about 15 MB apart (a dict per row took 56 MB)
    peaks = [int(run_fresh(PEAK_OF_ONE_RUN, "bound-check", "--seed", "3", "--cutoff", "1",
                           "--samples", samples, "--out", tmp_path / "b.csv")) / 1024
             for samples in ("600", "60000")]
    assert peaks[1] - peaks[0] < 30, peaks


def test_bound_check_holds_one_copy_of_its_records():
    # the sample and the mixture records are written in place into one
    # array, so building them grows by one 65-byte record per state; joined
    # with np.concatenate, they took two copies, 130 bytes per state
    peaks = []
    for samples in (2000, 30000):
        args = SimpleNamespace(seed=3, samples=samples, cutoff=1, mixtures=2, workers=1)
        tracemalloc.start()
        try:
            columns, _ = cli.COMMANDS["bound-check"][0](args)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert len(columns["seed"]) == 30002
    assert (peaks[1] - peaks[0]) / 28000 < 100, peaks


WARM_WORKER_RUNS = r"""
import sys
from beamlab import cli, entanglement

bound_chunk = cli._bound_chunk

def checked_chunk(task):        # what each forked pool worker runs
    modules = set(sys.modules)
    misses = entanglement._layout.cache_info().misses
    rows = bound_chunk(task)
    loaded = sorted(set(sys.modules) - modules)
    assert not loaded, f"a pool worker loaded {loaded}"
    assert entanglement._layout.cache_info().misses == misses, \
        "a pool worker built a layout"
    return rows

cli._bound_chunk = checked_chunk
assert "numpy.random" not in sys.modules, "import beamlab.cli loaded numpy.random"
out = sys.argv[1]
assert cli.main(["pendulum", "--omega", "1", "--horizon", "1", "--dt", "0.1",
                 "--out", out]) == 0
assert "numpy.random" not in sys.modules, "pendulum loaded numpy.random"
assert "scipy" not in sys.modules, "pendulum loaded scipy"
for argv in (["neg-sweep", "--seed", "2", "--samples", "8", "--k-max", "3",
              "--workers", "2"],
             ["bound-check", "--seed", "1", "--samples", "20", "--cutoff", "2",
              "--mixtures", "3", "--workers", "2"]):
    assert cli.main(argv + ["--out", out]) == 0, argv
"""


@pytest.mark.skipif(cli.START_METHOD != "fork", reason="workers fork on Linux only")
def test_forked_workers_load_and_build_nothing(tmp_path):
    # a fresh process, whose numpy has not loaded numpy.random yet
    run_fresh(WARM_WORKER_RUNS, tmp_path / "out.csv")


MODULE_LOADS = r"""
import json, sys
from beamlab import cli

def present(names):
    return [name for name in names if name in sys.modules]

# the subcommand's own modules come with the subcommand, not with the import
with_cli = present(["beamlab.entanglement", "beamlab.dynamics", "beamlab.jj",
                    "beamlab.fock", "beamlab.polarization", "multiprocessing"])
assert not with_cli, f"import beamlab.cli loaded {with_cli}"
runs, unloaded = json.loads(sys.argv[1])
out, scene = sys.argv[2:]
for argv in runs:
    assert cli.main([a.format(scene=scene) for a in argv] + ["--out", out]) == 0, argv
    assert not present(unloaded), (argv, present(unloaded))
"""

JUNCTION_RUNS = [
    ["jj-evolve", "--model", "mean_field", "--n-total", "40", "--e-c", "0.2",
     "--lam", "0.1", "--horizon", "1", "--dt", "0.1"],
    ["jj-evolve", "--model", "bose_hubbard", "--n-total", "40", "--e-c", "0.2",
     "--lam", "0.1", "--horizon", "1", "--dt", "0.1"],
    ["compare", "--n-total", "20", "--e-c", "0.5", "--lam", "0.1", "--horizon", "2"],
    ["pendulum", "--omega", "1", "--horizon", "1", "--dt", "0.1"],
    ["fluctuations", "--n-bar1-values", "25,50,100"],
]
BEAM_RUNS = [
    ["bound-check", "--seed", "1", "--samples", "20", "--cutoff", "1",
     "--mixtures", "3", "--workers", "1"],
    ["neg-sweep", "--seed", "2", "--samples", "8", "--k-max", "2", "--workers", "1"],
]


@pytest.mark.parametrize("runs, unloaded", [
    (JUNCTION_RUNS, ["beamlab.entanglement", "beamlab.polarization", "multiprocessing"]),
    (BEAM_RUNS, ["beamlab.dynamics", "beamlab.jj", "beamlab.polarization",
                 "multiprocessing"]),
    ([["tomography", "--config", "{scene}"]],
     ["beamlab.entanglement", "beamlab.dynamics", "beamlab.jj", "beamlab.fock",
      "multiprocessing"]),
], ids=["junction", "beam", "tomography"])
def test_a_subcommand_loads_only_its_own_modules(tmp_path, runs, unloaded):
    # a fresh process: the test session itself has every module loaded
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps({"stokes": {"i": 1.0, "m": 0.2, "c": 0.0, "s": 0.1},
                                 "shots": 100, "seed": 4}))
    run_fresh(MODULE_LOADS, json.dumps([runs, unloaded]), tmp_path / "out.csv", scene)


def test_bound_check_json_and_csv_agree(tmp_path):
    base = ["bound-check", "--seed", "3", "--samples", "25", "--cutoff", "1"]
    cpath, jpath = tmp_path / "b.csv", tmp_path / "b.json"
    assert run(base + ["--out", str(cpath), "--format", "csv"]) == 0
    assert run(base + ["--out", str(jpath), "--format", "json"]) == 0
    crows, _ = reports.load_report(str(cpath))
    jrows, _ = reports.load_report(str(jpath))
    assert crows == jrows


SMALL_RUNS = {
    "bound-check": ["--seed", "3", "--samples", "6", "--cutoff", "1", "--mixtures", "2"],
    "neg-sweep": ["--seed", "9", "--samples", "3", "--k-max", "2"],
    "tomography": ["--config", "{scene}", "--seed", "4"],
    "jj-evolve": ["--n-total", "20", "--e-c", "0.2", "--lam", "0.1", "--n0", "11",
                  "--phi0", "0.5", "--horizon", "2", "--dt", "0.5"],
    "pendulum": ["--phi0", "0.3", "--omega", "2", "--horizon", "1", "--dt", "0.25",
                 "--e-c", "0.5", "--n-bar1", "10"],
    "fluctuations": ["--n-bar1-values", "25,50,100"],
    "compare": ["--n-total", "4", "--e-c", "10", "--lam", "1", "--horizon", "1"],
}


@pytest.mark.parametrize("subcommand", sorted(SMALL_RUNS))
def test_every_report_loads_back_with_its_configuration(tmp_path, subcommand):
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps({"stokes": {"i": 1.0, "m": 0.2, "c": 0.0, "s": 0.1},
                                 "shots": 100}))
    argv = [subcommand, *(a.format(scene=scene) for a in SMALL_RUNS[subcommand])]
    loaded = {}
    for fmt in ("csv", "json"):
        out = tmp_path / f"report.{fmt}"
        assert run(argv + ["--out", str(out), "--format", fmt]) == 0
        args = cli.build_parser().parse_args(argv + ["--out", str(out), "--format", fmt])
        _, echo = cli.resolve(args.table, args)
        config = {"subcommand": subcommand, **echo, "format": fmt}
        rows, header = reports.load_report(str(out))
        assert header["config"] == json.loads(json.dumps(config))
        loaded[fmt] = rows, header
    (csv_rows, _), (json_rows, _) = loaded["csv"], loaded["json"]
    assert csv_rows
    assert csv_rows == json_rows


# One other value for every parameter of every subcommand that is not a
# "flag" (an execution detail): a flag text, or for a scene key a change to
# the scene file.
OTHER_VALUES = {
    "bound-check": {"seed": "4", "samples": "7", "cutoff": "2", "mixtures": "3"},
    "neg-sweep": {"seed": "10", "samples": "4", "k_max": "3"},
    "tomography": {
        "seed": "5", "shots": "200", "noise": "false",
        "stokes": {"stokes": {"i": 1.0, "m": -0.2, "c": 0.3, "s": 0.1}},
        "omega": {"stokes": None, "omega": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]},
        "device_maps": {"device_maps": [{"kraus": [[[[1, 0], [0, 0]],
                                                    [[0, 0], [0, 0]]]]}]},
    },
    "jj-evolve": {"model": "bose_hubbard", "e_c": "0.3", "lam": "0.15",
                  "n_total": "22", "n_bar1": "10.5", "n0": "12", "phi0": "0.6",
                  "horizon": "3", "dt": "0.25"},
    "pendulum": {"phi0": "0.4", "phidot0": "0.5", "omega": "2.5", "horizon": "2",
                 "dt": "0.125", "e_c": "0.7", "n_bar1": "11"},
    "fluctuations": {"n_bar1_values": "25,50,200", "p": "0.3"},
    "compare": {"e_c": "8", "lam": "1.5", "n_total": "6", "n_bar1": "2.5",
                "n0": "2.5", "phi0": "0.2", "horizon": "2"},
}


def _cells_moved(rows, other) -> bool:
    """Whether the row count, a column, or a cell differs, a number by more
    than 1e-12 relative."""
    def moved(x, y):
        if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (x, y)):
            return abs(x - y) > 1e-12 * max(abs(x), abs(y))
        return x != y
    return len(rows) != len(other) or any(
        a.keys() != b.keys() or any(moved(a[k], b[k]) for k in a)
        for a, b in zip(rows, other))


def _changed_rows(tmp_path, name, setting=None, change=None):
    """Rows of the SMALL_RUNS run of `name` with `setting` changed: `change`
    is flag text, or entries merged into the run's scene file."""
    scene = {"stokes": {"i": 1.0, "m": 0.2, "c": 0.0, "s": 0.1}, "shots": 100}
    if isinstance(change, dict):
        scene |= change
    path = tmp_path / f"{name}-{setting}.json"
    path.write_text(json.dumps(scene))
    argv = [name, *(a.format(scene=path) for a in SMALL_RUNS[name])]
    if isinstance(change, str):
        argv += ["--" + setting.replace("_", "-"), change]
    out = tmp_path / f"{name}-{setting}.csv"
    assert run(argv + ["--out", str(out)]) == 0, (name, setting)
    return reports.load_report(str(out))[0]


def test_every_setting_moves_the_rows(tmp_path):
    # a setting that moves no number of its report is not a setting; the only
    # execution detail is --workers, whose byte identity criterion 9 checks
    assert sorted(cli.COMMANDS) == sorted(SMALL_RUNS) == sorted(OTHER_VALUES)
    for name, (_, table, _) in cli.COMMANDS.items():
        assert [p.name for p in table if p.source == "flag"] in ([], ["workers"]), name
        settings = [p.name for p in table if p.source != "flag"]
        assert sorted(OTHER_VALUES[name]) == sorted(settings), name
        base = _changed_rows(tmp_path, name)
        for setting in settings:
            other = _changed_rows(tmp_path, name, setting, OTHER_VALUES[name][setting])
            assert _cells_moved(base, other), (name, setting)


def test_neg_sweep_bound_column(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run(["neg-sweep", "--seed", "11", "--samples", "10", "--k-max", "3",
                "--out", str(out)]) == 0
    rows, _ = reports.load_report(str(out))
    assert {r["cutoff"] for r in rows} == {1, 2, 3}
    for r in rows:
        assert r["bound_exact"] == pytest.approx(2.0 / r["cutoff"], rel=1e-12)
        assert r["negativity"] <= r["bound_exact"] + 1e-9
        assert r["satisfied"] is True


def test_exit_code_2_on_violation(tmp_path, monkeypatch):
    import beamlab.entanglement as ent

    def fake_rows(seed, indices, cutoff, photons_per_beam=None, out=None):
        out[:] = np.array([(0, cutoff, 1.0, 1.0, 1.0, 3.0, 2.0, 2.0, False)], ent.ROW)
        return out

    monkeypatch.setattr(ent, "bound_rows", fake_rows)
    out = tmp_path / "viol.csv"
    assert run(["bound-check", "--seed", "1", "--samples", "1", "--cutoff", "1",
                "--out", str(out)]) == 2


@pytest.mark.parametrize("satisfied,code", [
    ([True, False], 2), (np.array([True, False]), 2), ([np.True_, np.False_], 2),
    (np.array([True, True]), 0)])
def test_a_false_satisfied_cell_exits_2(tmp_path, monkeypatch, satisfied, code):
    def run_columns(args):
        return {"seed": [0, 1], "satisfied": satisfied}, None

    monkeypatch.setitem(cli.COMMANDS, "columns", (run_columns, (), "given columns"))
    out = tmp_path / "columns.csv"
    assert run(["columns", "--out", str(out)]) == code
    written = "true" if code == 0 else "false"
    assert out.read_text().splitlines()[1:] == ["seed,satisfied", "0,true", f"1,{written}"]


def test_tomography_scene_file(tmp_path):
    # one Kraus element: the mode-0 projector, entries as [re, im] pairs
    projector = [[[1, 0], [0, 0]],
                 [[0, 0], [0, 0]]]
    scene = {
        "stokes": {"i": 1.0, "m": 0.0, "c": 0.0, "s": 0.0},
        "device_maps": [{"kraus": [projector]}],
        "shots": 4000,
        "seed": 5,
    }
    scene_path = tmp_path / "scene.json"
    scene_path.write_text(json.dumps(scene))
    out = tmp_path / "tomo.json"
    assert run(["tomography", "--config", str(scene_path), "--out", str(out),
                "--format", "json"]) == 0
    json_rows, header = reports.load_report(str(out))
    by_comp = {r["component"]: r for r in json_rows}
    assert list(by_comp) == list("imcs")
    # mode-0 projector on unpolarized light: I = 0.5, S = 0.5
    assert by_comp["i"]["true_value"] == pytest.approx(0.5)
    assert by_comp["s"]["true_value"] == pytest.approx(0.5)
    assert header["config"]["seed"] == 5
    # the report echoes the scene it measured, as the file gave it
    assert header["config"]["stokes"] == scene["stokes"]
    assert header["config"]["device_maps"] == scene["device_maps"]
    assert "omega" not in header["config"]
    assert abs(by_comp["s"]["estimate"] - 0.5) < 5 * by_comp["s"]["standard_error"]

    # 5-sigma-ish agreement and byte determinism
    out2 = tmp_path / "tomo2.json"
    assert run(["tomography", "--config", str(scene_path), "--out", str(out2),
                "--format", "json"]) == 0
    assert out.read_bytes() == out2.read_bytes()

    # csv variant carries the same numbers
    outc = tmp_path / "tomo.csv"
    assert run(["tomography", "--config", str(scene_path), "--out", str(outc)]) == 0
    rows, _ = reports.load_report(str(outc))
    assert rows == json_rows


def test_tomography_flag_overrides_scene(tmp_path):
    scene = {"stokes": {"i": 1.0}, "shots": 10, "seed": 1}
    scene_path = tmp_path / "scene.json"
    scene_path.write_text(json.dumps(scene))
    out = tmp_path / "t.json"
    assert run(["tomography", "--config", str(scene_path), "--seed", "99",
                "--out", str(out), "--format", "json"]) == 0
    assert json.loads(out.read_text())["config"]["seed"] == 99


def test_unknown_config_key_rejected(tmp_path, capsys):
    scene_path = tmp_path / "scene.json"
    scene_path.write_text(json.dumps({"stokes": {"i": 1.0}, "seed": 1,
                                      "typo_key": 3}))
    out = tmp_path / "t.json"
    assert run(["tomography", "--config", str(scene_path),
                "--out", str(out)]) == 1
    assert "typo_key" in capsys.readouterr().err


def test_malformed_config_is_line_anchored(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{\n  "seed": 1,\n  oops\n}\n')
    out = tmp_path / "t.csv"
    assert run(["bound-check", "--config", str(bad), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"{bad}:3:" in err


def test_missing_required_parameter(tmp_path, capsys):
    out = tmp_path / "b.csv"
    assert run(["bound-check", "--samples", "5", "--cutoff", "1",
                "--out", str(out)]) == 1
    assert "seed" in capsys.readouterr().err


def test_jj_evolve_cli(tmp_path):
    out = tmp_path / "traj.csv"
    assert run(["jj-evolve", "--e-c", "0.2", "--lam", "0.1", "--n-total", "40",
                "--n-bar1", "20", "--phi0", "3.0915926", "--horizon", "4.0",
                "--dt", "0.01", "--out", str(out)]) == 0
    rows, header = reports.load_report(str(out))
    assert list(rows[0].keys()) == ["time", "n1", "phi", "norm_drift",
                                    "energy", "fidelity"]
    assert all(r["fidelity"] >= 1 - 1e-6 for r in rows)
    assert header["config"]["model"] == "mean_field"


def test_jj_evolve_exact_model(tmp_path):
    out = tmp_path / "traj.csv"
    assert run(["jj-evolve", "--e-c", "1.0", "--lam", "0.5", "--n-total", "12",
                "--model", "bose_hubbard", "--n0", "8", "--horizon", "3.0",
                "--dt", "0.05", "--out", str(out)]) == 0
    rows, _ = reports.load_report(str(out))
    assert all(abs(r["norm_drift"]) <= 1e-9 for r in rows)
    energies = [r["energy"] for r in rows]
    assert max(abs(e - energies[0]) for e in energies) <= 1e-8 * abs(energies[0])


def test_jj_evolve_dt_sets_the_outputs_not_the_accuracy(tmp_path):
    # --dt 1.0 is 142 times the self-consistent step cap 0.01 / rate; the
    # run cuts each output spacing into steps, so its outputs are those of
    # the --dt 0.005 run, where once they missed them by 4.78 in n1
    argv = ["jj-evolve", "--model", "mean_field", "--n-total", "200", "--e-c", "0.2",
            "--lam", "0.1", "--n0", "101", "--phi0", "0.5", "--horizon", "10"]
    coarse, fine = tmp_path / "coarse.csv", tmp_path / "fine.csv"
    assert run(argv + ["--dt", "1.0", "--out", str(coarse)]) == 0
    assert run(argv + ["--dt", "0.005", "--out", str(fine)]) == 0
    coarse, fine = reports.load_report(str(coarse))[0], reports.load_report(str(fine))[0]
    assert (len(coarse), len(fine)) == (11, 2001)
    shared = fine[::200]
    assert [r["time"] for r in coarse] == [r["time"] for r in shared]
    assert max(abs(a["n1"] - b["n1"]) for a, b in zip(coarse, shared)) <= 1e-9
    assert max(r["n1"] for r in fine) - min(r["n1"] for r in fine) > 20.0


def test_self_trapped_jj_evolve_steps_by_its_charging_field(tmp_path):
    # E_C |n1 - nbar1| = 400 turns the Bloch vector about z 40 times faster
    # than the rate 1 / 0.01 the default --dt is cut by, so the step must
    # follow the field; steps of 4 rad once put n1 3.7e-6 off
    argv = ["jj-evolve", "--n-total", "1000", "--e-c", "1", "--lam", "0.001",
            "--n0", "900", "--phi0", "0.3", "--horizon", "4"]
    coarse, fine = tmp_path / "coarse.csv", tmp_path / "fine.csv"
    assert run(argv + ["--out", str(coarse)]) == 0
    assert run(argv + ["--dt", "0.0005", "--out", str(fine)]) == 0
    coarse, fine = reports.load_report(str(coarse))[0], reports.load_report(str(fine))[0]
    assert (len(coarse), len(fine)) == (401, 8001)
    shared = fine[::20]
    assert [r["time"] for r in coarse] == [r["time"] for r in shared]
    assert max(abs(a["n1"] - b["n1"]) for a, b in zip(coarse, shared)) <= 1e-8
    assert max(r["n1"] for r in fine) - min(r["n1"] for r in fine) > 1e-3


def test_fluctuations_cli(tmp_path):
    out = tmp_path / "fluct.csv"
    assert run(["fluctuations", "--n-bar1-values", "25,100,400", "--p", "0.5",
                "--out", str(out)]) == 0
    rows, header = reports.load_report(str(out))
    assert [r["n_bar1"] for r in rows] == [25.0, 100.0, 400.0]
    exps = header["fitted_exponents"]
    assert exps["number"] == pytest.approx(1.0, abs=1e-6)
    assert exps["phase"] == pytest.approx(-0.5, abs=0.05)


def test_fluctuations_cli_runs_far_beyond_a_stored_state(tmp_path):
    # closed forms: N up to 2e12 costs what N = 2e3 costs
    out = tmp_path / "fluct.csv"
    start = time.perf_counter()
    assert run(["fluctuations", "--n-bar1-values", "1e3,1e6,1e9,1e12",
                "--out", str(out)]) == 0
    assert time.perf_counter() - start < 1.0
    exps = reports.load_report(str(out))[1]["fitted_exponents"]
    assert exps["number"] == pytest.approx(1.0, abs=1e-6)
    assert exps["phase"] == pytest.approx(-0.5, abs=1e-4)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_compare_writes_an_undefined_phase_as_null(tmp_path, fmt):
    # lam = 0 from a Fock state: no coherence, so max |phi_exact - phi_mf| is NaN
    out = tmp_path / f"cmp.{fmt}"
    assert run(["compare", "--n-total", "4", "--e-c", "1", "--lam", "0", "--n0", "0",
                "--horizon", "1", "--format", fmt, "--out", str(out)]) == 0
    _, header = reports.load_report(str(out))
    assert header["max_divergence"] == {"n1": 0.0, "phi": None}

    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    text = out.read_text()
    if fmt == "csv":
        line = next(x for x in text.splitlines() if x.startswith("# max_divergence: "))
        text = line.removeprefix("# max_divergence: ")
    json.loads(text, parse_constant=refuse)


def test_compare_cli_defaults(tmp_path):
    out = tmp_path / "cmp.csv"
    assert run(["compare", "--n-total", "4", "--e-c", "10", "--lam", "1",
                "--out", str(out)]) == 0
    rows, header = reports.load_report(str(out))
    assert header["max_divergence"]["n1"] > 0.1
    # regression value frozen from the dense-diagonalization reference run
    assert header["max_divergence"]["n1"] == pytest.approx(0.453920655702984,
                                                           abs=1e-6)
    assert rows[0]["div_n1"] <= 1e-12
    assert list(rows[0].keys())[0] == "time"
    # repeatable byte-for-byte
    out2 = tmp_path / "cmp2.csv"
    assert run(["compare", "--n-total", "4", "--e-c", "10", "--lam", "1",
                "--out", str(out2)]) == 0
    assert out.read_bytes() == out2.read_bytes()


def test_cli_rejects_bad_values(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert run(["fluctuations", "--n-bar1-values", "25,100,400", "--p", "1.5",
                "--out", str(out)]) == 1
    assert "p must be in" in capsys.readouterr().err
