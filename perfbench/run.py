#!/usr/bin/env python3
"""beamlab benchmark: fixed-size CLI workloads, timed end to end and traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it needs ``src/beamlab``).

A workload is a few steps, each one CLI command (see ``workloads.py``).
``--trace 0`` repeats the workload's steps as ``python -m beamlab.cli``
subprocesses of ``src/`` for about S seconds and reports the end-to-end
metrics.  ``--trace 1`` runs the same commands in-process, alternately
with and without the outside-in wrappers of ``spans.py``, and reports
per-layer metrics.  Every report is checked; a repetition whose report
fails its step's check, or whose bytes differ from the run's first report
of that step, counts as failed.  The last stdout line is the JSON result;
earlier lines record the machine and each repetition.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from multiprocessing import resource_tracker
from pathlib import Path

import spans
from workloads import WORKLOADS, check_report

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 120
# Host-speed probe.  This host's CPU speed switches between modes about
# 1.45 times apart, over seconds to minutes, so raw times of whole runs
# differ by up to a third.  A fixed pure-Python loop that touches no beamlab
# code is timed before every child process; the time metrics are scaled by
# PROBE_REFERENCE_S / (the run's median probe time), which reports them in
# seconds at the speed where the probe takes PROBE_REFERENCE_S.
PROBE_LOOPS = 1_000_000
PROBE_REFERENCE_S = 0.1
SCALED = ("wall_s", "cpu_s", "setup_s")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "pass_ratio": "ratio", "parallel_speedup": "ratio"}

MACHINE_PROBE = """
import json, numpy, scipy
def blas(mod):
    try:
        dep = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{dep['name']} {dep['version']}"
    except Exception as exc:
        return f"unknown ({type(exc).__name__})"
print(json.dumps({"numpy": numpy.__version__, "scipy": scipy.__version__,
                  "numpy_blas": blas(numpy), "scipy_blas": blas(scipy)}))
"""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def thread_env(workers: int) -> dict[str, str]:
    """BLAS/OpenMP threads per process, so that no run uses more threads
    than cores."""
    threads = str(max(1, nproc() // workers))
    return {var: threads for var in THREAD_VARS}


def child_env(workers: int) -> dict[str, str]:
    env = dict(os.environ)
    env.update(thread_env(workers))
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list[str], env: dict, log: Path) -> tuple[float, int, object]:
    """Run one child to completion: (wall seconds, exit code, rusage).

    The rusage from wait4 covers the child and every descendant it reaped,
    such as spawn-pool workers.
    """
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], env=env, cwd=ROOT,
                                stdin=subprocess.DEVNULL, stdout=fh, stderr=fh)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage


def probe() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i
    return time.perf_counter() - start


def machine_record(workers: tuple[int, ...], workdir: Path) -> dict:
    """Versions come from a child with the workload's environment, which
    also fills the bytecode cache before anything is timed."""
    log = workdir / "machine.log"
    _, code, _ = spawn(["-c", "import beamlab.cli\n" + MACHINE_PROBE],
                       child_env(workers[0]), log)
    text = log.read_text()
    versions = json.loads(text.splitlines()[-1]) if code == 0 else {"error": text}
    return {"nproc": nproc(), "python": platform.python_version(), **versions,
            "threads_per_process": {w: thread_env(w)[THREAD_VARS[0]]
                                    for w in workers},
            "loadavg": os.getloadavg()}


class Tally:
    """Repetitions attempted and failed; a report must pass its step's check
    and match, byte for byte, the run's first report of that step."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first_digest = {}

    def record(self, step, label: str, exit_code: int, report: Path) -> None:
        self.attempted += 1
        problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
        digest = "-"
        if report.exists():
            digest, found = check_report(step, str(report))
            problems += found
            first = self.first_digest.setdefault(step.name, digest)
            if digest != first:
                problems.append("report bytes differ from the run's first report")
            report.unlink()
        elif exit_code == 0:
            problems.append("no report written")
        if problems:
            self.failed += 1
        print(f"{label} sha256={digest} "
              f"{'ok' if not problems else 'FAILED: ' + '; '.join(problems)}",
              flush=True)


def result_line(tally: Tally, metrics: dict[str, tuple[float, str]]) -> str:
    return json.dumps({
        "correct": tally.attempted > 0 and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def end_to_end(workload, seed: int, seconds: float, workdir: Path) -> str:
    deadline = time.perf_counter() + seconds
    settings = workload.worker_settings
    print("machine:", json.dumps(machine_record(settings, workdir)), flush=True)
    env = {w: child_env(w) for w in settings}
    setup_env = env[workload.steps[0].worker_settings[0]]

    probes = []

    def set_up() -> float:
        probes.append(probe())
        return spawn(["-c", "import beamlab.cli"], setup_env,
                     workdir / "setup.log")[0]

    tally = Tally()
    setup, walls, cpus, rss, speedups, rep_times = [], [], [], [], [], []
    rep = 0
    # Start another repetition only while a whole one still fits, so that
    # a run ends by its deadline.
    while not rep_times or (time.perf_counter() + statistics.median(rep_times)
                            <= deadline):
        began = time.perf_counter()
        # One set-up sample per repetition, as the machine's speed drifts
        # within a run.
        setup.append(set_up())
        wall = cpu = peak = 0.0
        for step in workload.steps:
            measured = step.worker_settings[0]
            # Alternate which worker setting goes first, so neither always
            # runs on a machine the other just warmed.
            order = step.worker_settings[::1 if rep % 2 == 0 else -1]
            wall_of = {}
            for w in order:
                report = workdir / f"report-{w}.csv"
                probes.append(probe())
                wall_of[w], code, usage = spawn(
                    ["-m", "beamlab.cli", *step.argv(seed, w, str(report))],
                    env[w], workdir / "cli.log")
                used = usage.ru_utime + usage.ru_stime
                peak = max(peak, usage.ru_maxrss / 1024.0)
                if w == measured:
                    wall += wall_of[w]
                    cpu += used
                tally.record(step, f"rep {rep} {step.name} workers={w} "
                             f"wall_s={wall_of[w]:.4f} cpu_s={used:.4f} "
                             f"maxrss_mb={usage.ru_maxrss / 1024.0:.1f}",
                             code, report)
            if len(order) > 1:
                serial = step.worker_settings[-1]
                speedups.append(wall_of[serial] / wall_of[measured])
        walls.append(wall)
        cpus.append(cpu)
        rss.append(peak)
        rep_times.append(time.perf_counter() - began)
        rep += 1
    while len(setup) < SETUP_REPEATS:
        setup.append(set_up())
    print("setup_s:", " ".join(f"{s:.4f}" for s in setup), flush=True)
    print(f"fail_ratio: {tally.failed / tally.attempted} ({tally.failed} of "
          f"{tally.attempted} repetitions)", flush=True)

    values = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(rss),
        "pass_ratio": (tally.attempted - tally.failed) / tally.attempted,
        # 1 by definition on a workload whose steps all run on one worker.
        "parallel_speedup": statistics.median(speedups) if speedups else 1.0,
    }
    scale = PROBE_REFERENCE_S / statistics.median(probes)
    print("unscaled:", json.dumps({k: values[k] for k in SCALED}),
          f"probe_s: median {statistics.median(probes):.4f} of {len(probes)},",
          f"min {min(probes):.4f}, max {max(probes):.4f}; scale {scale:.4f}",
          flush=True)
    values.update({k: values[k] * scale for k in SCALED})
    return result_line(tally, {k: (v, END_TO_END[k]) for k, v in values.items()})


def per_layer(workload, seed: int, seconds: float, workdir: Path) -> str:
    deadline = time.perf_counter() + seconds
    settings = workload.worker_settings
    # This process computes serially; its BLAS threads must be fixed before
    # numpy loads.
    os.environ.update(thread_env(1))
    sys.path.insert(0, str(SRC))
    import beamlab.cli

    print("machine:", json.dumps(machine_record(settings, workdir)), flush=True)
    tally = Tally()

    def run_once(recorder=None) -> float:
        """One in-process run of every step at every worker setting;
        returns its wall time."""
        began = time.perf_counter()
        for step in workload.steps:
            for w in step.worker_settings:
                report = workdir / f"report-{w}.csv"
                # Spawned pool workers read their thread settings at start-up.
                os.environ.update(thread_env(w))
                idx = recorder.open("cli.main") if recorder else None
                try:
                    code = beamlab.cli.main(step.argv(seed, w, str(report)))
                except Exception as exc:  # a crash is a failed repetition
                    print(f"in-process run raised {type(exc).__name__}: {exc}")
                    code = -1
                finally:
                    if recorder:
                        recorder.close(idx)
                tally.record(step, f"{'traced' if recorder else 'plain'} "
                             f"{step.name} workers={w}", code, report)
        os.environ.update(thread_env(1))
        return time.perf_counter() - began

    plain, traced, layers = [], [], []
    pair = 0
    while not traced or time.perf_counter() + statistics.median(
            p + t for p, t in zip(plain, traced)) <= deadline:
        recorder = spans.Recorder()
        for wrapped in ((False, True) if pair % 2 == 0 else (True, False)):
            if not wrapped:
                plain.append(run_once())
                continue
            uninstall = spans.install(recorder)
            try:
                traced.append(run_once(recorder))
            finally:
                uninstall()
        print(f"pair {pair} plain_s={plain[-1]:.4f} traced_s={traced[-1]:.4f} "
              f"spans={len(recorder.spans)}", flush=True)
        layers.append(spans.layer_metrics(recorder.spans))
        pair += 1

    # An in-process spawn pool started multiprocessing's resource tracker;
    # stop it and wait for it, so that no process outlives the run.
    resource_tracker._resource_tracker._stop()
    OUT_DIR.mkdir(exist_ok=True)
    spans.write_jsonl(recorder.spans, OUT_DIR / f"spans-{workload.name}.jsonl")
    metrics = {name: (value, spans.PER_LAYER[name][2])
               for name, value in spans.median_metrics(layers).items()}
    metrics[spans.OVERHEAD_METRIC[0]] = (
        statistics.median(traced) - statistics.median(plain),
        spans.OVERHEAD_METRIC[1])
    return result_line(tally, metrics)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "beamlab" / "cli.py").is_file():
        print(f"error: no beamlab sources under {SRC}", file=sys.stderr)
        return 1
    workload = WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-work-") as tmp:
        os.environ["TMPDIR"] = tmp      # keeps children's temp files in the checkout
        run = per_layer if args.trace else end_to_end
        line = run(workload, args.seed, args.seconds, Path(tmp))
    print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
