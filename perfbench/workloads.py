"""The benchmark's workloads and the correctness check every report passes.

Each step is one fixed-size ``beamlab`` CLI invocation, and a workload
runs its steps in turn.  ``beam`` runs ``bound-mix`` and ``bright-sweep``,
which sample random states and take the benchmark seed; ``junction`` runs
``plasma-compare`` and ``exact-evolve``, which are deterministic and take
none.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass
from typing import Callable

BOUND_COLUMNS = ("seed", "cutoff", "n_a", "n_b", "n_ab", "negativity",
                 "bound_exact", "bound_approx", "satisfied")
COMPARE_COLUMNS = ("time", "n1_exact", "n1_meanfield", "n1_pendulum",
                   "phi_exact", "phi_meanfield", "phi_pendulum", "div_n1",
                   "div_phi", "fidelity_exact")
TRAJECTORY_COLUMNS = ("time", "n1", "phi", "norm_drift", "energy", "fidelity")

NORM_DRIFT_MAX = 1e-9
ENERGY_DRIFT_MAX = 1e-8


def _all_satisfied(rows: list[dict]) -> list[str]:
    bad = sum(1 for r in rows if r["satisfied"] != "true")
    return [f"{bad} rows with satisfied != true"] if bad else []


def _fidelity_in_unit_interval(rows: list[dict]) -> list[str]:
    bad = sum(1 for r in rows if not 0.0 <= float(r["fidelity_exact"]) <= 1.0)
    return [f"{bad} rows with fidelity_exact outside [0, 1]"] if bad else []


def _exact_invariants(rows: list[dict]) -> list[str]:
    problems = []
    drift = max(float(r["norm_drift"]) for r in rows)
    if not drift <= NORM_DRIFT_MAX:
        problems.append(f"norm drift {drift:.3e} > {NORM_DRIFT_MAX}")
    e0 = float(rows[0]["energy"])
    rel = max(abs(float(r["energy"]) - e0) for r in rows) / abs(e0)
    if not rel <= ENERGY_DRIFT_MAX:
        problems.append(f"relative energy drift {rel:.3e} > {ENERGY_DRIFT_MAX}")
    return problems


@dataclass(frozen=True)
class Step:
    """One CLI invocation plus what its report must look like.

    ``workers`` lists the ``--workers`` settings run back to back in each
    repetition; the first is the measured one.  ``None`` means the
    subcommand has no ``--workers`` flag and runs serially.
    """

    name: str
    args: tuple[str, ...]
    seeded: bool
    workers: tuple[int, ...] | None
    rows: int
    columns: tuple[str, ...]
    invariants: Callable[[list[dict]], list[str]]

    @property
    def worker_settings(self) -> tuple[int, ...]:
        return self.workers or (1,)

    def argv(self, seed: int, workers: int, out: str) -> list[str]:
        argv = [*self.args, "--out", out]
        if self.seeded:
            argv += ["--seed", str(seed)]
        if self.workers is not None:
            argv += ["--workers", str(workers)]
        return argv


@dataclass(frozen=True)
class Workload:
    """Steps run one after another in every repetition.

    Two workloads of two steps each, rather than one workload per step,
    give each run more time, and so more work to take medians over, within
    the same total time for all runs.
    """

    name: str
    steps: tuple[Step, ...]

    @property
    def worker_settings(self) -> tuple[int, ...]:
        return tuple(sorted({w for s in self.steps for w in s.worker_settings}))


BOUND_MIX = Step("bound-mix",
                 ("bound-check", "--samples", "10000", "--cutoff", "3",
                  "--mixtures", "1000"),
                 seeded=True, workers=(1,), rows=11000, columns=BOUND_COLUMNS,
                 invariants=_all_satisfied)
BRIGHT_SWEEP = Step("bright-sweep",
                    ("neg-sweep", "--samples", "200", "--k-max", "10"),
                    seeded=True, workers=(2, 1), rows=2000,
                    columns=BOUND_COLUMNS, invariants=_all_satisfied)
PLASMA_COMPARE = Step("plasma-compare",
                      ("compare", "--n-total", "200", "--e-c", "0.2",
                       "--lam", "0.1", "--phi0", "0.05", "--horizon", "20"),
                      seeded=False, workers=None, rows=285,
                      columns=COMPARE_COLUMNS,
                      invariants=_fidelity_in_unit_interval)
EXACT_EVOLVE = Step("exact-evolve",
                    ("jj-evolve", "--model", "bose_hubbard", "--n-total",
                     "1999", "--e-c", "0.01", "--lam", "0.001",
                     "--dt", "0.2357"),
                    seeded=False, workers=None, rows=301,
                    columns=TRAJECTORY_COLUMNS, invariants=_exact_invariants)

WORKLOADS = {w.name: w for w in (
    Workload("beam", (BOUND_MIX, BRIGHT_SWEEP)),
    Workload("junction", (PLASMA_COMPARE, EXACT_EVOLVE)),
)}


def check_report(step: Step, path: str) -> tuple[str, list[str]]:
    """sha256 of the report file and the list of problems found in it."""
    with open(path, "rb") as fh:
        data = fh.read()
    digest = hashlib.sha256(data).hexdigest()
    lines = [ln for ln in data.decode().splitlines() if not ln.startswith("# ")]
    reader = csv.DictReader(lines)
    rows = list(reader)
    problems = []
    if tuple(reader.fieldnames or ()) != step.columns:
        problems.append(f"columns {reader.fieldnames} != {list(step.columns)}")
    elif len(rows) != step.rows:
        problems.append(f"{len(rows)} rows, expected {step.rows}")
    else:
        try:
            problems += step.invariants(rows)
        except ValueError as exc:       # an empty or non-numeric cell
            problems.append(f"unreadable value: {exc}")
    return digest, problems
