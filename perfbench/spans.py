"""Outside-in tracing of beamlab's layers for the benchmark's traced run.

Wrappers are installed from outside around public functions of the
``beamlab`` modules (and ``multiprocessing.get_context`` as ``beamlab.cli``
binds it, for pool spans); nothing under ``src/`` changes.  Each call
records a span (name, parent, start, end, counters) in memory.  A span's
self time is its duration minus the part of its interval that its child
spans cover.  Spans inside spawned pool workers are not recorded.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    parent: int
    start: float
    end: float = 0.0
    counters: dict = field(default_factory=dict)


class Recorder:
    """In-memory span list; the parent of a new span is the innermost open one."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._clock = clock

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append(Span(name, self._open[-1] if self._open else -1,
                               self._clock()))
        self._open.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = self._clock()
        self._open.pop()

    def wrap(self, name: str, fn, counters=None):
        """`fn` recording one span per call; `counters(args, kwargs, result)`
        runs after the span ends and returns the span's counters."""
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if counters is not None:
                self.spans[idx].counters = counters(args, kwargs, result)
            return result
        return traced


def self_times(spans: list[Span]) -> list[float]:
    """Per span: duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append(s)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for c in sorted(children[i], key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


def aggregate(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, self_s, total_s and the sum of each counter."""
    agg: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
    for s, own in zip(spans, self_times(spans)):
        a = agg[s.name]
        a["calls"] += 1
        a["self_s"] += own
        a["total_s"] += s.end - s.start
        for key, value in s.counters.items():
            a[key] = a.get(key, 0) + value
    return agg


# -- what is wrapped ----------------------------------------------------------


def _gamma_bytes(args, kwargs, result):
    # Computed, not measured: the state columns read, the four lowered-state
    # arrays of the same shape the Gram contraction reads, and the outputs.
    psi = args[1] if len(args) > 1 else kwargs["psi"]
    gammas, n_a, n_b, n_ab = result
    return {"bytes": 5 * psi.nbytes + gammas.nbytes + 3 * n_a.nbytes}


def _report_bytes(args, kwargs, result):
    path = args[2] if len(args) > 2 else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


# (module, attribute path, counters).  The span is named
# "<module>.<attribute path>".
TARGETS = (
    ("seeding", "rng_for", None),
    ("entanglement", "BeamSampler.sample_states", None),
    ("entanglement", "BeamSampler.gammas_and_moments", _gamma_bytes),
    ("entanglement", "BeamSampler.pt_eigenvalues", None),
    ("entanglement", "bound_rows", None),
    ("entanglement", "gamma_from_state", None),
    ("entanglement", "bound_report", None),
    ("fock", "ladder_operator", None),
    ("fock", "tridiagonal_expm_apply", None),
    ("fock", "eigh_tridiagonal", None),
    ("fock", "evolve_unitary_sampled", None),
    ("jj", "binomial_weights", None),
    ("jj", "best_fit_product", None),
    ("jj", "coherence", None),
    ("dynamics", "evolve_meanfield", None),
    ("dynamics", "evolve_exact", None),
    ("dynamics", "pendulum_trajectory", None),
    ("reports", "emit_report", _report_bytes),
)

LAYER_MODULES = ("cli", "seeding", "entanglement", "fock", "jj", "dynamics",
                 "reports")

# per-layer metric -> (span name, aggregate field, unit)
PER_LAYER = {
    "cli.main.self_s": ("cli.main", "self_s", "s"),
    "cli.pool.count": ("cli.pool.start", "calls", "count"),
    "cli.pool.start_s": ("cli.pool.start", "self_s", "s"),
    "cli.pool.map_s": ("cli.pool.map", "self_s", "s"),
    "cli.pool.stop_s": ("cli.pool.stop", "self_s", "s"),
    "seeding.rng_for.calls": ("seeding.rng_for", "calls", "count"),
    "seeding.rng_for.self_s": ("seeding.rng_for", "self_s", "s"),
    "entanglement.BeamSampler.sample_states.self_s":
        ("entanglement.BeamSampler.sample_states", "self_s", "s"),
    "entanglement.BeamSampler.gammas_and_moments.self_s":
        ("entanglement.BeamSampler.gammas_and_moments", "self_s", "s"),
    "entanglement.BeamSampler.gammas_and_moments.bytes":
        ("entanglement.BeamSampler.gammas_and_moments", "bytes",
         "bytes-computed"),
    "entanglement.BeamSampler.pt_eigenvalues.self_s":
        ("entanglement.BeamSampler.pt_eigenvalues", "self_s", "s"),
    "entanglement.bound_rows.self_s": ("entanglement.bound_rows", "self_s", "s"),
    "entanglement.gamma_from_state.calls":
        ("entanglement.gamma_from_state", "calls", "count"),
    "entanglement.gamma_from_state.self_s":
        ("entanglement.gamma_from_state", "self_s", "s"),
    "entanglement.bound_report.self_s":
        ("entanglement.bound_report", "self_s", "s"),
    "fock.ladder_operator.calls": ("fock.ladder_operator", "calls", "count"),
    "fock.ladder_operator.self_s": ("fock.ladder_operator", "self_s", "s"),
    "fock.tridiagonal_expm_apply.calls":
        ("fock.tridiagonal_expm_apply", "calls", "count"),
    "fock.tridiagonal_expm_apply.self_s":
        ("fock.tridiagonal_expm_apply", "self_s", "s"),
    "fock.eigh_tridiagonal.calls": ("fock.eigh_tridiagonal", "calls", "count"),
    "fock.eigh_tridiagonal.self_s": ("fock.eigh_tridiagonal", "self_s", "s"),
    "fock.evolve_unitary_sampled.self_s":
        ("fock.evolve_unitary_sampled", "self_s", "s"),
    "jj.binomial_weights.calls": ("jj.binomial_weights", "calls", "count"),
    "jj.binomial_weights.self_s": ("jj.binomial_weights", "self_s", "s"),
    "jj.best_fit_product.self_s": ("jj.best_fit_product", "self_s", "s"),
    "jj.coherence.self_s": ("jj.coherence", "self_s", "s"),
    "dynamics.evolve_meanfield.total_s":
        ("dynamics.evolve_meanfield", "total_s", "s"),
    "dynamics.evolve_exact.self_s": ("dynamics.evolve_exact", "self_s", "s"),
    "dynamics.pendulum_trajectory.self_s":
        ("dynamics.pendulum_trajectory", "self_s", "s"),
    "reports.emit_report.self_s": ("reports.emit_report", "self_s", "s"),
    "reports.emit_report.bytes": ("reports.emit_report", "bytes", "bytes"),
}
OVERHEAD_METRIC = ("trace.overhead_s", "s")


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Every PER_LAYER metric of one traced run; absent spans read 0."""
    agg = aggregate(spans)
    return {metric: agg[span][key] if span in agg else 0
            for metric, (span, key, _) in PER_LAYER.items()}


class _TracedPool:
    def __init__(self, recorder: Recorder, pool):
        self._recorder, self._pool = recorder, pool

    def __enter__(self):
        self._pool.__enter__()
        return self

    def __exit__(self, *exc):
        idx = self._recorder.open("cli.pool.stop")
        try:
            return self._pool.__exit__(*exc)
        finally:
            self._recorder.close(idx)

    def map(self, *args, **kwargs):
        return self._recorder.wrap("cli.pool.map", self._pool.map)(*args, **kwargs)


class _TracedContext:
    def __init__(self, recorder: Recorder, ctx):
        self._recorder, self._ctx = recorder, ctx

    def Pool(self, *args, **kwargs):  # noqa: N802 - mirrors multiprocessing
        pool = self._recorder.wrap("cli.pool.start", self._ctx.Pool)(*args, **kwargs)
        return _TracedPool(self._recorder, pool)


def install(recorder: Recorder):
    """Wrap every target in place; returns a function that restores them.

    A function is rebound wherever a beamlab module holds it by name (for
    example ``rng_for`` imported into ``entanglement`` and ``cli``);
    methods are replaced on their class.
    """
    modules = {name: importlib.import_module(f"beamlab.{name}")
               for name in LAYER_MODULES}
    undo = []

    def rebind(owner, attr, new):
        undo.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, new)

    for mod_name, path, counters in TARGETS:
        span = f"{mod_name}.{path}"
        owner = modules[mod_name]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, staticmethod):
            rebind(owner, attr, staticmethod(recorder.wrap(span, raw.__func__,
                                                           counters)))
        elif inspect.isclass(owner):
            rebind(owner, attr, recorder.wrap(span, raw, counters))
        else:
            traced = recorder.wrap(span, raw, counters)
            for module in modules.values():
                for name, value in list(vars(module).items()):
                    if value is raw:
                        rebind(module, name, traced)

    cli = modules["cli"]
    get_context = cli.get_context
    rebind(cli, "get_context",
           lambda *a, **k: _TracedContext(recorder, get_context(*a, **k)))

    def uninstall():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)
    return uninstall


def write_jsonl(spans: list[Span], path) -> None:
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps({"name": s.name, "parent": s.parent,
                                 "start": s.start, "end": s.end,
                                 "counters": s.counters}) + "\n")


def median_metrics(runs: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]}
