"""Reproducible experiment runner.

Each subcommand declares its parameters once, in a table of `Param` entries
that yields its flags, its --config keys and its echoed configuration;
every parameter but --workers moves some number of the report.  All
randomness derives from --seed through the fixed fan-out mix, so a report
is byte-identical across repeats and --workers settings.  Only the
sampling subcommands (bound-check, neg-sweep, tomography) take a seed; the
junction subcommands are deterministic.

Exit codes: 0 success; 1 usage, domain or configuration error; 2 a bound
or invariant violated by a sampled state, which would falsify the
implementation rather than the run.  Exit 1 writes one stderr line,
``error: ...``; else each distinct warning is one line, ``warning: ...``.

A subcommand imports the beamlab modules it runs when it runs, so
`import beamlab.cli` loads only `reports`, `seeding` and `errors`:
`entanglement` for bound-check and neg-sweep, `polarization` for
tomography, `jj` and `dynamics` (with `fock`) for the junction commands,
and `multiprocessing` only when a pool is made.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from collections.abc import Callable
from dataclasses import dataclass

# After each threaded call an idle OpenBLAS thread busy-waits for
# 2^OPENBLAS_THREAD_TIMEOUT cycles before it sleeps: by default 2^28, about
# 0.1 s, a third to a half of the CPU time of a CLI run, for no wall time.
# 2^20 is under 1 ms.  The thread count, and so every report, is unchanged,
# and a value the user set wins.  OpenBLAS reads it when numpy loads.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "20")

import numpy as np  # noqa: E402

from . import reports
from .errors import BeamlabError
from .seeding import child_seed

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VIOLATION = 2


def _flag_value(text: str):
    """Flag text as the JSON value it spells: a number, true/false or a string.
    (argparse hands the text "--" over as an empty list, kept as it is.)"""
    for convert in (int, float):
        try:
            return convert(text)
        except (TypeError, ValueError):
            pass
    return {"true": True, "false": False}.get(str(text).lower(), text)


def _integer(value) -> int:
    if isinstance(value, bool) or not (isinstance(value, int) or (
            isinstance(value, float) and value.is_integer())):
        raise ValueError("must be an integer")
    return int(value)


def _number(value) -> float:
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value)):
        raise ValueError("must be a finite number")
    return float(value)


def _one_of(*options):
    def check(value):       # by type too: 1 is not true
        if not any(type(value) is type(o) and value == o for o in options):
            raise ValueError("must be " + " or ".join(map(json.dumps, options)))
        return value
    return check


def _numbers(value) -> list[float]:
    if not isinstance(value, list):
        try:
            value = [float(v) for v in str(value).split(",")]
        except ValueError:
            raise ValueError("must be a list or comma-separated numbers") from None
    return [_number(v) for v in value]


def _complex_matrix(value) -> np.ndarray:
    try:
        return np.array([[complex(_number(x), _number(y)) for x, y in row]
                         for row in value])
    except (TypeError, ValueError):
        raise ValueError("must be a matrix of [re, im] pairs, "
                         "e.g. [[[1,0],[0,0]], [[0,0],[0,0]]]") from None


def _stokes(value) -> polarization.StokesVector:
    from . import polarization
    if not (isinstance(value, dict) and "i" in value and set(value) <= set("imcs")):
        raise ValueError("must be an object with key 'i' and optional 'm', 'c', 's'")
    given = {k: _number(v) for k, v in value.items()}
    return polarization.StokesVector(**({"m": 0.0, "c": 0.0, "s": 0.0} | given))


def _device_maps(value) -> list[polarization.DeviceMap]:
    from . import polarization
    if not (isinstance(value, list) and all(
            isinstance(spec, dict) and set(spec) == {"kraus"}
            and isinstance(spec["kraus"], list) for spec in value)):
        raise ValueError('must be a list of {"kraus": [matrix, ...]} objects')
    return [polarization.DeviceMap(tuple(_complex_matrix(k) for k in spec["kraus"]))
            for spec in value]


REQUIRED = object()


@dataclass(frozen=True)
class Param:
    """One parameter of one subcommand: flag --name-with-dashes, config key name.

    `check` takes a JSON value (a config entry, or flag text read by
    `_flag_value`) and returns the typed value, raising ValueError that says
    what the value must be.  `default` is a value, None (optional), REQUIRED,
    or a function of the values resolved before it, whose result is checked
    as a given value is.  `interval` bounds the value, e.g. "[1, inf)"; an
    end may name a parameter resolved before it, e.g. "[0, n_total]".
    `source` "flag" marks an execution detail, which is not echoed, and
    "config" a structured scene value, echoed as the JSON the file gave.
    """

    name: str
    check: Callable
    default: object
    help: str
    interval: str | None = None
    source: str = "both"


def _inside(value: float, interval: str, values: dict) -> bool:
    lo, hi = (float(values.get(end.strip(), end)) for end in interval[1:-1].split(","))
    above = lo < value if interval[0] == "(" else lo <= value
    below = value < hi if interval[-1] == ")" else value <= hi
    return above and below


def _load_config_file(path: str, allowed: set[str]) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise BeamlabError(
            f"{path}:{exc.lineno}:{exc.colno}: malformed JSON: {exc.msg}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise BeamlabError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise BeamlabError(f"{path}: config must be a JSON object")
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise BeamlabError(f"{path}: unknown config keys: {', '.join(unknown)}")
    return data


def resolve(table: tuple[Param, ...], args) -> tuple[dict, dict]:
    """Validated values for every parameter in `table`: flag, else config
    file, else default; and the run's configuration echo.  A JSON null
    counts as not given.  An error names the flag or config key, or says
    that the value was derived."""
    file = {}
    if args.config:
        file = _load_config_file(
            args.config, {p.name for p in table if p.source != "flag"})
    values = {}
    for p in table:
        flag = getattr(args, p.name, None)
        raw = file.get(p.name) if flag is None else flag
        if raw is None and p.default is REQUIRED:
            raise BeamlabError(f"missing required parameter '{p.name}'")
        if raw is None and not callable(p.default):
            values[p.name] = p.default
            continue
        derived = raw is None
        if derived:
            raw = p.default(values)
        dashed = "--" + p.name.replace("_", "-")
        where = f"{args.config}: {p.name}" if flag is None else dashed
        try:
            value = p.check(raw if flag is None else _flag_value(flag))
            if p.interval and not _inside(value, p.interval, values):
                raise ValueError(f"must be in {p.interval}")
        except (ValueError, OverflowError) as exc:
            if derived:
                raise BeamlabError(f"{dashed} was not given, and its derived "
                                   f"value {raw!r} {exc}") from None
            raise BeamlabError(f"{where} {exc}, got {raw!r}") from None
        values[p.name] = value
    echo = {p.name: values[p.name] if p.source == "both" else file[p.name]
            for p in table if p.source == "both" or file.get(p.name) is not None}
    return values, echo


COMMANDS = {}


def command(name: str, help_text: str, table: tuple[Param, ...]):
    """Register a function of the resolved arguments returning (columns, extra)."""
    def register(run):
        COMMANDS[name] = (run, table, help_text)
        return run
    return register


# -- bound-check / neg-sweep ---------------------------------------------------


def _bound_chunk(task):
    from . import entanglement
    seed, start, stop, cutoff, photons = task
    return entanglement.bound_rows(seed, range(start, stop), cutoff, photons)


START_METHOD = "fork" if sys.platform == "linux" else "spawn"


def get_context(method=None):
    """`multiprocessing.get_context`, loaded when the first pool is made."""
    from multiprocessing import get_context as context
    return context(method)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _parallel_bound_rows(rows, seed, cutoff, photons, workers):
    """Fill `rows`, a ROW array, with `bound_rows(seed, range(len(rows)),
    cutoff, photons)`, split into `workers` contiguous tasks mapped over a
    pool of at most one process per usable CPU; each task sends back its
    rows as one record array, which is copied into place and let go before
    the next.

    Each row draws from its own `rng_for(seed, index)`, so the rows do not
    depend on the split or on the process that computes them, and the
    report is byte-identical at every --workers.  On Linux the pool forks
    the CLI process just after it has loaded `numpy.random` and built the
    run's layout, so its workers start with numpy, `numpy.random`, the layout
    and the beamlab modules of the run (`cli`, `errors`, `reports`,
    `seeding`, `fock`, `entanglement`), and a task loads and builds
    nothing.  A spawned worker imports them afresh, which costs more than
    its share of a neg-sweep pool's work.  Elsewhere, where fork is missing
    or unsafe, the pool spawns.  No process of these runs loads scipy.
    """
    from . import entanglement
    samples = len(rows)
    if workers <= 1 or samples < 2 * workers:
        entanglement.bound_rows(seed, range(samples), cutoff, photons, out=rows)
        return
    bounds = [i * samples // workers for i in range(workers + 1)]
    tasks = [(seed, a, b, cutoff, photons) for a, b in zip(bounds, bounds[1:])]
    entanglement.prepare_bound_rows(cutoff)
    with get_context(START_METHOD).Pool(min(workers, _usable_cpus())) as pool:
        parts = pool.map(_bound_chunk, tasks)
    for _, start, stop, _, _ in tasks:
        rows[start:stop] = parts.pop(0)


def _report(rows: np.ndarray) -> dict:
    """The report columns of `bound_rows` records: their fields, as views."""
    return {name: rows[name] for name in rows.dtype.names}


# child_seed reduces a seed mod 2^64: one outside would repeat another's rows
SEED = Param("seed", _integer, REQUIRED, "master seed for the run",
             "[0, 18446744073709551616)")
WORKERS = Param("workers", _integer, 1, "worker tasks, at most one process per CPU",
                "[1, inf)", source="flag")


@command("bound-check", "negativity bound over Haar-random states", (
    SEED,
    Param("samples", _integer, 1000, "Haar-random pure states", "[1, inf)"),
    Param("cutoff", _integer, 2, "photon-number cutoff per mode", "[1, inf)"),
    Param("mixtures", _integer, 0, "two-component mixtures", "[0, inf)"),
    WORKERS,
))
def run_bound_check(args):
    from . import entanglement
    for count in (args.mixtures, args.samples):
        entanglement.check_sample_work(count, args.cutoff)
    rows = np.empty(args.samples + args.mixtures, entanglement.ROW)
    _parallel_bound_rows(rows[:args.samples], args.seed, args.cutoff, None, args.workers)
    mixtures = range(args.samples, args.samples + args.mixtures)
    rows[args.samples:] = entanglement.mixture_rows(args.seed, mixtures, args.cutoff)
    return _report(rows), None


@command("neg-sweep", "max negativity vs photons per beam (k = 1..k_max)", (
    SEED,
    Param("samples", _integer, 200, "random-search samples per k", "[1, inf)"),
    Param("k_max", _integer, 10, "largest photon number per beam", "[1, inf)"),
    WORKERS,
))
def run_neg_sweep(args):
    from . import entanglement
    entanglement.check_sample_work(args.samples, args.k_max)     # the largest k
    rows = np.empty(args.samples * args.k_max, entanglement.ROW)
    for k in range(1, args.k_max + 1):
        _parallel_bound_rows(rows[(k - 1) * args.samples:k * args.samples],
                             child_seed(args.seed, k), k, k, args.workers)
    return _report(rows), None


@command("tomography", "simulated Stokes tomography", (
    Param("seed", _integer, REQUIRED, "shot-noise seed", "[0, inf)"),
    Param("shots", _integer, 10000, "shots per measurement basis", "[1, inf)"),
    Param("noise", _one_of(True, False), True, "add shot noise: true or false"),
    Param("stokes", _stokes, None, "", source="config"),
    Param("omega", _complex_matrix, None, "", source="config"),
    Param("device_maps", _device_maps, (), "", source="config"),
))
def run_tomography(args):
    from . import polarization
    if (args.omega is None) == (args.stokes is None):
        raise BeamlabError("scene must provide exactly one of 'omega' and 'stokes'")
    omega = (polarization.stokes_to_omega(args.stokes) if args.omega is None
             else polarization.CorrelationMatrix2(args.omega))
    for device in args.device_maps:
        omega = polarization.apply_device_map(omega, device)
    result = polarization.tomography_simulate(omega, args.shots, args.seed,
                                              noise=args.noise)
    return {"component": list("imcs"), "estimate": result.estimate,
            "standard_error": result.standard_errors,
            "true_value": result.true_values}, None


# -- dynamics subcommands --------------------------------------------------------


def _jj_params(v: dict) -> jj.JJParams:
    from . import jj
    return jj.JJParams(**{p.name: v[p.name] for p in JUNCTION})


def _rate(v: dict, flag: str) -> float:
    """The junction's time scale, plasma frequency or tunneling rate, from
    which the default of `flag` is derived."""
    from . import jj
    params = _jj_params(v)
    with np.errstate(over="ignore"):
        rate = max(jj.derived_constants(params).omega, abs(params.lam), 1e-12)
    if not math.isfinite(rate):
        raise BeamlabError(f"{flag} was not given, and the junction rate it is "
                           "derived from is infinite at these --e-c and --lam")
    return rate


JUNCTION = (
    Param("e_c", _number, REQUIRED, "charging energy E_C", "[0, inf)"),
    Param("lam", _number, REQUIRED, "tunneling amplitude"),
    Param("n_total", _integer, REQUIRED, "total pair number N", "[1, inf)"),
    Param("n_bar1", _number, lambda v: v["n_total"] / 2.0, "background pairs (N/2)"),
)


@command("jj-evolve", "one junction trajectory", (
    Param("model", _one_of("mean_field", "bose_hubbard"), "mean_field",
          "junction model"),
    *JUNCTION,
    Param("n0", _number, lambda v: v["n_bar1"], "initial pairs on electrode 1",
          "[0, n_total]"),
    Param("phi0", _number, 0.0, "phase label of the initial product state"),
    Param("horizon", _number, lambda v: 10.0 / _rate(v, "--horizon"), "end time",
          "[0, inf)"),
    Param("dt", _number, lambda v: 0.01 / _rate(v, "--dt"), "output spacing",
          "(0, inf)"),
))
def run_jj_evolve(args):
    from . import dynamics, jj
    params = _jj_params(vars(args))
    initial = jj.product_state(params.n_total, args.n0, args.phi0,
                               jj.sector_space(params))
    evolve = (dynamics.evolve_meanfield if args.model == "mean_field"
              else dynamics.evolve_exact)
    return evolve(initial, params, args.horizon, args.dt).columns(), None


@command("pendulum", "classical pendulum trajectory", (
    Param("phi0", _number, 0.0, "initial phase"),
    Param("phidot0", _number, 0.0, "initial phase velocity"),
    Param("omega", _number, REQUIRED, "plasma frequency"),
    Param("horizon", _number, lambda v: 10.0 / (abs(v["omega"]) or 1.0), "end time",
          "[0, inf)"),
    Param("dt", _number, lambda v: 0.01 / (abs(v["omega"]) or 1.0), "output spacing",
          "(0, inf)"),
    Param("e_c", _number, None, "charging energy, with --n-bar1 to reconstruct n1",
          "[0, inf)"),
    Param("n_bar1", _number, None, "background pairs, with --e-c to reconstruct n1"),
))
def run_pendulum(args):
    from . import dynamics
    traj = dynamics.pendulum_trajectory(args.phi0, args.phidot0, args.omega,
                                        args.horizon, args.dt, e_c=args.e_c,
                                        n_bar1=args.n_bar1)
    return traj.columns(), None


@command("fluctuations", "number/phase fluctuation scaling scan", (
    Param("n_bar1_values", _numbers, REQUIRED, "comma-separated background pairs"),
    Param("p", _number, 0.5, "filling n_bar1/N held fixed", "(0, 1)"),
))
def run_fluctuations(args):
    from . import dynamics, fock, jj
    params_list = []
    for nb in args.n_bar1_values:   # closed forms: only the float range bounds N
        fock.check_work(nb / args.p, sys.float_info.max, "n_total = n_bar1 / p")
        n_total = int(round(nb / args.p))
        if not 0 < nb < n_total:
            raise BeamlabError(f"--n-bar1-values entry {nb!r} gives N = round(n_bar1 "
                               f"/ p) = {n_total} pairs, and needs 0 < n_bar1 < N")
        # product-state statistics depend on N and n_bar1 alone, not on E_C or lam
        params_list.append(jj.JJParams(e_c=0.0, lam=0.0, n_total=n_total, n_bar1=nb))
    report = dynamics.fluctuation_scan(params_list)
    number, phase = report.fitted_exponents
    return report.columns(), {"fitted_exponents": {"number": number, "phase": phase}}


@command("compare", "exact vs self-consistent vs pendulum", (
    *JUNCTION,
    Param("n0", _number, lambda v: v["n_bar1"] + 1.0, "initial pairs on electrode 1",
          "[0, n_total]"),
    Param("phi0", _number, 0.0, "initial displacement from the locked phase"),
    Param("horizon", _number, lambda v: 20.0 / _rate(v, "--horizon"), "end time",
          "(0, inf)"),
))
def run_compare(args):
    from . import dynamics
    record = dynamics.model_compare(_jj_params(vars(args)), args.n0, args.phi0,
                                    args.horizon)
    return record.columns(), {"max_divergence": {"n1": record.max_div_n1,
                                                 "phi": record.max_div_phi}}


class _Parser(argparse.ArgumentParser):
    """Usage errors raise, so they exit 1 with one line like any other error.
    Text that `_flag_value` reads as a number is a value, so `--lam -1e-3`
    parses as `--lam=-1e-3` does; argparse alone reads only forms like -1
    and -.5 as numbers."""

    def error(self, message):
        raise BeamlabError(message)

    def _parse_optional(self, arg_string):
        if isinstance(_flag_value(arg_string), (int, float)):
            return None
        return super()._parse_optional(arg_string)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="beamlab", description="Bosonic two-beam polarization "
                     "and Josephson-junction numerical experiments")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (run, table, help_text) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file (flags override it)")
        p.add_argument("--out", required=True, help="report output path")
        p.add_argument("--format", choices=["csv", "json"], default="csv")
        for param in table:
            if param.source != "config":
                p.add_argument("--" + param.name.replace("_", "-"), dest=param.name,
                               help=f"{param.help} {param.interval or ''}")
        p.set_defaults(func=run, table=table)
    return parser


def main(argv=None) -> int:
    with warnings.catch_warnings(record=True) as caught:
        try:
            args = build_parser().parse_args(argv)
            values, echo = resolve(args.table, args)
            vars(args).update(values)
            columns, extra = args.func(args)
            config = {"subcommand": args.subcommand, **echo, "format": args.format}
            reports.emit_report(columns, args.format, args.out, config, extra)
        except BeamlabError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_ERROR
    for message in dict.fromkeys(str(w.message) for w in caught):
        print(f"warning: {message}", file=sys.stderr)
    if False in columns.get("satisfied", ()):
        return EXIT_VIOLATION
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
