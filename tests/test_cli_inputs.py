"""Every user input to the CLI either runs (exit 0) or exits 1 with exactly
one stderr line starting with ``error:``: no traceback, no silent coercion.

Sizes stay small so each generated run takes milliseconds: samples <= 3,
cutoff <= 2, k_max <= 2, n_total <= 12, horizon <= 1, workers 1.  Keys
whose default would make a run long (neg-sweep's k_max, the dynamics
horizons and steps) are always given, valid or not.
"""

import contextlib
import io
import json
import math
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from beamlab import cli, entanglement, reports

NAN, INF = math.nan, math.inf
PROJECTOR = [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]

INT_JUNK = [True, 1.5, "5", [1], {"a": 1}, NAN]
FLOAT_JUNK = [True, "1", NAN, INF, -INF, [0.5], {}]
# flag text that never reads as a number
JUNK_TEXT = st.text(alphabet="xe.-,_ ", max_size=4)


def key(valid, *bad, required=False, where=("config", "flag")):
    return valid, list(bad), required, where


def ints(lo, hi, *bad, **kw):
    return key(st.integers(lo, hi), *INT_JUNK, *bad, **kw)


def floats(lo, hi, *bad, **kw):
    return key(st.floats(lo, hi), *FLOAT_JUNK, *bad, **kw)


JUNCTION = {
    "e_c": floats(0, 2, -1.0),
    "lam": floats(-1, 1),
    "n_total": ints(2, 12, 0, -2),
    "n_bar1": floats(0.5, 1.5, 0.0, 20.0),
}
SPACE = {
    "bound-check": {
        "seed": ints(0, 5, -1),
        "samples": ints(1, 3, 0, -3),
        "cutoff": ints(1, 2, 0),
        "mixtures": ints(0, 2, -1),
        "workers": ints(1, 1, 0, -1, where=("flag",)),
    },
    "neg-sweep": {
        "seed": ints(0, 5),
        "samples": ints(1, 3, 0),
        "k_max": ints(1, 2, 0, -1, required=True),
        "workers": ints(1, 1, 0, where=("flag",)),
    },
    "tomography": {
        "seed": ints(0, 5, -1),
        "shots": ints(1, 100, 0),
        "noise": key(st.booleans(), "no", 0, 1, "true", None),
        "stokes": key(st.fixed_dictionaries(
            {"i": st.floats(0.5, 2)},
            optional={c: st.floats(-0.3, 0.3) for c in "mcs"}),
            {}, {"m": 1}, {"i": "1"}, {"i": 1, "x": 0}, {"i": NAN}, [1], "s", 5,
            where=("config",)),
        "omega": key(st.sampled_from([PROJECTOR, [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]]),
                     [[1, 0]], [[[1, 0], [0, 0]], [[0, 0]]], [[[1], [0]]], "x", 5,
                     [[["a", 0]]], [[[True, 0], [0, 0]], [[0, 0], [1, 0]]],
                     [[[1, 0], [2, 0]], [[0, 0], [1, 0]]], [], where=("config",)),
        "device_maps": key(st.sampled_from([[], [{"kraus": [PROJECTOR]}]]),
                           [{}], [{"kraus": 5}], [{"kraus": []}], "x", [5],
                           [{"kraus": [PROJECTOR], "extra": 1}],
                           [{"kraus": [[[[2, 0], [0, 0]], [[0, 0], [0, 0]]]]}],
                           where=("config",)),
    },
    "jj-evolve": {
        "model": key(st.sampled_from(["mean_field", "bose_hubbard"]), "x", 1),
        **JUNCTION,
        "n0": floats(0, 2, -1.0),
        "phi0": floats(-3, 3),
        "horizon": floats(0, 1, -1.0, required=True),
        "dt": floats(0.05, 0.5, 0.0, -0.1, required=True),
    },
    "pendulum": {
        "phi0": floats(-3, 3),
        "phidot0": floats(-3, 3),
        "omega": floats(-3, 3),
        "horizon": floats(0, 1, -1.0, required=True),
        "dt": floats(0.05, 0.5, 0.0, -0.1, required=True),
        "e_c": floats(0, 2, -1.0),
        "n_bar1": floats(0, 10),
    },
    "fluctuations": {
        "n_bar1_values": key(
            st.one_of(st.lists(st.floats(1, 6), min_size=3, max_size=4),
                      st.lists(st.integers(1, 6), min_size=3, max_size=4).map(
                          lambda v: ",".join(map(str, v)))),
            "a,b", "", [True], ["1"], 5, [NAN], {}),
        "p": floats(0.05, 0.95, 0.0, 1.0, 1.5),
    },
    "compare": {
        **JUNCTION,
        "n0": floats(0, 2),
        "phi0": floats(-1, 1),
        "horizon": floats(0, 1, -1.0, required=True),
    },
}
# raw config file texts that are not a JSON object
BAD_FILES = [b"{", b"[1]", b'"x"', b'{"seed": 1,}', b"\xff\xfe"]
BAD_ARGV = [["--bogus=1"], ["--format=xml"], ["--out"]]


def flag_text(value) -> str:
    return value if isinstance(value, str) else json.dumps(value)


@st.composite
def cli_case(draw):
    """(subcommand, config object or raw file bytes or None, argv tail).
    Each omission or malformation is drawn with probability 1/10, so that
    many cases are valid runs."""
    def rarely():           # hypothesis favours the first, simplest choice
        return draw(st.sampled_from([False] * 9 + [True]))

    name = draw(st.sampled_from(sorted(SPACE)))
    config, argv = {}, []
    for param, (valid, bad, required, where) in SPACE[name].items():
        if not required and rarely():
            continue
        place = draw(st.sampled_from(where))
        value = draw(st.sampled_from(bad) if rarely() else valid)
        if place == "config":
            config[param] = value
        else:
            text = draw(JUNK_TEXT) if rarely() else flag_text(value)
            argv.append(f"--{param.replace('_', '-')}={text}")
    if rarely():
        config["typo_key"] = 1
    if rarely():
        config = draw(st.sampled_from(BAD_FILES))
    if rarely():
        argv += draw(st.sampled_from(BAD_ARGV))
    return name, config, argv


def run_cli(tmp_dir, name, config, argv):
    """Exit code and stderr of one in-process run."""
    args = [name, "--out", str(tmp_dir / "report.csv")]
    if config is not None:
        path = tmp_dir / "config.json"
        path.write_bytes(config if isinstance(config, bytes)
                         else json.dumps(config).encode())
        args += ["--config", str(path)]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(args + argv)
    return code, err.getvalue()


def assert_clean_outcome(code, err):
    assert "Traceback" not in err
    assert code in (0, 1), err
    if code == 1:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err


# Each input below once ended in a traceback, a silent coercion, an empty
# header-less report, an invalid-JSON echo or exit code 2.
DEFECTS = [
    ("bound-check", {"seed": "x"}, []),
    ("bound-check", {"seed": 1, "samples": 1.5}, []),
    ("bound-check", {"seed": 1, "samples": "5"}, []),
    ("bound-check", {"seed": True, "samples": 2}, []),
    ("bound-check", None, ["--seed", "1", "--samples", "0"]),
    ("bound-check", None, ["--seed", "1", "--samples", "-3"]),
    ("bound-check", None, ["--seed", "1", "--samples"]),
    ("bound-check", None, ["--seed=1", "--samples=--"]),
    ("bound-check", None, ["--seed", "1", "--samples", "2", "--workers", "0"]),
    ("neg-sweep", None, ["--seed", "1", "--k-max", "0"]),
    ("tomography", {"stokes": {"i": 1.0}, "seed": 1,
                    "device_maps": [{}]}, []),
    ("tomography", {"stokes": {"m": 1.0}, "seed": 1}, []),
    ("tomography", {"stokes": {"i": 1.0}, "seed": 1, "noise": "no"}, []),
    ("tomography", {"stokes": {"i": 1.0}, "seed": 1}, ["--noise", "0"]),
    ("tomography", {"stokes": {"i": 1.0}, "seed": 1}, ["--shots", "0"]),
    ("fluctuations", None, ["--n-bar1-values", "a,b"]),
    ("jj-evolve", None, ["--e-c", "0.2", "--lam", "0.1", "--n-total", "4",
                         "--horizon", "nan"]),
    ("jj-evolve", None, ["--e-c", "0.2", "--lam", "0.1", "--n-total", "4",
                         "--model", "qubit"]),
    ("pendulum", {"omega": 1, "horizon": INF}, []),
    ("fluctuations", {"n_bar1_values": [1.0, 1.0, 1.0]}, []),
]
# A default derived from other values is checked as a given value is, and
# the message says that it was derived.
DERIVED = [
    ("compare", ["--n-total", "1", "--e-c", "1", "--lam", "1"],
     "--n0 was not given, and its derived value 1.5 must be in [0, n_total]"),
    ("jj-evolve", ["--n-total", "100", "--e-c", "1e300", "--lam", "1e300"],
     "--horizon was not given, and the junction rate it is derived from is "
     "infinite at these --e-c and --lam"),
    ("jj-evolve", ["--n-total", "100", "--e-c", "1e300", "--lam", "1e300",
                   "--horizon", "1"],
     "--dt was not given, and the junction rate it is derived from is "
     "infinite at these --e-c and --lam"),
    ("pendulum", ["--omega", "1e-320", "--horizon", "1"],
     "--dt was not given, and its derived value inf must be a finite number"),
]
JUNCTION_FLAGS = ["--e-c", "0.2", "--lam", "0.1", "--n-total", "4"]
# Work beyond a budget is refused before anything is allocated or any pool
# starts, so each of these exits within a second.
OVER_BUDGET = [
    ("bound-check", ["--seed", "1", "--samples", "1e300"]),
    ("bound-check", ["--seed", "1", "--samples", "1e300", "--workers", "2"]),
    ("bound-check", ["--seed", "1", "--samples", "1", "--mixtures", "1e300"]),
    ("neg-sweep", ["--seed", "1", "--samples", "1", "--k-max", "1000"]),
    ("pendulum", ["--omega", "1", "--horizon", "1", "--dt", "1e-9"]),
    ("jj-evolve", [*JUNCTION_FLAGS, "--horizon", "1", "--dt", "1e-12"]),
    ("jj-evolve", [*JUNCTION_FLAGS, "--horizon", "1", "--dt", "1e-12",
                   "--model", "bose_hubbard"]),
    ("compare", [*JUNCTION_FLAGS, "--horizon", "1e308"]),
    ("fluctuations", ["--n-bar1-values", "1e308,1.5e308,1.7e308"]),
    ("jj-evolve", ["--model", "bose_hubbard", "--n-total", "6000", "--e-c", "0.01",
                   "--lam", "0.001", "--horizon", "23.57", "--dt", "0.2357"]),
    ("jj-evolve", ["--model", "mean_field", "--n-total", "6000", "--e-c", "0.01",
                   "--lam", "0.001", "--horizon", "23.57", "--dt", "0.002357"]),
    ("jj-evolve", ["--model", "mean_field", "--n-total", "1000", "--e-c", "0.01",
                   "--lam", "0.001", "--horizon", "1", "--dt", "1e-4"]),
]
DEFECTS += [(name, None, argv) for name, argv in OVER_BUDGET]
# Cases added after the tables above go at the end, so that the ids of the
# cases before them stay as they are.
DEFECTS += [
    ("pendulum", None, ["--omega", "1e200"]),
    ("pendulum", None, ["--omega", "1", "--phidot0", "1e200"]),
    ("compare", None, ["--n-total", "20", "--e-c", "1e308", "--lam", "1"]),
    ("compare", None, ["--n-total", "20", "--e-c", "1e308", "--lam", "1",
                       "--horizon", "1"]),
]
DEFECTS += [(name, None, argv) for name, argv, _ in DERIVED]
EXACT_RUN = ["--model", "bose_hubbard", "--horizon", "1", "--dt", "0.1"]
DEFECTS += [
    # an exact-model Hamiltonian beyond the float range
    ("jj-evolve", None, [*EXACT_RUN, "--n-total", "10", "--e-c", "1", "--lam", "1e308"]),
    ("jj-evolve", None, [*EXACT_RUN, "--n-total", "10", "--e-c", "1e307", "--lam", "1"]),
    ("jj-evolve", None, [*EXACT_RUN, "--n-total", "2000", "--e-c", "1", "--lam", "1e306"]),
    # n1 is reconstructed from e_c >= 0 and n_bar1 together
    ("pendulum", None, ["--omega", "1", "--horizon", "1", "--dt", "0.1", "--e-c", "0.5"]),
    ("pendulum", None, ["--omega", "1", "--horizon", "1", "--dt", "0.1",
                        "--n-bar1", "10"]),
    ("pendulum", None, ["--omega", "1", "--horizon", "1", "--dt", "0.1",
                        "--n-bar1", "10", "--e-c", "-1"]),
    # settings that moved no number of the report are gone
    *[(name, None, [*argv, "--seed", "1"]) for name, argv in [
        ("jj-evolve", [*JUNCTION_FLAGS, "--horizon", "1", "--dt", "0.1"]),
        ("pendulum", ["--omega", "1", "--horizon", "1", "--dt", "0.1"]),
        ("fluctuations", ["--n-bar1-values", "25,50,100"]),
        ("compare", [*JUNCTION_FLAGS, "--horizon", "1"])]],
    *[("fluctuations", None, ["--n-bar1-values", "25,50,100", flag, "0.5"])
      for flag in ("--phi", "--e-c", "--lam")],
    # tomography scenes whose intensity or errors exceed the float range
    ("tomography", {"omega": [[[1e308, 0], [1e308, 0]], [[1e308, 0], [1e308, 0]]],
                    "seed": 1}, []),
    ("tomography", {"omega": [[[1e308, 0], [0, 0]], [[0, 0], [1e308, 0]]], "seed": 1}, []),
    ("tomography", {"stokes": {"i": 1.7e308, "m": 1.7e308}, "seed": 1}, []),
]
PENDULUM_RUN = ["--horizon", "1", "--dt", "0.5"]
DEFECTS += [
    # |phidot| reaches 2q, beyond the start's energy: an inf energy column
    ("pendulum", None, ["--omega", "1.3e154", "--phi0", "3", *PENDULUM_RUN]),
    # n1 = n_bar1 + phidot / e_c beyond the float range: an inf n1 cell, and
    # in JSON a traceback and a half-written file
    *[("pendulum", None, ["--omega", "1", "--phidot0", "1", "--e-c", "1e-310",
                          "--n-bar1", "1", *PENDULUM_RUN, *fmt])
      for fmt in ([], ["--format", "json"])],
    # N = 1, 2, 3 at p = 0.9: |1 - p + p e^{i delta}|^N never drops to 1/2
    ("fluctuations", None, ["--n-bar1-values", "0.9,1.8,2.7", "--p", "0.9"]),
]


# entries whose N = round(n_bar1 / p) holds fewer than one pair, or
# not more than n_bar1
TOO_FEW_PAIRS = [
    ["--n-bar1-values", "10,20,-30"],
    ["--n-bar1-values", "0.2,0.4,0.6"],
    ["--n-bar1-values", "10,1.341", "--p", "0.9"],
]
DEFECTS += [("fluctuations", None, argv) for argv in TOO_FEW_PAIRS]


@pytest.mark.parametrize("name,config,argv", DEFECTS)
def test_cli_defect_inputs_exit_1_with_one_line(tmp_path, name, config, argv):
    code, err = run_cli(tmp_path, name, config, argv)
    assert code == 1
    assert_clean_outcome(code, err)
    assert not (tmp_path / "report.csv").exists()


@pytest.mark.parametrize("argv", TOO_FEW_PAIRS)
def test_fluctuations_names_the_flag_of_an_entry_with_too_few_pairs(tmp_path, argv):
    code, err = run_cli(tmp_path, "fluctuations", None, argv)
    assert code == 1 and err.startswith("error: --n-bar1-values entry ")


@pytest.mark.parametrize("name,argv,message", DERIVED)
def test_cli_names_a_derived_default_that_fails(tmp_path, name, argv, message):
    assert run_cli(tmp_path, name, None, argv) == (1, f"error: {message}\n")


@pytest.mark.parametrize("name,argv", OVER_BUDGET)
def test_cli_refuses_work_beyond_the_budget_at_once(tmp_path, name, argv):
    start = time.perf_counter()
    code, err = run_cli(tmp_path, name, None, argv)
    assert time.perf_counter() - start < 1.0
    assert code == 1 and "exceeds the limit" in err
    assert_clean_outcome(code, err)


def test_neg_sweep_refuses_a_space_beyond_the_dimension_limit_at_once(tmp_path):
    # one sample at k = 31 is within the sample budget, but 32^4 states are
    # beyond the dimension limit: refused before k = 1 runs
    misses = entanglement._layout.cache_info().misses
    start = time.perf_counter()
    code, err = run_cli(tmp_path, "neg-sweep", None,
                        ["--seed", "1", "--samples", "1", "--k-max", "31"])
    assert time.perf_counter() - start < 1.0
    assert (code, err) == (1, "error: dimension 1048576+ exceeds the limit 1000000\n")
    assert entanglement._layout.cache_info().misses == misses, "a layout was built"
    assert not (tmp_path / "report.csv").exists()


def test_cli_runs_the_self_consistent_model_past_the_eigensolver_budget(tmp_path):
    # dimension 6001 is beyond fock.EIG_WORK_LIMIT, which the self-consistent
    # model, read from its Bloch vector, never meets
    argv = ["--model", "mean_field", "--n-total", "6000", "--e-c", "0.01",
            "--lam", "0.001", "--horizon", "23.57", "--dt", "0.2357"]
    assert run_cli(tmp_path, "jj-evolve", None, argv) == (0, "")
    assert (tmp_path / "report.csv").read_text().count("\n") == 101 + 2


@pytest.mark.parametrize("name,argv,echo", [
    ("jj-evolve", ["--n-total", "40", "--e-c", "0.2", "--lam", "-1e-3", "--horizon", "1",
                   "--dt", "0.5"], '"lam": -0.001'),
    ("pendulum", ["--phi0", "-1E2", "--omega", "1", "--horizon", "1", "--dt", "0.5"],
     '"phi0": -100.0'),
])
def test_cli_reads_a_negative_number_in_exponent_form(tmp_path, name, argv, echo):
    assert run_cli(tmp_path, name, None, argv) == (0, "")
    assert echo in (tmp_path / "report.csv").read_text()


@pytest.mark.parametrize("scene", [
    {"stokes": {"i": 1e308, "m": 1e300}, "seed": 1},
    {"stokes": {"i": 1e308, "m": 1e308}, "seed": 1},
    {"stokes": {"i": 1e308, "s": 1e308}, "seed": 1, "shots": 1},
    {"omega": [[[1e308, 0], [0, 0]], [[0, 0], [0, 0]]], "seed": 1},
])
def test_cli_runs_a_bright_tomography_scene_with_finite_cells(tmp_path, scene):
    assert run_cli(tmp_path, "tomography", scene, []) == (0, "")
    rows, _ = reports.load_report(str(tmp_path / "report.csv"))
    cells = [row[c] for row in rows for c in ("estimate", "standard_error", "true_value")]
    assert len(cells) == 12 and all(math.isfinite(c) for c in cells)


def test_cli_null_config_value_means_not_given(tmp_path):
    code, err = run_cli(tmp_path, "bound-check",
                        {"seed": 1, "samples": None, "cutoff": 1}, [])
    assert (code, err) == (0, "")
    assert '"samples": 1000' in (tmp_path / "report.csv").read_text()


def test_cli_flag_words_for_bool(tmp_path):
    scene = {"stokes": {"i": 1.0}, "seed": 1}
    for word, noise in [("false", False), ("False", False), ("true", True)]:
        code, err = run_cli(tmp_path, "tomography", scene, [f"--noise={word}"])
        assert (code, err) == (0, "")
        assert f'"noise": {json.dumps(noise)}' in (tmp_path / "report.csv").read_text()


@pytest.mark.parametrize("name,argv", [
    ("bound-check", ["--samples", "3"]),
    ("neg-sweep", ["--samples", "3", "--k-max", "1"]),
])
def test_cli_master_seed_lies_in_the_64_bit_range(tmp_path, name, argv):
    # child_seed reduces a master seed mod 2^64, so -1 and 2^64 - 1 once
    # wrote the same rows; both ends of the range run, and one step past
    # either end exits 1 naming --seed, given as a flag or in a config file
    interval = "must be in [0, 18446744073709551616)"
    for seed in (0, 2 ** 64 - 1):
        assert run_cli(tmp_path, name, None, [*argv, "--seed", str(seed)]) == (0, "")
        assert f'"seed": {seed}' in (tmp_path / "report.csv").read_text()
        (tmp_path / "report.csv").unlink()
    for seed in (-1, 2 ** 64):
        assert run_cli(tmp_path, name, None, [*argv, "--seed", str(seed)]) == (
            1, f"error: --seed {interval}, got '{seed}'\n")
        code, err = run_cli(tmp_path, name, {"seed": seed}, argv)
        assert code == 1 and err.endswith(f": seed {interval}, got {seed}\n")
        assert not (tmp_path / "report.csv").exists()


@settings(deadline=None, max_examples=300, derandomize=True)
@given(cli_case())
@example(("bound-check", {"seed": 1, "samples": None, "cutoff": 1}, []))
@example(("bound-check", None, ["--seed=1", "--samples=3", "--workers=2"]))
def test_cli_inputs_run_or_exit_1_with_one_line(tmp_path_factory, case):
    name, config, argv = case
    code, err = run_cli(tmp_path_factory.mktemp("cli"), name, config, argv)
    assert_clean_outcome(code, err)


for _case in DEFECTS:
    test_cli_inputs_run_or_exit_1_with_one_line = example(_case)(
        test_cli_inputs_run_or_exit_1_with_one_line)
