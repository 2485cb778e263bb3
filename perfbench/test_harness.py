"""Self-tests of the benchmark harness: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
from workloads import BOUND_MIX, WORKLOADS, check_report  # noqa: E402


def fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_of_nested_call_tree():
    # main [0, 10] calls a [1, 4] (which calls b [2, 3]) and then b [5, 9].
    rec = spans.Recorder(clock=fake_clock([0, 1, 2, 3, 4, 5, 9, 10]))

    def b():
        return "b"

    def a():
        return traced_b()

    traced_b = rec.wrap("b", b)
    traced_a = rec.wrap("a", a)
    root = rec.open("main")
    traced_a()
    traced_b()
    rec.close(root)

    assert [(s.name, s.parent) for s in rec.spans] == [
        ("main", -1), ("a", 0), ("b", 1), ("b", 0)]
    assert spans.self_times(rec.spans) == [3, 2, 1, 4]
    agg = spans.aggregate(rec.spans)
    assert agg["b"] == {"calls": 2, "self_s": 5, "total_s": 5}
    assert agg["main"]["total_s"] == 10


def test_self_time_counts_overlapping_children_once():
    tree = [spans.Span("p", -1, 0.0, 10.0), spans.Span("c", 0, 2.0, 6.0),
            spans.Span("c", 0, 4.0, 8.0), spans.Span("c", 0, 9.0, 12.0)]
    assert spans.self_times(tree)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_layer_metrics_read_zero_for_absent_spans():
    tree = [spans.Span("cli.main", -1, 0.0, 1.0),
            spans.Span("reports.emit_report", 0, 0.5, 0.75, {"bytes": 42})]
    m = spans.layer_metrics(tree)
    assert m["cli.main.self_s"] == 0.75
    assert m["reports.emit_report.bytes"] == 42
    assert m["cli.pool.count"] == 0 and m["fock.eigh_tridiagonal.calls"] == 0


def _run_cli(argv, out, recorder=None):
    import beamlab.cli
    idx = recorder.open("cli.main") if recorder else None
    assert beamlab.cli.main([*argv, "--out", str(out)]) == 0
    if recorder:
        recorder.close(idx)
    return out.read_bytes()


@pytest.mark.parametrize("argv", [
    ["bound-check", "--seed", "7", "--samples", "40", "--cutoff", "2",
     "--mixtures", "4"],
    ["neg-sweep", "--seed", "7", "--samples", "4", "--k-max", "2",
     "--workers", "2"],
])
def test_wrapped_and_unwrapped_runs_write_identical_reports(tmp_path, argv):
    import beamlab.cli
    import beamlab.entanglement
    import beamlab.seeding
    originals = (beamlab.seeding.rng_for, beamlab.entanglement.rng_for,
                 beamlab.cli.get_context)

    plain = _run_cli(argv, tmp_path / "plain.csv")
    rec = spans.Recorder()
    uninstall = spans.install(rec)
    try:
        traced = _run_cli(argv, tmp_path / "traced.csv", rec)
    finally:
        uninstall()
    assert traced == plain
    assert (beamlab.seeding.rng_for, beamlab.entanglement.rng_for,
            beamlab.cli.get_context) == originals

    m = spans.layer_metrics(rec.spans)
    assert m["reports.emit_report.bytes"] == len(plain)
    if argv[0] == "bound-check":
        assert m["seeding.rng_for.calls"] == 44
        assert m["entanglement.gamma_from_state.calls"] == 8
        assert m["cli.pool.count"] == 0
    else:
        assert m["cli.pool.count"] == 2          # one spawn pool per k
        assert m["entanglement.gamma_from_state.calls"] == 0
    assert all(s.end >= s.start for s in rec.spans)


def test_check_report_flags_bad_reports(tmp_path):
    wl = BOUND_MIX
    header = ",".join(wl.columns)
    row = "0,3,1.0,1.0,1.0,0.0,2.0,2.0,{}"
    path = tmp_path / "r.csv"
    path.write_text("# config: {}\n" + header + "\n"
                    + "\n".join(row.format("true") for _ in range(wl.rows)) + "\n")
    assert check_report(wl, str(path))[1] == []
    path.write_text(header + "\n" + row.format("false") + "\n")
    assert "rows, expected" in check_report(wl, str(path))[1][0]
    path.write_text(header + "\n"
                    + "\n".join(row.format("false") for _ in range(wl.rows)) + "\n")
    assert check_report(wl, str(path))[1] == [f"{wl.rows} rows with satisfied != true"]


def test_benchmark_json_lists_what_the_harness_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    per_layer = {name: unit for name, (_, _, unit) in spans.PER_LAYER.items()}
    per_layer[spans.OVERHEAD_METRIC[0]] = spans.OVERHEAD_METRIC[1]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer
