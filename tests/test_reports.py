import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamlab import reports
from beamlab.errors import BeamlabError, ContractViolationError


def test_empty_csv_raises(tmp_path):
    path = tmp_path / "empty.csv"
    with pytest.raises(ContractViolationError):
        reports.emit_report([], "csv", str(path), config={})
    with pytest.raises(ContractViolationError):
        reports.emit_report([], "json", str(path), config={})
    assert not path.exists()


def test_single_row_two_lines(tmp_path):
    path = tmp_path / "one.csv"
    reports.emit_report([{"x": 1, "y": 2.5}], "csv", str(path), config={})
    lines = path.read_text().splitlines()
    assert lines == ["# config: {}", "x,y", "1,2.5"]


def test_csv_json_round_trip_identical_values(tmp_path):
    rows = [
        {"name": "alpha, beta", "value": 0.1 + 0.2, "count": 3,
         "flag": True, "missing": None},
        {"name": 'quote "q"', "value": -1e-17, "count": -2,
         "flag": False, "missing": 1.5},
    ]
    cfg = {"seed": 7, "what": "demo"}
    csv_path, json_path = tmp_path / "r.csv", tmp_path / "r.json"
    reports.emit_report(rows, "csv", str(csv_path), config=cfg)
    reports.emit_report(rows, "json", str(json_path), config=cfg)
    csv_rows, csv_header = reports.load_report(str(csv_path))
    json_rows, json_header = reports.load_report(str(json_path))
    assert csv_rows == rows
    assert json_rows == rows
    assert csv_header["config"] == cfg
    assert json_header["config"] == cfg


def test_json_report_without_rows_loads_with_rows_none(tmp_path):
    path = tmp_path / "scalars.json"
    reports.emit_report(None, "json", str(path), config={"seed": 1},
                        extra={"estimate": {"i": 1.0}})
    rows, header = reports.load_report(str(path))
    assert rows is None
    assert header == {"config": {"seed": 1}, "estimate": {"i": 1.0}}


def test_empty_report_file_is_refused_with_its_path(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(BeamlabError, match="empty.csv"):
        reports.load_report(str(path))


def test_malformed_json_report_is_refused_with_its_path(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"config": {"seed": 1}, "rows": [')
    with pytest.raises(BeamlabError, match="broken.json"):
        reports.load_report(str(path))


def test_rows_must_be_homogeneous(tmp_path):
    with pytest.raises(ContractViolationError):
        reports.emit_report([{"a": 1}, {"b": 2}], "csv", str(tmp_path / "x.csv"),
                            config={})


def test_io_error_carries_path():
    with pytest.raises(BeamlabError, match="no/such/dir"):
        reports.emit_report([{"a": 1}], "csv", "/no/such/dir/report.csv", config={})


def test_nan_becomes_missing(tmp_path):
    path = tmp_path / "nan.csv"
    reports.emit_report([{"v": float("nan")}], "csv", str(path), config={})
    rows, _ = reports.load_report(str(path))
    assert rows == [{"v": None}]
    jpath = tmp_path / "nan.json"
    reports.emit_report([{"v": float("nan")}], "json", str(jpath), config={})
    assert json.loads(jpath.read_text())["rows"] == [{"v": None}]


@settings(deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_float_serialization_round_trips_exactly(x):
    assert float(reports._cell(x)) == x or (x == 0.0 and math.copysign(1, x) < 0)


def test_rfc4180_quoting(tmp_path):
    path = tmp_path / "quote.csv"
    reports.emit_report([{"text": 'a,"b"\nc'}], "csv", str(path), config={})
    raw = path.read_text()
    assert '"a,""b""\nc"' in raw
