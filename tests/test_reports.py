import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamlab import reports
from beamlab.errors import BeamlabError, ContractViolationError


def test_empty_csv_raises(tmp_path):
    path = tmp_path / "empty.csv"
    for columns in ({"x": []}, {}, None):
        with pytest.raises(ContractViolationError):
            reports.emit_report(columns, "csv", str(path), config={})
        with pytest.raises(ContractViolationError):
            reports.emit_report(columns, "json", str(path), config={})
    assert not path.exists()


def test_single_row_two_lines(tmp_path):
    path = tmp_path / "one.csv"
    reports.emit_report({"x": [1], "y": [2.5]}, "csv", str(path), config={})
    lines = path.read_text().splitlines()
    assert lines == ["# config: {}", "x,y", "1,2.5"]


def test_csv_json_round_trip_identical_values(tmp_path):
    rows = [
        {"name": "alpha, beta", "value": 0.1 + 0.2, "count": 3,
         "flag": True, "missing": None},
        {"name": 'quote "q"', "value": -1e-17, "count": -2,
         "flag": False, "missing": 1.5},
    ]
    columns = {key: [row[key] for row in rows] for key in rows[0]}
    cfg = {"seed": 7, "what": "demo"}
    csv_path, json_path = tmp_path / "r.csv", tmp_path / "r.json"
    reports.emit_report(columns, "csv", str(csv_path), config=cfg)
    reports.emit_report(columns, "json", str(json_path), config=cfg)
    csv_rows, csv_header = reports.load_report(str(csv_path))
    json_rows, json_header = reports.load_report(str(json_path))
    assert csv_rows == rows
    assert json_rows == rows
    assert csv_header["config"] == cfg
    assert json_header["config"] == cfg


def test_json_report_without_rows_is_refused_with_its_path(tmp_path):
    path = tmp_path / "scalars.json"
    path.write_text(json.dumps({"config": {"seed": 1}, "estimate": {"i": 1.0}}))
    with pytest.raises(BeamlabError, match="scalars.json"):
        reports.load_report(str(path))


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
    # columns of unequal length are refused before the file opens
    path = tmp_path / "x.csv"
    path.write_text("kept")
    for fmt in ("csv", "json"):
        with pytest.raises(ContractViolationError):
            reports.emit_report({"a": [1, 2], "b": [2]}, fmt, str(path), config={})
    assert path.read_text() == "kept"


def test_a_missing_report_is_refused_with_its_path(tmp_path):
    path = tmp_path / "missing.csv"
    with pytest.raises(BeamlabError, match="cannot read report .*missing.csv"):
        reports.load_report(str(path))


def test_io_error_carries_path():
    with pytest.raises(BeamlabError, match="no/such/dir"):
        reports.emit_report({"a": [1]}, "csv", "/no/such/dir/report.csv", config={})


def test_nan_becomes_missing(tmp_path):
    path = tmp_path / "nan.csv"
    reports.emit_report({"v": [float("nan")]}, "csv", str(path), config={})
    rows, _ = reports.load_report(str(path))
    assert rows == [{"v": None}]
    jpath = tmp_path / "nan.json"
    reports.emit_report({"v": [float("nan")]}, "json", str(jpath), config={})
    assert json.loads(jpath.read_text())["rows"] == [{"v": None}]


def test_cells_of_builtin_and_numpy_scalars_agree(tmp_path):
    cases = [
        (0.1, "0.1"), (-0.0, "-0.0"), (1e300, "1e+300"), (float("nan"), ""),
        (True, "true"), (False, "false"), (7, "7"), (-3, "-3"),
        (2 ** 70, str(2 ** 70)), ("x,y", "x,y"), (None, ""),
    ]
    numpy_cases = [
        (np.float64(0.1), "0.1"), (np.float64(-0.0), "-0.0"), (np.float64("nan"), ""),
        (np.float32(0.5), "0.5"), (np.bool_(True), "true"), (np.bool_(False), "false"),
        (np.int64(-3), "-3"), (np.int32(12), "12"), (np.str_("x,y"), "x,y"),
    ]
    for value, text in cases:
        assert reports._cell(value) == text, repr(value)
    # a report converts numpy scalars to those builtins before `_cell`
    path = tmp_path / "cell.csv"
    for value, text in cases + numpy_cases:
        reports.emit_report({"v": [value]}, "csv", str(path), config={})
        assert next(csv.reader(path.read_text().splitlines()[2:])) == [text], repr(value)
    # a report of numpy scalars is byte-identical to one of the same builtins
    paths = []
    for name, row in (("builtin", [0.1, float("nan"), True, -3]),
                      ("numpy", [np.float64(0.1), np.float64("nan"), np.bool_(True),
                                 np.int64(-3)])):
        paths.append(tmp_path / f"{name}.csv")
        reports.emit_report({k: [v] for k, v in zip("abcd", row)}, "csv", str(paths[-1]),
                            config={})
    assert paths[0].read_bytes() == paths[1].read_bytes()


@settings(deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_float_serialization_round_trips_exactly(x):
    assert float(reports._cell(x)) == x or (x == 0.0 and math.copysign(1, x) < 0)


def test_rfc4180_quoting(tmp_path):
    path = tmp_path / "quote.csv"
    reports.emit_report({"text": ['a,"b"\nc']}, "csv", str(path), config={})
    raw = path.read_text()
    assert '"a,""b""\nc"' in raw


def test_report_across_blocks_matches_a_row_by_row_writer(tmp_path):
    n = 2 * reports.BLOCK_ROWS + 1
    x = np.linspace(-1.0, 1.0, n) ** 3
    x[::7] = np.nan
    columns = {"i": np.arange(n), "x": x, "ok": np.arange(n) % 3 > 0,
               "name": [f"r{i}" for i in range(n)]}
    path = tmp_path / "blocks.csv"
    reports.emit_report(columns, "csv", str(path), config={"n": n})
    oracle = io.StringIO(newline="")
    oracle.write('# config: {"n": %d}\r\n' % n)
    writer = csv.writer(oracle)
    writer.writerow(columns)
    for i in range(n):
        value = float(x[i])
        writer.writerow([str(i), "" if math.isnan(value) else repr(value),
                         "true" if i % 3 else "false", f"r{i}"])
    assert path.read_bytes() == oracle.getvalue().encode()
    # JSON across the same block boundaries: json.dumps of all the rows at once
    path = tmp_path / "blocks.json"
    reports.emit_report(columns, "json", str(path), config={"n": n})
    rows = [{"i": i, "x": None if math.isnan(x[i]) else float(x[i]), "ok": bool(i % 3),
             "name": f"r{i}"} for i in range(n)]
    assert path.read_text() == json.dumps({"config": {"n": n}, "rows": rows}, indent=2) + "\n"


def test_arrays_numpy_scalars_and_builtins_write_the_same_bytes(tmp_path):
    arrays = {"x": np.array([0.1, np.nan, -0.0, 1e300]), "k": np.array([7, -3, 0, 2]),
              "ok": np.array([True, False, True, True])}
    forms = {"arrays": arrays,
             "numpy_scalars": {name: list(a) for name, a in arrays.items()},
             "builtins": {name: a.tolist() for name, a in arrays.items()}}
    for fmt in ("csv", "json"):
        blobs = []
        for name, columns in forms.items():
            path = tmp_path / f"{name}.{fmt}"
            reports.emit_report(columns, fmt, str(path), config={})
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2], fmt
    assert json.loads(blobs[0])["rows"][1] == {"x": None, "k": -3, "ok": False}


def test_non_finite_json_value_is_refused_with_its_path_and_no_file(tmp_path):
    path = tmp_path / "inf.json"
    for columns, extra in (({"v": [1.0, math.inf]}, None),
                           ({"v": [1.0]}, {"fit": -math.inf})):
        with pytest.raises(BeamlabError, match="inf.json"):
            reports.emit_report(columns, "json", str(path), config={}, extra=extra)
        assert not path.exists()
