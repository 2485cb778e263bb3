"""Report files: CSV (RFC 4180) and JSON with round-trippable floats.

Floats are serialized with ``repr``, the shortest decimal form that parses
back to the exact binary value, so report files are byte-stable and
lossless.  NaNs are emitted as missing values (empty CSV cell, JSON null).
CSV reports carry the effective run configuration in leading ``#`` comment
lines; a JSON report is one object that holds it next to its rows.
"""

from __future__ import annotations

import csv
import json
import math
import re

import numpy as np

from .errors import BeamlabError, ContractViolationError

_INT_RE = re.compile(r"^-?\d+$")


def _plain(value):
    if isinstance(value, (np.generic,)):
        value = value.item()
    if isinstance(value, float) and math.isnan(value):
        return None
    return value


def _cell(value) -> str:
    # the exact built-in types first: a report writes one cell per value
    kind = type(value)
    if kind is float:
        return "" if math.isnan(value) else repr(value)
    if kind is bool:
        return "true" if value else "false"
    if kind is int or kind is str:
        return str(value)
    value = _plain(value)
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_report(rows: list[dict] | None, fmt: str, path: str, config: dict,
                extra: dict | None = None) -> None:
    """Write `rows` to `path` as csv or json.

    `config` (the effective run configuration) and `extra` (scalar results,
    e.g. fitted exponents) go into the CSV comment header / the JSON
    object.  A report has at least one row, except that a JSON report may
    have none (None): its object then holds only `config` and `extra`.
    """
    if rows is None and fmt != "json":
        raise ContractViolationError("only a json report may have no rows")
    # the column set is checked before the file opens; cells are converted
    # as they are written, so the rows are never copied (JSON aside)
    if rows is not None:
        if not rows:
            raise ContractViolationError("a report needs at least one row")
        keys = list(rows[0])
        if any(list(row) != keys for row in rows):
            raise ContractViolationError("report rows must share one column set")
    try:
        if fmt == "csv":
            _write_csv(rows, path, config, extra)
        elif fmt == "json":
            _write_json(rows, path, config, extra)
        else:
            raise ContractViolationError(f"unknown report format {fmt!r}")
    except OSError as exc:
        raise BeamlabError(f"cannot write report to {path}: {exc}") from exc


def _write_csv(rows, path, config, extra):
    with open(path, "w", newline="") as fh:
        fh.write("# config: " + json.dumps(config, sort_keys=True) + "\r\n")
        for key, value in (extra or {}).items():
            fh.write(f"# {key}: " + json.dumps(value, sort_keys=True) + "\r\n")
        writer = csv.writer(fh)
        writer.writerow(rows[0].keys())
        for row in rows:
            writer.writerow([_cell(v) for v in row.values()])


def _write_json(rows, path, config, extra):
    payload = {"config": config, **(extra or {})}
    if rows is not None:
        payload["rows"] = [{k: _plain(v) for k, v in row.items()} for row in rows]
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, allow_nan=False)
        fh.write("\n")


def _parse_cell(text: str):
    if text == "":
        return None
    if text == "true":
        return True
    if text == "false":
        return False
    if _INT_RE.match(text):
        return int(text)
    try:
        return float(text)
    except ValueError:
        return text


def load_report(path: str):
    """Parse a report back into (rows, header) where header holds the config
    and any extra scalars; CSV cells come back through type inference.  A
    JSON report written without rows loads with rows None."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise BeamlabError(f"cannot read report {path}: {exc}") from exc
    try:
        return _parse_report(text)
    except (ValueError, StopIteration) as exc:  # JSONDecodeError is a ValueError
        raise BeamlabError(
            f"cannot parse report {path}: {str(exc) or 'no column row'}") from exc


def _parse_report(text: str):
    if text.lstrip().startswith("{"):
        payload = json.loads(text)
        header = {k: v for k, v in payload.items() if k != "rows"}
        return payload.get("rows"), header
    header = {}
    lines = []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            header[key] = json.loads(value)
        elif line:
            lines.append(line)
    reader = csv.reader(lines)
    columns = next(reader)
    rows = [{c: _parse_cell(v) for c, v in zip(columns, record)} for record in reader]
    return rows, header
