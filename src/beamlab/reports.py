"""Report files: CSV (RFC 4180) and JSON with round-trippable floats.

Floats are serialized with ``repr``, the shortest decimal form that parses
back to the exact binary value, so report files are byte-stable and
lossless.  NaNs are emitted as missing values (empty CSV cell, JSON null).
CSV reports carry the effective run configuration in leading ``#`` comment
lines; JSON reports wrap it alongside the row array.
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
    value = _plain(value)
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_report(rows: list[dict] | None, fmt: str, path: str,
                config: dict | None = None, extra: dict | None = None,
                columns: list[str] | None = None) -> None:
    """Write `rows` to `path` as csv or json.

    `config` (the effective run configuration) and `extra` (scalar results,
    e.g. fitted exponents) go into the CSV comment header / the JSON
    envelope; with both omitted the JSON form is a bare array of row
    objects.  `columns` supplies the CSV header when the row set is empty.
    A JSON report may have no rows (None): its envelope then holds only
    `config` and `extra`.
    """
    if rows is None and fmt != "json":
        raise ContractViolationError("only a json report may have no rows")
    # the column set is checked before the file opens; cells are converted
    # as they are written, so the rows are never copied (JSON aside)
    if rows:
        keys = list(rows[0])
        if any(list(row) != keys for row in rows):
            raise ContractViolationError("report rows must share one column set")
        if columns is not None and keys != list(columns):
            raise ContractViolationError("explicit columns disagree with the rows")
    try:
        if fmt == "csv":
            _write_csv(rows, path, config, extra, columns)
        elif fmt == "json":
            _write_json(rows, path, config, extra)
        else:
            raise ContractViolationError(f"unknown report format {fmt!r}")
    except OSError as exc:
        raise BeamlabError(f"cannot write report to {path}: {exc}") from exc


def _write_csv(rows, path, config, extra, columns=None):
    header = list(rows[0].keys()) if rows else columns
    with open(path, "w", newline="") as fh:
        if config is not None:
            fh.write("# config: " + json.dumps(config, sort_keys=True) + "\r\n")
        if extra is not None:
            for key, value in extra.items():
                fh.write(f"# {key}: " + json.dumps(value, sort_keys=True) + "\r\n")
        writer = csv.writer(fh)
        if header is not None:
            writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row.values()])


def _write_json(rows, path, config, extra):
    if rows is not None:
        rows = [{k: _plain(v) for k, v in row.items()} for row in rows]
    if config is None and extra is None:
        payload = rows
    else:
        payload = {}
        if config is not None:
            payload["config"] = config
        if extra is not None:
            payload.update(extra)
        if rows is not None:
            payload["rows"] = rows
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
    and any extra scalars; CSV cells come back through type inference."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise BeamlabError(f"cannot read report {path}: {exc}") from exc
    if text.lstrip().startswith(("[", "{")):
        payload = json.loads(text)
        if isinstance(payload, list):
            return payload, {}
        header = {k: v for k, v in payload.items() if k != "rows"}
        return payload["rows"], header
    header = {}
    lines = []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            header[key] = json.loads(value)
        elif line:
            lines.append(line)
    if not lines:
        return [], header
    reader = csv.reader(lines)
    columns = next(reader)
    rows = [{c: _parse_cell(v) for c, v in zip(columns, record)} for record in reader]
    return rows, header
