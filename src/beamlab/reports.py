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
import os
import re

import numpy as np

from .errors import BeamlabError, ContractViolationError

_INT_RE = re.compile(r"^-?\d+$")
# rows converted to built-in values at a time: a report holds its columns
# and, at most, one block of rows
BLOCK_ROWS = 20_000


def _cell(value) -> str:
    # a cell is a built-in value (`_blocks`); exact types, as it runs per cell
    kind = type(value)
    if kind is float:
        return "" if math.isnan(value) else repr(value)
    if kind is bool:
        return "true" if value else "false"
    return "" if value is None else str(value)


def _nan_to_none(value):
    # a scalar result, or a dict of them, with each NaN as None (JSON null)
    if isinstance(value, dict):
        return {k: _nan_to_none(v) for k, v in value.items()}
    return None if value != value else value


def _blocks(columns: dict):
    """The rows of `columns`, BLOCK_ROWS at a time, as one list of built-in
    values per column; each column slice converts as one numpy array."""
    n = len(next(iter(columns.values())))
    for start in range(0, n, BLOCK_ROWS):
        yield [np.asarray(c[start:start + BLOCK_ROWS]).tolist() for c in columns.values()]


def emit_report(columns: dict, fmt: str, path: str, config: dict,
                extra: dict | None = None) -> None:
    """Write `columns` {name: array, list or tuple} to `path` as csv or json,
    one row per index; a report has at least one row.

    `config` (the effective run configuration) and `extra` (scalar results,
    e.g. fitted exponents, a NaN in them written as null) go into the CSV
    comment header / the JSON object.
    The columns are checked before the file opens.  A column converts as
    one numpy array, so it holds values of one type (None aside).  A value
    that JSON cannot hold (an infinity) raises BeamlabError and leaves no
    file.
    """
    lengths = {len(c) for c in (columns or {}).values()}
    if len(lengths) != 1 or 0 in lengths:
        raise ContractViolationError(
            "a report needs columns of one length, at least one row long")
    extra = {k: _nan_to_none(v) for k, v in (extra or {}).items()}
    try:
        if fmt == "csv":
            _write_csv(columns, path, config, extra)
        elif fmt == "json":
            _write_json(columns, path, config, extra)
        else:
            raise ContractViolationError(f"unknown report format {fmt!r}")
    except OSError as exc:
        raise BeamlabError(f"cannot write report to {path}: {exc}") from exc


def _write_csv(columns, path, config, extra):
    with open(path, "w", newline="") as fh:
        fh.write("# config: " + json.dumps(config, sort_keys=True) + "\r\n")
        for key, value in extra.items():
            fh.write(f"# {key}: " + json.dumps(value, sort_keys=True) + "\r\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        for block in _blocks(columns):
            writer.writerows([_cell(v) for v in row] for row in zip(*block))


def _write_json(columns, path, config, extra):
    # json.dump({"config": ..., **extra, "rows": [...]}, indent=2), the rows
    # encoded a block at a time; NaN, the one value unequal to itself, is null
    encode = json.JSONEncoder(indent=2, allow_nan=False).encode
    with open(path, "w") as fh:
        try:
            fh.write(encode({"config": config, **extra})[:-2] + ',\n  "rows": [')
            for i, block in enumerate(_blocks(columns)):
                rows = [{k: v if v == v else None for k, v in zip(columns, row)}
                        for row in zip(*block)]
                fh.write("," * (i > 0) + encode(rows)[1:-2].replace("\n", "\n  "))
            fh.write("\n  ]\n}\n")
        except ValueError as exc:   # a value JSON cannot hold: no report
            fh.close()
            os.remove(path)
            raise BeamlabError(f"cannot write report to {path}: {exc}") from exc


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
    try:
        return _parse_report(text)
    except (ValueError, StopIteration) as exc:  # JSONDecodeError is a ValueError
        raise BeamlabError(
            f"cannot parse report {path}: {str(exc) or 'no column row'}") from exc


def _parse_report(text: str):
    if text.lstrip().startswith("{"):
        header = json.loads(text)
        if "rows" not in header:
            raise ValueError('no "rows" key')
        return header.pop("rows"), header
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
