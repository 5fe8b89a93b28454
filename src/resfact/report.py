"""Serialization of capacity reports to CSV and JSON.

Both formats carry the same fields under the same names, floats
rendered to 6 significant digits, so a report parsed back from either
format compares equal field by field.  Output is deterministic for a
given report, and files are written via a temp file plus rename so an
interrupted run never leaves a half-written report behind.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import tempfile
from typing import Union

from .bench import CapacityReport, CapacityRow

CSV_COLUMNS = tuple(f.name for f in dataclasses.fields(CapacityRow))
CSV_HEADER = ",".join(CSV_COLUMNS)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".6g")
    return str(value)


def _json_value(value):
    # round floats the same way the CSV does, so the formats agree
    if isinstance(value, float):
        return float(format(value, ".6g"))
    return value


def _csv_bytes(rows) -> bytes:
    lines = [CSV_HEADER]
    for row in rows:
        record = dataclasses.asdict(row)
        lines.append(",".join(_csv_cell(record[c]) for c in CSV_COLUMNS))
    return ("\n".join(lines) + "\n").encode()


def report_to_csv_bytes(report: CapacityReport) -> bytes:
    return _csv_bytes(report.rows)


def report_to_json_bytes(report: CapacityReport) -> bytes:
    """JSON rendering of the report: its sweep config, rows and capacity.

    ``parallelism`` is left out of the config: it changes how trials are
    scheduled, not what they compute, and leaving it in would make the
    bytes differ between two runs that agree on every result.
    """
    config = dataclasses.asdict(report.config)
    del config["parallelism"]
    config["search_space_sizes"] = list(config["search_space_sizes"])
    rows = []
    for row in report.rows:
        record = dataclasses.asdict(row)
        rows.append({c: _json_value(record[c]) for c in CSV_COLUMNS})
    doc = {
        "config": config,
        "rows": rows,
        "operational_capacity": report.operational_capacity,
    }
    return (json.dumps(doc, indent=2) + "\n").encode()


def emit_rows(rows, destination: Union[str, os.PathLike]) -> None:
    """Write capacity rows as report CSV to ``destination`` ('-' for standard output).

    For rows gathered from several sweeps, e.g. one per grid cell.
    """
    _write(_csv_bytes(rows), destination)


def emit_report(report: CapacityReport, format: str, destination: Union[str, os.PathLike]) -> None:
    """Write the report to ``destination`` ('-' for standard output)."""
    if format == "csv":
        emit_rows(report.rows, destination)
    elif format == "json":
        _write(report_to_json_bytes(report), destination)
    else:
        raise ValueError(f"format must be 'csv' or 'json', got {format!r}")


def _write(payload: bytes, destination) -> None:
    """Write ``payload`` to standard output, or atomically to a file.

    File writes go through a sibling temp file and a rename.
    """
    dest = os.fspath(destination)
    if dest == "-":
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()
        return
    directory = os.path.dirname(os.path.abspath(dest))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".report-", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, dest)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
