"""Tabular results with deterministic CSV / JSON-lines rendering.

Output is byte-deterministic: fixed '\\n' line endings, floats rendered with
17 significant digits (which round-trips IEEE doubles exactly), metadata in
fixed key order. CSV carries the metadata as '#'-prefixed preamble lines
before the header row and quotes fields per RFC 4180; JSONL emits the
metadata as the first object, then one object per row.
"""

import csv
import io
import json
from dataclasses import dataclass, field

__all__ = ["ResultTable", "RENDERERS", "render_csv", "render_jsonl", "write_results", "format_value"]


@dataclass
class ResultTable:
    """Rectangular result set plus run metadata."""

    columns: tuple
    rows: list
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.columns = tuple(self.columns)
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError("ragged row: every row must match the column count")


def format_value(value) -> str:
    """Render a scalar deterministically; floats at 17 significant digits."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    if value is None:
        return ""
    return str(value)


def _json_scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            return "null"  # JSON has no NaN/Infinity
        return format(value, ".17g")
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_json_scalar(v) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + ",".join(f"{json.dumps(str(k))}:{_json_scalar(v)}" for k, v in value.items()) + "}"
    raise TypeError(f"cannot serialize {type(value).__name__} deterministically")


def render_csv(table: ResultTable) -> bytes:
    buf = io.StringIO()
    for key, value in table.metadata.items():
        buf.write(f"# {key} = {_json_scalar(value) if isinstance(value, (dict, list)) else format_value(value)}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(table.columns)
    for row in table.rows:
        writer.writerow([format_value(v) for v in row])
    return buf.getvalue().encode("utf-8")


def render_jsonl(table: ResultTable) -> bytes:
    lines = ["{\"metadata\":" + _json_scalar(dict(table.metadata)) + "}"]
    for row in table.rows:
        body = ",".join(f"{_json_scalar(col)}:{_json_scalar(v)}" for col, v in zip(table.columns, row))
        lines.append("{" + body + "}")
    return ("\n".join(lines) + "\n").encode("utf-8")


# Output format name -> renderer.
RENDERERS = {"csv": render_csv, "jsonl": render_jsonl}


def write_results(table: ResultTable, fmt: str, dest) -> int:
    """Render and write a table; returns the number of bytes written.

    Args:
        table: the results.
        fmt: a name in ``RENDERERS``.
        dest: a filesystem path or a binary file-like object.
    """
    if fmt not in RENDERERS:
        raise ValueError(f"unknown output format {fmt!r}")
    payload = RENDERERS[fmt](table)
    if hasattr(dest, "write"):
        dest.write(payload)
    else:
        with open(dest, "wb") as fh:
            fh.write(payload)
    return len(payload)
