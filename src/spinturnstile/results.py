"""Tabular results with deterministic CSV / JSON-lines rendering.

Output is byte-deterministic: fixed '\\n' line endings, floats rendered with
17 significant digits (which round-trips IEEE doubles exactly), metadata in
fixed key order. CSV carries the metadata as '#'-prefixed preamble lines
before the header row and quotes fields per RFC 4180; JSONL emits the
metadata as the first object, then one object per row.
"""

import csv
import functools
import io
import json
from dataclasses import dataclass, field

__all__ = ["ResultTable", "JsonText", "RENDERERS", "render_csv", "render_jsonl", "write_results",
           "format_value"]


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


class JsonText(str):
    """A metadata value that is already JSON text: both renderers write it as
    it is, where a plain string would be a JSON string in JSONL."""


def format_value(value) -> str:
    """Render a scalar deterministically; floats at 17 significant digits."""
    if isinstance(value, float):  # the most common cell first
        return format(value, ".17g")
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    return str(value)


@functools.cache
def _json_key(key: str) -> str:
    """A JSON object key with its colon, encoded once per process: the keys
    are the configuration schema's and the tables' few dozen names."""
    return json.dumps(key) + ":"


def _json_value(value) -> str:
    """JSON text of a scalar, list, tuple or dict, for CSV metadata and JSONL.

    A float is written at 17 significant digits; JSON has no NaN or
    infinity, so a non-finite float is the string of its CSV text ("nan",
    "inf", "-inf") and ``null`` stays a missing value. A :class:`JsonText`
    is written as it is. Exact types are tested first; their subclasses
    (e.g. ``numpy.float64``) take the ``isinstance`` tests after them.
    """
    kind = type(value)
    if kind is float:
        text = format(value, ".17g")
        return text if value - value == 0.0 else f'"{text}"'  # inf - inf and nan are nan
    if kind is dict:
        # str(k) before the cache, which would take the key 1 for True
        return "{" + ",".join([_json_key(k if type(k) is str else str(k)) + _json_value(v)
                               for k, v in value.items()]) + "}"
    if kind is list or kind is tuple:
        return "[" + ",".join([_json_value(v) for v in value]) + "]"
    if kind is str:
        return json.dumps(value)
    if kind is int:
        return str(value)
    if value is None:
        return "null"
    if kind is bool:
        return "true" if value else "false"
    if kind is JsonText:
        return value
    for base in (float, int, str, list, tuple, dict):  # a subclass, written as its base
        if isinstance(value, base):
            return _json_value(base(value))
    raise TypeError(f"cannot serialize {kind.__name__} deterministically")


def render_csv(table: ResultTable) -> bytes:
    buf = io.StringIO()
    for key, value in table.metadata.items():
        buf.write(f"# {key} = {_json_value(value) if isinstance(value, (dict, list)) else format_value(value)}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(table.columns)
    for row in table.rows:
        writer.writerow([format_value(v) for v in row])
    return buf.getvalue().encode("utf-8")


def render_jsonl(table: ResultTable) -> bytes:
    lines = ["{\"metadata\":" + _json_value(dict(table.metadata)) + "}"]
    keys = [_json_key(str(col)) for col in table.columns]
    for row in table.rows:
        lines.append("{" + ",".join([key + _json_value(v) for key, v in zip(keys, row)]) + "}")
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
