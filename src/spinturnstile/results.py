"""Tabular results with deterministic CSV / JSON-lines rendering.

Output is byte-deterministic: fixed '\\n' line endings, floats rendered with
17 significant digits (which round-trips IEEE doubles exactly), metadata in
fixed key order. CSV carries the metadata as '#'-prefixed preamble lines
before the header row and quotes fields per RFC 4180, as the csv module's
minimal quoting does; each row is written by one ``%``-template chosen by
the exact types of its cells. JSONL emits the metadata as the first object,
then one object per row. :func:`_time_texts` writes the time texts of a
grid's seed texts and echo, each distinct time's once.

Each format is rendered as a stream of text pieces: a metadata line (a JSONL
metadata entry) as its head, its value and its end, a long text value such
as the echo of the configuration in slices of itself, and the rows in blocks.
:func:`write_results` encodes and writes the pieces one by one, so it holds
neither the document, nor its encoding, nor a copy of a large text value;
:func:`render_csv` and :func:`render_jsonl` are the bytes of the same
pieces joined.
"""

import contextlib
import functools
import json
import re
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


def _time_texts(times, fmt: str) -> list:
    """``fmt % t`` of each of ``times``, made once per distinct nonzero float.
    A zero or a time that is not a float is formatted at each row, since
    ``0.0 == -0.0`` and ``1 == 1.0`` as dict keys while their texts differ."""
    shared = {t: fmt % t for t in {t for t in times if type(t) is float and t}}
    return [shared[t] if type(t) is float and t else fmt % t for t in times]


def _json_key(key: str) -> str:
    """A JSON object key with its colon."""
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
        # a key that is not a string is written as the JSON string of its str
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


# The CSV slot of a cell of each exact type whose text never needs quoting:
# format_value's text of a float and an int, and nothing of None.
_CSV_SLOTS = {float: "%.17g", int: "%d", type(None): "%.0s"}
_needs_quotes = re.compile('[,"\n]').search


@functools.lru_cache(maxsize=256)
def _csv_format(kinds: tuple) -> tuple:
    """The ``%``-template of a CSV line whose cells have the exact types
    ``kinds``, and the places of the cells it takes as text (:func:`_csv_text`)."""
    return (",".join([_CSV_SLOTS.get(kind, "%s") for kind in kinds]) + "\n",
            tuple(k for k, kind in enumerate(kinds) if kind not in _CSV_SLOTS))


def _csv_text(value) -> str:
    """A cell's CSV field by its :func:`format_value` text, quoted with its
    quotes doubled where it holds a comma, a quote or a newline."""
    text = value if type(value) is str else format_value(value)
    return '"' + text.replace('"', '""') + '"' if _needs_quotes(text) else text


def _csv_line(row) -> str:
    """One CSV line of a row's cells, by the template of their types."""
    template, texts = _csv_format(tuple(map(type, row)))
    if texts:
        row = list(row)
        for k in texts:
            row[k] = _csv_text(row[k])
    line = template % tuple(row)
    # a row of one empty field is written "", so that it is not a blank line
    return '""\n' if line == "\n" and len(row) == 1 else line


# The metadata values a CSV preamble line writes by format_value; any other
# is written as JSON, as in JSONL.
_CSV_SCALARS = (type(None), bool, int, float, str)
# The characters of a text value in one piece, and the rows in one piece.
_SLICE = 1 << 16
_ROW_BLOCK = 256


def _slices(text: str):
    """``text`` in pieces of at most ``_SLICE`` characters; a text that fits
    in one is that text itself, not a copy."""
    if len(text) <= _SLICE:
        yield text
    else:
        for start in range(0, len(text), _SLICE):
            yield text[start:start + _SLICE]


def _blocks(line, rows):
    """The ``line`` texts of ``rows``, ``_ROW_BLOCK`` rows to a piece."""
    for start in range(0, len(rows), _ROW_BLOCK):
        yield "".join(map(line, rows[start:start + _ROW_BLOCK]))


def _csv_pieces(table: ResultTable):
    """The CSV text of a table in pieces: each preamble line as its head, its
    value and its newline, a text value in slices as it is; then the header
    and the rows in blocks."""
    for key, value in table.metadata.items():
        yield f"# {key} = "
        if isinstance(value, str):  # format_value's text of it, without its str copy
            yield from _slices(value)
        else:
            yield format_value(value) if isinstance(value, _CSV_SCALARS) else _json_value(value)
        yield "\n"
    yield _csv_line(table.columns)
    yield from _blocks(_csv_line, table.rows)


def _jsonl_pieces(table: ResultTable):
    """The JSON-lines text of a table in pieces: the metadata object key by
    key, a :class:`JsonText` value in slices as it is; then the rows in blocks."""
    yield '{"metadata":{'
    for i, (key, value) in enumerate(dict(table.metadata).items()):
        # a key that is not a string is written as the JSON string of its str
        yield ("," if i else "") + _json_key(key if type(key) is str else str(key))
        if type(value) is JsonText:
            yield from _slices(value)
        else:
            yield _json_value(value)
    yield "}}\n"
    keys = [_json_key(str(col)) for col in table.columns]

    def line(row) -> str:
        return "{" + ",".join([key + _json_value(v) for key, v in zip(keys, row)]) + "}\n"

    yield from _blocks(line, table.rows)


def render_csv(table: ResultTable) -> bytes:
    return "".join(_csv_pieces(table)).encode("utf-8")


def render_jsonl(table: ResultTable) -> bytes:
    return "".join(_jsonl_pieces(table)).encode("utf-8")


# Output format name -> renderer, and the pieces it joins.
RENDERERS = {"csv": render_csv, "jsonl": render_jsonl}
_PIECES = {"csv": _csv_pieces, "jsonl": _jsonl_pieces}


def write_results(table: ResultTable, fmt: str, dest) -> int:
    """Render and write a table piece by piece; returns the number of bytes
    written, the bytes of ``RENDERERS[fmt](table)``. No piece holds more than
    one slice of a text value or one block of rows, so the write holds no
    copy of the whole document or of its large texts; a table that fails to
    render leaves the pieces before the failure written.

    Args:
        table: the results.
        fmt: a name in ``RENDERERS``.
        dest: a filesystem path or a binary file-like object.
    """
    if fmt not in RENDERERS:
        raise ValueError(f"unknown output format {fmt!r}")
    n = 0
    with contextlib.nullcontext(dest) if hasattr(dest, "write") else open(dest, "wb") as fh:
        for piece in _PIECES[fmt](table):
            data = piece.encode("utf-8")
            fh.write(data)
            n += len(data)
    return n
