"""Report serialization shared by the CLI: canonical JSON written in one
pass straight from the result objects, plus aligned tables rendered from
the parsed report.

canonical_json gives, byte for byte, what json.dumps gives with indent=2,
sort_keys=True and ensure_ascii=False on the strict-JSON-safe form of the
results: a dataclass becomes the dict of its fields, a tuple a list, an
infinity or nan a string.  It writes that text itself because json falls
back to its pure-Python encoder whenever indent is set.  render_table reads
the results back from that text, so a table shows what the report says."""
from __future__ import annotations

import dataclasses
import itertools
import math
from json.encoder import encode_basestring
from typing import Sequence

JOB_SCHEMA = "growthtight/job-v1"
REPORT_SCHEMA = "growthtight/report-v1"
TOOL_NAME = "growthtight"


def canonical_json(obj) -> str:
    """Deterministic strict JSON: sorted keys, fixed indentation, newline-terminated."""
    chunks: list[str] = []
    _write(obj, chunks.append, "\n")
    chunks.append("\n")
    return "".join(chunks)


def _float_text(x: float) -> str:
    # an infinity or nan is written as a string
    if x != x:
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return float.__repr__(x)


def _key_text(key) -> str:
    """A non-string dict key as json writes it: stringified (a float key as
    json spells it, infinities included), then quoted."""
    if isinstance(key, float):
        if key != key:
            text = "NaN"
        elif math.isinf(key):
            text = "Infinity" if key > 0 else "-Infinity"
        else:
            text = float.__repr__(key)
    elif key is True:
        text = "true"
    elif key is False:
        text = "false"
    elif key is None:
        text = "null"
    elif isinstance(key, int):
        text = int.__repr__(key)
    else:
        raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
    return encode_basestring(text)


# per dataclass type: its field names in key order, and their key texts
_FIELDS: dict[type, tuple[list[str], list[str]]] = {}
_INT_ONLY = {int}


def _write(obj, put, newline: str) -> None:
    """Pass the JSON text of obj to put, piece by piece; newline is the line
    break and indentation of the line obj starts on.  Each leaf is written
    as json writes it."""
    if isinstance(obj, str):
        put(encode_basestring(obj))
    elif obj is None:
        put("null")
    elif obj is True:
        put("true")
    elif obj is False:
        put("false")
    elif isinstance(obj, int):
        put(int.__repr__(obj))
    elif isinstance(obj, float):
        put(_float_text(obj))
    elif isinstance(obj, dict):
        items = sorted(obj.items())
        _write_items(
            [(encode_basestring(k) if isinstance(k, str) else _key_text(k)) + ": " for k, _ in items],
            [v for _, v in items],
            put,
            newline,
        )
    elif isinstance(obj, (list, tuple)):
        if not obj:
            put("[]")
            return
        inner = newline + "  "
        if {*map(type, obj)} == _INT_ONLY:
            put("[" + inner + ("," + inner).join(map(int.__repr__, obj)) + newline + "]")
            return
        sep, comma = "[" + inner, "," + inner
        for value in obj:
            put(sep)
            sep = comma
            if type(value) is str:
                put(encode_basestring(value))
            else:
                _write(value, put, inner)
        put(newline + "]")
    else:
        fields = _FIELDS.get(type(obj))
        if fields is None:
            if not dataclasses.is_dataclass(obj) or isinstance(obj, type):
                raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
            names = sorted(f.name for f in dataclasses.fields(obj))
            fields = _FIELDS[type(obj)] = names, [encode_basestring(n) + ": " for n in names]
        names, keys = fields
        _write_items(keys, [getattr(obj, name) for name in names], put, newline)


def _write_items(keys: list[str], values: list, put, newline: str) -> None:
    """The JSON object of the given key texts ("key": ) and values."""
    if not keys:
        put("{}")
        return
    inner = newline + "  "
    sep, comma = "{" + inner, "," + inner
    for key, value in zip(keys, values):
        put(sep + key)
        sep = comma
        kind = type(value)
        if kind is str:
            put(encode_basestring(value))
        elif kind is int:
            put(int.__repr__(value))
        elif kind is float:
            put(_float_text(value))
        else:
            _write(value, put, inner)
    put(newline + "}")


def format_table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Aligned-column plain-text table; a short row leaves its last cells blank."""
    cells = [[str(h) for h in headers]] + [
        [str(c) for c in row] + [""] * (len(headers) - len(row)) for row in rows
    ]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    for idx, row in enumerate(cells):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        if idx == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _cell(value, fmt: str) -> str:
    # a number takes the row's format; "inf", "nan", words and the like do not
    return format(value, fmt) if isinstance(value, (int, float)) else str(value)


def render_table(table: tuple, data: dict) -> str:
    """The text view of a report's results, as json.loads reads them from
    the report.  table is (headers, rows), a row (label, dotted path of a
    results field, format); a field the results lack leaves its row out.  A
    bracket fills the lower and upper columns of a three-column table, else
    one "[lower, upper]" cell; a list shows its length.  rows None is the
    per-radius table of the spheres and balls."""
    headers, spec = table
    rows = list(zip(itertools.count(), data["spheres"], data["balls"])) if spec is None else []
    for label, path, fmt in spec or ():
        value = data
        for key in path.split("."):
            value = value.get(key) if isinstance(value, dict) else None
        if value is None:
            continue
        if isinstance(value, dict):
            lower, upper = _cell(value["lower"], fmt), _cell(value["upper"], fmt)
            cells = (lower, upper) if len(headers) == 3 else (f"[{lower}, {upper}]",)
            rows.append((label, *cells))
        else:
            rows.append((label, len(value) if isinstance(value, list) else _cell(value, fmt)))
    return format_table(headers, rows)


def build_report(version: str, job: dict, results: dict) -> dict:
    return {
        "schema": REPORT_SCHEMA,
        "tool": {"name": TOOL_NAME, "version": version},
        "job": job,
        "results": results,
    }