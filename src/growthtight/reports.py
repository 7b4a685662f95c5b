"""Report serialization shared by the CLI: canonical JSON plus aligned tables
rendered from the results."""
from __future__ import annotations

import dataclasses
import itertools
import json
import math
from typing import Sequence

JOB_SCHEMA = "growthtight/job-v1"
REPORT_SCHEMA = "growthtight/report-v1"
TOOL_NAME = "growthtight"


def _sanitize(obj):
    """Strict-JSON-safe form of a result: a dataclass becomes the dict of its
    fields, a tuple a list, an infinity or nan a string."""
    # most leaves are ints and strings, so they are returned before any other test
    if obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        if math.isnan(obj):
            return "nan"
        return obj
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _sanitize(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    return obj


def canonical_json(obj) -> str:
    """Deterministic strict JSON: sorted keys, fixed indentation, newline-terminated."""
    return json.dumps(_sanitize(obj), indent=2, sort_keys=True, ensure_ascii=False) + "\n"


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


def render_table(table: tuple, results) -> str:
    """The text view of a report's results.  table is (headers, rows), a row
    (label, dotted path of a results field, format); a field the results lack
    leaves its row out.  A bracket fills the lower and upper columns of a
    three-column table, else one "[lower, upper]" cell; a list shows its
    length.  rows None is the per-radius table of the spheres and balls."""
    data = _sanitize(results)
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