"""Deterministic emission of reports and tables.

Floats are printed with 17 significant digits everywhere, which round-trips
IEEE doubles bit-faithfully, so emitted JSON and CSV diff cleanly across
runs and machines.  CSV uses a header row, '.' decimals, UTF-8 and LF; a
cell holding a comma, a double quote or a line break is quoted as in
RFC 4180 (the quote doubled), and every other cell is written bare.
"""

from __future__ import annotations

import json
import math
from typing import Iterable

import numpy as np

ROW_BLOCK = 1 << 12  # rows of a float table formatted per string

# a JSON string literal, escaped as RFC 8259 requires; other characters pass as they are
_quote = json.JSONEncoder(ensure_ascii=False).encode


def format_float(x: float) -> str:
    if isinstance(x, float):
        if math.isnan(x):
            return "NaN"
        if math.isinf(x):
            return "Infinity" if x > 0 else "-Infinity"
    return f"{x:.17g}"


def dumps(obj, indent: int = 2) -> str:
    """JSON text with 17-significant-digit floats and stable key order."""
    pieces: list[str] = []
    _emit(obj, pieces, indent, 0)
    return "".join(pieces) + "\n"


def _emit(obj, out: list[str], indent: int, level: int) -> None:
    pad = " " * (indent * level)
    inner = " " * (indent * (level + 1))
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, str):
        out.append(_quote(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        items = list(obj.items())
        for i, (k, v) in enumerate(items):
            if not isinstance(k, str):
                raise TypeError(f"JSON object keys must be strings, got {k!r}")
            out.append(f"{inner}{_quote(k)}: ")
            _emit(v, out, indent, level + 1)
            out.append(",\n" if i + 1 < len(items) else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        out.append("[\n")
        for i, v in enumerate(obj):
            out.append(inner)
            _emit(v, out, indent, level + 1)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dump_json(obj, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps(obj))


def write_csv(
    path, columns: Iterable[str], rows: Iterable[dict], counts: Iterable[int] | None = None
) -> None:
    """Write dict rows under a fixed header; floats get 17 digits.

    With `counts`, the i-th row stands for counts[i] rows that differ only in
    the first column, a running index from 0 that the dicts leave out; the
    text of their other cells is rendered once.
    """
    cols = list(columns)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(cols) + "\n")
        if counts is None:
            for row in rows:
                fh.write(_line(row, cols))
            return
        start = 0
        for count, row in zip(counts, rows, strict=True):
            rest = _line(row, cols[1:])
            fh.write("".join(f"{i},{rest}" for i in range(start, start + count)))
            start += count


def write_table(path, columns: Iterable[str], table: np.ndarray) -> None:
    """Write a 2-D float table as write_csv writes its rows; NaN and inf are refused."""
    cols = list(columns)
    for i, j in np.argwhere(~np.isfinite(table))[:1]:
        raise ValueError(f"table cell [{i}, {j}] is {table[i, j]}")
    line = ",".join(["%.17g"] * len(cols)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(cols) + "\n")
        for start in range(0, len(table), ROW_BLOCK):
            rows = table[start : start + ROW_BLOCK]
            fh.write(line * len(rows) % tuple(rows.ravel().tolist()))


def _line(row: dict, cols: list[str]) -> str:
    return ",".join([_cell(row.get(c, "")) for c in cols]) + "\n"


def _cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format_float(v)
    if v is None:
        return ""
    text = str(v)
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        text = '"' + text.replace('"', '""') + '"'
    return text
