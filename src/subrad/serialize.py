"""Deterministic emission of reports and tables.

JSON comes from the standard `json` module: floats as Python's shortest
round-trip text, keys in insertion order, strings escaped as RFC 8259
requires and non-ASCII written as it is.  CSV floats have 17 significant
digits.  Both round-trip IEEE doubles bit for bit, so emitted files diff
cleanly across runs and machines, and every writer refuses NaN and
infinities before it opens its file.  CSV uses a header row, '.' decimals,
UTF-8 and LF; a cell holding a comma, a double quote or a line break is
quoted as in RFC 4180 (the quote doubled), and every other cell is written
bare.
"""

from __future__ import annotations

import json
import math
from typing import Iterable

import numpy as np

ROW_BLOCK = 1 << 12  # rows of a float table formatted per string


def dump_json(obj, path) -> None:
    """Write obj as 2-space-indented JSON; NaN and inf are refused before the file opens."""
    text = json.dumps(obj, indent=2, ensure_ascii=False, allow_nan=False) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def write_csv(
    path, columns: Iterable[str], rows: Iterable[dict], counts: Iterable[int] | None = None
) -> None:
    """Write dict rows under a fixed header; floats get 17 digits, NaN and inf are refused.

    With `counts`, the i-th row stands for counts[i] rows that differ only in
    the first column, a running index from 0 that the dicts leave out; the
    text of their other cells is rendered once.  Every line is rendered
    before the file opens, so a refused cell leaves no file.
    """
    cols = list(columns)
    if counts is None:
        lines = [_line(row, cols) for row in rows]
    else:
        lines, start = [], 0
        for count, row in zip(counts, rows, strict=True):
            rest = _line(row, cols[1:])
            lines.append("".join(f"{i},{rest}" for i in range(start, start + count)))
            start += count
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(cols) + "\n")
        fh.writelines(lines)


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
    return ",".join([_cell(row.get(c, ""), c) for c in cols]) + "\n"


def _cell(v, column: str) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        if not math.isfinite(v):
            raise ValueError(f"cell of column {column} is {v}")
        return f"{v:.17g}"
    if v is None:
        return ""
    text = str(v)
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        text = '"' + text.replace('"', '""') + '"'
    return text
