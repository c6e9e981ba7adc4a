"""Deterministic result files: JSON reports and CSV tables.

Every writer is pure formatting: sorted JSON keys and 17-significant-digit
CSV decimals, so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import json

import numpy as np

SCHEMA_VERSION = 5


def _plain(obj):
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_plain(obj), fh, sort_keys=True, indent=2)
        fh.write("\n")


_QUOTED = frozenset(',"\r\n')


def csv_cell(v) -> str:
    """One CSV cell; text with a comma, quote or line break is quoted (RFC 4180)."""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if v is None:
        return ""
    s = str(v)
    if _QUOTED.isdisjoint(s):
        return s
    return '"' + s.replace('"', '""') + '"'


def csv_lines(header, rows):
    """The newline-ended lines of a CSV table, yielded one row at a time.

    rows is an iterable of rows of cells, or a 2-D float array, formatted
    from each row's Python floats by one %-format string per row: "%.17g"
    gives the bytes csv_cell gives each entry, and an integral entry below
    2**53 the bytes it gives the integer. Converting row by row keeps one
    row of Python floats live, not the whole table.
    """
    yield ",".join(csv_cell(h) for h in header) + "\n"
    if isinstance(rows, np.ndarray) and rows.dtype.kind == "f":
        fmt = ",".join(["%.17g"] * rows.shape[1]) + "\n"
        for row in rows:
            yield fmt % tuple(row.tolist())
    else:
        for row in rows:
            yield ",".join(csv_cell(v) for v in row) + "\n"


def write_csv(path, header, rows) -> None:
    """Write csv_lines(header, rows) to path, streaming row by row."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.writelines(csv_lines(header, rows))

