"""Deterministic result files: JSON reports, CSV tables, hand-drawn SVG plots.

Every writer is pure formatting: sorted JSON keys, 17-significant-digit CSV
decimals, and fixed-precision SVG coordinates, so identical inputs produce
byte-identical files.
"""

from __future__ import annotations

import json
from itertools import chain

import numpy as np

SCHEMA_VERSION = 3


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


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if hi <= lo:
        return [lo]
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


_W, _H, _PAD = 640, 420, 60
_COLORS = ["#1f5fbf", "#bf3f1f", "#2f8f2f", "#8f2f8f", "#8f8f2f", "#2f8f8f"]


def _map(v, lo, hi, out_lo, out_hi):
    if hi <= lo:
        return (out_lo + out_hi) / 2.0
    return out_lo + (v - lo) * (out_hi - out_lo) / (hi - lo)


def line_plot(path, series, title: str = "", xlabel: str = "",
              ylabel: str = "", logy: bool = False) -> None:
    """series: list of (label, xs, ys) triples drawn as polylines."""
    xs_all = np.concatenate([np.asarray(s[1], dtype=float) for s in series])
    ys_all = np.concatenate([np.asarray(s[2], dtype=float) for s in series])
    if logy:
        ys_all = np.log10(np.maximum(ys_all, 1e-300))
    x_lo, x_hi = float(np.min(xs_all)), float(np.max(xs_all))
    y_lo, y_hi = float(np.min(ys_all)), float(np.max(ys_all))
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
             f'viewBox="0 0 {_W} {_H}">',
             f'<rect width="{_W}" height="{_H}" fill="white"/>',
             f'<text x="{_W // 2}" y="24" text-anchor="middle" font-size="15">{title}</text>']
    ax = (_PAD, _W - _PAD, _H - _PAD, _PAD)
    parts.append(f'<line x1="{ax[0]}" y1="{ax[2]}" x2="{ax[1]}" y2="{ax[2]}" stroke="black"/>')
    parts.append(f'<line x1="{ax[0]}" y1="{ax[2]}" x2="{ax[0]}" y2="{ax[3]}" stroke="black"/>')
    for t in _ticks(x_lo, x_hi):
        px = _map(t, x_lo, x_hi, ax[0], ax[1])
        parts.append(f'<line x1="{px:.2f}" y1="{ax[2]}" x2="{px:.2f}" y2="{ax[2] + 5}" stroke="black"/>')
        parts.append(f'<text x="{px:.2f}" y="{ax[2] + 20}" text-anchor="middle" font-size="11">{t:.4g}</text>')
    for t in _ticks(y_lo, y_hi):
        py = _map(t, y_lo, y_hi, ax[2], ax[3])
        label = f"1e{t:.2f}" if logy else f"{t:.4g}"
        parts.append(f'<line x1="{ax[0] - 5}" y1="{py:.2f}" x2="{ax[0]}" y2="{py:.2f}" stroke="black"/>')
        parts.append(f'<text x="{ax[0] - 8}" y="{py + 4:.2f}" text-anchor="end" font-size="11">{label}</text>')
    parts.append(f'<text x="{_W // 2}" y="{_H - 12}" text-anchor="middle" font-size="12">{xlabel}</text>')
    parts.append(f'<text x="16" y="{_H // 2}" text-anchor="middle" font-size="12" '
                 f'transform="rotate(-90 16 {_H // 2})">{ylabel}</text>')
    for k, (label, xs, ys) in enumerate(series):
        ys = np.asarray(ys, dtype=float)
        if logy:
            ys = np.log10(np.maximum(ys, 1e-300))
        pts = " ".join(
            f"{_map(float(x), x_lo, x_hi, ax[0], ax[1]):.2f},"
            f"{_map(float(y), y_lo, y_hi, ax[2], ax[3]):.2f}"
            for x, y in zip(np.asarray(xs, dtype=float), ys))
        color = _COLORS[k % len(_COLORS)]
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{ax[1] - 4}" y="{ax[3] + 14 + 14 * k}" text-anchor="end" '
                     f'font-size="11" fill="{color}">{label}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")


def scatter_plot(path, xy, values, title: str = "") -> None:
    """Heat-map style scatter: planar positions colored by value."""
    xy = np.asarray(xy, dtype=float)
    values = np.asarray(values, dtype=float)
    x_lo, x_hi = float(np.min(xy[:, 0])), float(np.max(xy[:, 0]))
    y_lo, y_hi = float(np.min(xy[:, 1])), float(np.max(xy[:, 1]))
    v_lo, v_hi = float(np.min(values)), float(np.max(values))
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
             f'viewBox="0 0 {_W} {_H}">',
             f'<rect width="{_W}" height="{_H}" fill="white"/>',
             f'<text x="{_W // 2}" y="24" text-anchor="middle" font-size="15">{title}</text>']
    ax = (_PAD, _W - _PAD, _H - _PAD, _PAD)
    # _map on a column does each point's float operations in the scalar
    # order, so every coordinate rounds as a scalar _map would
    n = len(xy)
    px = np.broadcast_to(_map(xy[:, 0], x_lo, x_hi, ax[0], ax[1]), n)
    py = np.broadcast_to(_map(xy[:, 1], y_lo, y_hi, ax[2], ax[3]), n)
    t = (np.full(values.shape, 0.5) if v_hi == v_lo
         else (values - v_lo) / (v_hi - v_lo))
    if not np.isfinite(t).all():
        raise ValueError("plotted values must be finite")
    # astype truncates toward zero, as int() does; green is 64, hex 40
    red = (40 + 215 * t).astype(int)
    blue = (255 - 215 * t).astype(int)
    fields = tuple(chain.from_iterable(zip(px.tolist(), py.tolist(),
                                           red.tolist(), blue.tolist())))
    circle = '<circle cx="%.2f" cy="%.2f" r="3" fill="#%02x40%02x"/>'
    parts.append("\n".join([circle] * (len(fields) // 4)) % fields)
    parts.append(f'<text x="{ax[0]}" y="{_H - 12}" font-size="11">'
                 f'value range [{v_lo:.6g}, {v_hi:.6g}]</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
