"""Deterministic result files: JSON reports, CSV tables, hand-drawn SVG plots.

Every writer is pure formatting: sorted JSON keys, 17-significant-digit CSV
decimals, and fixed-precision SVG coordinates, so identical inputs produce
byte-identical files.
"""

from __future__ import annotations

import json

import numpy as np

SCHEMA_VERSION = 1


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


def csv_cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if v is None:
        return ""
    return str(v)


def write_csv(path, header, rows) -> None:
    """One line per row; rows is an iterable of rows of cells, or a 2-D float array.

    A float array is formatted from its Python floats one row at a time, by
    one %-format string per row; "%.17g" gives the bytes csv_cell gives each
    entry, and an integral entry below 2**53 the bytes it gives the integer.
    """
    if isinstance(rows, np.ndarray) and rows.dtype.kind == "f":
        fmt = ",".join(["%.17g"] * rows.shape[1])
        lines = (fmt % tuple(row) for row in rows.tolist())
    else:
        lines = (",".join(csv_cell(v) for v in row) for row in rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(str(h) for h in header) + "\n")
        for line in lines:
            fh.write(line + "\n")


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
    for (x, y), v in zip(xy, values):
        t = 0.5 if v_hi == v_lo else (v - v_lo) / (v_hi - v_lo)
        r, g, b = int(40 + 215 * t), 64, int(255 - 215 * t)
        px = _map(x, x_lo, x_hi, ax[0], ax[1])
        py = _map(y, y_lo, y_hi, ax[2], ax[3])
        parts.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="3" '
                     f'fill="#{r:02x}{g:02x}{b:02x}"/>')
    parts.append(f'<text x="{ax[0]}" y="{_H - 12}" font-size="11">'
                 f'value range [{v_lo:.6g}, {v_hi:.6g}]</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
