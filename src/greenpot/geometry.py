"""Deterministic point-cloud generators and CSV I/O.

All generators are pure functions of their parameters: no hidden randomness.
Rotational offsets are explicit arguments so staggered multi-layer builds stay
reproducible. Each generator computes its point count from its parameters
before it allocates; a count below 1 or above MAX_POINTS is a ValidationError.
A CSV cloud of more than MAX_POINTS rows is one too, raised before its array
is built.
"""

from __future__ import annotations

import csv

import numpy as np

from .core import PointSet, ValidationError

_GOLDEN = np.pi * (1 + 5 ** 0.5)

# Most points a generator may produce and a cloud may hold: a dense kernel on
# this many points takes 80 GB, so the cap refuses no cloud that a desk-scale
# run could finish.
MAX_POINTS = 100_000


def _point_count(total, name: str):
    """total, a point count computed before allocation, if it is 1 to MAX_POINTS."""
    if not 1 <= total <= MAX_POINTS:
        raise ValidationError(f"{name} asks for {total:.15g} points; a generator "
                              f"makes 1 to {MAX_POINTS}")
    return total


def _integer(count) -> int:
    """count as an int from 1 to MAX_POINTS; a bool or a value of a
    non-integer type raises TypeError."""
    if isinstance(count, bool) or not isinstance(count, (int, np.integer)):
        raise TypeError(f"count must be an integer, got {count!r}")
    return _point_count(int(count), "count")


def box_grid(lo, hi, spacing: float) -> np.ndarray:
    """Uniform grid on an axis-aligned box, endpoints included."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if (lo.shape != hi.shape or not np.all(np.isfinite(lo) & np.isfinite(hi))
            or np.any(hi <= lo)):
        raise ValidationError("box_grid needs finite lo < hi componentwise")
    if not 0 < spacing < np.inf:
        raise ValidationError("spacing must be positive and finite")
    # np.arange's own length, ceil((stop - start) / step), axis by axis
    _point_count(np.prod(np.ceil((hi + spacing / 2 - lo) / spacing)), "box_grid")
    axes = [np.arange(a, b + spacing / 2, spacing) for a, b in zip(lo, hi)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def sphere_shell(count: int, radius: float = 1.0, center=(0.0, 0.0, 0.0),
                 rotate: float = 0.0) -> np.ndarray:
    """Fibonacci-spiral sample of a sphere surface in R^3."""
    count = _integer(count)
    i = np.arange(count) + 0.5
    phi = np.arccos(1 - 2 * i / count)
    th = _GOLDEN * i + rotate
    pts = radius * np.stack(
        [np.sin(phi) * np.cos(th), np.sin(phi) * np.sin(th), np.cos(phi)], axis=1)
    return pts + np.asarray(center, dtype=float)


def spherical_cap(count: int, cos_half_angle: float, radius: float = 1.0,
                  rotate: float = 0.0) -> np.ndarray:
    """Fibonacci sample of the cap {angle from +z <= arccos(cos_half_angle)}."""
    count = _integer(count)
    if not -1.0 < cos_half_angle < 1.0:
        raise ValidationError("cos_half_angle must lie in (-1, 1)")
    i = np.arange(count) + 0.5
    u = 1 - (1 - cos_half_angle) * i / count
    phi = np.arccos(u)
    th = _GOLDEN * i + rotate
    return radius * np.stack(
        [np.sin(phi) * np.cos(th), np.sin(phi) * np.sin(th), np.cos(phi)], axis=1)


def ball_grid(spacing: float, radius: float = 1.0, center=(0.0, 0.0, 0.0)) -> np.ndarray:
    """Cubic-grid points inside a solid ball in R^3."""
    g = box_grid([-radius] * 3, [radius] * 3, spacing)
    g = g[np.linalg.norm(g, axis=1) <= radius]
    return g + np.asarray(center, dtype=float)


def annulus(count_per_ring: int, radii, center=(0.0, 0.0, 0.0)) -> np.ndarray:
    """Concentric Fibonacci shells at the given radii (a sampled annulus)."""
    _point_count(_integer(count_per_ring) * len(radii), "annulus")
    layers = [sphere_shell(count_per_ring, r, center, rotate=0.61 * k)
              for k, r in enumerate(radii)]
    return np.vstack(layers)


def layered_ball(radii, counts, rotations=None, include_center: bool = True) -> np.ndarray:
    """Solid ball sampled as concentric Fibonacci layers with explicit counts."""
    radii = list(radii)
    counts = list(counts)
    if rotations is None:
        rotations = [0.61 * k for k in range(len(radii))]
    if not len(radii) == len(counts) == len(rotations):
        raise ValidationError("radii, counts and rotations must have equal length")
    _point_count(sum(map(_integer, counts)) + bool(include_center), "layered_ball")
    layers = [sphere_shell(m, r, rotate=rot)
              for r, m, rot in zip(radii, counts, rotations)]
    if include_center:
        layers.append(np.zeros((1, 3)))
    return np.vstack(layers)


def truncated_cone(shells: int, ratio: float = 1.45, inner_radius: float = 1.0,
                   points_per_shell: int = 28, cos_half_angle: float = 0.825,
                   sublayers: int = 2) -> np.ndarray:
    """Solid cone sample: radial stack of spherical-cap layers around +z.

    Shell s occupies radii [inner_radius * ratio^s, inner_radius * ratio^(s+1));
    each shell holds `sublayers` cap layers of `points_per_shell` points, so
    point spacing grows proportionally to the radius.
    """
    if ratio <= 1:
        raise ValidationError("ratio must exceed 1")
    _point_count(_integer(shells) * _integer(sublayers) * _integer(points_per_shell),
            "truncated_cone")
    parts = []
    rho = inner_radius
    for s in range(shells):
        for sub in range(sublayers):
            r = rho * (1 + (sub / sublayers) * (ratio - 1))
            parts.append(spherical_cap(points_per_shell, cos_half_angle, r,
                                       rotate=0.77 * (sublayers * s + sub)))
        rho *= ratio
    return np.vstack(parts)


def plane_rings(ring_start: float, ring_max: float, ratio: float,
                z: float = 0.0) -> np.ndarray:
    """Polar grid on the plane {z = const}: geometric rings, constant ring counts.

    With ring radii r_k = ring_start * ratio^k and 2*pi/(ratio-1) points per
    ring, the radial gap and the in-ring spacing agree at every ring, so cells
    stay isotropic from the center out to ring_max.
    """
    if not 1 < ratio < np.inf:
        raise ValidationError("ratio must exceed 1 and be finite")
    # any other start or end would leave the ring loop running forever
    if not (0 < ring_start < np.inf and np.isfinite(ring_max)):
        raise ValidationError("ring_start must be positive and finite, "
                              "ring_max finite")
    per_ring = max(6, int(round(2 * np.pi / (ratio - 1))))
    # radii ring_start * ratio^k up to ring_max, counted by one logarithm
    rings = (np.floor(np.log(ring_max / ring_start) / np.log(ratio)) + 1
             if ring_max >= ring_start else 0)
    _point_count(1 + per_ring * rings, "plane_rings")
    parts = [np.array([[0.0, 0.0, z]])]
    r = ring_start
    k = 0
    while r <= ring_max:
        th = 2 * np.pi * (np.arange(per_ring) + 0.5 * (k % 2)) / per_ring
        ring = np.stack([r * np.cos(th), r * np.sin(th), np.full(per_ring, z)], axis=1)
        parts.append(ring)
        r *= ratio
        k += 1
    return np.vstack(parts)


def circle_ring(count: int, radius: float = 1.0, center=(0.0, 0.0),
                rotate: float = 0.0) -> np.ndarray:
    """Evenly spaced points on a circle in R^2."""
    count = _integer(count)
    th = 2 * np.pi * np.arange(count) / count + rotate
    pts = radius * np.stack([np.cos(th), np.sin(th)], axis=1)
    return pts + np.asarray(center, dtype=float)


GENERATORS = {
    "box_grid": box_grid,
    "sphere_shell": sphere_shell,
    "spherical_cap": spherical_cap,
    "ball_grid": ball_grid,
    "annulus": annulus,
    "layered_ball": layered_ball,
    "truncated_cone": truncated_cone,
    "plane_rings": plane_rings,
    "circle_ring": circle_ring,
}


def load_csv(path) -> PointSet:
    """Read a cloud from CSV: one row per point, n coordinates, optional last
    column `cell_radius`. A header row is detected by non-numeric cells, and
    only a header whose last cell is `cell_radius` or `radius` marks a radius
    column: every cell of a headerless row is a coordinate. Reading stops
    at the first data row past MAX_POINTS, a ValidationError."""
    rows = []
    radius_header = False
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            row = [c.strip() for c in row if c.strip() != ""]
            if not row:
                continue
            try:
                rows.append([float(c) for c in row])
            except ValueError:
                if rows:
                    raise ValidationError(f"non-numeric row in {path}: {row}")
                radius_header = row[-1].lower() in ("cell_radius", "radius")
                continue
            if len(rows) > MAX_POINTS:
                raise ValidationError(f"{path} holds more than {MAX_POINTS} "
                                      f"points; a cloud has 1 to {MAX_POINTS}")
    if not rows:
        raise ValidationError(f"no data rows in {path}")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValidationError(f"ragged rows in {path}")
    arr = np.asarray(rows)
    if radius_header:
        if width < 3:
            raise ValidationError(f"radius column leaves dim < 2 in {path}")
        return PointSet(arr[:, :-1], arr[:, -1])
    return PointSet.from_points(arr)


def save_csv(path, ps: PointSet) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i}" for i in range(ps.dim)] + ["cell_radius"])
        for p, r in zip(ps.points, ps.cell_radius):
            writer.writerow([f"{v:.17g}" for v in p] + [f"{r:.17g}"])
