"""Kelvin's Green kernel of a ball as a hand-made Green system.

At alpha = 2 in R^3 the Green kernel of the ball B_R is Kelvin's
G(x, y) = 1/|x - y| - R / (|x| |y - x*|), with x* = R^2 x / |x|^2. Since
|x|^2 |y - x*|^2 / R^2 = |x - y|^2 + (R^2 - |x|^2)(R^2 - |y|^2) / R^2, the
regular part is 1 / sqrt(|x - y|^2 + a_x a_y / R^2) with a_x = R^2 - |x|^2:
symmetric in x and y, 1/R at x = 0 and R / a_x on the diagonal. The system
built here carries that kernel on a cloud with no complement sample, so a
Gauss problem on it has no error from sampling the complement. It is an
oracle for tests, not a library route.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial.distance import cdist

from greenpot import geometry
from greenpot.core import (DiscreteMeasure, DomainConfig, PointSet,
                           nearest_neighbor_distances)
from greenpot.green import GreenSystem, _system
from greenpot.riesz import _symmetric_kernel

# The concentric shells of F in B_2, each with round(250 s^2) points.
SHELLS = (1.0, 1.3, 1.55, 1.75, 1.875, 1.95)


def kelvin_green(points: np.ndarray, radius: float, diag_self: np.ndarray) -> np.ndarray:
    """Kelvin's Green matrix of B_radius on points inside it, exactly
    symmetric, with diagonal diag_self minus the regular part R / a_x."""
    a = radius ** 2 - np.einsum("ij,ij->i", points, points)
    d2 = cdist(points, points, "sqeuclidean")
    regular = np.multiply.outer(a, a)
    regular /= radius ** 2
    regular += d2
    np.sqrt(regular, out=regular)
    with np.errstate(divide="ignore"):
        np.sqrt(d2, out=d2)
        np.divide(1.0, d2, out=d2)
    d2 -= np.reciprocal(regular, out=regular)
    np.fill_diagonal(d2, diag_self - radius / a)
    return d2


def kelvin_shells(radius: float = 2.0, sigma: float = 0.5, shells=SHELLS,
                  density: float = 250.0) -> tuple[GreenSystem, DiscreteMeasure]:
    """The Green system of B_radius on F, the shells, and Omega, the origin,
    with Y empty, and the unit charge at the origin.

    The k-th shell is sphere_shell(round(density s^2), s, rotate=0.37 k).
    A point's self-energy is the Riesz cell's 1 / (sigma r) with r half its
    nearest-neighbour distance within its own shell (the origin's: to the
    nearest shell point). F leads D, so green._system certifies the
    system and hands it the guide of its F block, as for a sampled build.
    """
    parts = [geometry.sphere_shell(round(density * s * s), s, rotate=0.37 * k)
             for k, s in enumerate(shells)]
    own = np.concatenate([nearest_neighbor_distances(p) for p in parts]) / 2
    pts = np.vstack([*parts, np.zeros((1, 3))])
    own = np.append(own, np.min(np.linalg.norm(parts[0], axis=1)) / 2)
    m = len(pts)
    cfg = DomainConfig(PointSet.from_points(pts), np.arange(m), [],
                       np.arange(m - 1), 2.0)
    green = _symmetric_kernel(kelvin_green(pts, radius, 1.0 / (sigma * own)))
    return (_system(cfg, green),
            DiscreteMeasure.from_dict(m, {m - 1: 1.0}))
