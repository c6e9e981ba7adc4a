"""Point clouds, region partitions, and discrete measures.

Everything downstream (kernels, sweeps, energy minimization) runs on a finite
point cloud split into a domain part D, a complement sample Y, and a closed
subset F of D. Measures are nonnegative weight vectors over the cloud.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist


class ValidationError(ValueError):
    """Input violates a structural precondition (region layout, masses, config)."""


class SolverError(RuntimeError):
    """A factorization or minimization failed; usually signals a bad kernel matrix."""


class InvariantError(RuntimeError):
    """A mathematical property that must hold on every output was violated."""


def nearest_neighbor_distances(points: np.ndarray) -> np.ndarray:
    """Distance from each point to its nearest distinct neighbor (inf for
    a point with none), in an array of its own: no view of the search's
    m x 2 distances, which a PointSet would keep alive."""
    d, _ = cKDTree(points).query(points, k=2)
    return d[:, 1].copy()


def _check_points(pts: np.ndarray) -> None:
    if pts.ndim != 2 or pts.shape[1] < 2:
        raise ValidationError("points must be an (m, n) array with n >= 2")
    if not np.all(np.isfinite(pts)):
        raise ValidationError("point coordinates must be finite")


@dataclass(frozen=True)
class PointSet:
    """Finite cloud in R^n with a positive cell radius per point.

    The cell radius feeds the kernel diagonal (finite self-energy surrogate);
    the default is half the nearest-neighbor distance, and any explicit radius
    must not exceed that bound.
    """

    points: np.ndarray            # (m, n) float array
    cell_radius: np.ndarray       # (m,) positive floats
    # the nearest-neighbour distances the radii are checked against, kept;
    # a caller that derived the radii from them hands them over, so the
    # cloud is searched once
    _nn: np.ndarray | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        rad = np.asarray(self.cell_radius, dtype=float)
        _check_points(pts)
        if rad.shape != (len(pts),):
            raise ValidationError("cell_radius must have one entry per point")
        # distinctness first: from_points turns a duplicate into a zero radius
        nn = nearest_neighbor_distances(pts) if self._nn is None else self._nn
        if np.any(nn <= 0):
            i = int(np.flatnonzero(nn <= 0)[0])
            j = int(np.flatnonzero((pts == pts[i]).all(axis=1))[1])
            raise ValidationError(
                f"points must be pairwise distinct; rows {i} and {j} coincide")
        if not np.all(rad > 0):
            raise ValidationError("cell radii must be positive")
        # 1e-12 slack keeps radii constructed as exactly half-NN valid
        if np.any(rad > nn / 2 * (1 + 1e-12)):
            worst = int(np.argmax(rad - nn / 2))
            raise ValidationError(
                f"cell_radius[{worst}]={rad[worst]:.6g} exceeds half the "
                f"nearest-neighbor distance {nn[worst] / 2:.6g}")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "cell_radius", rad)
        object.__setattr__(self, "_nn", nn)

    @classmethod
    def from_points(cls, points) -> "PointSet":
        """Build with cell_radius = half the nearest-neighbor distance."""
        pts = np.asarray(points, dtype=float)
        _check_points(pts)
        nn = nearest_neighbor_distances(pts)
        if not np.all(np.isfinite(nn)):
            raise ValidationError("a single-point cloud has no neighbor scale; "
                                  "pass explicit cell radii")
        return cls(pts, nn / 2, nn)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return len(self.points)


def _index_array(indices, size: int, name: str) -> np.ndarray:
    """Sorted distinct indices in 0..size-1; a float entry is truncated
    toward zero, as int() does, and a boolean mask is refused."""
    raw = np.asarray(indices).ravel()
    if raw.dtype.kind == "b":
        raise ValidationError(f"{name} must hold indices, not a boolean mask")
    if raw.dtype.kind == "c":
        raise ValidationError(f"{name} must hold real indices")
    if raw.dtype.kind == "f":
        if not np.isfinite(raw).all():
            raise ValidationError(f"{name} contains non-finite indices")
        # clipped so that the cast, undefined past int64, keeps every
        # out-of-range entry out of range
        raw = np.clip(np.trunc(raw), -1, size)
    try:
        idx = np.unique(raw.astype(int))
    except OverflowError:
        raise ValidationError(f"{name} contains out-of-range indices") from None
    if idx.size and (idx[0] < 0 or idx[-1] >= size):
        raise ValidationError(f"{name} contains out-of-range indices")
    return idx


@dataclass(frozen=True)
class DomainConfig:
    """Partition of a cloud: domain D, complement sample Y, closed subset F of D.

    The field region is Omega = D \\ F. Y may be empty (then the Green kernel
    degenerates to the Riesz kernel on D).
    """

    point_set: PointSet
    d_indices: np.ndarray
    y_indices: np.ndarray
    f_indices: np.ndarray
    alpha: float

    def __post_init__(self):
        m = len(self.point_set)
        d = _index_array(self.d_indices, m, "d_indices")
        y = _index_array(self.y_indices, m, "y_indices")
        f = _index_array(self.f_indices, m, "f_indices")
        if np.intersect1d(d, y).size:
            raise ValidationError("d_indices and y_indices must be disjoint")
        if not np.isin(f, d).all():
            raise ValidationError("f_indices must be a subset of d_indices")
        if len(f) == 0:
            raise ValidationError("F must be nonempty")
        omega = np.setdiff1d(d, f)
        if len(omega) == 0:
            raise ValidationError("Omega = D \\ F must be nonempty (F != D)")
        n = self.point_set.dim
        if not (0 < self.alpha < n and self.alpha <= 2):
            raise ValidationError(f"alpha must lie in (0, {n}) and be <= 2")
        object.__setattr__(self, "d_indices", d)
        object.__setattr__(self, "y_indices", y)
        object.__setattr__(self, "f_indices", f)

    @property
    def omega_indices(self) -> np.ndarray:
        return np.setdiff1d(self.d_indices, self.f_indices)


@dataclass(frozen=True)
class DiscreteMeasure:
    """Nonnegative weights over point indices of some PointSet."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1:
            raise ValidationError("weights must be a flat vector")
        if np.any(w < 0):
            raise ValidationError("weights must be nonnegative")
        if not np.all(np.isfinite(w)):
            raise ValidationError("weights must be finite")
        object.__setattr__(self, "weights", w)

    @classmethod
    def from_dict(cls, size: int, entries: dict) -> "DiscreteMeasure":
        w = np.zeros(size)
        for i, v in entries.items():
            i = int(i)
            if not 0 <= i < size:
                raise ValidationError(f"index {i} outside 0..{size - 1}")
            w[i] = v
        return cls(w)

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    @property
    def support(self) -> np.ndarray:
        return np.nonzero(self.weights)[0]

    def __len__(self) -> int:
        return len(self.weights)


def validate_field_separation(theta: DiscreteMeasure, cfg: DomainConfig) -> float:
    """Check theta is a nonzero measure on Omega and return its distance to F.

    The returned value is the minimum pairwise distance between the support of
    theta and the F points; positivity is guaranteed by the disjointness of the
    regions and the distinctness of cloud points.
    """
    if theta.total_mass <= 0:
        raise ValidationError("the external charge must be nonzero")
    supp = theta.support
    if not np.isin(supp, cfg.omega_indices).all():
        raise ValidationError("the external charge must be supported in Omega = D \\ F")
    pts = cfg.point_set.points
    rho = float(cdist(pts[supp], pts[cfg.f_indices]).min())
    return rho
