"""Riesz kernel matrices, potentials, energies, capacities, equilibrium measures.

The kernel on an n-point cloud is the matrix |x_i - x_j|^(alpha - n) off the
diagonal. The singular diagonal is replaced by a finite cell self-energy
(sigma * cell_radius)^(alpha - n), which keeps the matrix symmetric positive
definite for non-overlapping cells; positive definiteness is checked at
assembly by a Cholesky factorization. The factor is kept on the kernel and
serves as the first factorization of simplex solves over the whole kernel
(capacity and equilibrium measure of every point).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import cdist

from .core import DiscreteMeasure, PointSet, SolverError, ValidationError, _index_array
from .reports import write_csv
from .solvers import KKTRecord, _cholesky, simplex_qp

# Rows per block of the distance fill, and the side of the square tiles of
# the symmetry check: two tiles stay in cache, and a block's cdist is cheap.
_TILE = 128


@dataclass(frozen=True)
class KernelMatrix:
    """Symmetric positive definite kernel matrix with parameter metadata.

    kind is "riesz" or "green". factor is the Cholesky factor of entries in
    the solvers' (c, lower) form when the matrix was checked by make_kernel,
    else None; it takes no part in comparisons or the repr.
    """

    entries: np.ndarray
    alpha: float
    dim: int
    kind: str = "riesz"
    factor: tuple | None = field(default=None, compare=False, repr=False)

    @property
    def size(self) -> int:
        return self.entries.shape[0]

    def block(self, rows, cols=None) -> np.ndarray:
        rows = np.asarray(rows, dtype=int)
        cols = rows if cols is None else np.asarray(cols, dtype=int)
        return self.entries[np.ix_(rows, cols)]


def make_kernel(entries: np.ndarray, alpha: float, dim: int,
                kind: str = "riesz") -> KernelMatrix:
    """Validate symmetry and positive definiteness, then wrap the matrix.

    The Cholesky factor that certifies definiteness is kept as K.factor.
    """
    entries = np.asarray(entries, dtype=float)
    m = entries.shape[0]
    if entries.shape != (m, m):
        raise ValidationError(f"kernel matrix must be square, got {entries.shape}")
    if not _exactly_symmetric(entries):
        raise ValidationError("kernel matrix must be exactly symmetric")
    if m and np.min(np.diag(entries)) <= 0:
        raise SolverError("kernel diagonal must be strictly positive")
    factor = None
    if m:
        try:
            factor = _cholesky(entries)
        except np.linalg.LinAlgError as exc:
            raise SolverError(
                "kernel matrix failed the positive-definiteness check; "
                f"cells are too coarse for this sampling ({exc})") from exc
    return KernelMatrix(entries=entries, alpha=float(alpha), dim=int(dim),
                        kind=kind, factor=factor)


def _exactly_symmetric(a: np.ndarray) -> bool:
    """np.array_equal(a, a.T), tile by tile against each tile's transposed partner.

    Tiles keep both reads local, where a.T strides across whole rows.
    """
    m = a.shape[0]
    for i in range(0, m, _TILE):
        for j in range(i, m, _TILE):
            if not np.array_equal(a[i:i + _TILE, j:j + _TILE],
                                  a[j:j + _TILE, i:i + _TILE].T):
                return False
    return True


def assemble_riesz(ps: PointSet, alpha: float, sigma: float = 1.0) -> KernelMatrix:
    """Kernel matrix |x_i - x_j|^(alpha - n) with the cell self-energy diagonal.

    sigma in (0, 1] rescales the diagonal cell radius; smaller values raise
    the self-energy, which compensates for flat (codimension-one) cells.
    """
    n = ps.dim
    if not (0 < alpha < n and alpha <= 2):
        raise ValidationError(f"alpha={alpha} outside (0, {n}] cap 2")
    if not 0 < sigma <= 1:
        raise ValidationError(f"sigma={sigma} outside (0, 1]")
    # cdist row blocks fill the square matrix in place; |x - y| == |y - x|
    # bit for bit, so the result is exactly symmetric
    m = len(ps)
    dist = np.empty((m, m))
    for i in range(0, m, _TILE):
        cdist(ps.points[i:i + _TILE], ps.points, out=dist[i:i + _TILE])
    np.fill_diagonal(dist, sigma * ps.cell_radius)
    dist **= alpha - n
    return make_kernel(dist, alpha, n, kind="riesz")


def potential(K: KernelMatrix, mu: DiscreteMeasure) -> np.ndarray:
    """Pointwise potential U[i] = sum_j K[i,j] mu[j]."""
    if mu.weights.size != K.size:
        raise ValidationError(f"measure size {mu.weights.size} != kernel size {K.size}")
    return K.entries @ mu.weights


def weight_norm(K: KernelMatrix, u: np.ndarray) -> float:
    """Kernel-form norm of a raw weight vector (signed differences allowed)."""
    u = np.asarray(u, dtype=float)
    return float(np.sqrt(max(float(u @ (K.entries @ u)), 0.0)))


def _simplex_minimum(K: KernelMatrix, a: np.ndarray):
    """Minimal energy over probability measures on `a`, with minimizer.

    `a` holds sorted distinct indices, so a.size == K.size means every
    point: the solve then reads the entries in place and starts from the
    kernel's own factor.
    """
    if a.size == 1:
        # one-point problem: the Dirac is the only probability measure
        x = np.ones(1)
        energy = float(K.entries[a[0], a[0]])
        rec = KKTRecord(0.0, 0.0, 0.0, 0.0, energy, 0, 0.0)
        return energy, x, rec
    if a.size == K.size:
        A, factor = K.entries, K.factor
    else:
        A, factor = K.block(a), None
    x, rec = simplex_qp(A, factor=factor)
    energy = float(x @ A @ x)
    return energy, x, rec


def capacity(K: KernelMatrix, a) -> tuple[float, DiscreteMeasure]:
    """Reciprocal of the minimal energy over probability measures on `a`."""
    a = _index_array(a, K.size, "a")
    if a.size == 0:
        raise ValidationError("capacity of an empty index set is undefined")
    energy, x, _ = _simplex_minimum(K, a)
    w = np.zeros(K.size)
    w[a] = x
    return 1.0 / energy, DiscreteMeasure(w)


def equilibrium_measure(K: KernelMatrix, a) -> DiscreteMeasure:
    """Measure gamma on `a` with potential 1 on its support and >= 1 on `a`.

    This is the capacity minimizer rescaled by the capacity, so its total
    mass equals the capacity whenever the potential is 1 on all of `a`.
    """
    a = _index_array(a, K.size, "a")
    if a.size == 0:
        raise ValidationError("equilibrium measure of an empty set is undefined")
    energy, x, _ = _simplex_minimum(K, a)
    w = np.zeros(K.size)
    w[a] = x / energy
    return DiscreteMeasure(w)


def save_kernel_csv(K: KernelMatrix, path) -> None:
    """Full matrix dump, 17 significant digits, one row per line."""
    write_csv(path, [f"k{j}" for j in range(K.size)], K.entries)
