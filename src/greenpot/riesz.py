"""Riesz kernel matrices, potentials, energies and capacities.

The kernel on an n-point cloud is the matrix |x_i - x_j|^(alpha - n) off the
diagonal. The singular diagonal is replaced by a finite cell self-energy
(sigma * cell_radius)^(alpha - n), which keeps the matrix symmetric positive
definite for non-overlapping cells; positive definiteness is checked at
assembly by a Cholesky factorization in the matrix's own buffer, whose
entries are then restored bit for bit. Before the restore the factor gives
the first solve of simplex solves over the whole kernel (the capacity of
every point), which the kernel keeps in place of a factor, so a kernel holds
one m x m array. A Green build assembles the same entries unfactored and
certifies them itself (green.build_green).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cache

import numpy as np
from scipy.spatial.distance import cdist

from .core import DiscreteMeasure, PointSet, ValidationError, _index_array
from .solvers import _TILE, FactorSlot, _certify, _gather, simplex_qp


@dataclass(frozen=True)
class KernelMatrix:
    """Symmetric positive definite kernel matrix.

    solve is the m x 2 solve [u v] of entries [u v] = [0 1] on the
    Cholesky factor that make_kernel's check computed, or None: the first
    free set of a simplex solve over the whole kernel holds every index
    unless the slot holds one, and solve replaces its factorization
    (solvers.simplex_qp). slot is a solvers.FactorSlot that whole-kernel
    solves start from and refill, or None.
    Neither takes part in comparisons or the repr.
    """

    entries: np.ndarray
    solve: np.ndarray | None = field(default=None, compare=False, repr=False)
    slot: FactorSlot | None = field(default=None, compare=False, repr=False)

    @property
    def size(self) -> int:
        return self.entries.shape[0]

    def block(self, rows, cols=None) -> np.ndarray:
        return _gather(self.entries, rows, cols)


def _symmetric_kernel(entries: np.ndarray) -> KernelMatrix:
    """Validate that the matrix is square and exactly symmetric, then wrap
    it with no solve.

    A writable C-ordered float array is wrapped as it is; any other input
    is copied into one, which the in-place certificate needs.
    """
    entries = np.require(entries, dtype=float, requirements=("C", "W"))
    m = entries.shape[0]
    if entries.shape != (m, m):
        raise ValidationError(f"kernel matrix must be square, got {entries.shape}")
    if not _exactly_symmetric(entries):
        raise ValidationError("kernel matrix must be exactly symmetric")
    return KernelMatrix(entries)


def make_kernel(entries: np.ndarray) -> KernelMatrix:
    """Validate symmetry and positive definiteness, then wrap the matrix.

    The Cholesky factorization that certifies definiteness runs in the
    entries' own buffer (solvers._certify), which the caller's array is
    when it is a writable C-ordered float array: it comes back bit for bit,
    also when _cholesky raises SolverError because there is no factor. The
    kernel keeps the factor's solve of the first free set of a whole-kernel
    simplex solve as K.solve.
    """
    K = _symmetric_kernel(entries)
    if not K.size:
        return K
    # the right-hand side [b 1] that solvers._solve_free stacks for b = 0
    rhs = np.column_stack((np.zeros(K.size), np.ones(K.size)))
    _, solve = _certify(K.entries, rhs=rhs)
    return replace(K, solve=solve)


def _exactly_symmetric(a: np.ndarray) -> bool:
    """np.array_equal(a, a.T) and the same of a's bit patterns, tile by tile
    against each tile's transposed partner.

    The values refuse NaN; the bit patterns refuse a pair of zeros of
    opposite sign, which the in-place certificate would not restore
    (solvers._certify). Tiles keep both reads local, where a.T strides
    across whole rows.
    """
    bits = a.view(np.int64)
    m = a.shape[0]
    for i in range(0, m, _TILE):
        for j in range(i, m, _TILE):
            if not (np.array_equal(a[i:i + _TILE, j:j + _TILE],
                                   a[j:j + _TILE, i:i + _TILE].T)
                    and np.array_equal(bits[i:i + _TILE, j:j + _TILE],
                                       bits[j:j + _TILE, i:i + _TILE].T)):
                return False
    return True


def assemble_riesz(ps: PointSet, alpha: float, sigma: float = 1.0) -> KernelMatrix:
    """Kernel matrix |x_i - x_j|^(alpha - n) with the cell self-energy diagonal.

    sigma in (0, 1] rescales the diagonal cell radius; smaller values raise
    the self-energy, which compensates for flat (codimension-one) cells.
    """
    return make_kernel(_riesz_entries(ps, alpha, sigma))


def _riesz_entries(ps: PointSet, alpha: float, sigma: float) -> np.ndarray:
    """assemble_riesz's entries, neither validated as a kernel nor factored."""
    n = ps.dim
    if not (0 < alpha < n and alpha <= 2):
        raise ValidationError(f"alpha={alpha} outside (0, {n}] cap 2")
    if not 0 < sigma <= 1:
        raise ValidationError(f"sigma={sigma} outside (0, 1]")
    # cdist fills the square matrix in place; |x - y| == |y - x| bit for
    # bit, so the result is exactly symmetric
    m = len(ps)
    _trim_before_mapping(8 * m * m)
    dist = np.empty((m, m))
    cdist(ps.points, ps.points, out=dist)
    np.fill_diagonal(dist, sigma * ps.cell_radius)
    dist **= alpha - n
    return dist


# glibc maps every request of 32 MiB or more on its own
# (DEFAULT_MMAP_THRESHOLD_MAX on 64-bit), so such a buffer never reuses
# retained heap, and heap that is free but still resident when it is mapped
# only adds to the peak: a freed smaller kernel raises glibc's dynamic mmap
# threshold, and the next one of its size stays on the heap after it is freed.
_TRIM_BYTES = 32 << 20


@cache
def _malloc_trim():
    """glibc's malloc_trim, looked up on first use; None without it."""
    import ctypes
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return None
    trim.argtypes = (ctypes.c_size_t,)
    return trim


def _trim_before_mapping(nbytes: int) -> None:
    """Hand free heap back to the system before a buffer of nbytes that
    glibc maps on its own; a no-op for smaller buffers or without glibc."""
    if nbytes >= _TRIM_BYTES and (trim := _malloc_trim()) is not None:
        trim(0)


def potential(K: KernelMatrix, mu: DiscreteMeasure) -> np.ndarray:
    """Pointwise potential U[i] = sum_j K[i,j] mu[j]."""
    if mu.weights.size != K.size:
        raise ValidationError(f"measure size {mu.weights.size} != kernel size {K.size}")
    return K.entries @ mu.weights


def weight_norm(K: KernelMatrix, u: np.ndarray) -> float:
    """Kernel-form norm of a raw weight vector (signed differences allowed)."""
    u = np.asarray(u, dtype=float)
    return float(np.sqrt(max(float(u @ (K.entries @ u)), 0.0)))


def _simplex_minimum(K: KernelMatrix, a: np.ndarray) -> tuple[float, np.ndarray]:
    """Minimal energy over probability measures on `a`, and the minimizer.

    `a` holds sorted distinct indices, so a.size == K.size means every
    point: the solve then reads the entries in place, with the kernel's own
    solve and slot, and starts from the slot's free set (simplex_qp).
    """
    if a.size == 1:
        # one-point problem: the Dirac is the only probability measure
        return float(K.entries[a[0], a[0]]), np.ones(1)
    if a.size == K.size:
        A, solve, slot = K.entries, K.solve, K.slot
    else:
        A, solve, slot = K.block(a), None, None
    x, _ = simplex_qp(A, solve=solve, slot=slot)
    return float(x @ A @ x), x


def capacity(K: KernelMatrix, a) -> tuple[float, DiscreteMeasure]:
    """Capacity cap = 1/E of `a`, E the minimal energy over probability
    measures on `a`, and the minimizer mu.

    The potential of mu is E on its support and at least E on `a`, so the
    equilibrium measure of `a` is gamma = cap * mu: potential 1 on its
    support, at least 1 on `a`, and mass cap.
    """
    a = _index_array(a, K.size, "a")
    if a.size == 0:
        raise ValidationError("capacity of an empty index set is undefined")
    energy, x = _simplex_minimum(K, a)
    w = np.zeros(K.size)
    w[a] = x
    return 1.0 / energy, DiscreteMeasure(w)
