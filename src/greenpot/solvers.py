"""Deterministic block-principal-pivoting solvers for small dense convex programs.

Two problems recur throughout the package:

  nonneg_qp:   minimize 0.5 x'Ax - b'x  over x >= 0
  simplex_qp:  minimize x'Gx - 2 b'x    over x >= 0, sum(x) = 1

with A, G symmetric positive definite. Both share one block principal
pivoting core (Portugal, Judice & Vicente, Math. Comp. 63, 1994). It keeps a
free set F, fixes x = 0 off F, and solves the subproblem on F from a
Cholesky factorization of the free block: A_FF x_F = b_F for nonneg_qp, and
for simplex_qp the same factor applied to [b_F, 1], giving u and v, with
x_F = u + c v and c = (1 - sum u) / sum v chosen so that x_F sums to one.
An index is infeasible when it is free with x_i < -tol, or fixed with
reduced gradient (A x - b - c)_i < -tol, where c = 0 for nonneg_qp. Each
pivot exchanges infeasible indices between F and its complement:

  - while the infeasible count keeps setting new lows, the whole infeasible
    set is exchanged;
  - without a new low the whole set is exchanged at most three more times,
    after which only its largest index is (Murty's single-index rule, the
    backup of Judice & Pires, 1994, which guarantees termination).

Only free indices with negative weight leave F, and the free weights of
simplex_qp sum to one, so its free set never empties. Every choice is by
index, so repeated runs visit identical pivot sequences. The first free set
holds every index, unless simplex_qp is handed a start: the pivoting
converges from any first free set, so a caller that knows the support
approximately (a swept charge, a companion problem's minimizer) starts
there and solves fewer free sets. An interior minimizer costs one
factorization from the full set, and none when either solver is handed the
factor of its matrix, such as KernelMatrix.factor, which serves every free
set holding every index. Either solver may also be handed a FactorSlot of
its matrix, which carries the final free set of the last solve on that
matrix and its factor: a solve that reaches that free set factors nothing.
A kept factor is the one _cholesky gives for the block, bit for bit, so
neither handed factor changes a result. tol is RTOL times the larger of 1,
max |b| and the largest diagonal entry; nonneg_qp accepts its first solve
down to -10 tol. KKTRecord.iterations counts the free sets solved, one more
than the number of pivots, and 40 m + 100 caps it for an m-index problem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .core import SolverError

# Whole-set exchanges allowed without a new low in the infeasible count
# before the single-index backup rule takes over.
BLOCK_RETRIES = 3
# Relative feasibility tolerance of both solvers (see _scale_tol).
RTOL = 1e-12


@dataclass(frozen=True)
class KKTRecord:
    """Optimality diagnostics reported by both solvers.

    support_residual: worst stationarity violation on the support
    off_support_slack: worst sign violation of the reduced gradient off support
    min_weight: most negative solution entry before clipping
    mass_error: |sum(x) - 1| (zero for the unconstrained-mass solver)
    multiplier: equality-constraint multiplier (zero when absent)
    gap_bound: for simplex_qp, the Frank-Wolfe gap g.x - min_i g_i with
        g = G x - b; it bounds |x - x*|_G^2 for the true minimizer x*
        (zero when absent)
    """

    support_residual: float
    off_support_slack: float
    min_weight: float
    mass_error: float
    multiplier: float
    iterations: int
    tolerance: float
    gap_bound: float = 0.0


def _scale_tol(b: np.ndarray, diag: np.ndarray, rtol: float) -> float:
    scale = 1.0
    if b.size:
        scale = max(scale, float(np.max(np.abs(b))), float(np.max(diag)))
    return rtol * scale


def _cholesky(block: np.ndarray, overwrite: bool = False, _lower: bool = True):
    """Lower Cholesky factor of a symmetric matrix, in cho_solve's (c, lower) form.

    LAPACK reads the transpose, which is Fortran-ordered for a C-ordered
    block, so overwrite=True factors such a block in place; its lower
    triangle is the block's upper one. make_kernel's positive-definiteness
    check and the solvers both factor through here, so a factor kept from
    the check equals the one a solver would compute, bit for bit. The Dirac
    sweep alone asks for the upper factor (_lower=False), whose rounding its
    Green outputs are pinned to. Raises SolverError when the block is not
    positive definite, here and only here.
    """
    try:
        factor = cho_factor(block.T, lower=_lower, overwrite_a=overwrite,
                            check_finite=False)
    except np.linalg.LinAlgError as exc:
        reason = str(exc)
    else:
        # OpenBLAS's potrf carries a NaN pivot through instead of failing
        if np.isfinite(np.diagonal(factor[0])).all():
            return factor
        reason = "non-finite pivot"
    raise SolverError(f"kernel block of size {block.shape[0]} is not positive "
                      f"definite; cells are too coarse for this sampling ({reason})")


class FactorSlot:
    """The final free set of the last solve on one matrix, and its factor.

    A solver handed the slot reads it before factoring a free set, empties
    it before allocating a new free block, and leaves its own final free set
    (a boolean mask) and that set's factor in it. So solves on one matrix
    that end on one free set factor it once, and at most one factor besides
    the matrix's own is live.
    """

    __slots__ = ("free", "factor")

    def __init__(self) -> None:
        self.free = self.factor = None


def _solve_free(A: np.ndarray, b: np.ndarray, free: np.ndarray,
                simplex: bool, factor=None) -> tuple[np.ndarray, float, float, tuple]:
    """Subproblem on the free set: weights (zero off it), multiplier, raw
    minimum, and the factor used.

    factor, when given, is the _cholesky factor of the free block; otherwise
    the block is factored here (an empty free set needs none).
    """
    F = np.flatnonzero(free)
    x = np.zeros(b.size)
    if F.size == 0:
        return x, 0.0, 0.0, None
    if factor is None:
        factor = _cholesky(A[np.ix_(F, F)], overwrite=True)
    if simplex:
        uv = cho_solve(factor, np.column_stack((b[F], np.ones(F.size))),
                       check_finite=False)
        denom = float(uv[:, 1].sum())
        if denom <= 0:
            raise SolverError("lost positive definiteness in simplex solve")
        c = (1.0 - float(uv[:, 0].sum())) / denom
        z = uv[:, 0] + c * uv[:, 1]
    else:
        c, z = 0.0, cho_solve(factor, b[F], check_finite=False)
    x[F] = z
    return x, c, float(np.min(z)), factor


def _pivot(A: np.ndarray, b: np.ndarray, tol: float, simplex: bool, factor=None,
           start: np.ndarray | None = None,
           slot: FactorSlot | None = None) -> tuple[np.ndarray, float, float, int]:
    """Block principal pivoting (see the module docstring).

    The first free set holds the positions in start, or every index when
    start is None or empty. factor, when given, is the _cholesky factor of
    all of A and replaces the factorization of every free set holding every
    index; slot, when given, is A's FactorSlot and replaces the
    factorization of the free set it holds. Other free sets are factored
    afresh. Returns the clipped minimizer, the multiplier, the most negative
    free weight of the final solve, and the number of free sets solved.
    """
    m = b.size
    max_iter = 40 * m + 100
    if start is None or len(start) == 0:
        free = np.ones(m, dtype=bool)
    else:
        free = np.zeros(m, dtype=bool)
        free[start] = True
    best, retries = m + 1, BLOCK_RETRIES
    last = None  # the factor of the last free set solved
    for iters in range(1, max_iter + 1):
        full = bool(free.all())
        if full and factor is not None:
            known = factor
        elif slot is not None and np.array_equal(free, slot.free):
            known = slot.factor
        else:
            # drop the last factor and empty the slot before the new block
            # is allocated, so no more than one free-set factor is ever live
            known = last = None
            if slot is not None:
                slot.free = slot.factor = None
        x, c, zmin, last = _solve_free(A, b, free, simplex, known)
        floor = 10 * tol if iters == 1 and not simplex else tol
        infeasible = free & (x < -floor)
        if not full:
            infeasible |= ~free & (A @ x - b - c < -tol)
        count = int(np.count_nonzero(infeasible))
        if count == 0:
            if slot is not None:
                slot.free, slot.factor = free, last
            return np.maximum(x, 0.0), c, zmin, iters
        if count < best:
            best, retries = count, BLOCK_RETRIES
        elif retries:
            retries -= 1
        else:
            infeasible[:np.flatnonzero(infeasible)[-1]] = False
        free ^= infeasible
    problem = "simplex solve" if simplex else "cone projection"
    raise SolverError(f"{problem} failed to converge in {max_iter} pivots")


def nonneg_qp(A: np.ndarray, b: np.ndarray, *, factor=None,
              slot: FactorSlot | None = None) -> tuple[np.ndarray, KKTRecord]:
    """Minimize 0.5 x'Ax - b'x over x >= 0 for symmetric positive definite A.

    factor, when given, is the _cholesky factor of A and saves the first
    factorization; slot, when given, is A's FactorSlot (module docstring).
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).ravel()
    m = b.size
    if A.shape != (m, m):
        raise SolverError(f"matrix shape {A.shape} does not match rhs size {m}")
    if m == 0:
        return np.zeros(0), KKTRecord(0.0, 0.0, 0.0, 0.0, 0.0, 0, 0.0)
    tol = _scale_tol(b, np.diag(A), RTOL)
    x, _, min_raw, iters = _pivot(A, b, tol, simplex=False, factor=factor,
                                  slot=slot)
    return x, _nonneg_record(A, b, x, min_raw, iters, tol)


def _nonneg_record(A, b, x, min_raw, iters, tol) -> KKTRecord:
    g = A @ x - b
    on = x > 0
    support_residual = float(np.max(np.abs(g[on]))) if np.any(on) else 0.0
    off_support_slack = float(max(0.0, np.max(-g[~on]))) if np.any(~on) else 0.0
    return KKTRecord(support_residual=support_residual,
                     off_support_slack=off_support_slack,
                     min_weight=min(min_raw, 0.0),
                     mass_error=0.0,
                     multiplier=0.0,
                     iterations=iters,
                     tolerance=tol)


def simplex_qp(G: np.ndarray, b: np.ndarray | None = None, *, factor=None,
               start=None,
               slot: FactorSlot | None = None) -> tuple[np.ndarray, KKTRecord]:
    """Minimize x'Gx - 2 b'x over the probability simplex for SPD G.

    At the minimizer (G x - b) equals the multiplier c on the support and is
    >= c elsewhere; the reported multiplier is that constant. factor, when
    given, is the _cholesky factor of G (such as KernelMatrix.factor) and
    saves the factorization of any free set holding every index. start,
    when given, holds the sorted positions of the first free set (None or
    empty: every index); a start near the minimizer's support saves free
    sets and reaches the same minimizer up to rounding. slot, when given,
    is G's FactorSlot (module docstring).
    """
    G = np.asarray(G, dtype=float)
    m = G.shape[0]
    if b is None:
        b = np.zeros(m)
    b = np.asarray(b, dtype=float).ravel()
    if G.shape != (m, m) or b.size != m:
        raise SolverError(f"matrix shape {G.shape} does not match rhs size {b.size}")
    if m == 0:
        raise SolverError("cannot optimize over an empty index set")
    if start is not None:
        start = np.asarray(start, dtype=int)
        if start.size and (start.min() < 0 or start.max() >= m):
            raise SolverError(f"start positions outside 0..{m - 1}")
    tol = _scale_tol(b, np.diag(G), RTOL)
    x, c, ymin, iters = _pivot(G, b, tol, simplex=True, factor=factor,
                               start=start, slot=slot)
    return x, _simplex_record(G, b, x, c, ymin, iters, tol)


def _simplex_record(G, b, x, c, ymin, iters, tol) -> KKTRecord:
    g = G @ x - b
    on = x > 0
    support_residual = float(np.max(np.abs(g[on] - c))) if np.any(on) else 0.0
    off_support_slack = float(max(0.0, np.max(c - g[~on]))) if np.any(~on) else 0.0
    # g.x - min g for sum(x) = 1, summed as x.(g - min g): every term is
    # nonnegative in floating point, so the bound never rounds below zero
    return KKTRecord(support_residual=support_residual,
                     off_support_slack=off_support_slack,
                     min_weight=min(float(ymin), 0.0),
                     mass_error=abs(float(x.sum()) - 1.0),
                     multiplier=float(c),
                     iterations=iters,
                     tolerance=tol,
                     gap_bound=float(x @ (g - np.min(g))))
