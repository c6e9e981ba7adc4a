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
An index is infeasible when it is free with x_i < 0, or fixed with
reduced gradient (A x - b - c)_i < -tol, where c = 0 for nonneg_qp. Every
free set solved, first, warm, guided or exact, takes this one test, and a
solve returns the weights of the first free set with no infeasible index
as they are: none is clipped, so the weights of simplex_qp sum to one up to
the rounding of the solve. NNLS (Lawson & Hanson, 1974) stops on the same
test. Each pivot exchanges infeasible indices between F and its complement:

  - while the infeasible count keeps setting new lows, the whole infeasible
    set is exchanged;
  - without a new low the whole set is exchanged at most three more times,
    after which only its largest index is (Murty's single-index rule, the
    backup of Judice & Pires, 1994, which guarantees termination).

Only free indices with negative weight leave F, and the free weights of
simplex_qp sum to one, so its free set never empties. Every choice is by
index, so repeated runs visit identical pivot sequences. The first free set
holds every index, unless the solver is handed a FactorSlot holding a free
set: the pivoting converges from any first free set, and a solve starts
where the last solve on its matrix ended, since the problems solved on one
matrix (a sweep, the Gauss problem, its dual, the equilibrium) end on
nearly the same support. tol is RTOL times the larger of 1, max |b| and
the largest diagonal entry. KKTRecord.iterations counts the free sets
solved, one more than the number of pivots, and 40 m + 100 caps it for an
m-index problem.

Kept factors. An interior minimizer costs one factorization from the full
set, and none when simplex_qp is handed the solve [u v] of that set, such
as KernelMatrix.solve, which make_kernel's positive-definiteness check
computes on its factor before restoring the entries; it serves every free
set holding every index. The FactorSlot also carries the factor of the
last solve's final free set, so a solve that starts or ends there factors
nothing for it. A kept factor or solve is the one _cholesky or _solve_free
gives, bit for bit, so it changes no result.

Guides. A slot may also carry a guide: a factor of the matrix up to
rounding, such as the leading block of a larger matrix's factor (_certify).
nonneg_qp solves each free set that misses at most GUIDE_SHARE of the
indices on the guide, through the bordered system (_Bordered), and pivots
on that solution. A free set the guide finds final is solved again from its
own factor, or the slot's, and tested again in the same iteration. A guide
serves one solve: nonneg_qp takes it out of the slot into the bordered
system, and drops that system, with its columns and the guide, before it
factors a free set found final, or at the latest when it returns. So no
factor of a free set the guide finds final is live beside them, and no
later solve on the slot holds them. The guide only steers the
pivoting: the result, its record and the slot's free set and factor are
those of a solve without the guide, unless rounding moves an index across
the final-set test on the way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular
from scipy.linalg.lapack import dpotrf

from .core import SolverError

# Whole-set exchanges allowed without a new low in the infeasible count
# before the single-index backup rule takes over.
BLOCK_RETRIES = 3
# Relative feasibility tolerance of both solvers (see _scale_tol).
RTOL = 1e-12
# Largest share of a problem's indices that a free set may miss and still be
# solved on a guide (_Bordered); past it the bordered system costs about as
# much as a fresh factorization.
GUIDE_SHARE = 0.25
# Rows per output block of _gather, and the side of the square tiles of
# _certify's restore and riesz's symmetry check.
_TILE = 128


@dataclass(frozen=True)
class KKTRecord:
    """Optimality diagnostics reported by both solvers, whose weights are
    all at least 0 as solved.

    support_residual: worst stationarity violation on the support
    off_support_slack: worst sign violation of the reduced gradient off support
    mass_error: |sum(x) - 1| (zero for the unconstrained-mass solver)
    multiplier: equality-constraint multiplier (zero when absent)
    gap_bound: for simplex_qp, the Frank-Wolfe gap g.x - min_i g_i with
        g = G x - b; it bounds |x - x*|_G^2 for the true minimizer x*
        (zero when absent)
    """

    support_residual: float
    off_support_slack: float
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


def _cholesky(block: np.ndarray, _lower: bool = True):
    """Lower Cholesky factor of a symmetric matrix, in cho_solve's (c, lower) form.

    LAPACK reads the transpose, which is Fortran-ordered for a C-ordered
    block, so such a block is always factored in place and lost: its lower
    triangle is the block's upper one. make_kernel's positive-definiteness
    check and the solvers both factor through here, so the solve kept from
    the check equals the one a solver would compute, bit for bit. The Dirac
    sweep alone asks for the upper factor (_lower=False), whose rounding its
    Green outputs are pinned to. Raises SolverError when the block is not
    positive definite, here and only here.
    """
    try:
        factor = cho_factor(block.T, lower=_lower, overwrite_a=True,
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


def _gather(A: np.ndarray, rows, cols=None) -> np.ndarray:
    """A[np.ix_(rows, cols)], the same bytes, gathered a few full rows of
    A at a time: at most _TILE, and no more entries than _TILE rows of the
    output, so a narrow gather from a wide A holds no wide temporary. Rows
    are indexed, not taken: take copies a non-contiguous A (such as
    green_f's view of the Green matrix) whole before it gathers."""
    rows = np.asarray(rows, dtype=int)
    cols = rows if cols is None else np.asarray(cols, dtype=int)
    n = A.shape[1]
    # take's "wrap" mode neither buffers nor checks, so check here
    if cols.size and (cols.min() < -n or cols.max() >= n):
        raise IndexError(f"column index out of bounds for size {n}")
    out = np.empty((rows.size, cols.size), dtype=A.dtype)
    step = max(1, min(_TILE, _TILE * cols.size // max(n, 1)))
    for i in range(0, rows.size, step):
        A[rows[i:i + step]].take(cols, axis=1, out=out[i:i + step], mode="wrap")
    return out


def _certify(a: np.ndarray, k: int = 0, rhs: np.ndarray | None = None) -> tuple:
    """Certify the exactly symmetric C-ordered array a positive definite by
    one Cholesky factorization, and return (guide, solve): a copy of the
    factor's leading k x k block, a guide for a's leading block (FactorSlot;
    None when k is 0), and the solve of rhs on the factor (None without rhs).

    The factor is written over a's diagonal and upper triangle, and a's
    bitwise symmetry lets the untouched lower triangle restore every entry
    bit for bit, one tile at a time, also when _cholesky raises SolverError.
    The leading block of a factor equals a fresh factor of that block only
    up to rounding: it guides, and is never read as exact.
    """
    diag = np.diagonal(a).copy()
    try:
        factor = _cholesky(a)
        guide = (np.array(factor[0][:k, :k], order="F"), factor[1]) if k else None
        return guide, (None if rhs is None
                       else cho_solve(factor, rhs, check_finite=False))
    finally:
        m = a.shape[0]
        for i in range(0, m, _TILE):
            t = a[i:i + _TILE, i:i + _TILE]
            upper = np.triu_indices(t.shape[0], 1)
            t[upper] = t.T[upper]
            for j in range(i + _TILE, m, _TILE):
                a[i:i + _TILE, j:j + _TILE] = a[j:j + _TILE, i:i + _TILE].T
        np.fill_diagonal(a, diag)


class FactorSlot:
    """Factors kept with one matrix across its solves.

    free and factor are the final free set of the last solve on the matrix
    (a boolean mask) and its _cholesky factor. A solver handed the slot
    starts from a copy of free, reads factor before factoring a free set,
    empties both before allocating a new free block, and leaves its own
    final free set and factor in them. So solves on one matrix that end on
    one free set factor it once, and at most one free-set factor is live.
    guide is a factor of the matrix up to rounding (_certify) on which the
    next nonneg_qp solve handed the slot pivots, or None. That solve takes
    it, leaving None, and frees it before it factors a free set the guide
    finds final, or when it returns (module docstring).
    """

    __slots__ = ("guide", "free", "factor")

    def __init__(self, guide: tuple | None = None) -> None:
        self.guide = guide
        self.free = self.factor = None


class _Bordered:
    """Free-set solves of A x = b on a guide factor L of A (L L' = A up to
    rounding), through the bordered system (Haynsworth, 1968).

    With C the fixed indices, y = A^-1 b, V = L^-1 E_C and (V'V) lam = y_C,
    the solution on the free set is x = y - L^-T V lam, zero on C. V's
    columns are kept per index while C changes. The system holds the only
    reference to its guide, and _pivot drops it, columns and guide, before
    it factors a free set found final.
    """

    def __init__(self, guide: tuple, b: np.ndarray) -> None:
        self.L = guide[0]
        self.y = cho_solve(guide, b, check_finite=False)
        self.columns: dict[int, np.ndarray] = {}

    def solve(self, free: np.ndarray) -> np.ndarray | None:
        """The free-set solution, or None when V'V does not factor."""
        fixed = np.flatnonzero(~free)
        if fixed.size == 0:
            return self.y.copy()
        new = [int(i) for i in fixed if int(i) not in self.columns]
        if new:
            # L^-1 e_i vanishes above row i: solve from the first new row on
            lo, n = new[0], self.y.size
            rhs = np.zeros((n - lo, len(new)))
            rhs[np.asarray(new) - lo, np.arange(len(new))] = 1.0
            part = solve_triangular(self.L[lo:, lo:], rhs, lower=True,
                                    check_finite=False)
            for k, i in enumerate(new):
                self.columns[i] = np.concatenate((np.zeros(lo), part[:, k]))
        V = np.column_stack([self.columns[int(i)] for i in fixed])
        # the Gram matrix is symmetric, so its transpose is a Fortran-ordered
        # view of it, which potrf factors in place
        gram, info = dpotrf((V.T @ V).T, lower=1, overwrite_a=1)
        if info or not np.isfinite(np.diagonal(gram)).all():
            return None
        lam = cho_solve((gram, True), self.y[fixed], check_finite=False)
        x = self.y - solve_triangular(self.L, V @ lam, lower=True, trans="T",
                                      check_finite=False)
        x[fixed] = 0.0
        return x


def _solve_free(A: np.ndarray, b: np.ndarray, free: np.ndarray,
                simplex: bool, factor=None,
                uv=None) -> tuple[np.ndarray, float, tuple]:
    """Subproblem on the free set: weights (zero off it, as solved on it,
    negative ones included), multiplier, and the factor used.

    factor, when given, is the _cholesky factor of the free block; otherwise
    the block is factored here (an empty free set needs none). uv, when
    given, is simplex_qp's solve of a free set holding every index, which
    needs no factor: the factor returned is then None.
    """
    F = np.flatnonzero(free)
    x = np.zeros(b.size)
    if F.size == 0:
        return x, 0.0, None
    if factor is None and uv is None:
        factor = _cholesky(_gather(A, F))
    if simplex:
        if uv is None:
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
    return x, c, factor


def _infeasible(A, b, x, c, free, tol) -> np.ndarray:
    """Free indices with x_i < 0, and fixed ones with (A x - b - c)_i < -tol."""
    infeasible = free & (x < 0.0)
    if not free.all():
        infeasible |= ~free & (A @ x - b - c < -tol)
    return infeasible


def _pivot(A: np.ndarray, b: np.ndarray, tol: float, simplex: bool, solve=None,
           slot: FactorSlot | None = None) -> tuple[np.ndarray, float, int]:
    """Block principal pivoting (see the module docstring).

    slot, when given, is A's FactorSlot: the first free set is a copy of the
    free set it holds (every index when it holds none or an empty one), and
    its factor replaces that set's factorization. solve, when given, is
    simplex_qp's solve of a free set holding every index and replaces that
    set's factorization and solve. Other free sets are solved on the slot's
    guide when nonneg_qp has one and they miss few indices, and otherwise,
    or when the guide finds them final, factored afresh; the guide leaves
    the slot for good. Every free set takes one final-set test
    (_infeasible). Returns the minimizer, the multiplier and the number of
    free sets solved.
    """
    m = b.size
    max_iter = 40 * m + 100
    held = None if slot is None else slot.free
    # a copy, since the exchanges below flip the mask in place; an empty
    # held set (a cone projection onto nothing) is no start for the simplex
    free = held.copy() if held is not None and held.any() else np.ones(m, dtype=bool)
    best, retries = m + 1, BLOCK_RETRIES
    last = None  # the factor of the last free set solved
    guided = None
    if not simplex and slot is not None and slot.guide is not None:
        # the guide serves this solve alone: the bordered system takes it
        # from the slot, and it is freed with that system
        guided, slot.guide = _Bordered(slot.guide, b), None
    for iters in range(1, max_iter + 1):
        uv = solve if free.all() else None
        if uv is None and slot is not None and np.array_equal(free, slot.free):
            known = slot.factor
        else:
            known = None
        infeasible = None
        if (known is None and guided is not None
                and m - np.count_nonzero(free) <= GUIDE_SHARE * m):
            x = guided.solve(free)
            if x is not None:
                last = None
                infeasible = _infeasible(A, b, x, 0.0, free, tol)
                if not infeasible.any():
                    # final on the guide: free the bordered system, its
                    # columns and the guide, then solve the set exactly
                    infeasible = guided = None
        if infeasible is None:
            if known is None:
                # drop the last factor and empty the slot before the new
                # block is allocated, so no more than one free-set factor is
                # ever live
                last = None
                if slot is not None:
                    slot.free = slot.factor = None
            x, c, last = _solve_free(A, b, free, simplex, known, uv)
            infeasible = _infeasible(A, b, x, c, free, tol)
            if not infeasible.any():
                if slot is not None:
                    slot.free, slot.factor = free, last
                return x, c, iters
        count = int(np.count_nonzero(infeasible))
        if count < best:
            best, retries = count, BLOCK_RETRIES
        elif retries:
            retries -= 1
        else:
            infeasible[:np.flatnonzero(infeasible)[-1]] = False
        free ^= infeasible
    problem = "simplex solve" if simplex else "cone projection"
    raise SolverError(f"{problem} failed to converge in {max_iter} pivots")


def nonneg_qp(A: np.ndarray, b: np.ndarray, *,
              slot: FactorSlot | None = None) -> tuple[np.ndarray, KKTRecord]:
    """Minimize 0.5 x'Ax - b'x over x >= 0 for symmetric positive definite A.

    slot, when given, is A's FactorSlot: the solve starts from its free set,
    and its guide, if any, steers the pivoting of this solve alone (module
    docstring).
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).ravel()
    m = b.size
    if A.shape != (m, m):
        raise SolverError(f"matrix shape {A.shape} does not match rhs size {m}")
    if m == 0:
        return np.zeros(0), KKTRecord(0.0, 0.0, 0.0, 0.0, 0, 0.0)
    tol = _scale_tol(b, np.diag(A), RTOL)
    x, _, iters = _pivot(A, b, tol, simplex=False, slot=slot)
    return x, _kkt_record(A, b, x, 0.0, iters, tol, simplex=False)


def simplex_qp(G: np.ndarray, b: np.ndarray | None = None, *, solve=None,
               slot: FactorSlot | None = None) -> tuple[np.ndarray, KKTRecord]:
    """Minimize x'Gx - 2 b'x over the probability simplex for SPD G.

    At the minimizer (G x - b) equals the multiplier c on the support and is
    >= c elsewhere; the reported multiplier is that constant. solve, when
    given, is the m x 2 solve [u v] of G [u v] = [b 1] on the _cholesky
    factor of G (b = 0 when None; such as KernelMatrix.solve) and saves the
    factorization of any free set holding every index. slot, when given,
    is G's FactorSlot: the solve starts from its free set (module
    docstring); its guide is not read.
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
    if solve is not None and np.shape(solve) != (m, 2):
        raise SolverError(f"solve shape {np.shape(solve)} is not ({m}, 2)")
    tol = _scale_tol(b, np.diag(G), RTOL)
    x, c, iters = _pivot(G, b, tol, simplex=True, solve=solve, slot=slot)
    return x, _kkt_record(G, b, x, c, iters, tol, simplex=True)


def _kkt_record(A, b, x, c, iters, tol, simplex: bool) -> KKTRecord:
    """The KKTRecord of x with multiplier c (0 for nonneg_qp); mass_error
    and gap_bound only for the simplex."""
    g = A @ x - b
    on = x > 0
    support_residual = float(np.max(np.abs(g[on] - c))) if np.any(on) else 0.0
    off_support_slack = float(max(0.0, np.max(c - g[~on]))) if np.any(~on) else 0.0
    mass_error = gap_bound = 0.0
    if simplex:
        # g.x - min g for sum(x) = 1, summed as x.(g - min g): every term is
        # nonnegative in floating point, so the bound never rounds below zero
        mass_error = abs(float(x.sum()) - 1.0)
        gap_bound = float(x @ (g - np.min(g)))
    return KKTRecord(support_residual=support_residual,
                     off_support_slack=off_support_slack,
                     mass_error=mass_error,
                     multiplier=float(c),
                     iterations=iters,
                     tolerance=tol,
                     gap_bound=gap_bound)
