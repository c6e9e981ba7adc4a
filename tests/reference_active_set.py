"""Reference oracle: the one-index-per-iteration active-set solvers.

These are the primal active-set `nonneg_qp` and delete-down `simplex_qp`
that greenpot shipped before its block-principal-pivoting core, kept here
unchanged (apart from imports) so that tests can compare the two solvers on
the same instances. The KKT record builders and tolerance scaling are shared
with `greenpot.solvers`.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cholesky, solve_triangular

from greenpot.core import SolverError
from greenpot.solvers import KKTRecord, _kkt_record, _scale_tol


class _ActiveFactor:
    """Upper-triangular Cholesky factor of A[F][:, F] for a mutable index list F.

    Indices are kept in append order; `delete` removes one position and repairs
    the factor with Givens rotations, which keeps every operation O(k^2).
    """

    def __init__(self, A: np.ndarray):
        self.A = A
        self.idx: list[int] = []
        self.R = np.zeros((0, 0))

    def set_all(self, indices) -> None:
        self.idx = list(indices)
        self.refactor()

    def refactor(self) -> None:
        if not self.idx:
            self.R = np.zeros((0, 0))
            return
        block = self.A[np.ix_(self.idx, self.idx)]
        try:
            self.R = cholesky(block, lower=False, check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"kernel block of size {len(self.idx)} is not "
                              f"positive definite: {exc}") from exc

    def append(self, j: int) -> None:
        k = len(self.idx)
        if k == 0:
            d = self.A[j, j]
            if d <= 0:
                raise SolverError("nonpositive diagonal in kernel matrix")
            self.idx = [j]
            self.R = np.array([[np.sqrt(d)]])
            return
        col = self.A[self.idx, j]
        r = solve_triangular(self.R, col, trans=1, lower=False, check_finite=False)
        d = self.A[j, j] - r @ r
        if d <= 1e-13 * self.A[j, j]:
            # incremental factor has degraded; rebuild before giving up
            self.idx.append(j)
            self.refactor()
            return
        R = np.zeros((k + 1, k + 1))
        R[:k, :k] = self.R
        R[:k, k] = r
        R[k, k] = np.sqrt(d)
        self.R = R
        self.idx.append(j)

    def delete(self, pos: int) -> None:
        k = len(self.idx)
        R = np.delete(self.R, pos, axis=1)
        for i in range(pos, k - 1):
            a, b = R[i, i], R[i + 1, i]
            rad = np.hypot(a, b)
            if rad == 0.0:
                continue
            c, s = a / rad, b / rad
            hi, lo = R[i, i:].copy(), R[i + 1, i:].copy()
            R[i, i:] = c * hi + s * lo
            R[i + 1, i:] = c * lo - s * hi
            R[i, i] = rad
            R[i + 1, i] = 0.0
        self.R = np.ascontiguousarray(R[:k - 1, :])
        del self.idx[pos]

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        y = solve_triangular(self.R, rhs, trans=1, lower=False, check_finite=False)
        return solve_triangular(self.R, y, trans=0, lower=False, check_finite=False)


def nonneg_qp(A: np.ndarray, b: np.ndarray, rtol: float = 1e-12,
              max_iter: int | None = None) -> tuple[np.ndarray, KKTRecord]:
    """Minimize 0.5 x'Ax - b'x over x >= 0 for symmetric positive definite A.

    Classic active-set descent: grow the positive set one most-violating index
    at a time, stepping back to the boundary whenever a free variable would
    turn negative. Tries a plain linear solve first, which settles the common
    case of an everywhere-positive minimizer with a single factorization.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).ravel()
    m = b.size
    if A.shape != (m, m):
        raise SolverError(f"matrix shape {A.shape} does not match rhs size {m}")
    if m == 0:
        return np.zeros(0), KKTRecord(0.0, 0.0, 0.0, 0.0, 0, 0.0)
    tol = _scale_tol(b, np.diag(A), rtol)
    if max_iter is None:
        max_iter = 40 * m + 100

    fac = _ActiveFactor(A)

    # fast path: unconstrained minimizer already admissible
    fac.set_all(range(m))
    z = fac.solve(b)
    if np.min(z) >= -10 * tol:
        x = np.maximum(z, 0.0)
        return x, _kkt_record(A, b, x, 0.0, 1, tol, simplex=False)

    x = np.zeros(m)
    fac = _ActiveFactor(A)
    passive = np.zeros(m, dtype=bool)
    blocked = np.zeros(m, dtype=bool)
    w = b.copy()
    iters = 0
    while True:
        iters += 1
        if iters > max_iter:
            raise SolverError(f"cone projection failed to converge in {max_iter} steps")
        cand = np.where(~passive & ~blocked)[0]
        if cand.size == 0:
            break
        jrel = int(np.argmax(w[cand]))
        if w[cand][jrel] <= tol:
            break
        j = int(cand[jrel])
        fac.append(j)
        passive[j] = True
        while True:
            idx = np.array(fac.idx)
            z = fac.solve(b[idx])
            if np.min(z) > 0.0:
                x[:] = 0.0
                x[idx] = z
                break
            xi = x[idx]
            neg = z <= 0.0
            ratios = np.full(idx.size, np.inf)
            denom = xi - z
            ok = neg & (denom > 0.0)
            ratios[ok] = xi[ok] / denom[ok]
            ratios[neg & ~ok] = 0.0
            alpha = float(np.min(ratios))
            xi = xi + alpha * (z - xi)
            hit = np.where((ratios <= alpha) | (xi <= 0.0))[0]
            x[:] = 0.0
            x[idx] = np.maximum(xi, 0.0)
            if hit.size == idx.size:
                # entering variable was pinned straight back: freeze it out
                blocked[j] = True
            for pos in hit[::-1]:
                x[idx[pos]] = 0.0
                passive[idx[pos]] = False
                fac.delete(int(pos))
            if not fac.idx:
                break
            if alpha == 0.0 and hit.size == 1 and idx[hit[0]] == j:
                blocked[j] = True
                break
        if fac.idx:
            idx = np.array(fac.idx)
            w = b - A[:, idx] @ x[idx]
        else:
            w = b.copy()

    if fac.idx:
        fac.refactor()
        z = fac.solve(b[np.array(fac.idx)])
        x[:] = 0.0
        x[np.array(fac.idx)] = np.maximum(z, 0.0)
    return x, _kkt_record(A, b, x, 0.0, iters, tol, simplex=False)


def simplex_qp(G: np.ndarray, b: np.ndarray | None = None, rtol: float = 1e-12,
               max_iter: int | None = None) -> tuple[np.ndarray, KKTRecord]:
    """Minimize x'Gx - 2 b'x over the probability simplex for SPD G.

    At the minimizer (G x - b) equals the multiplier c on the support and is
    >= c elsewhere; the reported multiplier is that constant. The free-set
    subproblem splits into two solves, u = G_FF^{-1} b_F and v = G_FF^{-1} 1,
    combined as x_F = u + c v with c = (1 - sum u) / (sum v).
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
    tol = _scale_tol(b, np.diag(G), rtol)
    if max_iter is None:
        max_iter = 40 * m + 100

    fac = _ActiveFactor(G)
    fac.set_all(range(m))
    x = np.full(m, 1.0 / m)
    pinned = np.zeros(m, dtype=bool)
    iters = 0
    deletions_since_refactor = 0
    ones_cache: dict[int, np.ndarray] = {}

    while True:
        iters += 1
        if iters > max_iter:
            raise SolverError(f"simplex solve failed to converge in {max_iter} steps")
        idx = np.array(fac.idx)
        k = idx.size
        ones = ones_cache.get(k)
        if ones is None:
            ones = np.ones(k)
            ones_cache[k] = ones
        u = fac.solve(b[idx])
        v = fac.solve(ones)
        denom = float(v.sum())
        if denom <= 0:
            raise SolverError("lost positive definiteness in simplex solve")
        c = (1.0 - float(u.sum())) / denom
        y = u + c * v
        ymin = float(np.min(y))
        if ymin >= -tol:
            if deletions_since_refactor > 0:
                # polish: redo the terminal subproblem on a fresh factorization
                fac.refactor()
                deletions_since_refactor = 0
                continue
            x[:] = 0.0
            x[idx] = np.maximum(y, 0.0)
            if not np.any(pinned):
                return x, _kkt_record(G, b, x, c, iters, tol, simplex=True)
            g = G @ x - b
            wi = np.where(pinned)[0]
            s = g[wi] - c
            smin_pos = int(np.argmin(s))
            if s[smin_pos] >= -tol:
                return x, _kkt_record(G, b, x, c, iters, tol, simplex=True)
            j = int(wi[smin_pos])
            fac.append(j)
            pinned[j] = False
            continue
        # step from the current feasible point toward y, stop at the first
        # coordinate leaving the cone, pin every coordinate that hits zero
        xi = x[idx]
        neg = y < 0.0
        ratios = np.full(k, np.inf)
        denom_r = xi - y
        ok = neg & (denom_r > 0.0)
        ratios[ok] = xi[ok] / denom_r[ok]
        ratios[neg & ~ok] = 0.0
        alpha = float(np.min(ratios))
        xi = xi + alpha * (y - xi)
        hit = np.where(ratios <= alpha)[0]
        if hit.size == k:
            raise SolverError("simplex solve pinned every coordinate")
        x[:] = 0.0
        x[idx] = np.maximum(xi, 0.0)
        for pos in hit[::-1]:
            x[idx[pos]] = 0.0
            pinned[idx[pos]] = True
            fac.delete(int(pos))
            deletions_since_refactor += 1
