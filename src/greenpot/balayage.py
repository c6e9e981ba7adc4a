"""Sweeping of discrete measures onto index sets by energy-norm cone projection.

The swept measure is the nearest point, in the kernel quadratic form, to the
input measure among nonnegative measures supported on the target set. At the
optimum the swept potential matches the input potential on the swept support
and dominates it on the rest of the target; how far it also stays below the
input potential off the target is recorded as a diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve

from .core import DiscreteMeasure, ValidationError, _index_array
from .riesz import KernelMatrix, potential
from .solvers import _TILE, _cholesky, _gather, nonneg_qp


@dataclass(frozen=True)
class SweepResiduals:
    """KKT diagnostics: potential-match error on the swept support, potential
    domination shortfall on the rest of the target, and the worst excess of
    the swept potential over the input potential off the target."""

    equality_on_support: float
    inequality_on_target: float
    domination_off_target: float


@dataclass(frozen=True)
class BalayageResult:
    """A swept measure and its diagnostics; tolerance is the projection
    solve's feasibility tolerance (0 when the input is returned unchanged).

    algorithm is "identity" for an input returned unchanged, "direct-solve"
    when the solver's first free set (every index, or the free set held in
    its factor slot) was final, and "cone-projection" otherwise.
    """

    swept: DiscreteMeasure
    mass_in: float
    mass_out: float
    kkt_residuals: SweepResiduals
    algorithm: str
    active_set_size: int
    tolerance: float

    def to_json_dict(self) -> dict:
        return {
            "weights": {int(i): float(self.swept.weights[i]) for i in self.swept.support},
            "mass_in": self.mass_in,
            "mass_out": self.mass_out,
            "kkt_residuals": {
                "equality_on_support": self.kkt_residuals.equality_on_support,
                "inequality_on_target": self.kkt_residuals.inequality_on_target,
                "domination_off_target": self.kkt_residuals.domination_off_target,
            },
            "algorithm": self.algorithm,
            "active_set_size": self.active_set_size,
        }


def _domination_excess(K: KernelMatrix, x_on_q: np.ndarray, q: np.ndarray,
                       u_in: np.ndarray) -> float:
    """Largest excess, at least 0, of the potential of x_on_q on q over u_in
    off q, formed one _TILE-row block of K[off, q] at a time, so each row has
    the whole product's bytes. Each block is gathered by _gather, whose rows
    of K hold no more entries than the block: the transient is two |q|-wide
    blocks at most, never _TILE full rows of K."""
    off = np.ones(K.size, dtype=bool)
    off[q] = False
    off = np.flatnonzero(off)
    if not off.size:
        return 0.0
    u_swept_off = np.concatenate([
        _gather(K.entries, off[i:i + _TILE], q) @ x_on_q
        for i in range(0, off.size, _TILE)])
    return float(max(0.0, np.max(u_swept_off - u_in[off])))


def sweep(K: KernelMatrix, xi: DiscreteMeasure, q,
          force_projection: bool = False) -> BalayageResult:
    """Project xi onto nonnegative measures supported on q, in the K-form.

    A measure already supported on q is its own projection and is returned
    unchanged unless force_projection is set, which re-runs the solver so
    that its fixed-point behavior can be checked. Otherwise the projection
    is found by the nonnegative solver, whose plain-solve fast path covers
    targets swept with full support.
    """
    return _sweep(K, xi, q, force_projection, lambda q: (K.block(q), None))


def _sweep(K: KernelMatrix, xi: DiscreteMeasure, q, force_projection: bool,
           block_on) -> BalayageResult:
    """sweep, where block_on maps the sorted target q to K's block on q and
    that block's FactorSlot or None; it is called only to solve."""
    q = _index_array(q, K.size, "q")
    if q.size == 0:
        raise ValidationError("sweep target must be nonempty")
    if len(xi) != K.size:
        raise ValidationError("measure size does not match kernel size")
    if not force_projection and np.isin(xi.support, q).all():
        res = SweepResiduals(0.0, 0.0, 0.0)
        return BalayageResult(swept=xi, mass_in=xi.total_mass, mass_out=xi.total_mass,
                              kkt_residuals=res, algorithm="identity",
                              active_set_size=int(xi.support.size), tolerance=0.0)
    u_in = potential(K, xi)
    A, slot = block_on(q)
    x, rec = nonneg_qp(A, u_in[q], slot=slot)
    res = SweepResiduals(
        equality_on_support=rec.support_residual,
        inequality_on_target=rec.off_support_slack,
        domination_off_target=_domination_excess(K, x, q, u_in),
    )
    w = np.zeros(K.size)
    w[q] = x
    algorithm = "direct-solve" if rec.iterations == 1 else "cone-projection"
    return BalayageResult(swept=DiscreteMeasure(w), mass_in=xi.total_mass,
                          mass_out=float(x.sum()), kkt_residuals=res,
                          algorithm=algorithm,
                          active_set_size=int(np.count_nonzero(x)),
                          tolerance=rec.tolerance)


def dirac_sweep_matrix(K: KernelMatrix, sources, q, *,
                       _fallbacks: list | None = None) -> np.ndarray:
    """The |q| x |sources| block W whose column k is the swept unit point mass
    at the k-th source, restricted to the target q.

    Sources and target follow sorted, deduplicated order and must be
    disjoint. The columns come from one shared factorization of the target
    block; any column the plain solve leaves negative is recomputed by cone
    projection on a fresh copy of the block. _fallbacks, when given, is a
    list that receives the number of such columns (build_green reads it).
    """
    sources = _index_array(sources, K.size, "sources")
    q = _index_array(q, K.size, "q")
    if q.size == 0:
        raise ValidationError("sweep target must be nonempty")
    if np.isin(sources, q).any():
        raise ValidationError("sources and sweep target must be disjoint")
    if sources.size == 0:
        return np.zeros((q.size, 0))
    # factored in place, in the upper form the Green outputs are pinned to
    block = _cholesky(K.block(q), overwrite=True, _lower=False)
    rhs = K.block(q, sources)
    W = cho_solve(block, rhs, check_finite=False)
    del block  # the block now holds the factor; free it before any fallback
    neg_tol = 1e-11 * max(1.0, float(np.max(rhs)))
    negative = np.flatnonzero(np.min(W, axis=0) < -neg_tol)
    if _fallbacks is not None:
        _fallbacks.append(int(negative.size))
    if negative.size:
        A = K.block(q)
        for col in negative:
            W[:, col], _ = nonneg_qp(A, rhs[:, col])
    # cho_solve leaves W Fortran-ordered; BLAS rounds a product differently
    # by operand layout, and the Green outputs are pinned to a C-ordered W
    return np.maximum(W, 0.0, order="C")
