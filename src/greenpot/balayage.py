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
from scipy.linalg import cho_factor, cho_solve

from .core import DiscreteMeasure, ValidationError, _index_array
from .riesz import KernelMatrix, potential
from .solvers import nonneg_qp


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
    swept: DiscreteMeasure
    mass_in: float
    mass_out: float
    kkt_residuals: SweepResiduals
    algorithm: str
    active_set_size: int
    path_discrepancy: float | None = None
    warning: str | None = None

    def to_json_dict(self) -> dict:
        out = {
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
        if self.path_discrepancy is not None:
            out["path_discrepancy"] = self.path_discrepancy
        if self.warning is not None:
            out["warning"] = self.warning
        return out


def _domination_excess(K: KernelMatrix, x_on_q: np.ndarray, q: np.ndarray,
                       u_in: np.ndarray) -> float:
    off = np.ones(K.size, dtype=bool)
    off[q] = False
    if not np.any(off):
        return 0.0
    u_swept_off = K.entries[np.ix_(np.where(off)[0], q)] @ x_on_q
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
    q = _index_array(q, K.size, "q")
    if q.size == 0:
        raise ValidationError("sweep target must be nonempty")
    if len(xi) != K.size:
        raise ValidationError("measure size does not match kernel size")
    if not force_projection and np.isin(xi.support, q).all():
        res = SweepResiduals(0.0, 0.0, 0.0)
        return BalayageResult(swept=xi, mass_in=xi.total_mass, mass_out=xi.total_mass,
                              kkt_residuals=res, algorithm="identity",
                              active_set_size=int(xi.support.size))
    u_in = potential(K, xi)
    x, rec = nonneg_qp(K.block(q), u_in[q])
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
                          active_set_size=int(np.count_nonzero(x)))


def dirac_sweep_matrix(K: KernelMatrix, sources, q) -> np.ndarray:
    """Matrix whose column k is the swept unit point mass at the k-th source.

    Sources follow sorted, deduplicated order. Sources inside the target keep
    their unit column. The remaining columns come from one shared
    factorization of the target block; any column the plain solve leaves
    negative is recomputed by cone projection on a fresh copy of the block.
    """
    sources = _index_array(sources, K.size, "sources")
    q = _index_array(q, K.size, "q")
    if q.size == 0:
        raise ValidationError("sweep target must be nonempty")
    B = np.zeros((K.size, sources.size))
    inside = np.isin(sources, q)
    for k in np.where(inside)[0]:
        B[sources[k], k] = 1.0
    outside = np.where(~inside)[0]
    if outside.size == 0:
        return B
    # the block is exactly symmetric, so its transpose is the Fortran-ordered
    # copy LAPACK would otherwise make, and is factored in place
    block = cho_factor(K.block(q).T, lower=False, overwrite_a=True,
                       check_finite=False)
    rhs = K.block(q, sources[outside])
    W = cho_solve(block, rhs, check_finite=False)
    del block  # the block now holds the factor; free it before any fallback
    neg_tol = 1e-11 * max(1.0, float(np.max(rhs)))
    negative = np.flatnonzero(np.min(W, axis=0) < -neg_tol)
    if negative.size:
        A = K.block(q)
        for col in negative:
            W[:, col], _ = nonneg_qp(A, rhs[:, col])
    B[np.ix_(q, outside)] = np.maximum(W, 0.0)
    return B
