"""Green kernel of a domain built from Riesz sweeps onto the complement sample.

Entry (i, j) of the Green matrix is the Riesz kernel minus the potential of
the unit point mass at x_i swept onto the complement sample Y, evaluated at
x_j. Rows are assembled source by source, the matrix is symmetrized by
averaging, and the pre-symmetrization residual is kept as a measure of the
Y-sampling error. With Y empty the construction degenerates to the Riesz
matrix on D.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import (DiscreteMeasure, DomainConfig, InvariantError, ValidationError,
                   _index_array)
from .balayage import (BalayageResult, SweepResiduals, _domination_excess,
                       dirac_sweep_matrix, sweep)
from .riesz import KernelMatrix, assemble_riesz, make_kernel
from .solvers import nonneg_qp

ENTRY_TOL = 1e-10


@dataclass(frozen=True)
class GreenSystem:
    """Green kernel on the D-points plus the Riesz system it came from.

    The green matrix is indexed by position within cfg.d_indices;
    dirac_sweep_to_y column k is the swept unit mass for the k-th D-point.
    """

    cfg: DomainConfig
    riesz_full: KernelMatrix
    green: KernelMatrix
    dirac_sweep_to_y: np.ndarray
    asymmetry_residual: float

    def d_positions(self, global_indices) -> np.ndarray:
        idx = np.asarray(global_indices, dtype=int)
        pos = np.searchsorted(self.cfg.d_indices, idx)
        ok = (pos < self.cfg.d_indices.size) & (self.cfg.d_indices[np.minimum(
            pos, self.cfg.d_indices.size - 1)] == idx)
        if not np.all(ok):
            raise ValidationError("indices outside the domain D")
        return pos

    def measure_on_d(self, mu: DiscreteMeasure) -> np.ndarray:
        if len(mu) != self.riesz_full.size:
            raise ValidationError("measure size does not match the point cloud")
        supp = mu.support
        if not np.isin(supp, self.cfg.d_indices).all():
            raise ValidationError("measure must be supported in D")
        return mu.weights[self.cfg.d_indices]

    def lift_from_d(self, weights_on_d: np.ndarray) -> DiscreteMeasure:
        w = np.zeros(self.riesz_full.size)
        w[self.cfg.d_indices] = weights_on_d
        return DiscreteMeasure(w)


def build_green(cfg: DomainConfig, sigma: float = 1.0,
                riesz_full: KernelMatrix | None = None) -> GreenSystem:
    if riesz_full is None:
        riesz_full = assemble_riesz(cfg.point_set, cfg.alpha, sigma)
    K = riesz_full
    d = cfg.d_indices
    y = cfg.y_indices
    if y.size == 0:
        # a principal block of the checked SPD K is exactly symmetric and SPD
        # (Cauchy interlacing); the solvers' own Cholesky still raises
        # SolverError. A D of every point shares K's entries and factor.
        if d.size == K.size:
            green = replace(K, kind="green")
        else:
            green = KernelMatrix(K.block(d), K.alpha, K.dim, kind="green")
        return GreenSystem(cfg=cfg, riesz_full=K, green=green,
                           dirac_sweep_to_y=np.zeros((K.size, d.size)),
                           asymmetry_residual=0.0)
    B = dirac_sweep_matrix(K, d, y)
    # cross[j, i] = potential at x_j of the swept unit mass at x_i
    cross = K.block(d, y) @ B[y, :]
    raw = K.block(d) - cross.T
    asym = float(np.max(np.abs(raw - raw.T))) if d.size else 0.0
    entries = (raw + raw.T) / 2.0
    low = float(np.min(entries))
    if low < -ENTRY_TOL:
        raise InvariantError(
            f"Green entries reach {low}; complement sampling is too coarse")
    if float(np.max(entries - K.block(d))) > ENTRY_TOL:
        raise InvariantError("Green entries exceed the Riesz entries")
    green = make_kernel(entries, K.alpha, K.dim, kind="green")
    # no solve reads the Riesz factor once Y is split off: sweeps take blocks
    return GreenSystem(cfg=cfg, riesz_full=replace(K, factor=None), green=green,
                       dirac_sweep_to_y=B, asymmetry_residual=asym)


def green_sweep(gs: GreenSystem, mu: DiscreteMeasure, f,
                force_projection: bool = False) -> BalayageResult:
    """Sweep mu onto f in the Green form, cross-checked against the Riesz route.

    The primary result projects mu in the Green quadratic form onto measures
    carried by f. The alternative route sweeps mu onto f and Y jointly in the
    Riesz form and keeps the part on f; the worst weight disagreement between
    the routes is recorded, with a warning flag once it exceeds ten times the
    solver tolerance. With Y empty the Green matrix is the Riesz matrix on D,
    so both routes pose the same problem; the cross-check is skipped and the
    discrepancy reads 0. A measure already carried by f is returned unchanged
    unless force_projection re-runs the solver on it.
    """
    f = _index_array(f, gs.riesz_full.size, "f")
    if f.size == 0:
        raise ValidationError("sweep target must be nonempty")
    f_pos = gs.d_positions(f)
    w_d = gs.measure_on_d(mu)
    if not force_projection and np.isin(mu.support, f).all():
        res = SweepResiduals(0.0, 0.0, 0.0)
        return BalayageResult(swept=mu, mass_in=mu.total_mass,
                              mass_out=mu.total_mass, kkt_residuals=res,
                              algorithm="identity",
                              active_set_size=int(mu.support.size),
                              path_discrepancy=0.0)
    G = gs.green
    u_in = G.entries @ w_d
    x, rec = nonneg_qp(G.block(f_pos), u_in[f_pos])
    res = SweepResiduals(equality_on_support=rec.support_residual,
                         inequality_on_target=rec.off_support_slack,
                         domination_off_target=_domination_excess(G, x, f_pos, u_in))

    discrepancy, warning = 0.0, None
    if gs.cfg.y_indices.size:
        joint = np.union1d(f, gs.cfg.y_indices)
        alt = sweep(gs.riesz_full, mu, joint).swept.weights[f]
        discrepancy = float(np.max(np.abs(alt - x)))
        if discrepancy > 10 * max(rec.tolerance, 1e-14):
            warning = "path-disagreement"

    w = np.zeros(gs.riesz_full.size)
    w[f] = x
    algorithm = "direct-solve" if rec.iterations == 1 else "cone-projection"
    return BalayageResult(swept=DiscreteMeasure(w), mass_in=mu.total_mass,
                          mass_out=float(x.sum()), kkt_residuals=res,
                          algorithm=algorithm,
                          active_set_size=int(np.count_nonzero(x)),
                          path_discrepancy=discrepancy, warning=warning)


def green_equilibrium(gs: GreenSystem, f) -> tuple[float, DiscreteMeasure]:
    """Green capacity of f and the measure with Green potential 1 on f."""
    from .riesz import _simplex_minimum

    f = _index_array(f, gs.riesz_full.size, "f")
    if f.size == 0:
        raise ValidationError("equilibrium target must be nonempty")
    f_pos = gs.d_positions(f)
    energy, x, _ = _simplex_minimum(gs.green, f_pos)
    gamma = np.zeros(gs.riesz_full.size)
    gamma[f] = x / energy
    return 1.0 / energy, DiscreteMeasure(gamma)


def frostman_excess(gs: GreenSystem, gamma: DiscreteMeasure) -> float:
    """Overshoot of gamma's Green potential on D above its maximum on supp(gamma).

    The maximum principle bounds the potential everywhere by its supremum on
    the support, so the value is 0 in the continuum; on a sample it measures
    the overshoot at D-points between support points. It is never negative,
    since the support lies in D, and it is reported, never asserted.
    """
    u = gs.green.entries @ gs.measure_on_d(gamma)
    return float(np.max(u) - np.max(u[gs.d_positions(gamma.support)]))
