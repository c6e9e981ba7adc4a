"""Green kernel of a domain built from Riesz sweeps onto the complement sample.

Entry (i, j) of the Green matrix is the Riesz kernel minus the potential of
the unit point mass at x_i swept onto the complement sample Y, evaluated at
x_j. Rows are assembled source by source and the matrix is symmetrized by
averaging. The build returns the pre-symmetrization residual beside the
system; it is rounding in the two products (about 1e-15) unless a Dirac
column falls back to the cone projection. With Y empty the construction
degenerates to the Riesz matrix on D. A system's F is the target of its
Gauss problems, and GreenSystem.restrict gives the system of a smaller F on
the same matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .core import (DiscreteMeasure, DomainConfig, InvariantError,
                   ValidationError, _index_array)
from .balayage import BalayageResult, _sweep, dirac_sweep_matrix
from .riesz import (KernelMatrix, _riesz_entries, _simplex_minimum,
                    _symmetric_kernel, weight_norm)
from .solvers import FactorSlot, _certify

ENTRY_TOL = 1e-10


@dataclass(frozen=True)
class GreenSystem:
    """Green kernel on the D-points of cfg's cloud.

    The green matrix is indexed by position within cfg.d_indices and keeps
    no solve (KernelMatrix.solve); the system keeps no Riesz matrix and no
    Dirac sweep onto Y (green._build returns it to the green task). Solves
    over all of F share green_f's factor slot, and every other target is
    factored by its solver. When F leads D (_leads), the slot starts out
    holding the F block of the certificate's factor as its guide
    (_system), which the first sweep onto F takes and frees
    (solvers.FactorSlot). A restricted system (restrict) holds its own
    green_f and slot, with no guide.
    """

    cfg: DomainConfig
    green: KernelMatrix

    def d_positions(self, global_indices) -> np.ndarray:
        idx = np.asarray(global_indices, dtype=int)
        pos = np.searchsorted(self.cfg.d_indices, idx)
        ok = (pos < self.cfg.d_indices.size) & (self.cfg.d_indices[np.minimum(
            pos, self.cfg.d_indices.size - 1)] == idx)
        if not np.all(ok):
            raise ValidationError("indices outside the domain D")
        return pos

    @cached_property
    def green_f(self) -> KernelMatrix:
        """Green matrix on F, a principal block of the checked green, with
        the factor slot of the solves over all of F.

        Built by _system when it has a guide, which it hands to the slot,
        and otherwise on the first solve over all of F (sweep, Gauss solve,
        Green equilibrium, dual problem). When F leads D (_leads; as for
        every prefix member of restrict, and always when there is a guide)
        the entries are a view of green's leading block, which no solve
        writes; otherwise they are a gathered copy. Through the slot each
        solve starts from the free set the last one ended on, with its
        factor, since these solves end on nearly the same support; the
        first sweep pivots on the guide, if any, and frees it. A kept
        factor is, bit for bit, a solver's own.
        """
        f = self.cfg.f_indices
        entries = (self.green.entries[:f.size, :f.size] if _leads(self.cfg)
                   else self.green.block(self.d_positions(f)))
        return KernelMatrix(entries, slot=FactorSlot())

    def restrict(self, f) -> GreenSystem:
        """The system of the same D, Y and green matrix whose F is f, a
        nonempty subset of F (F itself gives this system)."""
        f = _index_array(f, len(self.cfg.point_set), "f")
        if f.size == 0:
            raise ValidationError("target set must be nonempty")
        if not np.isin(f, self.cfg.f_indices).all():
            raise ValidationError("target set must lie inside F")
        if f.size == self.cfg.f_indices.size:
            return self
        return GreenSystem(replace(self.cfg, f_indices=f), self.green)

    def measure_on_d(self, mu: DiscreteMeasure) -> np.ndarray:
        if len(mu) != len(self.cfg.point_set):
            raise ValidationError("measure size does not match the point cloud")
        supp = mu.support
        if not np.isin(supp, self.cfg.d_indices).all():
            raise ValidationError("measure must be supported in D")
        return mu.weights[self.cfg.d_indices]

    def lift(self, x: np.ndarray, f: np.ndarray) -> DiscreteMeasure:
        """The cloud measure with weights x at the sorted indices f."""
        w = np.zeros(len(self.cfg.point_set))
        w[f] = x
        return DiscreteMeasure(w)

    def distance(self, mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
        """Green energy norm of mu - nu, both carried by D."""
        return weight_norm(self.green, self.measure_on_d(mu) - self.measure_on_d(nu))


def build_green(cfg: DomainConfig, sigma: float = 1.0) -> GreenSystem:
    """The Green system of cfg (_build), which keeps no Dirac sweep."""
    return _build(cfg, sigma)[0]


def _build(cfg: DomainConfig,
           sigma: float) -> tuple[GreenSystem, np.ndarray, float]:
    """The Green system of cfg (_system), the |Y| x |D| Dirac sweep W,
    whose column k is the swept unit mass of the k-th D-point, row j its
    weight at the j-th Y-point (0 x |D| when Y is empty), and the
    pre-symmetrization residual max |raw - raw.T| (0.0 when Y is empty).

    With Y empty the Green matrix is the Riesz matrix on D. Otherwise the
    Dirac sweep factors K_YY, and the Green matrix is the Schur complement
    of K_YY in the Riesz matrix: the two are positive definite if and only
    if the Riesz matrix is (Haynsworth, 1968). A column the sweep recomputes
    by cone projection leaves that Schur complement, so then the Riesz
    matrix is factored as well.
    """
    d, y = cfg.d_indices, cfg.y_indices
    # no solve reads a kept solve of either kernel: sweeps and strict
    # targets take blocks, and solves over F share green_f's slot
    K = _symmetric_kernel(_riesz_entries(cfg.point_set, cfg.alpha, sigma))
    if y.size == 0:
        # an exactly symmetric block; a D of every point shares K's entries
        green = K if d.size == K.size else KernelMatrix(K.block(d))
        W, asym = np.zeros((0, d.size)), 0.0
    else:
        fallbacks = []
        W = dirac_sweep_matrix(K, d, y, _fallbacks=fallbacks)
        if any(fallbacks):
            # the Green matrix is then no Schur complement: certify K itself
            _certify(K.entries)
        # the product's (j, i) entry is the potential at x_j of the swept
        # unit mass at x_i; one gathered K_d serves raw and the Riesz bound
        K_d = K.block(d)
        raw = K_d - (K.block(d, y) @ W).T
        # one fresh buffer holds |raw - raw.T| and then (raw + raw.T) / 2
        entries = np.subtract(raw, raw.T)
        np.abs(entries, out=entries)
        asym = float(np.max(entries)) if d.size else 0.0
        np.add(raw, raw.T, out=entries)
        entries /= 2.0
        low = float(np.min(entries))
        if low < -ENTRY_TOL:
            raise InvariantError(
                f"Green entries reach {low}; complement sampling is too coarse")
        if float(np.max(entries - K_d)) > ENTRY_TOL:
            raise InvariantError("Green entries exceed the Riesz entries")
        green = _symmetric_kernel(entries)
        del K_d, raw
    del K  # the system keeps no Riesz matrix: free it before the certificate
    return _system(cfg, green), W, asym


def _leads(cfg: DomainConfig) -> bool:
    """Whether F leads D: F's D-positions are 0, ..., |F| - 1."""
    return np.array_equal(cfg.d_indices[:cfg.f_indices.size], cfg.f_indices)


def _system(cfg: DomainConfig, green: KernelMatrix) -> GreenSystem:
    """The Green system of cfg on green, its exactly symmetric Green matrix
    on D, certified positive definite by one Cholesky factorization in
    green's own buffer (solvers._certify). When F leads D (_leads) the
    factor's F block becomes the guide in green_f's slot, its only owner.
    """
    guide, _ = _certify(green.entries, cfg.f_indices.size if _leads(cfg) else 0)
    gs = GreenSystem(cfg, green)
    if guide is not None:
        gs.green_f.slot.guide = guide
    return gs


def green_sweep(gs: GreenSystem, mu: DiscreteMeasure, f,
                force_projection: bool = False) -> BalayageResult:
    """Project mu in the Green quadratic form onto measures carried by f.

    This is the balayage sweep on the Green kernel over D, lifted back to
    the cloud; a sweep onto all of F solves on green_f, its factor and its
    factor slot. The Green kernel is perfect, so this equals sweeping mu
    onto f and Y jointly in the Riesz form and keeping the part on f; check
    9 measures that agreement. A measure already carried by f is returned
    unchanged unless force_projection re-runs the solver on it.
    """
    f = _index_array(f, len(gs.cfg.point_set), "f")
    f_pos = gs.d_positions(f)
    res = _sweep(gs.green, DiscreteMeasure(gs.measure_on_d(mu)), f_pos,
                 force_projection,
                 lambda _: ((gs.green_f.entries, gs.green_f.slot)
                            if np.array_equal(f, gs.cfg.f_indices)
                            else (gs.green.block(f_pos), None)))
    return replace(res, swept=gs.lift(res.swept.weights[f_pos], f))


def green_equilibrium(gs: GreenSystem, f) -> tuple[float, DiscreteMeasure]:
    """Green capacity of f and the measure with Green potential 1 on f.

    Over all of F the solve starts from the free set in green_f's slot,
    where the last solve on F ended.
    """
    f = _index_array(f, len(gs.cfg.point_set), "f")
    if f.size == 0:
        raise ValidationError("equilibrium target must be nonempty")
    if np.array_equal(f, gs.cfg.f_indices):
        # sorted distinct positions covering green_f: its whole-kernel path
        energy, x = _simplex_minimum(gs.green_f, np.arange(f.size))
    else:
        energy, x = _simplex_minimum(gs.green, gs.d_positions(f))
    return 1.0 / energy, gs.lift(x / energy, f)


def frostman_excess(gs: GreenSystem, gamma: DiscreteMeasure) -> float:
    """Overshoot of gamma's Green potential on D above its maximum on supp(gamma).

    The maximum principle bounds the potential everywhere by its supremum on
    the support, so the value is 0 in the continuum; on a sample it measures
    the overshoot at D-points between support points. It is never negative,
    since the support lies in D, and it is reported, never asserted.
    """
    u = gs.green.entries @ gs.measure_on_d(gamma)
    return float(np.max(u) - np.max(u[gs.d_positions(gamma.support)]))
