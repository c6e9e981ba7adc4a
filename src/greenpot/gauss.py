"""Weighted minimum-energy problem on a target set under an external charge.

The external charge theta sits in Omega and acts on probability measures mu
carried by F through the functional |mu|_g^2 - 2 int U^theta_g dmu, a strictly
convex quadratic on the simplex. The minimizer, the weighted equilibrium
constant, the walk along a nested family (monotone values and escaping
mass), support splits, and the dual-field consistency checks all live here.
One ExternalField is one problem: it holds the Green system whose F it
targets, and a family member's is built on a restricted system.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .core import (DiscreteMeasure, DomainConfig, InvariantError, ValidationError,
                   _index_array, nearest_neighbor_distances,
                   validate_field_separation)
from .green import GreenSystem, green_equilibrium, green_sweep
from .solvers import KKTRecord, _kkt_record, simplex_qp

# An F-point is boundary when an Omega-point lies within this many of its
# nearest-F-neighbour spacings; Omega-points connect under the same rule.
ADJACENCY_FACTOR = 1.5
# Largest excess of |lam_s - lam_t|^2 over |w_s - w_t| that a nested
# family's pairs may show (FamilyReport.max_excess).
PARALLELOGRAM_TOL = 1e-9


def closed_form_applies(swept_mass: float) -> bool:
    """Mass at most 1 up to rounding: the minimizer is then the swept charge
    plus a multiple of the equilibrium measure (explicit_solution)."""
    return bool(swept_mass <= 1.0 + 1e-12)


@dataclass(frozen=True)
class ExternalField:
    """The charge theta, its separation from F, and its derived fields.

    field_values holds f = -U^theta_g on the D-points; dual_field_values the
    analogous vector for the swept charge; mass_bound is the a-priori cap
    theta(D) / rho^(n - alpha) on the field energy of any probability measure
    on F. system is the Green system it was built on, whose F is the target.
    """

    theta: DiscreteMeasure
    rho: float
    field_values: np.ndarray
    dual_field_values: np.ndarray
    theta_swept: DiscreteMeasure
    mass_bound: float
    system: GreenSystem = field(compare=False, repr=False)


@dataclass(frozen=True)
class GaussSolution:
    minimizer: DiscreteMeasure
    w_value: float
    c_constant: float
    kkt: KKTRecord
    diagnostics: dict


def external_field(gs: GreenSystem, theta: DiscreteMeasure) -> ExternalField:
    rho = validate_field_separation(theta, gs.cfg)
    w_d = gs.measure_on_d(theta)
    u_theta = gs.green.entries @ w_d
    swept = green_sweep(gs, theta, gs.cfg.f_indices).swept
    u_swept = gs.green.entries @ gs.measure_on_d(swept)
    n, alpha = gs.cfg.point_set.dim, gs.cfg.alpha
    return ExternalField(theta=theta, rho=rho,
                         field_values=-u_theta,
                         dual_field_values=-u_swept,
                         theta_swept=swept, system=gs,
                         mass_bound=theta.total_mass / rho ** (n - alpha))


def _check_value_bounds(fld: ExternalField, w_value: float) -> None:
    # dual_field_values is -(G @ swept_d), and negation is exact
    swept_d = fld.system.measure_on_d(fld.theta_swept)
    lower_obs = float(swept_d @ fld.dual_field_values)
    lower_mass = -2.0 * fld.mass_bound
    slack = 1e-8 * max(1.0, abs(w_value))
    if w_value < max(lower_obs, lower_mass) - slack:
        raise InvariantError(
            f"functional value {w_value} undercuts its lower bounds "
            f"({lower_obs}, {lower_mass})")


def solve_gauss(fld: ExternalField) -> GaussSolution:
    """Minimize the functional over probability measures on the field's F.

    The simplex solver's equality multiplier is the weighted equilibrium
    constant; it is cross-checked against the integral of the weighted
    potential against the minimizer, and the gap is reported. kkt.gap_bound
    bounds the squared Green distance to the true minimizer at no extra
    cost. The solve starts from the free set in green_f's slot, where the
    last solve on F ended: after the field's sweep, that sweep's final free
    set, close to the minimizer's (the swept charge plus a multiple of the
    equilibrium measure).
    """
    gs = fld.system
    f = gs.cfg.f_indices
    G = gs.green_f.entries
    b = -fld.field_values[gs.d_positions(f)]
    x, rec = simplex_qp(G, b, slot=gs.green_f.slot)
    if rec.mass_error > 1e-12:
        raise InvariantError(f"minimizer mass off by {rec.mass_error}")
    energy = x @ (G @ x)
    w_value = float(energy - 2.0 * (b @ x))
    _check_value_bounds(fld, w_value)
    c_cross = float(energy - x @ b)
    field_energy = float(b @ x)
    if field_energy > fld.mass_bound + 1e-8 * max(1.0, fld.mass_bound):
        raise InvariantError(
            f"field energy {field_energy} exceeds the bound {fld.mass_bound}")
    diagnostics = {
        "c_cross_gap": abs(rec.multiplier - c_cross),
        "field_energy": field_energy,
    }
    return GaussSolution(minimizer=gs.lift(x, f), w_value=w_value,
                         c_constant=rec.multiplier, kkt=rec,
                         diagnostics=diagnostics)


def explicit_solution(fld: ExternalField) -> GaussSolution:
    """Closed-form minimizer on F: swept charge plus a rescaled equilibrium measure.

    Valid when the charge swept onto F carries mass at most 1; the remaining
    mass is supplied by the equilibrium measure of F scaled by the constant
    c = (1 - swept mass) / capacity. The minimizer's support holds the
    equilibrium measure's when c > 0, so after a solve on F the equilibrium
    solve starts from the free set that solve ended on (green_equilibrium).
    """
    gs = fld.system
    f = gs.cfg.f_indices
    swept = fld.theta_swept
    m = swept.total_mass
    if not closed_form_applies(m):
        raise ValidationError(
            f"swept charge mass {m} exceeds 1; the closed form does not apply")
    c_g, gamma = green_equilibrium(gs, f)
    c = (1.0 - m) / c_g
    lam = swept.weights + c * gamma.weights
    G = gs.green_f.entries
    b = -fld.field_values[gs.d_positions(f)]
    x = lam[f]
    w_value = float(x @ (G @ x) - 2.0 * (b @ x))
    return GaussSolution(minimizer=DiscreteMeasure(lam), w_value=w_value,
                         c_constant=c,
                         kkt=_kkt_record(G, b, x, c, 0, 0.0, simplex=True),
                         diagnostics={"green_capacity_of_f": c_g,
                                      "green_equilibrium_of_f": gamma})


def dual_check(fld: ExternalField, sol: GaussSolution) -> dict:
    """Solve on F under the swept charge's field and compare with sol.

    sol is the minimizer on F under the charge's own field. In the continuum
    the two problems share minimizer, constant, and value; the report
    carries the three observed gaps plus the swept-field solution. The
    solve starts from the free set in green_f's slot, where sol ended when
    it was the last solve on F.
    """
    gs = fld.system
    f = gs.cfg.f_indices
    G = gs.green_f.entries
    b_dual = -fld.dual_field_values[gs.d_positions(f)]
    x2, rec2 = simplex_qp(G, b_dual, slot=gs.green_f.slot)
    w2 = float(x2 @ (G @ x2) - 2.0 * (b_dual @ x2))
    dual = GaussSolution(minimizer=gs.lift(x2, f), w_value=w2,
                         c_constant=rec2.multiplier, kkt=rec2, diagnostics={})
    return {
        "w_gap": abs(sol.w_value - dual.w_value),
        "lambda_gap_norm": gs.distance(sol.minimizer, dual.minimizer),
        "c_gap": abs(sol.c_constant - dual.c_constant),
        "dual": dual,
    }


@dataclass(frozen=True)
class FamilyReport:
    """Values along a nested family, one list entry per member.

    cauchy_norms are Green distances to the last member's minimizer,
    window_masses the minimizers' masses on the window (window_size points),
    dist_to_swept their distances to the charge swept onto the member, and
    extremal_energies their weighted potentials integrated against
    themselves. parallelogram holds each pair's lhs |lam_s - lam_t|^2, rhs
    |w_s - w_t| and slack 2 int (U_t - c_t) dlam_s, where F_s is the smaller
    member and U_t = G lam_t + f the weighted potential of lam_t. The three
    satisfy lhs + slack = rhs, and the slack is at least 0 because U_t >= c_t
    on F_t, which carries lam_s; max_excess is the largest lhs - rhs, 0.0
    for a family of one member.
    """

    direction: str
    window_size: int
    sizes: list
    w_values: list
    c_values: list
    swept_masses: list
    cauchy_norms: list
    window_masses: list
    support_radii: list
    dist_to_swept: list
    extremal_energies: list
    parallelogram: list
    max_excess: float
    minimizers: list = field(compare=False)


def _nesting_direction(family) -> str:
    if not len(family):
        raise ValidationError("family must be nonempty")
    sets = [set(int(i) for i in np.asarray(m).ravel()) for m in family]
    if all(a <= b for a, b in zip(sets, sets[1:])):
        return "increasing"
    if all(a >= b for a, b in zip(sets, sets[1:])):
        return "decreasing"
    raise ValidationError("family members must be nested")


def _support_radius(pts: np.ndarray, mu: DiscreteMeasure) -> float:
    """Largest norm of a support point of mu, 0.0 for an empty support."""
    supp = mu.support
    return float(np.max(np.linalg.norm(pts[supp], axis=1))) if supp.size else 0.0


def family_sweep(fld: ExternalField, family, window=None) -> FamilyReport:
    """Sweep onto and solve on each member of a nested family once, in
    order, and check the monotone-value laws.

    A member's field is built on its GreenSystem.restrict system (F's is
    fld itself), so the member's sweep and solve share one factor slot.

    Along growing targets the optimal value may only fall (and the constant
    may only fall when every swept mass is at most 1); along shrinking
    targets the value may only rise. Violations beyond 1e-10 raise.

    The window defaults to the smallest member. Along growing truncations a
    total charge below 1 leaks the minimizer's mass out of any fixed window;
    with charge exactly 1 the minimizer tracks the swept charge; with charge
    above 1 its support freezes. The report leaves interpretation to the
    caller.
    """
    gs = fld.system
    direction = _nesting_direction(family)
    if window is None:
        window = family[0] if direction == "increasing" else family[-1]
    window = _index_array(window, len(gs.cfg.point_set), "window")
    sols, swept, sizes = [], [], []
    for member in family:
        sub = gs.restrict(member)
        sub_fld = fld if sub is gs else external_field(sub, fld.theta)
        swept.append(sub_fld.theta_swept)
        sols.append(solve_gauss(sub_fld))
        sizes.append(int(sub.cfg.f_indices.size))
    w = [s.w_value for s in sols]
    c = [s.c_constant for s in sols]
    masses = [s.total_mass for s in swept]
    for a, b in zip(w, w[1:]):
        if direction == "increasing" and b > a + 1e-10:
            raise InvariantError(f"value rose along a growing family: {a} -> {b}")
        if direction == "decreasing" and b < a - 1e-10:
            raise InvariantError(f"value fell along a shrinking family: {a} -> {b}")
    if direction == "increasing" and all(map(closed_form_applies, masses)):
        for a, b in zip(c, c[1:]):
            if b > a + 1e-10:
                raise InvariantError(f"constant rose along a growing family: {a} -> {b}")
    lams = [s.minimizer for s in sols]
    lam_ds = [gs.measure_on_d(lam) for lam in lams]
    G = gs.green.entries
    para = []
    for i in range(len(sols)):
        for j in range(i + 1, len(sols)):
            # F_s is the smaller member of the pair, F_t the larger
            s, t = (i, j) if direction == "increasing" else (j, i)
            diff = lam_ds[i] - lam_ds[j]
            u_t = G @ lam_ds[t] + fld.field_values
            para.append({"i": i, "j": j, "lhs": float(diff @ (G @ diff)),
                         "rhs": abs(w[i] - w[j]),
                         "slack": 2.0 * float(lam_ds[s] @ (u_t - c[t]))})
    pts = gs.cfg.point_set.points
    return FamilyReport(
        direction=direction, window_size=int(window.size), sizes=sizes,
        w_values=w, c_values=c, swept_masses=masses,
        cauchy_norms=[gs.distance(lam, lams[-1]) for lam in lams],
        window_masses=[float(lam.weights[window].sum()) for lam in lams],
        support_radii=[_support_radius(pts, lam) for lam in lams],
        dist_to_swept=[gs.distance(lam, nu) for lam, nu in zip(lams, swept)],
        extremal_energies=[float(x @ (G @ x) + fld.field_values @ x)
                           for x in lam_ds],
        parallelogram=para,
        max_excess=max((p["lhs"] - p["rhs"] for p in para), default=0.0),
        minimizers=lams)


def _component_count(n: int, i: np.ndarray, j: np.ndarray) -> int:
    """Connected components of the graph on nodes 0, ..., n - 1 whose edges
    are the pairs (i[k], j[k]), each joining both ways, by minimum-label
    hooking and pointer jumping (Shiloach & Vishkin, J. Algorithms 3, 1982).

    parent points every node at a smaller or equal node of its component.
    Each round hooks every root onto the smallest root across its edges,
    then jumps every pointer to its root; once no edge joins two roots, the
    roots are the components.
    """
    parent = np.arange(n)
    while True:
        ri, rj = parent[i], parent[j]
        low = np.minimum(ri, rj)
        hooked = parent.copy()
        np.minimum.at(hooked, ri, low)
        np.minimum.at(hooked, rj, low)
        while not np.array_equal(hooked[hooked], hooked):
            hooked = hooked[hooked]
        if np.array_equal(hooked, parent):
            return int(np.count_nonzero(parent == np.arange(n)))
        parent = hooked


def support_descriptor(sol: GaussSolution, cfg: DomainConfig) -> dict:
    """Split the minimizer's mass between the boundary layer of F and its interior.

    An F-point is boundary when some Omega-point sits within ADJACENCY_FACTOR
    times its spacing to the nearest other F-point. support_fraction is the
    share of F's points that the minimizer charges. The report also records
    whether the Omega cloud is graph-connected under the same rule, a pair
    being adjacent when either point reaches the other, since the support
    predictions assume a connected field region.
    """
    pts = cfg.point_set.points
    f = cfg.f_indices
    omega = cfg.omega_indices
    f_pts = pts[f]
    spacing = nearest_neighbor_distances(f_pts)
    omega_pts = pts[omega]
    omega_tree = cKDTree(omega_pts)
    d_to_omega, _ = omega_tree.query(f_pts, k=1)
    boundary_mask = d_to_omega <= ADJACENCY_FACTOR * spacing
    w_f = sol.minimizer.weights[f]
    total = float(w_f.sum())
    boundary_mass = float(w_f[boundary_mask].sum())

    if omega.size > 1:
        o_spacing = omega_tree.query(omega_pts, k=2)[0][:, 1]
        # each point's list holds the point itself, which joins nothing
        near = omega_tree.query_ball_point(
            omega_pts, ADJACENCY_FACTOR * o_spacing)
        n_comp = _component_count(
            omega.size, np.repeat(np.arange(omega.size), [len(n) for n in near]),
            np.concatenate(near))
    else:
        n_comp = 1
    return {
        "boundary_count": int(np.count_nonzero(boundary_mask)),
        "boundary_mass_fraction": boundary_mass / total if total else 0.0,
        "interior_mass_fraction": 1.0 - boundary_mass / total if total else 0.0,
        "support_fraction": float(np.count_nonzero(w_f) / f.size),
        "support_radius": _support_radius(pts, sol.minimizer),
        "omega_connected": bool(n_comp == 1),
        "omega_components": int(n_comp),
    }
