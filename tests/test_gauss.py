import hashlib
import weakref
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest

import greenpot.gauss
from greenpot import geometry, solvers, verify
from greenpot.core import (DiscreteMeasure, DomainConfig, InvariantError,
                           PointSet, ValidationError, nearest_neighbor_distances)
from greenpot.gauss import (PARALLELOGRAM_TOL, closed_form_applies, dual_check,
                            explicit_solution, external_field, family_sweep,
                            solve_gauss, support_descriptor)
from greenpot.green import build_green, green_equilibrium, green_sweep
from greenpot.riesz import _simplex_minimum, weight_norm
from greenpot.solvers import nonneg_qp, simplex_qp

from kelvin_oracle import kelvin_green, kelvin_shells


def field_system(charge=1.75):
    """F = {0, 1} on the x-axis, charge at (-2.5, 0, 0), no complement sample.

    The kernel block on F is [[2, 1], [1, 2]] and the charge potential on F
    is charge * (0.4, 2/7), so everything is solvable by hand.
    """
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [-2.5, 0.0, 0.0]])
    ps = PointSet.from_points(pts)
    cfg = DomainConfig(point_set=ps, d_indices=np.arange(3),
                       y_indices=np.array([], dtype=int),
                       f_indices=np.array([0, 1]), alpha=2.0)
    gs = build_green(cfg)
    theta = DiscreteMeasure.from_dict(3, {2: charge})
    return gs, external_field(gs, theta)


def gauss_value(gs, fld, mu):
    """x'Gx + 2 f.x over the D-weights: the functional the solver minimizes."""
    x = gs.measure_on_d(mu)
    return float(x @ (gs.green.entries @ x) + 2.0 * (fld.field_values @ x))


class TestExternalField:
    def test_hand_values(self):
        gs, fld = field_system()
        assert fld.rho == pytest.approx(2.5)
        assert fld.mass_bound == pytest.approx(0.7)
        assert np.allclose(fld.field_values, [-0.7, -0.5, -1.4], atol=1e-14)
        assert fld.theta_swept.total_mass == pytest.approx(0.4, abs=1e-14)
        assert np.allclose(fld.theta_swept.weights, [0.3, 0.1, 0.0],
                           atol=1e-14)

    def test_field_carries_its_system(self):
        # every solve on the field reads the system it was built on
        gs, fld = field_system()
        assert fld.system is gs
        assert "system" not in repr(fld)
        assert replace(fld, system=None) == fld

    def test_charge_on_f_rejected(self):
        gs, _ = field_system()
        with pytest.raises(ValidationError):
            external_field(gs, DiscreteMeasure.from_dict(3, {0: 1.0}))


class TestSolveGauss:
    def test_hand_minimizer(self):
        gs, fld = field_system()
        sol = solve_gauss(fld)
        assert np.allclose(sol.minimizer.weights, [0.6, 0.4, 0.0], atol=1e-12)
        assert sol.c_constant == pytest.approx(0.9, abs=1e-12)
        assert sol.w_value == pytest.approx(0.28, abs=1e-12)
        assert 0.0 <= sol.kkt.gap_bound <= 1e-12
        assert sol.diagnostics["c_cross_gap"] <= 1e-12
        c_g, _ = green_equilibrium(gs, [0, 1])
        assert c_g == pytest.approx(2.0 / 3.0, rel=1e-13)

    def test_objective_agrees_with_functional(self):
        gs, fld = field_system()
        sol = solve_gauss(fld)
        assert gauss_value(gs, fld, sol.minimizer) == pytest.approx(
            sol.w_value, abs=1e-13)

    def test_minimizer_beats_competitors(self):
        gs, fld = field_system()
        sol = solve_gauss(fld)
        dirac = DiscreteMeasure.from_dict(3, {0: 1.0})
        assert gauss_value(gs, fld, dirac) == pytest.approx(0.6, abs=1e-13)
        assert sol.w_value < gauss_value(gs, fld, dirac)

    @pytest.mark.parametrize("mass_error, raises", [(2e-12, True), (1e-12, False)])
    def test_minimizer_mass_off_by_more_than_1e_12_raises(self, monkeypatch,
                                                         mass_error, raises):
        # the gauss report has no unit-mass row: this raise is the check
        gs, fld = field_system()
        real = greenpot.gauss.simplex_qp

        def off(*args, **kwargs):
            x, rec = real(*args, **kwargs)
            return x, replace(rec, mass_error=mass_error)

        monkeypatch.setattr(greenpot.gauss, "simplex_qp", off)
        if raises:
            with pytest.raises(InvariantError, match="minimizer mass off by"):
                solve_gauss(fld)
        else:
            assert solve_gauss(fld).kkt.mass_error == mass_error

    def test_target_outside_f_rejected(self):
        # a smaller target is the problem on a restricted system
        gs, _ = field_system()
        with pytest.raises(ValidationError, match="inside F"):
            gs.restrict([2])

    def test_random_instances_beat_sampled_measures(self):
        rng = np.random.default_rng(5)
        f_pts = geometry.sphere_shell(40, 1.0, rotate=0.1)
        omega_pts = np.array([[2.0, 0.0, 0.0], [0.0, 2.2, 0.0]])
        pts = np.vstack([f_pts, omega_pts])
        cfg = DomainConfig(point_set=PointSet.from_points(pts),
                           d_indices=np.arange(42),
                           y_indices=np.array([], dtype=int),
                           f_indices=np.arange(40), alpha=2.0)
        gs = build_green(cfg)
        for trial in range(5):
            theta = DiscreteMeasure.from_dict(
                42, {40: rng.uniform(0.1, 2.0), 41: rng.uniform(0.1, 2.0)})
            fld = external_field(gs, theta)
            sol = solve_gauss(fld)
            samples = rng.dirichlet(np.ones(40), size=200)
            for s in samples:
                w = np.zeros(42)
                w[:40] = s
                trial_value = gauss_value(gs, fld, DiscreteMeasure(w))
                assert sol.w_value <= trial_value + 1e-10

    def test_multiplier_equals_extremal_energy(self):
        gs, fld = field_system()
        sol = solve_gauss(fld)
        lam_d = gs.measure_on_d(sol.minimizer)
        extremal = float(lam_d @ (gs.green.entries @ lam_d)
                         + fld.field_values @ lam_d)
        assert extremal == pytest.approx(sol.c_constant, abs=1e-13)


class TestKelvinTracking:
    """The unit charge at the centre of B_2 against concentric shells, on
    Kelvin's exact kernel: the minimizer tracks the swept charge (c = 0)."""

    def test_kernel_is_the_image_formula(self):
        R = 2.0
        rng = np.random.default_rng(4)
        pts = rng.uniform(-1.0, 1.0, size=(30, 3))
        pts[0] = 0.0
        G = kelvin_green(pts, R, np.full(30, 7.0))
        assert np.array_equal(G, G.T)
        for i, j in [(1, 2), (3, 17), (29, 5)]:
            x, y = pts[i], pts[j]
            image = R * R * x / (x @ x)
            assert G[i, j] == pytest.approx(
                1 / np.linalg.norm(x - y)
                - R / (np.linalg.norm(x) * np.linalg.norm(y - image)), rel=1e-13)
        assert G[0, 1:] == pytest.approx(
            1 / np.linalg.norm(pts[1:], axis=1) - 1 / R, rel=1e-13)
        assert G[3, 3] == 7.0 - R / (R * R - pts[3] @ pts[3])

    def test_tracking_charge_passes_the_mass_gate(self):
        # at swept mass 1 many free weights are zero up to rounding; with
        # none clipped the minimizer keeps unit mass to rounding
        gs, theta = kelvin_shells()
        fld = external_field(gs, theta)
        assert fld.theta_swept.total_mass == pytest.approx(1.0, abs=1e-6)
        sol = solve_gauss(fld)
        assert sol.kkt.mass_error <= 1e-12
        assert abs(sol.c_constant) <= 1e-6
        assert gs.distance(sol.minimizer, fld.theta_swept) <= 1e-3


class TestExplicitSolution:
    def test_matches_solver_on_hand_instance(self):
        gs, fld = field_system()
        solved = solve_gauss(fld)
        built = explicit_solution(fld)
        assert np.allclose(built.minimizer.weights, solved.minimizer.weights,
                           atol=1e-13)
        assert built.c_constant == pytest.approx(solved.c_constant, abs=1e-13)
        assert built.w_value == pytest.approx(solved.w_value, abs=1e-13)
        assert built.kkt.support_residual <= 1e-12
        assert fld.theta_swept.total_mass == pytest.approx(0.4, abs=1e-14)

    def test_unit_swept_mass_tracks_swept_charge(self):
        # charge scaled so its sweep onto F carries exactly mass one; the
        # minimizer then is the swept charge and the constant vanishes
        gs, fld = field_system(charge=4.375)
        sol = solve_gauss(fld)
        assert np.allclose(sol.minimizer.weights, [0.75, 0.25, 0.0],
                           atol=1e-12)
        assert abs(sol.c_constant) <= 1e-12
        assert sol.w_value == pytest.approx(-1.625, abs=1e-12)
        built = explicit_solution(fld)
        assert np.allclose(built.minimizer.weights, sol.minimizer.weights,
                           atol=1e-12)

    def test_overweight_sweep_rejected(self):
        gs, fld = field_system(charge=10.0)
        with pytest.raises(ValidationError):
            explicit_solution(fld)


class TestDualCheck:
    def test_hand_instance_gaps_vanish(self):
        gs, fld = field_system()
        rep = dual_check(fld, solve_gauss(fld))
        assert rep["w_gap"] <= 1e-12
        assert rep["lambda_gap_norm"] <= 1e-7
        assert rep["c_gap"] <= 1e-12
        assert np.allclose(rep["dual"].minimizer.weights, [0.6, 0.4, 0.0],
                           atol=1e-10)


class TestLambdaClass:
    def test_membership_and_minimality(self):
        # among measures on F whose weighted potential clears the constant on
        # F, the minimizer has the pointwise-smallest weighted potential on D
        # and the smallest energy norm
        gs, fld = field_system()
        sol = solve_gauss(fld)
        f_pos = gs.d_positions(gs.cfg.f_indices)

        def weighted(mu):
            return gs.green.entries @ gs.measure_on_d(mu) + fld.field_values

        c = sol.c_constant
        u_lam = weighted(sol.minimizer)
        tol = 1e-9 * max(1.0, float(np.max(np.abs(u_lam))))
        assert c == pytest.approx(0.9, abs=1e-12)
        assert np.min(u_lam[f_pos]) >= c - tol
        below = DiscreteMeasure.from_dict(3, {0: 1.0})
        assert np.min(weighted(below)[f_pos]) < c - tol
        heavier = DiscreteMeasure(1.5 * sol.minimizer.weights)
        u_heavy = weighted(heavier)
        assert np.min(u_heavy[f_pos]) >= c - tol
        assert float(np.min(u_heavy - u_lam)) == pytest.approx(0.1771, abs=5e-3)
        norm = weight_norm(gs.green, gs.measure_on_d(sol.minimizer))
        heavy_norm = weight_norm(gs.green, gs.measure_on_d(heavier))
        assert heavy_norm - norm >= -1e-9 * max(1.0, norm)


# the two call forms of family_sweep: the default window (the smallest
# member), as a plain truncation walk, and an explicit window, as the mass
# probe of an exhaustion
WALK_WINDOWS = [pytest.param(None, id="truncation_sweep"),
                pytest.param([0], id="exhaustion_mass_probe")]


class TestTruncationSweep:
    def test_growing_family_hand_values(self):
        gs, fld = field_system()
        rep = family_sweep(fld, [[0], [0, 1]])
        assert rep.direction == "increasing"
        assert rep.sizes == [1, 2]
        assert rep.w_values == pytest.approx([0.6, 0.28], abs=1e-12)
        assert rep.c_values == pytest.approx([1.3, 0.9], abs=1e-12)
        assert rep.swept_masses == pytest.approx([0.35, 0.4], abs=1e-12)
        pair = rep.parallelogram[0]
        assert pair["lhs"] == pytest.approx(0.32, abs=1e-12)
        assert pair["rhs"] == pytest.approx(0.32, abs=1e-12)
        assert pair["lhs"] <= pair["rhs"] + 1e-12
        assert pair["slack"] == pytest.approx(0.0, abs=1e-12)
        assert rep.max_excess == pair["lhs"] - pair["rhs"]
        assert rep.cauchy_norms[-1] == 0.0
        assert [lam.total_mass for lam in rep.minimizers] == pytest.approx(
            [1.0, 1.0], abs=1e-12)

    @pytest.mark.parametrize("reverse", [False, True],
                             ids=["growing", "shrinking"])
    def test_slack_closes_the_sharp_law(self, reverse):
        # lhs + slack = |w_s - w_t| on every pair of the hand family and of
        # check 7's cone family at charges 0.5, 1 and 2
        gs, fld = field_system()
        walks = [(fld, [[0], [0, 1]])]
        cone, family, i_theta = verify._cone_system()
        n = len(cone.cfg.point_set)
        for charge in (0.5, 1.0, 2.0):
            theta = DiscreteMeasure.from_dict(n, {i_theta: charge})
            walks.append((external_field(cone, theta), family))
        for fld, members in walks:
            rep = family_sweep(fld, members[::-1] if reverse else members)
            assert rep.parallelogram
            for pair in rep.parallelogram:
                assert pair["lhs"] + pair["slack"] == pytest.approx(
                    pair["rhs"], rel=0, abs=1e-12)
                assert pair["slack"] >= -1e-12

    def test_one_member_family_has_no_excess(self):
        gs, fld = field_system()
        rep = family_sweep(fld, [[0, 1]])
        assert rep.parallelogram == [] and rep.max_excess == 0.0

    def test_shrinking_family_direction(self):
        gs, fld = field_system()
        rep = family_sweep(fld, [[0, 1], [0]])
        assert rep.direction == "decreasing"
        assert rep.w_values == pytest.approx([0.28, 0.6], abs=1e-12)

    def test_non_nested_family_rejected(self):
        gs, fld = field_system()
        with pytest.raises(ValidationError):
            family_sweep(fld, [[0], [1]])

    @pytest.mark.parametrize("window", WALK_WINDOWS)
    def test_empty_family_rejected(self, window):
        gs, fld = field_system()
        with pytest.raises(ValidationError, match="family must be nonempty"):
            family_sweep(fld, [], window=window)

    @pytest.mark.parametrize("family, w, message", [
        ([[0], [0, 1]], [0.6, 0.6 + 2e-10], "rose along a growing family"),
        ([[0, 1], [0]], [0.28, 0.28 - 2e-10], "fell along a shrinking family"),
        ([[0], [0, 1]], [0.6, 0.6 + 5e-11], None),
        ([[0, 1], [0]], [0.28, 0.28 - 5e-11], None)],
        ids=["rise_growing", "fall_shrinking", "rise_within_tol",
             "fall_within_tol"])
    def test_value_against_the_nesting_raises(self, monkeypatch, family, w,
                                              message):
        # the family report has no monotonicity row: this raise is the check
        gs, fld = field_system()
        real, values = greenpot.gauss.solve_gauss, iter(w)
        monkeypatch.setattr(greenpot.gauss, "solve_gauss",
                            lambda *args: replace(real(*args), w_value=next(values)))
        if message is None:
            assert family_sweep(fld, family).w_values == w
        else:
            with pytest.raises(InvariantError, match=message):
                family_sweep(fld, family)


def shell_system():
    """F = 50-point unit shell, Omega = three points in and around it, far Y-shell."""
    f_pts = geometry.sphere_shell(50, 1.0, rotate=0.2)
    omega_pts = np.array([[0.0, 0.0, 0.2], [1.6, 0.0, 0.0], [0.0, 1.3, 0.4]])
    y_pts = geometry.sphere_shell(30, 1.0, rotate=0.7) + np.array([4.0, 0.0, 0.0])
    pts = np.vstack([f_pts, omega_pts, y_pts])
    cfg = DomainConfig(point_set=PointSet.from_points(pts),
                       d_indices=np.arange(53), y_indices=np.arange(53, 83),
                       f_indices=np.arange(50), alpha=2.0)
    return build_green(cfg)


def assert_warm_record(warm, cold):
    """A warm-started solve's record: the cold one's, in no more free sets."""
    assert replace(warm, iterations=cold.iterations) == cold
    assert warm.iterations <= cold.iterations


class TestSolvesOverF:
    """Solves over all of F give the bytes of the same solves on the block.

    Each solve over F also starts from the free set that the last solve on F
    ended on (green_f's slot), which changes only the number of free sets
    solved.
    """

    def test_green_f_is_the_green_block_on_f(self):
        gs = shell_system()
        f_pos = gs.d_positions(gs.cfg.f_indices)
        assert gs.green_f is gs.green_f
        assert gs.green_f.entries.tobytes() == gs.green.block(f_pos).tobytes()
        # nothing factors the block eagerly; before the first solve over F
        # its slot holds the guide, the F block of the build's certificate
        assert gs.green_f.solve is None
        assert gs.green_f.slot.free is None
        guide, lower = gs.green_f.slot.guide
        assert lower and guide.shape == (50, 50)

    @pytest.mark.parametrize("charge", [{51: 0.5}, {52: 2.0}])
    def test_solves_leave_the_green_matrix_unchanged(self, charge):
        # green_f is a view of the green matrix, which no solve may write
        gs = shell_system()
        assert np.shares_memory(gs.green_f.entries, gs.green.entries)
        before = hashlib.sha256(gs.green.entries.tobytes()).hexdigest()
        fld = external_field(gs, DiscreteMeasure.from_dict(83, charge))
        sol = solve_gauss(fld)
        dual_check(fld, sol)
        green_equilibrium(gs, gs.cfg.f_indices)
        if closed_form_applies(fld.theta_swept.total_mass):
            explicit_solution(fld)
        assert hashlib.sha256(gs.green.entries.tobytes()).hexdigest() == before

    # the first charge leaves every solve on its first free set; under the
    # second the sweep and both Gauss solves pivot
    @pytest.mark.parametrize("charge", [{51: 0.5}, {52: 2.0}])
    def test_solves_match_the_gathered_block(self, charge):
        gs = shell_system()
        f = gs.cfg.f_indices
        f_pos = gs.d_positions(f)
        G = gs.green.block(f_pos)
        theta = DiscreteMeasure.from_dict(83, charge)
        swept = green_sweep(gs, theta, f).swept.weights[f]
        u_theta = gs.green.entries @ gs.measure_on_d(theta)
        assert swept.tobytes() == nonneg_qp(G, u_theta[f_pos])[0].tobytes()

        fld = external_field(gs, theta)
        sol = solve_gauss(fld)
        x, rec = simplex_qp(G, -fld.field_values[f_pos])
        assert sol.minimizer.weights[f].tobytes() == x.tobytes()
        assert_warm_record(sol.kkt, rec)
        dual = dual_check(fld, sol=sol)["dual"]
        x, rec = simplex_qp(G, -fld.dual_field_values[f_pos])
        assert dual.minimizer.weights[f].tobytes() == x.tobytes()
        assert_warm_record(dual.kkt, rec)

        cap, gamma = green_equilibrium(gs, f)
        energy, x = _simplex_minimum(gs.green, f_pos)
        assert cap == 1.0 / energy
        assert gamma.weights[f].tobytes() == (x / energy).tobytes()


def inner_shell_system():
    """F = a 60-point unit sphere around a 10-point shell of radius 0.3, a
    far 30-point complement shell, and a charge of 0.8 at (2.5, 0, 0): the
    cloud of test_cli's test_f_block_factored_once."""
    pts = np.vstack([geometry.sphere_shell(60, 1.0), geometry.sphere_shell(10, 0.3),
                     geometry.sphere_shell(30, 1.0) + np.array([5.0, 0.0, 0.0]),
                     [[2.5, 0.0, 0.0]]])
    cfg = DomainConfig(point_set=PointSet.from_points(pts),
                       d_indices=np.r_[0:70, 100], y_indices=np.arange(70, 100),
                       f_indices=np.arange(70), alpha=2.0)
    return build_green(cfg), DiscreteMeasure.from_dict(101, {100: 0.8})


def half_ball_system():
    """Check 8's ball and collar at half the layer counts, charge 0.5 at
    (0, 0, 1.8): every solve over F leaves about 100 of the 796 ball points
    off its support, after several pivots."""
    counts = [round(c / 2) for c in (750, 330, 230, 160, 90, 30)]
    ball = geometry.layered_ball((0.985, 0.925, 0.84, 0.725, 0.555, 0.325), counts)
    pts = np.vstack([ball, geometry.sphere_shell(counts[0], 1.053),
                     [[0.0, 0.0, 1.8]]])
    n = len(pts)
    cfg = DomainConfig(PointSet.from_points(pts), np.arange(n), [],
                       np.arange(len(ball)), 2.0)
    return build_green(cfg), DiscreteMeasure.from_dict(n, {n - 1: 0.5})


class TestFactorSlot:
    """Solves over F leave green_f's slot the factor of the free set they end
    on, and the next solve starts there; each factor is a fresh one's bytes."""

    @pytest.mark.parametrize("system", [inner_shell_system, half_ball_system])
    def test_warm_equilibrium_is_the_cold_one(self, system):
        gs, theta = system()
        f = gs.cfg.f_indices
        fld = external_field(gs, theta)
        sol = solve_gauss(fld)
        dual_check(fld, sol)
        exp = explicit_solution(fld)
        cap = exp.diagnostics["green_capacity_of_f"]
        gamma = exp.diagnostics["green_equilibrium_of_f"]
        assert 0 < gamma.support.size < f.size
        # the cold solve: from every index of a gathered block, no factor
        energy, x = _simplex_minimum(gs.green, gs.d_positions(f))
        assert cap == 1.0 / energy
        assert gamma.weights[f].tobytes() == (x / energy).tobytes()

    def test_slot_empty_at_every_fresh_factorization(self, monkeypatch):
        # so at most one free-set factor is live, however many are solved
        gs, theta = half_ball_system()
        slot = gs.green_f.slot
        sizes = []
        real = solvers._cholesky

        def cholesky(block, *args, **kwargs):
            assert slot.free is None and slot.factor is None
            sizes.append(block.shape[0])
            return real(block, *args, **kwargs)

        monkeypatch.setattr(solvers, "_cholesky", cholesky)
        fld = external_field(gs, theta)
        sol = solve_gauss(fld)
        dual_check(fld, sol)
        explicit_solution(fld)
        # the final free sets of the sweep, the Gauss solve and the dual: the
        # guide solves the sweep's other free sets, and the equilibrium ends
        # on the dual's
        assert len(sizes) == 3 and max(sizes) < gs.green_f.size
        assert slot.free is not None


class TestGuideRelease:
    """green_f's slot is the guide's only owner, and the field's sweep onto
    F, the one guided solve, releases it before it factors its final free
    set; later solves on the slot are those of a slot that held none."""

    @pytest.mark.parametrize("system", [inner_shell_system, half_ball_system])
    def test_guide_dies_with_the_field_sweep(self, system):
        gs, theta = system()
        assert "guide" not in {fld.name for fld in fields(gs)}
        guide = weakref.ref(gs.green_f.slot.guide[0])
        external_field(gs, theta)
        assert gs.green_f.slot.guide is None
        assert guide() is None
        assert gs.green_f.slot.factor is not None

    @pytest.mark.parametrize("system", [inner_shell_system, half_ball_system])
    def test_sweep_after_the_release_is_the_cold_sweep(self, system):
        gs, theta = system()
        f = gs.cfg.f_indices
        f_pos = gs.d_positions(f)
        fld = external_field(gs, theta)
        G = gs.green.block(f_pos)
        for mu in (theta, DiscreteMeasure(0.5 * theta.weights)):
            u = gs.green.entries @ gs.measure_on_d(mu)
            cold, _ = nonneg_qp(G, u[f_pos])
            swept = green_sweep(gs, mu, f).swept.weights
            assert swept[f].tobytes() == cold.tobytes()
        assert fld.theta_swept.weights[f].tobytes() == nonneg_qp(
            G, (gs.green.entries @ gs.measure_on_d(theta))[f_pos])[0].tobytes()


class TestFamilySweeps:
    @pytest.mark.parametrize("window", WALK_WINDOWS)
    def test_member_equal_to_f_reuses_field_sweep(self, window, monkeypatch):
        # the field already holds theta swept onto F, so a family ending in F
        # sweeps only its smaller members, whatever the window
        gs, fld = field_system()
        targets = []

        def counting(gs, mu, f, **kwargs):
            targets.append(list(f))
            return green_sweep(gs, mu, f, **kwargs)

        monkeypatch.setattr(greenpot.gauss, "green_sweep", counting)
        rep = family_sweep(fld, [[0], [0, 1]], window=window)
        assert targets == [[0]]
        assert rep.swept_masses[-1] == \
            green_sweep(gs, fld.theta, [0, 1]).swept.total_mass

    def test_member_sweep_and_solve_share_one_factor(self, monkeypatch):
        # each smaller member is swept onto and then solved on its
        # restricted system: under this charge both end on the whole
        # member, which is factored once, and the solve on F starts from
        # the field's sweep in green_f's slot
        gs = shell_system()
        fld = external_field(gs, DiscreteMeasure.from_dict(83, {51: 0.5}))
        xs = gs.cfg.point_set.points[:50, 0]
        family = [np.flatnonzero(xs >= t) for t in (0.5, 0.0, -2.0)]
        blocks = []
        real = solvers._cholesky

        def cholesky(block, *args, **kwargs):
            blocks.append(block.tobytes())
            return real(block, *args, **kwargs)

        monkeypatch.setattr(solvers, "_cholesky", cholesky)
        family_sweep(fld, family)
        assert len(blocks) == len(family) - 1
        assert blocks == [gs.green.block(gs.d_positions(m)).tobytes()
                          for m in family[:-1]]

    def test_repeated_indices_count_once(self):
        # a member is solved as its sorted, deduplicated index set, and the
        # report holds that set's size and the swept measure's total mass
        gs, fld = field_system()
        rep = family_sweep(fld, [[0, 0], [1, 0, 1]])
        assert rep.sizes == [1, 2]
        assert rep == family_sweep(fld, [[0], [0, 1]])

    def test_reversed_family_is_the_walk_reversed(self):
        # check 6 reads its shrinking rows off the growing walk on this premise
        gs = shell_system()
        n = len(gs.cfg.point_set)
        fld = external_field(gs, DiscreteMeasure.from_dict(n, {51: 0.5, 52: 0.3}))
        xs = gs.cfg.point_set.points[:50, 0]
        family = [np.flatnonzero(xs >= t) for t in (0.5, 0.0, -2.0)]
        grow = family_sweep(fld, family)
        shrink = family_sweep(fld, family[::-1])
        assert shrink.direction == "decreasing"
        assert shrink.w_values == grow.w_values[::-1]
        assert shrink.c_values == grow.c_values[::-1]
        assert shrink.swept_masses == grow.swept_masses[::-1]
        assert [lam.weights.tobytes() for lam in shrink.minimizers] == \
            [lam.weights.tobytes() for lam in grow.minimizers[::-1]]
        assert shrink.cauchy_norms == [gs.distance(lam, grow.minimizers[0])
                                       for lam in grow.minimizers[::-1]]

    @pytest.mark.parametrize("charge", [0.5, 1.0, 2.0])
    def test_cone_family_keeps_the_monotone_laws(self, charge):
        # check 7 walks this family at charge 0.5; the laws raise if broken
        gs, family, i_theta = verify._cone_system()
        n = len(gs.cfg.point_set)
        fld = external_field(gs, DiscreteMeasure.from_dict(n, {i_theta: charge}))
        rep = family_sweep(fld, family)
        assert rep.direction == "increasing"
        assert rep.window_size == family[0].size
        assert rep.max_excess <= PARALLELOGRAM_TOL


class TestExhaustionProbe:
    def test_stage_rows_and_multiplier_identity(self):
        gs, fld = field_system()
        rep = family_sweep(fld, [[0], [0, 1]])
        assert rep.window_size == 1
        assert rep.window_masses == pytest.approx([1.0, 0.6], abs=1e-12)
        assert rep.extremal_energies == pytest.approx(rep.c_values, abs=1e-12)
        assert rep.support_radii[-1] == pytest.approx(1.0)

    def test_shrinking_family_windows_its_smallest_member(self):
        gs, fld = field_system()
        rep = family_sweep(fld, [[0, 1], [0]])
        assert rep.window_size == 1
        assert rep.window_masses == pytest.approx([0.6, 1.0], abs=1e-12)
        assert rep == family_sweep(fld, [[0, 1], [0]], window=[0])


class TestSupportDescriptor:
    def test_far_field_region_reads_interior(self):
        gs, fld = field_system()
        sol = solve_gauss(fld)
        rep = support_descriptor(sol, gs.cfg)
        assert rep["boundary_count"] == 0
        assert rep["interior_mass_fraction"] == pytest.approx(1.0)
        assert rep["support_radius"] == pytest.approx(1.0)
        assert rep["omega_connected"]
        assert rep["omega_components"] == 1

    @pytest.mark.parametrize("charge, expected", [(2.0, 1.0), (4.0, 1.0 / 3.0)])
    def test_support_fraction_counts_charged_points(self, charge, expected):
        # F is three unit-spaced points on a line, the charge 1.5 before
        # the first: a charge of 4 pulls all the mass onto that point
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0],
                        [-1.5, 0.0, 0.0]])
        cfg = DomainConfig(point_set=PointSet.from_points(pts),
                           d_indices=np.arange(4),
                           y_indices=np.array([], dtype=int),
                           f_indices=np.array([0, 1, 2]), alpha=2.0)
        gs = build_green(cfg)
        theta = DiscreteMeasure.from_dict(4, {3: charge})
        sol = solve_gauss(external_field(gs, theta))
        assert support_descriptor(sol, cfg)["support_fraction"] == expected

    def test_split_field_region_reported_disconnected(self):
        pts = np.array([[0.0, 0.0, 5.0], [1.0, 0.0, 5.0],
                        [0.0, 0.0, 0.0], [0.1, 0.0, 0.0],
                        [10.0, 0.0, 0.0], [10.1, 0.0, 0.0]])
        ps = PointSet.from_points(pts)
        cfg = DomainConfig(point_set=ps, d_indices=np.arange(6),
                           y_indices=np.array([], dtype=int),
                           f_indices=np.array([0, 1]), alpha=2.0)
        gs = build_green(cfg)
        theta = DiscreteMeasure.from_dict(6, {4: 0.5})
        sol = solve_gauss(external_field(gs, theta))
        rep = support_descriptor(sol, gs.cfg)
        assert not rep["omega_connected"]
        assert rep["omega_components"] == 2

    def test_components_match_a_brute_force_adjacency(self):
        # two seeded clusters of Omega points, ten apart: each point is
        # joined to every point within ADJACENCY_FACTOR times its spacing
        rng = np.random.default_rng(4)
        omega = np.vstack([rng.normal(0.0, 0.3, (25, 3)),
                           rng.normal(0.0, 0.3, (25, 3)) + [10.0, 0.0, 0.0]])
        pts = np.vstack([[[0.0, 0.0, 5.0], [1.0, 0.0, 5.0]], omega])
        cfg = DomainConfig(point_set=PointSet.from_points(pts),
                           d_indices=np.arange(52),
                           y_indices=np.array([], dtype=int),
                           f_indices=np.array([0, 1]), alpha=2.0)
        gs = build_green(cfg)
        theta = DiscreteMeasure.from_dict(52, {2: 0.5})
        sol = solve_gauss(external_field(gs, theta))
        reach = (greenpot.gauss.ADJACENCY_FACTOR
                 * nearest_neighbor_distances(omega))[:, None]
        dist = np.linalg.norm(omega[:, None] - omega[None], axis=2)
        adj = (dist <= reach) | (dist <= reach).T
        label = -np.ones(50, dtype=int)
        for start in range(50):
            if label[start] < 0:
                label[start], todo = start, [start]
                while todo:
                    for j in np.flatnonzero(adj[todo.pop()] & (label < 0)):
                        label[j] = start
                        todo.append(j)
        count = np.unique(label).size
        assert count >= 2
        assert support_descriptor(sol, gs.cfg)["omega_components"] == count


def omega_clouds():
    """Seeded Omega clouds for the component oracle, by name, with their
    component counts."""
    rng = np.random.default_rng(8)
    # a 4 x 4 x 4 grid of unit spacing jittered by at most 0.05 per axis
    # joins every point to its axis neighbours: they are at most 1.11
    # apart, and every spacing is at least 0.9, so every reach 1.35
    grid = np.stack(np.meshgrid(*[np.arange(4.0)] * 3), -1).reshape(-1, 3)
    blobs = [grid + rng.uniform(-0.05, 0.05, grid.shape) + [10.0 * k, 0.0, 0.0]
             for k in range(4)]
    chain = np.zeros((3000, 3))
    chain[:, 0] = 0.01 * np.arange(3000)
    return {
        "one cluster": (blobs[0], 1),
        "two clusters": (np.vstack(blobs[:2]), 2),
        "three clusters": (np.vstack(blobs[:3]), 3),
        "four clusters": (rng.permutation(np.vstack(blobs)), 4),
        # shuffled, so that neighbours along the chain carry unrelated labels
        "3000-point chain": (rng.permutation(chain), 1),
        "single point": (np.zeros((1, 3)), 1),
        # 0 reaches 1 (1 <= 1.5 x its spacing 1), but 1 does not reach 0
        # (1 > 1.5 x its spacing 0.1): the pair joins one way only
        "one-way pair": (np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                                   [1.1, 0.0, 0.0]]), 1),
    }


class TestOmegaComponents:
    """support_descriptor's component count against scipy's graph routine
    on the same neighbour pairs, each joining both ways."""

    @staticmethod
    def reference(omega: np.ndarray) -> int:
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import connected_components
        from scipy.spatial import cKDTree

        reach = greenpot.gauss.ADJACENCY_FACTOR * nearest_neighbor_distances(omega)
        near = cKDTree(omega).query_ball_point(omega, reach)
        i = np.repeat(np.arange(len(omega)), [len(n) for n in near])
        adj = csr_matrix((np.ones(i.size), (i, np.concatenate(near))),
                         shape=(len(omega),) * 2)
        return connected_components(adj, directed=False)[0]

    @pytest.mark.parametrize("name", list(omega_clouds()))
    def test_count_matches_scipy(self, name):
        omega, expected = omega_clouds()[name]
        # F is two points far above the cloud; the counts read only Omega
        pts = np.vstack([[[0.0, 0.0, 100.0], [1.0, 0.0, 100.0]], omega])
        cfg = DomainConfig(point_set=PointSet.from_points(pts),
                           d_indices=np.arange(len(pts)),
                           y_indices=np.array([], dtype=int),
                           f_indices=np.array([0, 1]), alpha=2.0)
        sol = SimpleNamespace(
            minimizer=DiscreteMeasure.from_dict(len(pts), {0: 0.5, 1: 0.5}))
        rep = support_descriptor(sol, cfg)
        count = self.reference(omega)
        assert rep["omega_components"] == count
        assert rep["omega_connected"] == (count == 1)
        assert count == expected

    @pytest.mark.parametrize("seed", range(6))
    def test_random_edge_lists_match_scipy(self, seed):
        # sparse random graphs with isolated nodes, repeated edges and
        # self-pairs, in both edge orders
        from scipy.sparse import coo_matrix
        from scipy.sparse.csgraph import connected_components

        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 400))
        i, j = rng.integers(0, n, (2, int(rng.integers(0, 2 * n))))
        ref = connected_components(
            coo_matrix((np.ones(i.size), (i, j)), shape=(n, n)),
            directed=False)[0]
        assert greenpot.gauss._component_count(n, i, j) == ref
        assert greenpot.gauss._component_count(n, j, i) == ref
