import sys
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

import greenpot.balayage
import greenpot.green
import greenpot.riesz
import greenpot.solvers
from greenpot import geometry
from greenpot.balayage import dirac_sweep_matrix, sweep
from greenpot.core import (DiscreteMeasure, DomainConfig, InvariantError,
                           PointSet, SolverError, ValidationError)
from greenpot.gauss import (dual_check, explicit_solution, external_field,
                            solve_gauss)
from greenpot.green import (build_green, frostman_excess, green_equilibrium,
                            green_sweep)
from greenpot.riesz import (KernelMatrix, _riesz_entries, _symmetric_kernel,
                            assemble_riesz, make_kernel)
from greenpot.solvers import nonneg_qp
from greenpot.verify import _cone_system, _riesz_route_gap, _target_sweeps


def line_system():
    """Two D-points at 0 and 1 on the x-axis, one Y-point at 3.

    Riesz matrix [[2, 1, 1/3], [1, 2, 1/2], [1/3, 1/2, 1]]; sweeping the
    D-Diracs onto Y keeps 1/3 and 1/2 of their mass, so the Green block is
    [[2 - 1/9, 1 - 1/6], [1 - 1/6, 2 - 1/4]].
    """
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
    ps = PointSet.from_points(pts)
    cfg = DomainConfig(point_set=ps, d_indices=np.array([0, 1]),
                       y_indices=np.array([2]), f_indices=np.array([0]),
                       alpha=2.0)
    return build_green(cfg)


def enclosure_system(n_f=80, seed=3):
    """F-shell of radius 1 with interior Omega points, far Y-shell."""
    rng = np.random.default_rng(seed)
    f_pts = geometry.sphere_shell(n_f, 1.0, rotate=0.2)
    omega_pts = np.array([[0.0, 0.0, 0.2], [0.1, -0.1, 0.0], [1.6, 0.0, 0.0]])
    y_pts = geometry.sphere_shell(40, 1.0, rotate=0.7) + np.array([4.0, 0.0, 0.0])
    pts = np.vstack([f_pts, omega_pts, y_pts])
    ps = PointSet.from_points(pts)
    n_omega = omega_pts.shape[0]
    cfg = DomainConfig(point_set=ps,
                       d_indices=np.arange(n_f + n_omega),
                       y_indices=np.arange(n_f + n_omega, len(pts)),
                       f_indices=np.arange(n_f),
                       alpha=2.0)
    return build_green(cfg)


def riesz_of(gs):
    """The Riesz kernel of gs's cloud at sigma 1, the entries its build
    assembled; the system keeps none."""
    return assemble_riesz(gs.cfg.point_set, gs.cfg.alpha)


def count_factorizations(monkeypatch) -> list:
    """Sizes of the blocks every greenpot module factors from now on."""
    sizes = []
    real = greenpot.solvers._cholesky

    def counting(block, *args, **kwargs):
        sizes.append(block.shape[0])
        return real(block, *args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if (name.startswith("greenpot")
                and getattr(mod, "_cholesky", None) is real):
            monkeypatch.setattr(mod, "_cholesky", counting)
    return sizes


def overlapping_cells(pts, rows, radius) -> PointSet:
    """The cloud pts with the cells at rows widened to radius, past the
    half-nearest-neighbour bound that PointSet enforces at construction:
    wide enough cells make the Riesz matrix indefinite."""
    ps = PointSet.from_points(pts)
    radii = ps.cell_radius.copy()
    radii[rows] = radius
    object.__setattr__(ps, "cell_radius", radii)
    return ps


def fallback_cloud(radius=None) -> DomainConfig:
    """Twelve uniform points at seed 0, Y the first eight, D the rest and F
    two of them: the Dirac sweep recomputes D's last column by cone
    projection (test_balayage's fallback cloud). radius widens the cells of
    points 10 and 11, which lie 0.45 apart."""
    pts = np.random.default_rng(0).uniform(-1, 1, size=(12, 3))
    ps = (PointSet.from_points(pts) if radius is None
          else overlapping_cells(pts, [10, 11], radius))
    return DomainConfig(ps, np.arange(8, 12), np.arange(8), np.arange(8, 10), 2.0)


def shell_cloud(radius=None) -> DomainConfig:
    """F a 40-point unit sphere, two Omega points 0.24 apart inside it, Y a
    40-point sphere of radius 3: every Dirac column takes the plain solve.
    radius widens the two Omega cells."""
    pts = np.vstack([geometry.sphere_shell(40, 1.0, rotate=0.2),
                     [[0.0, 0.0, 0.2], [0.1, -0.1, 0.0]],
                     3.0 * geometry.sphere_shell(40, 1.0, rotate=0.7)])
    ps = (PointSet.from_points(pts) if radius is None
          else overlapping_cells(pts, [40, 41], radius))
    return DomainConfig(ps, np.arange(42), np.arange(42, 82), np.arange(40), 2.0)


class TestCertificate:
    """One factorization certifies each build positive definite; a Riesz
    matrix that is not is rejected with every layout of Y."""

    def test_indefinite_kernel_with_empty_y_is_rejected(self):
        cfg = replace(fallback_cloud(0.5), d_indices=np.arange(12),
                      y_indices=np.array([], dtype=int))
        with pytest.raises(SolverError, match="not positive definite"):
            build_green(cfg)

    def test_indefinite_kernel_with_y_is_rejected(self):
        with pytest.raises(SolverError, match="not positive definite"):
            build_green(shell_cloud(0.3))

    def test_indefinite_kernel_with_a_fallback_column_is_rejected(
            self, monkeypatch):
        # a cone-projected column leaves the Green matrix off the Schur
        # complement, so the whole Riesz matrix is factored
        sizes = count_factorizations(monkeypatch)
        with pytest.raises(SolverError, match="not positive definite"):
            build_green(fallback_cloud(0.5))
        assert 12 in sizes

    def test_fallback_column_certifies_the_whole_cloud(self, monkeypatch):
        sizes = count_factorizations(monkeypatch)
        cfg = fallback_cloud()
        gs = build_green(cfg)
        # K_YY, the fallback column's two free sets, the whole cloud and the
        # Green matrix on D
        assert sizes == [8, 8, 6, 12, 4]
        # the whole cloud is factored in its own buffer and restored before
        # the Green entries are read off it
        K = riesz_of(gs)
        d, y = cfg.d_indices, cfg.y_indices
        raw = K.block(d) - (K.block(d, y) @ dirac_sweep_matrix(K, d, y)).T
        assert gs.green.entries.tobytes() == ((raw + raw.T) / 2.0).tobytes()

    def test_plain_columns_factor_no_whole_cloud(self, monkeypatch):
        sizes = count_factorizations(monkeypatch)
        gs = build_green(shell_cloud())
        # K_YY and the Green matrix on D, whose F block is the guide, held
        # by green_f's slot before the first solve over F
        assert sizes == [40, 42]
        assert gs.green_f.slot.free is None and gs.green_f.solve is None
        guide, lower = gs.green_f.slot.guide
        assert lower and guide.shape == (40, 40)
        L = np.tril(guide)
        assert np.allclose(L @ L.T, gs.green_f.entries, rtol=1e-12, atol=0)

    def test_f_behind_omega_has_no_guide(self, monkeypatch):
        # shell_cloud with the two Omega points first: F does not lead D, so
        # the Green matrix is certified in place with no guide, and the
        # sweep onto F factors its free sets afresh
        pts = np.vstack([[[0.0, 0.0, 0.2], [0.1, -0.1, 0.0]],
                         geometry.sphere_shell(40, 1.0, rotate=0.2),
                         3.0 * geometry.sphere_shell(40, 1.0, rotate=0.7)])
        cfg = DomainConfig(PointSet.from_points(pts), np.arange(42),
                           np.arange(42, 82), np.arange(2, 42), 2.0)
        sizes = count_factorizations(monkeypatch)
        gs = build_green(cfg)
        assert sizes == [40, 42]
        assert gs.green_f.slot.guide is None
        # the same sweep as on shell_cloud, whose F leads, up to rounding
        res = green_sweep(gs, DiscreteMeasure.from_dict(82, {0: 1.0}),
                          cfg.f_indices)
        ref = green_sweep(build_green(shell_cloud()),
                          DiscreteMeasure.from_dict(82, {40: 1.0}), np.arange(40))
        assert np.allclose(res.swept.weights[2:42], ref.swept.weights[:40],
                           rtol=0, atol=1e-12)


class TestBuild:
    def test_hand_matrix(self):
        gs = line_system()
        expected = np.array([[2.0 - 1.0 / 9.0, 1.0 - 1.0 / 6.0],
                             [1.0 - 1.0 / 6.0, 2.0 - 0.25]])
        assert np.allclose(gs.green.entries, expected, atol=1e-15)
        assert greenpot.green._build(gs.cfg, 1.0)[2] == 0.0
        W = dirac_sweep_matrix(riesz_of(gs), gs.cfg.d_indices,
                               gs.cfg.y_indices)
        assert np.allclose(W[0], [1.0 / 3.0, 0.5], atol=1e-15)

    def test_empty_y_degenerates_to_riesz(self):
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        ps = PointSet.from_points(pts)
        cfg = DomainConfig(point_set=ps, d_indices=np.arange(3),
                           y_indices=np.array([], dtype=int),
                           f_indices=np.array([0, 1]), alpha=2.0)
        gs = build_green(cfg)
        K = assemble_riesz(ps, 2.0)
        assert np.array_equal(gs.green.entries, K.entries)
        # the green task reads the build's Dirac sweep: none onto an empty Y
        _, W, asym = greenpot.green._build(cfg, 1.0)
        assert W.shape == (0, 3)
        assert asym == 0.0

    def test_empty_y_block_is_checked_once(self, monkeypatch):
        # with Y empty on a strict subset D the Green matrix is the D-block of
        # the Riesz matrix, and the certificate factors that block alone:
        # the matrix the system uses, not the whole cloud's
        pts = np.vstack([geometry.sphere_shell(30, 1.0), [[0.0, 0.0, 1.7]]])
        cfg = DomainConfig(point_set=PointSet.from_points(pts),
                           d_indices=np.arange(20),
                           y_indices=np.array([], dtype=int),
                           f_indices=np.arange(10), alpha=2.0)
        sizes = count_factorizations(monkeypatch)
        gs = build_green(cfg)
        assert sizes == [20]
        K_d = riesz_of(gs).block(cfg.d_indices)
        assert gs.green.entries.tobytes() == K_d.tobytes()

    def test_empty_y_f_leading_d_behind_ignored_points_has_a_guide(
            self, monkeypatch):
        # 12 points outside D and Y lead the cloud, then F and Omega: F leads
        # D but not the cloud, so the certificate of the Green matrix on D
        # hands F's block to the slot as the guide
        pts = np.vstack([geometry.sphere_shell(12, 3.0, rotate=0.5),
                         geometry.sphere_shell(40, 1.0, rotate=0.2),
                         [[0.0, 0.0, 0.2], [0.1, -0.1, 0.0]]])
        cfg = DomainConfig(PointSet.from_points(pts), np.arange(12, 54), [],
                           np.arange(12, 52), 2.0)
        theta = DiscreteMeasure.from_dict(54, {52: 0.5})
        sizes = count_factorizations(monkeypatch)
        gs = build_green(cfg)
        assert sizes == [42]
        guide, lower = gs.green_f.slot.guide
        assert lower and guide.shape == (40, 40)
        assert np.shares_memory(gs.green_f.entries, gs.green.entries)
        # the guide only steers: the same solution as on the same system
        # without it, bit for bit
        bare = build_green(cfg)
        bare.green_f.slot.guide = None
        sol, ref = (solve_gauss(external_field(g, theta)) for g in (gs, bare))
        assert sol.w_value == ref.w_value
        assert sol.c_constant == ref.c_constant
        assert sol.minimizer.weights.tobytes() == ref.minimizer.weights.tobytes()

    def test_empty_y_whole_cloud_shares_the_riesz_matrix(self):
        # with Y empty and D every point the Green matrix is the Riesz one,
        # with no factor that no solve reads (TestMemory: and no copy)
        pts = np.vstack([geometry.sphere_shell(30, 1.0), [[0.0, 0.0, 0.5]]])
        cfg = DomainConfig(point_set=PointSet.from_points(pts),
                           d_indices=np.arange(31),
                           y_indices=np.array([], dtype=int),
                           f_indices=np.arange(30), alpha=2.0)
        gs = build_green(cfg)
        K = riesz_of(gs)
        assert gs.green.entries.tobytes() == K.entries.tobytes()
        assert gs.green.solve is None
        cap, _ = green_equilibrium(gs, np.arange(31))
        cap_ref, _ = greenpot.riesz.capacity(K, np.arange(31))
        assert cap == cap_ref

    def test_nonempty_y_drops_the_unread_riesz_factor(self):
        # with Y non-empty no solve reads the Green factor, only check 9's
        # Riesz route reads a Riesz matrix, which it assembles itself, and
        # only the green task reads the Dirac sweep, which _build returns to
        # it: the system keeps none of them
        gs = enclosure_system()
        assert gs.green.solve is None
        names = {field.name for field in fields(gs)}
        assert "riesz_full" not in names and "dirac_sweep_to_y" not in names
        # the route reads the kernel's entries, not its kept solve
        K = riesz_of(gs)
        bare = KernelMatrix(K.entries)
        mu = DiscreteMeasure.from_dict(K.size, {81: 1.0})
        f = np.arange(80)
        res = green_sweep(gs, mu, f)
        assert (_riesz_route_gap(gs, _target_sweeps(K), mu, f, res)
                == _riesz_route_gap(gs, _target_sweeps(bare), mu, f, res))

    def test_entries_between_zero_and_riesz(self):
        gs = enclosure_system()
        K_d = riesz_of(gs).block(gs.cfg.d_indices)
        assert float(np.min(gs.green.entries)) >= -1e-10
        assert float(np.max(gs.green.entries - K_d)) <= 1e-10

    @pytest.mark.parametrize("scale, message", [
        (100.0, "Green entries reach"), (-1.0, "exceed the Riesz entries")],
        ids=["below_zero", "above_riesz"])
    def test_entries_outside_zero_and_riesz_raise(self, monkeypatch, scale,
                                                  message):
        # the green report has no entry-bound row: these raises are the check.
        # An oversized sweep drives entries below zero, a negative one lifts
        # them above the Riesz entries.
        real = greenpot.green.dirac_sweep_matrix
        monkeypatch.setattr(greenpot.green, "dirac_sweep_matrix",
                            lambda *args, **kwargs: scale * real(*args, **kwargs))
        with pytest.raises(InvariantError, match=message):
            line_system()

    def test_d_positions_rejects_y_index(self):
        gs = line_system()
        with pytest.raises(ValidationError):
            gs.d_positions([2])

    def test_measure_on_d_rejects_y_support(self):
        gs = line_system()
        with pytest.raises(ValidationError):
            gs.measure_on_d(DiscreteMeasure.from_dict(3, {2: 1.0}))


class TestSystem:
    """green._system certifies a given Green matrix and hands the guide as a
    sampled build does: on Y-empty Riesz entries it is build_green's system."""

    @staticmethod
    def cloud(f_leads: bool) -> DomainConfig:
        """A 40-point unit sphere F and two Omega points inside it, Y empty;
        F first or behind Omega."""
        shell = geometry.sphere_shell(40, 1.0, rotate=0.2)
        omega = np.array([[0.0, 0.0, 0.2], [0.1, -0.1, 0.0]])
        pts = np.vstack([shell, omega] if f_leads else [omega, shell])
        f = np.arange(40) if f_leads else np.arange(2, 42)
        return DomainConfig(PointSet.from_points(pts), np.arange(42), [], f, 2.0)

    @pytest.mark.parametrize("f_leads", [True, False],
                             ids=["f_leading", "f_behind_omega"])
    def test_riesz_entries_give_build_greens_system(self, f_leads):
        cfg = self.cloud(f_leads)
        green = _symmetric_kernel(_riesz_entries(cfg.point_set, 2.0, 1.0))
        gs, ref = greenpot.green._system(cfg, green), build_green(cfg)
        assert gs.green.entries.tobytes() == ref.green.entries.tobytes()
        assert greenpot.green._build(cfg, 1.0)[2] == 0.0
        guides = []
        for system in (gs, ref):
            slot = system.green_f.slot
            assert slot.free is None and slot.factor is None
            guides.append(slot.guide)
        if f_leads:
            (L, lower), (L_ref, lower_ref) = guides
            assert L.tobytes() == L_ref.tobytes() and lower == lower_ref
            assert L.flags.f_contiguous and L_ref.flags.f_contiguous
        else:
            assert guides == [None, None]


class TestMemory:
    """A build certifies in the factored matrix's own buffer and keeps only
    the Green system (tracemalloc, in m x m doubles of the whole cloud)."""

    @staticmethod
    def traced_build(pts, y, f, omega) -> tuple[float, float]:
        ps = PointSet.from_points(pts)
        cfg = DomainConfig(ps, np.setdiff1d(np.arange(len(pts)), y), y, f, 2.0)
        tracemalloc.start()
        try:
            gs = build_green(cfg)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert gs.cfg.omega_indices.size == omega
        matrix = 8 * len(pts) ** 2
        return held / matrix, peak / matrix

    def test_empty_y_with_f_leading_peaks_near_one_matrix(self):
        # the Riesz matrix, which is the Green one, and the guide on its
        # leading 400 x 400 block: no second copy of the cloud's matrix
        pts = np.vstack([geometry.sphere_shell(400, 1.0),
                         geometry.sphere_shell(200, 1.1, rotate=0.3),
                         [[0.0, 0.0, 1.8]]])
        _, peak = self.traced_build(pts, np.array([], dtype=int),
                                    np.arange(400), omega=201)
        assert peak <= 1.6

    @staticmethod
    def traced_gauss_chain():
        """The Gauss chain on the cloud of the test above; returns its
        field and its peak in m x m doubles."""
        pts = np.vstack([geometry.sphere_shell(400, 1.0),
                         geometry.sphere_shell(200, 1.1, rotate=0.3),
                         [[0.0, 0.0, 1.8]]])
        cfg = DomainConfig(PointSet.from_points(pts), np.arange(601), [],
                           np.arange(400), 2.0)
        theta = DiscreteMeasure.from_dict(601, {600: 0.5})
        tracemalloc.start()
        try:
            fld = external_field(build_green(cfg), theta)
            sol = solve_gauss(fld)
            dual_check(fld, sol)
            explicit_solution(fld)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return fld, peak / (8 * 601 ** 2)

    def test_gauss_chain_with_f_leading_peaks_below_two_and_a_half_matrices(self):
        # the Gauss solves read F's block in place: the Riesz matrix, the
        # 400 x 400 guide and one free-set factor, with no second copy of
        # F's block
        fld, peak = self.traced_gauss_chain()
        assert peak <= 2.4
        assert np.shares_memory(fld.system.green_f.entries,
                                fld.system.green.entries)

    def test_gauss_chain_gathers_no_full_rows_off_f(self):
        # the sweep onto F checks domination off F one 128 x 400 block of
        # K[off, F] at a time; a gather through the full 601-wide rows
        # takes the peak to 2.26 matrices
        _, peak = self.traced_gauss_chain()
        assert peak <= 2.15

    def test_gauss_chain_holds_no_guide_beside_a_free_set_factor(self):
        # the sweep onto F releases the 400 x 400 guide before it factors
        # its final free set, so no later factor is live beside it: 2.09
        # matrices with the guide kept
        _, peak = self.traced_gauss_chain()
        assert peak <= 1.75

    def test_empty_y_with_f_behind_factors_in_place(self):
        # the charge and the collar lead, so the build has no guide and its
        # certificate factors the Riesz matrix in place: the peak is about
        # that one matrix, whatever the order of the parts
        pts = np.vstack([[[0.0, 0.0, 1.8]],
                         geometry.sphere_shell(200, 1.1, rotate=0.3),
                         geometry.sphere_shell(400, 1.0)])
        _, peak = self.traced_build(pts, np.array([], dtype=int),
                                    np.arange(201, 601), omega=201)
        assert peak <= 1.25

    def test_nonempty_y_keeps_no_riesz_matrix(self):
        # the system holds the 501 x 501 Green matrix and the 500 x 500
        # guide, 0.30 of the cloud's matrix, and not the 800 x 501 Dirac
        # block, which would take it to 0.53
        pts = np.vstack([geometry.sphere_shell(500, 1.0),
                         geometry.sphere_shell(800, 2.0, rotate=0.3),
                         [[0.0, 0.0, 0.0]]])
        held, _ = self.traced_build(pts, np.arange(500, 1300),
                                    np.arange(500), omega=1)
        assert held <= 0.35


class TestPotential:
    def test_two_path_consistency(self):
        # path one is the Green matrix; path two subtracts the potential of
        # the sweep onto Y from the plain Riesz potential
        gs = enclosure_system()
        mu = DiscreteMeasure.from_dict(len(gs.cfg.point_set),
                                       {80: 0.6, 81: 0.4})
        d = gs.cfg.d_indices
        u = gs.green.entries @ gs.measure_on_d(mu)
        R = riesz_of(gs)
        K = R.entries
        swept = sweep(R, mu, gs.cfg.y_indices).swept
        u_two = (K @ mu.weights - K @ swept.weights)[d]
        assert np.max(np.abs(u - u_two)) <= 1e-9
        assert u.shape == (gs.green.size,)

    def test_hand_column(self):
        gs = line_system()
        u = gs.green.entries @ gs.measure_on_d(
            DiscreteMeasure.from_dict(3, {1: 1.0}))
        assert np.allclose(u, [1.0 - 1.0 / 6.0, 1.75], atol=1e-15)


class TestGreenSweep:
    def test_identity_when_supported_on_target(self):
        gs = line_system()
        mu = DiscreteMeasure.from_dict(3, {0: 0.7})
        res = green_sweep(gs, mu, [0])
        assert res.algorithm == "identity"
        assert res.tolerance == 0.0
        assert np.array_equal(res.swept.weights, mu.weights)

    def test_forced_projection_is_fixed_point(self):
        gs = enclosure_system()
        f = gs.cfg.f_indices
        mu = DiscreteMeasure.from_dict(len(gs.cfg.point_set), {81: 1.0})
        first = green_sweep(gs, mu, f)
        again = green_sweep(gs, first.swept, f, force_projection=True)
        assert np.allclose(again.swept.weights, first.swept.weights,
                           atol=1e-10)

    def test_path_agreement_for_exterior_source(self):
        gs = enclosure_system()
        mu = DiscreteMeasure.from_dict(len(gs.cfg.point_set), {82: 1.0})
        res = green_sweep(gs, mu, gs.cfg.f_indices)
        assert _riesz_route_gap(gs, _target_sweeps(riesz_of(gs)), mu,
                                gs.cfg.f_indices, res) <= 1e-10

    def test_interior_source_flags_sampling_error(self):
        # a charge enclosed by F feels the Y-discretization through the
        # symmetrized Green matrix but not through the joint Riesz sweep, so
        # the two routes drift apart past check 9's warning threshold
        gs = enclosure_system()
        mu = DiscreteMeasure.from_dict(len(gs.cfg.point_set), {80: 1.0})
        res = green_sweep(gs, mu, gs.cfg.f_indices)
        gap = _riesz_route_gap(gs, _target_sweeps(riesz_of(gs)), mu,
                               gs.cfg.f_indices, res)
        assert gap > 1e-8
        assert gap > 10 * max(res.tolerance, 1e-14)

    def test_nonempty_y_solves_one_problem(self, monkeypatch):
        # the Riesz route is check 9's cross-check; the sweep itself solves
        # the Green problem on f alone
        gs = enclosure_system()
        mu = DiscreteMeasure.from_dict(len(gs.cfg.point_set), {81: 1.0})
        calls = []

        def counting(A, b, **kwargs):
            calls.append(A.shape[0])
            return nonneg_qp(A, b, **kwargs)

        monkeypatch.setattr(greenpot.balayage, "nonneg_qp", counting)
        res = green_sweep(gs, mu, gs.cfg.f_indices)
        assert calls == [gs.cfg.f_indices.size]
        assert res.algorithm != "identity"

    @pytest.mark.parametrize("y_empty,strict", [(False, False), (False, True),
                                                (True, False), (True, True)])
    def test_is_the_sweep_on_the_green_kernel(self, y_empty, strict):
        # onto all of F the core starts from green_f's factor, which equals
        # the one the solver computes for the block, so the bytes agree
        gs = enclosure_system(n_f=40)
        if y_empty:
            gs = build_green(replace(gs.cfg, y_indices=np.array([], dtype=int)))
        f = gs.cfg.f_indices[::2] if strict else gs.cfg.f_indices
        mu = DiscreteMeasure.from_dict(len(gs.cfg.point_set), {41: 1.0, 42: 0.5})
        res = green_sweep(gs, mu, f)
        f_pos = gs.d_positions(f)
        ref = sweep(gs.green, DiscreteMeasure(gs.measure_on_d(mu)), f_pos)
        assert res.algorithm == ref.algorithm != "identity"
        assert res.swept.weights[f].tobytes() == ref.swept.weights[f_pos].tobytes()
        assert not np.delete(res.swept.weights, f).any()
        # the masses, residuals, active-set size and tolerance match exactly
        assert replace(res, swept=ref.swept) == ref

    def test_enclosed_charge_keeps_most_mass(self):
        gs = enclosure_system()
        mu = DiscreteMeasure.from_dict(len(gs.cfg.point_set), {80: 1.0})
        res = green_sweep(gs, mu, gs.cfg.f_indices)
        assert abs(res.mass_out - 1.0) <= 0.1

    def test_empty_target_rejected(self):
        gs = line_system()
        with pytest.raises(ValidationError):
            green_sweep(gs, DiscreteMeasure.from_dict(3, {1: 1.0}), [])

    def test_empty_y_skips_identical_cross_route(self, monkeypatch):
        # with Y empty the Green form is the Riesz form on D: one solve, and
        # the same projection as the Riesz sweep
        pts = np.vstack([geometry.sphere_shell(40, 1.0), [[0.0, 0.0, 1.7]]])
        cfg = DomainConfig(point_set=PointSet.from_points(pts),
                           d_indices=np.arange(41),
                           y_indices=np.array([], dtype=int),
                           f_indices=np.arange(40), alpha=2.0)
        gs = build_green(cfg)
        mu = DiscreteMeasure.from_dict(41, {40: 1.0})
        calls = []

        def counting(A, b, **kwargs):
            calls.append(A.shape[0])
            return nonneg_qp(A, b, **kwargs)

        monkeypatch.setattr(greenpot.balayage, "nonneg_qp", counting)
        res = green_sweep(gs, mu, cfg.f_indices)
        assert calls == [40]
        riesz = sweep(riesz_of(gs), mu, cfg.f_indices)
        assert np.allclose(res.swept.weights, riesz.swept.weights,
                           rtol=0, atol=1e-13)


class TestRestrict:
    def test_f_itself_is_the_system(self):
        gs = enclosure_system()
        assert gs.restrict(gs.cfg.f_indices) is gs
        # repeated and unordered indices count once
        assert gs.restrict([*gs.cfg.f_indices[::-1], 0]) is gs

    def test_shares_the_green_matrix_and_holds_its_own_slot(self):
        gs = enclosure_system()
        f = gs.cfg.f_indices[::2]
        sub = gs.restrict(f)
        assert sub.green is gs.green
        assert np.array_equal(sub.cfg.f_indices, f)
        assert np.array_equal(sub.cfg.d_indices, gs.cfg.d_indices)
        assert np.array_equal(sub.cfg.y_indices, gs.cfg.y_indices)
        assert gs.green_f.slot.guide is not None
        assert sub.green_f.slot.guide is None
        assert sub.green_f.slot is not gs.green_f.slot
        assert (sub.green_f.entries.tobytes()
                == gs.green.block(gs.d_positions(f)).tobytes())

    def test_sweep_onto_its_f_is_the_block_sweep(self):
        # the restricted system sweeps on its green_f and slot, with the
        # bytes of the parent's sweep onto the same target
        gs = enclosure_system()
        f = gs.cfg.f_indices[:40]
        mu = DiscreteMeasure.from_dict(len(gs.cfg.point_set), {82: 1.0})
        sub = gs.restrict(f)
        res = green_sweep(sub, mu, f)
        assert sub.green_f.slot.free is not None
        assert (res.swept.weights.tobytes()
                == green_sweep(gs, mu, f).swept.weights.tobytes())

    def test_empty_target_rejected(self):
        with pytest.raises(ValidationError, match="nonempty"):
            enclosure_system().restrict([])


class TestGreenFBlock:
    """green_f reads F's block of the green matrix in place when F leads D,
    and gathers its own copy otherwise; the bytes are the block's either way."""

    @staticmethod
    def assert_block(gs, view: bool):
        entries = gs.green_f.entries
        assert np.shares_memory(entries, gs.green.entries) == view
        assert entries.flags.c_contiguous != view
        assert (np.ascontiguousarray(entries).tobytes()
                == gs.green.block(gs.d_positions(gs.cfg.f_indices)).tobytes())

    def test_leading_f_is_a_view(self):
        self.assert_block(enclosure_system(), view=True)

    def test_prefix_member_is_a_view(self):
        # check 7's cone stages: the first shells of the master F
        gs, family, _ = _cone_system()
        for member in family:
            self.assert_block(gs.restrict(member), view=True)

    def test_non_leading_member_is_a_copy(self):
        # a check-6-style member: the F-points with x >= 0
        gs = enclosure_system()
        f = gs.cfg.f_indices
        member = f[gs.cfg.point_set.points[f, 0] >= 0.0]
        assert member[-1] >= member.size  # not a prefix of F
        self.assert_block(gs.restrict(member), view=False)

    def test_f_behind_omega_is_a_copy(self):
        pts = np.vstack([[[0.0, 0.0, 0.2], [1.6, 0.0, 0.0]],
                         geometry.sphere_shell(40, 1.0, rotate=0.2),
                         3.0 * geometry.sphere_shell(40, 1.0, rotate=0.7)])
        cfg = DomainConfig(PointSet.from_points(pts), np.arange(42),
                           np.arange(42, 82), np.arange(2, 42), 2.0)
        self.assert_block(build_green(cfg), view=False)


class TestGreenEquilibrium:
    def test_single_point_hand_value(self):
        gs = line_system()
        c, gamma = green_equilibrium(gs, [0])
        assert c == pytest.approx(9.0 / 17.0, rel=1e-14)
        assert gamma.weights[0] == pytest.approx(9.0 / 17.0, rel=1e-14)
        u = gs.green.entries @ gs.measure_on_d(gamma)
        assert u[0] == pytest.approx(1.0, rel=1e-14)

    def test_unit_potential_on_support(self):
        gs = enclosure_system()
        c, gamma = green_equilibrium(gs, gs.cfg.f_indices)
        u = gs.green.entries @ gs.measure_on_d(gamma)
        supp_pos = gs.d_positions(gamma.support)
        assert np.allclose(u[supp_pos], 1.0, atol=1e-8)
        assert gamma.total_mass == pytest.approx(c, rel=1e-10)


class TestMaximumPrinciples:
    def test_equilibrium_satisfies_frostman(self):
        gs = enclosure_system()
        _, gamma = green_equilibrium(gs, gs.cfg.f_indices)
        excess = frostman_excess(gs, gamma)
        # interior probe points sit within one shell spacing of F, so the
        # discrete potential overshoots its support maximum there by a few
        # percent
        assert 0.0 <= excess <= 0.1

    def test_hand_value(self):
        # a hand Green matrix on three D-points whose middle row outweighs
        # the ends: the end Diracs give potential (2.5, 3.8, 2.5)
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        cfg = DomainConfig(point_set=PointSet.from_points(pts),
                           d_indices=np.arange(3),
                           y_indices=np.array([], dtype=int),
                           f_indices=np.array([0, 2]), alpha=2.0)
        G = make_kernel(np.array([[2.0, 1.9, 0.5], [1.9, 4.0, 1.9],
                                  [0.5, 1.9, 2.0]]))
        gs = replace(build_green(cfg), green=G)
        ends = DiscreteMeasure.from_dict(3, {0: 1.0, 2: 1.0})
        assert frostman_excess(gs, ends) == pytest.approx(1.3, abs=1e-14)
        middle = DiscreteMeasure.from_dict(3, {1: 1.0})
        assert frostman_excess(gs, middle) == 0.0
