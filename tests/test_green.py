from dataclasses import replace

import numpy as np
import pytest

import greenpot.balayage
import greenpot.green
import greenpot.riesz
import greenpot.solvers
from greenpot import geometry
from greenpot.balayage import sweep
from greenpot.core import (DiscreteMeasure, DomainConfig, PointSet,
                           ValidationError)
from greenpot.green import (build_green, frostman_excess, green_equilibrium,
                            green_sweep)
from greenpot.riesz import assemble_riesz, make_kernel
from greenpot.solvers import nonneg_qp


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


class TestBuild:
    def test_hand_matrix(self):
        gs = line_system()
        expected = np.array([[2.0 - 1.0 / 9.0, 1.0 - 1.0 / 6.0],
                             [1.0 - 1.0 / 6.0, 2.0 - 0.25]])
        assert np.allclose(gs.green.entries, expected, atol=1e-15)
        assert gs.green.kind == "green"
        assert gs.asymmetry_residual == 0.0
        assert np.allclose(gs.dirac_sweep_to_y[2], [1.0 / 3.0, 0.5],
                           atol=1e-15)

    def test_empty_y_degenerates_to_riesz(self):
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        ps = PointSet.from_points(pts)
        cfg = DomainConfig(point_set=ps, d_indices=np.arange(3),
                           y_indices=np.array([], dtype=int),
                           f_indices=np.array([0, 1]), alpha=2.0)
        gs = build_green(cfg)
        K = assemble_riesz(ps, 2.0)
        assert np.array_equal(gs.green.entries, K.entries)
        assert not gs.dirac_sweep_to_y.any()
        assert gs.asymmetry_residual == 0.0

    def test_empty_y_block_is_checked_once(self, monkeypatch):
        # with Y empty on a strict subset D the Green matrix is the D-block of
        # the already checked Riesz matrix, so only that matrix is factored
        pts = np.vstack([geometry.sphere_shell(30, 1.0), [[0.0, 0.0, 1.7]]])
        cfg = DomainConfig(point_set=PointSet.from_points(pts),
                           d_indices=np.arange(20),
                           y_indices=np.array([], dtype=int),
                           f_indices=np.arange(10), alpha=2.0)
        sizes = []
        real = greenpot.solvers._cholesky

        def counting(a, **kwargs):
            sizes.append(a.shape[0])
            return real(a, **kwargs)

        monkeypatch.setattr(greenpot.riesz, "_cholesky", counting)
        gs = build_green(cfg)
        assert sizes == [31]
        K_d = gs.riesz_full.block(cfg.d_indices)
        assert gs.green.entries.tobytes() == K_d.tobytes()
        assert gs.green.kind == "green"

    def test_empty_y_whole_cloud_shares_the_riesz_matrix(self):
        # with Y empty and D every point the Green matrix is the Riesz one:
        # no copy, and its kept factor comes along
        pts = np.vstack([geometry.sphere_shell(30, 1.0), [[0.0, 0.0, 0.5]]])
        cfg = DomainConfig(point_set=PointSet.from_points(pts),
                           d_indices=np.arange(31),
                           y_indices=np.array([], dtype=int),
                           f_indices=np.arange(30), alpha=2.0)
        gs = build_green(cfg)
        assert np.shares_memory(gs.green.entries, gs.riesz_full.entries)
        assert gs.green.factor is gs.riesz_full.factor
        assert gs.green.kind == "green" and gs.riesz_full.kind == "riesz"
        cap, _ = green_equilibrium(gs, np.arange(31))
        cap_ref, _ = greenpot.riesz.capacity(gs.riesz_full, np.arange(31))
        assert cap == cap_ref

    def test_accepts_preassembled_riesz(self):
        gs = line_system()
        gs2 = build_green(gs.cfg, riesz_full=gs.riesz_full)
        assert np.array_equal(gs2.green.entries, gs.green.entries)

    def test_nonempty_y_drops_the_unread_riesz_factor(self):
        # with Y non-empty no solve reads the Riesz factor, so the system keeps
        # the checked entries without it, and nothing it reports changes
        gs0 = enclosure_system()
        K = assemble_riesz(gs0.cfg.point_set, 2.0)
        gs = build_green(gs0.cfg, riesz_full=K)
        assert gs.riesz_full.factor is None and K.factor is not None
        assert gs.riesz_full.entries is K.entries
        assert gs.green.factor is not None
        assert gs.green.entries.tobytes() == gs0.green.entries.tobytes()
        assert gs.dirac_sweep_to_y.tobytes() == gs0.dirac_sweep_to_y.tobytes()
        # the cross-route sweep reads riesz_full
        mu = DiscreteMeasure.from_dict(K.size, {81: 1.0})
        res = green_sweep(gs, mu, range(80))
        res_kept = green_sweep(replace(gs, riesz_full=K), mu, range(80))
        assert res.swept.weights.tobytes() == res_kept.swept.weights.tobytes()
        assert res.path_discrepancy == res_kept.path_discrepancy

    def test_entries_between_zero_and_riesz(self):
        gs = enclosure_system()
        K_d = gs.riesz_full.block(gs.cfg.d_indices)
        assert float(np.min(gs.green.entries)) >= -1e-10
        assert float(np.max(gs.green.entries - K_d)) <= 1e-10

    def test_d_positions_rejects_y_index(self):
        gs = line_system()
        with pytest.raises(ValidationError):
            gs.d_positions([2])

    def test_measure_on_d_rejects_y_support(self):
        gs = line_system()
        with pytest.raises(ValidationError):
            gs.measure_on_d(DiscreteMeasure.from_dict(3, {2: 1.0}))


class TestPotential:
    def test_two_path_consistency(self):
        # path one is the Green matrix; path two subtracts the potential of
        # the sweep onto Y from the plain Riesz potential
        gs = enclosure_system()
        mu = DiscreteMeasure.from_dict(len(gs.cfg.point_set),
                                       {80: 0.6, 81: 0.4})
        d = gs.cfg.d_indices
        u = gs.green.entries @ gs.measure_on_d(mu)
        K = gs.riesz_full.entries
        swept = sweep(gs.riesz_full, mu, gs.cfg.y_indices).swept
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
        assert res.path_discrepancy == 0.0
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
        assert res.warning is None
        assert res.path_discrepancy <= 1e-10

    def test_interior_source_flags_sampling_error(self):
        # a charge enclosed by F feels the Y-discretization through the
        # symmetrized Green matrix but not through the joint Riesz sweep, so
        # the two routes drift apart and the result must say so
        gs = enclosure_system()
        mu = DiscreteMeasure.from_dict(len(gs.cfg.point_set), {80: 1.0})
        res = green_sweep(gs, mu, gs.cfg.f_indices)
        assert res.warning == "path-disagreement"
        assert res.path_discrepancy > 1e-8

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
        # with Y empty the Riesz route poses the very same QP, so only the
        # Green route is solved and the discrepancy reads 0
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

        monkeypatch.setattr(greenpot.green, "nonneg_qp", counting)
        monkeypatch.setattr(greenpot.balayage, "nonneg_qp", counting)
        res = green_sweep(gs, mu, cfg.f_indices)
        assert calls == [40]
        assert res.path_discrepancy == 0.0
        assert res.warning is None
        riesz = sweep(gs.riesz_full, mu, cfg.f_indices)
        assert np.allclose(res.swept.weights, riesz.swept.weights,
                           rtol=0, atol=1e-13)


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
                                  [0.5, 1.9, 2.0]]), 2.0, 3, "green")
        gs = replace(build_green(cfg), green=G)
        ends = DiscreteMeasure.from_dict(3, {0: 1.0, 2: 1.0})
        assert frostman_excess(gs, ends) == pytest.approx(1.3, abs=1e-14)
        middle = DiscreteMeasure.from_dict(3, {1: 1.0})
        assert frostman_excess(gs, middle) == 0.0
