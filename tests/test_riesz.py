from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist, squareform

import greenpot.riesz
import greenpot.solvers
from greenpot import geometry
from greenpot.core import (DiscreteMeasure, PointSet, SolverError,
                           ValidationError)
from greenpot.riesz import (_TILE, _simplex_minimum, assemble_riesz, capacity,
                            equilibrium_measure, make_kernel, potential,
                            weight_norm)


def kernel_2x2(entries, alpha=2.0, dim=3):
    return make_kernel(np.array(entries, dtype=float), alpha, dim, "riesz")


class TestAssembly:
    def test_off_diagonal_newtonian(self):
        pts = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        K = assemble_riesz(PointSet.from_points(pts), 2.0)
        assert K.entries[0, 1] == pytest.approx(0.5)

    def test_off_diagonal_planar(self):
        pts = np.array([[0.0, 0.0], [4.0, 0.0]])
        K = assemble_riesz(PointSet.from_points(pts), 1.0)
        assert K.entries[0, 1] == pytest.approx(0.25)

    def test_hand_two_point_matrix(self):
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        ps = PointSet(pts, np.array([0.25, 0.25]))
        K = assemble_riesz(ps, 2.0)
        assert np.allclose(K.entries, [[4.0, 1.0], [1.0, 4.0]])
        assert np.linalg.det(K.entries) == pytest.approx(15.0)

    def test_sigma_shrinks_cells(self):
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        K = assemble_riesz(PointSet.from_points(pts), 2.0, sigma=0.5)
        assert np.allclose(np.diag(K.entries), [4.0, 4.0])

    def test_alpha_validation(self):
        ps = PointSet.from_points(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
        for alpha in (0.0, 2.5, 3.0):
            with pytest.raises(ValidationError):
                assemble_riesz(ps, alpha)
        ps2 = PointSet.from_points(np.array([[0.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(ValidationError):
            assemble_riesz(ps2, 2.0)

    def test_sigma_validation(self):
        ps = PointSet.from_points(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
        for sigma in (0.0, -0.2, 1.5):
            with pytest.raises(ValidationError):
                assemble_riesz(ps, 2.0, sigma=sigma)

    def test_entries_are_exactly_symmetric(self):
        rng = np.random.default_rng(2)
        ps = PointSet.from_points(rng.uniform(size=(40, 3)))
        K = assemble_riesz(ps, 1.5)
        assert np.array_equal(K.entries, K.entries.T)

    def test_empty_cloud_gives_empty_matrix(self):
        K = assemble_riesz(PointSet.from_points(np.zeros((0, 3))), 2.0)
        assert K.entries.shape == (0, 0)

    def test_indefinite_matrix_rejected(self):
        with pytest.raises(SolverError):
            make_kernel(np.array([[1.0, 2.0], [2.0, 1.0]]), 2.0, 3, "riesz")

    def test_asymmetric_matrix_rejected(self):
        with pytest.raises(ValidationError):
            make_kernel(np.array([[2.0, 1.0], [0.5, 2.0]]), 2.0, 3, "riesz")

    def test_scaling_law(self):
        # dilating the cloud by s scales every entry by s^(alpha - n)
        rng = np.random.default_rng(4)
        pts = rng.uniform(size=(25, 3))
        ps1 = PointSet.from_points(pts)
        ps2 = PointSet.from_points(3.0 * pts)
        K1 = assemble_riesz(ps1, 2.0)
        K2 = assemble_riesz(ps2, 2.0)
        assert np.allclose(K2.entries, K1.entries / 3.0)


class TestTiledSymmetryCheck:
    @staticmethod
    def flip_positions(m):
        """One entry per tile kind: a diagonal tile, an off-diagonal tile and
        the trailing partial tile, each below and above the diagonal."""
        positions = [(1, 0), (0, 1)]
        if m > _TILE:
            positions += [(_TILE, 0), (_TILE - 1, _TILE)]
        if m % _TILE:
            positions += [(m - 1, m - 2), (m - 2, m - 1), (m - 1, 0), (0, m - 1)]
        return positions

    @pytest.mark.parametrize("m", [_TILE - 1, _TILE, _TILE + 1, 2 * _TILE + 3])
    def test_one_flipped_entry_is_rejected(self, m):
        rng = np.random.default_rng(m)
        a = rng.uniform(size=(m, m))
        entries = (a + a.T) / 2.0 + m * np.eye(m)
        assert make_kernel(entries, 2.0, 3).size == m
        for i, j in self.flip_positions(m):
            flipped = entries.copy()
            flipped[i, j] = np.nextafter(flipped[i, j], 2.0)
            with pytest.raises(ValidationError):
                make_kernel(flipped, 2.0, 3)


@given(shape=st.sampled_from([(2, 1.0), (2, 1.5), (3, 1.0), (3, 1.5), (3, 2.0)]),
       m=st.one_of(st.integers(2, 2 * _TILE + 3),
                   st.sampled_from([_TILE - 1, _TILE, _TILE + 1, 2 * _TILE])),
       sigma=st.floats(0.2, 0.99), seed=st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_blocked_assembly_matches_squareform_oracle(shape, m, sigma, seed):
    dim, alpha = shape
    pts = np.random.default_rng(seed).normal(size=(m, dim))
    ps = PointSet.from_points(pts)
    dist = squareform(pdist(pts))
    np.fill_diagonal(dist, sigma * ps.cell_radius)
    dist **= alpha - dim
    assert assemble_riesz(ps, alpha, sigma).entries.tobytes() == dist.tobytes()


class TestPotentialAndEnergy:
    def test_dirac_gives_kernel_column(self):
        K = kernel_2x2([[4.0, 1.0], [1.0, 4.0]])
        mu = DiscreteMeasure.from_dict(2, {1: 1.0})
        assert np.array_equal(potential(K, mu), K.entries[:, 1])

    def test_zero_measure_gives_zero_vector(self):
        K = kernel_2x2([[4.0, 1.0], [1.0, 4.0]])
        assert np.array_equal(potential(K, DiscreteMeasure(np.zeros(2))),
                              np.zeros(2))

    def test_hand_potential(self):
        K = kernel_2x2([[4.0, 1.0], [1.0, 4.0]])
        mu = DiscreteMeasure(np.array([0.5, 0.5]))
        assert np.allclose(potential(K, mu), [2.5, 2.5])

    def test_hand_energy_and_norm(self):
        K = kernel_2x2([[4.0, 1.0], [1.0, 4.0]])
        w = np.array([0.5, 0.5])
        assert float(w @ K.entries @ w) == pytest.approx(2.5)
        assert weight_norm(K, w) == pytest.approx(np.sqrt(2.5))

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_cauchy_schwarz(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 10))
        M = rng.normal(size=(m, m))
        K = make_kernel(M @ M.T + m * np.eye(m), 2.0, 3, "riesz")
        mu = rng.uniform(size=m)
        nu = rng.uniform(size=m)
        lhs = abs(float(mu @ (K.entries @ nu)))
        rhs = np.sqrt(mu @ K.entries @ mu) * np.sqrt(nu @ K.entries @ nu)
        assert lhs <= rhs + 1e-9 * max(1.0, rhs)


class TestCapacity:
    def test_single_point(self):
        K = kernel_2x2([[4.0, 1.0], [1.0, 2.0]])
        c, mu = capacity(K, [1])
        assert c == pytest.approx(0.5)
        assert np.array_equal(mu.weights, [0.0, 1.0])

    def test_hand_two_point(self):
        K = kernel_2x2([[4.0, 1.0], [1.0, 4.0]])
        c, mu = capacity(K, [0, 1])
        assert np.allclose(mu.weights, [0.5, 0.5], atol=1e-12)
        assert float(mu.weights @ K.entries @ mu.weights) == pytest.approx(2.5)
        assert c == pytest.approx(0.4)

    def test_brute_force_grid(self):
        rng = np.random.default_rng(6)
        M = rng.normal(size=(3, 3))
        K = make_kernel(M @ M.T + 3 * np.eye(3), 2.0, 3, "riesz")
        c, mu = capacity(K, [0, 1, 2])
        best = np.inf
        steps = 150
        for i in range(steps + 1):
            for j in range(steps + 1 - i):
                x = np.array([i, j, steps - i - j]) / steps
                best = min(best, x @ K.entries @ x)
        energy = 1.0 / c
        assert energy <= best + 1e-12
        assert best - energy <= 1e-2

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_monotone_in_the_index_set(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(3, 9))
        M = rng.normal(size=(m, m))
        K = make_kernel(M @ M.T + m * np.eye(m), 2.0, 3, "riesz")
        k = int(rng.integers(1, m))
        small = list(range(k))
        big = list(range(m))
        c_small, _ = capacity(K, small)
        c_big, _ = capacity(K, big)
        assert c_small <= c_big + 1e-10


class TestEquilibrium:
    def test_hand_interior(self):
        K = kernel_2x2([[4.0, 1.0], [1.0, 4.0]])
        gamma = equilibrium_measure(K, [0, 1])
        assert np.allclose(gamma.weights, [0.2, 0.2], atol=1e-12)
        assert np.allclose(potential(K, gamma), [1.0, 1.0], atol=1e-12)
        assert gamma.total_mass == pytest.approx(0.4)

    def test_hand_pinned(self):
        K = kernel_2x2([[1.0, 2.0], [2.0, 8.0]])
        gamma = equilibrium_measure(K, [0, 1])
        assert np.allclose(gamma.weights, [1.0, 0.0], atol=1e-12)
        u = potential(K, gamma)
        assert np.allclose(u, [1.0, 2.0], atol=1e-12)
        assert np.all(u >= 1.0 - 1e-12)

    def test_hand_asymmetric(self):
        K = kernel_2x2([[2.0, 1.0], [1.0, 3.0]])
        gamma = equilibrium_measure(K, [0, 1])
        assert np.allclose(gamma.weights, [0.4, 0.2], atol=1e-12)

    def test_mass_equals_capacity(self):
        rng = np.random.default_rng(8)
        M = rng.normal(size=(6, 6))
        K = make_kernel(M @ M.T + 6 * np.eye(6), 2.0, 3, "riesz")
        c, _ = capacity(K, range(6))
        gamma = equilibrium_measure(K, range(6))
        assert gamma.total_mass == pytest.approx(c, abs=1e-10)

    def test_weight_norm_matches_energy_norm(self):
        K = kernel_2x2([[4.0, 1.0], [1.0, 4.0]])
        mu = DiscreteMeasure(np.array([0.3, 0.6]))
        energy = float(mu.weights @ (K.entries @ mu.weights))
        assert weight_norm(K, mu.weights) == pytest.approx(np.sqrt(energy))


def count_factorizations(monkeypatch):
    """Sizes of every Cholesky factorization the package runs, and the
    matrices simplex_qp is handed."""
    sizes, operands = [], []
    real_factor, real_qp = greenpot.solvers.cho_factor, greenpot.riesz.simplex_qp

    def factor(a, *args, **kwargs):
        sizes.append(a.shape[0])
        return real_factor(a, *args, **kwargs)

    def qp(G, *args, **kwargs):
        operands.append(G)
        return real_qp(G, *args, **kwargs)

    monkeypatch.setattr(greenpot.solvers, "cho_factor", factor)
    monkeypatch.setattr(greenpot.riesz, "simplex_qp", qp)
    return sizes, operands


class TestKeptFactor:
    @pytest.mark.parametrize("solve", [capacity, equilibrium_measure])
    def test_whole_kernel_solve_factors_once(self, monkeypatch, solve):
        # the positive-definiteness check's factor is the solve's only one,
        # and the solve reads the entries in place
        sizes, operands = count_factorizations(monkeypatch)
        K = assemble_riesz(PointSet.from_points(geometry.sphere_shell(200)), 2.0)
        assert sizes == [200]
        solve(K, range(200))
        assert sizes == [200]
        assert len(operands) == 1 and operands[0] is K.entries

    def test_strict_subset_and_bare_kernel_factor_afresh(self, monkeypatch):
        sizes, operands = count_factorizations(monkeypatch)
        K = assemble_riesz(PointSet.from_points(geometry.sphere_shell(50)), 2.0)
        capacity(K, range(49))
        capacity(replace(K, factor=None), range(50))
        assert sizes == [50, 49, 50]
        assert operands[0].shape == (49, 49)
        assert operands[1] is K.entries

    def test_factor_takes_no_part_in_repr_or_equality(self):
        K = kernel_2x2([[2.0, 1.0], [1.0, 3.0]])
        assert K.factor is not None and "factor" not in repr(K)
        assert K == replace(K, factor=None)


def assert_same_solve(K):
    everything = np.arange(K.size)
    energy, x, rec = _simplex_minimum(K, everything)
    energy_ref, x_ref, rec_ref = _simplex_minimum(replace(K, factor=None), everything)
    assert x.tobytes() == x_ref.tobytes()
    assert energy == energy_ref
    assert rec == rec_ref
    return rec


@given(m=st.integers(2, 80), seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_kept_factor_gives_identical_solves(m, seed):
    # on about a quarter of random Riesz clouds the minimizer leaves points
    # empty, so later free sets are factored afresh after the kept first one
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 4))
    alpha = float(rng.uniform(0.3, min(2.0, dim - 0.2)))
    K = assemble_riesz(PointSet.from_points(rng.normal(size=(m, dim))), alpha)
    assert_same_solve(K)


def test_kept_factor_gives_identical_solve_on_large_sphere():
    K = assemble_riesz(PointSet.from_points(geometry.sphere_shell(1000)), 2.0)
    assert assert_same_solve(K).iterations == 1
