import tracemalloc

import numpy as np
import pytest

import greenpot.balayage
from greenpot.balayage import dirac_sweep_matrix, sweep
from greenpot.core import DiscreteMeasure, PointSet, SolverError, ValidationError
from greenpot.riesz import (KernelMatrix, assemble_riesz, make_kernel, potential,
                            weight_norm)
from greenpot.solvers import KKTRecord, nonneg_qp


def hand_kernel():
    """Target block [[2,1],[1,2]], source column giving potentials (1, 0.5)."""
    entries = np.array([[2.0, 1.0, 1.0],
                        [1.0, 2.0, 0.5],
                        [1.0, 0.5, 2.0]])
    return make_kernel(entries)


class TestSweep:
    def test_dirac_inside_target_is_identity(self):
        K = hand_kernel()
        xi = DiscreteMeasure.from_dict(3, {0: 1.0})
        res = sweep(K, xi, [0, 1])
        assert res.algorithm == "identity"
        assert np.array_equal(res.swept.weights, xi.weights)
        assert res.mass_out == res.mass_in == 1.0

    def test_forced_projection_reproduces_identity(self):
        K = hand_kernel()
        xi = DiscreteMeasure.from_dict(3, {0: 1.0})
        res = sweep(K, xi, [0, 1], force_projection=True)
        assert res.algorithm != "identity"
        assert np.allclose(res.swept.weights, xi.weights, atol=1e-12)

    def test_hand_projection(self):
        K = hand_kernel()
        xi = DiscreteMeasure.from_dict(3, {2: 1.0})
        res = sweep(K, xi, [0, 1])
        assert np.allclose(res.swept.weights, [0.5, 0.0, 0.0], atol=1e-12)
        assert res.mass_out == pytest.approx(0.5)
        kk = res.kkt_residuals
        assert kk.equality_on_support <= 1e-12
        assert kk.inequality_on_target <= 1e-12

    def test_empty_target_rejected(self):
        K = hand_kernel()
        xi = DiscreteMeasure.from_dict(3, {2: 1.0})
        with pytest.raises(ValidationError):
            sweep(K, xi, [])

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(12)
        ps = PointSet.from_points(rng.uniform(-1, 1, size=(8, 3)))
        K = assemble_riesz(ps, 2.0)
        xi = DiscreteMeasure.from_dict(8, {6: 0.7, 7: 0.5})
        q = [0, 1, 2]
        res = sweep(K, xi, q)

        def objective(W):
            D = np.tile(xi.weights, (W.shape[0], 1))
            D[:, q] -= W
            return np.einsum("ij,jk,ik->i", D, K.entries, D)

        opt = objective(res.swept.weights[None, q])[0]
        # grid must bracket the optimum for the comparison to mean anything
        assert res.swept.weights.max() < 1.3
        step = 0.02
        axis = np.arange(0.0, 1.3 + step, step)
        W = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"),
                     axis=-1).reshape(-1, 3)
        best = objective(W).min()
        assert opt <= best + 1e-12
        assert best - opt <= 0.05

    def test_projection_shrinks_energy_distance_to_any_cone_point(self):
        rng = np.random.default_rng(21)
        ps = PointSet.from_points(rng.uniform(-1, 1, size=(12, 3)))
        K = assemble_riesz(ps, 2.0)
        xi = DiscreteMeasure.from_dict(12, {10: 1.0, 11: 0.4})
        q = list(range(8))
        res = sweep(K, xi, q)
        # projection onto a convex cone never has larger norm than the input
        assert (weight_norm(K, res.swept.weights)
                <= weight_norm(K, xi.weights) + 1e-10)

    def test_idempotence_under_forced_resweep(self):
        rng = np.random.default_rng(22)
        ps = PointSet.from_points(rng.uniform(-1, 1, size=(15, 3)))
        K = assemble_riesz(ps, 1.5)
        xi = DiscreteMeasure.from_dict(15, {13: 0.8, 14: 0.9})
        q = list(range(10))
        first = sweep(K, xi, q)
        second = sweep(K, first.swept, q, force_projection=True)
        assert np.allclose(second.swept.weights, first.swept.weights,
                           atol=1e-10)


class TestDominationExcess:
    """The sweep takes its excess off the target from one more product with
    the whole kernel: max(0, max((K w - u_in)[off])), w the swept weights."""

    @staticmethod
    def kernel(kind, n, rng):
        if kind == "riesz":
            return assemble_riesz(
                PointSet.from_points(rng.uniform(-1, 1, size=(n, 3))), 2.0)
        # a random SPD matrix holds no domination principle, so the excess
        # is mostly positive
        B = rng.normal(size=(n, n))
        return make_kernel(B @ B.T + n * np.eye(n))

    @pytest.mark.parametrize("n_off", [1, 127, 128, 129, 300])
    def test_equals_the_excess_of_the_whole_product(self, n_off):
        rng = np.random.default_rng(n_off)
        n = n_off + 40
        excesses = []
        for kind in ("riesz", "random_spd"):
            K = self.kernel(kind, n, rng)
            q = np.sort(rng.choice(n, 40, replace=False))
            off = np.setdiff1d(np.arange(n), q)
            weights = np.zeros(n)
            weights[off] = rng.uniform(0.0, 1.0, n_off)
            res = sweep(K, DiscreteMeasure(weights), q)
            u_in = K.entries @ weights
            excess = float(np.max((K.entries @ res.swept.weights - u_in)[off]))
            assert res.kkt_residuals.domination_off_target == max(0.0, excess)
            excesses.append(excess)
        # the Riesz sweep stays below the input potential off the target,
        # so there the floor at 0 decides; on the random kernel it does not,
        # unless the one point off the target holds the input's mass
        assert excesses[0] < 0.0
        assert (excesses[1] > 0.0) == (n_off > 1)

    def test_target_of_every_index_has_none(self):
        rng = np.random.default_rng(5)
        K = self.kernel("random_spd", 30, rng)
        xi = DiscreteMeasure(rng.uniform(0.0, 1.0, 30))
        res = sweep(K, xi, np.arange(30), force_projection=True)
        assert res.algorithm != "identity"
        assert res.kkt_residuals.domination_off_target == 0.0

    def test_transient_is_a_few_cloud_vectors(self, monkeypatch):
        # with the solve stubbed, a sweep onto 40 of 1200 indices holds the
        # input potential, the swept weights, their potential and its
        # excess, and the off-target mask: a few m-vectors, no block of K
        # (one 128-row block of K[off, q] alone is 40 kB, one m-vector 9.6 kB)
        rng = np.random.default_rng(3)
        n, n_q = 1200, 40
        K = KernelMatrix(rng.uniform(0.1, 1.0, size=(n, n)))
        q = np.sort(rng.choice(n, n_q, replace=False))
        x = rng.uniform(0.0, 1.0, n_q)
        rec = KKTRecord(0.0, 0.0, 0.0, 0.0, 2, 0.0)
        monkeypatch.setattr(greenpot.balayage, "nonneg_qp",
                            lambda A, b, slot=None: (x, rec))
        xi = DiscreteMeasure(rng.uniform(0.0, 1.0, n))
        tracemalloc.start()
        try:
            res = greenpot.balayage._sweep(K, xi, q, True, lambda q: (None, None))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.swept.weights[q].tobytes() == x.tobytes()
        assert peak <= 5 * 8 * n


class TestDiracMatrix:
    def test_source_in_target_rejected(self):
        K = hand_kernel()
        with pytest.raises(ValidationError, match="disjoint"):
            dirac_sweep_matrix(K, [0, 2], [0, 1])

    def test_returns_c_ordered_block_on_target(self):
        K = hand_kernel()
        W = dirac_sweep_matrix(K, [2], [0, 1])
        assert W.shape == (2, 1) and W.flags.c_contiguous
        assert np.allclose(W[:, 0], [0.5, 0.0], atol=1e-12)
        assert dirac_sweep_matrix(K, [], [0, 1]).shape == (2, 0)

    def test_indefinite_target_block_is_a_solver_error(self):
        # built without make_kernel's check: the target block [[1,2],[2,1]]
        # is indefinite, and the cone solver already says so the same way
        K = KernelMatrix(np.array([[1.0, 2.0, 0.5],
                                   [2.0, 1.0, 0.5],
                                   [0.5, 0.5, 1.0]]))
        with pytest.raises(SolverError, match="size 2"):
            nonneg_qp(K.block([0, 1]), K.block([0, 1], [2])[:, 0])
        with pytest.raises(SolverError, match="size 2 is not positive definite"):
            dirac_sweep_matrix(K, [2], [0, 1])

    def test_nan_pivot_is_a_solver_error(self):
        # OpenBLAS's potrf carries this NaN pivot through without an error
        K = KernelMatrix(np.array([[2.0, 0.5, 0.3],
                                   [0.5, np.nan, 0.2],
                                   [0.3, 0.2, 1.0]]))
        with pytest.raises(SolverError, match="non-finite pivot"):
            dirac_sweep_matrix(K, [2], [0, 1])

    def test_superposition_matches_individual_sweeps(self):
        rng = np.random.default_rng(14)
        ps = PointSet.from_points(rng.uniform(-1, 1, size=(10, 3)))
        K = assemble_riesz(ps, 2.0)
        q = [0, 1, 2, 3, 4]
        W = dirac_sweep_matrix(K, [7, 8, 9], q)
        assert W.shape == (len(q), 3) and W.flags.c_contiguous
        for col, src in enumerate([7, 8, 9]):
            one = sweep(K, DiscreteMeasure.from_dict(10, {src: 1.0}), q)
            assert np.allclose(W[:, col], one.swept.weights[q], atol=1e-9)

    def test_negative_plain_solve_falls_back_to_cone_projection(self, monkeypatch):
        # at seed 0 the plain solve leaves the last source's column negative;
        # its cone projection must read the kernel block, not the factor that
        # overwrote the block's copy
        rng = np.random.default_rng(0)
        K = assemble_riesz(PointSet.from_points(rng.uniform(-1, 1, size=(12, 3))), 2.0)
        q, sources = np.arange(8), np.arange(8, 12)
        operands = []
        real = greenpot.balayage.nonneg_qp

        def counting(A, b, *args, **kwargs):
            operands.append(A)
            return real(A, b, *args, **kwargs)

        monkeypatch.setattr(greenpot.balayage, "nonneg_qp", counting)
        W = dirac_sweep_matrix(K, sources, q)
        assert len(operands) == 1
        assert np.array_equal(operands[0], K.block(q))
        assert np.count_nonzero(W[:, 3]) < q.size
        for col, src in enumerate(sources):
            one = sweep(K, DiscreteMeasure.from_dict(12, {src: 1.0}), q)
            assert np.max(np.abs(W[:, col] - one.swept.weights[q])) <= 1e-12


class TestHarmonicMeasure:
    """Mass a unit point mass loses when swept onto a set: the discrete
    harmonic measure of infinity seen from the point."""

    def test_vanishes_under_dense_enclosure(self):
        from greenpot import geometry
        # discretization lets the swept mass overshoot 1 slightly, so the
        # value can sit just below zero; it must still shrink with refinement
        values = []
        for count in (60, 200):
            shell = geometry.sphere_shell(count, 2.0)
            pts = np.vstack([[[0.0, 0.0, 0.0]], shell])
            K = assemble_riesz(PointSet.from_points(pts), 2.0)
            eps = DiscreteMeasure.from_dict(count + 1, {0: 1.0})
            values.append(1.0 - sweep(K, eps, range(1, count + 1)).mass_out)
        assert abs(values[1]) < abs(values[0])
        assert abs(values[1]) <= 0.05
