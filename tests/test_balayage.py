import numpy as np
import pytest

import greenpot.balayage
from greenpot.balayage import dirac_sweep_matrix, sweep
from greenpot.core import DiscreteMeasure, PointSet, ValidationError
from greenpot.riesz import assemble_riesz, make_kernel, potential, weight_norm


def hand_kernel():
    """Target block [[2,1],[1,2]], source column giving potentials (1, 0.5)."""
    entries = np.array([[2.0, 1.0, 1.0],
                        [1.0, 2.0, 0.5],
                        [1.0, 0.5, 2.0]])
    return make_kernel(entries, 2.0, 3, "riesz")


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


class TestDiracMatrix:
    def test_source_in_target_keeps_unit_column(self):
        K = hand_kernel()
        B = dirac_sweep_matrix(K, [0, 2], [0, 1])
        assert np.array_equal(B[:, 0], [1.0, 0.0, 0.0])
        assert np.allclose(B[:, 1], [0.5, 0.0, 0.0], atol=1e-12)

    def test_superposition_matches_individual_sweeps(self):
        rng = np.random.default_rng(14)
        ps = PointSet.from_points(rng.uniform(-1, 1, size=(10, 3)))
        K = assemble_riesz(ps, 2.0)
        q = [0, 1, 2, 3, 4]
        B = dirac_sweep_matrix(K, [7, 8, 9], q)
        for col, src in enumerate([7, 8, 9]):
            one = sweep(K, DiscreteMeasure.from_dict(10, {src: 1.0}), q)
            assert np.allclose(B[:, col], one.swept.weights, atol=1e-9)

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
        B = dirac_sweep_matrix(K, sources, q)
        assert len(operands) == 1
        assert np.array_equal(operands[0], K.block(q))
        assert np.count_nonzero(B[q, 3]) < q.size
        for col, src in enumerate(sources):
            one = sweep(K, DiscreteMeasure.from_dict(12, {src: 1.0}), q)
            assert np.max(np.abs(B[:, col] - one.swept.weights)) <= 1e-12


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
