import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_solve
from scipy.spatial.distance import pdist, squareform

import greenpot.riesz
import greenpot.solvers
from greenpot import geometry
from greenpot.core import (DiscreteMeasure, PointSet, SolverError,
                           ValidationError)
from greenpot.riesz import (_simplex_minimum, assemble_riesz, capacity,
                            make_kernel, potential, weight_norm)
from greenpot.solvers import _TILE, _certify, _cholesky, simplex_qp


def kernel_2x2(entries):
    return make_kernel(np.array(entries, dtype=float))


def spd(m, seed=0):
    """A random exactly symmetric, diagonally dominant m x m matrix."""
    a = np.random.default_rng(seed).uniform(size=(m, m))
    return (a + a.T) / 2.0 + m * np.eye(m)


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
            make_kernel(np.array([[1.0, 2.0], [2.0, 1.0]]))

    @pytest.mark.parametrize("d", [0.0, -1.0], ids=["zero", "negative"])
    def test_non_positive_diagonal_fails_the_factorization(self, d):
        entries = np.array([[2.0, 0.5, 0.0], [0.5, d, 0.0], [0.0, 0.0, 2.0]])
        with pytest.raises(SolverError, match="size 3 is not positive definite"):
            make_kernel(entries)

    def test_nan_diagonal_rejected(self):
        # NaN != NaN, so the exact symmetry check refuses it before any
        # factor, though its bit patterns match
        entries = np.array([[2.0, 0.5], [0.5, np.nan]])
        with pytest.raises(ValidationError, match="symmetric"):
            make_kernel(entries)
        with pytest.raises(ValidationError, match="symmetric"):
            make_kernel(np.array([[2.0, np.nan], [np.nan, 2.0]]))

    def test_nan_pivot_is_a_failed_factorization(self):
        # LAPACK's potrf in OpenBLAS returns a NaN factor here without an error
        with pytest.raises(SolverError, match="non-finite pivot"):
            _cholesky(np.array([[2.0, 0.5], [0.5, np.nan]]))

    def test_asymmetric_matrix_rejected(self):
        with pytest.raises(ValidationError):
            make_kernel(np.array([[2.0, 1.0], [0.5, 2.0]]))

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
        entries = spd(m, seed=m)
        assert make_kernel(entries).size == m
        for i, j in self.flip_positions(m):
            flipped = entries.copy()
            flipped[i, j] = np.nextafter(flipped[i, j], 2.0)
            with pytest.raises(ValidationError):
                make_kernel(flipped)
            # equal values, unequal bits: zeros of opposite sign
            signed = entries.copy()
            signed[i, j], signed[j, i] = -0.0, 0.0
            with pytest.raises(ValidationError):
                make_kernel(signed)


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
        K = make_kernel(M @ M.T + m * np.eye(m))
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
        K = make_kernel(M @ M.T + 3 * np.eye(3))
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
        K = make_kernel(M @ M.T + m * np.eye(m))
        k = int(rng.integers(1, m))
        small = list(range(k))
        big = list(range(m))
        c_small, _ = capacity(K, small)
        c_big, _ = capacity(K, big)
        assert c_small <= c_big + 1e-10


def equilibrium(K, a):
    """The equilibrium measure gamma = cap * mu of capacity's minimizer mu."""
    cap, mu = capacity(K, a)
    return DiscreteMeasure(cap * mu.weights)


class TestEquilibrium:
    def test_hand_interior(self):
        K = kernel_2x2([[4.0, 1.0], [1.0, 4.0]])
        gamma = equilibrium(K, [0, 1])
        assert np.allclose(gamma.weights, [0.2, 0.2], atol=1e-12)
        assert np.allclose(potential(K, gamma), [1.0, 1.0], atol=1e-12)
        assert gamma.total_mass == pytest.approx(0.4)

    def test_hand_pinned(self):
        K = kernel_2x2([[1.0, 2.0], [2.0, 8.0]])
        gamma = equilibrium(K, [0, 1])
        assert np.allclose(gamma.weights, [1.0, 0.0], atol=1e-12)
        u = potential(K, gamma)
        assert np.allclose(u, [1.0, 2.0], atol=1e-12)
        assert np.all(u >= 1.0 - 1e-12)

    def test_hand_asymmetric(self):
        K = kernel_2x2([[2.0, 1.0], [1.0, 3.0]])
        gamma = equilibrium(K, [0, 1])
        assert np.allclose(gamma.weights, [0.4, 0.2], atol=1e-12)

    def test_mass_equals_capacity(self):
        rng = np.random.default_rng(8)
        M = rng.normal(size=(6, 6))
        K = make_kernel(M @ M.T + 6 * np.eye(6))
        c, _ = capacity(K, range(6))
        gamma = equilibrium(K, range(6))
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
    """make_kernel's check keeps its factor's solve of the first free set of
    a whole-kernel simplex solve, not the factor."""

    @pytest.mark.parametrize("solve", [capacity])
    def test_whole_kernel_solve_factors_once(self, monkeypatch, solve):
        # the positive-definiteness check's factorization is the solve's
        # only one, and the solve reads the entries in place
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
        capacity(replace(K, solve=None), range(50))
        assert sizes == [50, 49, 50]
        assert operands[0].shape == (49, 49)
        assert operands[1] is K.entries

    def test_factor_takes_no_part_in_repr_or_equality(self):
        K = kernel_2x2([[2.0, 1.0], [1.0, 3.0]])
        assert K.solve.shape == (2, 2) and "solve" not in repr(K)
        assert K == replace(K, solve=None)


def assert_same_solve(K):
    """A whole-kernel solve on the kept solve: no factorization of the whole
    kernel, and the bytes and records of a cold solve."""
    everything = np.arange(K.size)
    with pytest.MonkeyPatch.context() as mp:
        sizes, _ = count_factorizations(mp)
        energy, x = _simplex_minimum(K, everything)
    # later free sets, if any, are strict subsets factored afresh
    assert K.size not in sizes
    energy_ref, x_ref = _simplex_minimum(replace(K, solve=None), everything)
    assert x.tobytes() == x_ref.tobytes()
    assert energy == energy_ref
    # the records of the two whole-kernel solves _simplex_minimum makes
    x_kept, rec = simplex_qp(K.entries, solve=K.solve)
    _, rec_ref = simplex_qp(K.entries)
    assert x_kept.tobytes() == x.tobytes()
    assert rec == rec_ref
    # the kept solve is the cold first solve of _solve_free, bit for bit
    rhs = np.column_stack((np.zeros(K.size), np.ones(K.size)))
    cold = cho_solve(_cholesky(K.entries.copy()), rhs, check_finite=False)
    assert K.solve.tobytes() == cold.tobytes()
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


class TestInPlaceCertificate:
    """solvers._certify factors a matrix in its own buffer and hands every
    entry back bit for bit, on success and on failure; make_kernel
    certifies the caller's array through it."""

    @pytest.mark.parametrize("m", [1, 2, _TILE - 1, _TILE, _TILE + 1, 2 * _TILE + 3])
    def test_caller_array_comes_back_unchanged(self, m):
        entries = spd(m, seed=m)
        before = entries.tobytes()
        k = m // 2
        rhs = np.random.default_rng(m).normal(size=(m, 2))
        guide, solve = _certify(entries, k, rhs)
        assert entries.tobytes() == before
        # both are read off the factor before the restore
        factor = _cholesky(entries.copy())
        assert solve.tobytes() == cho_solve(factor, rhs).tobytes()
        if k:
            assert guide[1] == factor[1]
            assert guide[0].tobytes() == factor[0][:k, :k].tobytes()
        else:
            assert guide is None
        K = make_kernel(entries)
        assert np.shares_memory(K.entries, entries)
        assert entries.tobytes() == before
        assert K.solve.shape == (m, 2)

    @pytest.mark.parametrize("m", [3, 2 * _TILE + 3])
    def test_caller_array_comes_back_after_a_failed_factorization(self, m):
        # the last pivot fails, after the factor has overwritten the rest
        entries = spd(m)
        entries[-1, -1] = -1.0
        before = entries.tobytes()
        for certify in (lambda a: _certify(a, 2, np.ones((m, 2))),
                        make_kernel):
            with pytest.raises(SolverError, match="not positive definite"):
                certify(entries)
            assert entries.tobytes() == before

    def test_signed_zeros_come_back(self):
        entries = np.array([[2.0, -0.0, 0.0], [-0.0, 3.0, 1.0], [0.0, 1.0, 4.0]])
        before = entries.tobytes()
        assert _certify(entries) == (None, None)
        assert entries.tobytes() == before
        make_kernel(entries)
        assert entries.tobytes() == before

    def test_zeros_of_opposite_sign_are_not_symmetric(self):
        # the certificate's restore would turn the -0.0 into 0.0
        with pytest.raises(ValidationError, match="symmetric"):
            make_kernel(np.array([[2.0, -0.0], [0.0, 3.0]]))

    def test_read_only_and_non_contiguous_inputs_are_copied(self):
        m = _TILE + 5
        ref = make_kernel(spd(m))
        read_only = spd(m)
        read_only.flags.writeable = False
        wide = np.zeros((m, 2 * m))
        wide[:, ::2] = spd(m)
        for entries in (read_only, np.asfortranarray(spd(m)), wide[:, ::2],
                        spd(m).tolist()):
            before = np.array(entries).tobytes()
            K = make_kernel(entries)
            assert not np.shares_memory(K.entries, entries)
            assert np.array(entries).tobytes() == before
            assert K.entries.tobytes() == ref.entries.tobytes()
            assert K.solve.tobytes() == ref.solve.tobytes()


class TestKernelMemory:
    @pytest.mark.parametrize("solves", [(capacity,), (capacity, capacity)],
                             ids=["capacity", "capacity+capacity"])
    def test_whole_kernel_solves_hold_one_matrix(self, solves):
        # the kernel holds its entries and an m x 2 solve; neither its check
        # nor a solve over every point allocates a second m x m array
        m = 600
        ps = PointSet.from_points(geometry.sphere_shell(m))
        tracemalloc.start()
        try:
            K = assemble_riesz(ps, 2.0)
            for solve in solves:
                solve(K, range(m))
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        matrix = 8 * m * m
        assert peak <= 1.25 * matrix
        assert held <= 1.05 * matrix


# A fresh interpreter assembles Riesz kernels of sphere shells at m = 2000,
# 2000 and 2100, dropping each, and prints how far its peak RSS rose (MiB).
# The peak is VmHWM, the high-water mark of the interpreter's own address
# space: ru_maxrss survives exec, so in a child of a large test process it
# starts at the parent's peak.
_REPEATED_KERNELS = """
from greenpot import geometry
from greenpot.core import PointSet
from greenpot.riesz import assemble_riesz

def peak_kib():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh
                    if line.startswith("VmHWM:"))

clouds = [PointSet.from_points(geometry.sphere_shell(m)) for m in (2000, 2000, 2100)]
before = peak_kib()
for ps in clouds:
    K = assemble_riesz(ps, 2.0)
    del K
print((peak_kib() - before) / 1024)
"""


def _run_fresh(code: str) -> str:
    src = os.path.dirname(os.path.dirname(os.path.abspath(greenpot.riesz.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=120, check=True,
        env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"})
    return proc.stdout.strip()


class TestHeapTrim:
    """Free heap goes back to the system before every Riesz buffer of 32 MiB
    or more, which glibc maps on its own (riesz._trim_before_mapping)."""

    @staticmethod
    def count_trims(monkeypatch, found=True) -> list:
        calls = []
        trim = calls.append if found else None
        monkeypatch.setattr(greenpot.riesz, "_malloc_trim", lambda: trim)
        return calls

    def test_a_buffer_below_32_mib_makes_no_call(self, monkeypatch):
        calls = self.count_trims(monkeypatch)
        ps = PointSet.from_points(geometry.sphere_shell(2047))
        greenpot.riesz._riesz_entries(ps, 2.0, 1.0)
        assert calls == []

    def test_a_buffer_of_32_mib_makes_one_call(self, monkeypatch):
        calls = self.count_trims(monkeypatch)
        ps = PointSet.from_points(geometry.sphere_shell(2048))
        greenpot.riesz._riesz_entries(ps, 2.0, 1.0)
        assert calls == [0]

    def test_a_missing_symbol_is_a_no_op(self, monkeypatch):
        ps = PointSet.from_points(geometry.sphere_shell(2048))
        trimmed = greenpot.riesz._riesz_entries(ps, 2.0, 1.0)
        self.count_trims(monkeypatch, found=False)
        bare = greenpot.riesz._riesz_entries(ps, 2.0, 1.0)
        assert bare.tobytes() == trimmed.tobytes()

    def test_import_resolves_no_symbol(self):
        # the lookup happens on the first large kernel, never at import, so
        # it cannot move the time an import takes
        assert _run_fresh(
            "import greenpot, greenpot.cli, greenpot.riesz\n"
            "print(greenpot.riesz._malloc_trim.cache_info().currsize)") == "0"

    @pytest.mark.skipif(greenpot.riesz._malloc_trim() is None,
                        reason="the C library has no malloc_trim")
    def test_repeated_kernels_peak_at_the_live_set(self):
        # the freed first kernel raises glibc's mmap threshold, so the second
        # comes from the heap; untrimmed, it stays resident beside the mapped
        # 2100-point kernel and the peak rises 72 MiB
        largest = 8 * 2100 ** 2 / 2 ** 20
        assert float(_run_fresh(_REPEATED_KERNELS)) < largest + 16
