import tracemalloc
import weakref
from dataclasses import astuple, replace

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from greenpot import geometry, solvers
from greenpot.core import PointSet
from greenpot.riesz import assemble_riesz
from greenpot.solvers import FactorSlot, nonneg_qp, simplex_qp


def random_spd(rng, m, jitter=0.5):
    M = rng.normal(size=(m, m))
    return M @ M.T + (jitter + m) * np.eye(m)


def nnls_oracle(A, b):
    """Same cone program via least squares: min |L' x - L^{-1} b|, x >= 0."""
    L = scipy.linalg.cholesky(A, lower=True)
    rhs = scipy.linalg.solve_triangular(L, b, lower=True)
    x, _ = scipy.optimize.nnls(L.T, rhs)
    return x


class TestNonnegQP:
    def test_interior_solution_uses_plain_solve(self):
        rng = np.random.default_rng(0)
        A = random_spd(rng, 6)
        x0 = rng.uniform(0.5, 1.0, 6)
        x, rec = nonneg_qp(A, A @ x0)
        assert np.allclose(x, x0, atol=1e-10)
        assert rec.iterations == 1

    @pytest.mark.parametrize("m,seed", [(5, 1), (12, 2), (25, 3), (40, 4),
                                        (60, 5)])
    def test_matches_least_squares_oracle(self, m, seed):
        rng = np.random.default_rng(seed)
        A = random_spd(rng, m)
        # mixed-sign targets force a nontrivial active set
        b = rng.normal(scale=3.0, size=m)
        x, rec = nonneg_qp(A, b)
        ref = nnls_oracle(A, b)
        obj = x @ A @ x - 2 * b @ x
        obj_ref = ref @ A @ ref - 2 * b @ ref
        assert obj <= obj_ref + 1e-8
        assert np.allclose(x, ref, atol=1e-7)

    def test_first_order_conditions_reported(self):
        rng = np.random.default_rng(7)
        A = random_spd(rng, 15)
        b = rng.normal(scale=2.0, size=15)
        x, rec = nonneg_qp(A, b)
        g = A @ x - b
        on = x > 0
        assert np.max(np.abs(g[on])) <= 10 * rec.tolerance
        assert np.min(g[~on]) >= -10 * rec.tolerance
        assert rec.support_residual <= 10 * rec.tolerance
        assert rec.off_support_slack <= 10 * rec.tolerance
        assert np.all(x >= 0)

    def test_all_negative_target_gives_zero(self):
        A = np.eye(4)
        x, rec = nonneg_qp(A, -np.ones(4))
        assert np.array_equal(x, np.zeros(4))

    def test_deterministic_repeat(self):
        rng = np.random.default_rng(11)
        A = random_spd(rng, 30)
        b = rng.normal(scale=3.0, size=30)
        x1, _ = nonneg_qp(A, b)
        x2, _ = nonneg_qp(A, b)
        assert np.array_equal(x1, x2)

    @given(st.integers(2, 8), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_random_instances_satisfy_kkt(self, m, seed):
        rng = np.random.default_rng(seed)
        A = random_spd(rng, m)
        b = rng.normal(scale=2.0, size=m)
        x, rec = nonneg_qp(A, b)
        assert np.all(x >= 0)
        g = A @ x - b
        slack = 50 * rec.tolerance
        assert np.all(g >= -slack)
        assert np.all(np.abs(g[x > 0]) <= slack)


def brute_simplex(G, b, steps=200):
    best, arg = np.inf, None
    if G.shape[0] == 2:
        for t in np.linspace(0.0, 1.0, steps + 1):
            x = np.array([t, 1.0 - t])
            v = x @ G @ x - 2 * b @ x
            if v < best:
                best, arg = v, x
    else:
        for i in range(steps + 1):
            for j in range(steps + 1 - i):
                x = np.array([i, j, steps - i - j]) / steps
                v = x @ G @ x - 2 * b @ x
                if v < best:
                    best, arg = v, x
    return best, arg


class TestSimplexQP:
    def test_symmetric_two_point_instance(self):
        G = np.array([[4.0, 1.0], [1.0, 4.0]])
        x, rec = simplex_qp(G)
        assert np.allclose(x, [0.5, 0.5], atol=1e-12)
        assert rec.multiplier == pytest.approx(2.5)

    def test_pinning_instance(self):
        # strong self-repulsion at the second point drives its weight to zero
        G = np.array([[1.0, 2.0], [2.0, 8.0]])
        x, rec = simplex_qp(G)
        assert np.allclose(x, [1.0, 0.0], atol=1e-12)
        assert rec.multiplier == pytest.approx(1.0)
        # pinned coordinate sees a larger potential, never a smaller one
        assert (G @ x)[1] >= rec.multiplier

    def test_interior_closed_form(self):
        rng = np.random.default_rng(3)
        G = random_spd(rng, 5)
        # target aligned with the equilibrium direction keeps all weights live
        x_ref = rng.uniform(0.5, 1.0, 5)
        x_ref /= x_ref.sum()
        c_ref = 0.7
        b = G @ x_ref - c_ref
        x, rec = simplex_qp(G, b)
        assert np.allclose(x, x_ref, atol=1e-9)
        assert rec.multiplier == pytest.approx(c_ref, abs=1e-9)

    def test_against_brute_force_grid(self):
        rng = np.random.default_rng(5)
        for _ in range(6):
            G = random_spd(rng, 3, jitter=1.0)
            b = rng.normal(scale=2.0, size=3)
            x, rec = simplex_qp(G, b)
            v = x @ G @ x - 2 * b @ x
            v_grid, _ = brute_simplex(G, b, steps=120)
            assert v <= v_grid + 1e-10
            assert v_grid - v <= 5e-3 * max(1.0, np.abs(G).max())

    def test_mass_is_exactly_normalized(self):
        rng = np.random.default_rng(9)
        G = random_spd(rng, 20)
        b = rng.normal(scale=4.0, size=20)
        x, rec = simplex_qp(G, b)
        assert rec.mass_error <= 1e-12
        assert abs(x.sum() - 1.0) <= 1e-12

    def test_free_zeros_below_zero_are_fixed_not_clipped(self):
        # the unconstrained minimizer on the identity is b: half its weights
        # are -5e-13, within tol = 1e-12 of zero, and the other half carry
        # the mass they leave, 1 + 2.5e-10; clipping them would add 2.5e-10
        # of mass, so the solve must fix them and solve the rest again
        m = 1000
        b = np.full(m, (1.0 + 2.5e-10) / (m // 2))
        b[::2] = -5e-13
        x, rec = simplex_qp(np.eye(m), b)
        assert rec.iterations == 2
        assert np.all(x[::2] == 0.0) and np.all(x[1::2] > 0.0)
        assert rec.mass_error <= 1e-15
        assert abs(x.sum() - 1.0) <= 1e-15

    def test_deterministic_repeat(self):
        rng = np.random.default_rng(13)
        G = random_spd(rng, 35)
        b = rng.normal(scale=4.0, size=35)
        x1, _ = simplex_qp(G, b)
        x2, _ = simplex_qp(G, b)
        assert np.array_equal(x1, x2)

    @given(st.integers(2, 7), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_random_instances_satisfy_kkt(self, m, seed):
        rng = np.random.default_rng(seed)
        G = random_spd(rng, m)
        b = rng.normal(scale=2.0, size=m)
        x, rec = simplex_qp(G, b)
        assert np.all(x >= 0)
        assert abs(x.sum() - 1.0) <= 1e-10
        g = G @ x - b
        c = rec.multiplier
        slack = 50 * max(rec.tolerance, 1e-12)
        assert np.all(np.abs(g[x > 0] - c) <= slack)
        assert np.all(g[x == 0] >= c - slack)


def same_bytes(x, rec, x_ref, rec_ref):
    return (x.tobytes() == x_ref.tobytes() and
            np.array(astuple(rec)).tobytes() == np.array(astuple(rec_ref)).tobytes())


@pytest.fixture
def factored(monkeypatch):
    """Sizes of the blocks the solvers factor from now on."""
    sizes = []
    real = solvers._cholesky

    def cholesky(block, *args, **kwargs):
        sizes.append(block.shape[0])
        return real(block, *args, **kwargs)

    monkeypatch.setattr(solvers, "_cholesky", cholesky)
    return sizes


def held_slot(free):
    """A factor slot holding the boolean free set free and no factor."""
    slot = FactorSlot()
    slot.free = np.array(free, dtype=bool)
    return slot


@pytest.fixture
def solved_sets(monkeypatch):
    """The free sets the solvers solve from now on, in order."""
    sets = []
    real = solvers._solve_free

    def spy(A, b, free, *args, **kwargs):
        sets.append(free.copy())
        return real(A, b, free, *args, **kwargs)

    monkeypatch.setattr(solvers, "_solve_free", spy)
    return sets


class TestFactorSlot:
    """A solve starts from the free set held in the slot and does not factor
    it again; it returns the bytes of the same solve without the slot, in
    no more free sets."""

    def problem(self):
        # diagonally dominant with a mixed-sign target: the cone projection
        # drops the negative targets in one pivot
        rng = np.random.default_rng(3)
        A = random_spd(rng, 12, jitter=100.0)
        return A, rng.normal(size=12)

    def test_nonneg_reads_the_held_free_set(self, factored):
        # the cold pivoting goes from every index, solved on the guide (here
        # A's own factor), to the final free set; the warm solve starts there
        A, b = self.problem()
        x_ref, rec_ref = nonneg_qp(A, b)
        assert rec_ref.iterations == 2
        slot = FactorSlot(solvers._cholesky(A.copy()))
        nonneg_qp(A, b, slot=slot)
        assert 0 < np.count_nonzero(slot.free) < b.size
        del factored[:]
        x, rec = nonneg_qp(A, b, slot=slot)
        assert factored == []
        assert rec.iterations == 1
        assert same_bytes(x, replace(rec, iterations=2), x_ref, rec_ref)

    def test_nonneg_solves_the_held_free_set_first(self, solved_sets):
        A, b = self.problem()
        held = b > 0
        held[np.flatnonzero(held)[0]] = False  # a warm set, not the final one
        x_ref, rec_ref = nonneg_qp(A, b)
        del solved_sets[:]
        slot = held_slot(held)
        x, rec = nonneg_qp(A, b, slot=slot)
        assert np.array_equal(solved_sets[0], held)
        assert len(solved_sets) == rec.iterations == 2
        assert same_bytes(x, rec, x_ref, rec_ref)

    def test_held_mask_not_mutated_by_pivoting(self, factored):
        # the held set and its factor are stale for a new target: pivoting
        # on an alias of the mask would keep matching it and read that factor
        A, b = self.problem()
        slot = FactorSlot()
        nonneg_qp(A, b, slot=slot)
        mask, before = slot.free, slot.free.copy()
        b = np.roll(b, 3)
        x_ref, rec_ref = nonneg_qp(A, b)
        x, rec = nonneg_qp(A, b, slot=slot)
        assert np.array_equal(mask, before)
        assert slot.free is not mask and not np.array_equal(slot.free, mask)
        assert rec.iterations > 1
        assert same_bytes(x, replace(rec, iterations=rec_ref.iterations),
                          x_ref, rec_ref)

    def test_negative_free_weight_is_never_final(self):
        # x = b on the identity: a weight of -5 tol (tol = 1e-12 here) is
        # fixed and its set solved again, whether the first free set holds
        # every index or is warm
        A = np.eye(4)
        b = np.array([1.0, 0.5, -5e-12, -1.0])
        for slot in (None, held_slot([1, 1, 1])):
            x, rec = nonneg_qp(A[:3, :3], b[:3], slot=slot)
            assert rec.iterations == 2
            assert x.tolist() == [1.0, 0.5, 0.0]
        # warm on {0, 1, 2}, with index 3 fixed and feasible
        x, rec = nonneg_qp(A, b, slot=held_slot([1, 1, 1, 0]))
        assert rec.iterations == 2
        assert x.tolist() == [1.0, 0.5, 0.0, 0.0]

    def test_simplex_started_on_the_held_free_set(self, factored):
        A, b = self.problem()
        b *= 30.0  # targets spread wider than the unit mass can cover
        slot = FactorSlot()
        simplex_qp(A, b, slot=slot)
        held = slot.free.copy()
        assert 0 < np.count_nonzero(held) < b.size
        x_ref, rec_ref = simplex_qp(A, b, slot=held_slot(held))
        assert rec_ref.iterations == 1
        del factored[:]
        x, rec = simplex_qp(A, b, slot=slot)
        assert factored == []
        assert same_bytes(x, rec, x_ref, rec_ref)
        # a rolled target ends on another free set of the same size: the
        # solve starts on the held set, reads its factor, and factors every
        # later free set
        b = np.roll(b, 1)
        x_ref, rec_ref = simplex_qp(A, b, slot=held_slot(held))
        del factored[:]
        x, rec = simplex_qp(A, b, slot=slot)
        moved = slot.free
        assert (np.count_nonzero(moved) == np.count_nonzero(held)
                and not np.array_equal(moved, held))
        assert len(factored) == rec.iterations - 1
        assert factored[-1] == np.count_nonzero(moved)
        assert same_bytes(x, rec, x_ref, rec_ref)


class TestGather:
    """_gather is A[np.ix_(rows, cols)] on strided views too, without a
    whole copy of the view."""

    @staticmethod
    def view(rng, m=300, pad=37):
        # the leading m x m block of a larger matrix, as green_f reads it
        return rng.normal(size=(m + pad, m + pad))[:m, :m]

    @pytest.mark.parametrize("rows, cols", [
        (np.arange(0, 300, 2), None),                 # sorted, over two tiles
        (np.arange(299, -1, -3), np.arange(40, 90)),  # unsorted, |cols| < |rows|
        (np.array([-1, -300, 5, 5]), np.array([-2, 7, -299])),  # negative
        (np.array([], dtype=int), np.arange(10)),     # no rows
        (np.arange(5), np.array([], dtype=int)),      # no columns
        (np.arange(130), np.arange(299, 0, -1)),      # |cols| > |rows|
    ])
    def test_strided_view_equals_contiguous_copy(self, rows, cols):
        A = self.view(np.random.default_rng(0))
        assert not A.flags.c_contiguous
        out = solvers._gather(A, rows, cols)
        ref = solvers._gather(np.ascontiguousarray(A), rows, cols)
        assert out.shape == ref.shape
        assert out.tobytes() == ref.tobytes()
        assert out.tobytes() == A[np.ix_(rows, rows if cols is None
                                         else cols)].tobytes()

    def test_out_of_bounds_column_raises(self):
        with pytest.raises(IndexError):
            solvers._gather(self.view(np.random.default_rng(0)), [0], [300])

    def test_peak_is_output_plus_two_row_tiles(self):
        A = self.view(np.random.default_rng(1), m=1000, pad=100)
        rows, cols = np.arange(0, 1000, 5), np.arange(0, 1000, 2)
        tracemalloc.start()
        try:
            out = solvers._gather(A, rows, cols)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + 2 * solvers._TILE * A.shape[1] * A.itemsize



def shell_sweep_problem(inner=10):
    """The Riesz form on a 60-point unit sphere around an inner shell of
    radius 0.3, and the potential there of a charge 0.8 at (2.5, 0, 0): the
    cone projection leaves the inner shell empty. The guide is the leading
    block of the factor of the whole cloud, charge included."""
    pts = np.vstack([geometry.sphere_shell(60, 1.0),
                     geometry.sphere_shell(inner, 0.3), [[2.5, 0.0, 0.0]]])
    K = assemble_riesz(PointSet.from_points(pts), 2.0)
    m = 60 + inner
    guide, _ = solvers._certify(K.entries, m)
    return K.block(range(m)), 0.8 * K.entries[:m, m], guide


class TestGuide:
    """A guide steers nonneg_qp's pivoting through the bordered system; the
    result, its record and the slot are those of a solve without it."""

    def test_only_the_final_free_set_is_factored(self, factored):
        A, b, guide = shell_sweep_problem()
        del factored[:]
        x_ref, rec_ref = nonneg_qp(A, b)
        assert factored == [70, 60] and rec_ref.iterations == 2
        del factored[:]
        slot = FactorSlot(guide)
        x, rec = nonneg_qp(A, b, slot=slot)
        assert factored == [60]
        assert same_bytes(x, rec, x_ref, rec_ref)
        assert np.count_nonzero(slot.free) == 60
        # the slot holds the final free set's own factor
        F = np.flatnonzero(slot.free)
        fresh = solvers._cholesky(A[np.ix_(F, F)])
        assert slot.factor[0].tobytes() == fresh[0].tobytes()
        assert np.allclose(x, nnls_oracle(A, b), rtol=0, atol=1e-12)

    def test_final_free_set_is_factored_with_no_bordered_columns(
            self, monkeypatch):
        # the guide solves the 60-point free set on 10 bordered columns and
        # finds it final; the bordered system, and with it its columns, is
        # gone before the set's block is factored, and so is the slot's guide
        A, b, guide = shell_sweep_problem()
        x_ref, rec_ref = nonneg_qp(A, b)
        bordered, live, columns = [], [], []
        slot = FactorSlot(guide)

        class Recorded(solvers._Bordered):
            def __init__(self, *args):
                super().__init__(*args)
                bordered.append(weakref.ref(self))

            def solve(self, free):
                x = super().solve(free)
                columns.append(len(self.columns))
                return x

        def solve_free(*args, **kwargs):
            live.append((sum(len(s.columns) for ref in bordered
                             if (s := ref()) is not None), slot.guide))
            return real(*args, **kwargs)

        real = solvers._solve_free
        monkeypatch.setattr(solvers, "_Bordered", Recorded)
        monkeypatch.setattr(solvers, "_solve_free", solve_free)
        x, rec = nonneg_qp(A, b, slot=slot)
        assert len(bordered) == 1 and columns == [0, 10]
        assert live == [(0, None)]
        assert bordered[0]() is None
        assert same_bytes(x, rec, x_ref, rec_ref)
        assert np.count_nonzero(slot.free) == 60 and slot.factor is not None

    def test_released_slot_solves_as_a_slot_without_guide(self, factored):
        # a second solve on the released slot starts from its final free set
        # and factor, exactly as on a slot that never held a guide
        A, b, guide = shell_sweep_problem()
        guided, plain = FactorSlot(guide), FactorSlot()
        nonneg_qp(A, b, slot=guided)
        nonneg_qp(A, b, slot=plain)
        assert guided.guide is None
        for scale in (0.5, 2.0):
            del factored[:]
            x, rec = nonneg_qp(A, scale * b, slot=guided)
            assert factored == []
            assert same_bytes(x, rec, *nonneg_qp(A, scale * b, slot=plain))

    def test_free_sets_missing_many_indices_are_factored(self, factored):
        # an inner shell of 30 of 90 points is more than GUIDE_SHARE of the
        # indices, so its free set is factored afresh; the guide still
        # solves the full set, and the slot no longer holds it after the
        # solve, though no free set was final on it
        A, b, guide = shell_sweep_problem(inner=30)
        del factored[:]
        x_ref, rec_ref = nonneg_qp(A, b)
        cold = list(factored)
        del factored[:]
        slot = FactorSlot(guide)
        x, rec = nonneg_qp(A, b, slot=slot)
        assert factored == cold[1:]
        assert same_bytes(x, rec, x_ref, rec_ref)
        assert slot.guide is None

    def test_gram_that_does_not_factor_falls_back_to_a_fresh_factor(
            self, factored):
        # a guide scaled past the float range underflows V'V to zero
        A, b, _ = shell_sweep_problem()
        del factored[:]
        x_ref, rec_ref = nonneg_qp(A, b)
        cold = list(factored)
        del factored[:]
        huge = (1e200 * np.eye(A.shape[0]), True)
        x, rec = nonneg_qp(A, b, slot=FactorSlot(huge))
        assert factored == cold
        assert same_bytes(x, rec, x_ref, rec_ref)

    def test_simplex_does_not_read_the_guide(self, factored):
        A, b, guide = shell_sweep_problem()
        del factored[:]
        x_ref, rec_ref = simplex_qp(A, b)
        cold = list(factored)
        del factored[:]
        x, rec = simplex_qp(A, b, slot=FactorSlot(guide))
        assert factored == cold
        assert same_bytes(x, rec, x_ref, rec_ref)


@given(m=st.integers(2, 80), seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_guide_gives_identical_cone_projections(m, seed):
    # the target is the potential of five charges at further points, and
    # the guide is the leading block of the whole cloud's factor; on about
    # half of the clouds the projection leaves points empty, so the guide
    # solves the free sets before the last
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 4))
    alpha = float(rng.uniform(0.3, min(2.0, dim - 0.2)))
    K = assemble_riesz(PointSet.from_points(rng.normal(size=(m + 5, dim))), alpha)
    A = K.block(range(m))
    b = K.block(range(m), range(m, m + 5)) @ rng.uniform(0.1, 1.0, 5)
    guide, _ = solvers._certify(K.entries, m)
    x, rec = nonneg_qp(A, b, slot=FactorSlot(guide))
    x_ref, rec_ref = nonneg_qp(A, b)
    assert same_bytes(x, rec, x_ref, rec_ref)
    scale = max(1.0, float(np.max(np.abs(x_ref))))
    assert np.max(np.abs(x - nnls_oracle(A, b))) <= 1e-8 * scale
