"""Block-principal-pivoting solvers against the active-set reference.

`reference_active_set` holds the one-index-per-iteration solvers the
pivoting core replaced. Both must reach the same minimizer; the pivoting
core must also obey its exchange rule and stay within a few pivots on the
ball-and-collar instances of check 8.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_solve

import greenpot.balayage
import greenpot.gauss
from greenpot import geometry, solvers
from greenpot.core import DiscreteMeasure, DomainConfig, PointSet, SolverError
from greenpot.gauss import external_field, solve_gauss
from greenpot.green import build_green
from greenpot.riesz import assemble_riesz
from greenpot.solvers import nonneg_qp, simplex_qp

import reference_active_set as reference

PROBLEMS = {
    "nonneg": (nonneg_qp, reference.nonneg_qp, lambda A, b, x: 0.5 * x @ A @ x - b @ x),
    "simplex": (simplex_qp, reference.simplex_qp, lambda A, b, x: x @ A @ x - 2 * b @ x),
}


def random_spd(rng, m):
    M = rng.normal(size=(m, m))
    return M @ M.T + (0.5 + m) * np.eye(m), rng.normal(scale=3.0, size=m)


def riesz_instance(rng, m):
    """Riesz kernel on m random points; the target is the potential of five
    positive charges at further points, or a mixed-sign vector."""
    dim = int(rng.integers(2, 4))
    alpha = float(rng.uniform(0.3, min(2.0, dim - 0.2)))
    K = assemble_riesz(PointSet.from_points(rng.normal(size=(m + 5, dim))), alpha).entries
    if rng.random() < 0.5:
        return K[:m, :m], K[:m, m:] @ rng.uniform(0.1, 1.0, 5)
    return K[:m, :m], rng.normal(size=m) * np.max(K)


@pytest.mark.parametrize("problem", sorted(PROBLEMS))
@pytest.mark.parametrize("make", [random_spd, riesz_instance], ids=["spd", "riesz"])
@given(m=st.integers(2, 60), seed=st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_matches_active_set_reference(problem, make, m, seed):
    solve, solve_ref, objective = PROBLEMS[problem]
    A, b = make(np.random.default_rng(seed), m)
    x, rec = solve(A, b)
    x_ref, _ = solve_ref(A, b)
    obj, obj_ref = objective(A, b, x), objective(A, b, x_ref)
    assert abs(obj - obj_ref) <= 1e-12 * max(1.0, abs(obj_ref))
    assert np.max(np.abs(x - x_ref)) <= 1e-9


@pytest.mark.parametrize("make", [random_spd, riesz_instance], ids=["spd", "riesz"])
@given(m=st.integers(2, 60), seed=st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_gap_bound_covers_distance_to_reference(make, m, seed):
    # |z - x*|_G^2 <= g.z - min g for every z on the simplex, g = G z - b;
    # x_ref stands in for x*. The slack covers the rounding of g in both
    # terms of the gap: m products of entries up to max|G| plus max|b|.
    rng = np.random.default_rng(seed)
    G, b = make(rng, m)
    x, rec = simplex_qp(G, b)
    x_ref, _ = reference.simplex_qp(G, b)
    slack = 4 * m * np.finfo(float).eps * (np.max(np.abs(G)) + np.max(np.abs(b)))
    d = x - x_ref
    assert rec.gap_bound >= 0.0
    assert rec.gap_bound + slack >= d @ G @ d
    # a point off the minimizer, where both sides are far above rounding
    z = 0.5 * x_ref + 0.5 * rng.dirichlet(np.ones(m))
    gap = solvers._kkt_record(G, b, z, 0.0, 0, 0.0, simplex=True).gap_bound
    d = z - x_ref
    assert gap + slack >= d @ G @ d


def warm_start(rng, m, support, kind):
    """A factor slot holding a first free set of the given kind against the
    cold support, and no factor."""
    others = np.setdiff1d(np.arange(m), support)
    if kind == "empty":
        start = np.zeros(0, dtype=int)
    elif kind == "single":
        start = np.array([rng.integers(m)])
    elif kind == "missing":
        # a nonempty start that leaves out at least one support index
        if support.size == 1:
            start = rng.choice(others, 1)
        else:
            start = rng.choice(support, int(rng.integers(1, support.size)),
                               replace=False)
    else:
        extra = rng.choice(others, int(rng.integers(0, others.size + 1)),
                           replace=False)
        start = np.union1d(support, extra)
    return held_slot(m, start)


def held_slot(m, start):
    """A factor slot whose free set holds the positions in start."""
    slot = solvers.FactorSlot()
    slot.free = np.zeros(m, dtype=bool)
    slot.free[start] = True
    return slot


@pytest.mark.parametrize("kind", ["empty", "single", "missing", "superset"])
@pytest.mark.parametrize("make", [random_spd, riesz_instance], ids=["spd", "riesz"])
@given(m=st.integers(2, 60), seed=st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_start_reaches_the_cold_minimizer(kind, make, m, seed):
    rng = np.random.default_rng(seed)
    G, b = make(rng, m)
    x_cold, rec_cold = simplex_qp(G, b)
    slot = warm_start(rng, m, np.flatnonzero(x_cold), kind)
    x, rec = simplex_qp(G, b, slot=slot)
    x_ref, _ = reference.simplex_qp(G, b)
    objective = PROBLEMS["simplex"][2]
    obj, obj_ref = objective(G, b, x), objective(G, b, x_ref)
    assert abs(obj - obj_ref) <= 1e-12 * max(1.0, abs(obj_ref))
    assert np.max(np.abs(x - x_ref)) <= 1e-9
    assert replace(rec, iterations=rec_cold.iterations) == rec_cold
    if kind == "empty":
        # an empty held set is no start: the solve starts from every index
        assert rec.iterations == rec_cold.iterations


def test_start_missing_a_support_index(monkeypatch):
    # G = diag(1, 2, 4), b = 0: x is proportional to (4, 2, 1), and G x
    # equals c = 4/7 everywhere. From {0} alone the fixed indices have
    # reduced gradient -1 and -1, so the second free set takes every index
    # and reads the solve handed in.
    G = np.diag([1.0, 2.0, 4.0])
    factors = []
    real = solvers._solve_free

    def spy(A, b, free, simplex, factor=None, uv=None):
        factors.append((free.copy(), uv is not None))
        return real(A, b, free, simplex, factor, uv)

    monkeypatch.setattr(solvers, "_solve_free", spy)
    rhs = np.column_stack((np.zeros(3), np.ones(3)))
    x, rec = simplex_qp(G, slot=held_slot(3, [0]),
                        solve=cho_solve(solvers._cholesky(G), rhs))
    assert [(list(free), kept) for free, kept in factors] == [
        ([True, False, False], False), ([True, True, True], True)]
    assert rec.iterations == 2
    assert x == pytest.approx(np.array([4.0, 2.0, 1.0]) / 7.0, abs=1e-15)
    assert rec.multiplier == pytest.approx(4.0 / 7.0, abs=1e-15)
    x_cold, rec_cold = simplex_qp(G)
    assert x.tobytes() == x_cold.tobytes()
    assert replace(rec, iterations=1) == rec_cold


def test_solve_of_the_wrong_shape_rejected():
    with pytest.raises(SolverError, match="solve shape"):
        simplex_qp(np.eye(3), solve=np.ones((3, 1)))


def record_pivots(monkeypatch):
    """Log (free set, weights, multiplier) of every subproblem solved."""
    log = []
    real = solvers._solve_free

    def spy(A, b, free, simplex, factor=None, uv=None):
        out = real(A, b, free, simplex, factor, uv)
        log.append((free.copy(), out[0], out[1]))
        return out

    monkeypatch.setattr(solvers, "_solve_free", spy)
    return log


def exchanges(log, A, b, tol):
    """Per pivot: the infeasible set of the solve before it and the indices flipped."""
    out = []
    for k in range(len(log) - 1):
        free, x, c = log[k]
        infeasible = (free & (x < 0.0)) | (~free & (A @ x - b - c < -tol))
        out.append((np.flatnonzero(infeasible), np.flatnonzero(free ^ log[k + 1][0])))
    return out


def ill_conditioned(seed, m=8):
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.normal(size=(m, m)))
    A = (Q * 10 ** rng.uniform(-4, 0, m)) @ Q.T
    return (A + A.T) / 2, rng.normal(size=m)


@pytest.mark.parametrize("problem,seed", [("nonneg", 87), ("simplex", 620)])
def test_backup_rule_instance(monkeypatch, problem, seed):
    # found by search over condition-1e4 instances: the infeasible count
    # stalls, so the single-index backup step has to run
    solve, solve_ref, objective = PROBLEMS[problem]
    A, b = ill_conditioned(seed)
    log = record_pivots(monkeypatch)
    x, rec = solve(A, b)
    steps = exchanges(log, A, b, rec.tolerance)
    assert rec.iterations == len(log) == len(steps) + 1
    for infeasible, flipped in steps:
        assert (np.array_equal(flipped, infeasible)
                or np.array_equal(flipped, infeasible[-1:]))
    assert any(infeasible.size > 1 and flipped.size == 1
               for infeasible, flipped in steps)

    assert np.all(x >= 0)
    g = A @ x - b - rec.multiplier
    slack = 10 * rec.tolerance
    assert np.all(np.abs(g[x > 0]) <= slack)
    assert np.all(g[x == 0] >= -slack)
    assert rec.support_residual <= slack and rec.off_support_slack <= slack
    if problem == "simplex":
        assert rec.mass_error <= 1e-12
    x_ref, _ = solve_ref(A, b)
    assert objective(A, b, x) <= objective(A, b, x_ref) + 1e-12


def test_pivot_bound_on_ball_and_collar(monkeypatch):
    # check 8's layered ball at 3/10 of its layer counts plus the collar
    # shell, charge 0.5 at (0, 0, 1.8): about 20 of 478 ball points leave
    # the support, which took 458 one-index steps in the sweep
    counts = [round(0.3 * c) for c in (750, 330, 230, 160, 90, 30)]
    ball = geometry.layered_ball((0.985, 0.925, 0.84, 0.725, 0.555, 0.325), counts)
    collar = geometry.sphere_shell(counts[0], 1.053)
    pts = np.vstack([ball, collar, [[0.0, 0.0, 1.8]]])
    n = len(pts)
    cfg = DomainConfig(PointSet.from_points(pts), list(range(n)), [],
                       list(range(len(ball))), 2.0)
    records = []

    def spy(solve):
        def wrapped(*args, **kwargs):
            x, rec = solve(*args, **kwargs)
            records.append((solve.__name__, rec.iterations))
            return x, rec
        return wrapped

    monkeypatch.setattr(greenpot.balayage, "nonneg_qp", spy(nonneg_qp))
    monkeypatch.setattr(greenpot.gauss, "simplex_qp", spy(simplex_qp))
    gs = build_green(cfg)
    fld = external_field(gs, DiscreteMeasure.from_dict(n, {n - 1: 0.5}))
    sol = solve_gauss(fld)
    assert [name for name, _ in records] == ["nonneg_qp", "simplex_qp"]
    assert all(1 < iters <= 10 for _, iters in records)
    assert sol.kkt.support_residual <= 10 * sol.kkt.tolerance
