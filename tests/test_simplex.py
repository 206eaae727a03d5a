import itertools
import os
import subprocess
import sys
import types

import numpy as np
import pytest
from scipy.optimize import linprog

from omcontrol import (Box, CandidateSpec, DiscreteControlProblem, GridSpec, MonomialBasis,
                       assemble, builtin_problem, model, silp, simplex, solve, solve_refined)
from omcontrol.errors import LpInfeasible, LpUnbounded, SolverError, SolverStalled
from omcontrol.simplex import solve_equality_lp


class TestSmallFixtures:
    def test_textbook_lp(self):
        # min -3x - 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 (slack form)
        A = np.array([
            [1.0, 0.0, 1.0, 0.0, 0.0],
            [0.0, 2.0, 0.0, 1.0, 0.0],
            [3.0, 2.0, 0.0, 0.0, 1.0],
        ])
        b = np.array([4.0, 12.0, 18.0])
        c = np.array([-3.0, -5.0, 0.0, 0.0, 0.0])
        res = solve_equality_lp(A, b, c)
        assert res.value == pytest.approx(-36.0, abs=1e-9)
        np.testing.assert_allclose(res.x[:2], [2.0, 6.0], atol=1e-9)

    def test_single_column(self):
        res = solve_equality_lp(np.array([[2.0]]), np.array([3.0]), np.array([5.0]))
        assert res.x[0] == pytest.approx(1.5)
        assert res.value == pytest.approx(7.5)

    def test_duals_satisfy_complementary_slackness(self):
        rng = np.random.default_rng(7)
        A = rng.normal(size=(4, 12))
        x0 = np.abs(rng.normal(size=12))
        b = A @ x0
        c = np.abs(rng.normal(size=12)) + 0.1  # positive costs keep the LP bounded
        res = solve_equality_lp(A, b, c)
        rc = c - res.duals @ A
        assert rc.min() >= -1e-9                      # dual feasibility
        np.testing.assert_allclose(rc[res.x > 1e-12], 0.0, atol=1e-9)
        assert res.value == pytest.approx(res.duals @ b, abs=1e-9)  # strong duality

    def test_infeasible(self):
        A = np.array([[1.0, 1.0], [1.0, 1.0]])
        b = np.array([1.0, 2.0])
        with pytest.raises(LpInfeasible):
            solve_equality_lp(A, b, np.zeros(2))

    def test_unbounded(self):
        # x1 - x2 = 1 with cost -x1: push x1 along the ray x1 = x2 + 1
        A = np.array([[1.0, -1.0]])
        b = np.array([1.0])
        with pytest.raises(LpUnbounded):
            solve_equality_lp(A, b, np.array([-1.0, 0.0]))

    def test_redundant_row_dropped(self):
        A = np.array([[1.0, 1.0], [2.0, 2.0]])
        b = np.array([1.0, 2.0])
        c = np.array([1.0, 3.0])
        res = solve_equality_lp(A, b, c)
        assert res.value == pytest.approx(1.0)

    def test_negative_rhs_rows(self):
        A = np.array([[-1.0, 0.0], [0.0, 1.0]])
        b = np.array([-2.0, 1.0])
        c = np.array([1.0, 1.0])
        res = solve_equality_lp(A, b, c)
        np.testing.assert_allclose(res.x, [2.0, 1.0], atol=1e-10)
        # dual reported for the original (unflipped) rows
        rc = c - res.duals @ A
        assert rc.min() >= -1e-9

    def test_degenerate_lp_terminates(self):
        # many ties in the ratio test
        A = np.hstack([np.ones((3, 1)), np.eye(3)])
        b = np.array([1.0, 1.0, 1.0])
        c = np.array([-1.0, 0.0, 0.0, 0.0])
        res = solve_equality_lp(A, b, c)
        assert res.value == pytest.approx(-1.0)

    def test_pivot_budget_exhaustion(self):
        from omcontrol.errors import SolverStalled
        A = np.hstack([np.ones((3, 1)), np.eye(3)])
        b = np.array([1.0, 1.0, 1.0])
        c = np.array([-1.0, 0.0, 0.0, 0.0])
        with pytest.raises(SolverStalled):
            solve_equality_lp(A, b, c, max_pivots=0)


def seed_cases(seeds):
    """(seed, wide) cases: the drawn LP under the bare seed id, and under
    "<seed>-sift" the same LP widened by ``widened``, so that sifting has to
    grow its working set over several passes."""
    return ([pytest.param(s, False, id=str(s)) for s in seeds]
            + [pytest.param(s, True, id=f"{s}-sift") for s in seeds])


def widened(A, c, rng, copies=8):
    """The LP with ``copies`` * n random convex combinations of column pairs
    appended, costs combined alike: in exact arithmetic the same optimal
    value (and the same unboundedness), with a much larger optimal face."""
    n = A.shape[1]
    i, j = rng.integers(0, n, size=(2, copies * n))
    w = rng.uniform(0.0, 1.0, size=copies * n)
    return (np.hstack([A, w * A[:, i] + (1 - w) * A[:, j]]),
            np.concatenate([c, w * c[i] + (1 - w) * c[j]]))


def feasible_lp(seed):
    """A drawn feasible LP (A, b, c) and the generator it was drawn from."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 8))
    n = int(rng.integers(m + 1, 40))
    A = rng.normal(size=(m, n))
    b = A @ np.abs(rng.normal(size=n))
    return A, b, rng.normal(size=n), rng


def normalized_lp(seed):
    """The shape used by the measure LPs: zero rows plus a sum-to-one row."""
    rng = np.random.default_rng(100 + seed)
    m, n = 6, 60
    A = np.vstack([rng.normal(size=(m - 1, n)), np.ones(n)])
    b = np.zeros(m)
    b[-1] = 1.0
    return A, b, rng.normal(size=n), rng


class TestAgainstScipy:
    @pytest.mark.parametrize("seed, wide", seed_cases(range(25)))
    def test_random_feasible_instances(self, seed, wide):
        A, b, c, rng = feasible_lp(seed)
        ref = linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
        if wide:
            A, c = widened(A, c, rng)
        try:
            mine = solve_equality_lp(A, b, c)
        except LpUnbounded:
            assert ref.status == 3
            return
        assert ref.status == 0
        assert mine.value == pytest.approx(ref.fun, rel=1e-7, abs=1e-7)
        np.testing.assert_allclose(A @ mine.x, b, atol=1e-8)
        assert mine.x.min() >= -1e-12

    @pytest.mark.parametrize("seed, wide", seed_cases(range(10)))
    def test_random_normalized_instances(self, seed, wide):
        A, b, c, rng = normalized_lp(seed)
        ref = linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
        if wide:
            A, c = widened(A, c, rng)
        try:
            mine = solve_equality_lp(A, b, c)
        except LpInfeasible:
            assert ref.status == 2
            return
        assert ref.status == 0
        assert mine.value == pytest.approx(ref.fun, rel=1e-7, abs=1e-7)
        assert mine.x.sum() == pytest.approx(1.0, abs=1e-9)


class TestSifting:
    @pytest.mark.parametrize("seed", range(3))
    def test_wide_lp_matches_full_pricing(self, seed):
        # far more columns than rows, the shape sifting is for: several
        # working-set passes before full pricing finds no negative reduced cost
        rng = np.random.default_rng(200 + seed)
        m, n = 6, 5_000
        A = np.vstack([rng.normal(size=(m - 1, n)), np.ones(n)])
        b = A @ rng.dirichlet(np.ones(n))
        c = rng.normal(size=n)
        sifted = solve_equality_lp(A, b, c)
        ref = linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
        assert ref.status == 0
        assert sifted.value == pytest.approx(ref.fun, rel=1e-7, abs=1e-7)
        assert (c - sifted.duals @ A).min() >= -1e-9  # dual feasible on every column
        np.testing.assert_allclose(A @ sifted.x, b, atol=1e-8)
        assert sifted.x.min() >= 0.0

    def test_working_set_columns_are_not_priced_again(self, monkeypatch):
        # Once the working set is optimal, only the columns outside it are
        # priced again.  Working-set column j gets the cost at which it reads
        # just above -pivot_tol in the working set's products y @ A[:, work],
        # for the duals of the basis inverse and for those solved afresh, but
        # below it in the full product y @ A.  Were it priced again, it would
        # enter a working set that already holds it, and sifting would
        # restart the optimal working set forever.
        rng = np.random.default_rng(400)
        m, n, tol = 20, 2_000, 1e-9
        A = np.vstack([np.abs(rng.normal(size=(m - 1, n))), np.ones(n)])
        b = A @ rng.dirichlet(np.ones(n))
        c = rng.normal(size=n)
        basis = solve_equality_lp(A, b, c).basis
        work = np.union1d(basis, np.linspace(0, n - 1, min(n, simplex._SIFT_WIDTH * m),
                                             dtype=np.int64))
        B = A[:, basis]
        ys = [np.linalg.solve(B.T, c[basis]), c[basis] @ np.linalg.inv(B)]
        in_work = np.max([y @ A[:, work] for y in ys], axis=0)
        full = ys[0] @ A
        k = next(k for k, j in enumerate(work) if j not in basis and full[j] > in_work[k])
        j = work[k]
        c[j] = in_work[k] - tol
        while c[j] - in_work[k] < -tol:
            c[j] = np.nextafter(c[j], np.inf)
        assert c[j] - full[j] < -tol  # the full product reads it as entering

        iterate, idle = simplex._iterate, []

        def guarded(*args):
            out = iterate(*args)
            idle.append(out[2] == args[-1])  # this call made no pivot
            if sum(idle[-3:]) == 3:
                raise AssertionError("three optimal working-set restarts in a row")
            return out

        monkeypatch.setattr(simplex, "_iterate", guarded)
        _, _, final, pivots = simplex._sift(A, b, c, basis.copy(), work, n, tol, 1_000, 0)
        assert pivots == 0
        np.testing.assert_array_equal(final, basis)


class TestBasisInverse:
    @pytest.mark.parametrize("seed", range(3))
    def test_long_solves_across_refactorizations(self, monkeypatch, seed):
        # more than 2m pivots, and at least two refactorizations beyond the
        # factorization each _iterate call starts from
        rng = np.random.default_rng(500 + seed)
        m, n = 24, 400
        A = np.vstack([rng.normal(size=(m - 1, n)), np.ones(n)])
        b = A @ rng.dirichlet(np.ones(n))
        c = rng.normal(size=n)
        calls = {"_iterate": 0, "_inverse": 0}

        def counted(name):
            original = getattr(simplex, name)

            def spy(*args):
                calls[name] += 1
                return original(*args)
            return spy

        for name in calls:
            monkeypatch.setattr(simplex, name, counted(name))
        res = solve_equality_lp(A, b, c)
        assert res.pivots > 2 * m
        assert calls["_inverse"] - calls["_iterate"] >= 2  # beyond one factorization per call
        ref = linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
        assert ref.status == 0
        assert res.value == pytest.approx(ref.fun, abs=1e-9)
        assert (c - res.duals @ A).min() >= -1e-9
        np.testing.assert_allclose(A @ res.x, b, atol=1e-8)

    @pytest.mark.parametrize("seed", range(3))
    def test_duals_are_solved_from_the_final_basis(self, seed):
        # optimality is confirmed on duals solved afresh, never on updated ones
        rng = np.random.default_rng(600 + seed)
        m, n = 20, 300
        A = np.vstack([np.abs(rng.normal(size=(m - 1, n))), np.ones(n)])
        b = A @ rng.dirichlet(np.ones(n))
        c = rng.normal(size=n)
        assert b.min() >= 0.0
        res = solve_equality_lp(A, b, c)
        expected = np.linalg.solve(A[:, res.basis].T, c[res.basis])
        assert res.duals.tobytes() == expected.tobytes()


def same_result(a, b):
    """Bitwise equality of two LpResults."""
    return (a.x.tobytes() == b.x.tobytes() and a.duals.tobytes() == b.duals.tobytes()
            and a.value == b.value and a.basis.tobytes() == b.basis.tobytes()
            and a.pivots == b.pivots and a.warm == b.warm)


class TestWarmStart:
    @pytest.mark.parametrize("seed", range(3))
    def test_appended_columns_resume_from_previous_basis(self, seed):
        # column generation's pattern: solve, append columns, re-solve from the old basis
        rng = np.random.default_rng(300 + seed)
        m, n, extra = 6, 40, 30
        A = np.vstack([rng.normal(size=(m - 1, n + extra)), np.ones(n + extra)])
        b = A[:, :n] @ rng.dirichlet(np.ones(n))
        c = rng.normal(size=n + extra)
        first = solve_equality_lp(A[:, :n], b, c[:n])
        warm = solve_equality_lp(A, b, c, start=first.basis)
        cold = solve_equality_lp(A, b, c)
        ref = linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
        assert warm.warm and not cold.warm
        assert ref.status == 0
        assert warm.value == pytest.approx(cold.value, abs=1e-9)
        assert warm.value == pytest.approx(ref.fun, abs=1e-9)
        assert (c - warm.duals @ A).min() >= -1e-9
        np.testing.assert_allclose(A @ warm.x, b, atol=1e-8)
        assert warm.pivots < cold.pivots

    def test_sifted_phase_two_resumes_too(self):
        rng = np.random.default_rng(310)
        m, n = 6, 3_000
        A = np.vstack([rng.normal(size=(m - 1, n)), np.ones(n)])
        b = A[:, :100] @ rng.dirichlet(np.ones(100))
        c = rng.normal(size=n)
        first = solve_equality_lp(A[:, :100], b, c[:100])
        warm = solve_equality_lp(A, b, c, start=first.basis)
        ref = linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
        assert warm.warm and ref.status == 0
        assert warm.value == pytest.approx(ref.fun, abs=1e-9)
        assert (c - warm.duals @ A).min() >= -1e-9

    def lp(self):
        # column 1 is zero, so any basis holding it is singular
        rng = np.random.default_rng(320)
        A = np.vstack([rng.normal(size=(3, 12)), np.ones(12)])
        A[:, 1] = 0.0
        b = A @ rng.dirichlet(np.ones(12))
        c = rng.normal(size=12)
        c[1] = abs(c[1])
        return A, b, c

    def infeasible_basis(self, A, b):
        for cols in map(list, itertools.combinations(range(2, 12), 4)):
            if np.linalg.solve(A[:, cols], b).min() < -1e-3:
                return cols
        raise AssertionError("no infeasible basis")

    @pytest.mark.parametrize("kind", ["singular", "repeated", "infeasible", "short",
                                      "out-of-range"])
    def test_unusable_start_falls_back_to_cold_solve(self, kind):
        A, b, c = self.lp()
        start = {"singular": [0, 1, 2, 3], "repeated": [2, 2, 3, 4],
                 "infeasible": self.infeasible_basis(A, b), "short": [2, 3, 4],
                 "out-of-range": [2, 3, 4, 12]}[kind]
        cold = solve_equality_lp(A, b, c)
        assert same_result(solve_equality_lp(A, b, c, start=start), cold)

    def test_basis_after_dropped_row_falls_back(self):
        # Phase I drops the redundant row, so the returned basis is one short
        A = np.array([[1.0, 1.0, 2.0], [2.0, 2.0, 4.0]])
        b = np.array([1.0, 2.0])
        c = np.array([1.0, 3.0, 1.0])
        first = solve_equality_lp(A, b, c)
        assert first.basis.size == 1
        again = solve_equality_lp(A, b, c, start=first.basis)
        assert same_result(again, first)


def kappa_lp(name, degree, grid):
    """The degree + 1 base LP of ``verify.estimate_kappa`` and the base grid's
    reduced costs under the degree-``degree`` certificate."""
    p = builtin_problem(name)
    b = MonomialBasis(p.state_dim, degree)
    spec = GridSpec(state=grid, control=grid)
    _, cert = solve(assemble(p, b, spec))
    lp = assemble(p, MonomialBasis(p.state_dim, degree + 1), spec)
    return lp, silp.reduced_costs(p, b, cert, lp.states, lp.controls)


class TestSeededSifting:
    @pytest.mark.parametrize("name, degree, grid", [
        ("shift", 3, (21,)),     # CLI defaults
        ("example1", 3, (7,)),
    ], ids=["shift", "example1"])
    @pytest.mark.parametrize("kind", ["none", "lowest", "highest", "single"])
    def test_value_does_not_depend_on_the_seed(self, name, degree, grid, kind):
        lp, rc = kappa_lp(name, degree, grid)
        order = np.argsort(rc, kind="stable")
        width = simplex._SIFT_WIDTH * lp.n_rows
        seed = {"none": None, "lowest": order[:width], "highest": order[-width:],
                "single": order[:1]}[kind]
        res = solve_equality_lp(lp.matrix, lp.rhs, lp.cost, seed=seed)
        ref = linprog(lp.cost, A_eq=lp.matrix, b_eq=lp.rhs, bounds=(0, None), method="highs")
        assert ref.status == 0
        assert res.value == pytest.approx(ref.fun, abs=1e-9)
        np.testing.assert_allclose(lp.matrix @ res.x, lp.rhs, atol=1e-8)
        assert res.x.min() >= 0.0

    def test_only_the_first_columns_of_the_seed_are_read(self):
        # the seed is an order of preference: the full order and its first
        # _SIFT_WIDTH columns per row give the same pivots and bytes
        lp, rc = kappa_lp("example1", 7, (9,))
        order = np.argsort(rc, kind="stable")
        width = simplex._SIFT_WIDTH * lp.n_rows
        assert order.size > width
        full = solve_equality_lp(lp.matrix, lp.rhs, lp.cost, seed=order)
        assert full.pivots > 0
        assert same_result(full, solve_equality_lp(lp.matrix, lp.rhs, lp.cost,
                                                   seed=order[:width].copy()))

    @pytest.mark.xfail(strict=True, raises=SolverStalled,
                       reason="the seeded Phase I stalls on this kappa LP (ROADMAP item 1)")
    def test_refined_certificate_seed_matches_highs(self):
        # example1 at y0 = (0, 0), refined at degree 7 with the workload's grids
        # (23 rounds), seeds the degree-8 kappa LP as verify.estimate_kappa does
        p = builtin_problem("example1", y0=(0.0, 0.0))
        b = MonomialBasis(2, 7)
        grid = GridSpec(state=(9, 9), control=(9, 9))
        _, cert, rounds = solve_refined(p, b, grid, CandidateSpec(state=(33, 33), control=(9, 9)),
                                        tol=1e-6, max_rounds=80)
        assert rounds == 23
        lp = assemble(p, MonomialBasis(2, 8), grid)
        order = np.argsort(silp.reduced_costs(p, b, cert, lp.states, lp.controls), kind="stable")
        ref = linprog(lp.cost, A_eq=lp.matrix, b_eq=lp.rhs, bounds=(0, None), method="highs")
        assert ref.fun == pytest.approx(-0.857546259, abs=1e-9)
        unseeded = solve_equality_lp(lp.matrix, lp.rhs, lp.cost)  # 2,316 pivots
        assert unseeded.value == pytest.approx(ref.fun, abs=1e-9)
        res = solve_equality_lp(lp.matrix, lp.rhs, lp.cost, seed=order, max_pivots=20_000)
        assert res.value == pytest.approx(ref.fun, abs=1e-9)

    def test_phase_one_grows_an_infeasible_seed(self):
        # every seeded column has a zero first row while b's is positive, so Phase I
        # must bring in columns from outside the seed to reach feasibility
        rng = np.random.default_rng(700)
        m, n = 6, 2_000
        A = np.vstack([rng.normal(size=(m - 1, n)), np.ones(n)])
        seed = np.arange(0, n, 2)
        A[0, seed] = 0.0
        A[0, 1::2] = np.abs(A[0, 1::2])
        b = A @ rng.dirichlet(np.ones(n))
        c = rng.normal(size=n)
        assert linprog(c[seed], A_eq=A[:, seed], b_eq=b, bounds=(0, None),
                       method="highs").status == 2
        res = solve_equality_lp(A, b, c, seed=seed)
        ref = linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
        assert ref.status == 0
        assert res.value == pytest.approx(ref.fun, abs=1e-9)
        np.testing.assert_allclose(A @ res.x, b, atol=1e-8)
        assert res.x.min() >= 0.0

    @pytest.mark.parametrize("seed", [None, [0], [3, 7, 11], range(0, 400, 2)])
    def test_infeasible_lp_raises_under_every_seed(self, seed):
        # nonnegative rows summing to 1 cannot reach a first row of -1
        rng = np.random.default_rng(710)
        m, n = 5, 400
        A = np.vstack([np.abs(rng.normal(size=(m - 1, n))), np.ones(n)])
        b = np.concatenate([[-1.0], np.full(m - 2, 0.5), [1.0]])
        with pytest.raises(LpInfeasible):
            solve_equality_lp(A, b, rng.normal(size=n), seed=seed)

    @pytest.mark.parametrize("seed", [[-1], [2]])
    def test_out_of_range_seed_is_rejected(self, seed):
        with pytest.raises(ValueError):
            solve_equality_lp(np.ones((1, 2)), np.ones(1), np.ones(2), seed=seed)


def full_pricing_phase_one(A, b, seed, pivot_tol, max_pivots):
    """Reference Phase I: one ``_iterate`` call priced in full over [A | I]."""
    assert seed is None
    m, n = A.shape
    A1 = np.hstack([A, np.eye(m)])
    c1 = np.concatenate([np.zeros(n), np.ones(m)])
    basis = np.arange(n, n + m)
    xB, _, pivots = simplex._iterate(A1, b, c1, basis, n, pivot_tol, max_pivots, 0)
    infeas = float(c1[basis] @ xB)
    if infeas > 1e-8 * (1.0 + float(np.abs(b).sum())):
        raise LpInfeasible(f"phase-I residual {infeas:.3e}")
    keep_rows = np.ones(m, dtype=bool)
    for k in range(m):
        if basis[k] < n:
            continue
        u = np.linalg.solve(A1[:, basis].T, np.eye(m)[:, k])
        candidates = np.nonzero(np.abs(u @ A) > pivot_tol)[0]
        candidates = candidates[~np.isin(candidates, basis)]
        if candidates.size:
            basis[k] = int(candidates[0])
        else:
            keep_rows[k] = False
    return basis[keep_rows], np.nonzero(keep_rows)[0], pivots


def drawn_lp(seed):
    rng = np.random.default_rng(800 + seed)
    m, n = 8, 600
    A = np.vstack([rng.normal(size=(m - 1, n)), np.ones(n)])
    A[1] = 2.0 * A[0]  # a redundant row for Phase I to drop
    b = A @ rng.dirichlet(np.ones(n))
    b[0] = -abs(b[0])  # a flipped row
    b[1] = 2.0 * b[0]
    return A, b, rng.normal(size=n)


def example1_base_lp(room=0):
    p = builtin_problem("example1")
    return assemble(p, MonomialBasis(p.state_dim, 7), GridSpec(state=(9,), control=(9,)), room)


# The sifting loop as it was before its pricing buffer and its partition-based choice of
# entering columns: a fresh reduced-cost array per pass and a stable argsort of the negative
# ones.  Its globals are the simplex module's, as for ``_reference_iterate`` below.
def _reference_sift(A, b, c, basis, work, n_enterable, pivot_tol, max_pivots, pivots_done):
    width = _SIFT_WIDTH * A.shape[0]
    while True:
        local = np.searchsorted(work, basis)
        xB, y, pivots_done = _iterate(A[:, work], b, c[work], local,
                                      int(np.searchsorted(work, n_enterable)),
                                      pivot_tol, max_pivots, pivots_done)
        basis = work[local]
        rc = c[:n_enterable] - y @ A[:, :n_enterable]
        rc[work[work < n_enterable]] = 0.0
        negative = np.nonzero(rc < -pivot_tol)[0]
        if negative.size == 0:
            return xB, y, basis, pivots_done
        entering = negative[np.argsort(rc[negative], kind="stable")[:width]]
        work = np.union1d(work, entering)


reference_sift = types.FunctionType(_reference_sift.__code__, vars(simplex), "reference_sift")


def tied_lp(seed, copies=25):
    """A wide LP whose columns each repeat ``copies`` times: every reduced cost ties."""
    rng = np.random.default_rng(900 + seed)
    m, n = 6, 200
    A = np.vstack([rng.integers(-3, 4, size=(m - 1, n)).astype(float), np.ones(n)])
    b = A @ rng.dirichlet(np.ones(n))
    c = rng.integers(-5, 6, size=n).astype(float)
    return np.repeat(A, copies, axis=1), b, np.repeat(c, copies)


class TestSiftPricing:
    """``_sift`` against its former loop: the same entering columns, so the same bytes."""

    @pytest.mark.parametrize("seed", range(10))
    def test_most_negative_is_the_stable_argsort_prefix(self, seed):
        rng = np.random.default_rng(1000 + seed)
        n, tol = int(rng.integers(1, 120)), 1e-9
        # a few distinct values, so ties straddle the width-th lowest; zeros, NaN and
        # values within the tolerance never enter
        rc = rng.integers(-12, 3, size=n).astype(float)
        rc[rng.random(n) < 0.1] = rng.choice([-1e-10, -0.0, np.nan])
        negative = np.nonzero(rc < -tol)[0]
        order = negative[np.argsort(rc[negative], kind="stable")]
        for width in range(1, negative.size + 3):
            got = simplex.lowest_below(rc, width, -tol)
            if negative.size == 0:
                assert got is None
            else:
                np.testing.assert_array_equal(np.sort(got), np.sort(order[:width]))
        # verify.estimate_kappa's seed: below +inf, the stable argsort prefix of the finite costs
        finite = np.nonzero(np.isfinite(rc))[0]
        order = finite[np.argsort(rc[finite], kind="stable")]
        for width in range(1, n + 2):
            got = simplex.lowest_below(rc, width, np.inf)
            if finite.size == 0:
                assert got is None
            else:
                np.testing.assert_array_equal(np.sort(got), np.sort(order[:width]))

    @pytest.mark.parametrize("case", ["tied-0", "tied-1", "tied-2", "wide-0", "wide-1",
                                      "kappa-shift", "kappa-example1", "example1"])
    def test_matches_the_argsort_loop_bitwise(self, monkeypatch, case):
        seed = None
        if case.startswith("tied"):
            A, b, c = tied_lp(int(case[-1]))
        elif case.startswith("wide"):
            A, b, c, rng = feasible_lp(int(case[-1]))
            A, c = widened(A, c, rng)
        elif case.startswith("kappa"):
            lp, rc = kappa_lp(case[6:], 3, (21,) if case == "kappa-shift" else (7,))
            A, b, c, seed = lp.matrix, lp.rhs, lp.cost, np.argsort(rc, kind="stable")
        else:
            lp = example1_base_lp()
            A, b, c = lp.matrix, lp.rhs, lp.cost
        sift, passes = simplex._sift, []

        def counted(*args):
            passes.append(args)
            return sift(*args)

        monkeypatch.setattr(simplex, "_sift", counted)
        try:
            res = solve_equality_lp(A, b, c, seed=seed)
        except LpUnbounded:
            res = LpUnbounded
        assert passes
        monkeypatch.setattr(simplex, "_sift", reference_sift)
        try:
            ref = solve_equality_lp(A, b, c, seed=seed)
        except LpUnbounded:
            ref = LpUnbounded
        assert res is ref if ref is LpUnbounded else same_result(res, ref)


class TestUnseededPhaseOne:
    @pytest.mark.parametrize("case", ["drawn-0", "drawn-1", "drawn-2", "example1"])
    def test_matches_full_pricing_bitwise(self, monkeypatch, case):
        if case == "example1":
            lp = example1_base_lp()
            A, b, c = lp.matrix, lp.rhs, lp.cost
        else:
            A, b, c = drawn_lp(int(case[-1]))
        res = solve_equality_lp(A, b, c)
        monkeypatch.setattr(simplex, "_phase_one", full_pricing_phase_one)
        assert same_result(res, solve_equality_lp(A, b, c))


# The pivot loop as it was before its buffers were allocated once per call,
# kept word for word but for one fix: its first pricing, whose progress
# threshold is NaN (inf - inf), counts as progress and not as a stall.  Its
# globals are the simplex module's, so it reads ``_inverse``, ``_entering``
# and ``_STALL_LIMIT`` there at call time, as ``simplex._iterate`` does,
# and a monkeypatch of one reaches both loops.
def _reference_iterate(A, b, c, basis, n_enterable, pivot_tol, max_pivots, pivots_done):
    """Run simplex pivots until optimality over the first n_enterable columns.

    The pivots read one explicit basis inverse, updated by the rank-one
    (eta) update of each pivot and refactorized every m pivots.  Optimality
    is only accepted after x_B and the duals are re-solved from the basis
    matrix itself and priced again, so the returned values do not depend on
    the update history.  ``basis`` is modified in place.  Returns (x_B,
    duals, pivots_done).
    """
    m = A.shape[0]
    use_bland = False
    stall = 0
    prev_obj = np.inf

    def price(y):
        rc = c[:n_enterable] - y @ A[:, :n_enterable]
        rc[basis[basis < n_enterable]] = 0.0  # basic columns never re-enter
        return rc

    inv = _inverse(A[:, basis])
    age = 0
    while True:
        xB = inv @ b
        y = c[basis] @ inv
        obj = float(c[basis] @ xB)
        if not obj >= prev_obj - _PROGRESS_TOL * (1.0 + abs(prev_obj)):
            stall = 0
            use_bland = False
        else:
            stall += 1
            if stall >= _STALL_LIMIT:
                use_bland = True
        prev_obj = obj

        j = _entering(price(y), use_bland, pivot_tol)
        if j is None:
            B = A[:, basis]
            try:
                xB = np.linalg.solve(B, b)
                y = np.linalg.solve(B.T, c[basis])
            except np.linalg.LinAlgError:
                raise SolverStalled("singular working basis") from None
            j = _entering(price(y), use_bland, pivot_tol)
            if j is None:
                return np.maximum(xB, 0.0), y, pivots_done
            inv, age = _inverse(B), 0

        d = inv @ A[:, j]
        pos = d > pivot_tol
        if not pos.any():
            raise LpUnbounded("no blocking row for the entering column")
        ratios = np.full(m, np.inf)
        ratios[pos] = np.maximum(xB[pos], 0.0) / d[pos]
        theta = ratios.min()
        ties = np.nonzero(ratios <= theta + 1e-12 * (1.0 + theta))[0]
        leave = ties[np.argmin(basis[ties])]
        basis[leave] = j

        pivots_done += 1
        if pivots_done > max_pivots:
            raise SolverStalled(f"pivot budget {max_pivots} exhausted")
        age += 1
        if age >= m:
            inv, age = _inverse(A[:, basis]), 0
        else:
            row = inv[leave] / d[leave]
            inv -= np.outer(d, row)
            inv[leave] = row


reference_iterate = types.FunctionType(_reference_iterate.__code__, vars(simplex),
                                       "reference_iterate")


class LoopCheck:
    """Stands in for ``simplex._iterate``: runs it and the reference loop on
    the same inputs and requires bitwise-equal (x_B, duals, basis, pivots),
    or the same error.  ``calls`` holds (columns, enterable, pivots,
    inverses) of each call, inverses being the ``_inverse`` calls the loop
    made: one to start from plus one per refactorization."""

    def __init__(self, monkeypatch):
        self.iterate, self.calls, self.inverses = simplex._iterate, [], 0
        inverse = simplex._inverse

        def counted(B):
            self.inverses += 1
            return inverse(B)

        monkeypatch.setattr(simplex, "_inverse", counted)
        monkeypatch.setattr(simplex, "_iterate", self)

    def __call__(self, A, b, c, basis, n_enterable, pivot_tol, max_pivots, pivots_done):
        expected_basis = basis.copy()
        try:
            expected = reference_iterate(A, b, c, expected_basis, n_enterable, pivot_tol,
                                         max_pivots, pivots_done)
        except SolverError as exc:
            expected = exc
        inverses = self.inverses
        try:
            xB, y, pivots = self.iterate(A, b, c, basis, n_enterable, pivot_tol, max_pivots,
                                         pivots_done)
        except SolverError as exc:
            assert type(exc) is type(expected) and str(exc) == str(expected)
            raise
        assert not isinstance(expected, SolverError)
        assert xB.tobytes() == expected[0].tobytes()
        assert y.tobytes() == expected[1].tobytes()
        assert basis.tobytes() == expected_basis.tobytes()
        assert pivots == expected[2]
        self.calls.append((A.shape[1], n_enterable, pivots - pivots_done,
                           self.inverses - inverses))
        return xB, y, pivots


class TestLeanLoop:
    @pytest.mark.parametrize("seed, wide", seed_cases(range(25)))
    def test_random_feasible_instances(self, monkeypatch, seed, wide):
        A, b, c, rng = feasible_lp(seed)
        if wide:
            A, c = widened(A, c, rng)
        check = LoopCheck(monkeypatch)
        try:
            solve_equality_lp(A, b, c)
        except LpUnbounded:
            pass
        assert check.calls

    @pytest.mark.parametrize("seed, wide", seed_cases(range(10)))
    def test_random_normalized_instances(self, monkeypatch, seed, wide):
        A, b, c, rng = normalized_lp(seed)
        if wide:
            A, c = widened(A, c, rng)
        check = LoopCheck(monkeypatch)
        try:
            solve_equality_lp(A, b, c)
        except LpInfeasible:
            pass
        assert check.calls

    def test_refactorizations(self, monkeypatch):
        rng = np.random.default_rng(500)
        m, n = 24, 400
        A = np.vstack([rng.normal(size=(m - 1, n)), np.ones(n)])
        b = A @ rng.dirichlet(np.ones(n))
        c = rng.normal(size=n)
        check = LoopCheck(monkeypatch)
        solve_equality_lp(A, b, c)
        assert sum(call[3] - 1 for call in check.calls) >= 2

    @pytest.mark.parametrize("seed", range(3))
    def test_phase_one_artificials_never_enter(self, monkeypatch, seed):
        A, b, c = drawn_lp(seed)
        check = LoopCheck(monkeypatch)
        solve_equality_lp(A, b, c)
        n = A.shape[1]
        # the unseeded Phase I pivots over [A | I] with only A's columns enterable
        assert any(cols == n + A.shape[0] and enterable == n and pivots > 0
                   for cols, enterable, pivots, _ in check.calls)

    @pytest.mark.parametrize("seed", range(4))
    def test_blands_rule_engages_and_disengages(self, monkeypatch, seed):
        A, b, c, _ = normalized_lp(seed)  # zero right-hand sides: degenerate pivots
        monkeypatch.setattr(simplex, "_STALL_LIMIT", 3)
        flags, entering = [], simplex._entering

        def spy(rc, use_bland, pivot_tol):
            flags.append(use_bland)
            return entering(rc, use_bland, pivot_tol)

        monkeypatch.setattr(simplex, "_entering", spy)
        LoopCheck(monkeypatch)
        solve_equality_lp(A, b, c)
        assert True in flags and False in flags[flags.index(True):]

    @pytest.mark.parametrize("seed", range(4))
    def test_first_pricing_is_not_a_stall(self, monkeypatch, seed):
        # at _STALL_LIMIT = 1 one pricing without progress engages Bland's rule, but the
        # first pricing of an _iterate call has no earlier objective to stall against
        A, b, c, _ = normalized_lp(seed)
        monkeypatch.setattr(simplex, "_STALL_LIMIT", 1)
        flags, firsts = [], []
        entering, iterate = simplex._entering, simplex._iterate

        def spy(rc, use_bland, pivot_tol):
            flags.append(use_bland)
            return entering(rc, use_bland, pivot_tol)

        def marked(*args):
            firsts.append(len(flags))
            return iterate(*args)

        monkeypatch.setattr(simplex, "_entering", spy)
        monkeypatch.setattr(simplex, "_iterate", marked)
        solve_equality_lp(A, b, c)
        assert len(firsts) >= 2 and True in flags
        assert not any(flags[k] for k in firsts)

    def test_example1_cold_and_warm_round(self, monkeypatch):
        p = builtin_problem("example1")
        b = MonomialBasis(p.state_dim, 7)
        lp = example1_base_lp(room=8)  # the warm round's columns
        check = LoopCheck(monkeypatch)
        results = []
        _, cert = solve(lp, results=results)
        assert results[0].pivots == 1680
        spec = silp.CandidateSpec(state=(33,), control=(9,))
        lattice = model.pair_lattice(p, model.state_grid_points(p, spec.state),
                                     model.control_grid_points(p, spec.control))
        _, ys, us = silp.scan_candidates(p, b, cert, lattice, spec.max_new_columns, 1e-6)
        assert len(ys) == spec.max_new_columns
        cold_calls = len(check.calls)
        solve(lp.extended(p, b, ys, us), start=results[0].basis, results=results)
        assert results[1].warm and results[1].pivots > 0
        assert len(check.calls) > cold_calls


def random_problem_lp():
    """A 7 x 462 LP from a generated 1-D problem (ROADMAP item 17): its 21 x 21 base grid,
    which alone is infeasible, and the 21 admissible (y0, u) columns over the control grid."""
    a = (-0.401977, 0.0788521, -0.134976, 0.613478)
    q = (-0.831994, -0.264774, -0.114569, 0.194828, 0.815816)

    def f(y, u):
        y, u = y[..., :1], u[..., :1]
        return 0.5 + 0.5 * (a[0] + a[1] * y + a[2] * u + a[3] * y * u)

    def g(y, u):
        y, u = y[..., 0], u[..., 0]
        return q[0] * y + q[1] * u + q[2] * y ** 2 + q[3] * u ** 2 + q[4] * y * u

    y0 = 0.345537
    p = DiscreteControlProblem(state_dim=1, dynamics=f, cost=g, state_region=Box([0.0], [1.0]),
                               control_region=Box([-1.0], [1.0]), discount=0.495974,
                               initial_state=[y0])
    b = MonomialBasis(1, 6)
    lp = assemble(p, b, GridSpec(state=(21,), control=(21,)), room=21)
    us = model.control_grid_points(p, (21,))
    ys = np.full((len(us), 1), y0)
    admissible = p.state_region.contains(p.f(ys, us))
    assert admissible.sum() == 21
    return lp.extended(p, b, ys[admissible], us[admissible])


class TestFinalResidual:
    def test_no_infeasible_point_is_returned_as_optimal(self):
        # its sifting ended at a basis with x_B down to -0.4, which the clip to x >= 0 hid:
        # value -0.41393556756 with |Ax - b| = 0.707.  The reference is HiGHS on
        # orthonormalized rows, at residual 7e-15 on these rows.
        lp = random_problem_lp()
        assert lp.matrix.shape == (7, 462)
        try:
            res = solve_equality_lp(lp.matrix, lp.rhs, lp.cost)
        except SolverStalled as exc:
            assert str(exc).startswith("infeasible final basis: |B x_B - b| = ")
            return
        assert np.abs(lp.matrix @ res.x - lp.rhs).max() <= 1e-9
        assert res.value == pytest.approx(-0.2536318365, abs=1e-8)


def run_python(code, *args):
    """Run ``code`` in a fresh interpreter that imports this omcontrol; returns its stdout."""
    src = os.path.dirname(os.path.dirname(simplex.__file__))
    environ = dict(os.environ)
    environ["PYTHONPATH"] = os.pathsep.join([src, *filter(None, [environ.get("PYTHONPATH")])])
    return subprocess.run([sys.executable, "-c", code, *map(str, args)], env=environ,
                          check=True, capture_output=True, text=True).stdout


class TestImports:
    def test_solve_does_not_import_numpy_ma(self, tmp_path):
        # np.unique imports numpy.ma on its first call, 10-20 ms and 1.3 MB a process
        code = ("import sys\nfrom omcontrol import cli\n"
                "assert cli.main(['solve', '--problem', 'shift', '--out', sys.argv[1]]) == 0\n"
                "print('numpy.ma' in sys.modules)")
        assert run_python(code, tmp_path / "run").splitlines()[-1] == "False"
