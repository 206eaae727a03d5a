import itertools

import numpy as np
import pytest
from scipy.optimize import linprog

from omcontrol import simplex
from omcontrol.errors import LpInfeasible, LpUnbounded
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


class TestAgainstScipy:
    @pytest.mark.parametrize("seed, wide", seed_cases(range(25)))
    def test_random_feasible_instances(self, seed, wide):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 8))
        n = int(rng.integers(m + 1, 40))
        A = rng.normal(size=(m, n))
        b = A @ np.abs(rng.normal(size=n))
        c = rng.normal(size=n)
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
        # the shape used by the measure LPs: zero rows plus a sum-to-one row
        rng = np.random.default_rng(100 + seed)
        m, n = 6, 60
        A = np.vstack([rng.normal(size=(m - 1, n)), np.ones(n)])
        b = np.zeros(m)
        b[-1] = 1.0
        c = rng.normal(size=n)
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
        _, _, final, pivots = simplex._sift(A, b, c, basis.copy(), tol, 1_000, 0)
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
