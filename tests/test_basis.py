import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omcontrol import MonomialBasis, builtin_problem, model
from omcontrol.basis import constraint_columns


class TestEnumeration:
    def test_count_is_full_tensor(self):
        assert MonomialBasis(2, 7).count == 64
        assert MonomialBasis(1, 3).count == 4
        assert MonomialBasis(3, 2).count == 27

    def test_constant_comes_first(self):
        for dim, deg in [(1, 4), (2, 3), (3, 2)]:
            b = MonomialBasis(dim, deg)
            assert tuple(b.exponents[0]) == (0,) * dim

    def test_graded_lex_order_m2_deg1(self):
        b = MonomialBasis(2, 1)
        assert [tuple(e) for e in b.exponents] == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_order_is_graded(self):
        b = MonomialBasis(2, 7)
        degrees = b.exponents.sum(axis=1)
        assert np.all(np.diff(degrees) >= 0)

    def test_index_of(self):
        b = MonomialBasis(2, 3)
        assert b.index_of((0, 0)) == 0
        assert tuple(b.exponents[b.index_of((1, 0))]) == (1, 0)
        with pytest.raises(KeyError):
            b.index_of((4, 0))


class TestEvaluate:
    def test_zero_state_kills_nonconstant(self):
        b = MonomialBasis(2, 3)
        vals = b.evaluate(np.zeros(2))
        expected = np.zeros(b.count)
        expected[0] = 1.0
        np.testing.assert_array_equal(vals, expected)

    def test_all_ones_state(self):
        b = MonomialBasis(3, 2)
        np.testing.assert_array_equal(b.evaluate(np.ones(3)), np.ones(b.count))

    def test_reference_values_deg1(self):
        b = MonomialBasis(2, 1)
        vals = b.evaluate(np.array([0.5, 0.25]))
        # exponent order (0,0),(0,1),(1,0),(1,1)
        np.testing.assert_allclose(vals, [1.0, 0.25, 0.5, 0.125])

    def test_batch_matches_single(self):
        b = MonomialBasis(2, 5)
        pts = np.array([[0.3, -0.7], [1.0, 0.0], [-0.2, 0.9]])
        batch = b.evaluate(pts)
        for k in range(3):
            np.testing.assert_array_equal(batch[k], b.evaluate(pts[k]))

    @settings(max_examples=30, deadline=None)
    @given(st.floats(-1, 1), st.floats(-1, 1))
    def test_multiplicative_structure(self, y1, y2):
        # phi_(a+c, b+d) = phi_(a,b) * phi_(c,d) whenever the sum stays in the cap
        b = MonomialBasis(2, 4)
        v = b.evaluate(np.array([y1, y2]))
        i = b.index_of((1, 1))
        j = b.index_of((2, 1))
        k = b.index_of((3, 2))
        assert v[k] == pytest.approx(v[i] * v[j], rel=1e-12, abs=1e-12)


def coefficient(b, p, y, u, i):
    """Coefficient of the single pair (y, u) against test function i."""
    return constraint_columns(b, p, np.array([y], dtype=float), np.array([u], dtype=float))[i, 0]


class TestConstraintCoefficient:
    def test_constant_row_is_zero(self):
        p = builtin_problem("example1")
        b = MonomialBasis(2, 3)
        for y, u in [((0.5, 0.25), (-1, 1)), ((0.1, -0.9), (0.3, 0.4))]:
            assert coefficient(b, p, y, u, 0) == 0.0

    def test_reference_value(self):
        # alpha*(phi(f)-phi(y)) + (1-alpha)*(phi(y0)-phi(y)) with phi = y1:
        # 0.9*(0.75-0.5) + 0.1*(0.5-0.5) = 0.225
        p = builtin_problem("example1")
        b = MonomialBasis(2, 3)
        i = b.index_of((1, 0))
        val = coefficient(b, p, (0.5, 0.25), (-1.0, 1.0), i)
        assert val == pytest.approx(0.225, abs=1e-15)

    def test_fixed_point_at_initial_state_vanishes(self):
        # f(y0, -y0) = y0 for the halving dynamics, so every coefficient is 0
        p = builtin_problem("example1")
        b = MonomialBasis(2, 7)
        cols = constraint_columns(b, p, np.array([[0.5, 0.25]]), np.array([[-0.5, -0.25]]))
        np.testing.assert_allclose(cols[:, 0], 0.0, atol=1e-15)

    def test_shift_reference_coefficients(self):
        # phi = y at (0.4, 0): 0.5*(0 - 0.4) + 0.5*(0.4 - 0.4) = -0.2
        p = builtin_problem("shift", alpha=0.5, y0=0.4)
        b = MonomialBasis(1, 1)
        i = b.index_of((1,))
        assert coefficient(b, p, (0.4,), (0.0,), i) == pytest.approx(-0.2)
        assert coefficient(b, p, (0.0,), (0.0,), i) == pytest.approx(0.2)

    def test_determinism_bit_for_bit(self):
        p = builtin_problem("example1")
        b = MonomialBasis(2, 7)
        pts = p.state_region.grid((5, 5))
        us = np.tile(np.array([[0.25, -0.75]]), (len(pts), 1))
        a = constraint_columns(b, p, pts, us)
        c = constraint_columns(b, p, pts, us)
        assert np.array_equal(a, c)

    @pytest.mark.parametrize("name, degree, grid", [("example1", 7, (9, 9)),
                                                    ("shift", 8, (41,))])
    def test_matches_per_pair_evaluation_bitwise(self, name, degree, grid):
        # the base grid's admissible pairs, as assemble builds them: each
        # state and many successors recur, so evaluation per distinct point
        # must gather exactly the rows a per-pair evaluation gives
        p = builtin_problem(name)
        b = MonomialBasis(p.state_dim, degree)
        states, controls, _, mask = model.pair_grid(p, model.state_grid_points(p, grid),
                                                    model.control_grid_points(p, grid))
        states, controls = states[mask.ravel()], controls[mask.ravel()]
        succ = p.f(states, controls)
        assert len(model.distinct_rows(succ)[0]) < len(succ)
        a = p.discount
        direct = (a * (b.evaluate(succ) - b.evaluate(states))
                  + (1.0 - a) * (b.evaluate(p.initial_state)[None, :] - b.evaluate(states))).T
        assert constraint_columns(b, p, states, controls).tobytes() == direct.tobytes()
        assert constraint_columns(b, p, states, controls, succ).tobytes() == direct.tobytes()


class TestEvaluateCoefficients:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_matrix_product(self, data):
        dim = data.draw(st.integers(1, 3), label="dim")
        deg = data.draw(st.integers(0, 8), label="deg")
        b = MonomialBasis(dim, deg)
        coord = st.one_of(st.sampled_from([0.0, 1.0, -1.0]), st.floats(-1, 1))
        point = st.lists(coord, min_size=dim, max_size=dim)
        coef = np.array(data.draw(st.lists(st.floats(-10, 10), min_size=b.count,
                                           max_size=b.count), label="coef"))
        tol = 1e-12 * (1.0 + np.abs(coef).sum())
        pts = np.array(data.draw(st.lists(point, min_size=1, max_size=20), label="pts"))
        np.testing.assert_allclose(b.evaluate(pts, coef), b.evaluate(pts) @ coef,
                                   rtol=0, atol=tol)
        assert abs(b.evaluate(pts[0], coef) - b.evaluate(pts[0]) @ coef) <= tol

    def test_single_point_returns_scalar(self):
        b = MonomialBasis(2, 3)
        val = b.evaluate(np.array([0.5, -0.25]), np.arange(b.count, dtype=float))
        assert isinstance(val, float) and np.ndim(val) == 0
        batch = b.evaluate(np.array([[0.5, -0.25]]), np.arange(b.count, dtype=float))
        assert batch.shape == (1,)

    def test_wrong_coefficient_length_rejected(self):
        b = MonomialBasis(2, 3)
        with pytest.raises(ValueError):
            b.evaluate(np.zeros(2), np.ones(b.count - 1))
        with pytest.raises(ValueError):
            b.evaluate(np.zeros((4, 2)), np.ones(b.count + 1))

    def test_wrong_point_dimension_rejected(self):
        b = MonomialBasis(2, 3)
        with pytest.raises(ValueError):
            b.evaluate(np.zeros(3), np.ones(b.count))
        with pytest.raises(ValueError):
            b.evaluate(np.zeros((4, 1)), np.ones(b.count))


def reference_horner(b, pts, coef):
    """Horner's rule as ``_horner`` ran before the distinct-value path: every axis per point."""
    n = b.max_degree + 1
    acc = np.zeros((b.count, 1))
    acc[b._tensor_index, 0] = coef
    for a in range(b.dim - 1, -1, -1):
        terms = acc.reshape(acc.shape[0] // n, n, acc.shape[1])
        x = pts[:, a]
        acc = np.empty((terms.shape[0], pts.shape[0]))
        acc[...] = terms[:, n - 1, :]
        for j in range(n - 2, -1, -1):
            acc *= x
            acc += terms[:, j, :]
    return acc[0]


def special_points(dim, rng):
    """Signed zeros, NaN, infinities and points 5e-13 off the faces of [-1, 1], with repeats."""
    special = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1 + 5e-13, 1 - 5e-13,
                        -1 + 5e-13, -1 - 5e-13, 0.5])
    pts = rng.choice(special, size=(40, dim))
    pts[:, -1] = np.tile(special, 4)  # every value in the last coordinate, each four times
    return pts


class TestHornerKernel:
    """``_horner`` against its former per-point contraction, bit for bit."""

    DIMS_DEGREES = pytest.mark.parametrize("dim, degree", [
        (d, k) for d in (1, 2, 3) for k in (0, 1, 7, 8, 9)])

    @staticmethod
    def same(b, pts, coef):
        new, ref = b._horner(pts, coef), reference_horner(b, pts, coef)
        return new.dtype == ref.dtype and new.shape == ref.shape and new.tobytes() == ref.tobytes()

    @DIMS_DEGREES
    def test_grid_points(self, dim, degree):
        rng = np.random.default_rng(100 * dim + degree)
        b = MonomialBasis(dim, degree)
        coef = rng.standard_normal(b.count)
        axes = [np.linspace(-1.0, 1.0, 21 - 4 * a) for a in range(dim)]
        grid = model.tensor_points(axes)
        # the rollout's shape: a state's successors 0.5 y - 0.5 u over a control grid
        succ = 0.5 * rng.uniform(-1, 1, dim) - 0.5 * grid
        for pts in (grid, succ, grid[::-1]):
            assert self.same(b, pts, coef)

    @DIMS_DEGREES
    def test_random_points(self, dim, degree):
        rng = np.random.default_rng(200 + 100 * dim + degree)
        b = MonomialBasis(dim, degree)
        coef = rng.standard_normal(b.count)
        assert self.same(b, rng.uniform(-1, 1, (500, dim)), coef)

    @DIMS_DEGREES
    def test_special_values(self, dim, degree):
        rng = np.random.default_rng(300 + 100 * dim + degree)
        b = MonomialBasis(dim, degree)
        coef = rng.standard_normal(b.count)
        coef[rng.random(b.count) < 0.3] = 0.0
        pts = special_points(dim, rng)
        with np.errstate(invalid="ignore", over="ignore"):  # inf * 0 and inf - inf
            assert self.same(b, pts, coef)
            # all-negative-zero coefficients: the sign of each zero value depends on x's
            assert self.same(b, pts, np.full(b.count, -0.0))
        # -0.0 and 0.0 are distinct values of the last coordinate, and at most half of the
        # 40 values are distinct, so the first contraction gathers
        values, inverse = model.distinct_rows(pts[:, -1][:, None])
        assert len(values) == 10 and 2 * len(values) <= len(pts)
        assert np.array_equal(values[inverse].view(np.uint64), pts[:, -1:].view(np.uint64))

    @DIMS_DEGREES
    def test_empty_batch_and_single_point(self, dim, degree):
        rng = np.random.default_rng(400 + 100 * dim + degree)
        b = MonomialBasis(dim, degree)
        coef = rng.standard_normal(b.count)
        empty = np.empty((0, dim))
        assert self.same(b, empty, coef) and b.evaluate(empty, coef).shape == (0,)
        pt = rng.uniform(-1, 1, dim)
        assert self.same(b, pt[None, :], coef)
        one = b.evaluate(pt, coef)
        assert type(one) is np.float64
        assert one.tobytes() == reference_horner(b, pt[None, :], coef)[0].tobytes()

    @staticmethod
    def contracted_shapes(monkeypatch, b):
        """The shape of the points of each ``_contract`` call on ``b``, in order."""
        shapes, contract = [], b._contract

        def spy(acc, x):
            shapes.append(x.shape)
            return contract(acc, x)

        monkeypatch.setattr(b, "_contract", spy)
        return shapes

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("degree", [0, 1, 3, 7])
    @pytest.mark.parametrize("head", [
        # -0.0 and 0.0 are different bits, so x[0] does not recur at 0.0
        np.array([-0.0, 0.0, np.nan, 0.5, -1.0, 1 - 5e-13, 0.25]),
        np.array([0.3]),
    ], ids=["signed-zeros-and-nan", "P=1"])
    def test_periodic_last_coordinate(self, monkeypatch, dim, degree, head):
        rng = np.random.default_rng(600 + 10 * dim + degree)
        b = MonomialBasis(dim, degree)
        coef = rng.standard_normal(b.count)
        shapes = self.contracted_shapes(monkeypatch, b)
        period = len(head)
        for reps in (2, 3, 50) if period > 1 else (4, 5, 50):  # batches under 4 are not tested
            pts = rng.uniform(-1, 1, (period * reps, dim))
            pts[:, -1] = np.tile(head, reps)
            shapes.clear()
            assert self.same(b, pts, coef)
            # the last axis at the P head values, the next at (K/P, P), the rest at every point
            assert shapes == [(period,), (reps, period)] + [(period * reps,)] * (dim - 2)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("layout", ["C", "F", "column-slice", "reversed-rows"])
    def test_periodic_finish_reads_a_strided_coordinate(self, monkeypatch, dim, layout):
        # the next axis is contracted on a contiguous copy of its coordinate, whatever
        # the points' layout: stride 8 m in C order (the rollout's successors), stride 8
        # in Fortran order, a column of a wider array, or rows read backwards
        rng = np.random.default_rng(700 + 10 * dim + len(layout))
        b = MonomialBasis(dim, 7)
        coef = rng.standard_normal(b.count)
        period, reps = 13, 6
        pts = rng.uniform(-1, 1, (period * reps, dim))
        pts[:, -1] = np.tile(rng.uniform(-1, 1, period), reps)
        if layout == "F":
            pts = np.asfortranarray(pts)
        elif layout == "column-slice":
            wide = np.full((len(pts), 2 * dim), np.nan)
            wide[:, 1::2] = pts
            pts = wide[:, 1::2]
        elif layout == "reversed-rows":
            pts = pts[::-1]
        assert not pts[:, -2].flags.c_contiguous or layout == "F"
        shapes = self.contracted_shapes(monkeypatch, b)
        assert self.same(b, pts, coef)
        assert shapes == [(period,), (reps, period)] + [(period * reps,)] * (dim - 2)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_both_sides_of_the_distinct_value_fallback(self, monkeypatch, dim):
        rng = np.random.default_rng(500 + dim)
        b = MonomialBasis(dim, 7)
        coef = rng.standard_normal(b.count)
        pts = rng.uniform(-1, 1, (200, dim))
        shapes = self.contracted_shapes(monkeypatch, b)
        head = np.arange(50) / 50
        one_bit_off = np.tile(head, 4)
        one_bit_off.view(np.uint64)[-1] ^= 1  # the last period's last value, in its last bit
        recurs = head.copy()
        recurs[25] = recurs[0]  # x[0] recurs at 25, but 25 values are no period
        for last, points, period in (
                # x[0] = 0.0 recurs at 100 (or at 101, past K/2), but the rows differ
                (np.concatenate([np.arange(100) / 100, np.zeros(100)]), 200, None),
                (np.concatenate([np.arange(101) / 101, np.zeros(99)]), 200, None),
                (np.tile(head, 4), 200, 50),
                (np.full(200, 0.5), 200, 1),
                (one_bit_off, 200, None),
                (np.tile(head, 4), 190, None),  # K not a multiple of P
                (np.tile(recurs, 4), 200, None),
                (np.full(200, 0.5), 3, None),  # K < 4 is not tested
        ):
            pts[:, -1] = last
            shapes.clear()
            assert self.same(b, pts[:points], coef)
            distinct = len(model.distinct_rows(last[:points, None])[0])
            if period:
                assert shapes == [(period,), (200 // period, period)] + [(200,)] * (dim - 2)
            else:
                # the last axis is contracted at the distinct values only when at most half are
                width = distinct if 2 * distinct <= points else points
                assert shapes == [(width,)] + [(points,)] * (dim - 1)
