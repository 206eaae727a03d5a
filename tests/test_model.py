import functools
import tracemalloc

import numpy as np
import pytest

from omcontrol import (AssumptionIViolation, Box, DiscreteControlProblem,
                       InadmissibleTransition, MonomialBasis, UnknownProblem, builtin_problem,
                       model, step)
from omcontrol.model import (MEMBERSHIP_TOL, admissible_mask, control_grid_points,
                             distinct_rows, one_step, one_step_table, pair_grid,
                             require_admissible, state_blocks, state_grid_points, tensor_points)


def make_add_problem(y0=0.5):
    # f(y, u) = y + u on Y = [0, 1]: admissibility depends on the state
    return DiscreteControlProblem(
        state_dim=1,
        dynamics=lambda y, u: y + u,
        cost=lambda y, u: y[..., 0],
        state_region=Box([0.0], [1.0]),
        control_region=Box([-1.0], [1.0]),
        discount=0.5,
        initial_state=[y0],
    )


class TestConstruction:
    def test_example1_parameters(self):
        p = builtin_problem("example1")
        assert p.discount == 0.9
        np.testing.assert_allclose(p.initial_state, [0.5, 0.25])
        assert p.state_dim == 2 and p.control_dim == 2

    def test_shift_parameters(self):
        p = builtin_problem("shift", alpha=0.5, y0=0.4)
        assert p.discount == 0.5
        np.testing.assert_allclose(p.initial_state, [0.4])

    def test_unknown_problem(self):
        with pytest.raises(UnknownProblem):
            builtin_problem("bogus")

    def test_discount_range_enforced(self):
        for bad in (0.0, 1.0, 1.2, -0.1):
            with pytest.raises(ValueError):
                builtin_problem("example1", alpha=bad)

    def test_initial_state_must_be_inside(self):
        with pytest.raises(ValueError):
            builtin_problem("example1", y0=(2.0, 0.0))


class TestAdmissibility:
    def test_example1_every_grid_control_admissible(self):
        # the dynamics map the box into itself, so A(y) = U on any grid
        p = builtin_problem("example1")
        y = np.array([[0.5, 0.25]])
        grid = control_grid_points(p, (9, 9))
        states, controls, _, mask = pair_grid(p, y, grid)
        assert mask.shape == (1, len(grid)) and mask.all()
        np.testing.assert_array_equal(controls, grid)
        np.testing.assert_array_equal(states, np.broadcast_to(y, (len(grid), 2)))
        require_admissible(y, mask)

    def test_example1_graph_is_full_box(self):
        p = builtin_problem("example1")
        states = p.state_region.grid((9, 9))
        controls = control_grid_points(p, (9, 9))
        rep_s = np.repeat(states, len(controls), axis=0)
        rep_c = np.tile(controls, (len(states), 1))
        assert admissible_mask(p, p.f(rep_s, rep_c)).all()

    def test_shift_explicit_control_set(self):
        p = builtin_problem("shift")
        grid = control_grid_points(p, np.array([0.0, 0.5, 1.0]))
        _, controls, _, mask = pair_grid(p, np.array([[0.3]]), grid)
        np.testing.assert_allclose(controls[mask[0], 0], [0.0, 0.5, 1.0])

    def test_state_dependent_filtering(self):
        # frozen by direct membership check: f(1, -0.5) = 0.5 in Y, f(1, 0.5) = 1.5 not,
        # and the other way round at y = 0
        p = make_add_problem()
        _, _, _, mask = pair_grid(p, np.array([[1.0], [0.0]]), np.array([[-0.5], [0.5]]))
        np.testing.assert_array_equal(mask, [[True, False], [False, True]])

    def test_empty_admissible_set_is_hard_error(self):
        p = make_add_problem()
        states = np.array([[0.0], [1.0]])
        _, _, _, mask = pair_grid(p, states, np.array([[0.5], [0.75]]))
        with pytest.raises(AssumptionIViolation) as err:
            require_admissible(states, mask)
        assert err.value.state == (1.0,)

    def test_order_and_determinism(self):
        p = builtin_problem("example1")
        y = np.array([[0.1, -0.3]])
        grid = control_grid_points(p, (5, 5))
        _, ca, _, ma = pair_grid(p, y, grid)
        _, cb, _, mb = pair_grid(p, y, grid)
        a, b = ca[ma[0]], cb[mb[0]]
        np.testing.assert_array_equal(a, b)
        # tensor enumeration is ascending lexicographic
        assert np.lexsort((a[:, 1], a[:, 0])).tolist() == list(range(len(a)))

    def test_membership_tolerance_band(self):
        # landing within 1e-12 outside a face must not flip admissibility
        p = make_add_problem(y0=0.5)
        _, _, _, mask = pair_grid(p, np.array([[0.5]]), np.array([[0.5 + 5e-13]]))
        assert mask.all()

    @pytest.mark.parametrize("problem", ["example1", "add"])
    def test_pair_grid_matches_repeat_and_tile(self, problem):
        p = builtin_problem("example1") if problem == "example1" else make_add_problem()
        states = p.state_region.grid(5)
        controls = control_grid_points(p, 3)
        pair_s, pair_c, succ, mask = pair_grid(p, states, controls)
        rep_s = np.repeat(states, len(controls), axis=0)
        rep_c = np.tile(controls, (len(states), 1))
        np.testing.assert_array_equal(pair_s, rep_s)
        np.testing.assert_array_equal(pair_c, rep_c)
        assert succ.tobytes() == p.f(rep_s, rep_c).tobytes()
        np.testing.assert_array_equal(
            mask, admissible_mask(p, p.f(rep_s, rep_c)).reshape(len(states), len(controls)))
        assert (problem == "add") == (not mask.all())

    def test_one_state_pairs_are_views(self):
        # f reads the pair states as contiguous rows, not as a stride-0 broadcast of the
        # state; the controls of one state are still the grid itself
        p = builtin_problem("example1")
        y = np.array([[0.5, 0.25]])
        grid = control_grid_points(p, (9, 9))
        states, controls, _, _ = pair_grid(p, y, grid)
        assert states.flags.c_contiguous and not np.shares_memory(states, y)
        assert np.array_equal(states, np.repeat(y, len(grid), axis=0))
        assert np.shares_memory(controls, grid) and controls.base is not None


class TestOneStepTable:
    @staticmethod
    def psi(pts):
        return np.sin(3.0 * pts).sum(axis=1)

    @pytest.mark.parametrize("problem", ["example1", "add"])
    @pytest.mark.parametrize("anchored", [False, True])
    def test_matches_masked_per_pair_one_step_bitwise(self, problem, anchored):
        p = builtin_problem("example1") if problem == "example1" else make_add_problem()
        states = p.state_region.grid(5)
        controls = control_grid_points(p, 7)
        pair_s, pair_c, _, mask = pair_grid(p, states, controls)
        psi_y = np.repeat(self.psi(states), len(controls)) if anchored else 0.0
        table = one_step_table(p, self.psi, states, controls,
                               self.psi(states) if anchored else 0.0)  # one psi_y per state
        expected = np.where(mask, one_step(p, self.psi, pair_s, pair_c, psi_y).reshape(mask.shape),
                            np.inf)
        assert table.shape == mask.shape and table.tobytes() == expected.tobytes()
        assert (problem == "add") == bool(np.isinf(table).any())

    @staticmethod
    def per_pair_table(p, psi, states, controls, psi_y):
        """The table one pair at a time: f, the box test axis by axis, psi and g at one row."""
        lo = p.state_region.lower - MEMBERSHIP_TOL
        hi = p.state_region.upper + MEMBERSHIP_TOL
        table = np.empty((len(states), len(controls)))
        for i, y in enumerate(states):
            for j, u in enumerate(controls):
                succ = p.f(y[None], u[None])
                inside = all(lo[a] <= succ[0, a] <= hi[a] for a in range(p.state_dim))
                table[i, j] = (one_step(p, psi, y[None], u[None], psi_y[i], psi(succ))[0]
                               if inside else np.inf)
        return table

    @pytest.mark.parametrize("problem", ["example1", "shift", "add", "small-box"])
    @pytest.mark.parametrize("psi", ["sin", "polynomial"])
    @pytest.mark.parametrize("anchored", [False, True])
    def test_matches_a_per_pair_reference_bitwise(self, problem, psi, anchored):
        if problem == "add":
            p = make_add_problem()
        elif problem == "small-box":  # example1's f and g on a state box f leaves
            e1 = builtin_problem("example1")
            p = DiscreteControlProblem(2, e1.dynamics, e1.cost, Box([-0.5, -0.5], [0.5, 0.5]),
                                       e1.control_region, 0.9, [0.25, 0.125])
        else:
            p = builtin_problem(problem)
        if psi == "polynomial":  # Horner's rule, periodic on a tensor grid of controls
            basis = MonomialBasis(p.state_dim, 7)
            lam = np.random.default_rng(900 + p.state_dim).standard_normal(basis.count)
            psi = functools.partial(basis.evaluate, coef=lam)
        else:
            psi = self.psi
        states = p.state_region.grid(5)
        controls = control_grid_points(p, 7)
        for ys in (states[7:8], states):  # one state and several
            psi_y = psi(ys) if anchored else np.zeros(len(ys))
            table = one_step_table(p, psi, ys, controls, psi_y if anchored else 0.0)
            expected = self.per_pair_table(p, psi, ys, controls, psi_y)
            assert table.shape == expected.shape and table.tobytes() == expected.tobytes()
        assert (problem in ("add", "small-box")) == bool(np.isinf(table).any())

    def test_state_without_admissible_control_raises(self):
        p = make_add_problem()
        with pytest.raises(AssumptionIViolation) as err:
            one_step_table(p, self.psi, np.array([[0.0], [1.0], [0.9]]),
                           np.array([[0.5], [0.75]]))
        assert err.value.state == (1.0,)


class TestStep:
    def test_reference_rows(self):
        p = builtin_problem("example1")
        np.testing.assert_allclose(step(p, [0.5, 0.25], [-1.0, 1.0]), [0.75, -0.375])
        np.testing.assert_allclose(step(p, [0.75, -0.375], [-0.552, 1.0]),
                                   [0.651, -0.6875], atol=1e-12)

    def test_fixed_point(self):
        # u = -y0 makes y0 stationary for the halving dynamics
        p = builtin_problem("example1")
        np.testing.assert_allclose(step(p, [0.5, 0.25], [-0.5, -0.25]), [0.5, 0.25])

    def test_leaving_the_region_raises(self):
        p = make_add_problem()
        with pytest.raises(InadmissibleTransition):
            step(p, [0.8], [0.5])


class TestRegions:
    def test_box_grid_counts(self):
        box = Box([-1.0, -1.0], [1.0, 1.0])
        grid = box.grid((3, 5))
        assert grid.shape == (15, 2)

    def test_tensor_points_order(self):
        pts = tensor_points([np.array([0.0, 1.0]), np.array([5.0, 6.0])])
        np.testing.assert_allclose(pts, [[0, 5], [0, 6], [1, 5], [1, 6]])

    @pytest.mark.parametrize("problem,shape", [("shift", (7,)), ("shift", (7, 1)),
                                               ("example1", (7, 2))])
    def test_float_array_spec_is_returned_without_a_copy(self, problem, shape):
        p = builtin_problem(problem)
        spec = np.linspace(-1.0, 1.0, int(np.prod(shape))).reshape(shape)
        for resolve in (control_grid_points, state_grid_points):
            pts = resolve(p, spec)
            assert pts.shape == (7, shape[-1] if len(shape) == 2 else 1)
            assert pts.dtype == np.float64 and np.shares_memory(pts, spec)
            assert pts.tobytes() == spec.tobytes()

    def test_integer_array_spec_becomes_float(self):
        pts = control_grid_points(builtin_problem("shift"), np.array([0, 1]))
        assert pts.dtype == np.float64 and pts[:, 0].tolist() == [0.0, 1.0]


def reference_contains(box, points, tol=MEMBERSHIP_TOL):
    """``Box.contains`` as it ran before testing one axis at a time: a (K, m) boolean array."""
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    ok = np.all((pts >= box.lower - tol) & (pts <= box.upper + tol), axis=1)
    return bool(ok[0]) if single else ok


class TestContainsKernel:
    """``Box.contains`` against its former all-axes test, result type and bytes."""

    BOXES = pytest.mark.parametrize("dim", [1, 2, 3])

    @staticmethod
    def box(dim):
        return Box(np.linspace(-1.0, 0.0, dim), np.linspace(1.0, 2.0, dim))

    @staticmethod
    def same(box, pts, **tol):
        new, ref = box.contains(pts, **tol), reference_contains(box, pts, **tol)
        if isinstance(ref, bool):
            return type(new) is bool and new == ref
        return new.dtype == ref.dtype and new.shape == ref.shape and new.tobytes() == ref.tobytes()

    @BOXES
    def test_grid_and_random_points(self, dim):
        rng = np.random.default_rng(600 + dim)
        box = self.box(dim)
        grid = tensor_points([np.linspace(-1.5, 2.5, 17)] * dim)
        assert self.same(box, grid)
        assert self.same(box, rng.uniform(-1.5, 2.5, (1000, dim)))
        assert self.same(box, grid, tol=0.25) and self.same(box, grid, tol=0.0)

    @BOXES
    def test_special_values(self, dim):
        rng = np.random.default_rng(700 + dim)
        box = Box(np.zeros(dim), np.ones(dim))
        special = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 0.5, 5e-13, -5e-13,
                            1 + 5e-13, 1 - 5e-13, -2e-12, 1 + 2e-12])
        pts = rng.choice(special, size=(500, dim))
        pts[:len(special), 0] = special
        assert self.same(box, pts) and self.same(box, pts, tol=0.0)
        for pt in pts[:len(special)]:
            assert self.same(box, pt)

    @BOXES
    def test_empty_batch_and_single_point(self, dim):
        box = self.box(dim)
        assert self.same(box, np.empty((0, dim)))
        assert box.contains(np.empty((0, dim))).shape == (0,)
        assert self.same(box, np.zeros(dim)) and self.same(box, np.full(dim, 3.0))
        assert self.same(box, np.zeros((1, dim)))

    @BOXES
    def test_layouts_within_the_tolerance_of_a_face(self, dim):
        # C-ordered, Fortran-ordered, strided and 1-D points on, just inside and just
        # outside the MEMBERSHIP_TOL band around the faces of the unit box
        rng = np.random.default_rng(800 + dim)
        box = Box(np.zeros(dim), np.ones(dim))
        near = np.array([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]) * MEMBERSHIP_TOL
        pts = rng.choice(np.concatenate([near, 1.0 + near, [0.5]]), size=(400, dim))
        wide = np.full((len(pts), 2 * dim), np.nan)
        wide[:, ::2] = pts
        for layout in (pts, np.asfortranarray(pts), wide[:, ::2], pts[::-3], pts[:, ::-1]):
            assert self.same(box, layout)
            assert self.same(box, layout, tol=0.0)
        for pt in (pts[0], pts[1], wide[2, ::2], pts[:, ::-1][3]):
            assert self.same(box, pt)
        assert self.same(box, wide[:, ::2][:1])

    def test_one_axis_is_read_in_place(self):
        # for m = 1 the (m, K) copy of C-ordered points is a view: the test's only
        # allocations are the (K,) mask and one (K,) comparison
        pts = np.linspace(-0.5, 1.5, 1 << 16)[:, None]
        box = Box([0.0], [1.0])
        box.contains(pts)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            box.contains(pts)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 3 * len(pts)  # a copy of the points alone would be 8 K bytes

    def test_wrong_point_dimension_rejected(self):
        with pytest.raises(ValueError):
            self.box(2).contains(np.zeros((4, 3)))
        with pytest.raises(ValueError):
            self.box(2).contains(np.zeros(1))


_LEXSORT = np.lexsort


def lexsort_distinct_rows(points):
    """Reference dedup by bit pattern: lexsort the rows' uint64 bits, first column first."""
    bits = np.ascontiguousarray(points, dtype=float).view(np.uint64)
    order = _LEXSORT(bits.T[::-1])
    ordered = bits[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(order), dtype=np.int64)
    inverse[order] = np.cumsum(first) - 1
    return ordered[first].view(np.float64), inverse


@pytest.fixture
def lexsorts(monkeypatch):
    """The number of ``np.lexsort`` calls made while the test runs."""
    calls = []

    def counted(keys, *args, **kwargs):
        calls.append(len(keys))
        return _LEXSORT(keys, *args, **kwargs)

    monkeypatch.setattr(np, "lexsort", counted)
    return calls


NAN_PAYLOADS = np.array([0x7FF8000000000001, 0x7FF8000000000002, 0xFFF8000000000000,
                         0x7FF0000000000001], dtype=np.uint64).view(np.float64)
SPECIAL = np.concatenate([[0.0, -0.0, np.inf, -np.inf, 0.5, -0.5, 1e-300], NAN_PAYLOADS])


def grid_rows(rng, m, k):
    """``k`` rows drawn with repeats from a shuffled m-axis lattice holding the special values."""
    axes = [np.concatenate([SPECIAL[rng.permutation(len(SPECIAL))[:6]], rng.uniform(-1, 1, 3)])
            for _ in range(m)]
    return tensor_points(axes)[rng.integers(0, 9 ** m, size=k)]


def random_rows(rng, m, k):
    """``k`` generic rows with a few special values, repeated rows and repeated columns."""
    pts = rng.standard_normal((k, m))
    pts[rng.integers(0, k, size=k // 8), rng.integers(0, m, size=k // 8)] = \
        rng.choice(SPECIAL, size=k // 8)
    return np.concatenate([pts, pts[rng.integers(0, k, size=k // 4)]])


def sample_blind_rows(rng, m, k):
    """Generic rows but for every (k >> 10)-th row, about 1,024 rows of zeros: one key."""
    pts = rng.standard_normal((k, m))
    pts[::k >> 10] = 0.0
    return pts


class TestDistinctRows:
    def same(self, points):
        distinct, inverse = distinct_rows(points)
        ref_distinct, ref_inverse = lexsort_distinct_rows(points)
        assert distinct.shape == ref_distinct.shape and distinct.dtype == np.float64
        assert distinct.tobytes() == ref_distinct.tobytes()
        assert inverse.dtype == ref_inverse.dtype and np.array_equal(inverse, ref_inverse)
        assert distinct[inverse].tobytes() == np.ascontiguousarray(points).tobytes()
        return distinct

    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("share", [0, 0.5, 4])
    def test_grid_rows_take_the_key_table(self, lexsorts, m, share):
        # at least 9**m / 2 rows (or one) from 9**m lattice points: within 4 K + 1024 keys
        k = max(1, int(share * 9 ** m))
        pts = grid_rows(np.random.default_rng(1200 + k + m), m, k)
        self.same(pts)
        self.same(pts[::-1])                   # a strided input
        self.same(np.asfortranarray(pts))
        assert lexsorts == []

    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("rows", [random_rows, sample_blind_rows])
    def test_generic_rows_take_the_lexsort(self, lexsorts, m, rows):
        pts = rows(np.random.default_rng(1300 + m), m, 4000)
        self.same(pts)
        self.same(np.asfortranarray(pts))
        self.same(np.repeat(pts, 2, axis=0)[::2])  # a row-strided input
        assert lexsorts == [m] * 3

    def test_signed_zeros_and_nan_payloads_stay_apart(self, lexsorts):
        nans = NAN_PAYLOADS.view(np.uint64)
        column = np.resize(SPECIAL, 2000)
        for pts in (tensor_points([SPECIAL, SPECIAL]),                       # the table
                    np.stack([column, np.arange(2000) / 7.0], axis=1)):     # 22,000 keys
            distinct = self.same(np.concatenate([pts, pts[::-1]]))
            assert len(distinct) == len(pts)
            first = distinct[:, 0]
            assert set(np.signbit(first[first == 0.0])) == {False, True}
            assert set(first.view(np.uint64)[np.isnan(first)]) == set(nans)
        assert lexsorts == [2]

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_empty_rows(self, m):
        distinct, inverse = distinct_rows(np.empty((0, m)))
        assert distinct.shape == (0, m) and inverse.shape == (0,)
        self.same(np.empty((0, m)))

    def test_one_column(self):
        rng = np.random.default_rng(1400)
        x = np.concatenate([rng.choice(SPECIAL, 200), rng.uniform(-1, 1, 50)])
        self.same(x[:, None])
        self.same(np.stack([x, x], axis=1)[:, :1])   # a strided column

    def test_four_axes_of_65536_values_take_the_lexsort(self, lexsorts):
        # 65,536 distinct values per axis: a 2**64 key space, past any int64 key
        rng = np.random.default_rng(1500)
        pts = np.stack([rng.permutation(1 << 16) / 7.0 for _ in range(4)], axis=1)
        self.same(pts)
        assert lexsorts == [4]

    @pytest.mark.parametrize("second", ["zeros", "itself"])
    def test_one_column_matches_two_columns(self, lexsorts, second):
        # one column sorts its bits; beside a zero column the same values take the key table,
        # beside themselves (58**2 keys for 250 rows) the lexsort; each path must give the
        # same distinct bits in the same order and the same inverse
        rng = np.random.default_rng(1100)
        special = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 0.5, -0.5, 1e-300])
        x = np.concatenate([rng.choice(special, 200), rng.uniform(-1, 1, 50)])
        one, one_of = distinct_rows(x[:, None])
        two, two_of = distinct_rows(np.stack([x, np.zeros_like(x) if second == "zeros" else x],
                                             axis=1))
        assert lexsorts == ([] if second == "zeros" else [2])
        assert one.shape == (len(two), 1)
        assert one.tobytes() == np.ascontiguousarray(two[:, :1]).tobytes()
        assert np.array_equal(one_of, two_of) and one_of.dtype == two_of.dtype
        assert one[one_of].tobytes() == x[:, None].tobytes()
        zeros = one[:, 0][one[:, 0] == 0.0]
        assert sorted(np.signbit(zeros)) == [False, True]  # 0.0 and -0.0 stay apart

    def test_empty_column(self):
        distinct, inverse = distinct_rows(np.empty((0, 1)))
        assert distinct.shape == (0, 1) and inverse.shape == (0,)
        self.same(np.empty((0, 1)))

    def test_peak_memory(self):
        # each column is taken as a view and sorted once, its sort buffers freed before the
        # next; a contiguous copy of a Fortran-ordered or strided input, or a 1,024-row
        # sample sorted first, peaked at 5.70, 3.35 and 1.09 MiB on the last three inputs
        p = builtin_problem("example1")
        nodes, controls = state_grid_points(p, (41, 41)), control_grid_points(p, (21, 21))
        blocks = []  # the oracle lattice's merge input, as pair_lattice builds it
        for rows in state_blocks(len(nodes), len(controls)):
            _, _, succ, mask = pair_grid(p, nodes[rows], controls)
            blocks.append(distinct_rows(succ[mask.ravel()])[0])
        merge = np.concatenate(blocks)
        assert merge.shape == (140_398, 2)
        generic = np.random.default_rng(0).standard_normal((20_000, 2))
        for pts, bound in ((merge, 3.75), (np.asfortranarray(merge), 3.75),
                           (merge[:, -1:], 2.25), (generic, 1.0)):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                distinct_rows(pts)
                peak = (tracemalloc.get_traced_memory()[1] - base) / 2**20
            finally:
                tracemalloc.stop()
            assert peak <= bound, (pts.shape, pts.strides)


class TestPairLattice:
    @pytest.mark.parametrize("chunk", [50, 1 << 16])
    def test_successors_match_a_brute_force_dedup(self, monkeypatch, chunk):
        # f(y, u) = y + u on [0, 1]^2: about half the pairs leave Y, and the sums round
        p = DiscreteControlProblem(
            state_dim=2, dynamics=lambda y, u: y + u, cost=lambda y, u: y[..., 0],
            state_region=Box([0.0, 0.0], [1.0, 1.0]), control_region=Box([-0.5, -0.5], [0.5, 0.5]),
            discount=0.5, initial_state=[0.5, 0.5])
        states, controls = state_grid_points(p, (11, 7)), control_grid_points(p, (5, 9))
        monkeypatch.setattr(model, "_SCAN_CHUNK", chunk)
        lattice = model.pair_lattice(p, states, controls)
        _, _, succ, mask = pair_grid(p, states, controls)
        mask = mask.ravel()
        bits, inverse = np.unique(succ[mask].view(np.uint64), axis=0, return_inverse=True)
        s = len(bits)
        assert 0 < mask.sum() < mask.size
        assert lattice.successors.tobytes() == bits.view(np.float64).tobytes()
        assert lattice.successor_of.dtype == np.min_scalar_type(s)
        assert np.array_equal(lattice.successor_of[mask], inverse.ravel())
        assert (lattice.successor_of[~mask] == s).all()

    def test_peak_memory_on_example1_oracle_lattice(self):
        # verify's oracle lattice, 41^2 nodes x 21^2 controls: 741,321 pairs, 36,100 distinct
        # successors.  Its uint16 successor_of (1.4 MiB) is the one array the size of the
        # lattice; the rest is the blocks' distinct successors and local indices, and one
        # block's pair grid and dedup at a time.  With the lexsort merge it peaked at 13.2 MiB,
        # with the key table at 10.2 MiB, and at 9.7 MiB once the merge holds the blocks'
        # distinct successors once (in its input), not also in a list of blocks.
        p = builtin_problem("example1")
        nodes = state_grid_points(p, (41, 41))
        controls = control_grid_points(p, (21, 21))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            lattice = model.pair_lattice(p, nodes, controls)
            peak = (tracemalloc.get_traced_memory()[1] - base) / 2**20
        finally:
            tracemalloc.stop()
        assert len(lattice.successors) == 36_100
        assert lattice.successor_of.dtype == np.uint16
        assert peak <= 9.9


class TestStateBlocks:
    @pytest.mark.parametrize("states, controls, rows", [
        (81, 81, 64), (81, 81, 81),    # example1's base LP and its kappa LP
        (401, 401, 9), (401, 401, 10),  # shift-dense's
    ])
    def test_assembly_blocks_follow_the_former_rule(self, states, controls, rows):
        # assemble's former rule cut max(1, 2**16 // N // C) states per block
        per_block = max(1, 2**16 // rows // controls)
        expected = [slice(lo, min(lo + per_block, states)) for lo in range(0, states, per_block)]
        assert list(state_blocks(states, controls * rows)) == expected
        assert len(expected) > 1
