import functools
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omcontrol import (AssumptionIViolation, AtomicMeasure, Box, CandidateSpec,
                       DiscreteControlProblem, DualCertificate, GridSpec,
                       MonomialBasis, NotConverged, Rollout, assemble,
                       builtin_problem, check_optimality_conditions,
                       check_psi_bound, check_shifted_inequality,
                       hamiltonian_min, measure_residuals, minimizer_policy,
                       occupational_measure, rollout, solve, solve_refined,
                       value_iteration)
from omcontrol import cli, model, verify
from omcontrol.model import admissible_mask, control_grid_points, tensor_points
from omcontrol.verify import estimate_kappa, trajectory_residual_bound


def shift_problem(alpha=0.5, y0=0.4):
    return builtin_problem("shift", alpha=alpha, y0=y0)


def shift_exact_certificate(alpha=0.5, y0=0.4, degree=3):
    # psi = g = y solves the max-min problem; the optimal value is (1-a)*g(y0)
    lam = np.zeros(degree + 1)
    lam[1] = 1.0
    return DualCertificate(lam=lam, mu=(1 - alpha) * y0)


def optimal_shift_rollout(p, steps=20):
    return rollout(p, lambda y: np.array([0.0]), steps=steps)


def corner_loop_interp_table(axes, pts):
    """Reference multilinear interpolation table: one pass over the 2^m cell corners,
    listed with ``itertools.product`` (first axis slowest), each weight a product taken
    in axis order."""
    m = len(axes)
    k = pts.shape[0]
    shape = tuple(len(ax) for ax in axes)
    strides = np.ones(m, dtype=np.int64)
    for a in range(m - 2, -1, -1):
        strides[a] = strides[a + 1] * shape[a + 1]
    base = np.empty((k, m), dtype=np.int64)
    frac = np.empty((k, m))
    for a, ax in enumerate(axes):
        x = np.clip(pts[:, a], ax[0], ax[-1])
        if len(ax) == 1:
            base[:, a] = 0
            frac[:, a] = 0.0
            continue
        j = np.clip(np.searchsorted(ax, x, side="right") - 1, 0, len(ax) - 2)
        base[:, a] = j
        frac[:, a] = (x - ax[j]) / (ax[j + 1] - ax[j])
    corners = list(itertools.product((0, 1), repeat=m))
    idx = np.empty((k, len(corners)), dtype=np.int64)
    wgt = np.empty((k, len(corners)))
    for c, corner in enumerate(corners):
        offs = np.array(corner, dtype=np.int64)
        cell = np.minimum(base + offs, np.array(shape, dtype=np.int64) - 1)
        idx[:, c] = (cell * strides).sum(axis=1)
        w = np.ones(k)
        for a in range(m):
            w *= frac[:, a] if corner[a] else (1.0 - frac[:, a])
        wgt[:, c] = w
    return idx, wgt


def per_pair_backup(p, state_grid, control_grid):
    """Reference full backup: every (node, control) pair interpolates its successor."""
    axes = tuple(p.state_region.axes(state_grid))
    nodes = tensor_points(axes)
    controls = control_grid_points(p, control_grid)
    kn, kc = len(nodes), len(controls)
    states = np.repeat(nodes, kc, axis=0)
    pair_controls = np.tile(controls, (kn, 1))
    mask = admissible_mask(p, p.f(states, pair_controls)).reshape(kn, kc)
    stage = np.where(mask, p.g(states, pair_controls).reshape(kn, kc), np.inf)
    idx, wgt = corner_loop_interp_table(axes, p.f(states, pair_controls))

    def backup(values):
        cont = (values[idx] * wgt).sum(axis=1).reshape(kn, kc)
        return np.min(stage + p.discount * cont, axis=1)
    return backup, kn


def per_pair_value_iteration(p, state_grid, control_grid, tol, max_iter=20_000):
    """Reference plain value iteration: a per-pair full backup every sweep."""
    backup, kn = per_pair_backup(p, state_grid, control_grid)
    values, diffs = np.zeros(kn), []
    threshold = tol * (1.0 - p.discount) / p.discount
    for _ in range(max_iter):
        new = backup(values)
        diffs.append(float(np.abs(new - values).max()))
        values = new
        if diffs[-1] <= threshold:
            break
    return values, diffs


def unblocked_value_iteration(p, state_grid, control_grid, tol, max_iter=20_000):
    """Reference modified policy iteration with every full backup over the whole lattice at
    once, as ``value_iteration`` ran before its backups were blocked: (the last full backup,
    sweep_diffs)."""
    alpha = p.discount
    axes = tuple(p.state_region.axes(state_grid))
    nodes = tensor_points(axes)
    controls = control_grid_points(p, control_grid)
    kn, kc = len(nodes), len(controls)
    states, pair_controls, succ, mask = model.pair_grid(p, nodes, controls)
    successors, inverse = model.distinct_rows(succ[mask.ravel()])
    stage = np.where(mask, p.g(states, pair_controls).reshape(kn, kc), np.inf)
    successor = np.zeros((kn, kc), dtype=np.intp)  # 0, under a +inf stage, off the graph
    successor[mask] = inverse
    idx, wgt = corner_loop_interp_table(axes, successors)
    node, values, diffs = np.arange(kn), np.zeros(kn), []
    for _ in range(max_iter):
        cont = alpha * (values[idx] * wgt).sum(axis=1)
        backup = stage + np.take(cont, successor)
        choice = backup.argmin(axis=1)
        new = backup[node, choice]
        diffs.append(float(np.abs(new - values).max()))
        if diffs[-1] <= tol * (1.0 - alpha) / alpha:
            break
        chosen = successor[node, choice]
        policy_stage, policy_idx, policy_wgt = stage[node, choice], idx[chosen], wgt[chosen]
        values = new
        for _ in range(verify._MPI_SWEEPS):
            values = policy_stage + alpha * (values[policy_idx] * policy_wgt).sum(axis=1)
    return new, diffs


def bellman_residual(p, state_grid, control_grid, grid):
    """Sup-norm change of one per-pair full backup of the oracle's values."""
    backup, _ = per_pair_backup(p, state_grid, control_grid)
    values = grid.values.ravel()
    return float(np.abs(backup(values) - values).max())


def drift_problem():
    """f(y, u) = y + u on [0, 1]: every state has inadmissible controls in [-1, 1]."""
    return one_d_problem(lambda y, u: y + u, controls=(-1.0, 1.0))


def one_d_problem(dynamics, controls=(-0.5, 0.5), states=(0.0, 1.0)):
    return DiscreteControlProblem(
        state_dim=1, dynamics=dynamics,
        cost=lambda y, u: (y[..., 0] - 0.3) ** 2 + 0.1 * u[..., 0],
        state_region=Box([states[0]], [states[1]]),
        control_region=Box([controls[0]], [controls[1]]),
        discount=0.8, initial_state=[0.5])


def per_pair_reduced_costs(p, cert, basis, states, controls):
    """Reference rc = g + alpha * (psi(f) - psi) + (1 - alpha) * (psi(y0) - psi) - mu,
    psi(y) and psi(f(y, u)) evaluated for every pair."""
    alpha = p.discount
    psi_y = cert.psi(basis, states)
    return (p.g(states, controls) + alpha * (cert.psi(basis, p.f(states, controls)) - psi_y)
            + (1.0 - alpha) * (cert.psi(basis, p.initial_state) - psi_y) - cert.mu)


def admissible_lattice_pairs(p, value_grid, control_grid):
    """The admissible (node, control) pairs of the value grid, nodes varying slowest."""
    nodes = tensor_points(value_grid.axes)
    cg = control_grid_points(p, control_grid)
    states = np.repeat(nodes, len(cg), axis=0)
    controls = np.tile(cg, (len(nodes), 1))
    mask = admissible_mask(p, p.f(states, controls))
    return states[mask], controls[mask]


def per_pair_optimality_residuals(p, roll, cert, value_grid, basis, control_grid):
    """Reference stationarity and one-step identity: psi(y) evaluated for every scanned pair."""
    alpha = p.discount
    psi = functools.partial(cert.psi, basis)
    scan_states, scan_controls = admissible_lattice_pairs(p, value_grid, control_grid)
    scan_states = np.vstack([scan_states, roll.states])
    scan_controls = np.vstack([scan_controls, roll.controls])
    stationarity = per_pair_reduced_costs(p, cert, basis, roll.states, roll.controls) \
        - float(per_pair_reduced_costs(p, cert, basis, scan_states, scan_controls).min())
    target = (1.0 - alpha) * (value_grid(p.initial_state) - psi(p.initial_state))
    cg = control_grid_points(p, control_grid)
    ham = hamiltonian_min(p, psi, roll.states, cg) - (1.0 - alpha) * psi(roll.states) - target
    return stationarity, np.abs(ham)


class TestInterpolation:
    SIZES = (1, 2, 5, 41)

    @staticmethod
    def probe_points(axes, rng):
        """Interior points, the nodes, points on each face and points outside the box."""
        lo, hi = np.array([ax[0] for ax in axes]), np.array([ax[-1] for ax in axes])
        interior = lo + (hi - lo) * rng.random((50, len(axes)))
        faces = []
        for a in range(len(axes)):
            for end in (lo[a], hi[a]):
                face = lo + (hi - lo) * rng.random((10, len(axes)))
                face[:, a] = end
                faces.append(face)
        outside = lo + (hi - lo) * rng.uniform(-1.0, 2.0, (50, len(axes)))
        return np.concatenate([interior, tensor_points(axes), *faces, outside])

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("first", range(4))
    def test_matches_the_corner_loop_bitwise(self, m, first):
        # axis a has SIZES[(first + a) % 4] points, unevenly spaced (cubes of a linspace)
        axes = tuple(np.linspace(-1.0, 1.0 + a, self.SIZES[(first + a) % 4]) ** 3
                     for a in range(m))
        pts = self.probe_points(axes, np.random.default_rng(10 * m + first))
        idx, wgt = verify._interp_table(axes, pts)
        ref_idx, ref_wgt = corner_loop_interp_table(axes, pts)
        assert idx.dtype == ref_idx.dtype and wgt.dtype == ref_wgt.dtype
        assert idx.shape == ref_idx.shape == (len(pts), 2 ** m)
        assert idx.tobytes() == ref_idx.tobytes()
        assert wgt.tobytes() == ref_wgt.tobytes()

    def test_reproduces_a_multilinear_function(self):
        a, b, c, d = 0.3, -1.2, 0.7, 2.0

        def bilinear(y):
            return a + b * y[..., 0] + c * y[..., 1] + d * y[..., 0] * y[..., 1]

        axes = (np.linspace(-1.0, 1.0, 5) ** 3, np.linspace(0.0, 2.0, 7) ** 2)
        values = bilinear(tensor_points(axes)).reshape(5, 7)
        grid = verify.ValueFunctionGrid(axes=axes, values=values, lattice=None, threshold=0.0)
        rng = np.random.default_rng(3)
        pts = np.column_stack([rng.uniform(-1.0, 1.0, 200), rng.uniform(0.0, 4.0, 200)])
        np.testing.assert_allclose(grid(pts), bilinear(pts), rtol=0.0, atol=1e-14)
        assert isinstance(grid(pts[0]), float)
        assert abs(grid(pts[0]) - bilinear(pts[0])) <= 1e-14


class TestValueIteration:
    def test_shift_exact_at_nodes(self):
        p = shift_problem()
        grid = value_iteration(p, (21,), (21,), tol=1e-10)
        nodes = tensor_points(grid.axes)
        np.testing.assert_allclose(grid.values.ravel(), nodes[:, 0], atol=1e-12)
        assert grid(p.initial_state) == pytest.approx(0.4, abs=1e-12)

    def test_constant_cost(self):
        p = DiscreteControlProblem(
            state_dim=1, dynamics=lambda y, u: 0.0 * y, cost=lambda y, u: 3.0 + 0.0 * y[..., 0],
            state_region=Box([0.0], [1.0]), control_region=Box([0.0], [1.0]),
            discount=0.5, initial_state=[0.5])
        grid = value_iteration(p, (5,), (5,), tol=1e-10)
        np.testing.assert_allclose(grid.values, 6.0, atol=1e-8)

    def test_contraction_ratio(self):
        p = builtin_problem("example1")
        grid = value_iteration(p, (11, 11), (5, 5), tol=1e-6)
        diffs = np.array(grid.sweep_diffs)
        # d[k+1] <= alpha * d[k] up to float granularity of the iterates
        assert np.all(diffs[1:] <= p.discount * diffs[:-1] + 1e-12)
        big = diffs[:-1] > 1e-4  # the plain ratio is only meaningful above float noise
        ratios = diffs[1:][big] / diffs[:-1][big]
        assert np.all(ratios <= p.discount + 1e-9)

    def test_values_bounded(self):
        p = builtin_problem("example1")
        grid = value_iteration(p, (11, 11), (5, 5), tol=1e-6)
        assert np.abs(grid.values).max() <= 2.0 / (1 - p.discount) + 1e-9

    def test_not_converged_carries_iterate(self):
        p = builtin_problem("example1")
        with pytest.raises(NotConverged) as err:
            value_iteration(p, (11, 11), (5, 5), tol=1e-10, max_iter=3)
        assert len(err.value.grid.sweep_diffs) == 3  # max_iter counts full backups only
        assert err.value.grid.values.shape == (11, 11)
        assert err.value.grid.lattice.states.shape == (121, 2)

    def test_viability_hard_error(self):
        p = DiscreteControlProblem(
            state_dim=1, dynamics=lambda y, u: y + u, cost=lambda y, u: y[..., 0],
            state_region=Box([0.0], [1.0]), control_region=Box([0.5], [1.0]),
            discount=0.5, initial_state=[0.0])
        with pytest.raises(AssumptionIViolation):
            value_iteration(p, (5,), (3,), tol=1e-8)

    FIVE_PROBLEMS = pytest.mark.parametrize("problem, state_grid, control_grid, chunk", [
        (lambda: builtin_problem("example1"), (11, 11), (5, 5), None),
        (shift_problem, (21,), (21,), None),
        # y + u leaves [0, 1] for some pairs; u = 0 keeps every node admissible
        (lambda: one_d_problem(lambda y, u: y + u), (11,), (5,), None),
        # lattice blocks of one node's 5 controls, and most hold inadmissible pairs
        (lambda: one_d_problem(lambda y, u: y + u), (11,), (5,), 7),
        # successors 0.0 for y > 0 and -0.0 otherwise
        (lambda: one_d_problem(lambda y, u: np.where(y > 0, u, -u), controls=(-1.0, 1.0),
                               states=(-1.0, 1.0)), (11,), (5,), None),
    ], ids=["example1", "shift", "inadmissible-pairs", "split-blocks", "signed-zero"])

    @FIVE_PROBLEMS
    def test_matches_per_pair_sweep_bitwise(self, monkeypatch, problem, state_grid,
                                            control_grid, chunk):
        # the full backup, before any policy sweep, is the per-pair sweep bit for bit
        if chunk is not None:
            monkeypatch.setattr(model, "_SCAN_CHUNK", chunk)
        p = problem()
        with pytest.raises(NotConverged) as err:
            value_iteration(p, state_grid, control_grid, tol=1e-8, max_iter=1)
        values, diffs = per_pair_value_iteration(p, state_grid, control_grid, 1e-8, max_iter=1)
        assert err.value.grid.values.tobytes() == values.tobytes()
        assert err.value.grid.sweep_diffs == diffs

    @FIVE_PROBLEMS
    def test_fixed_point_matches_plain_value_iteration(self, monkeypatch, problem,
                                                       state_grid, control_grid, chunk):
        if chunk is not None:
            monkeypatch.setattr(model, "_SCAN_CHUNK", chunk)
        p, tol = problem(), 1e-8
        grid = value_iteration(p, state_grid, control_grid, tol=tol)
        values, _ = per_pair_value_iteration(p, state_grid, control_grid, tol)
        assert np.abs(grid.values.ravel() - values).max() <= 2 * tol
        # the stopping rule's certificate: T is an alpha-contraction and ||v - w|| <= threshold
        # for the returned v = T w
        certificate = p.discount * tol * (1 - p.discount) / p.discount
        assert bellman_residual(p, state_grid, control_grid, grid) <= certificate

    def test_not_converged_iterate_matches_per_pair_sweep_bitwise(self):
        p = builtin_problem("example1")
        with pytest.raises(NotConverged) as err:
            value_iteration(p, (11, 11), (5, 5), tol=1e-10, max_iter=1)
        values, diffs = per_pair_value_iteration(p, (11, 11), (5, 5), 1e-10, max_iter=1)
        assert err.value.grid.values.tobytes() == values.tobytes()
        assert err.value.grid.sweep_diffs == diffs

    def test_converges_at_discount_near_one(self):
        # plain value iteration would need about 25,400 sweeps, over its 20,000 max_iter
        p, tol = builtin_problem("example1", alpha=0.999), 1e-8
        grid = value_iteration(p, (11, 11), (5, 5), tol=tol)
        assert len(grid.sweep_diffs) < 1000
        # changes of values near 1,066 are whole multiples of their float spacing; the
        # certificate is 44 of them, and alpha times 44 spacings rounds back to 44
        spacing = np.spacing(np.abs(grid.values).max())
        certificate = p.discount * tol * (1 - p.discount) / p.discount
        assert bellman_residual(p, (11, 11), (5, 5), grid) <= certificate + spacing

    @pytest.mark.parametrize("problem, state_grid, control_grid, chunk", [
        # blocks of 3 nodes end on a block of 2, and every block holds inadmissible pairs
        (drift_problem, (11,), (5,), 15),
        (drift_problem, (23,), (7,), 40),
        # blocks of 8 nodes over 121: the last one holds a single node
        (lambda: builtin_problem("example1"), (11, 11), (5, 5), 200),
    ], ids=["drift-3", "drift-5", "example1-8"])
    def test_backup_blocks_match_per_pair_and_unblocked_bitwise(self, monkeypatch, problem,
                                                               state_grid, control_grid, chunk):
        monkeypatch.setattr(model, "_SCAN_CHUNK", chunk)
        p = problem()
        kn, kc = int(np.prod(state_grid)), int(np.prod(control_grid))
        per_block = chunk // kc
        assert kn % per_block != 0
        if p.state_dim == 1:
            nodes = tensor_points(p.state_region.axes(state_grid))
            _, _, _, mask = model.pair_grid(p, nodes, control_grid_points(p, control_grid))
            assert all(not mask[lo:lo + per_block].all() for lo in range(0, kn, per_block))
        with pytest.raises(NotConverged) as err:
            value_iteration(p, state_grid, control_grid, tol=1e-8, max_iter=1)
        values, diffs = per_pair_value_iteration(p, state_grid, control_grid, 1e-8, max_iter=1)
        assert err.value.grid.values.tobytes() == values.tobytes()
        assert err.value.grid.sweep_diffs == diffs
        for max_iter in (3, 20_000):
            try:
                grid = value_iteration(p, state_grid, control_grid, tol=1e-8, max_iter=max_iter)
            except NotConverged as exc:
                grid = exc.grid
            values, diffs = unblocked_value_iteration(p, state_grid, control_grid, 1e-8,
                                                      max_iter=max_iter)
            assert grid.values.tobytes() == values.tobytes()
            assert grid.sweep_diffs == diffs

    def test_backups_read_the_lattice_successor_table(self, monkeypatch):
        # shift with its control u = 0 marked S, off the graph, in the lattice's own successor
        # table backs up, bit for bit, as shift without u = 0 in its control grid
        p, controls = shift_problem(), np.linspace(0.0, 1.0, 11)[:, None]
        build = model.pair_lattice

        def without_zero(problem, states, controls):
            lattice = build(problem, states, controls)
            lattice.successor_of.reshape(len(states), -1)[:, 0] = len(lattice.successors)
            return lattice

        full = value_iteration(p, (11,), controls, tol=1e-10)
        monkeypatch.setattr(model, "pair_lattice", without_zero)
        marked = value_iteration(p, (11,), controls, tol=1e-10)
        monkeypatch.undo()
        reference = value_iteration(p, (11,), controls[1:], tol=1e-10)
        assert marked.values.tobytes() == reference.values.tobytes()
        assert marked.sweep_diffs == reference.sweep_diffs
        assert marked.values.tobytes() != full.values.tobytes()

    def test_peak_memory_on_example1_oracle(self):
        # example1's 41^2 nodes x 21^2 controls: 741,321 pairs.  Full backups over the whole
        # lattice peaked at 27.8 MiB (stage, intp successors and backups, 5.7 MiB each); in
        # blocks the stage array is the only one of that size, and the successors are uint16.
        p = builtin_problem("example1")
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            grid = value_iteration(p, (41, 41), (21, 21))
            peak = (tracemalloc.get_traced_memory()[1] - base) / 2**20
        finally:
            tracemalloc.stop()
        assert len(grid.sweep_diffs) == 9
        assert grid.lattice.successor_of.dtype == np.uint16
        assert peak <= 18.0

    def test_distinct_rows_keep_signed_zeros_apart(self):
        pts = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0], [0.5, -0.0], [0.5, 0.0]])
        distinct, inverse = model.distinct_rows(pts)
        assert len(distinct) == 4
        assert distinct[inverse].tobytes() == pts.tobytes()


class TestHamiltonian:
    def test_zero_surrogate_reduces_to_cost_min(self):
        p = builtin_problem("example1")
        val = hamiltonian_min(p, lambda y: np.zeros(np.atleast_2d(y).shape[0]),
                              [0.5, 0.25], (9, 9))
        assert val == pytest.approx(-0.75)  # min of -0.5 u2 + 0.25 u1 at (-1, 1)

    def test_shift_closed_form(self):
        # psi = V = g, y = 0.4: min_u {0.4 + 0.5 (g(u) - 0.4)} = 0.2 at u = 0
        p = shift_problem()
        psi = lambda y: np.atleast_2d(y)[:, 0]
        assert hamiltonian_min(p, psi, [0.4], (21,)) == pytest.approx(0.2, abs=1e-12)

    def test_oracle_fixed_point_identity(self):
        # H_V(y) - (1-a) V(y) vanishes at the oracle's own nodes
        p = shift_problem()
        grid = value_iteration(p, (21,), (21,), tol=1e-10)
        for y in tensor_points(grid.axes)[::5]:
            h = hamiltonian_min(p, grid, y, (21,))
            assert h - (1 - p.discount) * grid(y) == pytest.approx(0.0, abs=1e-9)


    def test_batch_matches_per_state_loop(self):
        # the per-state formula over the admissible grid controls is the reference, bit for bit
        p = builtin_problem("example1")
        b = MonomialBasis(2, 4)
        lam = np.random.default_rng(3).normal(size=b.count)
        psi = functools.partial(DualCertificate(lam=lam, mu=0.0).psi, b)
        states = p.state_region.grid((9, 9))
        grid = control_grid_points(p, (7, 7))
        expected = []
        for y in states:
            u = grid[admissible_mask(p, p.f(np.broadcast_to(y, grid.shape), grid))]
            ys = np.broadcast_to(y, u.shape)
            expected.append((p.g(ys, u) + p.discount * (psi(p.f(ys, u)) - psi(y))).min())
        np.testing.assert_array_equal(hamiltonian_min(p, psi, states, (7, 7)), expected)

    def test_batch_with_stuck_state_raises(self):
        p = DiscreteControlProblem(
            state_dim=1, dynamics=lambda y, u: y + u, cost=lambda y, u: y[..., 0],
            state_region=Box([0.0], [1.0]), control_region=Box([0.5], [1.0]),
            discount=0.5, initial_state=[0.0])
        with pytest.raises(AssumptionIViolation) as err:
            hamiltonian_min(p, lambda y: np.zeros(len(y)), [[0.0], [0.8], [0.9]], (3,))
        assert err.value.state == (0.8,)


class TestOccupationalMeasure:
    def test_stationary_rollout_single_atom(self):
        p = builtin_problem("example1", y0=(0.5, 0.25))
        roll = rollout(p, lambda y: np.array([-0.5, -0.25]), steps=30)  # fixed point
        occ = occupational_measure(roll, p.discount)
        assert len(occ) == 1
        assert occ.weights[0] == pytest.approx(1 - p.discount ** 31, abs=1e-12)

    def test_shift_closed_form_atoms(self):
        p = shift_problem()
        roll = optimal_shift_rollout(p, steps=10)
        occ = occupational_measure(roll, 0.5)
        assert len(occ) == 2
        np.testing.assert_allclose(occ.states[:, 0], [0.4, 0.0])
        assert occ.weights[0] == pytest.approx(0.5)
        assert occ.weights[1] == pytest.approx(sum(0.5 ** (t + 1) for t in range(1, 11)))
        assert occ.total_weight == pytest.approx(1 - 0.5 ** 11, abs=1e-12)

    def test_two_sided_identity_on_basis(self):
        # integral against the measure equals the discounted sum, function by function
        p = builtin_problem("example1")
        b = MonomialBasis(2, 7)
        roll = rollout(p, lambda y: np.array([-0.25, 0.75]), steps=50)
        occ = occupational_measure(roll, p.discount)
        lhs = b.evaluate(occ.states).T @ occ.weights
        ts = p.discount ** np.arange(51.0)
        rhs = (1 - p.discount) * (b.evaluate(roll.states).T @ ts)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_two_sided_identity_random_policies(self, seed):
        rng = np.random.default_rng(seed)
        p = builtin_problem("example1")
        b = MonomialBasis(2, 3)
        controls = rng.uniform(-1, 1, size=(13, 2))
        roll = rollout(p, lambda y, it=iter(np.vstack([controls] * 2)): next(it), steps=25)
        occ = occupational_measure(roll, p.discount)
        lhs = b.evaluate(occ.states).T @ occ.weights
        rhs = (1 - p.discount) * (b.evaluate(roll.states).T @ p.discount ** np.arange(26.0))
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestMeasureResiduals:
    def test_lp_solution_residuals_tiny(self):
        p = shift_problem()
        b = MonomialBasis(1, 3)
        measure, _ = solve(assemble(p, b, GridSpec(state=(21,), control=(21,))))
        res = measure_residuals(measure, b, p)
        assert np.abs(res).max() <= 1e-9

    def test_constant_row_exactly_zero(self):
        p = builtin_problem("example1")
        b = MonomialBasis(2, 5)
        m = AtomicMeasure(states=np.array([[0.1, 0.2], [0.3, -0.4]]),
                          controls=np.array([[0.5, 0.5], [-0.5, 0.5]]),
                          weights=np.array([0.4, 0.6]))
        assert measure_residuals(m, b, p)[0] == 0.0

    def test_trajectory_residuals_decay_geometrically(self):
        p = shift_problem()
        b = MonomialBasis(1, 3)
        norms = []
        for steps in (5, 10, 15, 20):
            occ = occupational_measure(optimal_shift_rollout(p, steps=steps), 0.5)
            norms.append(np.abs(measure_residuals(occ, b, p)).max())
        ratios = np.array(norms[1:]) / np.array(norms[:-1])
        np.testing.assert_allclose(ratios, 0.5 ** 5, rtol=1e-6)

    def test_trajectory_residuals_within_bound(self):
        p = builtin_problem("example1")
        b = MonomialBasis(2, 7)
        roll = rollout(p, lambda y: np.array([1.0, -1.0]), steps=40)
        occ = occupational_measure(roll, p.discount)
        res = np.abs(measure_residuals(occ, b, p)).max()
        sample = p.state_region.grid((5, 5))
        bound = trajectory_residual_bound(
            p, b, 40, np.vstack([sample, occ.states]),
            np.vstack([np.tile([[1.0, -1.0]], (len(sample), 1)), occ.controls]))
        assert res <= bound


class TestOptimalityConditions:
    def test_shift_exact_certificate_zero_residuals(self):
        p = shift_problem()
        cert = shift_exact_certificate()
        oracle = value_iteration(p, (21,), (21,), tol=1e-10)
        roll = optimal_shift_rollout(p, steps=30)
        rep = check_optimality_conditions(p, roll, cert, oracle, MonomialBasis(1, 3))
        assert rep.stationarity.max() <= 1e-12
        assert rep.stationarity.min() >= 0.0
        assert rep.value_agreement_std <= 1e-12
        assert rep.hamiltonian.max() <= 1e-12

    def test_perturbed_control_raises_stationarity_residual(self):
        p = shift_problem()
        cert = shift_exact_certificate()
        oracle = value_iteration(p, (21,), (21,), tol=1e-10)
        roll = optimal_shift_rollout(p, steps=10)
        perturbed = Rollout(states=roll.states.copy(), controls=roll.controls.copy(),
                            truncated_value=roll.truncated_value,
                            truncation_bound=roll.truncation_bound, discount=roll.discount)
        perturbed.controls[3, 0] = 1.0
        base = check_optimality_conditions(p, roll, cert, oracle, MonomialBasis(1, 3))
        rep = check_optimality_conditions(p, perturbed, cert, oracle, MonomialBasis(1, 3))
        assert rep.stationarity[3] > base.stationarity[3] + 0.1
        assert rep.stationarity[3] > max(rep.stationarity[2], rep.stationarity[4])

    def test_shift_cli_defaults_match_per_pair_psi_bitwise(self):
        cfg = cli.RunConfig(problem="shift").resolved()
        p = builtin_problem("shift", alpha=cfg.alpha, y0=cfg.y0)
        b = MonomialBasis(1, cfg.degree)
        _, cert, _ = solve_refined(
            p, b, GridSpec(state=cfg.state_grid, control=cfg.control_grid),
            CandidateSpec(state=cfg.candidate_state, control=cfg.candidate_control,
                          max_new_columns=cfg.batch),
            tol=cfg.tol, max_rounds=cfg.max_rounds, pivot_tol=cfg.pivot_tol)
        roll = rollout(p, minimizer_policy(p, b, cert, cfg.rollout_control_grid),
                       steps=cfg.steps)
        oracle = value_iteration(p, cfg.vi_state_grid, cfg.vi_control_grid, tol=1e-8)
        rep = check_optimality_conditions(p, roll, cert, oracle, b)
        stationarity, ham = per_pair_optimality_residuals(p, roll, cert, oracle, b,
                                                          cfg.vi_control_grid)
        assert rep.stationarity.tobytes() == stationarity.tobytes()
        assert rep.hamiltonian.tobytes() == ham.tobytes()

    def test_example1_matches_per_pair_psi_bitwise(self):
        p = builtin_problem("example1")
        b = MonomialBasis(2, 3)
        _, cert = solve(assemble(p, b, GridSpec(state=(7, 7), control=(7, 7))))
        roll = rollout(p, minimizer_policy(p, b, cert, (21, 21)), steps=20)
        oracle = value_iteration(p, (11, 11), (5, 5), tol=1e-6)
        rep = check_optimality_conditions(p, roll, cert, oracle, b)
        stationarity, ham = per_pair_optimality_residuals(p, roll, cert, oracle, b, (5, 5))
        assert rep.stationarity.tobytes() == stationarity.tobytes()
        assert rep.hamiltonian.tobytes() == ham.tobytes()

    def test_inadmissible_pairs_in_split_blocks_match_per_pair_psi_bitwise(self, monkeypatch):
        # blocks of 2 nodes' 9 controls (20 pairs would split a node; blocks hold whole
        # nodes), and f = y + u leaves [0, 1] for some of every node's controls
        monkeypatch.setattr(model, "_SCAN_CHUNK", 20)
        p = drift_problem()
        b = MonomialBasis(1, 3)
        _, cert = solve(assemble(p, b, GridSpec(state=(5,), control=(5,))))
        roll = rollout(p, minimizer_policy(p, b, cert, (5,)), steps=20)
        oracle = value_iteration(p, (11,), (9,), tol=1e-6)
        lattice = oracle.lattice
        off = (lattice.successor_of == len(lattice.successors)).reshape(11, 9)
        assert off.any(axis=1).all()  # every node, so every one of the 6 blocks
        assert len(list(lattice.blocks())) == 6
        rep = check_optimality_conditions(p, roll, cert, oracle, b)
        # no visited pair attains the scan minimum: a lattice pair past the first block does
        assert rep.stationarity.min() > 0.0
        stationarity, ham = per_pair_optimality_residuals(p, roll, cert, oracle, b, (9,))
        assert rep.stationarity.tobytes() == stationarity.tobytes()
        assert rep.hamiltonian.tobytes() == ham.tobytes()


class TestPsiBound:
    def test_exact_value_function_has_zero_violation(self):
        p = shift_problem()
        cert = shift_exact_certificate()
        oracle = value_iteration(p, (21,), (21,), tol=1e-10)
        viol = check_psi_bound(cert, oracle, p, MonomialBasis(1, 3))
        assert viol == pytest.approx(0.0, abs=1e-10)

    def test_family_member_satisfies_bound(self):
        # cubic psi(y) = y - (25/9) y (y - 0.4)^2: nonnegative, below g, anchored
        # at psi(0.4) = 0.4 and psi(0) = 0, hence a max-min solution
        p = shift_problem()
        b = MonomialBasis(1, 3)
        c = 25.0 / 9.0
        lam = np.zeros(4)
        lam[b.index_of((1,))] = 1.0 - c * 0.16
        lam[b.index_of((2,))] = c * 0.8
        lam[b.index_of((3,))] = -c
        ys = np.linspace(0, 1, 101)
        psi = lam[1] * ys + lam[2] * ys ** 2 + lam[3] * ys ** 3
        assert np.all(psi >= -1e-12) and np.all(psi <= ys + 1e-12)
        cert = DualCertificate(lam=lam, mu=0.2)
        oracle = value_iteration(p, (21,), (21,), tol=1e-10)
        viol = check_psi_bound(cert, oracle, p, b)
        assert viol <= 1e-10


class TestShiftedInequality:
    def shifted(self, p, cert, oracle, basis, value_at_y0):
        # the report's lattice minimum does not depend on the rollout it is checked along
        roll = rollout(p, minimizer_policy(p, basis, cert, oracle.lattice.controls), steps=5)
        report = check_optimality_conditions(p, roll, cert, oracle, basis)
        return check_shifted_inequality(report, cert, value_at_y0, p)

    def test_exact_certificate_zero_violation(self):
        p = shift_problem()
        cert = shift_exact_certificate()
        oracle = value_iteration(p, (21,), (21,), tol=1e-10)
        viol = self.shifted(p, cert, oracle, MonomialBasis(1, 3), 0.4)
        assert viol == pytest.approx(0.0, abs=1e-12)

    def test_raised_anchor_violates_by_scaled_constant(self):
        # anchoring psi at V(y0) + c turns the inequality negative by exactly (1-a) c
        p = shift_problem()
        cert = shift_exact_certificate()
        oracle = value_iteration(p, (21,), (21,), tol=1e-10)
        for c in (0.1, 0.25):
            viol = self.shifted(p, cert, oracle, MonomialBasis(1, 3), 0.4 + c)
            assert viol == pytest.approx((1 - p.discount) * c, abs=1e-12)

    def test_one_dimensional_array_grid_is_a_column_of_states(self):
        # a 1-D array is 21 states of a 1-D problem, not one state of dimension 21
        p = shift_problem()
        by_array = model.state_grid_points(p, np.linspace(0.0, 1.0, 21))
        assert by_array.shape == (21, 1)
        assert by_array.tobytes() == model.state_grid_points(p, (21,)).tobytes()

    @pytest.mark.parametrize("problem, state_grid, control_grid, chunk", [
        (lambda: builtin_problem("example1"), (9, 9), (7, 7), None),
        # blocks of 2 nodes' 9 controls; f = y + u leaves [0, 1]
        (drift_problem, (11,), (9,), 20),
    ], ids=["example1", "drift-split-blocks"])
    def test_matches_per_pair_loop_bitwise(self, monkeypatch, problem, state_grid,
                                           control_grid, chunk):
        # (1 - alpha) * V(y0) - mu - rc over every admissible grid pair is the reference,
        # bit for bit
        if chunk is not None:
            monkeypatch.setattr(model, "_SCAN_CHUNK", chunk)
        p = problem()
        b = MonomialBasis(p.state_dim, 4)
        lam = np.random.default_rng(3).normal(size=b.count)
        cert = DualCertificate(lam=lam, mu=0.0)
        oracle = value_iteration(p, state_grid, control_grid, tol=1e-6)
        anchored = (1.0 - p.discount) * 0.7 - cert.mu
        states, controls = admissible_lattice_pairs(p, oracle, control_grid)
        min_rc = per_pair_reduced_costs(p, cert, b, states, controls).min()
        nodes = tensor_points(oracle.axes)
        grid = control_grid_points(p, control_grid)
        every = per_pair_reduced_costs(p, cert, b, np.repeat(nodes, len(grid), axis=0),
                                       np.tile(grid, (len(nodes), 1)))
        viol = self.shifted(p, cert, oracle, b, 0.7)
        assert np.float64(viol).tobytes() == np.float64(anchored - min_rc).tobytes()
        # on drift the inadmissible pairs would change the answer
        assert (every.min() != min_rc) == (chunk is not None)


class TestOracleBracket:
    def test_shift_lp_and_oracle_agree_exactly(self):
        p = shift_problem()
        b = MonomialBasis(1, 3)
        _, cert = solve(assemble(p, b, GridSpec(state=(21,), control=(21,))))
        oracle = value_iteration(p, (21,), (21,), tol=1e-10)
        assert abs(cert.mu / (1 - p.discount) - oracle(p.initial_state)) <= 1e-9


class TestKappa:
    @pytest.mark.parametrize("name, degree, grid, vi_grid", [
        ("shift", 3, (21,), (21,)),   # CLI defaults
        ("example1", 3, (7,), (11,)),
    ], ids=["shift", "example1"])
    def test_sifted_estimate_matches_full_resolve(self, name, degree, grid, vi_grid):
        from scipy.optimize import linprog

        p = builtin_problem(name)
        b = MonomialBasis(p.state_dim, degree)
        spec = GridSpec(state=grid, control=grid)
        _, cert = solve(assemble(p, b, spec))
        oracle_value = value_iteration(p, vi_grid, vi_grid, tol=1e-8)(p.initial_state)
        sifted = estimate_kappa(p, b, spec, cert, oracle_value)

        # the degree + 1 LP solved by HiGHS: its optimal value is mu'
        lp = assemble(p, MonomialBasis(p.state_dim, degree + 1), spec)
        ref = linprog(lp.cost, A_eq=lp.matrix, b_eq=lp.rhs, bounds=(0, None), method="highs")
        assert ref.status == 0
        full = (max(0.0, ref.fun - cert.mu)
                + max(0.0, (1.0 - p.discount) * oracle_value - ref.fun))
        assert sifted == pytest.approx(full, abs=1e-9)

    def test_shift_dense_resolve_copies_no_lp(self):
        # the degree-9 re-solve of shift-dense (10 rows, 160,801 columns: 12.3 MiB) under the
        # workload's refined certificate: its LP and one (columns,) array per pricing, but no
        # [A | I] beside the LP.  The bound is a measured peak plus 10%.
        p = shift_problem()
        b = MonomialBasis(1, 8)
        grid = GridSpec(state=(401,), control=(401,))
        _, cert, _ = solve_refined(p, b, grid, CandidateSpec(state=(801,), control=(801,)),
                                   tol=1e-6, max_rounds=80)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            kappa = estimate_kappa(p, b, grid, cert, p.initial_state[0])
            peak = (tracemalloc.get_traced_memory()[1] - base) / 2**20
        finally:
            tracemalloc.stop()
        assert 0.0 <= kappa <= 1e-9
        assert peak <= 21.6
