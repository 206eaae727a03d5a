import functools

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
from omcontrol import cli, verify
from omcontrol.model import (admissible_controls, admissible_mask,
                             control_grid_points, tensor_points)
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


def per_pair_value_iteration(p, state_grid, control_grid, tol, max_iter=20_000,
                             interpolation="multilinear"):
    """Reference sweep: every (node, control) pair interpolates its successor every sweep."""
    axes = tuple(p.state_region.axes(state_grid))
    nodes = tensor_points(axes)
    controls = control_grid_points(p, control_grid)
    kn, kc = len(nodes), len(controls)
    states = np.repeat(nodes, kc, axis=0)
    pair_controls = np.tile(controls, (kn, 1))
    mask = admissible_mask(p, states, pair_controls).reshape(kn, kc)
    stage = np.where(mask, p.g(states, pair_controls).reshape(kn, kc), np.inf)
    idx, wgt = verify._interp_table(axes, p.f(states, pair_controls), interpolation)
    values, diffs = np.zeros(kn), []
    threshold = tol * (1.0 - p.discount) / p.discount
    for _ in range(max_iter):
        cont = (values[idx] * wgt).sum(axis=1).reshape(kn, kc)
        new = np.min(stage + p.discount * cont, axis=1)
        diffs.append(float(np.abs(new - values).max()))
        values = new
        if diffs[-1] <= threshold:
            break
    return values, diffs


def one_d_problem(dynamics, controls=(-0.5, 0.5), states=(0.0, 1.0)):
    return DiscreteControlProblem(
        state_dim=1, dynamics=dynamics,
        cost=lambda y, u: (y[..., 0] - 0.3) ** 2 + 0.1 * u[..., 0],
        state_region=Box([states[0]], [states[1]]),
        control_region=Box([controls[0]], [controls[1]]),
        discount=0.8, initial_state=[0.5])


def per_pair_optimality_residuals(p, roll, cert, value_grid, basis, control_grid):
    """Reference stationarity and one-step identity: psi(y) evaluated for every scanned pair."""
    alpha = p.discount
    psi = functools.partial(cert.psi, basis)
    nodes = tensor_points(value_grid.axes)
    cg = control_grid_points(p, control_grid)
    scan_states = np.repeat(nodes, len(cg), axis=0)
    scan_controls = np.tile(cg, (len(nodes), 1))
    mask = admissible_mask(p, scan_states, scan_controls)
    scan_states = np.vstack([scan_states[mask], roll.states])
    scan_controls = np.vstack([scan_controls[mask], roll.controls])

    def one_step(states, controls):
        return p.g(states, controls) + alpha * psi(p.f(states, controls)) - psi(states)

    stationarity = one_step(roll.states, roll.controls) \
        - float(one_step(scan_states, scan_controls).min())
    target = (1.0 - alpha) * (value_grid(p.initial_state) - psi(p.initial_state))
    ham = hamiltonian_min(p, psi, roll.states, cg) - (1.0 - alpha) * psi(roll.states) - target
    return stationarity, np.abs(ham)


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
        assert err.value.grid.values.shape == (11, 11)

    def test_viability_hard_error(self):
        p = DiscreteControlProblem(
            state_dim=1, dynamics=lambda y, u: y + u, cost=lambda y, u: y[..., 0],
            state_region=Box([0.0], [1.0]), control_region=Box([0.5], [1.0]),
            discount=0.5, initial_state=[0.0])
        with pytest.raises(AssumptionIViolation):
            value_iteration(p, (5,), (3,), tol=1e-8)

    def test_nearest_interpolation_mode(self):
        p = shift_problem()
        grid = value_iteration(p, (21,), (21,), tol=1e-8, interpolation="nearest")
        assert grid(p.initial_state) == pytest.approx(0.4, abs=1e-8)

    @pytest.mark.parametrize("problem, state_grid, control_grid, interpolation", [
        (lambda: builtin_problem("example1"), (11, 11), (5, 5), "multilinear"),
        (shift_problem, (21,), (21,), "multilinear"),
        (shift_problem, (21,), (21,), "nearest"),
        # y + u leaves [0, 1] for some pairs; u = 0 keeps every node admissible
        (lambda: one_d_problem(lambda y, u: y + u), (11,), (5,), "multilinear"),
        # successors 0.0 for y > 0 and -0.0 otherwise
        (lambda: one_d_problem(lambda y, u: np.where(y > 0, u, -u), controls=(-1.0, 1.0),
                               states=(-1.0, 1.0)), (11,), (5,), "multilinear"),
    ], ids=["example1", "shift", "shift-nearest", "inadmissible-pairs", "signed-zero"])
    def test_matches_per_pair_sweep_bitwise(self, problem, state_grid, control_grid,
                                            interpolation):
        p = problem()
        grid = value_iteration(p, state_grid, control_grid, tol=1e-8,
                               interpolation=interpolation)
        values, diffs = per_pair_value_iteration(p, state_grid, control_grid, 1e-8,
                                                 interpolation=interpolation)
        assert grid.values.tobytes() == values.tobytes()
        assert grid.sweep_diffs == diffs

    def test_not_converged_iterate_matches_per_pair_sweep_bitwise(self):
        p = builtin_problem("example1")
        with pytest.raises(NotConverged) as err:
            value_iteration(p, (11, 11), (5, 5), tol=1e-10, max_iter=3)
        values, diffs = per_pair_value_iteration(p, (11, 11), (5, 5), 1e-10, max_iter=3)
        assert err.value.grid.values.tobytes() == values.tobytes()
        assert err.value.grid.sweep_diffs == diffs

    def test_distinct_rows_keep_signed_zeros_apart(self):
        pts = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0], [0.5, -0.0], [0.5, 0.0]])
        distinct, inverse = verify._distinct_rows(pts)
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
        # the per-state formula over admissible_controls is the reference, bit for bit
        p = builtin_problem("example1")
        b = MonomialBasis(2, 4)
        lam = np.random.default_rng(3).normal(size=b.count)
        psi = functools.partial(DualCertificate(lam=lam, mu=0.0).psi, b)
        states = p.state_region.grid((9, 9))
        expected = []
        for y in states:
            u = admissible_controls(p, y, (7, 7))
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
        rep = check_optimality_conditions(p, roll, cert, oracle, MonomialBasis(1, 3),
                                          (21,), kappa_tol=1e-12)
        assert rep.stationarity.max() <= 1e-12
        assert rep.stationarity.min() >= 0.0
        assert rep.value_agreement_std <= 1e-12
        assert rep.hamiltonian.max() <= 1e-12
        assert rep.passed

    def test_perturbed_control_raises_stationarity_residual(self):
        p = shift_problem()
        cert = shift_exact_certificate()
        oracle = value_iteration(p, (21,), (21,), tol=1e-10)
        roll = optimal_shift_rollout(p, steps=10)
        perturbed = Rollout(states=roll.states.copy(), controls=roll.controls.copy(),
                            truncated_value=roll.truncated_value,
                            truncation_bound=roll.truncation_bound, discount=roll.discount)
        perturbed.controls[3, 0] = 1.0
        base = check_optimality_conditions(p, roll, cert, oracle, MonomialBasis(1, 3),
                                           (21,), kappa_tol=1e-9)
        rep = check_optimality_conditions(p, perturbed, cert, oracle, MonomialBasis(1, 3),
                                          (21,), kappa_tol=1e-9)
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
        rep = check_optimality_conditions(p, roll, cert, oracle, b, cfg.vi_control_grid,
                                          cfg.slack)
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
        rep = check_optimality_conditions(p, roll, cert, oracle, b, (5, 5), 0.25)
        stationarity, ham = per_pair_optimality_residuals(p, roll, cert, oracle, b, (5, 5))
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
    def test_exact_certificate_zero_violation(self):
        p = shift_problem()
        cert = shift_exact_certificate()
        viol = check_shifted_inequality(cert, 0.4, p, (21,), MonomialBasis(1, 3), (21,))
        assert viol == pytest.approx(0.0, abs=1e-12)

    def test_raised_anchor_violates_by_scaled_constant(self):
        # anchoring psi at V(y0) + c turns the inequality negative by exactly (1-a) c
        p = shift_problem()
        cert = shift_exact_certificate()
        for c in (0.1, 0.25):
            viol = check_shifted_inequality(cert, 0.4 + c, p, (21,),
                                            MonomialBasis(1, 3), (21,))
            assert viol == pytest.approx((1 - p.discount) * c, abs=1e-12)


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
    def test_sifted_estimate_matches_full_resolve(self, monkeypatch, name, degree,
                                                  grid, vi_grid):
        p = builtin_problem(name)
        b = MonomialBasis(p.state_dim, degree)
        spec = GridSpec(state=grid, control=grid)
        _, cert = solve(assemble(p, b, spec))
        oracle_value = value_iteration(p, vi_grid, vi_grid, tol=1e-8)(p.initial_state)
        sifted = estimate_kappa(p, b, spec, cert.mu, oracle_value)

        full_solve = verify.solve

        def full_pricing(lp, pivot_tol, sift):
            assert sift
            return full_solve(lp, pivot_tol=pivot_tol)

        monkeypatch.setattr(verify, "solve", full_pricing)
        full = estimate_kappa(p, b, spec, cert.mu, oracle_value)
        assert sifted == pytest.approx(full, abs=1e-9)
