"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Heavy artifacts (the refined solve, the value-iteration oracle, the two
rollouts) are session fixtures shared across criteria.  Every LP solved
while building them is logged so the duality and support criteria can
quantify over the whole suite.   Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time

import numpy as np
import pytest

import omcontrol as om
from omcontrol import (CandidateSpec, DualCertificate, GridSpec, MonomialBasis,
                       Rollout)
from omcontrol.verify import trajectory_residual_bound

SOLVE_LOG = []  # (label, primal value, mu, atom count, basis size)


def _log_solve(label, problem, measure, certificate, basis):
    SOLVE_LOG.append((label, measure.value(problem), certificate.mu,
                      len(measure), basis.count))


def _report(criterion, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------
# fixtures

@pytest.fixture(scope="session")
def example1():
    problem = om.builtin_problem("example1")
    basis = MonomialBasis(2, 7)
    history = []
    t0 = time.perf_counter()
    measure, certificate, rounds = om.solve_refined(
        problem, basis, GridSpec(state=(9, 9), control=(9, 9)),
        CandidateSpec(state=(33, 33), control=(9, 9), max_new_columns=32),
        tol=1e-6, max_rounds=60, history=history)
    elapsed = time.perf_counter() - t0
    for h in history:
        SOLVE_LOG.append((f"example1 round {h['round']}", h["value"], h["mu"],
                          h["atoms"], basis.count))
    return dict(problem=problem, basis=basis, measure=measure,
                certificate=certificate, rounds=rounds, history=history,
                elapsed=elapsed)


@pytest.fixture(scope="session")
def example1_oracle(example1):
    return om.value_iteration(example1["problem"], (41, 41), (21, 21), tol=1e-8)


@pytest.fixture(scope="session")
def example1_minimizer(example1):
    p = example1["problem"]
    policy = om.minimizer_policy(p, example1["basis"], example1["certificate"], (201, 201))
    roll = om.rollout(p, policy, steps=50)
    om.gap_certificate(roll, example1["certificate"])
    return roll


@pytest.fixture(scope="session")
def example1_heuristic(example1):
    p = example1["problem"]
    trimmed = om.discard_small_atoms(example1["measure"], 1e-2)
    roll = om.rollout(p, om.heuristic_policy(trimmed), steps=50)
    om.gap_certificate(roll, example1["certificate"])
    return dict(rollout=roll, trimmed=trimmed)


@pytest.fixture(scope="session")
def shift():
    problem = om.builtin_problem("shift", alpha=0.5, y0=0.4)
    basis = MonomialBasis(1, 3)
    t0 = time.perf_counter()
    history = []
    measure, certificate, rounds = om.solve_refined(
        problem, basis, GridSpec(state=(21,), control=(21,)),
        CandidateSpec(state=(41,), control=(41,)), tol=1e-9, max_rounds=20,
        pivot_tol=1e-12, history=history)
    _log_solve("shift refined", problem, measure, certificate, basis)
    policy = om.minimizer_policy(problem, basis, certificate, (21,))
    roll = om.rollout(problem, policy, steps=50)
    oracle = om.value_iteration(problem, (21,), (21,), tol=1e-10)
    elapsed = time.perf_counter() - t0
    return dict(problem=problem, basis=basis, measure=measure,
                certificate=certificate, rollout=roll, oracle=oracle,
                elapsed=elapsed)


# ---------------------------------------------------------------------------
# criteria

def test_criterion_1_example1_value(example1):
    scaled = example1["certificate"].mu / (1.0 - example1["problem"].discount)
    ok = -10.35 <= scaled <= -9.95 and example1["elapsed"] <= 300.0
    _report(1, ok, f"mu/(1-alpha) = {scaled:.4f} in [-10.35, -9.95], "
                   f"solve time {example1['elapsed']:.1f}s <= 300s "
                   f"({example1['rounds']} rounds)")


def test_criterion_2_example1_minimizer_rollout(example1_minimizer):
    roll = example1_minimizer
    value_ok = abs(roll.truncated_value - (-9.972)) <= 0.3
    first_ok = roll.controls[0, 0] == -1.0 and roll.controls[0, 1] == 1.0
    bang_ok = bool(np.all(np.abs(np.abs(roll.controls[2:]) - 1.0) <= 1e-12))
    period = om.control_pattern(roll, 2)
    ok = value_ok and first_ok and bang_ok and period == 8
    _report(2, ok, f"V = {roll.truncated_value:.4f} (ref -9.972 +/- 0.3), "
                   f"u(0) = {tuple(float(v) for v in roll.controls[0])}, "
                   f"bang-bang t>=2: {bang_ok}, period from t=2: {period}")


def test_criterion_3_example1_heuristic_rollout(example1_minimizer, example1_heuristic):
    hroll = example1_heuristic["rollout"]
    value_ok = abs(hroll.truncated_value - (-10.03)) <= 0.3
    gaps_ok = example1_minimizer.gap <= 0.35 and hroll.gap <= 0.35
    ok = value_ok and gaps_ok
    _report(3, ok, f"heuristic V = {hroll.truncated_value:.4f} (ref -10.03 +/- 0.3), "
                   f"gaps minimizer/heuristic = {example1_minimizer.gap:.3f}/"
                   f"{hroll.gap:.3f} <= 0.35")


def test_criterion_4_shift_exactness(shift):
    p, b = shift["problem"], shift["basis"]
    value = shift["measure"].value(p)
    lp_ok = abs(value - 0.2) <= 1e-3
    roll_ok = abs(shift["rollout"].truncated_value - 0.4) <= 1e-6

    cert, oracle, roll = shift["certificate"], shift["oracle"], shift["rollout"]
    residuals = [abs(value - cert.mu),
                 float(np.abs(om.measure_residuals(shift["measure"], b, p)).max())]
    rep = om.check_optimality_conditions(p, roll, cert, oracle, b)
    residuals += [float(rep.stationarity.max()), rep.value_agreement_std,
                  float(rep.hamiltonian.max())]
    residuals.append(om.check_psi_bound(cert, oracle, p, b))
    residuals.append(om.check_shifted_inequality(rep, cert, cert.mu / (1 - p.discount), p))
    residuals.append(abs(oracle(p.initial_state) - cert.mu / (1 - p.discount)))
    verify_ok = max(residuals) <= 1e-6
    time_ok = shift["elapsed"] <= 5.0
    ok = lp_ok and roll_ok and verify_ok and time_ok
    _report(4, ok, f"LP value err {abs(value - 0.2):.2e} <= 1e-3, "
                   f"rollout err {abs(shift['rollout'].truncated_value - 0.4):.2e} <= 1e-6, "
                   f"max verify residual {max(residuals):.2e} <= 1e-6, "
                   f"runtime {shift['elapsed']:.2f}s <= 5s")


def test_criterion_5_strong_duality_everywhere(example1, shift, example1_monotone):
    worst = max(abs(v - mu) for _, v, mu, _, _ in SOLVE_LOG)
    ok = worst <= 1e-6 and len(SOLVE_LOG) >= 10
    _report(5, ok, f"|primal - mu| <= {worst:.2e} over {len(SOLVE_LOG)} solved LPs")


def test_criterion_6_support_bound(example1, shift, example1_monotone):
    bound_ok = all(k <= n + 1 for _, _, _, k, n in SOLVE_LOG)
    trimmed = om.discard_small_atoms(example1["measure"], 1e-2)
    count_ok = 20 <= len(trimmed) <= 35
    ok = bound_ok and count_ok
    _report(6, ok, f"atom count <= N+1 on {len(SOLVE_LOG)} solves; "
                   f"example1 discard@1e-2 keeps {len(trimmed)} atoms in [20, 35]")


@pytest.fixture(scope="session")
def example1_monotone(example1):
    p = example1["problem"]
    grid = GridSpec(state=(17, 17), control=(9, 9))
    mus = []
    for deg in (1, 3, 5, 7):
        b = MonomialBasis(2, deg)
        measure, cert = om.solve(om.assemble(p, b, grid))
        _log_solve(f"example1 fixed-grid degree {deg}", p, measure, cert, b)
        mus.append(cert.mu)
    return mus


def test_criterion_7_monotonicity(example1_monotone):
    mus = np.array(example1_monotone)
    increments = np.diff(mus)
    nondecreasing = bool(np.all(increments >= -1e-8))
    shrinking = bool(np.all(np.diff(increments) <= 1e-8))
    ok = nondecreasing and shrinking
    _report(7, ok, f"mu over degrees 1,3,5,7 = {np.round(mus, 6).tolist()}, "
                   f"increments {np.round(increments, 6).tolist()} nondecreasing and shrinking")


def test_criterion_8_occupational_identity(example1, example1_minimizer):
    p, b = example1["problem"], example1["basis"]
    roll = example1_minimizer
    occ = om.occupational_measure(roll, p.discount)
    lhs = b.evaluate(occ.states).T @ occ.weights
    rhs = (1 - p.discount) * (b.evaluate(roll.states).T
                              @ p.discount ** np.arange(roll.horizon + 1.0))
    ident = float(np.abs(lhs - rhs).max())

    res = float(np.abs(om.measure_residuals(occ, b, p)).max())
    sample = p.state_region.grid((9, 9))
    bound = trajectory_residual_bound(
        p, b, roll.horizon,
        np.vstack([np.repeat(sample, 4, axis=0), occ.states]),
        np.vstack([np.tile(np.array([[1.0, 1], [1, -1], [-1, 1], [-1, -1]]),
                           (len(sample), 1)), occ.controls]))
    ok = ident <= 1e-12 and res <= bound
    _report(8, ok, f"two-sided identity agrees to {ident:.2e} <= 1e-12 on all "
                   f"{b.count} basis functions; trajectory residual {res:.2e} "
                   f"<= bound {bound:.2e}")


def test_criterion_9_oracle_bracket(example1, example1_oracle, shift):
    p = example1["problem"]
    v_oracle = example1_oracle(p.initial_state)
    scaled = example1["certificate"].mu / (1 - p.discount)
    ex1_ok = abs(v_oracle - scaled) <= 0.3
    backups = len(example1_oracle.sweep_diffs)  # plain value iteration takes 200


    sp = shift["problem"]
    shift_diff = abs(shift["oracle"](sp.initial_state)
                     - shift["certificate"].mu / (1 - sp.discount))
    ok = ex1_ok and backups <= 12 and shift_diff <= 1e-9
    _report(9, ok, f"example1 oracle {v_oracle:.4f} vs mu/(1-alpha) {scaled:.4f} "
                   f"(diff {abs(v_oracle - scaled):.3f} <= 0.3) after {backups} <= 12 "
                   f"full backups; shift diff {shift_diff:.2e} <= 1e-9")


def test_criterion_10_optimality_conditions(example1, example1_oracle,
                                            example1_heuristic, shift):
    # shift with the exact max-min solution psi = g: all residuals vanish
    sp, sb = shift["problem"], shift["basis"]
    lam = np.zeros(sb.count)
    lam[sb.index_of((1,))] = 1.0
    exact = DualCertificate(lam=lam, mu=(1 - sp.discount) * 0.4)
    srep = om.check_optimality_conditions(sp, shift["rollout"], exact, shift["oracle"], sb)
    shift_worst = max(float(srep.stationarity.max()), srep.value_agreement_std,
                      float(srep.hamiltonian.max()))

    # example1 along the atom-tracking rollout
    p, b = example1["problem"], example1["basis"]
    roll = example1_heuristic["rollout"]
    rep = om.check_optimality_conditions(p, roll, example1["certificate"],
                                         example1_oracle, b)
    ex1_worst = max(float(rep.stationarity.max()), rep.value_agreement_std,
                    float(rep.hamiltonian.max()))
    nonneg = float(rep.stationarity.min()) >= 0.0

    # a single-step control perturbation must strictly raise the residual there
    perturbed = Rollout(states=roll.states.copy(), controls=roll.controls.copy(),
                        truncated_value=roll.truncated_value,
                        truncation_bound=roll.truncation_bound, discount=roll.discount)
    perturbed.controls[3] = -perturbed.controls[3]
    prep = om.check_optimality_conditions(p, perturbed, example1["certificate"],
                                          example1_oracle, b)
    perturb_ok = prep.stationarity[3] > rep.stationarity[3] + 1e-6

    ok = shift_worst <= 1e-12 and ex1_worst <= 0.15 and nonneg and perturb_ok
    _report(10, ok, f"shift residuals {shift_worst:.2e} <= 1e-12; example1 "
                    f"residuals {ex1_worst:.3f} <= 0.15; perturbation at t=3 raises "
                    f"stationarity {rep.stationarity[3]:.4f} -> {prep.stationarity[3]:.4f}")
