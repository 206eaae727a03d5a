import functools
import hashlib
import tracemalloc

import numpy as np
import pytest

from omcontrol import (AssumptionIIViolation, AtomicMeasure, DualCertificate,
                       MonomialBasis, Rollout, RolloutAborted, builtin_problem,
                       control_pattern, gap_certificate, heuristic_control,
                       heuristic_policy, minimizer_control, minimizer_policy,
                       model, rollout, synthesis)
from omcontrol.synthesis import (cost_bound, read_trajectory_csv,
                                 truncation_horizon, write_trajectory_csv,
                                 write_trajectory_svg)

# concentration-point sample used as plain fixture data for the nearest-atom rule
ATOM_TABLE = [
    (-0.5375, -0.875, 1.0, -1.0, 0.0913),
    (0.5, 0.25, -1.0, 1.0, 0.0820),
    (0.7625, -0.4875, 1.0, 1.0, 0.0642),
    (-0.775, 0.05, 1.0, -1.0, 0.0538),
    (0.8875, -0.5625, 1.0, 1.0, 0.0536),
    (-0.0875, -0.75, 1.0, 1.0, 0.0525),
]


def atom_fixture():
    arr = np.array(ATOM_TABLE)
    return AtomicMeasure(states=arr[:, :2].copy(), controls=arr[:, 2:4].copy(),
                         weights=arr[:, 4].copy())


def zero_certificate(n):
    return DualCertificate(lam=np.zeros(n), mu=0.0)


class TestMinimizerPolicy:
    def test_searches_once_per_distinct_state(self, monkeypatch):
        # psi(u) = u - u^2/2 + u^3/4 increases on [0, 1], so from 0.4 the minimizer
        # moves shift to its steady state y = 0 at t = 1 and keeps it there: two states
        p = builtin_problem("shift", alpha=0.5, y0=0.4)
        b = MonomialBasis(1, 3)
        cert = DualCertificate(lam=np.array([0.0, 1.0, -0.5, 0.25]), mu=0.0)
        direct = rollout(p, lambda y: minimizer_control(p, b, cert, y, (101,)), steps=50)
        searched = []
        search = synthesis.minimizer_control

        def counted(*args, **kwargs):
            searched.append(args[3])
            return search(*args, **kwargs)

        monkeypatch.setattr(synthesis, "minimizer_control", counted)
        cached = rollout(p, minimizer_policy(p, b, cert, (101,)), steps=50)
        assert len(searched) == 2
        assert cached.states.tobytes() == direct.states.tobytes()
        assert cached.controls.tobytes() == direct.controls.tobytes()
        assert np.unique(direct.states).tolist() == [0.0, 0.4]

    def test_returns_a_copy(self):
        p = builtin_problem("shift", alpha=0.5, y0=0.4)
        b = MonomialBasis(1, 1)
        policy = minimizer_policy(p, b, zero_certificate(b.count), (5,))
        u = policy(np.array([0.4]))
        u[0] = 7.0
        np.testing.assert_array_equal(policy(np.array([0.4])), [0.0])


class TestMinimizerControl:
    def test_myopic_corner_with_zero_surrogate(self):
        # psi = 0 reduces to minimizing -0.5 u2 + 0.25 u1 over the box: corner (-1, 1)
        p = builtin_problem("example1")
        b = MonomialBasis(2, 3)
        u = minimizer_control(p, b, zero_certificate(b.count), [0.5, 0.25], (9, 9))
        np.testing.assert_array_equal(u, [-1.0, 1.0])

    def test_tie_break_is_lexicographic(self):
        # zero cost and zero surrogate tie every control; smallest wins
        from omcontrol import Box, DiscreteControlProblem
        p = DiscreteControlProblem(
            state_dim=1, dynamics=lambda y, u: 0.0 * y, cost=lambda y, u: 0.0 * y[..., 0],
            state_region=Box([-1.0], [1.0]), control_region=Box([-1.0], [1.0]),
            discount=0.5, initial_state=[0.0])
        b = MonomialBasis(1, 1)
        u = minimizer_control(p, b, zero_certificate(b.count), [0.0], (5,))
        np.testing.assert_array_equal(u, [-1.0])

    def test_deterministic(self):
        p = builtin_problem("example1")
        b = MonomialBasis(2, 5)
        cert = DualCertificate(lam=np.linspace(-0.5, 0.5, b.count), mu=0.0)
        a = minimizer_control(p, b, cert, [0.3, -0.4], (17, 17))
        c = minimizer_control(p, b, cert, [0.3, -0.4], (17, 17))
        np.testing.assert_array_equal(a, c)


    def test_inadmissible_controls_are_skipped(self):
        # f = y + u on [0, 1]: at y = 0.5 only u in [-0.5, 0.5] is admissible,
        # so the cost u is least at -0.5, not at the grid's -1
        from omcontrol import Box, DiscreteControlProblem
        p = DiscreteControlProblem(
            state_dim=1, dynamics=lambda y, u: y + u, cost=lambda y, u: u[..., 0],
            state_region=Box([0.0], [1.0]), control_region=Box([-1.0], [1.0]),
            discount=0.5, initial_state=[0.5])
        b = MonomialBasis(1, 1)
        u = minimizer_control(p, b, zero_certificate(b.count), [0.5], (5,))
        np.testing.assert_array_equal(u, [-0.5])

    def test_no_admissible_control_raises(self):
        from omcontrol import AssumptionIViolation, Box, DiscreteControlProblem
        p = DiscreteControlProblem(
            state_dim=1, dynamics=lambda y, u: y + u, cost=lambda y, u: u[..., 0],
            state_region=Box([0.0], [1.0]), control_region=Box([0.5], [1.0]),
            discount=0.5, initial_state=[0.0])
        b = MonomialBasis(1, 1)
        with pytest.raises(AssumptionIViolation) as err:
            minimizer_control(p, b, zero_certificate(b.count), [0.8], (3,))
        assert err.value.state == (0.8,)

    def test_rollout_table_memory_on_example1(self):
        # the successors of y0 over example1's 201^2 rollout grid repeat their first 201 last
        # coordinates bit for bit, so Horner's rule contracts that axis once per period: one
        # table peaked at 1.89 MiB; gathering an (8, 40,401) array per point read 3.74 MiB
        p = builtin_problem("example1")
        b = MonomialBasis(2, 7)
        cert = DualCertificate(lam=np.random.default_rng(7).uniform(-1.0, 1.0, b.count), mu=0.0)
        psi = functools.partial(cert.psi, b)
        grid = model.control_grid_points(p, (201,))
        y0 = p.initial_state[None]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            table = model.one_step_table(p, psi, y0, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.shape == (1, 201 * 201)
        assert (peak - base) / 2**20 < 2.5


class TestHeuristicControl:
    def test_exact_atom_hit(self):
        u = heuristic_control(atom_fixture(), [0.5, 0.25])
        np.testing.assert_array_equal(u, [-1.0, 1.0])

    def test_nearest_atom(self):
        # nearest to (0.75, -0.375) is (0.7625, -0.4875) carrying control (1, 1)
        u = heuristic_control(atom_fixture(), [0.75, -0.375])
        np.testing.assert_array_equal(u, [1.0, 1.0])

    def test_single_atom_measure(self):
        m = AtomicMeasure(states=np.array([[0.2, 0.1]]), controls=np.array([[0.5, -0.5]]),
                          weights=np.array([1.0]))
        for y in ([0.0, 0.0], [0.9, -0.9]):
            np.testing.assert_array_equal(heuristic_control(m, y), [0.5, -0.5])

    def test_extension_property(self):
        # restricted to atom states the rule reproduces the atom controls exactly
        m = atom_fixture()
        for k in range(len(m)):
            np.testing.assert_array_equal(heuristic_control(m, m.states[k]), m.controls[k])

    def test_weight_breaks_distance_ties(self):
        m = AtomicMeasure(states=np.array([[-1.0], [1.0]]), controls=np.array([[0.2], [0.8]]),
                          weights=np.array([0.3, 0.7]))
        np.testing.assert_array_equal(heuristic_control(m, [0.0]), [0.8])

    def test_duplicate_state_same_control_is_fine(self):
        m = AtomicMeasure(states=np.array([[0.5], [0.5]]), controls=np.array([[0.2], [0.2]]),
                          weights=np.array([0.5, 0.5]))
        np.testing.assert_array_equal(heuristic_control(m, [0.5]), [0.2])

    def test_duplicate_state_different_control_raises_when_selected(self):
        m = AtomicMeasure(states=np.array([[0.5], [0.5], [0.9]]),
                          controls=np.array([[0.2], [0.7], [0.1]]),
                          weights=np.array([0.6, 0.4, 0.1]))
        with pytest.raises(AssumptionIIViolation):
            heuristic_control(m, [0.45])
        # the duplicate pair is irrelevant while another atom is strictly nearer
        np.testing.assert_array_equal(heuristic_control(m, [0.95]), [0.1])


class TestRollout:
    def test_shift_optimal_policy_value_exact(self):
        p = builtin_problem("shift", alpha=0.5, y0=0.4)
        roll = rollout(p, lambda y: np.array([0.0]), steps=30)
        assert roll.truncated_value == 0.4  # costs vanish after t = 0
        np.testing.assert_array_equal(roll.states[1:], np.zeros((30, 1)))

    def test_states_chain_under_dynamics(self):
        p = builtin_problem("example1")
        b = MonomialBasis(2, 3)
        roll = rollout(p, minimizer_policy(p, b, zero_certificate(b.count), (5, 5)), steps=12)
        for t in range(roll.horizon):
            np.testing.assert_allclose(roll.states[t + 1],
                                       p.f(roll.states[t], roll.controls[t]), atol=1e-15)
            assert p.state_region.contains(roll.states[t + 1])

    def test_horizon_from_epsilon(self):
        # alpha^(T+1)/(1-alpha)*G <= eps with alpha = 0.5, G = 1: T = 6 for eps = 0.02
        assert truncation_horizon(0.5, 1.0, 0.02) == 6
        p = builtin_problem("shift", alpha=0.5, y0=0.4)
        roll = rollout(p, lambda y: np.array([0.0]), epsilon=0.02)
        assert roll.horizon == 6
        assert roll.truncation_bound <= 0.02

    def test_backward_accumulation_matches_forward(self):
        p = builtin_problem("example1")
        b = MonomialBasis(2, 3)
        roll = rollout(p, minimizer_policy(p, b, zero_certificate(b.count), (5, 5)), steps=25)
        costs = p.g(roll.states, roll.controls)
        horner = 0.0
        for t in range(roll.horizon, -1, -1):  # independent backward evaluation
            horner = costs[t] + p.discount * horner
        assert abs(horner - roll.truncated_value) <= 1e-12

    def test_policy_failure_aborts_with_partial(self):
        # fine at t = 0 (unique nearest atom), ill-defined once the state hits 0
        p = builtin_problem("shift", alpha=0.5, y0=0.4)
        m = AtomicMeasure(states=np.array([[0.4], [0.0], [0.0]]),
                          controls=np.array([[0.0], [0.1], [0.9]]),
                          weights=np.array([0.4, 0.3, 0.3]))
        with pytest.raises(RolloutAborted) as err:
            rollout(p, heuristic_policy(m), steps=10)
        assert len(err.value.rollout.states) == 1
        assert isinstance(err.value.cause, AssumptionIIViolation)

    def test_failure_at_t0_aborts_with_an_empty_rollout(self, tmp_path):
        # no step taken: the partial rollout still has (0, m) states and (0, d) controls,
        # so the trajectory file is its header and the NaN footer alone
        p = builtin_problem("example1")

        def fails(y):
            raise AssumptionIIViolation("ill-defined at y0")

        with pytest.raises(RolloutAborted, match="after 0 steps") as err:
            rollout(p, fails, steps=10)
        part = err.value.rollout
        assert part.states.shape == (0, 2) and part.controls.shape == (0, 2)
        write_trajectory_csv(tmp_path / "t.csv", part, {"problem": "example1"})
        assert (tmp_path / "t.csv").read_text() == (
            "t,y1,y2,u1,u2\n# truncated_value,nan\n# truncation_bound,nan\n"
            '# run,{"problem": "example1"}\n')

    def test_cost_bound_example1(self):
        assert cost_bound(builtin_problem("example1")) == pytest.approx(2.0)


class TestGapAndPattern:
    def test_gap_zero_when_value_matches(self):
        roll = Rollout(states=np.zeros((2, 1)), controls=np.zeros((2, 1)),
                       truncated_value=0.4, truncation_bound=0.0, discount=0.5)
        cert = DualCertificate(lam=np.zeros(3), mu=0.2)
        assert gap_certificate(roll, cert) == 0.0
        assert roll.gap == 0.0

    def test_constant_sequence_has_period_one(self):
        u = np.tile(np.array([[1.0, -1.0]]), (12, 1))
        roll = Rollout(states=np.zeros((12, 2)), controls=u,
                       truncated_value=0.0, truncation_bound=0.0, discount=0.9)
        assert control_pattern(roll, 0) == 1

    def test_synthetic_period_detection(self):
        cycle = np.array([[1.0], [2.0], [3.0]])
        u = np.vstack([np.array([[9.0]]), np.tile(cycle, (5, 1))])
        roll = Rollout(states=np.zeros((len(u), 1)), controls=u,
                       truncated_value=0.0, truncation_bound=0.0, discount=0.9)
        assert control_pattern(roll, 1) == 3
        assert control_pattern(roll, 0) is None

    def test_reference_bang_bang_cycle_has_period_eight(self):
        cycle = np.array([
            [1, 1], [1, 1], [1, -1], [1, -1], [-1, -1], [-1, -1], [-1, 1], [-1, 1],
        ], dtype=float)
        u = np.vstack([np.array([[-1.0, 1.0], [-0.552, 1.0]]), np.tile(cycle, (7, 1))])[:51]
        roll = Rollout(states=np.zeros((51, 2)), controls=u,
                       truncated_value=0.0, truncation_bound=0.0, discount=0.9)
        assert control_pattern(roll, 2) == 8

    def test_aperiodic_returns_none(self):
        u = np.array([[0.0], [1.0], [0.0], [0.0], [1.0], [1.0]])
        roll = Rollout(states=np.zeros((6, 1)), controls=u,
                       truncated_value=0.0, truncation_bound=0.0, discount=0.9)
        assert control_pattern(roll, 0) is None


class TestExports:
    def make_rollout(self):
        p = builtin_problem("example1")
        b = MonomialBasis(2, 3)
        roll = rollout(p, minimizer_policy(p, b, zero_certificate(b.count), (5, 5)), steps=10)
        roll.gap = 0.5
        return roll

    def test_csv_roundtrip(self, tmp_path):
        roll = self.make_rollout()
        path = tmp_path / "traj.csv"
        stamp = {"problem": "example1", "alpha": 0.9, "y0": [0.5, 0.25], "degree": 3}
        write_trajectory_csv(path, roll, stamp)
        text = path.read_text()
        assert text.splitlines()[0] == "t,y1,y2,u1,u2"
        assert len([l for l in text.splitlines() if not l.startswith("#") and l]) == 12
        states, controls, meta = read_trajectory_csv(path)
        assert states.shape == (11, 2) and controls.shape == (11, 2)
        assert meta["truncated_value"] == pytest.approx(roll.truncated_value, rel=1e-5)
        assert meta["gap"] == pytest.approx(0.5)
        assert meta["run"] == stamp
        # six significant digits stored
        np.testing.assert_allclose(states, roll.states, atol=1e-5)

    def test_csv_deterministic(self, tmp_path):
        roll = self.make_rollout()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trajectory_csv(a, roll, {"problem": "example1"})
        write_trajectory_csv(b, roll, {"problem": "example1"})
        assert a.read_bytes() == b.read_bytes()

    def test_svg_structure(self, tmp_path):
        roll = self.make_rollout()
        path = tmp_path / "traj.svg"
        write_trajectory_svg(path, roll, atom_fixture())
        text = path.read_text()
        assert text.startswith("<svg")
        assert "<polyline" in text
        assert text.count("<circle") == len(ATOM_TABLE)

    @pytest.mark.parametrize("m,atoms,digest", [
        (1, "atoms", "e972d56f0c67b47a83bec0f34a1d08ddb33b27e64be2aba9aed71c4a10f412a7"),
        (1, None, "cb981ea6bb24e9783959a07d08d9d9b5feaa6c53ff964d8522d9fe283a811e38"),
        (1, "empty", "cb981ea6bb24e9783959a07d08d9d9b5feaa6c53ff964d8522d9fe283a811e38"),
        (1, "still", "d2fe37fb78b10838b68eda1a91a8e3a7613343304f9201719d6b8dd441e0a721"),
        (2, "atoms", "69b744e7219a42428d06de472b9c6638bda226025106c02a84b74e1b04cdb842"),
        (2, None, "9f18a8e2ef029ec34550e0f152cde43ebe2fa284a3d9250e879894cfd29bf2d0"),
        (2, "empty", "9f18a8e2ef029ec34550e0f152cde43ebe2fa284a3d9250e879894cfd29bf2d0"),
        (2, "still", "c3e272ffba3b193437dd3bf2ea0860d92940fafb5d75b655b97b4b7e093b9977"),
    ])
    def test_svg_bytes(self, tmp_path, m, atoms, digest):
        # "still": a trajectory that never moves and no atoms, so both spans are 0
        paths = {1: [[0.4], [0.15], [-0.05], [-0.3], [0.2], [0.65]],
                 2: [[0.5, 0.25], [0.1, -0.3], [-0.45, 0.05], [-0.2, 0.6], [0.3, 0.9],
                     [0.85, -0.7]]}
        states = np.array([[0.3, -0.2][:m]] * 4 if atoms == "still" else paths[m])
        roll = Rollout(states=states, controls=np.zeros_like(states), truncated_value=0.0,
                       truncation_bound=0.0, discount=0.5)
        measure = {
            "atoms": atom_fixture() if m == 2 else AtomicMeasure(
                states=np.array([[0.2], [0.9], [-0.4]]), controls=np.zeros((3, 1)),
                weights=np.array([0.5, 0.3, 0.2])),
            "empty": AtomicMeasure(states=np.empty((0, m)), controls=np.empty((0, m)),
                                   weights=np.empty(0)),
        }.get(atoms)
        path = tmp_path / "traj.svg"
        write_trajectory_svg(path, roll, measure)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_svg_one_dimensional(self, tmp_path):
        p = builtin_problem("shift", alpha=0.5, y0=0.4)
        roll = rollout(p, lambda y: np.array([0.0]), steps=5)
        path = tmp_path / "traj1d.svg"
        write_trajectory_svg(path, roll)
        assert "<polyline" in path.read_text()
