import collections
import dataclasses
import functools
import inspect
import json
import tracemalloc

import numpy as np
import pytest

from omcontrol import (AtomicMeasure, Box, CandidateSpec, DiscreteControlProblem,
                       EmptyMeasure, GridSpec, InsufficientGrid, MonomialBasis,
                       NonConverged, assemble, builtin_problem, discard_small_atoms,
                       reduced_costs, solve, solve_refined)
from omcontrol import AssumptionIViolation, LpInfeasible, LpUnbounded, SolverStalled, model, silp, verify
from omcontrol.basis import constraint_columns
from omcontrol.silp import select_certificate, solution_from_json, solution_to_json


COARSE = np.array([0.0, 0.25, 0.5, 0.75, 1.0])


def shift_problem():
    return builtin_problem("shift", alpha=0.5, y0=0.4)


def several_rounds():
    """solve_refined's leading arguments for a run of 5 rounds at tol 1e-9."""
    return (shift_problem(), MonomialBasis(1, 3), GridSpec(state=COARSE, control=COARSE),
            CandidateSpec(state=(41,), control=(41,), max_new_columns=2))


class TestAssemble:
    def test_example1_counts(self):
        p = builtin_problem("example1")
        lp = assemble(p, MonomialBasis(2, 7), GridSpec(state=(9, 9), control=(9, 9)))
        assert lp.n_columns == 6561
        assert lp.n_rows == 64
        np.testing.assert_array_equal(lp.rhs, np.eye(64)[-1])

    def test_shift_counts(self):
        p = shift_problem()
        lp = assemble(p, MonomialBasis(1, 1),
                      GridSpec(state=np.array([0.0, 0.5, 1.0]), control=np.array([0.0, 0.5, 1.0])))
        assert lp.n_columns == 9
        assert lp.n_rows == 2

    def test_insufficient_grid(self):
        p = shift_problem()
        with pytest.raises(InsufficientGrid):
            assemble(p, MonomialBasis(1, 3),
                     GridSpec(state=np.array([0.4]), control=np.array([0.0, 1.0])))

    def test_inadmissible_states_contribute_no_columns(self):
        # f(y, u) = y + u on [0, 1]: at y = 1 only u = -0.5 survives
        from omcontrol import Box, DiscreteControlProblem
        p = DiscreteControlProblem(
            state_dim=1, dynamics=lambda y, u: y + u, cost=lambda y, u: y[..., 0],
            state_region=Box([0.0], [1.0]), control_region=Box([-1.0], [1.0]),
            discount=0.5, initial_state=[0.5])
        lp = assemble(p, MonomialBasis(1, 0),
                      GridSpec(state=np.array([0.0, 1.0]), control=np.array([-0.5, 0.5])))
        # (0,0.5), (1,-0.5) admissible; (0,-0.5), (1,0.5) filtered
        assert lp.n_columns == 2

    def test_state_without_admissible_control_is_skipped(self):
        # at y = 1 no grid control keeps y + u in [0, 1]; the LP is built from y = 0 alone
        from omcontrol import Box, DiscreteControlProblem
        p = DiscreteControlProblem(
            state_dim=1, dynamics=lambda y, u: y + u, cost=lambda y, u: y[..., 0],
            state_region=Box([0.0], [1.0]), control_region=Box([-1.0], [1.0]),
            discount=0.5, initial_state=[0.5])
        lp = assemble(p, MonomialBasis(1, 0),
                      GridSpec(state=np.array([0.0, 1.0]), control=np.array([0.25, 0.5])))
        np.testing.assert_array_equal(lp.states[:, 0], [0.0, 0.0])
        np.testing.assert_array_equal(lp.controls[:, 0], [0.25, 0.5])

    def test_deterministic_column_order(self):
        p = builtin_problem("example1")
        a = assemble(p, MonomialBasis(2, 3), GridSpec(state=(5, 5), control=(5, 5)))
        b = assemble(p, MonomialBasis(2, 3), GridSpec(state=(5, 5), control=(5, 5)))
        assert np.array_equal(a.matrix, b.matrix)
        assert np.array_equal(a.states, b.states)

    @pytest.mark.parametrize("make, degree, grid, block, room", [
        # 6,561 pairs in blocks of 12 states (972 pairs), the last one short
        (lambda: builtin_problem("example1"), 7, (9, 9), None, 0),
        # shift-dense's base LP: 160,801 pairs in blocks of 18 states (7,218 pairs), with
        # solve_refined's room
        (lambda: builtin_problem("shift"), 8, (401,), None, 632),
        # blocks of one state's 41 pairs over the 841 admissible ones of 41 x 41
        (lambda: drift_problem(), 3, (41,), 37, 5),
    ], ids=["example1", "shift-dense", "drift"])
    def test_blocks_match_one_pass_bitwise(self, monkeypatch, make, degree, grid, block, room):
        if block is not None:
            monkeypatch.setattr(model, "_SCAN_CHUNK", block)
        p = make()
        b = MonomialBasis(p.state_dim, degree)
        spec = GridSpec(state=grid, control=grid)
        lp = assemble(p, b, spec, room)
        assert lp.n_columns > max(1, model._SCAN_CHUNK // b.count)  # more than one block
        assert same_arrays(lp, one_pass_assembly(p, b, spec))
        np.testing.assert_array_equal(lp.rhs, np.eye(b.count)[-1])

    def test_peak_memory_with_room_on_shift_dense(self):
        # shift-dense's base LP with solve_refined's room.  One pass over all pairs peaked
        # at 28.3 MiB: constraint_columns' two (160,801, 9) arrays, the stacked matrix and
        # its copy into the buffer, with the pair grid's (160,801,) arrays of 1.2 MiB each.
        # In blocks, less than two such arrays come on top of the LP's 14.8 MiB.
        p = builtin_problem("shift")
        spec = GridSpec(state=(401,), control=(401,))
        lp, peak = traced_peak_mib(lambda: assemble(p, MonomialBasis(1, 8), spec, 632))
        assert lp.n_columns == 160_801
        # the views' bases are the LP's own arrays, room included
        lp_mib = sum(a.base.nbytes for a in (lp.matrix, lp.states, lp.controls, lp.cost)) / 2**20
        assert 14.5 < lp_mib < 15.0
        assert peak <= lp_mib + 2.0


class TestSolve:
    def test_shift_closed_form_value(self):
        # optimal measure (1-a) at (y0, 0) plus a at (0, 0): value (1-a)*g(y0) = 0.2
        p = shift_problem()
        lp = assemble(p, MonomialBasis(1, 3), GridSpec(state=(21,), control=(21,)))
        measure, cert = solve(lp)
        assert measure.value(p) == pytest.approx(0.2, abs=1e-9)
        assert abs(measure.value(p) - cert.mu) <= 1e-6
        assert measure.total_weight == pytest.approx(1.0, abs=1e-9)

    def test_shift_unique_atoms_deg3(self):
        # with three moments matched the optimal measure is unique:
        # 0.5 at (0.4, 0) and 0.5 at (0, 0)
        p = shift_problem()
        lp = assemble(p, MonomialBasis(1, 3), GridSpec(state=(21,), control=(21,)))
        measure, _ = solve(lp)
        rows = sorted((float(measure.states[k, 0]), float(measure.controls[k, 0]),
                       float(measure.weights[k])) for k in range(len(measure)))
        kept = [r for r in rows if r[2] > 1e-9]
        assert len(kept) == 2
        assert kept[0] == pytest.approx((0.0, 0.0, 0.5), abs=1e-9)
        assert kept[1] == pytest.approx((0.4, 0.0, 0.5), abs=1e-9)

    def test_single_column_forced_solution(self):
        # one admissible fixed point: the measure is that atom with weight one
        from omcontrol import Box, DiscreteControlProblem
        p = DiscreteControlProblem(
            state_dim=1, dynamics=lambda y, u: y + u, cost=lambda y, u: y[..., 0] + 2.0,
            state_region=Box([0.0], [1.0]), control_region=Box([-1.0], [5.0]),
            discount=0.5, initial_state=[0.5])
        lp = assemble(p, MonomialBasis(1, 0),
                      GridSpec(state=np.array([0.5]), control=np.array([0.0, 5.0])))
        assert lp.n_columns == 1
        measure, cert = solve(lp)
        assert len(measure) == 1
        assert measure.weights[0] == pytest.approx(1.0)
        assert cert.mu == pytest.approx(2.5)

    def test_support_bound(self):
        p = builtin_problem("example1")
        for deg in (1, 3, 5):
            b = MonomialBasis(2, deg)
            measure, _ = solve(assemble(p, b, GridSpec(state=(9, 9), control=(5, 5))))
            assert len(measure) <= b.count + 1

    def test_dual_feasibility_and_slackness_on_grid(self):
        p = shift_problem()
        b = MonomialBasis(1, 3)
        lp = assemble(p, b, GridSpec(state=(21,), control=(21,)))
        measure, cert = solve(lp)
        rc = reduced_costs(p, b, cert, lp.states, lp.controls)
        assert rc.min() >= -1e-8
        atom_rc = reduced_costs(p, b, cert, measure.states, measure.controls)
        np.testing.assert_allclose(atom_rc, 0.0, atol=1e-8)

    def test_monotone_in_degree_on_fixed_grid(self):
        p = shift_problem()
        grid = GridSpec(state=(21,), control=(21,))
        mus = [solve(assemble(p, MonomialBasis(1, deg), grid))[1].mu for deg in (1, 2, 3)]
        assert np.all(np.diff(mus) >= -1e-8)


class TestRefine:
    def test_converged_when_tolerance_huge(self):
        p = shift_problem()
        b = MonomialBasis(1, 3)
        history = []
        _, _, rounds = solve_refined(p, b, GridSpec(state=(21,), control=(21,)),
                                     CandidateSpec(state=(41,), control=(41,)),
                                     tol=np.inf, history=history)
        assert rounds == 1  # the first scan appends no column
        assert len(history) == 1

    def test_refinement_recovers_missing_initial_atom(self):
        # coarse states miss y0 = 0.4; the candidate lattice contains it and the
        # unique optimal measure charges (0.4, 0), so refinement must add it
        p = shift_problem()
        b = MonomialBasis(1, 3)
        coarse = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        cand = CandidateSpec(state=(41,), control=(41,), max_new_columns=8)
        history = []
        # raises NonConverged unless the candidate set certifies within 20 rounds
        measure, _, _ = solve_refined(p, b, GridSpec(state=coarse, control=coarse), cand,
                                      tol=1e-9, max_rounds=20, history=history)
        values = [record["value"] for record in history]
        assert history[-1]["max_violation"] <= 1e-9
        assert values[0] > 0.2 + 1e-6          # the coarse grid is strictly worse
        assert values[-1] == pytest.approx(0.2, abs=1e-9)
        assert np.all(np.diff(values) <= 1e-9)  # column addition never increases the min
        hit = np.min(np.abs(measure.states[:, 0] - 0.4)
                     + np.abs(measure.controls[:, 0]))
        assert hit <= 1e-9

    def test_solve_refined_driver(self):
        p = shift_problem()
        b = MonomialBasis(1, 3)
        history = []
        measure, cert, rounds = solve_refined(
            p, b, GridSpec(state=(21,), control=(21,)),
            CandidateSpec(state=(41,), control=(41,)), tol=1e-9, max_rounds=10,
            history=history)
        assert rounds == 1  # the base grid already certifies
        assert cert.mu == pytest.approx(0.2, abs=1e-9)
        assert history[0]["max_violation"] <= 1e-9

    def test_max_rounds_guard(self):
        p = shift_problem()
        with pytest.raises(ValueError):
            solve_refined(p, MonomialBasis(1, 3), GridSpec(state=(21,), control=(21,)),
                          CandidateSpec(state=(41,), control=(41,)), max_rounds=0)

    @pytest.mark.parametrize("batch", [0, -2])
    def test_batch_guard(self, batch):
        # 0 would re-solve the same LP every round; -2 would overrun the column buffer
        with pytest.raises(ValueError, match="max_new_columns"):
            solve_refined(shift_problem(), MonomialBasis(1, 3),
                          GridSpec(state=(21,), control=(21,)),
                          CandidateSpec(state=(41,), control=(41,), max_new_columns=batch))

    def test_nonconverged_carries_best(self):
        p = shift_problem()
        b = MonomialBasis(1, 3)
        coarse = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        with pytest.raises(NonConverged) as err:
            solve_refined(p, b, GridSpec(state=coarse, control=coarse),
                          CandidateSpec(state=(41,), control=(41,), max_new_columns=1),
                          tol=1e-12, max_rounds=1)
        assert err.value.rounds == 1
        assert err.value.certificate is not None

    def test_history_records_pivots_warm_start_and_margin(self):
        p = shift_problem()
        b = MonomialBasis(1, 3)
        coarse = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        history = []
        solve_refined(p, b, GridSpec(state=coarse, control=coarse),
                      CandidateSpec(state=(41,), control=(41,)), tol=1e-9,
                      max_rounds=20, history=history)
        assert len(history) > 1
        assert [r["warm"] for r in history] == [False] + [True] * (len(history) - 1)
        assert all(isinstance(r["pivots"], int) for r in history)
        assert history[-1]["margin"] > 0.0  # two atoms for four rows: selection ran

    def test_round_off_below_the_floor_keeps_the_start_warm(self):
        # shift at degree 9 on 401-point grids from y0 = 0.7: round 2's basis reads x_B
        # down to -1.1e-9 in round 3, past -pivot_tol by round-off alone.  Refused as a
        # start, round 3 went cold and ended on a basis whose point missed its rows by
        # 3.7e-9, so the final residual check stopped the solve there
        history = []
        _, certificate, _ = solve_refined(
            builtin_problem("shift", alpha=0.5, y0=0.7), MonomialBasis(1, 9),
            GridSpec(state=(401,), control=(401,)),
            CandidateSpec(state=(801,), control=(801,), max_new_columns=8),
            tol=1e-6, max_rounds=80, pivot_tol=1e-9, history=history)
        assert [r["warm"] for r in history] == [False] + [True] * (len(history) - 1)
        assert certificate.mu / 0.5 == pytest.approx(0.7, abs=1e-9)

    def test_lp_failure_in_a_later_round_keeps_the_last_round(self, monkeypatch):
        args = several_rounds()
        p = args[0]
        history = []
        solve_refined(*args, tol=1e-9, max_rounds=20, history=history)
        assert len(history) > 3 and history[2]["margin"] is None  # round 3 runs no selection
        lp_solve, calls = silp.solve_equality_lp, []

        def stalls_third(*a, **k):
            calls.append(None)
            if len(calls) == 3:
                raise SolverStalled("pivot budget 7 exhausted")
            return lp_solve(*a, **k)

        monkeypatch.setattr(silp, "solve_equality_lp", stalls_third)
        stopped = []
        with pytest.raises(NonConverged) as err:
            solve_refined(*args, tol=1e-9, max_rounds=20, history=stopped)
        assert stopped == history[:2]
        assert err.value.rounds == 2
        assert isinstance(err.value.__cause__, SolverStalled)
        assert "round 3" in str(err.value) and "pivot budget 7 exhausted" in str(err.value)
        assert err.value.certificate.mu == history[1]["mu"]
        assert err.value.measure.value(p) == history[1]["value"]

    @pytest.mark.parametrize("error", [SolverStalled, LpInfeasible, LpUnbounded])
    def test_lp_failure_in_round_one_is_raised_as_is(self, monkeypatch, error):
        def fails(*a, **k):
            raise error("round one")

        monkeypatch.setattr(silp, "solve_equality_lp", fails)
        with pytest.raises(error):
            solve_refined(*several_rounds(), max_rounds=5)


def traced_peak_mib(fn):
    """``fn()`` and the peak of the memory tracemalloc sees it allocate, in MiB."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, (peak - base) / 2**20


def one_pass_assembly(problem, basis, grid_spec):
    """Reference LP arrays: every admissible pair's columns from one constraint_columns call."""
    states, controls, _, mask = model.pair_grid(
        problem, model.state_grid_points(problem, grid_spec.state),
        model.control_grid_points(problem, grid_spec.control))
    states, controls = states[mask.ravel()], controls[mask.ravel()]
    cols = constraint_columns(basis, problem, states, controls)[1:]
    return (states, controls, problem.g(states, controls),
            np.vstack([cols, np.ones((1, states.shape[0]))]))


def stacked(lp, problem, basis, states, controls):
    """Reference extension: every array stacked anew, as a fresh copy per call."""
    cols = constraint_columns(basis, problem, states, controls)[1:]
    return (np.vstack([lp.states, states]), np.vstack([lp.controls, controls]),
            np.concatenate([lp.cost, problem.g(states, controls)]),
            np.hstack([lp.matrix, np.vstack([cols, np.ones((1, states.shape[0]))])]))


def store_bytes(lp):
    """The bytes of every array the LP views, its unused room included."""
    return tuple(a.base.tobytes() for a in (lp.states, lp.controls, lp.cost, lp.matrix))


def columns_of(lp):
    """A copy of an LP's per-column arrays, layout included."""
    return tuple(a.copy(order="K") for a in (lp.states, lp.controls, lp.cost, lp.matrix))


def same_arrays(lp, arrays):
    """Bitwise equality, layout included, of an LP's per-column arrays and ``arrays``."""
    mine = (lp.states, lp.controls, lp.cost, lp.matrix)
    return all(a.tobytes(order="A") == b.tobytes(order="A") and a.strides == b.strides
               for a, b in zip(mine, arrays))


class TestColumnBuffer:
    GRID = GridSpec(state=(5,), control=(5,))

    def lp_and_columns(self):
        p = builtin_problem("example1")
        b = MonomialBasis(2, 3)
        lp = assemble(p, b, self.GRID)
        rng = np.random.default_rng(900)
        pick = [rng.choice(lp.n_columns, size=k, replace=False) for k in (3, 5)]
        # pairs off the grid: some of the LP's own pairs with their states scaled by 0.9
        ys = [lp.states[i] * 0.9 for i in pick]
        us = [lp.controls[i] for i in pick]
        return p, b, lp, ys, us

    def refused(self, lp, extend, match):
        """``extend()`` raises ``ValueError`` and writes nothing into ``lp``'s arrays."""
        before = store_bytes(lp)
        with pytest.raises(ValueError, match=match):
            extend()
        assert store_bytes(lp) == before

    def extended_in_place(self, lp, p, b, ys, us):
        """``lp.extended`` returns ``lp`` itself, its columns the stacked reference's,
        written into the store it had."""
        reference, store = stacked(lp, p, b, ys, us), lp.matrix.base
        assert lp.extended(p, b, ys, us) is lp
        assert lp.matrix.base is store
        assert same_arrays(lp, reference)

    @pytest.mark.parametrize("room", [None, 0, 4, 100])
    def test_extending_twice_keeps_each_lps_columns(self, room):
        # an LP extends in place, within its room: each extension keeps the columns before
        # it, and one past the room raises and writes nothing
        p, b, lp, ys, us = self.lp_and_columns()  # 3 columns, then 5
        if room is not None:
            lp = assemble(p, b, self.GRID, room)
        if not room:
            parent = columns_of(lp)
            self.refused(lp, lambda: lp.extended(p, b, ys[0], us[0]), "room of 0")
            self.refused(lp, lambda: lp.extended(p, b, ys[1], us[1]), "room of 0")
            assert same_arrays(lp, parent)
            return
        self.extended_in_place(lp, p, b, ys[0], us[0])
        if room < 8:
            first = columns_of(lp)
            self.refused(lp, lambda: lp.extended(p, b, ys[1], us[1]), "room of 1")
            assert same_arrays(lp, first)
        else:
            self.extended_in_place(lp, p, b, ys[1], us[1])

    def test_room_is_used_in_place(self):
        p, b, lp, ys, us = self.lp_and_columns()
        roomy = assemble(p, b, self.GRID, ys[0].shape[0] + ys[1].shape[0])
        self.extended_in_place(roomy, p, b, ys[0], us[0])
        self.extended_in_place(roomy, p, b, ys[1], us[1])
        # no room left: the next extension raises instead of copying
        self.refused(roomy, lambda: roomy.extended(p, b, ys[0], us[0]), "room of 0")

    def test_inadmissible_pairs_leave_room_in_place(self):
        # the arrays are sized for every pair of the grid, the matrix's with the selection's
        # rows + 1 spare columns after it; drift's inadmissible pairs leave columns that are
        # never written by assemble, and extended fills them in place
        p, b = drift_problem(), MonomialBasis(1, 3)
        lp = assemble(p, b, GridSpec(state=(21,), control=(21,)))
        assert lp.matrix.base.shape[0] == 21 * 21 + lp.n_rows + 1 and lp.n_columns < 21 * 21
        pick = np.nonzero(lp.controls[:, 0] >= 0.0)[0][::7]
        ys, us = lp.states[pick] * 0.9, lp.controls[pick]
        self.extended_in_place(lp, p, b, ys, us)

    def test_no_round_copies_the_earlier_columns(self, monkeypatch):
        # one LP per solve, in one store: every round solves it, longer, at the same address
        lps, columns, data, stores = [], [], [], []
        solve_lp, init = silp.solve, silp.FiniteLP.__init__

        def spy(lp, *a, **k):
            lps.append(lp)
            columns.append(lp.n_columns)
            data.append(lp.matrix.__array_interface__["data"][0])
            return solve_lp(lp, *a, **k)

        def counted(self, *a):  # every store of columns is allocated here
            stores.append(None)
            init(self, *a)

        monkeypatch.setattr(silp, "solve", spy)
        monkeypatch.setattr(silp.FiniteLP, "__init__", counted)
        solve_refined(*several_rounds(), tol=1e-9, max_rounds=20)
        assert len(lps) > 3 and len(stores) == 1
        assert all(lp is lps[0] for lp in lps)
        assert all(later > earlier for earlier, later in zip(columns, columns[1:]))
        assert data == [data[0]] * len(data)

    def test_the_last_round_is_not_extended(self, monkeypatch):
        # each round but the last extends the LP once, within the room assemble left
        extend, extended = silp.FiniteLP.extended, []

        def spy(lp, *a):
            extended.append(lp.n_columns)
            return extend(lp, *a)

        monkeypatch.setattr(silp.FiniteLP, "extended", spy)
        with pytest.raises(NonConverged) as err:
            solve_refined(*several_rounds(), tol=1e-9, max_rounds=3)
        assert err.value.rounds == 3 and len(extended) == 2

    def test_traced_names_keep_their_arguments(self):
        # perfbench/tracer.py reads these arguments by position and name
        params = list(inspect.signature(silp.FiniteLP.extended).parameters)
        assert params == ["self", "problem", "basis", "states", "controls"]
        assert list(inspect.signature(silp.solve_equality_lp).parameters)[:3] == ["A", "b", "c"]


def per_pair_reduced_costs(problem, basis, certificate, states, controls, psi_y=None,
                           psi_f=None):
    """Reference pricing: psi at y and at f(y, u) for every pair, ignoring any passed in."""
    a = problem.discount
    psi_y = certificate.psi(basis, states)
    psi_f = certificate.psi(basis, problem.f(states, controls))
    psi_y0 = certificate.psi(basis, problem.initial_state)
    return (problem.g(states, controls) + a * (psi_f - psi_y)
            + (1.0 - a) * (psi_y0 - psi_y) - certificate.mu)


def block_pairs(states, controls):
    """The (k * C, m) states and (k * C, d) controls of a scan block's broadcast operands."""
    ys, us = np.broadcast_arrays(states, controls)
    return ys.reshape(-1, ys.shape[-1]), us.reshape(-1, us.shape[-1])


def candidate_lattice(problem, spec):
    """The lattice ``solve_refined`` scans for a candidate spec."""
    return model.pair_lattice(problem, model.state_grid_points(problem, spec.state),
                              model.control_grid_points(problem, spec.control))


def drift_problem():
    """f(y, u) = y + u on [0, 1]: every state has inadmissible controls in [-1, 1]."""
    return DiscreteControlProblem(
        state_dim=1, dynamics=lambda y, u: y + u,
        cost=lambda y, u: (y[..., 0] - 0.3) ** 2 + 0.5 * u[..., 0] ** 2,
        state_region=Box([0.0], [1.0]), control_region=Box([-1.0], [1.0]),
        discount=0.5, initial_state=[0.5])


class TestScan:
    @pytest.mark.parametrize("make, degree, grid, candidates, chunk", [
        # 88,209 lattice pairs: two scan blocks
        (lambda: builtin_problem("example1"), 7, GridSpec(state=(9, 9), control=(9, 9)),
         CandidateSpec(state=(33, 33), control=(9, 9)), None),
        (lambda: builtin_problem("shift"), 3, GridSpec(state=(5,), control=(5,)),
         CandidateSpec(state=(41,), control=(41,)), None),
        # every block of 2 states' 41 controls has inadmissible pairs
        (drift_problem, 3, GridSpec(state=(5,), control=(5,)),
         CandidateSpec(state=(41,), control=(41,)), 100),
    ], ids=["example1", "shift", "drift"])
    def test_scan_matches_per_pair_psi_bitwise(self, monkeypatch, make, degree, grid,
                                               candidates, chunk):
        # the scan evaluates psi once per lattice state and once per distinct
        # successor; pricing every pair from scratch must give the same
        # minimum and violators, bit for bit
        if chunk is not None:
            monkeypatch.setattr(model, "_SCAN_CHUNK", chunk)
        p = make()
        b = MonomialBasis(p.state_dim, degree)
        _, cert = solve(assemble(p, b, grid))
        lattice = candidate_lattice(p, candidates)
        cap = candidates.max_new_columns
        min_rc, ys, us = silp.scan_candidates(p, b, cert, lattice, cap, 1e-9)
        priced = []

        def reference(problem, basis, certificate, states, controls, *given):
            # a block of states against the controls: materialize its pairs, state-major
            states, controls = block_pairs(states, controls)
            priced.append(len(states))
            rc = per_pair_reduced_costs(problem, basis, certificate, states, controls)
            # off the graph is +inf: an inadmissible pair is never a violator
            return np.where(model.admissible_mask(problem, problem.f(states, controls)), rc, np.inf)

        monkeypatch.setattr(silp, "reduced_costs", reference)
        ref_rc, ref_ys, ref_us = silp.scan_candidates(p, b, cert, lattice, cap, 1e-9)
        # every lattice pair went through the reference once
        assert sum(priced) == lattice.successor_of.size \
            == len(lattice.states) * len(lattice.controls)
        assert len(ys) == cap  # the first LP is violated
        assert len(np.unique(np.hstack([ys, us]), axis=0)) == len(ys)  # distinct (y, u)
        assert silp.admissible_mask(p, p.f(ys, us)).all()
        assert np.float64(min_rc).tobytes() == np.float64(ref_rc).tobytes()
        assert ys.tobytes() == ref_ys.tobytes()
        assert us.tobytes() == ref_us.tobytes()

    def test_lattice_matches_pair_grid(self, monkeypatch):
        # blocks of 2 states' 41 controls, each with inadmissible pairs, give back every pair
        # of the pair grid in order: S where it is masked, else its successor's bits
        monkeypatch.setattr(model, "_SCAN_CHUNK", 100)
        p = drift_problem()
        lattice = candidate_lattice(p, CandidateSpec(state=(41,), control=(41,)))
        _, _, succ, mask = model.pair_grid(p, lattice.states, lattice.controls)
        blocks = list(lattice.blocks())
        assert [(rows.start, rows.stop) for rows in blocks] == [(lo, min(lo + 2, 41))
                                                               for lo in range(0, 41, 2)]
        assert all(not mask[rows].all() for rows in blocks)  # every block
        assert lattice.successor_of.dtype == np.uint8
        s, admissible = len(lattice.successors), mask.ravel()
        np.testing.assert_array_equal(lattice.successor_of < s, admissible)
        assert (lattice.successor_of[~admissible] == s).all()
        assert lattice.successors[lattice.successor_of[admissible]].tobytes() \
            == succ[admissible].tobytes()

    def test_scan_yields_every_pair_at_inf_off_the_graph(self, monkeypatch):
        # the scan walks the lattice's blocks and yields every pair of the pair grid; psi at
        # the successor is +inf exactly where f(y, u) leaves Y, and psi(f(y, u)) elsewhere
        monkeypatch.setattr(model, "_SCAN_CHUNK", 100)
        p = drift_problem()
        lattice = candidate_lattice(p, CandidateSpec(state=(41,), control=(41,)))
        states, controls, succ, mask = model.pair_grid(p, lattice.states, lattice.controls)
        admissible = mask.ravel()
        assert admissible.any() and not admissible.all()

        def psi(pts):
            return np.sin(3.0 * pts[:, 0])

        # a block is its states against every control, broadcast; psi at the successors is
        # the lattice's buffer, which the next block overwrites: keep flattened copies
        blocks, parts = [], []
        for rows, ys, us, psi_y, psi_f in lattice.scan(psi):
            k, c = rows.stop - rows.start, len(lattice.controls)
            assert ys.shape == (k, 1, 1) and us.shape == (1, c, 1)
            assert psi_y.shape == (k, 1) and psi_f.shape == (k, c)
            blocks.append(rows)
            parts.append((*block_pairs(ys, us), np.broadcast_to(psi_y, (k, c)).flatten(),
                          psi_f.flatten()))
        assert blocks == list(lattice.blocks())
        ys, us, psi_y, psi_f = (np.concatenate(arrays) for arrays in zip(*parts))
        assert ys.tobytes() == states.tobytes() and us.tobytes() == controls.tobytes()
        assert psi_y.tobytes() == psi(states).tobytes()
        np.testing.assert_array_equal(np.isposinf(psi_f), ~admissible)
        assert psi_f[admissible].tobytes() == psi(succ[admissible]).tobytes()

    def test_rescan_reads_the_same_bytes_and_blocks_are_read_only(self, monkeypatch):
        # the scan yields views of the lattice's states and controls and of its one psi
        # buffer: a block refuses in-place writes, so a second scan yields what the first did
        monkeypatch.setattr(model, "_SCAN_CHUNK", 100)
        lattice = candidate_lattice(drift_problem(), CandidateSpec(state=(41,), control=(41,)))

        def psi(pts):
            return np.cos(2.0 * pts[:, 0])

        def scanned():
            return [b"".join(a.tobytes() for a in arrays) for _, *arrays in lattice.scan(psi)]

        first = scanned()
        for _, *arrays in lattice.scan(psi):
            for a in arrays:
                with pytest.raises(ValueError, match="read-only"):
                    a[:1] = 0.0
        assert scanned() == first

    def test_scan_memory_on_example1_candidates(self):
        # a block is priced by broadcasting its states against the controls, so a scan writes
        # no per-pair state, control or psi(y): one scan of example1's 33^2 x 9^2 lattice
        # peaked at 2.17 MiB and the lattice kept its one (k, C) psi buffer, 0.50 MiB.  Per-pair
        # buffers read 4.06 MiB and 3.0 MiB.
        p = builtin_problem("example1")
        b = MonomialBasis(2, 7)
        _, cert = solve(assemble(p, b, GridSpec(state=(9, 9), control=(9, 9))))
        lattice = candidate_lattice(p, CandidateSpec(state=(33, 33), control=(9, 9)))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            silp.scan_candidates(p, b, cert, lattice, 8, 1e-6)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (peak - base) / 2**20 < 2.5
        assert (kept - base) / 2**20 <= 0.6

    def test_psi_at_y0_once_per_scan(self, monkeypatch):
        # the anchor term's psi(y0) is the same for every block, so the scan evaluates it once
        # and hands it to reduced_costs, which prices each block as with its own psi(y0)
        monkeypatch.setattr(model, "_SCAN_CHUNK", 100)
        p, b = shift_problem(), MonomialBasis(1, 3)
        _, cert = solve(assemble(p, b, GridSpec(state=COARSE, control=COARSE)))
        lattice = candidate_lattice(p, CandidateSpec(state=(41,), control=(41,)))
        assert len(list(lattice.blocks())) == 21  # 41 states, 2 a block
        y0, at_y0 = p.initial_state.tobytes(), []
        psi, reduced_costs = silp.DualCertificate.psi, silp.reduced_costs

        def counted(self, basis, y):
            at_y0.append(np.asarray(y, dtype=float).tobytes() == y0)
            return psi(self, basis, y)

        def own_psi_y0(*args):  # drops the scan's psi(y0): each block evaluates its own
            return reduced_costs(*args[:-1])

        monkeypatch.setattr(silp.DualCertificate, "psi", counted)
        scanned = silp.scan_candidates(p, b, cert, lattice, 2, 1e-9)
        assert sum(at_y0) == 1
        monkeypatch.setattr(silp, "reduced_costs", own_psi_y0)
        at_y0.clear()
        own = silp.scan_candidates(p, b, cert, lattice, 2, 1e-9)
        assert sum(at_y0) == 22
        assert [np.asarray(v).tobytes() for v in scanned] == [np.asarray(v).tobytes() for v in own]
        assert len(scanned[1]) == 2  # the compared violators are not empty

    def test_lattice_admissibility_tested_once_per_solve(self, monkeypatch):
        # the lattice is built once per solve: each of its blocks goes through
        # admissible_mask once, and no round's scan masks anything again; f is
        # evaluated once per lattice pair, once per base pair and once per appended column
        sizes, evaluated = [], []
        mask = model.admissible_mask

        def counted_mask(problem, successors):
            sizes.append(len(successors))
            return mask(problem, successors)

        def counted_f(y, u):
            evaluated.append(len(y))
            return np.array(u, dtype=float, copy=True)

        monkeypatch.setattr(model, "_SCAN_CHUNK", 500)
        # the lattice masks through model's name; silp's is patched too, so a scan that
        # masks through it would be counted
        monkeypatch.setattr(model, "admissible_mask", counted_mask)
        monkeypatch.setattr(silp, "admissible_mask", counted_mask)
        coarse = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        history = []
        solve_refined(dataclasses.replace(shift_problem(), dynamics=counted_f),
                      MonomialBasis(1, 3), GridSpec(state=coarse, control=coarse),
                      CandidateSpec(state=(41,), control=(41,), max_new_columns=1),
                      tol=1e-9, max_rounds=20, history=history)
        assert len(history) >= 3
        # 41 * 41 = 1,681 lattice pairs in blocks of 12 whole states (492 pairs), then the base
        # LP's 5 * 5 pairs in one assembly block
        assert sizes == [492, 492, 492, 205, 25]
        assert evaluated == sizes + [1] * (len(history) - 1)


def random_problem(seed):
    """A seeded problem of the random-problem generator: even seeds are 1-D,
    f = 0.5 + 0.5 (a0 + a1 y + a2 u + a3 y u) on Y = [0, 1], U = [-1, 1], whose
    successors leave Y at some pairs; odd seeds are 2-D, f = M y + N u on [-1, 1]^2.
    Every fourth problem's cost reads y alone, as shift's does."""
    rng = np.random.default_rng(seed)
    c = rng.uniform(-1.0, 1.0, 6)
    if seed % 2 == 0:
        a = rng.uniform(-1.0, 1.0, 4)

        def f(y, u):
            return 0.5 + 0.5 * (a[0] + a[1] * y + a[2] * u + a[3] * y * u)

        def g(y, u):
            return c[0] * y[..., 0] ** 2 + c[1] * y[..., 0] * u[..., 0] + c[2] * u[..., 0]

        states, controls, y0 = Box([0.0], [1.0]), Box([-1.0], [1.0]), [rng.uniform()]
    else:
        m, n = rng.uniform(-0.7, 0.7, (2, 2, 2))

        def f(y, u):  # elementwise, so every leading shape takes the same operations
            return np.stack([m[i, 0] * y[..., 0] + m[i, 1] * y[..., 1]
                             + n[i, 0] * u[..., 0] + n[i, 1] * u[..., 1] for i in range(2)],
                            axis=-1)

        def g(y, u):
            return (c[0] * y[..., 0] * u[..., 1] + c[1] * y[..., 1] ** 2
                    + c[2] * u[..., 0] ** 2 + c[3] * y[..., 0])

        states = controls = Box([-1.0, -1.0], [1.0, 1.0])
        y0 = rng.uniform(-1.0, 1.0, 2)
    if seed % 4 == 3:
        def g(y, u):
            return y[..., 0]
    return DiscreteControlProblem(state_dim=states.dim, dynamics=f, cost=g,
                                  state_region=states, control_region=controls,
                                  discount=rng.uniform(0.3, 0.95), initial_state=y0,
                                  name=f"random{seed}")


def pair_cost(problem):
    """``problem`` with its cost called on the materialized pairs of its broadcast operands."""
    def cost(y, u):
        ys, us = block_pairs(y, u)
        return problem.cost(ys, us).reshape(np.broadcast_shapes(y.shape[:-1], u.shape[:-1]))
    return dataclasses.replace(problem, cost=cost)


PROPERTY_PROBLEMS = {
    **{f"random{seed}": functools.partial(random_problem, seed) for seed in range(10)},
    "example1": lambda: builtin_problem("example1"),
    "shift": shift_problem,
    "drift": drift_problem,
}


class TestBroadcastPricing:
    """Pricing a block of states against every control by broadcasting gives every
    pair the bits of the aligned per-pair call, on seeded random problems (some with
    inadmissible pairs, some with a cost of y alone) and the built-ins."""

    @staticmethod
    def setup(name, monkeypatch):
        monkeypatch.setattr(model, "_SCAN_CHUNK", 100)  # several blocks per lattice
        p = PROPERTY_PROBLEMS[name]()
        counts = (21, 21) if p.state_dim == 1 else ((9, 9), (5, 5))
        lattice = model.pair_lattice(p, p.state_region.grid(counts[0]),
                                     model.control_grid_points(p, counts[1]))
        basis = MonomialBasis(p.state_dim, 3)
        rng = np.random.default_rng(len(name))
        cert = silp.DualCertificate(lam=rng.uniform(-1.0, 1.0, basis.count), mu=rng.normal())
        return p, lattice, basis, cert

    @pytest.mark.parametrize("name", PROPERTY_PROBLEMS)
    def test_blocks_price_as_aligned_pairs(self, monkeypatch, name):
        p, lattice, basis, cert = self.setup(name, monkeypatch)
        psi = functools.partial(cert.psi, basis)
        for rows, ys, us, psi_y, psi_f in lattice.scan(psi):
            assert ys.shape == (rows.stop - rows.start, 1, p.state_dim)
            assert us.shape == (1, len(lattice.controls), p.control_dim)
            pair_y, pair_u = block_pairs(ys, us)
            admissible = silp.admissible_mask(p, p.f(pair_y, pair_u))
            rc = reduced_costs(p, basis, cert, ys, us, psi_y, psi_f)
            # one value per pair, flat: perfbench counts points priced as its length
            assert rc.shape == (len(pair_y),)
            aligned = reduced_costs(p, basis, cert, pair_y, pair_u)
            assert rc[admissible].tobytes() == aligned[admissible].tobytes()
            assert np.isposinf(rc[~admissible]).all()
            # psi evaluated here, also at the successors that leave Y
            assert reduced_costs(p, basis, cert, ys, us).tobytes() == aligned.tobytes()
            assert model.one_step(p, psi, ys, us).ravel().tobytes() \
                == model.one_step(p, psi, pair_y, pair_u).tobytes()

    @pytest.mark.parametrize("name", PROPERTY_PROBLEMS)
    def test_scan_matches_materialized_pairs(self, monkeypatch, name):
        p, lattice, basis, cert = self.setup(name, monkeypatch)
        found = silp.scan_candidates(p, basis, cert, lattice, 8, 1e-9)
        assert len(found[1]) == 8  # every problem has violators at this certificate

        def aligned(problem, basis, certificate, states, controls, *given):
            states, controls = block_pairs(states, controls)
            rc = reduced_costs(problem, basis, certificate, states, controls)
            return np.where(silp.admissible_mask(problem, problem.f(states, controls)), rc,
                            np.inf)

        monkeypatch.setattr(silp, "reduced_costs", aligned)
        expected = silp.scan_candidates(p, basis, cert, lattice, 8, 1e-9)
        assert np.float64(found[0]).tobytes() == np.float64(expected[0]).tobytes()
        assert found[1].tobytes() == expected[1].tobytes()
        assert found[2].tobytes() == expected[2].tobytes()

    @pytest.mark.parametrize("name", PROPERTY_PROBLEMS)
    def test_value_iteration_matches_a_stage_of_materialized_pairs(self, monkeypatch, name):
        p, lattice, _, _ = self.setup(name, monkeypatch)
        counts = (21, 21) if p.state_dim == 1 else ((9, 9), (5, 5))
        try:
            grid = verify.value_iteration(p, *counts)
        except AssumptionIViolation as exc:  # a node with no admissible control: both agree
            with pytest.raises(AssumptionIViolation) as again:
                verify.value_iteration(pair_cost(p), *counts)
            assert again.value.state == exc.state
            return
        expected = verify.value_iteration(pair_cost(p), *counts)
        assert grid.values.tobytes() == expected.values.tobytes()
        assert grid.sweep_diffs == expected.sweep_diffs


class TestOneEvaluationPerPair:
    """Every walk over a grid of pairs evaluates f once per pair: the mask and the
    one-step value (or the LP column) read the same successors."""

    @staticmethod
    def counted_drift():
        # f counts every (y, u) pair it evaluates, by bytes
        seen = collections.Counter()
        problem = drift_problem()

        def f(y, u):
            seen.update((a.tobytes(), b.tobytes()) for a, b in zip(y, u))
            return problem.dynamics(y, u)
        return dataclasses.replace(problem, dynamics=f), seen

    @staticmethod
    def every_pair_once(states, controls):
        return collections.Counter({(y.tobytes(), u.tobytes()): 1
                                    for y in states for u in controls})

    def test_one_step_table(self):
        p, seen = self.counted_drift()
        states, controls = p.state_region.grid(9), model.control_grid_points(p, 7)
        table = model.one_step_table(p, lambda pts: pts[:, 0] ** 2, states, controls)
        assert np.isinf(table).any() and np.isfinite(table).any(axis=1).all()
        assert seen == self.every_pair_once(states, controls)

    def test_pair_lattice(self, monkeypatch):
        monkeypatch.setattr(model, "_SCAN_CHUNK", 10)  # blocks of one state's 7 pairs, most masked
        p, seen = self.counted_drift()
        states, controls = p.state_region.grid(9), model.control_grid_points(p, 7)
        lattice = model.pair_lattice(p, states, controls)
        assert (lattice.successor_of == len(lattice.successors)).any()
        assert seen == self.every_pair_once(states, controls)

    def test_assemble(self, monkeypatch):
        monkeypatch.setattr(model, "_SCAN_CHUNK", 30)  # blocks of one state's 7 pairs at 3 rows
        p, seen = self.counted_drift()
        lp = assemble(p, MonomialBasis(1, 2), GridSpec(state=(9,), control=(7,)))
        assert 0 < lp.n_columns < 9 * 7
        assert seen == self.every_pair_once(p.state_region.grid(9),
                                            model.control_grid_points(p, 7))


def solved(lp):
    results = []
    _, certificate = solve(lp, results=results)
    return results[0], certificate


def lp_reduced_costs(lp, certificate):
    duals = np.concatenate([-certificate.lam[1:], [certificate.mu]])
    return lp.cost - duals @ lp.matrix


class TestSelectCertificate:
    def test_unique_dual_is_kept(self):
        # example1 at degree 2: nine positive atoms for nine rows
        lp = assemble(builtin_problem("example1"), MonomialBasis(2, 2),
                      GridSpec(state=(5, 5), control=(5, 5)))
        res, cert = solved(lp)
        assert np.count_nonzero(res.x > 1e-9) == lp.n_rows
        selected, margin, pivots = select_certificate(lp, res, cert)
        assert selected is cert and margin is None and pivots == 0

    def test_degenerate_dual_gets_positive_margin_off_support(self):
        # shift at degree 3: two atoms for four rows, so the dual is not unique
        p = shift_problem()
        lp = assemble(p, MonomialBasis(1, 3), GridSpec(state=(21,), control=(21,)))
        res, cert = solved(lp)
        support = res.x > 1e-9
        assert np.count_nonzero(support) < lp.n_rows
        selected, margin, pivots = select_certificate(lp, res, cert)
        assert pivots > 0 and margin > 0.0
        assert selected.mu == cert.mu
        rc = lp_reduced_costs(lp, selected)
        assert np.abs(rc[support]).max() <= 1e-12
        assert rc[~support].min() >= margin - 1e-12
        # the same max-margin LP, solved by HiGHS in its primal form
        from scipy.optimize import linprog
        shifted = lp.cost - cert.mu * lp.matrix[-1]
        tests = lp.matrix[:-1].T
        ref = linprog(np.r_[np.zeros(lp.n_rows - 1), -1.0],
                      A_ub=np.hstack([tests[~support], np.ones((np.count_nonzero(~support), 1))]),
                      b_ub=shifted[~support],
                      A_eq=np.hstack([tests[support], np.zeros((np.count_nonzero(support), 1))]),
                      b_eq=shifted[support],
                      bounds=[(None, None)] * (lp.n_rows - 1) + [(None, 1.0)], method="highs")
        assert ref.status == 0
        assert margin == pytest.approx(-ref.fun, abs=1e-9)


def shift_dense_lp():
    """shift-dense's base LP: degree 8 on 401-point grids, 9 rows and 160,801 columns."""
    p = builtin_problem("shift", alpha=0.5, y0=0.4)
    return assemble(p, MonomialBasis(1, 8), GridSpec(state=(401,), control=(401,)))


class TestNoLpSizedCopy:
    """Neither the round-1 solve nor the selection copies the LP's matrix (11.6 MiB here):
    Phase I reads [A | I] by column, and the selection solves in the LP's own store.  Each
    bound is a measured peak plus 10%; a matrix-sized copy breaks it."""

    def test_round_one_solve(self):
        lp = shift_dense_lp()
        assert lp.matrix.nbytes > 11 * 2**20
        _, peak = traced_peak_mib(lambda: solve(lp))
        assert peak <= 4.0

    def test_selection(self):
        lp = shift_dense_lp()
        res, cert = solved(lp)
        (_, margin, pivots), peak = traced_peak_mib(lambda: select_certificate(lp, res, cert))
        assert margin is not None and pivots > 0
        assert peak <= 3.3

    def test_selection_leaves_the_lp_as_it_was(self, monkeypatch):
        # the selection writes the LP's normalization row and the columns after the LP; the
        # LP's arrays read the same afterwards, also when the selection's solve raises
        p = shift_problem()
        lp = assemble(p, MonomialBasis(1, 3), GridSpec(state=(21,), control=(21,)), room=2)
        res, cert = solved(lp)
        before = (lp.matrix.tobytes(), lp.cost.tobytes(), lp.states.tobytes(),
                  lp.controls.tobytes())
        selected, margin, _ = select_certificate(lp, res, cert)
        assert margin is not None
        after = (lp.matrix.tobytes(), lp.cost.tobytes(), lp.states.tobytes(),
                 lp.controls.tobytes())
        assert after == before and lp.matrix.flags.f_contiguous
        assert select_certificate(lp, res, cert)[0].lam.tobytes() == selected.lam.tobytes()

        seen = []

        def stalled(A, b, c, **kwargs):
            seen.append(A[-1, :lp.n_columns].copy())  # the t row, zero on the support
            raise SolverStalled("pivot budget exhausted")

        monkeypatch.setattr(silp, "solve_equality_lp", stalled)
        with pytest.raises(SolverStalled):
            select_certificate(lp, res, cert)
        assert np.array_equal(seen[0] == 0.0, res.x > silp._SUPPORT_TOL)
        assert (lp.matrix.tobytes(), lp.cost.tobytes()) == before[:2]

    def test_selection_fits_a_full_room(self):
        # the last round leaves no room, and the selection's columns go into the spare ones
        p = shift_problem()
        b = MonomialBasis(1, 3)
        lp = assemble(p, b, GridSpec(state=(21,), control=(21,)), room=3)
        lp.extended(p, b, [[0.11], [0.12], [0.13]], [[0.2], [0.3], [0.4]])
        with pytest.raises(ValueError):
            lp.extended(p, b, [[0.14]], [[0.5]])
        res, cert = solved(lp)
        before = lp.matrix.tobytes()
        _, margin, _ = select_certificate(lp, res, cert)
        assert margin is not None and lp.matrix.tobytes() == before


class TestDiscard:
    def measure(self, weights):
        k = len(weights)
        return AtomicMeasure(states=np.arange(k, dtype=float)[:, None],
                             controls=np.zeros((k, 1)),
                             weights=np.asarray(weights, dtype=float))

    def test_zero_threshold_is_identity(self):
        m = self.measure([0.25, 0.75])
        out = discard_small_atoms(m, 0.0)
        np.testing.assert_array_equal(out.weights, m.weights)

    def test_single_atom_unchanged(self):
        out = discard_small_atoms(self.measure([1.0]), 0.5)
        assert len(out) == 1 and out.weights[0] == 1.0

    def test_renormalizes_and_preserves_order(self):
        out = discard_small_atoms(self.measure([0.5, 0.005, 0.495]), 1e-2)
        assert len(out) == 2
        np.testing.assert_allclose(out.states[:, 0], [0.0, 2.0])
        assert out.total_weight == pytest.approx(1.0)
        np.testing.assert_allclose(out.weights, [0.5 / 0.995, 0.495 / 0.995])

    def test_all_discarded(self):
        with pytest.raises(EmptyMeasure):
            discard_small_atoms(self.measure([0.4, 0.6]), 0.7)

    def test_threshold_range(self):
        with pytest.raises(ValueError):
            discard_small_atoms(self.measure([1.0]), 1.0)


class TestSolutionFile:
    def test_roundtrip(self):
        p = shift_problem()
        b = MonomialBasis(1, 3)
        lp = assemble(p, b, GridSpec(state=(21,), control=(21,)))
        measure, cert = solve(lp)
        text = solution_to_json(measure, cert, measure.value(p), 3, 0.0,
                                meta={"problem": "shift"})
        m2, c2, doc = solution_from_json(text)
        np.testing.assert_array_equal(m2.states, measure.states)
        np.testing.assert_array_equal(m2.weights, measure.weights)
        np.testing.assert_array_equal(c2.lam, cert.lam)
        assert c2.mu == cert.mu
        assert doc["rounds"] == 3
        for key in ("atoms", "lambda", "mu", "value", "rounds", "max_dual_violation"):
            assert key in json.loads(text)

    @pytest.mark.parametrize("field", ["lambda", "mu", "state", "control", "weight"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_is_refused(self, field, bad):
        doc = {"atoms": [[[0.4], [0.0], 0.5], [[0.0], [0.0], 0.5]], "lambda": [0.0, 1.0],
               "mu": 0.2}
        solution_from_json(json.dumps(doc))
        if field in ("lambda", "mu"):
            doc[field] = [0.0, bad] if field == "lambda" else bad
        else:
            at = ("state", "control", "weight").index(field)
            doc["atoms"][1][at] = [bad] if at < 2 else bad
        name = field if field in ("lambda", "mu") else "atoms"
        with pytest.raises(ValueError, match=f"solution's {name} is not finite"):
            solution_from_json(json.dumps(doc))

    @pytest.mark.parametrize("at, bad", [(0, "0.0"), (1, "0.0"), (2, "0.5"), (2, True),
                                         (0, None), (1, [0.0])],
                             ids=["state-string", "control-string", "weight-string",
                                  "weight-bool", "state-null", "control-nested"])
    def test_atom_entry_not_a_number_is_refused(self, at, bad):
        # np.array(..., dtype=float) reads "0.5" as 0.5 and True as 1.0; a solve writes neither
        doc = {"atoms": [[[0.4], [0.0], 0.5], [[0.0], [0.0], 0.5]], "lambda": [0.0, 1.0],
               "mu": 0.2}
        solution_from_json(json.dumps(doc))
        doc["atoms"][1][at] = [bad] if at < 2 else bad
        with pytest.raises(ValueError, match="atom 1 holds a value that is not a number"):
            solution_from_json(json.dumps(doc))

    def test_no_atoms_is_refused(self):
        # every solve writes at least one atom, so an empty list is a broken file
        with pytest.raises(ValueError, match="no atoms"):
            solution_from_json(json.dumps({"atoms": [], "lambda": [0.0, 0.0], "mu": 0.0}))
