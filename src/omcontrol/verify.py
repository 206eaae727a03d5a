"""Independent oracles and property checks for solved problems.

Modified policy iteration on a tensor state grid (with multilinear
interpolation of off-grid successors) provides a surrogate-free estimate of
the value function: each full Bellman backup is followed by a fixed number
of sweeps of its greedy policy's own operator.  The remaining checks
certify a solution pipeline: residuals of a measure against every test
function, stationarity and value-agreement of a rollout under a dual
certificate, the pointwise bound of the surrogate by the value function,
and the nonnegativity of the shifted one-step inequality.  Every scan of the
one-step expression g(y, u) + alpha * (psi(f(y, u)) - psi(y)) goes through
``model.one_step`` or, over a grid, ``model.one_step_table``.  Stationarity
and the shifted inequality rest on one quantity, the reduced cost
rc = g + alpha * (psi(f) - psi) + (1 - alpha) * (psi(y0) - psi) - mu that
``solve`` prices, so ``check_optimality_conditions`` prices the pair
lattice ``value_iteration`` builds once, through ``silp.scan_candidates``,
and ``check_shifted_inequality`` reads its minimum: at the anchor
mu / (1 - alpha) the shifted inequality's violation is -min rc.
Everything here is report-oriented: checks return residual magnitudes and
the caller compares against slacks.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import model, silp
from .basis import MonomialBasis, constraint_columns
from .errors import NotConverged
from .model import DiscreteControlProblem, control_grid_points
from .model import admissible_mask  # noqa: F401  perfbench/tracer.py wraps this name here
from .silp import AtomicMeasure, DualCertificate, GridSpec, assemble, solve
from .simplex import lowest_below, seed_length
from .synthesis import Rollout

_MPI_SWEEPS = 30  # policy-operator sweeps after each full backup in value_iteration


@dataclass
class ValueFunctionGrid:
    """Value estimates on a tensor grid of the state box, and its pair lattice."""

    axes: tuple
    values: np.ndarray
    lattice: model.PairLattice  # the grid's nodes x the oracle's controls
    threshold: float            # the full backup's change at which iteration stops
    sweep_diffs: list = field(default_factory=list)

    def __call__(self, points):
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts)
        idx, w = _interp_table(self.axes, pts)
        out = (self.values.ravel()[idx] * w).sum(axis=1)
        return float(out[0]) if single else out


def _interp_table(axes, pts):
    """Flat corner indices and weights for batched multilinear interpolation.

    The 2^m cell corners run first axis slowest, and a corner's weight is
    the product of its per-axis weights in axis order.  A point outside the
    box takes its clipped face's values; a one-point axis weighs its one
    node 1.
    """
    k = pts.shape[0]
    idx, wgt = np.zeros((k, 1), dtype=np.int64), np.ones((k, 1))
    for a, ax in enumerate(axes):
        n = len(ax)
        x = np.clip(pts[:, a], ax[0], ax[-1])
        j = np.clip(np.searchsorted(ax, x, side="right") - 1, 0, max(n - 2, 0))
        hi = np.minimum(j + 1, n - 1)
        frac = (x - ax[j]) / (ax[hi] - ax[j]) if n > 1 else np.zeros(k)
        idx = (idx[:, :, None] * n + np.stack([j, hi], axis=-1)[:, None]).reshape(k, -1)
        wgt = (wgt[:, :, None] * np.stack([1.0 - frac, frac], axis=-1)[:, None]).reshape(k, -1)
    return idx, wgt


def value_iteration(problem: DiscreteControlProblem, state_grid, control_grid,
                    tol: float = 1e-8, max_iter: int = 20_000) -> ValueFunctionGrid:
    """Fixed point of the one-step minimization operator on a state grid.

    Modified policy iteration (Puterman & Shin 1978; Puterman, *Markov
    Decision Processes*, 1994, section 6.5): each synchronous full Bellman
    backup T v also picks each node's first minimizing control, and
    ``_MPI_SWEEPS`` sweeps of that greedy policy's own operator follow it.
    A policy sweep reads only the interpolation corners of each node's
    chosen successor, not every control.  Iteration stops at the first
    full backup whose sup-norm change ||T v - v|| is at most the grid's
    ``threshold``, tol * (1 - alpha) / alpha; since ||T v - v*|| <=
    alpha / (1 - alpha) * ||T v - v|| for any v, that backup is within tol
    of the fixed point, and it is what the grid carries.  ``sweep_diffs``
    lists the change of each full backup and ``max_iter`` bounds their
    number; policy sweeps are not counted.  On :class:`NotConverged` the
    grid carries the last full backup, which ``sweep_diffs[-1]`` describes.

    Many (node, control) pairs share a successor f(y, u) (on example1's
    41^2 x 21^2 grid, 36,100 distinct successors serve 741,321 pairs), so
    each full backup interpolates every distinct successor of the grid's
    ``model.pair_lattice`` once and scatters the result to its pairs.
    Every pair still gets the same products, the same summation order and
    the same additions as a per-pair sweep, so a full backup matches it
    bit for bit.  A full backup runs over the lattice's blocks of whole
    nodes, so no array of backups the size of the lattice is built, and it
    reads the lattice's own successor table, where an inadmissible pair's
    row S meets a +inf stage.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    alpha = problem.discount
    axes = tuple(problem.state_region.axes(state_grid))
    nodes = model.tensor_points(axes)
    controls = control_grid_points(problem, control_grid)
    kn, kc = len(nodes), len(controls)

    lattice = model.pair_lattice(problem, nodes, controls)
    successor = lattice.successor_of.reshape(kn, kc)  # S at the inadmissible pairs
    idx, wgt = _interp_table(axes, lattice.successors)  # before the stage, to keep the peak low
    stage = np.empty((kn, kc))
    for rows in lattice.blocks():
        stage[rows] = problem.g(nodes[rows, None], controls[None])  # the block's nodes x controls
        stage[rows][successor[rows] == len(lattice.successors)] = np.inf
    model.require_admissible(nodes, stage < np.inf)

    shape = tuple(len(ax) for ax in axes)
    values = np.zeros(kn)
    diffs = []
    grid = ValueFunctionGrid(axes=axes, values=values.reshape(shape), lattice=lattice,
                             threshold=tol * (1.0 - alpha) / alpha, sweep_diffs=diffs)
    backup = np.empty_like(stage[next(lattice.blocks())])  # the first block is the largest
    node = np.arange(kn)
    for _ in range(max_iter):
        cont = alpha * (values[idx] * wgt).sum(axis=1)
        choice, new = np.empty(kn, dtype=np.intp), np.empty(kn)
        for rows in lattice.blocks():
            block = backup[:rows.stop - rows.start]
            # clipped, S reads the last successor's value, and the stage's +inf outweighs it
            np.take(cont, successor[rows], out=block, mode="clip")
            np.add(stage[rows], block, out=block)
            block.argmin(axis=1, out=choice[rows])
            new[rows] = block[node[:len(block)], choice[rows]]  # the row minimum itself
        diff = float(np.abs(new - values).max())
        diffs.append(diff)
        values = new
        grid.values = values.reshape(shape)
        if diff <= grid.threshold:
            return grid
        # the greedy policy's operator: one stage and one successor per node
        chosen = successor[node, choice]
        policy_stage, policy_idx, policy_wgt = stage[node, choice], idx[chosen], wgt[chosen]
        for _ in range(_MPI_SWEEPS):
            values = policy_stage + alpha * (values[policy_idx] * policy_wgt).sum(axis=1)
    raise NotConverged(grid)


def hamiltonian_min(problem: DiscreteControlProblem, psi: Callable, states,
                    control_grid):
    """Grid minimum of g(y, u) + alpha * (psi(f(y, u)) - psi(y)) over admissible u.

    A float for one state y, (K,) for a (K, m) batch of states.  Raises
    :class:`AssumptionIViolation` for a state with no admissible grid control.
    """
    states = np.asarray(states, dtype=float)
    single = states.ndim == 1
    states = np.atleast_2d(states)
    controls = control_grid_points(problem, control_grid)
    out = model.one_step_table(problem, psi, states, controls, psi(states)).min(axis=1)
    return float(out[0]) if single else out


def occupational_measure(roll: Rollout, alpha: float) -> AtomicMeasure:
    """Weights (1 - alpha) * alpha^t on visited pairs; bit-identical visits merge."""
    merged: dict = {}  # first-visit order
    for t in range(roll.horizon + 1):
        key = (roll.states[t].tobytes(), roll.controls[t].tobytes())
        w = (1.0 - alpha) * alpha ** t
        if key in merged:
            merged[key][2] += w
        else:
            merged[key] = [roll.states[t].copy(), roll.controls[t].copy(), w]
    states = np.array([s for s, _, _ in merged.values()])
    controls = np.array([u for _, u, _ in merged.values()])
    weights = np.array([w for _, _, w in merged.values()])
    return AtomicMeasure(states=states, controls=controls, weights=weights)


def measure_residuals(measure, basis: MonomialBasis,
                      problem: DiscreteControlProblem) -> np.ndarray:
    """Weighted constraint coefficients summed per test function.

    Zero (to solver precision) for LP solutions; geometrically small in the
    horizon for truncated trajectory measures.
    """
    cols = constraint_columns(basis, problem, measure.states, measure.controls)
    return cols @ measure.weights


def trajectory_residual_bound(problem: DiscreteControlProblem, basis: MonomialBasis,
                              horizon: int, sample_states, sample_controls) -> float:
    """Truncation bound 2 * alpha^(T+1) * max |coefficient| over a sample."""
    cols = constraint_columns(basis, problem, sample_states, sample_controls)
    return 2.0 * problem.discount ** (horizon + 1) * float(np.abs(cols).max())


@dataclass
class OptimalityReport:
    """Per-step residuals of the optimality conditions along a rollout."""

    stationarity: np.ndarray        # one-step argmin residual per step
    value_agreement_std: float      # spread of surrogate-minus-value along the path
    hamiltonian: np.ndarray         # one-step identity residual per step
    min_reduced_cost: float         # min rc over the value grid's pair lattice


def check_optimality_conditions(problem: DiscreteControlProblem, roll: Rollout,
                                certificate: DualCertificate, value_grid: ValueFunctionGrid,
                                basis: MonomialBasis) -> OptimalityReport:
    """Residuals of the three optimality conditions along the rollout.

    (a) stationarity: each visited pair must attain the graph-wide minimum
    of the reduced cost rc = g + alpha * psi(f) - psi + const; the minimum
    is taken over the value grid's lattice, priced once by
    ``silp.scan_candidates``, and the visited pairs themselves, so the
    residual is nonnegative by construction.  The lattice minimum is kept
    as ``min_reduced_cost``.
    (b) value agreement: psi and the oracle value may differ only by a
    constant along the path; reported as the standard deviation.
    (c) the minimized one-step expression over the oracle's controls must
    equal the constant (1 - alpha) * (V(y0) - psi(y0)) at every visited state.
    """
    alpha = problem.discount
    psi = functools.partial(certificate.psi, basis)
    lattice = value_grid.lattice

    psi_roll = psi(roll.states)
    rc_roll = silp.reduced_costs(problem, basis, certificate, roll.states, roll.controls,
                                 psi_roll)
    min_rc, _, _ = silp.scan_candidates(problem, basis, certificate, lattice, 1, np.inf)
    stationarity = rc_roll - min(min_rc, float(rc_roll.min(initial=np.inf)))

    value_std = float(np.std(psi_roll - value_grid(roll.states)))
    target = (1.0 - alpha) * (value_grid(problem.initial_state) - psi(problem.initial_state))
    ham = hamiltonian_min(problem, psi, roll.states, lattice.controls) \
        - (1.0 - alpha) * psi_roll - target
    return OptimalityReport(stationarity=stationarity, value_agreement_std=value_std,
                            hamiltonian=np.abs(ham), min_reduced_cost=min_rc)


def check_psi_bound(certificate: DualCertificate, value_grid: ValueFunctionGrid,
                    problem: DiscreteControlProblem, basis: MonomialBasis) -> float:
    """Worst violation of psi(y) <= V(y) + psi(y0) - V(y0) over the grid nodes.

    Zero only for exact max-min solutions; finite bases and grid
    interpolation both contribute, so callers compare it against a slack.
    """
    nodes = value_grid.lattice.states  # V at the nodes is the stored values: no interpolation
    anchor = certificate.psi(basis, problem.initial_state) - value_grid(problem.initial_state)
    return float((certificate.psi(basis, nodes) - value_grid.values.ravel() - anchor).max())


def check_shifted_inequality(report: OptimalityReport, certificate: DualCertificate,
                             value_at_y0: float, problem: DiscreteControlProblem) -> float:
    """Worst negativity of the one-step inequality after anchoring at y0.

    It is checked at the value grid's nodes over its lattice's controls.
    The surrogate is re-anchored by a constant so its value at the initial
    state equals ``value_at_y0``.  With H = g + alpha * psi(f) - psi(y), the
    node's expression min_u H - (1 - alpha) * (value_at_y0 - psi(y0)) has
    no psi(y) term left, and rc = H + (1 - alpha) * psi(y0) - mu, so the
    worst negativity is read off the lattice's minimum reduced cost in
    ``report``; at the anchor mu / (1 - alpha) it is -min rc.
    """
    return (1.0 - problem.discount) * value_at_y0 - certificate.mu - report.min_reduced_cost


def estimate_kappa(problem: DiscreteControlProblem, basis: MonomialBasis,
                   grid_spec: GridSpec, certificate: DualCertificate, oracle_value: float,
                   pivot_tol: float = 1e-9) -> float:
    """Deficit estimate: next-degree increment plus the oracle gap, both clamped.

    Exact computation would need the untruncated dual value; this re-solves
    the same grid with the degree cap raised by one and adds the distance
    to the oracle's value scaled by (1 - alpha).  Report-only.  Only the
    re-solve's optimal value mu' is used, never its vertex or duals.  The
    base grid has far more columns than rows (160,801 columns for 10 rows on
    a 401 x 401 grid at degree 9), the shape the simplex's sifting is for.

    ``certificate``, the solution's certificate at the current degree,
    prices the base grid's columns once, and the ``seed_length`` columns of
    lowest reduced cost (ties to the lower index) seed the working sets of
    both simplex phases.  They are selected by partition
    (``simplex.lowest_below``, as the simplex selects entering columns), not
    sorted: the simplex reads the seed as a set.  The seed only steers the
    pricing: mu' is certified over every column, so a wrong certificate
    costs pivots, never the value.
    """
    richer = MonomialBasis(basis.dim, basis.max_degree + 1)
    lp = assemble(problem, richer, grid_spec)
    seed = lowest_below(silp.reduced_costs(problem, basis, certificate, lp.states, lp.controls),
                        seed_length(lp.n_rows), np.inf)
    _, cert = solve(lp, pivot_tol=pivot_tol, seed=seed)
    increment = max(0.0, cert.mu - certificate.mu)
    oracle_gap = max(0.0, (1.0 - problem.discount) * oracle_value - cert.mu)
    return increment + oracle_gap
