"""Independent oracles and property checks for solved problems.

Value iteration on a tensor state grid (with multilinear or nearest
interpolation of off-grid successors) provides a surrogate-free estimate
of the value function.  The remaining checks certify a solution pipeline:
residuals of a measure against every test function, stationarity and
value-agreement of a rollout under a dual certificate, the pointwise bound
of the surrogate by the value function, and the nonnegativity of the
shifted one-step inequality.  Everything here is report-oriented: checks
return residual magnitudes and the caller compares against slacks.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import model
from .basis import MonomialBasis, constraint_columns
from .errors import AssumptionIViolation, NotConverged
from .model import DiscreteControlProblem, admissible_mask, control_grid_points
from .silp import AtomicMeasure, DualCertificate, GridSpec, assemble, solve
from .synthesis import Rollout


@dataclass
class ValueFunctionGrid:
    """Value estimates on a tensor grid of the state box."""

    axes: tuple
    values: np.ndarray
    interpolation: str = "multilinear"
    sweep_diffs: list = field(default_factory=list)

    def __call__(self, points):
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts)
        idx, w = _interp_table(self.axes, pts, self.interpolation)
        out = (self.values.ravel()[idx] * w).sum(axis=1)
        return float(out[0]) if single else out


def _interp_table(axes, pts, interpolation):
    """Flat corner indices and weights for batched grid interpolation."""
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
    if interpolation == "nearest":
        nearest = base + (frac >= 0.5)
        return (nearest * strides).sum(axis=1)[:, None], np.ones((k, 1))
    if interpolation != "multilinear":
        raise ValueError(f"unknown interpolation mode {interpolation!r}")
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


def _distinct_rows(points):
    """Distinct rows of a (K, m) float array by bit pattern, and the (K,) inverse map.

    Comparing bits keeps -0.0 apart from 0.0 (and NaN payloads apart), so
    ``distinct[inverse]`` has exactly the bytes of ``points``.
    """
    points = np.ascontiguousarray(points, dtype=float)
    bits = points.view(np.uint64)
    order = np.lexsort(bits.T[::-1])
    ordered = bits[order]
    first = np.empty(len(order), dtype=bool)
    first[:1] = True
    np.any(ordered[1:] != ordered[:-1], axis=1, out=first[1:])
    inverse = np.empty(len(order), dtype=np.int64)
    inverse[order] = np.cumsum(first) - 1
    return points[order[first]], inverse


def value_iteration(problem: DiscreteControlProblem, state_grid, control_grid,
                    tol: float = 1e-8, max_iter: int = 20_000,
                    interpolation: str = "multilinear") -> ValueFunctionGrid:
    """Fixed point of the one-step minimization operator on a state grid.

    Sweeps are synchronous; iteration stops once the sup-norm successive
    difference falls below tol * (1 - alpha) / alpha, which bounds the
    distance to the fixed point by tol via the contraction rate alpha.

    Many (node, control) pairs share a successor f(y, u) (on example1's
    41^2 x 21^2 grid, 36,100 distinct successors serve 741,321 pairs), so
    each sweep interpolates every distinct successor once and scatters the
    result to its pairs.  Every pair still gets the same products, the same
    summation order and the same additions as a per-pair sweep, so values
    and sweep_diffs match it bit for bit.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    alpha = problem.discount
    if isinstance(state_grid, (tuple, list)) and len(state_grid) \
            and isinstance(state_grid[0], np.ndarray):
        axes = tuple(state_grid)  # explicit axes
    else:
        axes = tuple(problem.state_region.axes(state_grid))
    nodes = model.tensor_points(axes)
    controls = control_grid_points(problem, control_grid)
    kn, kc = len(nodes), len(controls)

    rep_states = np.repeat(nodes, kc, axis=0)
    rep_controls = np.tile(controls, (kn, 1))
    mask = admissible_mask(problem, rep_states, rep_controls).reshape(kn, kc)
    stuck = np.nonzero(~mask.any(axis=1))[0]
    if stuck.size:
        raise AssumptionIViolation(tuple(nodes[stuck[0]]))
    distinct, inverse = _distinct_rows(problem.f(rep_states, rep_controls))
    inverse = inverse.reshape(kn, kc)
    stage = problem.g(rep_states, rep_controls).reshape(kn, kc)
    stage = np.where(mask, stage, np.inf)
    idx, wgt = _interp_table(axes, distinct, interpolation)

    shape = tuple(len(ax) for ax in axes)
    values = np.zeros(kn)
    diffs = []
    threshold = tol * (1.0 - alpha) / alpha
    grid = ValueFunctionGrid(axes=axes, values=values.reshape(shape),
                             interpolation=interpolation, sweep_diffs=diffs)
    backup = np.empty((kn, kc))
    for _ in range(max_iter):
        cont = alpha * (values[idx] * wgt).sum(axis=1)
        np.take(cont, inverse, out=backup)
        np.add(stage, backup, out=backup)
        new = backup.min(axis=1)
        diff = float(np.abs(new - values).max())
        diffs.append(diff)
        values = new
        grid.values = values.reshape(shape)
        if diff <= threshold:
            return grid
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
    k, kc = len(states), len(controls)
    pair_states = np.repeat(states, kc, axis=0)
    pair_controls = np.tile(controls, (k, 1))
    mask = admissible_mask(problem, pair_states, pair_controls).reshape(k, kc)
    stuck = np.nonzero(~mask.any(axis=1))[0]
    if stuck.size:
        raise AssumptionIViolation(tuple(states[stuck[0]]))
    psi_f = psi(problem.f(pair_states, pair_controls)).reshape(k, kc)
    psi_y = np.reshape(psi(states), (k, 1))
    vals = problem.g(pair_states, pair_controls).reshape(k, kc) \
        + problem.discount * (psi_f - psi_y)
    out = np.where(mask, vals, np.inf).min(axis=1)
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
    kappa_tol: float

    @property
    def passed(self) -> bool:
        return (float(self.stationarity.max(initial=0.0)) <= self.kappa_tol
                and self.value_agreement_std <= self.kappa_tol
                and float(self.hamiltonian.max(initial=0.0)) <= self.kappa_tol)


def check_optimality_conditions(problem: DiscreteControlProblem, roll: Rollout,
                                certificate: DualCertificate, value_grid: ValueFunctionGrid,
                                basis: MonomialBasis, control_grid,
                                kappa_tol: float) -> OptimalityReport:
    """Residuals of the three optimality conditions along the rollout.

    (a) stationarity: each visited pair must attain the graph-wide minimum
    of g + alpha * psi(f) - psi; the scan covers the value grid's nodes
    crossed with the control grid plus the visited pairs themselves, so
    the residual is nonnegative by construction.
    (b) value agreement: psi and the oracle value may differ only by a
    constant along the path; reported as the standard deviation.
    (c) the minimized one-step expression must equal the constant
    (1 - alpha) * (V(y0) - psi(y0)) at every visited state.
    """
    alpha = problem.discount
    psi = functools.partial(certificate.psi, basis)

    nodes = model.tensor_points(value_grid.axes)
    cg = control_grid_points(problem, control_grid)
    scan_states = np.repeat(nodes, len(cg), axis=0)
    scan_controls = np.tile(cg, (len(nodes), 1))
    mask = admissible_mask(problem, scan_states, scan_controls)
    psi_roll = psi(roll.states)
    # psi is evaluated pointwise, so one value per node serves all its controls
    scan_psi_y = np.concatenate([np.repeat(psi(nodes), len(cg))[mask], psi_roll])
    scan_states = np.vstack([scan_states[mask], roll.states])
    scan_controls = np.vstack([scan_controls[mask], roll.controls])

    def one_step(states, controls, psi_y):
        psi_f = psi(problem.f(states, controls))
        return problem.g(states, controls) + alpha * psi_f - psi_y

    scan_min = float(one_step(scan_states, scan_controls, scan_psi_y).min())
    stationarity = one_step(roll.states, roll.controls, psi_roll) - scan_min

    diff = psi_roll - value_grid(roll.states)
    value_std = float(np.std(diff))

    v0 = value_grid(problem.initial_state)
    psi0 = psi(problem.initial_state)
    target = (1.0 - alpha) * (v0 - psi0)
    ham = hamiltonian_min(problem, psi, roll.states, cg) \
        - (1.0 - alpha) * psi_roll - target
    return OptimalityReport(stationarity=stationarity, value_agreement_std=value_std,
                            hamiltonian=np.abs(ham), kappa_tol=kappa_tol)


def check_psi_bound(certificate: DualCertificate, value_grid: ValueFunctionGrid,
                    problem: DiscreteControlProblem, basis: MonomialBasis) -> float:
    """Worst violation of psi(y) <= V(y) + psi(y0) - V(y0) over the grid nodes.

    Zero only for exact max-min solutions; finite bases and grid
    interpolation both contribute, so callers compare it against a slack.
    """
    nodes = model.tensor_points(value_grid.axes)
    psi = certificate.psi(basis, nodes)
    v = value_grid(nodes)
    anchor = certificate.psi(basis, problem.initial_state) - value_grid(problem.initial_state)
    return float((psi - v - anchor).max())


def check_shifted_inequality(certificate: DualCertificate, value_at_y0: float,
                             problem: DiscreteControlProblem, grid,
                             basis: MonomialBasis, control_grid) -> float:
    """Worst negativity of the one-step inequality after anchoring at y0.

    The surrogate is re-anchored so its value at the initial state equals
    ``value_at_y0``; constant shifts cancel inside the minimized
    expression, so only the anchoring constant matters.
    """
    psi = functools.partial(certificate.psi, basis)
    psi0 = psi(problem.initial_state)
    shift = value_at_y0 - psi0
    states = grid if isinstance(grid, np.ndarray) else problem.state_region.grid(grid)
    h = hamiltonian_min(problem, psi, states, control_grid)
    expr = h - (1.0 - problem.discount) * (psi(states) + shift)
    return float((-expr).max())


def estimate_kappa(problem: DiscreteControlProblem, basis: MonomialBasis,
                   grid_spec: GridSpec, mu: float, oracle_value: float,
                   pivot_tol: float = 1e-9) -> float:
    """Deficit estimate: next-degree increment plus the oracle gap, both clamped.

    Exact computation would need the untruncated dual value; this re-solves
    the same grid with the degree cap raised by one and adds the distance
    to the oracle's value scaled by (1 - alpha).  Report-only.  Only the
    re-solve's optimal value mu' is used, never its vertex or duals, so it
    runs the sifted Phase II: the base grid has far more columns than rows
    (160,801 columns for 10 rows on a 401 x 401 grid at degree 9), and
    sifting prices a small working set per pivot instead of every column.
    """
    richer = MonomialBasis(basis.dim, basis.max_degree + 1)
    _, cert = solve(assemble(problem, richer, grid_spec), pivot_tol=pivot_tol, sift=True)
    increment = max(0.0, cert.mu - mu)
    oracle_gap = max(0.0, (1.0 - problem.discount) * oracle_value - cert.mu)
    return increment + oracle_gap
