"""Near-optimal feedback synthesis and trajectory simulation.

Two feedback rules are provided: the surrogate minimizer, which picks the
grid control minimizing g(y, u) + alpha * psi(f(y, u)) (the one row of
``model.one_step_table`` with psi_y = 0; inadmissible controls score +inf)
by exhaustive search (the inner problem is generally not convex, and the
control spaces here are low-dimensional), and the nearest-atom heuristic,
which copies the control of the concentration point whose state component
is closest to the current state, breaking distance ties by weight.  A
feedback rule is a function of the state alone, so ``minimizer_policy``
searches once per distinct state (by its bytes) and repeats its choice when
the trajectory comes back to it.  ``rollout`` simulates either rule for
long enough that the discounted tail is below a requested truncation
error, and the gap against the LP value certifies near-optimality.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import model
from .basis import MonomialBasis
from .errors import (AssumptionIIViolation, AssumptionIViolation,
                     InadmissibleTransition, RolloutAborted)
from .model import DiscreteControlProblem, control_grid_points, step
from .model import admissible_mask  # noqa: F401  perfbench/tracer.py wraps this name here
from .silp import AtomicMeasure, DualCertificate

_TIE_TOL = 1e-9
_DISTANCE_TIE_TOL = 1e-12
_MAX_HORIZON = 100_000
_COST_SAMPLE = 9        # points per axis of the tensor sample behind cost_bound
_SVG_SIZE = 480
_SVG_MARGIN = 24.0


@dataclass
class Rollout:
    """Simulated trajectory with its truncated discounted value."""

    states: np.ndarray     # (T+1, m)
    controls: np.ndarray   # (T+1, d)
    truncated_value: float
    truncation_bound: float
    discount: float
    gap: Optional[float] = None

    @property
    def horizon(self) -> int:
        return self.states.shape[0] - 1


def minimizer_control(problem: DiscreteControlProblem, basis: MonomialBasis,
                      certificate: DualCertificate, y, control_grid) -> np.ndarray:
    """Exhaustive argmin of g(y, u) + alpha * psi(f(y, u)) over the grid.

    Inadmissible controls score +inf.  Values within an absolute tie
    tolerance of the minimum count as tied and the lexicographically
    smallest control wins, so corner optima and exact symmetric ties
    resolve deterministically.  Raises :class:`AssumptionIViolation` when
    no grid control is admissible at y.
    """
    grid = control_grid_points(problem, control_grid)
    psi = functools.partial(certificate.psi, basis)
    vals = model.one_step_table(problem, psi, np.atleast_2d(np.asarray(y, dtype=float)), grid)[0]
    tied = np.nonzero(vals <= vals.min() + _TIE_TOL)[0]
    pick = tied[np.lexsort(tuple(grid[tied, a] for a in range(grid.shape[1] - 1, -1, -1)))[0]]
    return grid[pick].copy()


def heuristic_control(measure: AtomicMeasure, y) -> np.ndarray:
    """Control of the atom nearest to y in state space.

    Among atoms at (numerically) equal distance the greatest weight wins,
    then lexicographic order on (y, u).  If the winning state coincides
    with another equidistant atom's state but their controls differ, the
    finite policy is ill-defined and the call fails.
    """
    if len(measure) == 0:
        raise ValueError("empty measure")
    y = np.atleast_1d(np.asarray(y, dtype=float))
    dist = np.linalg.norm(measure.states - y[None, :], axis=1)
    tied = np.nonzero(dist <= dist.min() + _DISTANCE_TIE_TOL)[0]
    order = np.lexsort(
        tuple(measure.controls[tied, a] for a in range(measure.controls.shape[1] - 1, -1, -1))
        + tuple(measure.states[tied, a] for a in range(measure.states.shape[1] - 1, -1, -1))
        + (-measure.weights[tied],)
    )
    winner = tied[order[0]]
    for k in tied:
        if k == winner:
            continue
        same_y = np.max(np.abs(measure.states[k] - measure.states[winner])) <= _DISTANCE_TIE_TOL
        diff_u = np.max(np.abs(measure.controls[k] - measure.controls[winner])) > _DISTANCE_TIE_TOL
        if same_y and diff_u:
            raise AssumptionIIViolation(
                f"atoms {k} and {winner} share state {tuple(measure.states[winner])} "
                "with different controls")
    return measure.controls[winner].copy()


def minimizer_policy(problem, basis, certificate, control_grid) -> Callable:
    """``minimizer_control`` as a feedback law, searched once per distinct state.

    The choice at each state is kept by the state's bytes, so a trajectory
    that repeats a state (a steady state) repeats its control without a
    search; each call returns a copy.
    """
    grid = control_grid_points(problem, control_grid)
    chosen: dict = {}

    def policy(y):
        key = np.asarray(y, dtype=float).tobytes()
        if key not in chosen:
            chosen[key] = minimizer_control(problem, basis, certificate, y, grid)
        return chosen[key].copy()

    return policy


def heuristic_policy(measure: AtomicMeasure) -> Callable:
    return lambda y: heuristic_control(measure, y)


def cost_bound(problem: DiscreteControlProblem) -> float:
    """max |g| over a coarse state-control tensor sample, computed once."""
    s_pts = problem.state_region.grid(_COST_SAMPLE)
    c_pts = control_grid_points(problem, _COST_SAMPLE)
    states, controls = model.pairs(s_pts, c_pts)
    return float(np.abs(problem.g(states, controls)).max())


def truncation_horizon(alpha: float, g_max: float, epsilon: float) -> int:
    """Smallest T with alpha^(T+1) / (1 - alpha) * g_max <= epsilon."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    tail = g_max / (1.0 - alpha)
    horizon = 0
    while tail * alpha ** (horizon + 1) > epsilon and horizon < _MAX_HORIZON:
        horizon += 1
    return horizon


def rollout(problem: DiscreteControlProblem, policy: Callable,
            epsilon: Optional[float] = None, steps: Optional[int] = None) -> Rollout:
    """Simulate the feedback rule from the initial state.

    The horizon is ``steps`` when given, otherwise the smallest T whose
    discounted-tail bound drops below ``epsilon`` (default 1e-3 of the
    worst-case total cost); either way it must be at least 1.
    Admissibility is re-verified at every step; a policy failure raises
    :class:`RolloutAborted` with the steps taken so far as a ``Rollout``.
    """
    alpha = problem.discount
    g_max = cost_bound(problem)
    if steps is not None:
        horizon = int(steps)
    else:
        if epsilon is None:
            epsilon = 1e-3 * g_max / (1.0 - alpha)
        horizon = truncation_horizon(alpha, g_max, epsilon)
    if horizon < 1:
        raise ValueError(f"rollout horizon must be at least 1, got {horizon}")

    states, controls = [], []
    y = problem.initial_state.copy()
    for _ in range(horizon + 1):
        try:
            u = np.atleast_1d(np.asarray(policy(y), dtype=float))
            states.append(y.copy())
            controls.append(u.copy())
            y = step(problem, y, u)
        except (AssumptionIViolation, AssumptionIIViolation, InadmissibleTransition) as exc:
            # reshaped, so a failure at t = 0 still gives (0, m) and (0, d) arrays
            partial = Rollout(states=np.reshape(states, (-1, problem.state_dim)),
                              controls=np.reshape(controls, (-1, problem.control_dim)),
                              truncated_value=np.nan, truncation_bound=np.nan, discount=alpha)
            raise RolloutAborted(partial, exc) from exc

    states = np.array(states)
    controls = np.array(controls)
    costs = problem.g(states, controls)
    value = float(np.sum(costs * alpha ** np.arange(horizon + 1)))
    bound = float(alpha ** (horizon + 1) / (1.0 - alpha) * g_max)
    return Rollout(states=states, controls=controls, truncated_value=value,
                   truncation_bound=bound, discount=alpha)


def gap_certificate(roll: Rollout, certificate: DualCertificate) -> float:
    """|truncated value - mu / (1 - alpha)|; upper-bounds the suboptimality
    of the rolled-out policy up to truncation error."""
    gap = abs(roll.truncated_value - certificate.mu / (1.0 - roll.discount))
    roll.gap = gap
    return gap


def control_pattern(roll: Rollout, from_t: int, tol: float = 1e-9) -> Optional[int]:
    """Smallest period of the control sequence from ``from_t`` on, or None."""
    horizon = roll.horizon
    if from_t >= horizon:
        raise ValueError("from_t must precede the final step")
    u = roll.controls
    for period in range(1, horizon - from_t + 1):
        ts = np.arange(from_t, horizon - period + 1)
        if ts.size == 0:
            break
        if np.all(np.abs(u[ts + period] - u[ts]) <= tol):
            return period
    return None


# ---------------------------------------------------------------------------
# Trajectory exports.

def _fmt(x: float) -> str:
    x = float(x)
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return f"{x:.6g}"


def write_trajectory_csv(path, roll: Rollout, run: dict) -> None:
    """One row per step, then the footer, which ends with the ``run`` stamp as JSON."""
    m = roll.states.shape[1]
    d = roll.controls.shape[1]
    header = ["t"] + [f"y{i+1}" for i in range(m)] + [f"u{i+1}" for i in range(d)]
    lines = [",".join(header)]
    for t in range(roll.horizon + 1):
        row = [str(t)] + [_fmt(v) for v in roll.states[t]] + [_fmt(v) for v in roll.controls[t]]
        lines.append(",".join(row))
    lines.append(f"# truncated_value,{_fmt(roll.truncated_value)}")
    lines.append(f"# truncation_bound,{_fmt(roll.truncation_bound)}")
    if roll.gap is not None:
        lines.append(f"# gap,{_fmt(roll.gap)}")
    lines.append(f"# run,{json.dumps(run)}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_trajectory_csv(path) -> tuple[np.ndarray, np.ndarray, dict]:
    """Read states, controls and footer metadata (floats; the ``run`` stamp is JSON) back."""
    rows, meta = [], {}
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        m = sum(1 for h in header if h.startswith("y"))
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, val = line[1:].strip().partition(",")
                key = key.strip()
                meta[key] = json.loads(val) if key == "run" else float(val)
                continue
            rows.append([float(v) for v in line.split(",")])
    data = np.array(rows).reshape(-1, len(header))
    states = data[:, 1:1 + m]
    controls = data[:, 1 + m:]
    return states, controls, meta


def write_trajectory_svg(path, roll: Rollout, measure: Optional[AtomicMeasure] = None) -> None:
    """State trajectory as an SVG polyline with atoms as weight-scaled circles.

    Two-dimensional states plot as (y1, y2); one-dimensional states plot
    against time with atoms pinned to the left edge.
    """
    def plane(states, t):
        return (states[:, 0], states[:, 1]) if states.shape[1] >= 2 else (t, states[:, 0])

    atoms = roll.states[:0] if measure is None else measure.states
    weights = np.empty(0) if measure is None else measure.weights
    xs, ys = plane(roll.states, np.arange(roll.horizon + 1, dtype=float))
    ax, ay = plane(atoms, np.zeros(len(atoms)))
    all_x, all_y = np.concatenate([xs, ax]), np.concatenate([ys, ay])
    lo_x, hi_x = float(all_x.min()), float(all_x.max())
    lo_y, hi_y = float(all_y.min()), float(all_y.max())
    span_x = hi_x - lo_x or 1.0
    span_y = hi_y - lo_y or 1.0
    size, margin = _SVG_SIZE, _SVG_MARGIN
    inner = size - 2 * margin

    def sx(v):
        return margin + (v - lo_x) / span_x * inner

    def sy(v):
        return size - margin - (v - lo_y) / span_y * inner

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
    parts.append(f'<polyline points="{pts}" fill="none" stroke="black" stroke-width="1"/>')
    for x, y, w in zip(ax, ay, weights):
        r = max(50.0 * float(w), 0.6)
        parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="{r:.2f}" '
                     f'fill="steelblue" fill-opacity="0.6"/>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
