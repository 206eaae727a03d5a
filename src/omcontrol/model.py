"""Problem data for infinite-horizon discounted control in discrete time.

A :class:`DiscreteControlProblem` bundles the transition map ``f``, the
running cost ``g``, the state box ``Y``, the control box ``U``, a discount
factor in (0, 1) and the initial state.  A state-control pair is
*admissible* when the successor ``f(y, u)`` stays inside ``Y``, and
``admissible_mask`` tests successors the caller has computed, so every
walk over pairs evaluates f once per pair.  ``pairs`` crosses a state array
with a control array, states varying slowest: the one pair order.
``pair_grid`` adds the successors and the admissibility mask, and
``one_step_table`` is the one-step expression over such a grid, psi read
at the same successors.  ``pair_lattice`` indexes every pair of a lattice
too large to cross at once (the candidates of ``solve``, the oracle grid of
``verify``) by its distinct successors, built and scanned in blocks of
whole states whose size this module alone sets.  Off the graph is always
+inf: the table, and the lattice's scan, price an inadmissible pair at
+inf.  ``require_admissible`` is the one check of Assumption I, that every
state has an admissible control.

Dynamics and cost callables must accept batched inputs: arrays of shape
``(K, m)`` / ``(K, d)`` in, ``(K, m)`` / ``(K,)`` out.  Plain elementwise
numpy expressions satisfy this automatically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import AssumptionIViolation, InadmissibleTransition, UnknownProblem

# Tolerance band on box faces: dynamics values landing exactly on a face
# must not flip admissibility under floating-point drift.
MEMBERSHIP_TOL = 1e-12
_SCAN_CHUNK = 1 << 16
# distinct_rows dedups K rows through a presence table when their key space,
# the product of the per-axis distinct counts, is at most 4 K + 1024 keys:
# the table then costs a few bytes a row.  A larger space (generic rows, not
# on a lattice) takes the lexsort.
_KEYS_PER_ROW, _KEYS_FREE = 4, 1024


@dataclass(frozen=True)
class Box:
    """Axis-aligned box with a tolerant membership test and tensor grids."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("box bounds must be 1-D arrays of equal length")
        if np.any(hi < lo):
            raise ValueError("box upper bound below lower bound")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return self.lower.size

    def contains(self, points, tol: float = MEMBERSHIP_TOL):
        """Membership mask; scalar for a single point, (K,) for a batch.

        Tested one axis at a time, so no (K, m) boolean array is built.
        """
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts)
        if pts.shape[1] != self.dim:
            raise ValueError(f"points of dimension {pts.shape[1]}, box has {self.dim}")
        lo, hi = self.lower - tol, self.upper + tol
        ok = pts[:, 0] >= lo[0]
        ok &= pts[:, 0] <= hi[0]
        for a in range(1, self.dim):
            ok &= pts[:, a] >= lo[a]
            ok &= pts[:, a] <= hi[a]
        return bool(ok[0]) if single else ok

    def axes(self, counts) -> list[np.ndarray]:
        counts = _per_axis_counts(counts, self.dim)
        return [np.linspace(self.lower[a], self.upper[a], counts[a]) for a in range(self.dim)]

    def grid(self, counts) -> np.ndarray:
        """Uniform tensor grid, rows in ascending lexicographic order."""
        return tensor_points(self.axes(counts))


def _per_axis_counts(counts, dim: int) -> tuple[int, ...]:
    if np.isscalar(counts):
        counts = (int(counts),) * dim
    counts = tuple(int(c) for c in counts)
    if len(counts) == 1 and dim > 1:
        counts = counts * dim
    if len(counts) != dim:
        raise ValueError(f"expected {dim} per-axis counts, got {counts}")
    if any(c < 1 for c in counts):
        raise ValueError("grid counts must be positive")
    return counts


def tensor_points(axes) -> np.ndarray:
    """Cartesian product of 1-D axes, first axis varying slowest."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


@dataclass(frozen=True)
class DiscreteControlProblem:
    """Immutable description of one discounted control problem.

    Attributes
    ----------
    state_dim : dimension m of the state space.
    dynamics : batched map (y, u) -> next state.
    cost : batched running cost (y, u) -> scalar.
    state_region : box Y the trajectory must stay in.
    control_region : box U of raw controls.
    discount : discount factor in (0, 1).
    initial_state : starting state, must lie in Y.
    """

    state_dim: int
    dynamics: Callable
    cost: Callable
    state_region: Box
    control_region: Box
    discount: float
    initial_state: np.ndarray
    name: str = ""

    def __post_init__(self):
        if not 0.0 < self.discount < 1.0:
            raise ValueError(f"discount factor must lie in (0, 1), got {self.discount}")
        y0 = np.atleast_1d(np.asarray(self.initial_state, dtype=float))
        if y0.size != self.state_dim:
            raise ValueError("initial state dimension mismatch")
        if not self.state_region.contains(y0):
            raise ValueError(f"initial state {y0} outside the state region")
        object.__setattr__(self, "initial_state", y0)

    @property
    def control_dim(self) -> int:
        return self.control_region.dim

    def f(self, states, controls) -> np.ndarray:
        out = self.dynamics(np.asarray(states, dtype=float), np.asarray(controls, dtype=float))
        return np.asarray(out, dtype=float)

    def g(self, states, controls):
        out = self.cost(np.asarray(states, dtype=float), np.asarray(controls, dtype=float))
        return np.asarray(out, dtype=float)


def _grid_points(region: Box, spec) -> np.ndarray:
    if isinstance(spec, np.ndarray):
        pts = np.asarray(spec, dtype=float)  # no copy of a float64 array
        return pts[:, None] if pts.ndim == 1 else pts
    return region.grid(spec)


def control_grid_points(problem: DiscreteControlProblem, spec) -> np.ndarray:
    """Resolve a control discretization spec into an ordered (K, d) array.

    ``spec`` is per-axis counts of a tensor grid of the control box, or an
    explicit array of controls, used as given: a float64 array comes back
    as itself (a 1-D one as a column view), not as a copy.
    """
    return _grid_points(problem.control_region, spec)


def state_grid_points(problem: DiscreteControlProblem, spec) -> np.ndarray:
    """``control_grid_points`` for the state box."""
    return _grid_points(problem.state_region, spec)


def distinct_rows(points):
    """Distinct rows of a (K, m) float array by bit pattern, and the (K,) inverse map.

    Comparing bits keeps -0.0 apart from 0.0 (and NaN payloads apart), so
    ``distinct[inverse]`` has exactly the bytes of ``points``.  The rows come
    in ascending lexicographic order of their uint64 bit patterns.  Each
    column, a uint64 view (also of a strided or Fortran-ordered input), is
    sorted once for its distinct bits, and one of three finishes agree bit
    for bit:

    - one column: searching its distinct bits gives the inverse;
    - columns whose distinct counts multiply to at most 4 K + 1024 keys
      (``_KEYS_PER_ROW``, ``_KEYS_FREE``), as on a lattice: each column's
      ranks among its distinct bits fold into one key (first column
      slowest), marked in a presence table, so no row is sorted;
    - any other input: ``np.lexsort`` over the columns.
    """
    points = np.asarray(points, dtype=float)
    columns = [points[:, a].view(np.uint64) for a in range(points.shape[1])]
    axes = [_sorted_distinct(bits) for bits in columns]
    shape = [len(values) for values in axes]
    if math.prod(shape) <= _KEYS_PER_ROW * len(points) + _KEYS_FREE:  # a Python int: no overflow
        key = np.searchsorted(axes[0], columns[0])
        if len(axes) == 1:
            return axes[0].view(np.float64)[:, None], key
        for values, bits in zip(axes[1:], columns[1:]):
            key *= len(values)
            key += np.searchsorted(values, bits)
        present = np.zeros(math.prod(shape), dtype=bool)
        present[key] = True
        codes = np.unravel_index(np.flatnonzero(present), shape)
        distinct = np.empty((len(codes[0]), len(axes)), dtype=np.uint64)
        for a, (values, code) in enumerate(zip(axes, codes)):
            distinct[:, a] = values[code]
        return distinct.view(np.float64), (np.cumsum(present) - 1)[key]
    del axes
    order = np.lexsort(columns[::-1])
    first = np.zeros(len(order), dtype=bool)
    first[:1] = True
    for bits in columns:
        ordered = bits[order]
        first[1:] |= ordered[1:] != ordered[:-1]
    inverse = np.empty(len(order), dtype=np.int64)
    inverse[order] = np.cumsum(first) - 1
    return points[order[first]], inverse


def _sorted_distinct(bits):
    """The sorted distinct values of a 1-D array; its sort buffers die with the call."""
    ordered = np.sort(bits)
    first = np.empty(ordered.size, dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return ordered[first]


def admissible_mask(problem: DiscreteControlProblem, successors) -> np.ndarray:
    """Admissibility of pairs from their (K, m) successors f(y, u): (K,), True inside Y."""
    return problem.state_region.contains(np.atleast_2d(np.asarray(successors, dtype=float)))


def pairs(states, controls):
    """Every (state, control) pair of a (K, m) state and (C, d) control array.

    Returns the (K*C, m) pair states and the (K*C, d) pair controls, states
    varying slowest, the one pair order of every walk over a grid.  For one
    state both are views (of the state row and of ``controls``), not copies.
    """
    (k, m), (c, d) = states.shape, controls.shape
    return (np.broadcast_to(states[:, None, :], (k, c, m)).reshape(k * c, m),
            np.broadcast_to(controls[None, :, :], (k, c, d)).reshape(k * c, d))


def pair_grid(problem: DiscreteControlProblem, states, controls):
    """``pairs`` of a (K, m) state and (C, d) control array, with their successors.

    Returns the (K*C, m) pair states, the (K*C, d) pair controls and the
    (K*C, m) successors, and the (K, C) admissibility mask.
    """
    pair_states, pair_controls = pairs(states, controls)
    successors = problem.f(pair_states, pair_controls)
    mask = admissible_mask(problem, successors).reshape(len(states), len(controls))
    return pair_states, pair_controls, successors, mask


def state_blocks(states: int, per_state: int):
    """Slices of whole states, about ``_SCAN_CHUNK`` entries each (at least one state).

    The one block rule of every walk over pairs: ``per_state`` is a state's
    pairs in a lattice, its LP entries in ``silp.assemble``.  Slices, not
    arrays, so no two blocks' temporaries are alive at once.
    """
    per_block = max(1, _SCAN_CHUNK // per_state)
    for lo in range(0, states, per_block):
        yield slice(lo, min(lo + per_block, states))


@dataclass(frozen=True)
class PairLattice:
    """Every pair of a state x control lattice, indexed by successor.

    The pairs are in ``pairs`` order, states varying slowest.
    ``successors`` are the distinct f(y, u) of the admissible pairs, and
    ``successor_of`` gives, for every pair, the row of its successor, or
    S = ``len(successors)`` for an inadmissible pair, in the smallest
    unsigned dtype that holds S.
    """

    states: np.ndarray         # (Ks, m)
    controls: np.ndarray       # (C, d)
    successors: np.ndarray     # (S, m)
    successor_of: np.ndarray   # (Ks * C,) unsigned, S off the graph
    # the scan's pair and psi buffers, kept for the lattice's lifetime: as per-scan
    # temporaries, glibc could return their pages after a scan, and each round then
    # faulted them in again
    _buffers: list = field(default_factory=list, init=False, repr=False, compare=False)

    def blocks(self):
        """Yield each block's slice of ``states``: whole states, about ``_SCAN_CHUNK`` pairs."""
        return state_blocks(len(self.states), len(self.controls))

    def _block_buffers(self, states: int) -> list:
        """(pair states, pair controls, psi_y, psi_f) buffers for blocks of ``states`` states.

        The pair controls are ``controls`` repeated, the same for every block,
        so they are written once.
        """
        size = states * len(self.controls)
        if not self._buffers or len(self._buffers[2]) < size:
            us = np.empty((size, self.controls.shape[1]))
            us.reshape(states, *self.controls.shape)[:] = self.controls
            self._buffers[:] = [np.empty((size, self.states.shape[1])), us, np.empty(size),
                                np.empty(size)]
        return self._buffers

    def scan(self, psi: Callable):
        """Yield (rows, states, controls, psi(states), psi(successors)) per block of pairs,
        ``rows`` the block's slice of ``states``.

        psi is evaluated once per lattice state and once per distinct
        successor, and read as +inf at an inadmissible pair's S, so every
        one-step value and reduced cost there is +inf, as in ``one_step_table``.
        The yielded arrays are read-only views of the lattice's buffers,
        which the next block overwrites: a caller keeps a block's values by
        copying them, and an in-place write, which would reach later scans
        through the pair controls written once, raises.
        """
        psi_s, psi_f = psi(self.states), np.append(psi(self.successors), np.inf)
        successor = self.successor_of.reshape(len(self.states), -1)
        c = len(self.controls)
        for rows in self.blocks():
            k = rows.stop - rows.start
            ys, us, at_y, at_f = (buf[:k * c] for buf in self._block_buffers(k))
            ys.reshape(k, c, -1)[:] = self.states[rows, None, :]
            at_y.reshape(k, c)[:] = psi_s[rows, None]
            # every index is at most S, so "clip" clips nothing; it spares "raise"'s buffer
            psi_f.take(successor[rows].ravel(), out=at_f, mode="clip")
            for view in (ys, us, at_y, at_f):
                view.flags.writeable = False
            yield rows, ys, us, at_y, at_f


def pair_lattice(problem: DiscreteControlProblem, states, controls) -> PairLattice:
    """Index every pair of a (K, m) state and (C, d) control array by its successor.

    f is evaluated and admissibility tested once per block, through
    ``pair_grid``.  Each block's admissible successors are made distinct on
    their own and only those are merged, so no array the size of the
    lattice is built but ``successor_of``.  Both dedups are
    ``distinct_rows``: successors on a lattice have few distinct values per
    axis, so they take its key table (at most 4 K + 1024 keys for K rows)
    and no row sort; scattered successors take its lexsort.
    """
    parts = []
    for rows in state_blocks(len(states), len(controls)):
        _, _, succ, mask = pair_grid(problem, states[rows], controls)
        mask = mask.ravel()
        distinct, inverse = distinct_rows(succ[mask])
        # the smallest unsigned dtype that holds the block's S, as successor_of below
        local = np.full(mask.size, len(distinct), dtype=np.min_scalar_type(len(distinct)))
        local[mask] = inverse
        parts.append((distinct, local))
    merge = np.concatenate([np.empty((0, problem.state_dim))] + [d for d, _ in parts])
    parts = [(len(d), local) for d, local in parts]  # the rows live once, in merge
    successors, merged = distinct_rows(merge)
    s = len(successors)
    successor_of = np.empty(len(states) * len(controls), dtype=np.min_scalar_type(s))
    at = base = 0
    for count, local in parts:
        to_lattice = np.append(merged[base:base + count], s)  # the block's S reads S
        successor_of[at:at + local.size] = to_lattice.take(local)
        at, base = at + local.size, base + count
    return PairLattice(states=states, controls=controls, successors=successors,
                       successor_of=successor_of)


def require_admissible(states, mask) -> None:
    """Assumption I on a grid: raise at the first state whose mask row is empty."""
    stuck = np.nonzero(~mask.any(axis=1))[0]
    if stuck.size:
        raise AssumptionIViolation(tuple(states[stuck[0]]))


def one_step(problem: DiscreteControlProblem, psi: Callable, states, controls,
             psi_y=0.0, psi_f=None) -> np.ndarray:
    """g(y, u) + alpha * (psi(f(y, u)) - psi_y) at aligned pairs, psi a batched callable.

    The one-step integrand of the max-min dual: minimal on the support of
    an optimal measure, and its argmin over u is the near-optimal control.
    ``psi_f``, when given, is psi at the successors f(y, u), already
    evaluated by the caller.
    """
    if psi_f is None:
        psi_f = psi(problem.f(states, controls))
    return problem.g(states, controls) + problem.discount * (psi_f - psi_y)


def one_step_table(problem: DiscreteControlProblem, psi: Callable, states, controls,
                   psi_y=0.0) -> np.ndarray:
    """``one_step`` at every pair of a (K, m) state and (C, d) control array.

    The (K, C) table, +inf at the inadmissible pairs; ``psi_y`` is a scalar
    or one value per state.  The minimizing control and the minimized
    one-step expression are its row argmin and row minima.  Raises
    :class:`AssumptionIViolation` at the first state with no admissible
    control.  f is evaluated once per pair, for the mask and psi.
    """
    pair_states, pair_controls, successors, mask = pair_grid(problem, states, controls)
    require_admissible(states, mask)
    if np.ndim(psi_y):
        psi_y = np.repeat(psi_y, len(controls))
    vals = one_step(problem, psi, pair_states, pair_controls, psi_y, psi(successors))
    return np.where(mask, vals.reshape(mask.shape), np.inf)


def step(problem: DiscreteControlProblem, y, u) -> np.ndarray:
    """Apply the dynamics once; the successor must stay inside Y."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    u = np.atleast_1d(np.asarray(u, dtype=float))
    nxt = problem.f(y, u)
    if not problem.state_region.contains(nxt):
        raise InadmissibleTransition(f"f({tuple(y)}, {tuple(u)}) = {tuple(nxt)} leaves the state region")
    return nxt


# ---------------------------------------------------------------------------
# Built-in benchmark problems.  The registry is the extension point for
# additional problem families; arbitrary f, g from config text is out of
# scope by design.

def _example1(alpha: float = 0.9, y0=(0.5, 0.25)) -> DiscreteControlProblem:
    box = Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))

    def f(y, u):
        return 0.5 * y - 0.5 * u

    def g(y, u):
        return -y[..., 0] * u[..., 1] + y[..., 1] * u[..., 0]

    return DiscreteControlProblem(
        state_dim=2,
        dynamics=f,
        cost=g,
        state_region=box,
        control_region=Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0])),
        discount=alpha,
        initial_state=np.asarray(y0, dtype=float),
        name="example1",
    )


def _shift(alpha: float = 0.5, y0=0.4) -> DiscreteControlProblem:
    # One-dimensional benchmark with f(y, u) = u and increasing cost g(y) = y,
    # g(0) = 0; the optimal control is u = 0 and V(y) = g(y) in closed form.
    box = Box(np.array([0.0]), np.array([1.0]))

    def f(y, u):
        return np.array(u, dtype=float, copy=True)

    def g(y, u):
        return y[..., 0]

    return DiscreteControlProblem(
        state_dim=1,
        dynamics=f,
        cost=g,
        state_region=box,
        control_region=Box(np.array([0.0]), np.array([1.0])),
        discount=alpha,
        initial_state=np.atleast_1d(np.asarray(y0, dtype=float)),
        name="shift",
    )


PROBLEM_REGISTRY: dict[str, Callable[..., DiscreteControlProblem]] = {
    "example1": _example1,
    "shift": _shift,
}


def builtin_problem(name: str, alpha: float | None = None, y0=None) -> DiscreteControlProblem:
    """Instantiate a registered benchmark problem with optional overrides."""
    try:
        factory = PROBLEM_REGISTRY[name]
    except KeyError:
        raise UnknownProblem(f"unknown problem {name!r}; known: {sorted(PROBLEM_REGISTRY)}") from None
    kwargs = {}
    if alpha is not None:
        kwargs["alpha"] = float(alpha)
    if y0 is not None:
        kwargs["y0"] = y0
    return factory(**kwargs)
