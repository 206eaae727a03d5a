"""Finitely-constrained LP over discounted occupational measures.

``assemble`` discretizes the admissible graph into columns of an equality-
form LP: one row per nonconstant test function (the constant row is
identically zero and omitted) plus a probability-normalization row.
``solve`` runs the dense simplex and extracts the primal atomic measure
together with the dual certificate (the coefficient vector of the
polynomial surrogate and the optimal value).  ``solve_refined`` is the
cutting-plane loop (column generation): it prices a dense candidate set
against the certificate, appends the most-violating admissible points
and re-solves, each round resuming Phase II from the previous optimal
basis, until the certificate is dually feasible on the candidate set.
The ``FiniteLP`` owns its columns, with room for every later round's, and
each round extends it in place, so no round copies a column.

The candidate set is the admissible pairs of a tensor lattice of states
and controls.  It does not change between rounds, so ``solve_refined``
builds it once per solve with ``model.pair_lattice``: for every lattice
pair, the row of its successor f(y, u) among the distinct successors.  A
scan then evaluates psi once per lattice state and once per distinct
successor, gathers the latter per pair and prices a block of states
against every control by broadcasting, so no per-pair state, control or
psi(y) is written; an inadmissible pair's reduced cost is +inf, so it is
never a violator.

When the dual is degenerate, the vertex the simplex stops at is one of
many optimal duals, and its surrogate can be dually infeasible between
the candidate points.  ``select_certificate`` therefore replaces it by
the dual on the optimal face with the largest margin off the support,
so the certificate does not depend on the pivot path; the candidates are
priced again against that choice before it is accepted.
"""

from __future__ import annotations

import contextlib
import functools
import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import model
from .basis import MonomialBasis, constraint_columns
from .errors import (EmptyMeasure, InsufficientGrid, LpInfeasible, LpUnbounded, NonConverged,
                     SolverStalled)
from .model import DiscreteControlProblem
from .model import admissible_mask  # noqa: F401  perfbench/tracer.py wraps this name here
from .simplex import LpResult, lowest_below, solve_equality_lp

_WEIGHT_CLIP = 1e-12
_SUPPORT_TOL = 1e-9  # selection pins rc = 0 above this weight; atoms of 1e-12 are round-off


@dataclass(frozen=True)
class GridSpec:
    """Per-axis point counts for the base discretization of the graph."""

    state: object = 9      # int, per-axis tuple, or explicit (K, m) array
    control: object = 9


@dataclass(frozen=True)
class CandidateSpec:
    """Candidate set the refinement pass prices against the certificate.

    The admissible pairs of a uniform tensor grid, typically 2-4x the base
    resolution.  At most ``max_new_columns`` points are appended per pass.
    """

    state: object = 17
    control: object = 17
    max_new_columns: int = 8


class FiniteLP:
    """Columns (admissible pairs), cost vector and equality rows.

    ``states`` (K, m), ``controls`` (K, d), ``cost`` (K,) and ``matrix``
    (R, K: the nonconstant test functions' rows, then the normalization row)
    view the first K columns of arrays the LP owns, which ``assemble``
    allocates once with room for more.  They hold the columns one after the
    other, so ``matrix`` is Fortran-ordered, as ``np.hstack`` of its blocks
    lays it out.  ``rhs`` (R,) is 0 but for the normalization row's 1.

    An LP extends in place, within its room: ``extended`` writes the new
    columns into the room and returns this LP, now longer, so no column is
    copied.  An extension past the room raises ``ValueError`` and writes
    nothing.  Past the room, ``_columns`` keeps ``rows + 1`` spare matrix
    columns, which no extension reaches: ``selection_matrix`` writes its
    own columns right after the LP's, so that its matrix is a view too.
    """

    def __init__(self, capacity: int, rows: int, state_dim: int, control_dim: int):
        """An LP of no columns with room for ``capacity`` of them."""
        # matrix columns as rows; allocated before the small arrays, so that this block can
        # take a free region of the heap that they would otherwise split
        self._columns = np.empty((capacity + rows + 1, rows))
        self._states = np.empty((capacity, state_dim))
        self._controls = np.empty((capacity, control_dim))
        self._cost = np.empty(capacity)
        self.rhs = np.eye(1, rows, rows - 1)[0]
        self._view(0)

    @property
    def n_columns(self) -> int:
        return self.states.shape[0]

    @property
    def n_rows(self) -> int:
        return self.matrix.shape[0]

    def _view(self, n: int) -> None:
        """Make the first ``n`` columns this LP's."""
        self.states, self.controls, self.cost = self._states[:n], self._controls[:n], self._cost[:n]
        self.matrix = self._columns[:n].T

    def _write(self, problem, basis, states, controls, successors=None) -> None:
        """Append the columns of admissible pairs: the nonconstant test functions' rows, then 1.

        ``successors``, when given, are f(states, controls), already evaluated by the caller.
        """
        cost = problem.g(states, controls)  # both before any write: states first was slower
        cols = constraint_columns(basis, problem, states, controls, successors)[1:]
        at, end = self.n_columns, self.n_columns + states.shape[0]
        self._states[at:end] = states
        self._controls[at:end] = controls
        self._cost[at:end] = cost
        self._columns[at:end, :-1] = cols.T
        self._columns[at:end, -1] = 1.0
        self._view(end)

    def extended(self, problem: DiscreteControlProblem, basis: MonomialBasis,
                 states, controls) -> "FiniteLP":
        """This LP with extra admissible columns appended in the given order."""
        states = np.atleast_2d(np.asarray(states, dtype=float))
        controls = np.atleast_2d(np.asarray(controls, dtype=float))
        room = self._cost.shape[0] - self.n_columns
        if states.shape[0] > room:
            raise ValueError(f"{states.shape[0]} new columns do not fit the LP's room of {room}")
        self._write(problem, basis, states, controls)
        return self

    @contextlib.contextmanager
    def selection_matrix(self, support):
        """The (rows, n + s + 1) matrix of ``select_certificate`` for the ``with`` block, a
        Fortran-ordered view of this LP's storage.

        Its columns are the LP's, with the normalization entries of the s
        columns in ``support`` zeroed, then those columns negated with 0 in
        the normalization row, then the unit column of that row.  The extra
        columns go after the LP's, into its room or its spare columns, and
        the zeroed entries are restored on exit, also when the block raises.
        """
        n, s = self.n_columns, support.size
        columns = self._columns  # its row j is matrix column j, for the LP and after it
        columns[n:n + s, :-1] = -columns[support, :-1]
        columns[n:n + s + 1, -1] = 0.0
        columns[n + s, :-1] = 0.0
        columns[n + s, -1] = 1.0
        normalization = columns[support, -1].copy()
        columns[support, -1] = 0.0
        try:
            yield columns[:n + s + 1].T
        finally:
            columns[support, -1] = normalization


@dataclass
class AtomicMeasure:
    """Finitely supported probability measure on the admissible graph."""

    states: np.ndarray    # (K, m)
    controls: np.ndarray  # (K, d)
    weights: np.ndarray   # (K,) positive

    def __len__(self) -> int:
        return self.weights.size

    @property
    def total_weight(self) -> float:
        return float(self.weights.sum())

    def value(self, problem: DiscreteControlProblem) -> float:
        return float(self.weights @ problem.g(self.states, self.controls))


@dataclass
class DualCertificate:
    """Coefficients of the polynomial surrogate and the LP optimal value.

    ``lam[0]`` multiplies the constant test function; its row is omitted
    from the LP, so it is pinned to zero to make outputs reproducible.
    """

    lam: np.ndarray
    mu: float

    def psi(self, basis: MonomialBasis, y):
        """Surrogate psi = sum_k lam[k] * phi_k: a scalar for one point, (K,) for a batch."""
        return basis.evaluate(y, self.lam)


def assemble(problem: DiscreteControlProblem, basis: MonomialBasis,
             grid_spec: GridSpec, room: int = 0) -> FiniteLP:
    """Discretize the admissible graph and build the equality-form LP.

    The grid's pairs are taken a block of whole states at a time, cut by
    ``model.state_blocks`` from a state's LP entries, so a block's (pairs,
    N) temporaries stay at 0.5 MB whatever N: ``model.pair_grid``
    evaluates f once per pair of a block and masks the block by those
    successors, and ``FiniteLP._write`` writes its admissible columns,
    built from the same successors, into the LP, whose arrays are sized for every pair plus ``room`` columns for
    ``FiniteLP.extended`` (columns never written take no resident memory).
    A column depends on its own pair alone, so the blocks give the bytes of
    one pass over every pair, and no array the size of the grid is built
    but the LP's own.
    """
    if basis.dim != problem.state_dim:
        raise ValueError("basis dimension does not match the problem")
    s_pts = model.state_grid_points(problem, grid_spec.state)
    c_pts = model.control_grid_points(problem, grid_spec.control)
    n_rows, kc = basis.count, len(c_pts)

    lp = FiniteLP(len(s_pts) * kc + room, n_rows, s_pts.shape[1], c_pts.shape[1])
    for rows in model.state_blocks(len(s_pts), kc * n_rows):
        ys, us, fs, keep = model.pair_grid(problem, s_pts[rows], c_pts)
        keep = keep.ravel()
        lp._write(problem, basis, ys[keep], us[keep], fs[keep])
    if lp.n_columns < n_rows:
        raise InsufficientGrid(f"{lp.n_columns} admissible grid points for {n_rows} LP rows")
    return lp


def solve(lp: FiniteLP, pivot_tol: float = 1e-9, start=None,
          results: Optional[list] = None, seed=None) -> tuple[AtomicMeasure, DualCertificate]:
    """Solve the finite LP; atoms are the positive basic variables.

    The dual of the normalization row is the optimal value ``mu``; the
    duals of the test-function rows give the surrogate coefficients (sign
    flipped so that the reduced cost reads g + shifted surrogate - mu).
    On a degenerate LP the vertex, and with it the certificate, depend on
    the pivot path; ``select_certificate`` removes that dependence.
    ``start`` is a basis to resume Phase II from and ``seed`` columns in
    order of preference, whose first ones start the sifting working sets
    (see ``solve_equality_lp``), and ``results``, when given, receives the
    solver's ``LpResult``.
    """
    res = solve_equality_lp(lp.matrix, lp.rhs, lp.cost, pivot_tol=pivot_tol, start=start,
                            seed=seed)
    if results is not None:
        results.append(res)
    x = np.where(np.abs(res.x) < _WEIGHT_CLIP, 0.0, res.x)
    support = np.nonzero(x > 0.0)[0]
    measure = AtomicMeasure(
        states=lp.states[support].copy(),
        controls=lp.controls[support].copy(),
        weights=x[support].copy(),
    )
    lam = np.concatenate([[0.0], -res.duals[:-1]])
    certificate = DualCertificate(lam=lam, mu=float(res.duals[-1]))
    return measure, certificate


def select_certificate(lp: FiniteLP, res: LpResult, certificate: DualCertificate,
                       pivot_tol: float = 1e-9) -> tuple[DualCertificate, Optional[float], int]:
    """The max-margin certificate on the optimal face of the solved ``lp``.

    With S the columns of weight above ``_SUPPORT_TOL`` in ``res`` and
    ``mu`` fixed, it solves  max t  s.t.  rc_j = 0 on S, rc_j >= t off S,
    t <= 1, which aims at a strictly complementary dual (Goldman-Tucker),
    so that the reduced cost vanishes only on the support.  Returns
    (certificate, t*, pivots); when |S| equals the row count the dual is
    unique and ``certificate`` comes back unchanged with t* = None.

    The LP solved is the dual of that problem, in equality form over the
    rows of ``lp``: the test-function rows keep their coefficients and the
    normalization row becomes the row of t.  Its columns are the LP's
    columns (coefficient 1 in the t row off S, 0 on S), a negated copy of
    the S columns (the free multipliers of the equalities) and a column w
    for t <= 1.  No matrix of that size is built: the solve reads
    ``lp.selection_matrix``, a view of the LP's own storage.  Every
    variable at 0 except w = 1 is feasible, so it starts from the LP's
    basis with its heaviest column swapped for w, with no Phase I.  That
    swap keeps the basis nonsingular: the normalization row is the LP's
    only nonzero right-hand side, so a basic weight is the column's cofactor
    in that row over det B, nonzero when positive.  Its Phase II is the
    simplex's sifted one, like every other LP here: t* is certified over all
    n + s + 1 columns.
    """
    support = np.nonzero(res.x > _SUPPORT_TOL)[0]
    rows, n, s = lp.n_rows, lp.n_columns, support.size
    if s == rows:
        return certificate, None, 0
    cost = np.empty(n + s + 1)
    np.subtract(lp.cost, certificate.mu * lp.matrix[-1], out=cost[:n])  # the LP's shifted costs
    cost[n:n + s] = -cost[support]
    cost[-1] = 1.0
    start = res.basis.copy()
    start[np.argmax(res.x[start])] = n + s
    with lp.selection_matrix(support) as matrix:
        sel = solve_equality_lp(matrix, lp.rhs, cost, pivot_tol=pivot_tol, start=start)
    lam = np.concatenate([[0.0], -sel.duals[:-1]])
    return DualCertificate(lam=lam, mu=certificate.mu), float(sel.duals[-1]), sel.pivots


def reduced_costs(problem: DiscreteControlProblem, basis: MonomialBasis,
                  certificate: DualCertificate, states, controls, psi_y=None,
                  psi_f=None, psi_y0=None) -> np.ndarray:
    """g + shifted surrogate terms - mu, one value per pair as a flat array.

    Negative values identify points the current certificate misprices;
    at atoms of the optimal measure the value is zero.  The inputs
    broadcast as in ``model.one_step``: aligned (K, m) states and (K, d)
    controls give K values, a scan block's (k, 1, m) states and (1, C, d)
    controls k * C, state-major.  ``psi_y``, ``psi_f`` and ``psi_y0``,
    when given, are psi at ``states``, at the successors f(states,
    controls) and at the initial state, already evaluated by the caller.
    """
    states = np.atleast_2d(np.asarray(states, dtype=float))
    controls = np.atleast_2d(np.asarray(controls, dtype=float))
    psi = functools.partial(certificate.psi, basis)
    own = psi_y is None  # then psi_y is this call's, and the anchor term reuses it
    if own:
        psi_y = model.at_points(psi, states)
    a = problem.discount
    rc = model.one_step(problem, psi, states, controls, psi_y, psi_f)
    if psi_y0 is None:
        psi_y0 = psi(problem.initial_state)
    anchor = np.subtract(psi_y0, psi_y, out=psi_y if own else None)
    anchor *= 1.0 - a
    rc += anchor
    rc -= certificate.mu
    return rc.reshape(-1)


def scan_candidates(problem: DiscreteControlProblem, basis: MonomialBasis,
                    certificate: DualCertificate, lattice: model.PairLattice,
                    cap: int, tol: float):
    """Price the admissible pairs of ``lattice``; return (min reduced cost, worst violators).

    ``lattice`` is a ``model.pair_lattice`` built once per solve or per
    verify; its scan prices the inadmissible pairs at +inf, a block of
    states against every control at once.  The violators are the at most
    ``cap`` pairs with reduced cost below -tol, most violating first, ties
    broken lexicographically on (y, u); with tol = inf there are none, and
    only the minimum is priced.  psi(y0) is evaluated once per scan.
    """
    best_rc, best_y, best_u = [], [], []
    min_rc = np.inf
    psi = functools.partial(certificate.psi, basis)
    psi_y0 = psi(problem.initial_state)
    c = len(lattice.controls)
    for rows, ys, us, psi_y, psi_f in lattice.scan(psi):
        rc = reduced_costs(problem, basis, certificate, ys, us, psi_y, psi_f, psi_y0)
        min_rc = min(min_rc, float(rc.min()))
        keep = lowest_below(rc, cap, -tol)
        if keep is not None:
            state, control = np.divmod(keep, c)
            best_rc.append(rc[keep])
            best_y.append(lattice.states[rows][state])
            best_u.append(lattice.controls[control])
    if not best_rc:
        return min_rc, np.empty((0, problem.state_dim)), np.empty((0, problem.control_dim))
    rc = np.concatenate(best_rc)
    ys = np.vstack(best_y)
    us = np.vstack(best_u)
    keys = tuple(us[:, a] for a in range(us.shape[1] - 1, -1, -1)) \
        + tuple(ys[:, a] for a in range(ys.shape[1] - 1, -1, -1)) + (rc,)
    picked = np.lexsort(keys)[:cap]  # lattice pairs are distinct, so no two rows repeat
    return min_rc, ys[picked], us[picked]


def solve_refined(problem: DiscreteControlProblem, basis: MonomialBasis,
                  grid_spec: GridSpec, candidate_spec: CandidateSpec,
                  tol: float = 1e-6, max_rounds: int = 50,
                  pivot_tol: float = 1e-9,
                  history: Optional[list] = None) -> tuple[AtomicMeasure, DualCertificate, int]:
    """Solve, append the worst candidate violators and re-solve until none is left.

    Each round resumes Phase II from the previous round's optimal basis,
    which stays feasible because a round only appends columns.  When the
    scan finds no violator, ``select_certificate`` picks the max-margin
    dual on the optimal face and the candidates are priced again against
    it; violators found then are appended and the loop goes on, so the
    certificate returned is always one the scan passed.

    ``history``, when given, collects one record per round: the primal
    value, dual value, atom count, LP columns, the worst violation of the
    last scan, the LP's pivots, whether its start basis was accepted
    (``warm``), and the selection's ``margin`` t* and ``selection_pivots``
    (None and 0 when no selection ran or the dual was unique).

    ``NonConverged`` carries the last finished round's measure, certificate
    and round count, both when the rounds run out and when the simplex
    fails (``LpInfeasible``, ``LpUnbounded``, ``SolverStalled``) in a later
    round; the simplex error is then its ``__cause__``.  A failure in
    round 1, which has no earlier result, raises the simplex error itself.
    """
    if max_rounds < 1:
        raise ValueError("max_rounds must be at least 1")
    if not tol >= 0:  # NaN too: it finds no violator, yet never passes the scan
        raise ValueError(f"tol must be nonnegative, got {tol}")
    if candidate_spec.max_new_columns < 1:
        raise ValueError("max_new_columns (batch) must be at least 1")
    # built before the LP, so the build's temporaries never share memory with its matrix
    lattice = model.pair_lattice(problem,
                                 model.state_grid_points(problem, candidate_spec.state),
                                 model.control_grid_points(problem, candidate_spec.control))
    # room for the columns of every round after the first, which extend the LP in place
    lp = assemble(problem, basis, grid_spec, (max_rounds - 1) * candidate_spec.max_new_columns)
    measure = certificate = start = done = None
    for rounds in range(1, max_rounds + 1):
        results: list = []
        try:
            measure, certificate = solve(lp, pivot_tol=pivot_tol, start=start, results=results)
            res = results[0]
            min_rc, ys, us = scan_candidates(problem, basis, certificate, lattice,
                                             candidate_spec.max_new_columns, tol)
            margin, selection_pivots = None, 0
            if min_rc >= -tol:
                certificate, margin, selection_pivots = select_certificate(
                    lp, res, certificate, pivot_tol)
                if margin is not None:
                    min_rc, ys, us = scan_candidates(problem, basis, certificate, lattice,
                                                     candidate_spec.max_new_columns, tol)
        except (LpInfeasible, LpUnbounded, SolverStalled) as exc:
            if done is None:
                raise
            raise NonConverged(*done, f"refinement stopped in round {rounds}: "
                                      f"{type(exc).__name__}: {exc}") from exc
        if history is not None:
            history.append({
                "round": rounds,
                "value": measure.value(problem),
                "mu": certificate.mu,
                "atoms": len(measure),
                "columns": lp.n_columns,
                "max_violation": max(0.0, -min_rc),
                "pivots": res.pivots,
                "warm": res.warm,
                "margin": margin,
                "selection_pivots": selection_pivots,
            })
        done = measure, certificate, rounds
        if min_rc >= -tol:
            return measure, certificate, rounds
        if rounds == max_rounds:
            break
        lp.extended(problem, basis, ys, us)
        start = res.basis
    raise NonConverged(measure, certificate, max_rounds)


def discard_small_atoms(measure: AtomicMeasure, threshold: float) -> AtomicMeasure:
    """Drop atoms below the weight threshold and renormalize the rest."""
    if not 0.0 <= threshold < 1.0:
        raise ValueError("threshold must lie in [0, 1)")
    keep = measure.weights >= threshold
    if not keep.any():
        raise EmptyMeasure(f"every atom weighs less than {threshold}")
    w = measure.weights[keep]
    return AtomicMeasure(
        states=measure.states[keep].copy(),
        controls=measure.controls[keep].copy(),
        weights=w / w.sum(),
    )


# ---------------------------------------------------------------------------
# Solution file format.

def solution_to_json(measure: AtomicMeasure, certificate: DualCertificate,
                     value: float, rounds: int, max_dual_violation: float,
                     meta: Optional[dict] = None) -> str:
    doc = {
        "atoms": [[list(map(float, y)), list(map(float, u)), float(w)]
                  for y, u, w in zip(measure.states, measure.controls, measure.weights)],
        "lambda": [float(v) for v in certificate.lam],
        "mu": float(certificate.mu),
        "value": float(value),
        "rounds": int(rounds),
        "max_dual_violation": float(max_dual_violation),
    }
    if meta:
        doc.update(meta)
    return json.dumps(doc, indent=2)


def _is_number(value) -> bool:
    """Whether a parsed JSON value is a number (a bool is not one)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def solution_from_json(text: str) -> tuple[AtomicMeasure, DualCertificate, dict]:
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("the solution is not a JSON object; run solve again")
    atoms = doc["atoms"]
    if not isinstance(atoms, list):
        raise ValueError("the solution's atoms is not a list; run solve again")
    if not atoms:  # every solve writes at least one
        raise ValueError("the solution has no atoms; run solve again")
    for k, atom in enumerate(atoms):
        if not (isinstance(atom, list) and len(atom) == 3
                and isinstance(atom[0], list) and isinstance(atom[1], list)):
            raise ValueError(f"the solution's atom {k} is not a [state, control, weight] "
                             "triple; run solve again")
        if not all(map(_is_number, atom[0] + atom[1] + atom[2:])):
            raise ValueError(f"the solution's atom {k} holds a value that is not a number; "
                             "run solve again")
        for part, j in (("state", 0), ("control", 1)):
            if len(atom[j]) != len(atoms[0][j]):
                raise ValueError(f"the solution's atom {k} has a {part} of length "
                                 f"{len(atom[j])}, atom 0 one of length {len(atoms[0][j])}; "
                                 "run solve again")
    states = np.array([a[0] for a in atoms], dtype=float)
    controls = np.array([a[1] for a in atoms], dtype=float)
    weights = np.array([a[2] for a in atoms], dtype=float)
    lam, mu = doc["lambda"], doc["mu"]
    if not (isinstance(lam, list) and all(map(_is_number, lam))):
        raise ValueError("the solution's lambda is not a list of numbers; run solve again")
    if not _is_number(mu):
        raise ValueError("the solution's mu is not a number; run solve again")
    lam, mu = np.array(lam, dtype=float), float(mu)
    for name, values in (("lambda", lam), ("mu", mu), ("atoms", states), ("atoms", controls),
                         ("atoms", weights)):
        if not np.isfinite(values).all():  # a solve writes finite numbers only
            raise ValueError(f"the solution's {name} is not finite; run solve again")
    measure = AtomicMeasure(states=states, controls=controls, weights=weights)
    return measure, DualCertificate(lam=lam, mu=mu), doc
