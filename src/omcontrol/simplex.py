"""Dense two-phase revised simplex for equality-form LPs.

Solves  min c @ x  subject to  A @ x = b, x >= 0  with A dense and small:
tens of rows and up to a few 1e5 columns, such as the 160,801-160,812 of
the degree-8 shift LPs on 401-point grids.  Feasibility comes from a
Phase-I with artificial variables over [A | I]; an artificial column can
leave the basis but never enters it.  [A | I] is read by column and never
built: ``_WithIdentity`` gathers its basis and working-set columns, and
Phase I prices A itself, so no copy of an LP's matrix is made.  Redundant
rows discovered there are dropped and get zero duals.  Pricing is
Dantzig's rule with smallest-index tie-breaks; a degeneracy counter
switches to Bland's rule after ``_STALL_LIMIT`` pivots without objective
progress, which guarantees termination, and switches back once the
objective moves again.  The pivots work from one explicit basis inverse,
updated by a rank-one (eta) update per pivot (product form; Dantzig and
Orchard-Hays, 1954) and refactorized every m pivots for an LP of m rows.
Optimality is confirmed on x_B and duals re-solved from the basis matrix,
so the result of a final basis does not depend on the updates that led to
it.  A final point whose residual |B x_B - b| exceeds ``_RESIDUAL_TOL`` is
refused with ``SolverStalled``, never returned as optimal.

The pivot loop keeps one invariant: each value that decides a pivot or
reaches an output (x_B = B^-1 b, y = c_B B^-1, the objective, the reduced
costs, d = B^-1 A_j, the ratio test with its tie rule, the rank-one
update) comes from the same float operations, in the same order, as in
the loop's reference in ``tests/test_simplex.py``, which allocates every
temporary afresh.  Only the work around those values is saved: buffers
are allocated once per call and written in place, and the enterable
columns and their costs are sliced once.  So the loop takes the same
pivots and returns the same bytes as the reference.

Both phases run by sifting (working-set pricing; Bixby et al., Oper. Res.
40(5), 1992): the pivots price only a working set of columns, every other
column is priced each time the working set is optimal, and the most
negative ones join it.  A phase stops when no reduced cost is below
``-pivot_tol``, so its optimum is certified over all columns while a
pivot prices a few columns per row instead of the whole LP.  A caller's
``seed`` lists columns in order of preference, and its first
``_SIFT_WIDTH`` per row start the working sets of both phases.  Without
one, Phase I prices every column of [A | I] with no working set, and
Phase II's working set starts from columns spread evenly over the LP.

A caller that already holds a primal feasible basis, such as the optimal
basis of an LP whose columns it has since appended to, passes it as
``start``: when it has one distinct column per row, is numerically
nonsingular and is primal feasible, Phase II resumes from it with no
Phase I.  Any other start, including the basis of a solve whose Phase I
dropped a redundant row (it is one column short), falls back to the cold
two-phase solve, which returns exactly what it would without a start.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LpInfeasible, LpUnbounded, SolverStalled

_PROGRESS_TOL = 1e-12
_STALL_LIMIT = 1000  # pivots without progress before Bland's rule engages
_SIFT_WIDTH = 4      # sifting: columns per row seeded into and added to the working set
_RESIDUAL_TOL = 1e-9  # |B x_B - b| of a returned point, verify's measure-residual bound


@dataclass
class LpResult:
    x: np.ndarray        # primal solution over the structural columns
    duals: np.ndarray    # one dual per original row, in input row order
    value: float
    basis: np.ndarray    # structural column indices of the final basis
    pivots: int
    warm: bool = False   # Phase II resumed from the given start basis


def seed_length(rows: int) -> int:
    """How many leading columns of a seed ``solve_equality_lp`` reads for an LP of ``rows`` rows."""
    return _SIFT_WIDTH * rows


def _distinct(*parts):
    """The sorted distinct values of 1-D index arrays, as ``np.union1d`` gives them, without
    the ``numpy.ma`` import that ``np.unique`` makes on its first call."""
    merged = np.sort(np.concatenate(parts))
    keep = np.empty(merged.size, dtype=bool)
    keep[:1] = True
    np.not_equal(merged[1:], merged[:-1], out=keep[1:])
    return merged[keep]


class _WithIdentity:
    """[A | I] of Phase I, read by column and never built.

    ``[:, cols]`` gives columns of [A | I]: A's own below n and identity
    columns from n on.  A slice within A is a view of A, and an index array
    gathers a Fortran-ordered matrix, the layout numpy gives a column gather.
    """

    def __init__(self, A):
        self.A = A
        self.shape = (A.shape[0], A.shape[0] + A.shape[1])

    def __getitem__(self, key):
        _, cols = key
        m, n = self.A.shape
        if isinstance(cols, slice):  # the pricing's enterable columns, all of them in A
            if cols.indices(n + m)[1] > n:
                raise IndexError("a slice of [A | I] reaches the identity block")
            return self.A[:, cols]
        if np.ndim(cols) == 0:  # the entering column, which is A's
            return self.A[:, cols]
        idx = np.asarray(cols)
        gathered = np.zeros((idx.size, m))  # transposed, so the result is Fortran-ordered
        own = idx < n
        gathered[own] = self.A.T[idx[own]]
        unit = np.nonzero(~own)[0]
        gathered[unit, idx[unit] - n] = 1.0
        return gathered.T


def _inverse(B):
    """The explicit inverse of the basis matrix ``B``."""
    try:
        return np.linalg.inv(B)
    except np.linalg.LinAlgError:
        raise SolverStalled("singular working basis") from None


def _entering(rc, use_bland, pivot_tol):
    """Entering column for the reduced costs ``rc``, or None at optimality."""
    if use_bland:
        negative = np.nonzero(rc < -pivot_tol)[0]
        return int(negative[0]) if negative.size else None
    j = int(rc.argmin())
    return j if rc[j] < -pivot_tol else None


def _iterate(A, b, c, basis, n_enterable, pivot_tol, max_pivots, pivots_done):
    """Run simplex pivots until optimality over the first n_enterable columns.

    The pivots read one explicit basis inverse, updated by the rank-one
    (eta) update of each pivot and refactorized every m pivots.  Optimality
    is only accepted after x_B and the duals are re-solved from the basis
    matrix itself and priced again, so the returned values do not depend on
    the update history.  ``basis`` is modified in place.  Returns (x_B,
    duals, pivots_done).

    The reduced costs, ratios and rank-one term are written into buffers
    allocated once per call.  When every column can enter, the basic
    columns' reduced costs are zeroed at ``basis`` itself, with no mask.
    """
    m = A.shape[0]
    stall = 0  # pricings without progress; Bland's rule from _STALL_LIMIT on
    prev_obj = np.inf

    A_in, c_in = A[:, :n_enterable], c[:n_enterable]
    every = n_enterable == A.shape[1]
    rc = np.empty(n_enterable)
    pos = np.empty(m, dtype=bool)
    ratios = np.empty(m)
    blocking = np.empty(m)
    row = np.empty(m)
    eta = np.empty((m, m))

    def price(y):
        np.matmul(y, A_in, out=rc)
        np.subtract(c_in, rc, out=rc)
        rc[basis if every else basis[basis < n_enterable]] = 0.0  # basic columns never re-enter
        return rc

    inv = _inverse(A[:, basis])
    age = 0
    while True:
        xB = inv @ b
        cB = c[basis]
        y = cB @ inv
        obj = float(cB @ xB)
        # the first pricing's threshold is inf - inf = NaN: it compares False, so the
        # first pricing counts as progress, not as a stall
        if obj >= prev_obj - _PROGRESS_TOL * (1.0 + abs(prev_obj)):
            stall += 1
        else:
            stall = 0
        prev_obj = obj

        j = _entering(price(y), stall >= _STALL_LIMIT, pivot_tol)
        if j is None:
            B = A[:, basis]
            try:
                xB = np.linalg.solve(B, b)
                y = np.linalg.solve(B.T, cB)
            except np.linalg.LinAlgError:
                raise SolverStalled("singular working basis") from None
            j = _entering(price(y), stall >= _STALL_LIMIT, pivot_tol)
            if j is None:
                return np.maximum(xB, 0.0), y, pivots_done
            inv, age = _inverse(B), 0

        d = inv @ A[:, j]
        np.greater(d, pivot_tol, out=pos)
        np.maximum(xB, 0.0, out=blocking)
        ratios.fill(np.inf)
        np.divide(blocking, d, out=ratios, where=pos)
        theta = ratios.min()
        if theta == np.inf and not pos.any():  # every ratio is inf without a blocking row
            raise LpUnbounded("no blocking row for the entering column")
        ties = (ratios <= theta + 1e-12 * (1.0 + theta)).nonzero()[0]
        leave = ties[0] if ties.size == 1 else ties[basis[ties].argmin()]
        basis[leave] = j

        pivots_done += 1
        if pivots_done > max_pivots:
            raise SolverStalled(f"pivot budget {max_pivots} exhausted")
        age += 1
        if age >= m:
            inv, age = _inverse(A[:, basis]), 0
        else:
            np.divide(inv[leave], d[leave], out=row)
            np.multiply(d[:, None], row, out=eta)
            inv -= eta
            inv[leave] = row


def lowest_below(rc, width, bound):
    """The at most ``width`` columns of lowest reduced cost below ``bound``, ties to the
    lower index (the first ``width`` of a stable sort), or None when there is none.

    The result is in index order within each part, not in the sort's order.  The only
    (count,) temporary is the costs below ``bound``, partitioned in place: every column
    below the width-th lowest of them, then the first columns equal to it.
    """
    kept = rc < bound
    count = np.count_nonzero(kept)
    if count == 0:
        return None
    if count <= width:
        return np.nonzero(kept)[0]
    values = rc[kept]
    values.partition(width - 1)
    kth = values[width - 1]
    below = np.nonzero(rc < kth)[0]
    return np.concatenate([below, np.nonzero(rc == kth)[0][:width - below.size]])


def _sift(A, b, c, basis, work, n_enterable, pivot_tol, max_pivots, pivots_done):
    """Sifting from the feasible ``basis`` over the sorted working set ``work``,
    which holds it: pivot on the working set, grow it by the most negative
    reduced costs among the other columns of the first ``n_enterable``, and
    stop when there are none.  Returns (x_B, duals, basis, pivots_done).

    The working set is already optimal when ``_iterate`` returns, so the
    full pricing zeroes it: ``y @ A`` rounds differently from the working
    set's own product, and a working-set column it reads as negative would
    re-enter a working set that cannot grow, forever.
    """
    width = _SIFT_WIDTH * A.shape[0]
    rc = np.empty(n_enterable)  # one buffer for every pass, not a new one beside the last
    while True:
        local = np.searchsorted(work, basis)
        xB, y, pivots_done = _iterate(A[:, work], b, c[work], local,
                                      int(np.searchsorted(work, n_enterable)),
                                      pivot_tol, max_pivots, pivots_done)
        basis = work[local]
        np.matmul(y, A[:, :n_enterable], out=rc)
        np.subtract(c[:n_enterable], rc, out=rc)
        rc[work[work < n_enterable]] = 0.0
        entering = lowest_below(rc, width, -pivot_tol)
        if entering is None:
            return xB, y, basis, pivots_done
        work = _distinct(work, entering)


def _refined(B, b, xB):
    """``x_B`` after one step of iterative refinement, clipped to x >= 0, and its residual
    |B x_B - b|."""
    xB = np.maximum(xB + np.linalg.solve(B, b - B @ xB), 0.0)
    return xB, float(np.abs(B @ xB - b).max())


def _feasible_start(A, b, start, pivot_tol):
    """``start`` as an index array if it is a usable Phase-II start, else None.

    Usable means one distinct column per row, a numerically nonsingular
    basis matrix and basic values no lower than ``-pivot_tol``, or lower
    only by round-off: after one step of refinement, the clipped point meets
    the rows to ``_RESIDUAL_TOL``, as a returned point must.  A basis that
    ended the previous round can read slightly negative x_B in the next, and
    refusing it sends that round to a cold solve.
    """
    m, n = A.shape
    basis = np.asarray(start, dtype=np.int64).ravel()
    if basis.size != m or _distinct(basis).size != m or basis.min() < 0 or basis.max() >= n:
        return None
    B = A[:, basis]
    if np.linalg.matrix_rank(B) < m:
        return None
    xB = np.linalg.solve(B, b)
    if xB.min() < -pivot_tol and not _refined(B, b, xB)[1] <= _RESIDUAL_TOL:
        return None
    return basis.copy()


def _phase_one(A, b, seed, pivot_tol, max_pivots):
    """Phase I over [A | I] with artificial costs: (basis, kept rows, pivots).

    From the artificial basis it sifts over a working set of the columns in
    ``seed``, or, when ``seed`` is None, pivots on [A | I] itself, pricing
    every structural column; the artificial columns never enter.  [A | I]
    is a ``_WithIdentity``, so its pricing reads A and no copy is made.  The
    basis it returns holds structural columns only.  Rows that no structural
    column can be pivoted on are redundant; they are dropped, with their
    basis positions, and get zero duals.
    """
    m, n = A.shape
    A1 = _WithIdentity(A)
    c1 = np.concatenate([np.zeros(n), np.ones(m)])
    basis = np.arange(n, n + m)
    if seed is None:
        xB, _, pivots = _iterate(A1, b, c1, basis, n, pivot_tol, max_pivots, 0)
    else:
        xB, _, basis, pivots = _sift(A1, b, c1, basis, _distinct(seed, basis), n, pivot_tol,
                                     max_pivots, 0)
    infeas = float(c1[basis] @ xB)
    if infeas > 1e-8 * (1.0 + float(np.abs(b).sum())):
        raise LpInfeasible(f"phase-I residual {infeas:.3e}")

    # Drive remaining artificials out of the basis.
    keep_rows = np.ones(m, dtype=bool)
    for k in range(m):
        if basis[k] < n:
            continue
        u = np.linalg.solve(A1[:, basis].T, np.eye(m)[:, k])
        # row k of B^{-1} A over structural columns; a basic column is no candidate
        weights = u @ A
        weights[basis[basis < n]] = 0.0
        candidates = np.flatnonzero(np.abs(weights) > pivot_tol)
        if candidates.size:
            basis[k] = int(candidates[0])
        else:
            keep_rows[k] = False
    return basis[keep_rows], np.nonzero(keep_rows)[0], pivots


def solve_equality_lp(A, b, c, pivot_tol: float = 1e-9, max_pivots: int = 200_000,
                      start=None, seed=None) -> LpResult:
    """Solve min c@x s.t. A@x = b, x >= 0 by the two-phase dense simplex.

    ``start``, a basis of one column index per row, skips Phase I when it
    is nonsingular and primal feasible (``LpResult.warm`` says so); any
    other start falls back to the cold two-phase solve.  ``seed`` lists
    column indices in the order the caller expects the optimum to use them;
    its first ``_SIFT_WIDTH`` per row start the sifting working sets of both
    phases.  It only orders the pricing, and the result is certified over
    every column whatever it holds.
    """
    A = np.asarray(A, dtype=float)
    b = np.array(b, dtype=float)
    c = np.asarray(c, dtype=float)
    m, n = A.shape
    if b.shape != (m,) or c.shape != (n,):
        raise ValueError("inconsistent LP shapes")
    if not 0.0 < pivot_tol < np.inf:
        raise ValueError(f"pivot_tol must be positive and finite, got {pivot_tol}")
    if seed is not None:
        seed = np.asarray(seed, dtype=np.int64).ravel()[:seed_length(m)]
        if seed.size and (seed.min() < 0 or seed.max() >= n):
            raise ValueError("seed column out of range")

    flip = b < 0
    if flip.any():  # A is only read below, so it is copied only to flip rows
        A = A.copy()
        A[flip] *= -1.0
        b[flip] *= -1.0

    basis = None if start is None else _feasible_start(A, b, start, pivot_tol)
    warm = basis is not None
    if warm:
        rows, pivots = np.arange(m), 0
    else:
        basis, rows, pivots = _phase_one(A, b, seed, pivot_tol, max_pivots)
        if rows.size < m:
            A, b = A[rows], b[rows]

    # Phase II on structural columns only.
    if seed is None:
        seed = np.linspace(0, n - 1, min(n, _SIFT_WIDTH * A.shape[0]), dtype=np.int64)
    xB, y, basis, pivots = _sift(A, b, c, basis, _distinct(basis, seed), n, pivot_tol,
                                 max_pivots, pivots)

    # One step of iterative refinement for the final basic solution, which must then
    # satisfy the rows: the clip to x >= 0 can hide an infeasible basis.
    B = A[:, basis]
    xB, residual = _refined(B, b, xB)
    if not residual <= _RESIDUAL_TOL:
        raise SolverStalled(f"infeasible final basis: |B x_B - b| = {residual:.3e} after "
                            f"{pivots} pivots")

    x = np.zeros(n)
    x[basis] = xB
    duals = np.zeros(m)
    duals[rows] = np.where(flip[rows], -y, y)
    return LpResult(x=x, duals=duals, value=float(c @ x), basis=basis.copy(), pivots=pivots,
                    warm=warm)
