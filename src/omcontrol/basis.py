"""Monomial test functions and their LP constraint coefficients.

The basis enumerates every exponent tuple (i_1, ..., i_m) with each
component capped by ``max_degree``, ordered by total degree with
lexicographic tie-break, so the constant monomial always comes first and
the count is (max_degree + 1)**m.  The constraint coefficient of a
state-control pair against test function phi is

    alpha * (phi(f(y, u)) - phi(y)) + (1 - alpha) * (phi(y0) - phi(y)),

the integrand whose vanishing against every test function defines the
feasible measures of the LP.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import model
from .model import DiscreteControlProblem


class MonomialBasis:
    """Monomials on R^m with per-coordinate degree cap."""

    def __init__(self, dim: int, max_degree: int):
        if dim < 1:
            raise ValueError("dimension must be positive")
        if max_degree < 0:
            raise ValueError("degree cap must be nonnegative")
        self.dim = int(dim)
        self.max_degree = int(max_degree)
        exps = sorted(
            itertools.product(range(self.max_degree + 1), repeat=self.dim),
            key=lambda e: (sum(e), e),
        )
        self.exponents = np.array(exps, dtype=np.int64)
        # Row-major position of each exponent in the (d+1,)*m coefficient tensor.
        self._tensor_index = np.ravel_multi_index(
            tuple(self.exponents.T), (self.max_degree + 1,) * self.dim)

    @property
    def count(self) -> int:
        """Number N of test functions."""
        return self.exponents.shape[0]

    def index_of(self, exponent) -> int:
        exponent = tuple(int(v) for v in exponent)
        hits = np.where((self.exponents == np.array(exponent)).all(axis=1))[0]
        if hits.size == 0:
            raise KeyError(f"exponent {exponent} not in basis")
        return int(hits[0])

    def evaluate(self, y, coef=None):
        """Evaluate all monomials at y: (N,) for one point, (K, N) for a batch.

        With a coefficient vector ``coef`` of length N, evaluate the
        polynomial sum_k coef[k] * phi_k(y) instead: a numpy float64 scalar
        for one point, (K,) for a batch.  That path never forms the (K, N)
        matrix.
        """
        pts = np.asarray(y, dtype=float)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts)
        if pts.shape[1] != self.dim:
            raise ValueError(f"points of dimension {pts.shape[1]}, basis has {self.dim}")
        if coef is not None:
            out = self._horner(pts, np.asarray(coef, dtype=float))
            return out[0] if single else out
        out = np.ones((pts.shape[0], self.count))
        degs = np.arange(self.max_degree + 1)
        for a in range(self.dim):
            powers = pts[:, a][:, None] ** degs[None, :]
            out *= powers[:, self.exponents[:, a]]
        return out[0] if single else out

    def _horner(self, pts: np.ndarray, coef: np.ndarray) -> np.ndarray:
        """Polynomial values at (K, m) points by Horner's rule, one axis at a time.

        The coefficients are scattered into the (d+1,)*m tensor, kept as
        (remaining tensor entries, K) so every update runs over contiguous
        rows.  The last axis is contracted first; the widest intermediate is
        ((d+1)**(m-1), K), and only multiplications and additions are used.
        For m >= 2 that first contraction depends on the last coordinate
        alone, so it ends in one of three finishes, each the same operations
        on the same operands per point, bit for bit:

        - periodic: when the last coordinate is its first P values repeated
          bit for bit (P <= K/2, as on a tensor grid with that axis fastest),
          it is contracted once at those P values, and the next axis runs
          on its coordinates as (K/P, P) with the (., P) coefficients
          broadcast over the repeats.  P is where x[0]'s bits first recur,
          so the test is two O(K) comparisons and no sort;
        - distinct values: when at most half the points have distinct bit
          patterns there, it runs once per distinct value and its columns
          are gathered per point;
        - otherwise it runs at every point.
        """
        if coef.shape != (self.count,):
            raise ValueError(f"coefficient vector of shape {coef.shape}, basis has {self.count}")
        acc = np.zeros((self.count, 1))
        acc[self._tensor_index, 0] = coef
        x = pts[:, -1]
        period = _period(x) if self.dim > 1 else 0
        if period:
            acc = self._contract(acc, x[:period])
            acc = self._contract(acc, pts[:, -2].reshape(-1, period)).reshape(-1, len(x))
            rest = self.dim - 3
        else:
            values, inverse = model.distinct_rows(x[:, None]) if self.dim > 1 else (x, None)
            if inverse is not None and 2 * len(values) <= len(x):  # gathering saves more than it costs
                acc = self._contract(acc, values[:, 0]).take(inverse, axis=1)
            else:
                acc = self._contract(acc, x)
            rest = self.dim - 2
        for a in range(rest, -1, -1):
            acc = self._contract(acc, pts[:, a])
        return acc[0]

    def _contract(self, acc: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Horner's rule along the fastest tensor axis of ``acc`` at the points ``x``.

        ``acc`` is (entries, W) and ``x`` is (W,) or (R, W); a 2-D ``x``
        shares each column of ``acc`` across its R rows, and the result is
        (entries / (d+1),) + x.shape.
        """
        n = self.max_degree + 1
        terms = acc.reshape((acc.shape[0] // n, n) + (1,) * (x.ndim - 1) + acc.shape[1:])
        out = np.empty((terms.shape[0],) + x.shape)
        out[...] = terms[:, n - 1]
        for j in range(n - 2, -1, -1):
            out *= x
            out += terms[:, j]
        return out

    def __repr__(self) -> str:
        return f"MonomialBasis(dim={self.dim}, max_degree={self.max_degree}, count={self.count})"


def _period(x: np.ndarray) -> int:
    """The least P <= K/2 with x the repeat of its first P values bit for bit, else 0.

    P is where x[0]'s bits first recur; a batch of fewer than 4 points is
    not tested.
    """
    k = len(x)
    if k < 4:
        return 0
    bits = x.view(np.uint64)
    period = 1 + int(np.argmax(bits[1:k // 2 + 1] == bits[0]))
    if k % period or bits[period] != bits[0]:  # no recurrence in the first half, or K not a multiple
        return 0
    return period if (bits.reshape(-1, period) == bits[:period]).all() else 0


def constraint_columns(basis: MonomialBasis, problem: DiscreteControlProblem,
                       states, controls, successors=None) -> np.ndarray:
    """(N, K) coefficients of aligned pairs against every test function.

    Row 0 belongs to the constant monomial and is identically zero; the LP
    carries the probability-normalization row instead.  The monomials are
    evaluated once per distinct state and once per distinct successor (a
    grid's pairs share both) and gathered per pair, bit for bit the rows a
    per-pair evaluation gives.  The expression
    a * (phi_f - phi_y) + (1 - a) * (phi_y0 - phi_y) is evaluated in place,
    operation for operation, so at most two (K, N) arrays are alive.
    ``successors``, when given, are f(states, controls), already evaluated
    by the caller.
    """
    states = np.atleast_2d(np.asarray(states, dtype=float))
    if successors is None:
        successors = problem.f(states, np.atleast_2d(np.asarray(controls, dtype=float)))
    ys, y_of = model.distinct_rows(states)
    fs, f_of = model.distinct_rows(successors)
    phi_y = basis.evaluate(ys)[y_of]
    cols = basis.evaluate(fs)[f_of]
    a = problem.discount
    cols -= phi_y
    cols *= a
    np.subtract(basis.evaluate(problem.initial_state)[None, :], phi_y, out=phi_y)
    phi_y *= 1.0 - a
    cols += phi_y
    return cols.T

