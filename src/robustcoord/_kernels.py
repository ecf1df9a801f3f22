"""Simplex pivot kernel: Bland's rule as one vectorized numpy loop.

The pivot loop is the only hot path in the package (wide tableaus, one full
reduced-cost scan per pivot). It has a single implementation; ``simplex``
drives it for both phases.
"""

from __future__ import annotations

import numpy as np

PIVOT_TOL = 1e-10

OPTIMAL = 0
UNBOUNDED = 1
ITER_LIMIT = 2


def active_backend() -> str:
    """Name of the pivot implementation, recorded by the benchmark harness."""
    return "numpy"


def pivot(T, basis, row, col):
    """One pivot on (row, col): the column becomes that row's unit vector and
    enters the basis. Mutates T and basis in place."""
    T[row] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= np.outer(factors, T[row])
    basis[row] = col


def pivot_loop(T, basis, active_cols, maxiter):
    """Bland's rule on a dense tableau. Last row is the objective, last column
    the RHS. ``active_cols`` bounds the entering scan so phase 2 can shut out
    the artificial columns. Mutates T and basis in place."""
    m = T.shape[0] - 1
    rhs = T.shape[1] - 1
    it = 0
    while it < maxiter:
        neg = np.nonzero(T[m, :active_cols] < -PIVOT_TOL)[0]
        if neg.size == 0:
            return OPTIMAL, it
        enter = int(neg[0])
        col = T[:m, enter]
        rows = np.nonzero(col > PIVOT_TOL)[0]
        if rows.size == 0:
            return UNBOUNDED, it
        ratios = T[rows, rhs] / col[rows]
        best = ratios.min()
        ties = rows[ratios == best]
        pivot(T, basis, int(ties[np.argmin(basis[ties])]), enter)
        it += 1
    return ITER_LIMIT, it
