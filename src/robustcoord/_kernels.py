"""Simplex pivot kernel: one vectorized numpy loop.

Pricing is Dantzig's rule (most negative reduced cost), which can cycle on
degenerate programs (Beale 1955), and every obedience row here has RHS 0.
So after STALL degenerate pivots in a row the loop prices by Bland's rule
(Bland 1977) until the next nondegenerate pivot. That pivot strictly lowers
the objective, and Bland's rule cannot cycle inside a degenerate run, so the
loop terminates. It is the package's only hot path; ``simplex`` drives it
for both phases.
"""

from __future__ import annotations

import numpy as np

PIVOT_TOL = 1e-10
STALL = 50  # consecutive degenerate pivots before pricing falls back to Bland's rule

OPTIMAL = 0
UNBOUNDED = 1
ITER_LIMIT = 2


def active_backend() -> str:
    """Name of the pivot implementation, recorded by the benchmark harness."""
    return "numpy"


def pivot(T, basis, row, col):
    """One pivot on (row, col): the column becomes that row's unit vector and
    enters the basis. Only the block where the normalised pivot row and the
    pivot column are both nonzero is updated; every other cell would only
    lose 0 * x, so at most the sign of a zero differs from the dense update.
    Mutates T and basis in place."""
    T[row] /= T[row, col]
    cols = np.flatnonzero(T[row])
    factors = T[:, col].copy()
    factors[row] = 0.0
    rows = np.flatnonzero(factors)
    T[rows[:, None], cols] -= np.outer(factors[rows], T[row, cols])
    basis[row] = col


def pivot_loop(T, basis, active_cols, maxiter):
    """Primal simplex on a dense tableau: most negative reduced cost enters,
    or the lowest-index negative one while STALL or more pivots in a row have
    been degenerate; the lowest basis index leaves among ratio-test ties.
    Last row is the objective, last column the RHS. ``active_cols`` bounds
    the entering scan so phase 2 can shut out the artificial columns.
    Mutates T and basis in place."""
    m = T.shape[0] - 1
    rhs = T.shape[1] - 1
    it = 0
    stalled = 0  # consecutive degenerate pivots
    while it < maxiter:
        costs = T[m, :active_cols]
        neg = np.flatnonzero(costs < -PIVOT_TOL)
        if neg.size == 0:
            return OPTIMAL, it
        enter = int(neg[0]) if stalled >= STALL else int(np.argmin(costs))
        col = T[:m, enter]
        rows = np.nonzero(col > PIVOT_TOL)[0]
        if rows.size == 0:
            return UNBOUNDED, it
        ratios = T[rows, rhs] / col[rows]
        best = ratios.min()
        stalled = stalled + 1 if best <= PIVOT_TOL else 0
        ties = rows[ratios == best]
        pivot(T, basis, int(ties[np.argmin(basis[ties])]), enter)
        it += 1
    return ITER_LIMIT, it
