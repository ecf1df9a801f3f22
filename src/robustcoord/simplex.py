"""Dense two-phase primal simplex with Bland's anti-cycling rule.

Solves  min c.x  s.t.  A_eq x = b_eq,  A_ub x <= b_ub,  x >= 0  on an explicit
tableau. Small and deterministic by construction: fixed pivot rules, no
scaling, no presolve. Intended for the moderate, mostly-degenerate programs
this package builds (RHS of the obedience rows is zero, so ties in the ratio
test are exact and Bland's rule does the anti-cycling work).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import (
    ITER_LIMIT,
    OPTIMAL,
    PIVOT_TOL,
    UNBOUNDED,
    pivot,
    pivot_loop,
)

PHASE1_TOL = 1e-8  # residual infeasibility we are willing to call zero


@dataclass(frozen=True, eq=False)
class SimplexResult:
    status: str  # OPTIMAL | INFEASIBLE | ITERATION_LIMIT
    x: np.ndarray
    objective: float
    duals_eq: np.ndarray
    duals_ub: np.ndarray
    reduced_costs: np.ndarray
    iterations: int
    basis: np.ndarray


def solve_min(
    c: np.ndarray,
    A_eq: np.ndarray | None,
    b_eq: np.ndarray | None,
    A_ub: np.ndarray | None,
    b_ub: np.ndarray | None,
    maxiter: int | None = None,
) -> SimplexResult:
    c = np.asarray(c, dtype=np.float64)
    n = c.shape[0]
    A_eq = np.zeros((0, n)) if A_eq is None else np.asarray(A_eq, dtype=np.float64)
    b_eq = np.zeros(0) if b_eq is None else np.asarray(b_eq, dtype=np.float64)
    A_ub = np.zeros((0, n)) if A_ub is None else np.asarray(A_ub, dtype=np.float64)
    b_ub = np.zeros(0) if b_ub is None else np.asarray(b_ub, dtype=np.float64)
    m_eq, m_ub = A_eq.shape[0], A_ub.shape[0]
    m = m_eq + m_ub
    if m == 0:
        raise ValueError("need at least one constraint row")

    # rows normalized to nonnegative RHS; ub rows keep a slack (+-1), eq rows
    # and flipped ub rows get an artificial
    rows = np.vstack([A_eq, A_ub])
    rhs = np.concatenate([b_eq, b_ub])
    slack_coeff = np.zeros(m)
    slack_coeff[m_eq:] = 1.0
    flip = rhs < 0
    rows[flip] *= -1.0
    rhs[flip] *= -1.0
    slack_coeff[m_eq:][flip[m_eq:]] *= -1.0

    needs_art = np.ones(m, dtype=bool)
    needs_art[m_eq:] = slack_coeff[m_eq:] < 0  # flipped ub rows lost their basis
    art_rows = np.nonzero(needs_art)[0]
    n_slack, n_art = m_ub, len(art_rows)
    art_start = n + n_slack
    total_cols = n + n_slack + n_art

    T = np.zeros((m + 1, total_cols + 1))
    T[:m, :n] = rows
    T[:m, total_cols] = rhs
    for k in range(m_ub):
        T[m_eq + k, n + k] = slack_coeff[m_eq + k]
    basis = np.empty(m, dtype=np.int64)
    for k in range(m_ub):
        basis[m_eq + k] = n + k
    art_col_of_row = np.full(m, -1, dtype=np.int64)
    for j, i in enumerate(art_rows):
        T[i, art_start + j] = 1.0
        basis[i] = art_start + j
        art_col_of_row[i] = art_start + j
    # sign linking tableau-row duals back to the rows as the caller stated them
    eq_dual_sign = np.where(flip[:m_eq], -1.0, 1.0)

    if maxiter is None:
        maxiter = 100 * (m + total_cols)
    used = 0

    # phase 1: minimize the artificial mass
    if n_art:
        T[m] = 0.0
        for j in range(n_art):
            T[m, art_start + j] = 1.0
        for i in art_rows:
            T[m] -= T[i]
        code, it = pivot_loop(T, basis, total_cols, maxiter)
        used += it
        if code == ITER_LIMIT:
            return _result(
                "ITERATION_LIMIT", T, basis, c, n, m_eq, m_ub, used,
                art_col_of_row, eq_dual_sign,
            )
        if code == UNBOUNDED:  # impossible: phase-1 objective is bounded below
            raise RuntimeError("phase-1 unbounded; simplex construction bug")
        if -T[m, total_cols] > PHASE1_TOL:
            return _result(
                "INFEASIBLE", T, basis, c, n, m_eq, m_ub, used,
                art_col_of_row, eq_dual_sign,
            )
        # drive surviving artificials out of the basis where possible; rows
        # with no eligible pivot are redundant and stay inert at level zero
        for i in range(m):
            if basis[i] >= art_start:
                for j in range(art_start):
                    if abs(T[i, j]) > PIVOT_TOL:
                        pivot(T, basis, i, j)
                        used += 1
                        break

    # phase 2: original objective, artificial columns shut out
    T[m] = 0.0
    T[m, :n] = c
    for i in range(m):
        bi = basis[i]
        if bi < n and c[bi] != 0.0:
            T[m] -= c[bi] * T[i]
    code, it = pivot_loop(T, basis, art_start, maxiter - used)
    used += it
    if code == ITER_LIMIT:
        return _result(
            "ITERATION_LIMIT", T, basis, c, n, m_eq, m_ub, used,
            art_col_of_row, eq_dual_sign,
        )
    if code == UNBOUNDED:
        raise RuntimeError("objective unbounded; the caller built a bad program")
    return _result(
        "OPTIMAL", T, basis, c, n, m_eq, m_ub, used, art_col_of_row, eq_dual_sign
    )


def _result(
    status, T, basis, c, n, m_eq, m_ub, iterations, art_col_of_row, eq_dual_sign
) -> SimplexResult:
    m = m_eq + m_ub
    total_cols = T.shape[1] - 1
    x = np.zeros(n)
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = T[i, total_cols]
    # Duals read off the reduced costs of each row's own unit column: the
    # artificial for eq rows (sign flipped back when the row was negated), the
    # slack for ub rows (where a flipped row's two sign changes cancel).
    o = T[m]
    duals_eq = np.array(
        [-o[art_col_of_row[i]] * eq_dual_sign[i] for i in range(m_eq)]
    )
    duals_ub = np.array([-o[n + k] for k in range(m_ub)])
    objective = float(c @ x)
    return SimplexResult(
        status=status,
        x=x,
        objective=objective,
        duals_eq=duals_eq,
        duals_ub=duals_ub,
        reduced_costs=o[:n].copy(),
        iterations=iterations,
        basis=basis.copy(),
    )
