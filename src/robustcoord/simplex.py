"""Dense two-phase primal simplex: Dantzig pricing, Bland's rule on stalls.

Solves  min c.x  s.t.  A_eq x = b_eq,  A_ub x <= b_ub,  x >= 0  on an explicit
tableau, for nonnegative right-hand sides b_eq and b_ub only (a negative one
is a ValueError). Every program this package builds qualifies: its mass rows
have RHS 1 and its obedience rows RHS 0. The start basis is then the slacks
plus one artificial per equality row. Small and deterministic by
construction: fixed pivot rules, no scaling, no presolve. Intended for the
moderate, mostly-degenerate programs this package builds.

Pricing is Dantzig's rule (most negative reduced cost), which can cycle on
degenerate programs (Beale 1955), and the zero RHS of the obedience rows
makes ties in the ratio test exact and degenerate pivots common. So after
STALL degenerate pivots in a row the loop prices by Bland's rule (Bland 1977)
until the next nondegenerate pivot. That pivot strictly lowers the
objective, and Bland's rule cannot cycle inside a degenerate run, so the
loop terminates. The pivot loop is the package's only hot path.

The tableau is updated in place, pivot after pivot, so its numbers drift
away from the data. Answers are therefore never read off the final tableau:
the final basis is re-solved against the original rows (``check_basis``,
after Koberstein's refactorisation, PhD thesis, Paderborn 2005), and an
optimal tableau is reported OPTIMAL only when the recomputed point and duals
satisfy the program to CERT_TOL; otherwise the status is NUMERICAL. The
tableau lives only while pivoting: it is freed before the check stacks the
original rows, so the solve never holds both copies of the rows at once.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .env import CERT_TOL

PIVOT_TOL = 1e-10
STALL = 50  # consecutive degenerate pivots before pricing falls back to Bland's rule
PHASE1_TOL = 1e-8  # residual infeasibility we are willing to call zero


class BasisCheck(NamedTuple):
    """A basis re-solved against the original rows: the point and duals it
    defines (read-only), and by how much they miss optimality."""

    x: np.ndarray
    duals_eq: np.ndarray
    duals_ub: np.ndarray
    reduced_costs: np.ndarray
    primal_residual: float  # max |A x + slack - b| over all rows
    bound_violation: float  # max(0, -v) over the basic variables and slacks
    dual_violation: float  # max(0, -d) off the basis, |d| on it, d a reduced cost

    @property
    def passed(self) -> bool:
        return max(self.primal_residual, self.bound_violation, self.dual_violation) <= CERT_TOL


class SimplexResult(NamedTuple):
    status: str  # OPTIMAL | NUMERICAL | INFEASIBLE | ITERATION_LIMIT
    iterations: int
    basis: np.ndarray
    # the final basis re-solved against the original rows: the point, duals
    # and residuals come from here, none from the tableau
    check: BasisCheck


class _Form(NamedTuple):
    """The program in tableau form. Columns are the n variables, then one slack
    per ub row, then one artificial per eq row."""

    A_eq: np.ndarray
    A_ub: np.ndarray
    rhs: np.ndarray  # nonnegative


def _standard_form(c, A_eq, b_eq, A_ub, b_ub) -> tuple[np.ndarray, _Form]:
    c = np.asarray(c, dtype=np.float64)
    n = c.shape[0]
    A_eq = np.zeros((0, n)) if A_eq is None else np.asarray(A_eq, dtype=np.float64)
    b_eq = np.zeros(0) if b_eq is None else np.asarray(b_eq, dtype=np.float64)
    A_ub = np.zeros((0, n)) if A_ub is None else np.asarray(A_ub, dtype=np.float64)
    b_ub = np.zeros(0) if b_ub is None else np.asarray(b_ub, dtype=np.float64)
    if len(A_eq) + len(A_ub) == 0:
        raise ValueError("need at least one constraint row")
    rhs = np.concatenate([b_eq, b_ub])
    if (rhs < 0).any():
        raise ValueError("every right-hand side must be nonnegative")
    return c, _Form(A_eq, A_ub, rhs)


def check_basis(c, A_eq, b_eq, A_ub, b_ub, basis) -> BasisCheck:
    """Re-solve ``basis`` (one column index per row, in ``solve_min``'s column
    order) against the program ``solve_min`` takes."""
    c, form = _standard_form(c, A_eq, b_eq, A_ub, b_ub)
    return _check(form, c, np.asarray(basis, dtype=np.int64))


def _check(form: _Form, c: np.ndarray, basis: np.ndarray) -> BasisCheck:
    """x_B = B^-1 b and y = B^-T c_B from the original rows, then the primal
    residual, the bounds and the reduced-cost signs at that point."""
    rows = np.vstack([form.A_eq, form.A_ub])
    m, n = rows.shape
    m_eq = len(form.A_eq)
    art_start = n + m - m_eq
    is_var = basis < n
    is_slack = (basis >= n) & (basis < art_start)
    slack_row = m_eq + basis[is_slack] - n
    B = np.zeros((m, m))
    B[:, is_var] = rows[:, basis[is_var]]
    B[slack_row, np.nonzero(is_slack)[0]] = 1.0
    art = ~(is_var | is_slack)
    B[basis[art] - art_start, np.nonzero(art)[0]] = 1.0  # artificial k sits on eq row k
    c_B = np.zeros(m)  # slacks and artificials cost nothing in phase 2
    c_B[is_var] = c[basis[is_var]]
    try:
        x_B = np.linalg.solve(B, form.rhs)
        y = np.linalg.solve(B.T, c_B)
    except np.linalg.LinAlgError:  # singular basis: nothing to certify
        zero = np.zeros(max(n, m))
        zero.flags.writeable = False
        inf = float("inf")
        return BasisCheck(zero[:n], zero[:m_eq], zero[m_eq:m], zero[:n], inf, inf, inf)

    x = np.zeros(n)
    x[basis[is_var]] = x_B[is_var]
    slack = np.zeros(m)  # slack value per row; zero on eq rows
    slack[slack_row] = x_B[is_slack]
    residual = rows @ x + slack - form.rhs
    real = is_var | is_slack
    bound = float(max(0.0, -x_B[real].min())) if real.any() else 0.0

    # reduced costs of the variables, then of the slacks (cost 0)
    d = np.concatenate([c - rows.T @ y, -y[m_eq:]])
    on_basis = np.zeros(art_start, dtype=bool)
    on_basis[basis[real]] = True
    dual = np.where(on_basis, np.abs(d), np.maximum(-d, 0.0))
    x.flags.writeable = y.flags.writeable = d.flags.writeable = False
    return BasisCheck(
        x=x,
        duals_eq=y[:m_eq],
        duals_ub=y[m_eq:],
        reduced_costs=d[:n],
        primal_residual=float(np.abs(residual).max()),
        bound_violation=bound,
        dual_violation=float(dual.max()),
    )


def solve_min(
    c: np.ndarray,
    A_eq: np.ndarray | None,
    b_eq: np.ndarray | None,
    A_ub: np.ndarray | None,
    b_ub: np.ndarray | None,
) -> SimplexResult:
    """The result at the final basis. An optimal tableau stands as OPTIMAL
    only when the re-solved basis passes the check; otherwise NUMERICAL,
    with the re-solved point (zero when the basis is singular)."""
    c, form = _standard_form(c, A_eq, b_eq, A_ub, b_ub)
    status, basis, iterations = _run_phases(form, c)
    check = _check(form, c, basis)
    if status == "OPTIMAL" and not check.passed:
        status = "NUMERICAL"
    basis.flags.writeable = False
    return SimplexResult(status, iterations, basis, check)


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
    Returns OPTIMAL, UNBOUNDED or ITERATION_LIMIT and the pivot count.
    Mutates T and basis in place."""
    m = T.shape[0] - 1
    rhs = T.shape[1] - 1
    it = 0
    stalled = 0  # consecutive degenerate pivots
    while it < maxiter:
        costs = T[m, :active_cols]
        neg = np.flatnonzero(costs < -PIVOT_TOL)
        if neg.size == 0:
            return "OPTIMAL", it
        enter = int(neg[0]) if stalled >= STALL else int(np.argmin(costs))
        col = T[:m, enter]
        rows = np.nonzero(col > PIVOT_TOL)[0]
        if rows.size == 0:
            return "UNBOUNDED", it
        ratios = T[rows, rhs] / col[rows]
        best = ratios.min()
        stalled = stalled + 1 if best <= PIVOT_TOL else 0
        ties = rows[ratios == best]
        pivot(T, basis, int(ties[np.argmin(basis[ties])]), enter)
        it += 1
    return "ITERATION_LIMIT", it


def _run_phases(form: _Form, c: np.ndarray) -> tuple[str, np.ndarray, int]:
    """Both phases on a tableau of the program: the status, the final basis
    and the pivot count. The tableau is freed on return."""
    m_eq, n = form.A_eq.shape
    m = m_eq + len(form.A_ub)
    art_start = n + m - m_eq
    total_cols = art_start + m_eq

    T = np.zeros((m + 1, total_cols + 1))
    T[:m_eq, :n] = form.A_eq
    T[m_eq:m, :n] = form.A_ub
    T[:m, total_cols] = form.rhs
    # start basis: an artificial on each eq row, a slack on each ub row
    basis = np.concatenate([np.arange(art_start, total_cols), np.arange(n, art_start)])
    T[np.arange(m), basis] = 1.0

    maxiter = 100 * (m + total_cols)
    used = 0

    # phase 1: minimize the artificial mass
    if m_eq:
        T[m] = 0.0
        T[m, art_start:total_cols] = 1.0
        for i in range(m_eq):
            T[m] -= T[i]
        code, it = pivot_loop(T, basis, total_cols, maxiter)
        used += it
        if code == "ITERATION_LIMIT":
            return code, basis, used
        if code == "UNBOUNDED":  # impossible: phase-1 objective is bounded below
            raise RuntimeError("phase-1 unbounded; simplex construction bug")
        if -T[m, total_cols] > PHASE1_TOL:
            return "INFEASIBLE", basis, used
        # drive surviving artificials out of the basis where possible; rows
        # with no eligible pivot are redundant and stay inert at level zero
        for i in range(m):
            if basis[i] >= art_start:
                eligible = np.flatnonzero(np.abs(T[i, :art_start]) > PIVOT_TOL)
                if eligible.size:
                    pivot(T, basis, i, int(eligible[0]))
                    used += 1

    # phase 2: original objective, artificial columns shut out
    T[m] = 0.0
    T[m, :n] = c
    for i in range(m):
        bi = basis[i]
        if bi < n and c[bi] != 0.0:
            T[m] -= c[bi] * T[i]
    code, it = pivot_loop(T, basis, art_start, maxiter - used)
    if code == "UNBOUNDED":
        raise RuntimeError("objective unbounded; the caller built a bad program")
    return code, basis, used + it
