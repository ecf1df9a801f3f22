"""Exact LP formulations of the design problem.

``build_lp`` is the explicit program: one variable per (state, sequence)
pair, one mass-balance equality per state, and one row per agent for each
obedience half. ``build_symmetric_lp`` is the same program averaged over agent
relabellings: payoffs are anonymous, so the average of a feasible policy
over all permutations of the agents is feasible at the same value (Bödi,
Herr & Joswig, Math. Prog. 137, 2013), and an optimum may be sought among
policies that draw a uniformly random ordered k-subset of the agents. That
leaves one variable per (state, size k), one mass row per state, one
invited row and one stay-out row. Both are solved with the in-package
simplex, so results are bit-reproducible; they are the library's exact LP,
the ground truth that the threshold designer and its dual certificate
(``designer.certify``, which the ``lp`` command reports) are tested against.

Both builders store the rows as the simplex takes them, and maximize
objective @ x subject to eq_matrix @ x = 1, ineq_matrix @ x <= 0, x >= 0.
So the invited rows are stored negated: -prior * p * potential / N <= 0.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .env import (
    PROB_TOL,
    Environment,
    WelfareSpec,
    check_dimensions,
    gain_column,
    marginal_gain,
    potential_column,
    welfare_column,
    welfare_value,
)
from .seqpolicy import (
    MAX_SEQUENCES,
    CapacityError,
    SequentialPolicy,
    count_sequences,
    enumerate_sequences,
)
from .simplex import BasisCheck, solve_min

# cap on the dense tableau of the symmetric LP, in float64 cells (8 bytes each)
MAX_TABLEAU_CELLS = 4_000_000


class LinearProgram(NamedTuple):
    """max objective @ x s.t. eq_matrix @ x = 1, ineq_matrix @ x <= 0, x >= 0;
    the arrays are read-only."""

    objective: np.ndarray
    eq_matrix: np.ndarray
    ineq_matrix: np.ndarray  # invited rows first, negated; then stay-out rows
    row_labels: tuple[str, ...]  # eq rows first, then inequality rows
    var_names: tuple[str, ...]  # columns, state-major
    n_agents: int
    n_states: int

    @property
    def n_vars(self) -> int:
        return len(self.var_names)


class LpSolution(NamedTuple):
    status: str  # OPTIMAL | NUMERICAL | INFEASIBLE | ITERATION_LIMIT
    value: float
    x: np.ndarray
    eq_residuals: np.ndarray  # eq_matrix @ x - 1
    ineq_slacks: np.ndarray  # -(ineq_matrix @ x), >= 0 when satisfied
    iterations: int
    basis: tuple[int, ...]
    # the final basis re-solved against the original rows, in solve_min's
    # minimization form (negate its duals and reduced costs for the
    # maximization reading); its residuals are what OPTIMAL was checked on
    check: BasisCheck

    def support(self) -> list[tuple[int, float]]:
        """(column, value) of every variable above PROB_TOL."""
        return [(int(j), float(self.x[j])) for j in np.flatnonzero(self.x > PROB_TOL)]


def build_lp(env: Environment, welfare: WelfareSpec) -> LinearProgram:
    """Assemble the sequential-obedience LP for an explicit sequence grid."""
    check_dimensions(env, welfare)
    n_seq = count_sequences(env.n_agents)
    if n_seq * env.n_states > MAX_SEQUENCES:
        raise CapacityError(
            f"{n_seq} sequences x {env.n_states} states exceeds the "
            f"{MAX_SEQUENCES}-variable cap"
        )
    seqs = enumerate_sequences(env.n_agents)
    n_states, n_agents = env.n_states, env.n_agents
    columns = [(s, seq) for s in range(n_states) for seq in seqs]
    nv = len(columns)

    objective = np.empty(nv)
    eq_matrix = np.zeros((n_states, nv))
    ineq_matrix = np.zeros((2 * n_agents, nv))
    for j, (s, seq) in enumerate(columns):
        objective[j] = env.prior[s] * welfare_value(welfare, s, len(seq))
        eq_matrix[s, j] = 1.0
        for rank, i in enumerate(seq):
            ineq_matrix[i, j] = env.prior[s] * marginal_gain(env, s, rank)
        if len(seq) < n_agents:
            g_out = env.prior[s] * marginal_gain(env, s, len(seq))
            for i in range(n_agents):
                if i not in seq:
                    ineq_matrix[n_agents + i, j] = g_out
    ineq_matrix[:n_agents] *= -1.0  # invited rows: gain >= 0 as -gain <= 0

    row_labels = tuple(
        [f"mass[{env.labels[s]}]" for s in range(n_states)]
        + [f"obey_invited[{i}]" for i in range(n_agents)]
        + [f"stay_out[{i}]" for i in range(n_agents)]
    )
    objective.flags.writeable = eq_matrix.flags.writeable = ineq_matrix.flags.writeable = False
    return LinearProgram(
        objective=objective,
        eq_matrix=eq_matrix,
        ineq_matrix=ineq_matrix,
        row_labels=row_labels,
        var_names=tuple(
            f"pi[{s}|{','.join(map(str, seq)) or '-'}]" for s, seq in columns
        ),
        n_agents=n_agents,
        n_states=n_states,
    )


def build_symmetric_lp(env: Environment, welfare: WelfareSpec) -> LinearProgram:
    """Assemble the agent-symmetric LP: p[s, k] is the mass on a uniformly
    random ordered k-subset of the agents in state s, k = 0..N.

    Under such a draw an agent is invited with probability k/N, and then
    equally likely at each of the k positions, so its expected obedience
    gain is potential(s, k)/N; it is left out with probability (N - k)/N
    and then sees all k invitees cooperate.
    """
    check_dimensions(env, welfare)
    n_states, n_agents = env.n_states, env.n_agents
    # tableau of solve_min: mass rows, two obedience rows and the objective,
    # by the variables, two slacks, one artificial per mass row and the rhs
    cells = (n_states + 3) * (n_states * (n_agents + 1) + n_states + 3)
    if cells > MAX_TABLEAU_CELLS:
        raise CapacityError(
            f"symmetric LP tableau of {cells} cells ({n_states} states x "
            f"{n_agents + 1} sizes) exceeds the {MAX_TABLEAU_CELLS}-cell cap"
        )
    sizes = range(n_agents + 1)
    # column blocks indexed [s, k], flattened state-major
    value = np.column_stack([welfare_column(welfare, k) for k in sizes])
    invited = np.column_stack([potential_column(env, k) for k in sizes])
    stay_out = np.column_stack(
        [np.multiply(gain_column(env, k), (n_agents - k) / n_agents) for k in range(n_agents)]
        + [np.zeros(n_states)]
    )
    prior = np.array(env.prior)[:, None]
    objective = (prior * value).ravel()
    eq_matrix = np.kron(np.eye(n_states), np.ones(n_agents + 1))
    ineq_matrix = np.vstack(
        [-(prior * invited / n_agents).ravel(), (prior * stay_out).ravel()]
    )
    objective.flags.writeable = eq_matrix.flags.writeable = ineq_matrix.flags.writeable = False
    return LinearProgram(
        objective=objective,
        eq_matrix=eq_matrix,
        ineq_matrix=ineq_matrix,
        row_labels=tuple(f"mass[{label}]" for label in env.labels)
        + ("obey_invited", "stay_out"),
        var_names=tuple(f"p[{s}|{k}]" for s in range(n_states) for k in sizes),
        n_agents=n_agents,
        n_states=n_states,
    )


def solve(lp: LinearProgram) -> LpSolution:
    """Maximize the program with the two-phase simplex."""
    ones, zeros = np.ones(len(lp.eq_matrix)), np.zeros(len(lp.ineq_matrix))
    res = solve_min(-lp.objective, lp.eq_matrix, ones, lp.ineq_matrix, zeros)
    check = res.check
    eq_residuals = lp.eq_matrix @ check.x - 1.0
    ineq_slacks = -(lp.ineq_matrix @ check.x)
    eq_residuals.flags.writeable = ineq_slacks.flags.writeable = False
    return LpSolution(
        status=res.status,
        value=float(lp.objective @ check.x),
        x=check.x,
        eq_residuals=eq_residuals,
        ineq_slacks=ineq_slacks,
        iterations=res.iterations,
        basis=tuple(int(b) for b in res.basis),
        check=check,
    )


def extract_policy(lp: LinearProgram, sol: LpSolution) -> SequentialPolicy:
    """Positive-mass variables of the explicit LP as a sequential policy."""
    seqs = enumerate_sequences(lp.n_agents)
    if lp.n_vars != lp.n_states * len(seqs):
        raise ValueError("extract_policy needs the explicit LP of build_lp")
    entries = {}
    for j, p in sol.support():
        s, i = divmod(j, len(seqs))
        entries[(s, seqs[i])] = p
    return SequentialPolicy(lp.n_agents, lp.n_states, entries, {})
