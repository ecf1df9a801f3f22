"""Optimal robust design via the potential-to-welfare threshold rule.

The designer invites everyone or no one in each state (perfect coordination);
the only question is which states get invited and with what probability. States
are ranked by score = potential(N) / V(N), and invitation mass is granted
greedily from the top until the prior-weighted potential budget is exhausted,
with one fractional state at the boundary. This is the exact optimum of the
sequential-obedience LP whenever the potential and welfare convexity
assumptions hold, at a cost of one sort plus two linear passes over the states,
independent of the number of agents.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .env import (
    Environment,
    WelfareSpec,
    check_assumptions,
    ordered_sum,
    potential_column,
    welfare_column,
)
from .seqpolicy import SequentialPolicy


class InfeasibleDesignError(RuntimeError):
    """No state admits a positive full-cooperation potential: nothing beyond
    the all-defect outcome is robustly implementable."""


class StrictModeError(ValueError):
    """Raised in strict mode when the environment fails a modeling assumption
    the construction otherwise only warns about."""


class OpCounter:
    """Counts designer work items (score evaluations, sort keys, scan steps)
    so tests can pin the N-independence of the construction."""

    def __init__(self, ops: int = 0):
        self.ops = ops

    def tick(self, k: int = 1) -> None:
        self.ops += k


class ThresholdPolicy(NamedTuple):
    """Designer output: ranked scores plus the boundary state and its mass."""

    scores: np.ndarray
    order: tuple[int, ...]  # state indices, nondecreasing score, stable on ties
    invite_probs: np.ndarray
    threshold_state: int
    threshold_label: str
    mixing_weight: float  # invitation probability at the threshold state
    expected_welfare: float
    degenerate: bool  # True when every state is invited outright
    warnings: tuple[str, ...] = ()

    def invite_probabilities(self) -> np.ndarray:
        """Per-state invitation probability set by the threshold scan."""
        return self.invite_probs.copy()


class ThresholdScan(NamedTuple):
    """Result of ``threshold_scan``."""

    order: np.ndarray  # state indices, nondecreasing score, stable on ties
    invite_probs: np.ndarray
    threshold_state: int
    mixing_weight: float
    degenerate: bool


def threshold_scan(
    prior: np.ndarray,
    gains: np.ndarray,
    scores: np.ndarray,
    counter: OpCounter | None = None,
) -> ThresholdScan:
    """Greedy invitation scan shared by the robust designer and the optimistic
    baseline; they differ only in the per-state gain they budget.

    Sorts the states by score (stable, so ties keep input order), drops the
    -inf states, then scans from the highest score accumulating the
    prior-weighted gain. States with a nonnegative gain are always invited;
    the first state whose inclusion would bring the running sum to zero or
    below becomes the threshold state and receives the fractional mass that
    balances the sum to exactly zero. If the total is nonnegative every
    eligible state is invited outright (degenerate). Needs at least one state
    with a score above -inf.

    The counter ticks once per state for the sort and once per state the
    scan visits, the threshold state included.
    """
    counter = counter if counter is not None else OpCounter()
    n_states = len(scores)
    order = np.argsort(scores, kind="stable")
    counter.tick(n_states)

    # -inf states are never invited and never enter the budget
    eligible = order[scores[order] > -math.inf]
    steps = prior[eligible] * gains[eligible]
    q = np.zeros(n_states)
    if ordered_sum(steps) >= 0.0:
        q[eligible] = 1.0
        return ThresholdScan(order, q, int(eligible[0]), 1.0, True)

    # from the top, cum[i] is the budget before the i-th state; the scan
    # stops at the first negative-gain state that would leave it <= 0
    top = eligible[::-1]
    top_steps = steps[::-1]
    cum = np.cumsum(np.concatenate(([0.0], top_steps)))
    stop = (gains[top] < 0.0) & (cum[1:] <= 0.0)
    if not stop.any():
        # total < 0 stops the scan at some negative-gain state; were rounding
        # to carry it past every state, all of them end up invited outright
        counter.tick(len(top))
        q[top] = 1.0
        return ThresholdScan(order, q, int(eligible[0]), 1.0, False)
    i = int(np.argmax(stop))
    counter.tick(i + 1)
    step = top_steps[i]
    mix = cum[i] / (-step) if step != 0.0 else 1.0
    q[top[:i]] = 1.0
    q[top[i]] = mix
    return ThresholdScan(order, q, int(top[i]), float(mix), False)


def ratio_scores(gains: np.ndarray, stakes: np.ndarray) -> np.ndarray:
    """Gain per unit of stake, state by state; where the stake is 0 the
    score is +inf for a positive gain and -inf otherwise."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = gains / stakes
    return np.where(stakes > 0.0, ratio, np.where(gains > 0.0, math.inf, -math.inf))


def _potential_scores(
    env: Environment, welfare: WelfareSpec
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full-cooperation potential, stake V(N) and score of every state."""
    f_vals = potential_column(env, env.n_agents)
    stakes = welfare_column(welfare, welfare.n_agents)
    return f_vals, stakes, ratio_scores(f_vals, stakes)


def score(env: Environment, welfare: WelfareSpec, state: int) -> float:
    """Potential-to-welfare score of one state; +/-inf when the stake is 0."""
    if not 0 <= state < env.n_states:
        raise ValueError(f"state {state} out of range")
    return float(_potential_scores(env, welfare)[2][state])


def design(
    env: Environment,
    welfare: WelfareSpec,
    *,
    strict: bool = False,
    counter: OpCounter | None = None,
) -> ThresholdPolicy:
    """Compute the optimal robust invitation policy.

    Scores every state by potential(N) / V(N), then grants invitation mass
    with ``threshold_scan`` budgeting the prior-weighted potential. Expected
    welfare sums the invited states in score order. The counter ticks once
    per state scored, per ``threshold_scan``'s steps and once per eligible
    state summed, so its total does not depend on N.
    """
    report = check_assumptions(env, welfare)
    warnings = report.findings()

    counter = counter if counter is not None else OpCounter()
    f_vals, stakes, scores = _potential_scores(env, welfare)
    if strict and not np.all(stakes > 0.0):
        s = int(np.argmax(stakes <= 0.0))
        raise StrictModeError(
            f"state {s} has zero full-cooperation welfare (strict mode)"
        )
    counter.tick(env.n_states)

    if strict and not report.passed:
        raise StrictModeError("; ".join(warnings))

    if not np.any(f_vals > 0.0):
        raise InfeasibleDesignError(
            "no state has a positive full-cooperation potential"
        )

    scan = threshold_scan(env.prior, f_vals, scores, counter)
    q = scan.invite_probs
    scores.flags.writeable = q.flags.writeable = False  # the design is read-only
    counter.tick(int(np.count_nonzero(scores > -math.inf)))
    invited = scan.order[q[scan.order] > 0.0]  # -inf states are never invited
    wel = ordered_sum(q[invited] * env.prior[invited] * stakes[invited])

    return ThresholdPolicy(
        scores=scores,
        order=tuple(scan.order.tolist()),
        invite_probs=q,
        threshold_state=scan.threshold_state,
        threshold_label=env.labels[scan.threshold_state],
        mixing_weight=scan.mixing_weight,
        expected_welfare=float(wel),
        degenerate=scan.degenerate,
        warnings=warnings,
    )


def to_sequential_policy(tp: ThresholdPolicy, env: Environment) -> SequentialPolicy:
    """Materialize the threshold policy: invited mass rides the uniform mixture
    over full orderings, the rest sits on the empty sequence."""
    q = tp.invite_probabilities()
    if len(q) != env.n_states:
        raise ValueError(
            f"design covers {len(q)} states, environment has {env.n_states}"
        )
    entries: dict[tuple[int, tuple[int, ...]], float] = {}
    uniform_full: dict[int, float] = {}
    for s in range(env.n_states):
        if q[s] > 0.0:
            uniform_full[s] = float(q[s])
        if q[s] < 1.0:
            entries[(s, ())] = float(1.0 - q[s])
    return SequentialPolicy(env.n_agents, env.n_states, entries, uniform_full)
