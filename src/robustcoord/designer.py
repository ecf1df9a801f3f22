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
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .env import (
    Environment,
    WelfareSpec,
    check_assumptions,
    full_coop_value,
    potential,
)
from .seqpolicy import SequentialPolicy


class InfeasibleDesignError(RuntimeError):
    """No state admits a positive full-cooperation potential: nothing beyond
    the all-defect outcome is robustly implementable."""


class StrictModeError(ValueError):
    """Raised in strict mode when the environment fails a modeling assumption
    the construction otherwise only warns about."""


@dataclass
class OpCounter:
    """Counts designer work items (score evaluations, sort keys, scan steps)
    so tests can pin the N-independence of the construction."""

    ops: int = 0

    def tick(self, k: int = 1) -> None:
        self.ops += k


@dataclass(frozen=True, eq=False)
class ThresholdPolicy:
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

    def to_dict(self, labels: tuple[str, ...] | None = None) -> dict:
        # JSON has no infinities; encode the sentinel scores as strings
        return {
            "scores": [
                ("inf" if x > 0 else "-inf") if math.isinf(x) else x
                for x in self.scores.tolist()
            ],
            "order": list(self.order),
            "threshold_state": self.threshold_state,
            "threshold_label": self.threshold_label,
            "mixing_weight": self.mixing_weight,
            "expected_welfare": self.expected_welfare,
            "degenerate": self.degenerate,
            "warnings": list(self.warnings),
            "invite_probabilities": self.invite_probabilities().tolist(),
            "states": list(labels) if labels is not None else None,
        }


class ThresholdScan(NamedTuple):
    """Result of ``threshold_scan``."""

    order: tuple[int, ...]
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
    """
    counter = counter if counter is not None else OpCounter()
    n_states = len(scores)
    order = tuple(sorted(range(n_states), key=lambda s: scores[s]))
    counter.tick(n_states)

    # -inf states are never invited and never enter the budget
    eligible = [s for s in order if scores[s] > -math.inf]
    q = np.zeros(n_states)
    total = sum(prior[s] * gains[s] for s in eligible)
    if total >= 0.0:
        q[eligible] = 1.0
        return ThresholdScan(order, q, eligible[0], 1.0, True)

    # total < 0 stops the scan at some negative-gain state; were rounding to
    # carry it past every state, all of them end up invited outright
    cum = 0.0
    t_state, mix = eligible[0], 1.0
    for s in reversed(eligible):
        counter.tick()
        step = prior[s] * gains[s]
        if gains[s] >= 0.0 or cum + step > 0.0:
            q[s] = 1.0
            cum += step
        else:
            t_state = s
            mix = cum / (-step) if step != 0.0 else 1.0
            q[s] = mix
            break
    return ThresholdScan(order, q, int(t_state), float(mix), False)


def score(env: Environment, welfare: WelfareSpec, state: int) -> float:
    """Potential-to-welfare score of one state; +/-inf when the stake is 0."""
    f = potential(env, state, env.n_agents)
    v = full_coop_value(welfare, state)
    if v > 0.0:
        return f / v
    return math.inf if f > 0.0 else -math.inf


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
    welfare sums the invited states in score order.
    """
    if welfare.n_agents != env.n_agents or welfare.n_states != env.n_states:
        raise ValueError("welfare spec does not match the environment's dimensions")
    report = check_assumptions(env, welfare)
    warnings = report.findings()

    n_states = env.n_states
    counter = counter if counter is not None else OpCounter()
    f_vals = np.empty(n_states)
    scores = np.empty(n_states)
    for s in range(n_states):
        f_vals[s] = potential(env, s, env.n_agents)
        v = full_coop_value(welfare, s)
        if v > 0.0:
            scores[s] = f_vals[s] / v
        elif strict:
            raise StrictModeError(
                f"state {s} has zero full-cooperation welfare (strict mode)"
            )
        else:
            scores[s] = math.inf if f_vals[s] > 0.0 else -math.inf
        counter.tick()

    if strict and not report.passed:
        raise StrictModeError("; ".join(warnings))

    if not np.any(f_vals > 0.0):
        raise InfeasibleDesignError(
            "no state has a positive full-cooperation potential"
        )

    scan = threshold_scan(env.prior, f_vals, scores, counter)
    q = scan.invite_probs
    wel = 0.0
    for s in scan.order:
        if scores[s] == -math.inf:
            continue
        counter.tick()
        if q[s] > 0.0:
            wel += q[s] * env.prior[s] * full_coop_value(welfare, s)

    return ThresholdPolicy(
        scores=scores,
        order=scan.order,
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
    entries: dict[tuple[int, tuple[int, ...]], float] = {}
    uniform_full: dict[int, float] = {}
    for s in range(env.n_states):
        if q[s] > 0.0:
            uniform_full[s] = float(q[s])
        if q[s] < 1.0:
            entries[(s, ())] = float(1.0 - q[s])
    return SequentialPolicy(env.n_agents, env.n_states, entries, uniform_full)
