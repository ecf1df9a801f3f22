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
from operator import mul
from typing import NamedTuple, Sequence

from .env import (
    CERT_TOL,
    Environment,
    WelfareSpec,
    check_assumptions,
    check_dimensions,
    gain_column,
    potential,
    potential_column,
    welfare_column,
    welfare_value,
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

    scores: tuple[float, ...]
    order: tuple[int, ...]  # state indices, nondecreasing score, stable on ties
    invite_probs: tuple[float, ...]
    threshold_state: int
    threshold_label: str
    mixing_weight: float  # invitation probability at the threshold state
    expected_welfare: float
    degenerate: bool  # True when every state is invited outright
    warnings: tuple[str, ...] = ()

    def invite_probabilities(self) -> list[float]:
        """Per-state invitation probability set by the threshold scan."""
        return list(self.invite_probs)


class ThresholdScan(NamedTuple):
    """Result of ``threshold_scan``."""

    order: tuple[int, ...]  # state indices, nondecreasing score, stable on ties
    invite_probs: tuple[float, ...]
    threshold_state: int
    mixing_weight: float
    degenerate: bool


def threshold_scan(
    prior: Sequence[float],
    gains: Sequence[float],
    scores: Sequence[float],
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
    order = tuple(sorted(range(n_states), key=scores.__getitem__))
    counter.tick(n_states)

    # -inf states come first in the order; they are never invited and
    # never enter the budget
    eligible = order[scores.count(-math.inf) :]
    steps = [prior[s] * gains[s] for s in eligible]
    q = [0.0] * n_states
    if math.fsum(steps) >= 0.0:
        for s in eligible:
            q[s] = 1.0
        return ThresholdScan(order, tuple(q), eligible[0], 1.0, True)

    # from the top, cum is the budget before each state; the scan stops at
    # the first negative-gain state that would leave it <= 0
    cum = 0.0
    for i, s in enumerate(reversed(eligible)):
        step = steps[-1 - i]
        if gains[s] < 0.0 and cum + step <= 0.0:
            counter.tick(i + 1)
            mix = cum / (-step) if step != 0.0 else 1.0
            q[s] = mix
            return ThresholdScan(order, tuple(q), s, mix, False)
        q[s] = 1.0
        cum += step
    # total < 0 stops the scan at some negative-gain state; were rounding to
    # carry it past every state, all of them end up invited outright
    counter.tick(len(eligible))
    return ThresholdScan(order, tuple(q), eligible[0], 1.0, False)


def ratio_scores(gains: Sequence[float], stakes: Sequence[float]) -> list[float]:
    """Gain per unit of stake, state by state; where the stake is 0 the
    score is +inf for a positive gain and -inf otherwise."""
    return [
        g / v if v > 0.0 else (math.inf if g > 0.0 else -math.inf)
        for g, v in zip(gains, stakes)
    ]


def score(env: Environment, welfare: WelfareSpec, state: int) -> float:
    """Potential-to-welfare score of one state; +/-inf when the stake is 0.
    Built from the scalar ``potential`` and ``welfare_value``, so it checks
    ``design``'s score column instead of sharing its code."""
    if not 0 <= state < env.n_states:
        raise ValueError(f"state {state} out of range")
    gain = potential(env, state, env.n_agents)
    return ratio_scores([gain], [welfare_value(welfare, state, welfare.n_agents)])[0]


def design(
    env: Environment,
    welfare: WelfareSpec,
    *,
    strict: bool = False,
    counter: OpCounter | None = None,
) -> ThresholdPolicy:
    """Compute the optimal robust invitation policy.

    Scores every state by potential(N) / V(N), then grants invitation mass
    with ``threshold_scan`` budgeting the prior-weighted potential. The
    counter ticks once per state scored, per ``threshold_scan``'s steps and
    once per eligible state (those the welfare sum can invite), so its total
    does not depend on N.
    """
    report = check_assumptions(env, welfare)
    warnings = report.findings()

    counter = counter if counter is not None else OpCounter()
    f_vals = potential_column(env, env.n_agents)
    stakes = welfare_column(welfare, welfare.n_agents)
    scores = ratio_scores(f_vals, stakes)
    if strict:
        s = next((s for s, v in enumerate(stakes) if not v > 0.0), None)
        if s is not None:
            raise StrictModeError(
                f"state {s} has zero full-cooperation welfare (strict mode)"
            )
    counter.tick(env.n_states)

    if strict and not report.passed:
        raise StrictModeError("; ".join(warnings))

    if not max(f_vals) > 0.0:
        raise InfeasibleDesignError(
            "no state has a positive full-cooperation potential"
        )

    scan = threshold_scan(env.prior, f_vals, scores, counter)
    q = scan.invite_probs
    counter.tick(len(scores) - scores.count(-math.inf))
    wel = math.fsum(map(mul, map(mul, env.prior, q), stakes))

    return ThresholdPolicy(
        scores=tuple(scores),
        order=scan.order,
        invite_probs=q,
        threshold_state=scan.threshold_state,
        threshold_label=env.labels[scan.threshold_state],
        mixing_weight=scan.mixing_weight,
        expected_welfare=wel,
        degenerate=scan.degenerate,
        warnings=warnings,
    )


class Certificate(NamedTuple):
    """Weak LP duality for a design: a dual solution of the agent-symmetric
    LP (``lp.build_symmetric_lp``) and by how much the pair misses optimality."""

    mu: float  # the invited row's dual per unit of potential; the stay-out row's is 0
    dual_value: float  # sum of the mass rows' duals, a bound on every policy's welfare
    gap: float  # dual_value minus the design's welfare
    dual_violation: float  # worst prior*(V + mu*potential) - y over (state, size), and -mu
    primal_residual: float  # the design's miss on the obedience and mass rows
    bound_violation: float  # how far an invitation probability lies outside [0, 1]

    @property
    def passed(self) -> bool:
        worst = max(self.dual_violation, self.primal_residual, self.bound_violation)
        return max(abs(self.gap), worst) <= CERT_TOL


def certify(env: Environment, welfare: WelfareSpec, tp: ThresholdPolicy) -> Certificate:
    """Check the design ``tp`` against the dual of the agent-symmetric LP.

    The design puts mass q on inviting all N agents and 1 - q on inviting
    none. With t the threshold state, the invited row is priced at
    mu = -V(t, N) / potential(t, N), or 0 when every state is invited. A
    certificate that ``passed`` proves the design optimal for that LP.
    """
    check_dimensions(env, welfare)
    q, n, t = tp.invite_probs, env.n_agents, tp.threshold_state
    if len(q) != env.n_states:
        raise ValueError(f"design covers {len(q)} states, environment has {env.n_states}")
    mu = 0.0 if tp.degenerate else -welfare_column(welfare, n)[t] / potential_column(env, n)[t]
    return _certify_at(env, welfare, tp, mu)


def _certify_at(
    env: Environment, welfare: WelfareSpec, tp: ThresholdPolicy, mu: float
) -> Certificate:
    """``certify`` with the invited row priced at ``mu``. Each state's mass
    row is priced by complementary slackness at the size the design uses:
    y = prior * (V(N) + mu * potential(N)) where it invites, clipped at 0 at
    the threshold state, and 0 where it does not. Every column (state, size
    k = 0..N) is then priced against y, so the cost is O(S * N)."""
    q, n = tp.invite_probs, env.n_agents
    v_n, f_n = welfare_column(welfare, n), potential_column(env, n)
    y = [p * (v + mu * f) if x > 0.0 else 0.0 for p, x, v, f in zip(env.prior, q, v_n, f_n)]
    y[tp.threshold_state] = max(y[tp.threshold_state], 0.0)
    dual_violation = max(0.0, -mu)
    for k in range(n + 1):
        columns = zip(env.prior, welfare_column(welfare, k), potential_column(env, k), y)
        dual_violation = max(dual_violation, *(p * (v + mu * f) - ys for p, v, f, ys in columns))
    budget = math.fsum(map(mul, map(mul, env.prior, q), f_n))
    stay_out = math.fsum(p * (1.0 - x) * g for p, x, g in zip(env.prior, q, gain_column(env, 0)))
    mass = max(abs(math.fsum((x, 1.0 - x)) - 1.0) for x in q)
    dual_value = math.fsum(y)
    return Certificate(
        mu=mu,
        dual_value=dual_value,
        gap=dual_value - tp.expected_welfare,
        dual_violation=dual_violation,
        primal_residual=max(0.0, -budget, stay_out, mass),
        bound_violation=max(0.0, *(max(-x, x - 1.0) for x in q)),
    )


def to_sequential_policy(tp: ThresholdPolicy, env: Environment) -> SequentialPolicy:
    """Materialize the threshold policy: invited mass rides the uniform mixture
    over full orderings, the rest sits on the empty sequence."""
    q = tp.invite_probs
    if len(q) != env.n_states:
        raise ValueError(
            f"design covers {len(q)} states, environment has {env.n_states}"
        )
    entries: dict[tuple[int, tuple[int, ...]], float] = {}
    uniform_full: dict[int, float] = {}
    for s, p in enumerate(q):
        if p > 0.0:
            uniform_full[s] = p
        if p < 1.0:
            entries[(s, ())] = 1.0 - p
    return SequentialPolicy(env.n_agents, env.n_states, entries, uniform_full)
