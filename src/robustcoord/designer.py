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
from bisect import bisect_left, bisect_right
from itertools import accumulate, repeat
from operator import le, neg
from typing import NamedTuple, Sequence

from .env import (
    CERT_TOL,
    Environment,
    WelfareSpec,
    check_assumptions,
    check_dimensions,
    owned,
    potential,
    potential_column,
    welfare_column,
    welfare_value,
)
from .seqpolicy import SequentialPolicy, all_or_none, check_policy, invited_row


class InfeasibleDesignError(RuntimeError):
    """No state has a positive gain for ``threshold_scan`` to budget: for
    ``design`` no full-cooperation potential is positive, so nothing beyond
    the all-defect outcome is robustly implementable; for the optimistic
    baseline no state supports cooperation even with full trust."""


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


def threshold_scan(
    env: Environment,
    gains: Sequence[float],
    stakes: Sequence[float],
    counter: OpCounter | None = None,
) -> ThresholdPolicy:
    """The greedy all-or-none design shared by the robust designer and the
    optimistic baseline; they differ only in the per-state gain they budget
    against the stake V(N): the potential at N, or the full-trust gain.

    Sorts the states by score gain / stake (stable, so ties keep input
    order), drops the -inf states, then scans from the highest score
    accumulating the prior-weighted gain. States with a nonnegative gain are
    always invited; the first state whose inclusion would bring the running
    sum to zero or below becomes the threshold state and receives the
    fractional mass that balances the sum to zero: cum / (-step), lowered
    where the invited row, priced as ``check_policy`` prices it, still sums
    below 0 (one correction, then at most 8 ulps, else ``ArithmeticError``).
    If the total is nonnegative every eligible state is invited outright
    (degenerate). Raises ``InfeasibleDesignError`` unless some gain is > 0.0.
    The running sums are one ``accumulate``, and the stop is found by
    ``_stop`` without visiting the states one by one.

    The counter ticks once per state for the sort, once per eligible state
    for the welfare sum and once per state the scan visits, the threshold
    state included (none when degenerate).
    """
    if not max(gains) > 0.0:
        raise InfeasibleDesignError("no state has a positive full-cooperation gain")
    counter = counter if counter is not None else OpCounter()
    scores = ratio_scores(gains, stakes)
    prior, n_states = env.prior, len(scores)
    order = tuple(sorted(range(n_states), key=scores.__getitem__))
    # -inf states come first in the order; they are never invited and
    # never enter the budget
    eligible = order[bisect_right(order, -math.inf, key=scores.__getitem__) :]
    counter.tick(n_states + len(eligible))
    steps = [prior[s] * gains[s] for s in eligible]
    degenerate = math.fsum(steps) >= 0.0
    # k: the threshold state's place in eligible; every state after it is
    # invited. Unless degenerate, the total is < 0 and stops the scan at some
    # negative-gain state; were rounding to carry it past every state, all
    # of them end up invited and the lowest is the threshold at weight 1
    k, mix, visited = 0, 1.0, len(eligible)
    if not degenerate:
        # from the top, cum[i] is the budget before the i-th state
        cum = list(accumulate(reversed(steps), initial=0.0))
        i = _stop(eligible, scores, gains, cum)
        if i < len(eligible):
            k, visited = len(eligible) - 1 - i, i + 1
            mix = cum[i] / (-steps[k]) if steps[k] != 0.0 else 1.0
    t = eligible[k]
    invited = eligible if degenerate else eligible[k + 1 :]
    q = [0.0] * n_states
    for s in invited:
        q[s] = 1.0
    if not degenerate:  # close the invited row as check_policy sums it
        n = float(env.n_agents)
        above = [step / n for step in steps[k + 1 :]]  # (prior * 1.0 * gain) / N
        for i in range(10):  # as scanned, corrected once, then up to 8 ulps lower
            miss = math.fsum(above + invited_row(env, [(t, mix)], gains))
            if miss >= 0.0:
                break
            mix = mix - miss / (steps[k] / n) if i == 0 else math.nextafter(mix, 0.0)
        else:
            raise ArithmeticError(f"the invited row does not close at state {t}")
        q[t] = mix
    counter.tick(0 if degenerate else visited)
    # prior * q * V(N) summed over the states with q > 0: the others' terms
    # are zeros, which do not move an exact sum
    terms = [prior[s] * stakes[s] for s in invited]  # prior * 1.0 * V(N)
    if not degenerate:
        terms.append(prior[t] * mix * stakes[t])
    return ThresholdPolicy(
        scores=tuple(scores),
        order=order,
        invite_probs=tuple(q),
        threshold_state=t,
        threshold_label=env.labels[t],
        mixing_weight=mix,
        expected_welfare=math.fsum(terms),
        degenerate=degenerate,
    )


def _stop(
    eligible: Sequence[int], scores: Sequence[float], gains: Sequence[float], cum: list[float]
) -> int:
    """Where the scan from the top stops: the first place i whose state has
    a negative gain and brings the running budget, cum[i + 1], to zero or
    below; len(eligible) if none does. A negative score is a negative gain
    and a positive score a positive one, so only the states scored exactly
    0 (a gain of 0 or one that underflows) are tested one by one. Below
    them every step is <= 0, so cum never rises there and the stop is
    bisected."""
    n, score = len(eligible), scores.__getitem__
    zero = n - bisect_right(eligible, 0.0, key=score)  # the first place scored 0 or below
    tail = n - bisect_left(eligible, 0.0, key=score)  # the first place scored below 0
    for i in range(zero, tail):
        if gains[eligible[n - 1 - i]] < 0.0 and cum[i + 1] <= 0.0:
            return i
    # the first cum[j] <= 0 past the tail's start, where -cum never falls
    return bisect_left(cum, 0.0, tail + 1, n + 1, key=neg) - 1


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
    check_dimensions(env, welfare)
    gain = potential(env, state, env.n_agents)
    return ratio_scores([gain], [welfare_value(welfare, state, welfare.n_agents)])[0]


def design(
    env: Environment,
    welfare: WelfareSpec,
    *,
    strict: bool = False,
    counter: OpCounter | None = None,
) -> ThresholdPolicy:
    """Compute the optimal robust invitation policy: ``threshold_scan``
    budgeting the prior-weighted potential at N against V(N). The counter
    ticks once per state scored and per ``threshold_scan``'s steps, so its
    total does not depend on N.
    """
    report = check_assumptions(env, welfare)
    stakes = welfare_column(welfare, welfare.n_agents)
    if strict:
        s = next((s for s, v in enumerate(stakes) if not v > 0.0), None)
        if s is not None:
            raise StrictModeError(f"state {s} has zero full-cooperation welfare (strict mode)")
        if not report.passed:
            raise StrictModeError("; ".join(report.findings()))
    counter = counter if counter is not None else OpCounter()
    counter.tick(env.n_states)
    tp = threshold_scan(env, potential_column(env, env.n_agents), stakes, counter)
    return tp._replace(warnings=report.findings())


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
    return _certify_at(env, welfare, tp, None)


def _certify_at(
    env: Environment, welfare: WelfareSpec, tp: ThresholdPolicy, mu: float | None
) -> Certificate:
    """``certify`` with the invited row priced at ``mu`` (None: at t's
    ratio). Each state's mass row is priced by complementary slackness at
    the size the design uses: y = prior * (V(N) + mu * potential(N)) where
    it invites, clipped at 0 at the threshold state, and 0 where it does
    not. Every column (state, size k = 0..N) is then priced against y, so
    the cost is O(S * N). The primal side is the design policy's own
    ``check_policy`` report at tol 0: its invited, stay-out and mass rows."""
    check_dimensions(env, welfare)
    report = check_policy(to_sequential_policy(tp, env), env, tol=0.0)
    q, n, t = tp.invite_probs, env.n_agents, tp.threshold_state
    v_n, f_n = welfare_column(welfare, n), potential_column(env, n)
    if mu is None:
        mu = 0.0 if tp.degenerate else -v_n[t] / f_n[t]
    y = [p * (v + mu * f) if x > 0.0 else 0.0 for p, x, v, f in zip(env.prior, q, v_n, f_n)]
    y[t] = max(y[t], 0.0)
    dual_violation = max(0.0, -mu)
    for k in range(n + 1):
        columns = zip(env.prior, welfare_column(welfare, k), potential_column(env, k), y)
        dual_violation = max(dual_violation, *(p * (v + mu * f) - ys for p, v, f, ys in columns))
    mass = (abs(m - 1.0) for m in report.state_mass)
    dual_value = math.fsum(y)
    return Certificate(
        mu=mu,
        dual_value=dual_value,
        gap=dual_value - tp.expected_welfare,
        dual_violation=dual_violation,
        primal_residual=max(0.0, -min(report.so_c), max(report.so_n), *mass),
        bound_violation=max(0.0, *(max(-x, x - 1.0) for x in q)),
    )


def to_sequential_policy(tp: ThresholdPolicy, env: Environment) -> SequentialPolicy:
    """Materialize the threshold policy: invited mass rides the uniform mixture
    over full orderings, the rest sits on the empty sequence. Each q is read
    as a float (``owned``: an int or a numpy float converts, a bool or a
    string raises naming ``invite_probs[i]``), the design is held to
    ``check_design``, and ``seqpolicy.all_or_none`` builds the record."""
    q = owned(tp.invite_probs, "invite_probs")
    check_design(tp, env)
    return all_or_none(env, q)


def check_design(tp: ThresholdPolicy, env: Environment) -> None:
    """The one rule for a design, which every reader of one holds it to:
    raise ``ValueError`` unless it has one invitation probability per state
    of ``env``, each in [0, 1] (a NaN fails), and its threshold state is one
    of those states."""
    q, t = tp.invite_probs, tp.threshold_state
    if len(q) != env.n_states:
        raise ValueError(f"design covers {len(q)} states, environment has {env.n_states}")
    # two passes in C; a NaN fails the first
    if not (all(map(le, repeat(0.0), q)) and all(map(le, q, repeat(1.0)))):
        raise ValueError("design invitation probabilities must lie in [0, 1]")
    if not 0 <= t < len(q):
        raise ValueError(f"threshold state {t} is not a state of 0..{len(q) - 1}")
