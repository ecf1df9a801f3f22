"""Classical persuasion baselines and robust-versus-optimistic comparisons.

The optimistic benchmark recommends cooperation state-by-state subject only to
the pooled one-shot obedience constraint, crediting agents with full mutual
trust (everyone assumes everyone else complies). Its realized counterpart
strips that bootstrap by re-evaluating the same recommendations under
smallest-equilibrium play. Policies here are symmetric all-or-none: recommend
cooperation to everyone with a state-dependent probability, which is where the
one-shot analogue of the threshold rule is exact.
"""

from __future__ import annotations

import math
from operator import mul
from typing import NamedTuple, Sequence

from .designer import InfeasibleDesignError, design, ratio_scores, threshold_scan
from .env import (
    PROB_TOL,
    WELFARE_TOL,
    Environment,
    WelfareSpec,
    check_dimensions,
    gain_column,
    welfare_column,
)
from .equilibrium import (
    PUBLIC,
    RealizedEvaluation,
    event_outcome,
    event_posterior,
    smallest_equilibrium,
)


class BaselinePolicy(NamedTuple):
    """All-or-none recommendation policy with one fractional boundary state."""

    invite_probs: tuple[float, ...]
    mixing_state: int | None
    mixing_label: str | None
    mixing_weight: float
    first_full_state: int | None
    first_full_label: str | None
    predicted_welfare: float
    degenerate: bool
    notes: tuple[str, ...] = ()


class ComparisonRecord(NamedTuple):
    """One cost point: robust optimum against both baseline readings."""

    cost: float
    robust_welfare: float
    bce_predicted: float
    bce_realized: float
    theta_star: str | None
    p_star: float | None
    bce_threshold: str | None
    bce_first_full: str | None
    robust_degenerate: bool
    notes: tuple[str, ...] = ()


def design_bce_optimistic(env: Environment, welfare: WelfareSpec) -> BaselinePolicy:
    """Optimal all-or-none recommendation under the pooled one-shot constraint.

    The robust designer's ``threshold_scan`` with the full-trust gain
    (benefit - cost + complementarity) in place of the potential: rank states
    by gain-to-welfare score, invite from the top, mix at the boundary so the
    pooled constraint binds exactly.
    """
    check_dimensions(env, welfare)
    g_full = gain_column(env, env.n_agents - 1)
    v_full = welfare_column(welfare, welfare.n_agents)
    scores = ratio_scores(g_full, v_full)
    if not max(g_full) > 0.0:
        return BaselinePolicy(
            invite_probs=(0.0,) * env.n_states,
            mixing_state=None,
            mixing_label=None,
            mixing_weight=0.0,
            first_full_state=None,
            first_full_label=None,
            predicted_welfare=0.0,
            degenerate=False,
            notes=("no state supports cooperation even with full trust",),
        )

    scan = threshold_scan(env.prior, g_full, scores)
    q = scan.invite_probs
    predicted = math.fsum(map(mul, map(mul, env.prior, q), v_full))
    # the lowest-scored fully invited state; order is stable, so ties go to
    # the lower index
    first_full = next((s for s in scan.order if q[s] == 1.0), None)
    return BaselinePolicy(
        invite_probs=q,
        mixing_state=scan.threshold_state,
        mixing_label=env.labels[scan.threshold_state],
        mixing_weight=scan.mixing_weight,
        first_full_state=first_full,
        first_full_label=None if first_full is None else env.labels[first_full],
        predicted_welfare=predicted,
        degenerate=scan.degenerate,
    )


def evaluate_bce_realized(
    policy: BaselinePolicy, env: Environment, welfare: WelfareSpec
) -> RealizedEvaluation:
    """Same recommendations under smallest-equilibrium play: two public
    events (recommend-all, recommend-none), each with its Bayes posterior."""
    q = policy.invite_probs
    events = []
    for label, probs in (("recommend-all", q), ("recommend-none", [1.0 - x for x in q])):
        # up to PROB_TOL the event is float dust from q near 0 or 1
        belief = event_posterior(env, probs, PROB_TOL)
        if belief is None:
            continue
        out = smallest_equilibrium(env, belief)
        events.append(event_outcome(env, welfare, label, probs, belief, out.coop_count))
    total = math.fsum(e.welfare_contribution for e in events)
    return RealizedEvaluation(
        welfare=total, mode=PUBLIC, obedient=None, events=tuple(events)
    )


def compare(env: Environment, welfare: WelfareSpec) -> ComparisonRecord:
    """Robust optimum, optimistic prediction, and its realized value."""
    notes: list[str] = []
    try:
        tp = design(env, welfare)
        robust = tp.expected_welfare
        theta_star: str | None = tp.threshold_label
        p_star: float | None = tp.mixing_weight
        degenerate = tp.degenerate
        notes.extend(tp.warnings)
    except InfeasibleDesignError:
        robust, theta_star, p_star, degenerate = 0.0, None, None, False
        notes.append("robust design infeasible; falling back to all-defect")

    bce = design_bce_optimistic(env, welfare)
    realized = evaluate_bce_realized(bce, env, welfare)
    notes.extend(bce.notes)
    return ComparisonRecord(
        cost=env.cost,
        robust_welfare=robust,
        bce_predicted=bce.predicted_welfare,
        bce_realized=realized.welfare,
        theta_star=theta_star,
        p_star=p_star,
        bce_threshold=bce.mixing_label,
        bce_first_full=bce.first_full_label,
        robust_degenerate=degenerate,
        notes=tuple(notes),
    )


def sweep(
    env: Environment, welfare: WelfareSpec, costs: Sequence[float]
) -> list[ComparisonRecord]:
    """Compare across action costs, one after another, results in cost order."""
    return [compare(env.with_cost(float(c)), welfare) for c in costs]


def sweep_boundaries(records: Sequence[ComparisonRecord]) -> dict:
    """Regime boundaries read off a sweep, reported with the sweep's own
    resolution: last cost where the robust design still invites every state,
    last cost where all three welfare readings coincide, and the first costs
    where each curve hits zero, all to WELFARE_TOL."""
    recs = sorted(records, key=lambda r: r.cost)

    def last_cost(pred) -> float | None:
        out = None
        for r in recs:
            if pred(r):
                out = r.cost
            else:
                break
        return out

    def first_cost(pred) -> float | None:
        for r in recs:
            if pred(r):
                return r.cost
        return None

    return {
        "robust_all_invite_max_cost": last_cost(lambda r: r.robust_degenerate),
        "coincide_max_cost": last_cost(
            lambda r: abs(r.robust_welfare - r.bce_predicted) <= WELFARE_TOL
            and abs(r.robust_welfare - r.bce_realized) <= WELFARE_TOL
        ),
        "robust_zero_min_cost": first_cost(lambda r: r.robust_welfare <= WELFARE_TOL),
        "optimistic_zero_min_cost": first_cost(lambda r: r.bce_predicted <= WELFARE_TOL),
        "realized_zero_min_cost": first_cost(lambda r: r.bce_realized <= WELFARE_TOL),
    }
