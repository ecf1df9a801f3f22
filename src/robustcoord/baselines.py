"""Classical persuasion baselines and robust-versus-optimistic comparisons.

The optimistic benchmark recommends cooperation state-by-state subject only to
the pooled one-shot obedience constraint, crediting agents with full mutual
trust (everyone assumes everyone else complies). Its realized counterpart
strips that bootstrap by replaying the same recommendations under
smallest-equilibrium play, through the event loop every policy plays in
(``equilibrium.play_events``): its two events are the public counterfactual
of the design as a sequential policy. Policies here are symmetric
all-or-none: recommend cooperation to everyone with a state-dependent
probability, which is where the one-shot analogue of the threshold rule is
exact. So the optimistic design is the robust designer's ``threshold_scan``
run on the full-trust gain, and its record is the same ``ThresholdPolicy``.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .designer import InfeasibleDesignError, ThresholdPolicy, check_design, design, threshold_scan
from .env import (
    WELFARE_TOL,
    Environment,
    WelfareSpec,
    check_dimensions,
    gain_column,
    welfare_column,
)
from .equilibrium import RealizedEvaluation, play_events

# unused here: the binding perfbench/spans.py replaces (ROADMAP item 3 drops both)
from .equilibrium import smallest_equilibrium


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


def design_bce_optimistic(env: Environment, welfare: WelfareSpec) -> ThresholdPolicy:
    """Optimal all-or-none recommendation under the pooled one-shot constraint.

    The robust designer's ``threshold_scan`` with the full-trust gain
    (benefit - cost + complementarity) in place of the potential: rank states
    by gain-to-welfare score, invite from the top, mix at the boundary so the
    pooled constraint binds exactly. Raises ``InfeasibleDesignError`` when no
    state has a positive full-trust gain.
    """
    check_dimensions(env, welfare)
    return threshold_scan(
        env, gain_column(env, env.n_agents - 1), welfare_column(welfare, welfare.n_agents)
    )


def evaluate_bce_realized(
    policy: ThresholdPolicy, env: Environment, welfare: WelfareSpec
) -> RealizedEvaluation:
    """Same recommendations under smallest-equilibrium play: two public
    events (recommend-all, recommend-none), each with its Bayes posterior,
    played by ``play_events`` as the public counterfactual of
    ``to_sequential_policy(policy, env)`` plays them. The design is held to
    ``check_design`` here, once, and the welfare spec to ``env``'s size."""
    q = check_design(policy, env)
    check_dimensions(env, welfare)
    events = [("recommend-all", q, None), ("recommend-none", [1.0 - x for x in q], None)]
    return play_events(env, welfare, events)


def compare(env: Environment, welfare: WelfareSpec) -> ComparisonRecord:
    """Robust optimum, optimistic prediction, and its realized value. Where
    either design is infeasible its welfare reads 0.0 (all-defect) and a
    note says so."""
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

    try:
        bce = design_bce_optimistic(env, welfare)
    except InfeasibleDesignError:
        predicted, realized, threshold, first_full = 0.0, 0.0, None, None
        notes.append("no state supports cooperation even with full trust")
    else:
        predicted = bce.expected_welfare
        realized = evaluate_bce_realized(bce, env, welfare).welfare
        threshold = bce.threshold_label
        # the lowest-scored fully invited state; order is stable, so ties go
        # to the lower index. threshold_scan invites in full every state
        # after the threshold state t in order, none before it, and t itself
        # when its weight is 1
        t, order = bce.threshold_state, bce.order
        i = order.index(t) + (bce.invite_probs[t] != 1.0)
        first_full = env.labels[order[i]] if i < len(order) else None
    return ComparisonRecord(
        cost=env.cost,
        robust_welfare=robust,
        bce_predicted=predicted,
        bce_realized=realized,
        theta_star=theta_star,
        p_star=p_star,
        bce_threshold=threshold,
        bce_first_full=first_full,
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
