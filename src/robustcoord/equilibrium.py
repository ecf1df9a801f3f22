"""Adversarial equilibrium selection and realized-welfare evaluation.

The pessimistic benchmark: whatever agents are told, they settle on the
smallest equilibrium of the induced simultaneous game, found by iterated best
response from universal inaction. An agent moves only on a strictly positive
expected gain, so cheap-talk optimism never bootstraps cooperation. Symmetric
count-based scanning suffices because payoffs are anonymous: an agent cares
about how many others cooperate, never which ones.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .designer import ThresholdPolicy, to_sequential_policy
from .env import (
    DEFAULT_TOL,
    MASS_SUM_TOL,
    PROB_TOL,
    STRICT_TOL,
    Environment,
    Frozen,
    WelfareSpec,
    check_dimensions,
    check_tol,
    gain_column,
    ordered_sum,
    owned,
    welfare_column,
)
from .seqpolicy import SequentialPolicy, check_policy, expected_welfare

PUBLIC = "public"
PRIVATE_SEQUENTIAL = "private_sequential"


class Belief(Frozen):
    """Posterior over states; a read-only copy, validated to be a
    probability vector."""

    __slots__ = ("probs",)

    def __init__(self, probs: Sequence[float]):
        probs = owned(probs)
        if np.any(~np.isfinite(probs)) or np.any(probs < 0):
            raise ValueError("belief must be finite and nonnegative")
        if abs(float(probs.sum()) - 1.0) > MASS_SUM_TOL:
            raise ValueError(f"belief must sum to 1, got {float(probs.sum())!r}")
        object.__setattr__(self, "probs", probs)


class EquilibriumOutcome(NamedTuple):
    coop_count: int
    all_equilibria: tuple[int, ...]
    rounds: tuple[int, ...]  # cooperation count after each best-response round
    expected_welfare: float | None = None


class EventOutcome(NamedTuple):
    """One public signal event: its conditional probabilities and play."""

    label: str
    probs: tuple[float, ...]  # per-state event probability
    posterior: tuple[float, ...]
    coop_count: int
    welfare_contribution: float


class RealizedEvaluation(NamedTuple):
    welfare: float
    mode: str
    obedient: bool | None  # None in PUBLIC mode, where obedience plays no role
    events: tuple[EventOutcome, ...] = ()


def posterior_from_event(env: Environment, event_probs: Sequence[float]) -> Belief:
    """Bayes posterior given per-state probabilities of an observed event."""
    probs = np.asarray(event_probs, dtype=np.float64)
    if probs.shape != (env.n_states,):
        raise ValueError("event probabilities do not match the state count")
    if np.any(probs < -PROB_TOL) or np.any(probs > 1 + PROB_TOL):
        raise ValueError("event probabilities must lie in [0, 1]")
    weighted = env.prior * np.clip(probs, 0.0, 1.0)
    total = float(weighted.sum())
    if total <= 0.0:
        raise ValueError("event has zero prior probability; posterior undefined")
    return Belief(weighted / total)


def expected_gain(env: Environment, belief: Belief, others_cooperating: int) -> float:
    """Belief-weighted gain from cooperating against a fixed count of others."""
    if belief.probs.shape != (env.n_states,):
        raise ValueError("belief does not match the state count")
    return float(ordered_sum(belief.probs * gain_column(env, others_cooperating)))


def smallest_equilibrium(
    env: Environment,
    belief: Belief,
    welfare: WelfareSpec | None = None,
) -> EquilibriumOutcome:
    """Iterated best response from zero cooperators, read off one gain table.

    A defector joins only when the gain is strictly above STRICT_TOL;
    cooperation therefore never starts unless the zero-cooperator gain is
    itself positive. Count k is an equilibrium when cooperators hold (gain
    at k - 1 >= -STRICT_TOL) and defectors stay out (gain at k <=
    STRICT_TOL). Best response from zero climbs while the gain is above
    STRICT_TOL and halts at the first k where it is not: that k is an
    equilibrium (the gain before it is above -STRICT_TOL), and every smaller
    count fails the stay-out test. So the smallest equilibrium is where best
    response stops, and ``rounds`` is the climb 0, 1, ..., coop_count.

    The gain is affine in the count, E[b - c] + E[lambda] * k / (N - 1), so
    two belief means give all N gains (``_gain_table`` at mass 1).
    """
    if belief.probs.shape != (env.n_states,):
        raise ValueError("belief does not match the state count")
    mean_net = ordered_sum(belief.probs * (env.benefit - env.cost))
    mean_comp = ordered_sum(belief.probs * env.complementarity)
    gains = _gain_table(env, np.array([1.0, mean_net, mean_comp]))
    hold = np.concatenate(([True], gains >= -STRICT_TOL))
    stay_out = np.concatenate((gains <= STRICT_TOL, [True]))
    equilibria = np.flatnonzero(hold & stay_out).tolist()
    count = equilibria[0]

    wel = None
    if welfare is not None:
        wel = float(ordered_sum(belief.probs * welfare_column(welfare, count)))
    return EquilibriumOutcome(
        coop_count=count,
        all_equilibria=tuple(equilibria),
        rounds=tuple(range(count + 1)),
        expected_welfare=wel,
    )


def event_outcome(
    env: Environment,
    welfare: WelfareSpec,
    label: str,
    probs: np.ndarray,
    belief: Belief,
    coop_count: int,
) -> EventOutcome:
    """One event's record; its welfare contribution is the prior-weighted
    value of ``coop_count`` cooperators over the states that send it."""
    contrib = ordered_sum(env.prior * probs * welfare_column(welfare, coop_count))
    return EventOutcome(
        label=label,
        probs=tuple(probs.tolist()),
        posterior=tuple(belief.probs.tolist()),
        coop_count=coop_count,
        welfare_contribution=float(contrib),
    )


def _signal_events(
    policy: SequentialPolicy, n_states: int
) -> list[tuple[str, np.ndarray, tuple[int, ...] | None]]:
    """Distinct signal events: each explicit sequence, plus the pooled
    uniform-full block (every full ordering induces the same posterior),
    which carries None in place of a sequence."""
    events: list[tuple[str, np.ndarray, tuple[int, ...] | None]] = []
    by_seq: dict[tuple[int, ...], np.ndarray] = {}
    for (s, seq), p in policy.canonical_items():
        by_seq.setdefault(seq, np.zeros(n_states))[s] += p
    for seq in sorted(by_seq, key=lambda q: (len(q), q)):
        label = "invite[" + ",".join(map(str, seq)) + "]" if seq else "invite[-]"
        events.append((label, by_seq[seq], seq))
    if policy.uniform_full:
        probs = np.zeros(n_states)
        for s, p in policy.uniform_full.items():
            probs[s] += p
        events.append(("invite[all,uniform]", probs, None))
    return events


def evaluate_policy_realized(
    policy: SequentialPolicy | ThresholdPolicy,
    env: Environment,
    welfare: WelfareSpec,
    mode: str = PRIVATE_SEQUENTIAL,
    obedience_tol: float = DEFAULT_TOL,
) -> RealizedEvaluation:
    """Welfare under adversarial (smallest-equilibrium) play, one event per
    distinct signal.

    PUBLIC: every signal realization is commonly observed; each event's
    posterior feeds the smallest equilibrium of the full simultaneous game.

    PRIVATE_SEQUENTIAL: if the policy passes the obedience checks at
    ``obedience_tol``, following the invitations is the unique rationalizable
    play and the objective value is realized, with no events. Otherwise the
    cooperation chain of each explicit sequence breaks at the first invitee
    whose interim gain is not above STRICT_TOL and play is recomputed by
    iterated best response from that point (diagnostic extrapolation; see
    README). Every rank of a uniform ordering holds the event posterior, so
    the uniform-full block plays as it would in public: its chain stops at
    the smallest equilibrium of that posterior.
    """
    if mode not in (PUBLIC, PRIVATE_SEQUENTIAL):
        raise ValueError(f"unknown evaluation mode {mode!r}")
    check_tol(obedience_tol)
    check_dimensions(env, welfare)
    if isinstance(policy, ThresholdPolicy):
        if len(policy.invite_probs) != env.n_states:
            raise ValueError("policy does not match the environment's dimensions")
        policy = to_sequential_policy(policy, env)
    elif policy.n_agents != env.n_agents or policy.n_states != env.n_states:
        raise ValueError("policy does not match the environment's dimensions")

    private = mode == PRIVATE_SEQUENTIAL
    if private:
        if check_policy(policy, env, tol=obedience_tol).passed:
            return RealizedEvaluation(
                welfare=expected_welfare(policy, env, welfare),
                mode=PRIVATE_SEQUENTIAL,
                obedient=True,
            )
        invited, left_out = _interim_sums(policy, env)

    total = 0.0
    outcomes = []
    for label, probs, seq in _signal_events(policy, env.n_states):
        if float((env.prior * probs).sum()) <= 0.0:
            continue
        belief = posterior_from_event(env, probs)
        if private and seq is not None:
            count = _chain_walk(env, seq, invited, left_out)
        else:
            count = smallest_equilibrium(env, belief).coop_count
        event = event_outcome(env, welfare, label, probs, belief, count)
        total += event.welfare_contribution
        outcomes.append(event)
    obedient = False if private else None
    return RealizedEvaluation(total, mode, obedient, tuple(outcomes))


def _gain_table(env, sums: np.ndarray) -> np.ndarray:
    """Gains at k = 0..N-1 other cooperators, along a new last axis, of each
    interim event in ``sums`` (last axis: mass, sum of w * (b - c), sum of
    w * lambda): (net + comp * k / (N - 1)) / mass, and -inf where the mass
    is 0 (the event never happens, so no one in it ever joins)."""
    mass, net, comp = np.moveaxis(sums, -1, 0)[..., None]
    n = env.n_agents
    with np.errstate(divide="ignore", invalid="ignore"):
        gains = (net + comp * np.arange(n) / (n - 1)) / mass
    return np.where(mass > 0.0, gains, -np.inf)


def _interim_sums(policy, env) -> tuple[np.ndarray, np.ndarray]:
    """The private information of each interim event as three prior-weighted
    sums over the states that send it: mass, sum of w * (b - c) and sum of
    w * lambda. ``invited[i, k]`` is "agent i invited after k others" and
    ``left_out[i]`` is "agent i not invited". The gain is affine in the
    count, so these sums give it at every count (``_gain_table``)."""
    n = env.n_agents
    per_state = np.stack(
        (np.ones(env.n_states), env.benefit - env.cost, env.complementarity), axis=1
    )
    invited = np.zeros((n, n, 3))
    left_out = np.zeros((n, 3))
    for (s, seq), p in policy.entries.items():
        sums = env.prior[s] * p * per_state[s]
        invited[list(seq), range(len(seq))] += sums
        outside = np.ones(n, dtype=bool)
        outside[list(seq)] = False
        left_out[outside] += sums
    # a uniform ordering puts each agent at each rank with probability 1/N
    uniform = np.zeros(env.n_states)
    for s, p in policy.uniform_full.items():
        uniform[s] = p
    invited += (env.prior * uniform / n) @ per_state
    return invited, left_out


def _chain_walk(env, seq: tuple[int, ...], invited, left_out) -> int:
    """Invitees accept in order while their interim gain at the believed rank
    stays above STRICT_TOL; the first refusal breaks the chain, and everyone
    not committed (the refuser, later invitees, the uninvited) then plays
    iterated best response at actual counts, each under their own interim
    information. Every gain rises with the count (slope sum of w * lambda
    >= 0), so that climb stops at the least count c >= accepted that is
    accepted plus the number of the others whose gain at c is above
    STRICT_TOL."""
    n = env.n_agents
    ranked = _gain_table(env, invited[list(seq), range(len(seq))])
    accepted = int(np.argmin(np.append(ranked.diagonal() > STRICT_TOL, False)))
    outside = np.ones(n, dtype=bool)
    outside[list(seq)] = False
    others = np.concatenate((ranked[accepted:], _gain_table(env, left_out[outside])))
    reached = accepted + np.count_nonzero(others[:, accepted:] > STRICT_TOL, axis=0)
    fixed = np.flatnonzero(reached == np.arange(accepted, n))
    return accepted + int(fixed[0]) if fixed.size else n
