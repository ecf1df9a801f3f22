"""Adversarial equilibrium selection and realized-welfare evaluation.

The pessimistic benchmark: whatever agents are told, they settle on the
smallest equilibrium of the induced simultaneous game, found by iterated best
response from universal inaction. An agent moves only on a strictly positive
expected gain, so cheap-talk optimism never bootstraps cooperation. Symmetric
count-based scanning suffices because payoffs are anonymous: an agent cares
about how many others cooperate, never which ones.
"""

from __future__ import annotations

import math
from operator import mul
from typing import NamedTuple, Sequence

# unused here: the binding perfbench/spans.py replaces (ROADMAP item 3 drops both)
from .designer import to_sequential_policy
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
    net_column,
    owned,
    welfare_column,
)
from .seqpolicy import SequentialPolicy, check_policy, check_policy_dimensions, expected_welfare

PUBLIC = "public"
PRIVATE_SEQUENTIAL = "private_sequential"


class Belief(Frozen):
    """Posterior over states; a tuple copy, validated to be a probability
    vector."""

    __slots__ = ("probs",)

    def __init__(self, probs: Sequence[float]):
        probs = owned(probs, "belief")
        if not (all(map(math.isfinite, probs)) and min(probs, default=0.0) >= 0):
            raise ValueError("belief must be finite and nonnegative")
        total = math.fsum(probs)
        if abs(total - 1.0) > MASS_SUM_TOL:
            raise ValueError(f"belief must sum to 1, got {total!r}")
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
    probs = owned(event_probs, "event probabilities")
    if len(probs) != env.n_states:
        raise ValueError("event probabilities do not match the state count")
    # an event is at most its state's mass, which may exceed 1 by MASS_SUM_TOL;
    # a NaN fails both bounds
    if not all(-PROB_TOL <= p <= 1 + MASS_SUM_TOL for p in probs):
        raise ValueError("event probabilities must lie in [0, 1]")
    # Bayes' rule on the probabilities clipped to [0, 1]; a -0.0 passes through
    belief = _bayes([w * min(max(p, 0.0), 1.0) for w, p in zip(env.prior, probs)])
    if belief is None:
        raise ValueError("event has zero prior probability; posterior undefined")
    return belief


def _bayes(weights: list[float]) -> Belief | None:
    """Bayes' rule on an event's prior weights, prior * probs, or None when
    their sum, the event's mass, is not > 0. The weights are trusted to be
    finite and nonnegative, so Belief's checks would always pass."""
    mass = math.fsum(weights)
    if not mass > 0.0:
        return None
    belief = object.__new__(Belief)
    object.__setattr__(belief, "probs", tuple([w / mass for w in weights]))
    return belief


def expected_gain(env: Environment, belief: Belief, others_cooperating: int) -> float:
    """Belief-weighted gain from cooperating against a fixed count of others."""
    if len(belief.probs) != env.n_states:
        raise ValueError("belief does not match the state count")
    return math.fsum(map(mul, belief.probs, gain_column(env, others_cooperating)))


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
    two belief means give all N gains (``_gain`` at mass 1).
    """
    probs, n = belief.probs, env.n_agents
    if len(probs) != env.n_states:
        raise ValueError("belief does not match the state count")
    mean_net = math.fsum(map(mul, probs, net_column(env)))
    mean_comp = math.fsum(map(mul, probs, env.complementarity))
    gains = [_gain(env, (1.0, mean_net, mean_comp), k) for k in range(n)]
    equilibria = [
        k
        for k in range(n + 1)
        if (k == 0 or gains[k - 1] >= -STRICT_TOL) and (k == n or gains[k] <= STRICT_TOL)
    ]
    count = equilibria[0]

    wel = None
    if welfare is not None:
        check_dimensions(env, welfare)
        wel = math.fsum(map(mul, probs, welfare_column(welfare, count)))
    return EquilibriumOutcome(
        coop_count=count,
        all_equilibria=tuple(equilibria),
        rounds=tuple(range(count + 1)),
        expected_welfare=wel,
    )


def _signal_events(
    policy: SequentialPolicy, n_states: int
) -> list[tuple[str, list[float], tuple[int, ...] | None]]:
    """Distinct signal events: each explicit sequence, plus the pooled
    uniform-full block (every full ordering induces the same posterior),
    which carries None in place of a sequence."""
    events: list[tuple[str, list[float], tuple[int, ...] | None]] = []
    by_seq: dict[tuple[int, ...], list[float]] = {}
    for (s, seq), p in policy.entries.items():
        if seq not in by_seq:
            by_seq[seq] = [0.0] * n_states
        by_seq[seq][s] = p  # entries hold each (state, sequence) once
    for seq in sorted(by_seq, key=lambda q: (len(q), q)):
        label = "invite[" + ",".join(map(str, seq)) + "]" if seq else "invite[-]"
        events.append((label, by_seq[seq], seq))
    if policy.uniform_full:
        probs = [0.0] * n_states
        for s, p in policy.uniform_full.items():
            probs[s] = p
        events.append(("invite[all,uniform]", probs, None))
    return events


def play_events(
    env: Environment,
    welfare: WelfareSpec,
    events: Sequence[tuple[str, Sequence[float], tuple[int, ...] | None]],
    interim: tuple[dict, tuple, list] | None = None,
) -> RealizedEvaluation:
    """Smallest-equilibrium play of signal events given as (label, per-state
    probabilities, sequence or None), every event of positive prior mass,
    however small. Without ``interim`` each event is public: its posterior
    feeds the smallest equilibrium of the full simultaneous game. With the
    policy's ``_interim_sums`` an explicit sequence plays its private chain
    walk instead. An event's welfare contribution is the prior-weighted
    value of its cooperator count over the states that send it. The events
    are trusted, one probability per state in [0, 1 + MASS_SUM_TOL]: their
    sources, a ``SequentialPolicy`` and a design checked by
    ``evaluate_bce_realized``, are checked where they are made."""
    outcomes = []
    for label, probs, seq in events:
        weights = list(map(mul, env.prior, probs))  # for the mass, posterior and value
        belief = _bayes(weights)
        if belief is None:
            continue
        if interim is not None and seq is not None:
            count = _chain_walk(env, seq, *interim)
        else:
            count = smallest_equilibrium(env, belief).coop_count
        contrib = math.fsum(map(mul, weights, welfare_column(welfare, count)))
        outcomes.append(EventOutcome(label, tuple(probs), belief.probs, count, contrib))
    total = math.fsum(e.welfare_contribution for e in outcomes)
    if interim is None:
        return RealizedEvaluation(total, PUBLIC, None, tuple(outcomes))
    return RealizedEvaluation(total, PRIVATE_SEQUENTIAL, False, tuple(outcomes))


def evaluate_policy_realized(
    policy: SequentialPolicy,
    env: Environment,
    welfare: WelfareSpec,
    mode: str = PRIVATE_SEQUENTIAL,
    obedience_tol: float = DEFAULT_TOL,
) -> RealizedEvaluation:
    """Welfare under adversarial (smallest-equilibrium) play, one event per
    distinct signal (``play_events``).

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
    if not isinstance(policy, SequentialPolicy):
        raise TypeError(
            f"expected a SequentialPolicy, got {type(policy).__name__}; "
            "play a design as to_sequential_policy(tp, env)"
        )
    check_policy_dimensions(policy, env)

    interim = None
    if mode == PRIVATE_SEQUENTIAL:
        if check_policy(policy, env, tol=obedience_tol).passed:
            return RealizedEvaluation(
                welfare=expected_welfare(policy, env, welfare),
                mode=PRIVATE_SEQUENTIAL,
                obedient=True,
            )
        interim = _interim_sums(policy, env)
    return play_events(env, welfare, _signal_events(policy, env.n_states), interim)


def _gain(env, sums, k: int) -> float:
    """Gain at k other cooperators of the interim event whose ``sums`` are
    (mass, sum of w * (b - c), sum of w * lambda): (net + comp * k / (N - 1))
    / mass, and -inf where the mass is 0 (the event never happens, so no
    one in it ever joins)."""
    mass, net, comp = sums
    if not mass > 0.0:
        return -math.inf
    return (net + comp * k / (env.n_agents - 1)) / mass


def _interim_sums(policy, env) -> tuple[dict, tuple, list]:
    """The private information of each interim event as three prior-weighted
    sums over the states that send it: mass, sum of w * (b - c) and sum of
    w * lambda. ``invited[i, k]`` is "agent i invited after k others" and
    ``left_out[i]`` is "agent i not invited". The gain is affine in the
    count, so these sums give it at every count (``_gain``). Each sum is one
    ``math.fsum`` of its terms, so it does not depend on the order in which
    the policy lists its entries.

    A uniform ordering puts each agent at each rank with probability 1/N,
    so its terms are the same in every (i, k) cell: ``invited`` holds the
    cells the explicit entries reach, each summed with the uniform terms,
    and ``uniform`` is the sum of those terms alone, every other cell's."""
    n = env.n_agents
    per_state = [(1.0, x, lam) for x, lam in zip(net_column(env), env.complementarity)]
    terms: dict[tuple[int, int], list[list[float]]] = {}
    left_terms: list[list[list[float]]] = [[] for _ in range(n)]
    for (s, seq), p in policy.entries.items():
        w = env.prior[s] * p
        sums = [w * x for x in per_state[s]]
        for rank, agent in enumerate(seq):
            terms.setdefault((agent, rank), []).append(sums)
        for agent in set(range(n)).difference(seq):
            left_terms[agent].append(sums)
    uniform_terms = []
    for s, p in policy.uniform_full.items():
        w = env.prior[s] * p / n
        uniform_terms.append([w * x for x in per_state[s]])

    def total(cell: list[list[float]]) -> tuple[float, float, float]:
        return tuple(math.fsum(t[j] for t in cell) for j in range(3))

    invited = {key: total(cell + uniform_terms) for key, cell in terms.items()}
    return invited, total(uniform_terms), list(map(total, left_terms))


def _chain_walk(env, seq: tuple[int, ...], invited, uniform, left_out) -> int:
    """Invitees accept in order while their interim gain at the believed rank
    stays above STRICT_TOL; the first refusal breaks the chain, and everyone
    not committed (the refuser, later invitees, the uninvited) then plays
    iterated best response at actual counts, each under their own interim
    information. Every gain rises with the count (slope sum of w * lambda
    >= 0), so that climb stops at the least count c >= accepted that is
    accepted plus the number of the others whose gain at c is above
    STRICT_TOL."""
    n = env.n_agents
    ranked = [invited.get((agent, rank), uniform) for rank, agent in enumerate(seq)]
    accepted = next(
        (r for r, sums in enumerate(ranked) if not _gain(env, sums, r) > STRICT_TOL), len(seq)
    )
    members = set(seq)
    others = ranked[accepted:] + [left_out[i] for i in range(n) if i not in members]
    for c in range(accepted, n):
        if accepted + sum(_gain(env, sums, c) > STRICT_TOL for sums in others) == c:
            return c
    return n
