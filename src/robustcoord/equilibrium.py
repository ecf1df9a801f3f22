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
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .designer import ThresholdPolicy, to_sequential_policy
from .env import Environment, WelfareSpec, gain_column, ordered_sum, welfare_column
from .seqpolicy import DEFAULT_TOL, SequentialPolicy, check_policy, expected_welfare

PUBLIC = "public"
PRIVATE_SEQUENTIAL = "private_sequential"

STRICT_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class Belief:
    """Posterior over states; validated to be a probability vector."""

    probs: np.ndarray

    def __init__(self, probs: Sequence[float]):
        probs = np.asarray(probs, dtype=np.float64)
        if np.any(~np.isfinite(probs)) or np.any(probs < 0):
            raise ValueError("belief must be finite and nonnegative")
        if abs(float(probs.sum()) - 1.0) > 1e-9:
            raise ValueError(f"belief must sum to 1, got {probs.sum()!r}")
        object.__setattr__(self, "probs", probs)


@dataclass(frozen=True)
class EquilibriumOutcome:
    coop_count: int
    all_equilibria: tuple[int, ...]
    selected: str  # always SMALLEST
    rounds: tuple[int, ...]  # cooperation count after each best-response round
    expected_welfare: float | None = None

    def to_dict(self) -> dict:
        return {
            "coop_count": self.coop_count,
            "all_equilibria": list(self.all_equilibria),
            "selected": self.selected,
            "rounds": list(self.rounds),
            "expected_welfare": self.expected_welfare,
        }


@dataclass(frozen=True)
class EventOutcome:
    """One public signal event: its conditional probabilities and play."""

    label: str
    probs: tuple[float, ...]  # per-state event probability
    posterior: tuple[float, ...]
    coop_count: int
    welfare_contribution: float


@dataclass(frozen=True)
class RealizedEvaluation:
    welfare: float
    mode: str
    obedient: bool | None  # None in PUBLIC mode, where obedience plays no role
    events: tuple[EventOutcome, ...] = ()

    def to_dict(self) -> dict:
        return {
            "welfare": self.welfare,
            "mode": self.mode,
            "obedient": self.obedient,
            "events": [
                {
                    "label": e.label,
                    "probs": list(e.probs),
                    "posterior": list(e.posterior),
                    "coop_count": e.coop_count,
                    "welfare_contribution": e.welfare_contribution,
                }
                for e in self.events
            ],
        }


def posterior_from_event(
    env: Environment, event_probs: Mapping[int, float] | Sequence[float]
) -> Belief:
    """Bayes posterior given per-state probabilities of an observed event."""
    probs = np.zeros(env.n_states)
    if isinstance(event_probs, Mapping):
        for s, p in event_probs.items():
            probs[int(s)] = float(p)
    else:
        probs = np.asarray(event_probs, dtype=np.float64)
        if probs.shape != (env.n_states,):
            raise ValueError("event probabilities do not match the state count")
    if np.any(probs < -1e-12) or np.any(probs > 1 + 1e-12):
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
    tol: float = STRICT_TOL,
) -> EquilibriumOutcome:
    """Iterated best response from zero cooperators, read off one gain table.

    A defector joins only when the gain is strictly above tol; cooperation
    therefore never starts unless the zero-cooperator gain is itself positive.
    Count k is an equilibrium when cooperators hold (gain at k - 1 >= -tol)
    and defectors stay out (gain at k <= tol). Best response from zero climbs
    while the gain is above tol and halts at the first k where it is not:
    that k is an equilibrium (with tol >= 0 the gain before it is above
    -tol), and every smaller count fails the stay-out test. So the smallest
    equilibrium is where best response stops, and ``rounds`` is the climb
    0, 1, ..., coop_count.

    The gain is affine in the count, E[b - c] + E[lambda] * k / (N - 1), so
    two belief means give all N gains.
    """
    if tol < 0.0:
        raise ValueError(f"tol must be nonnegative, got {tol!r}")
    if belief.probs.shape != (env.n_states,):
        raise ValueError("belief does not match the state count")
    n = env.n_agents
    mean_net = ordered_sum(belief.probs * (env.benefit - env.cost))
    mean_comp = ordered_sum(belief.probs * env.complementarity)
    gains = mean_net + mean_comp * np.arange(n) / (n - 1)
    hold = np.concatenate(([True], gains >= -tol))
    stay_out = np.concatenate((gains <= tol, [True]))
    equilibria = np.flatnonzero(hold & stay_out).tolist()
    count = equilibria[0]

    wel = None
    if welfare is not None:
        wel = float(ordered_sum(belief.probs * welfare_column(welfare, count)))
    return EquilibriumOutcome(
        coop_count=count,
        all_equilibria=tuple(equilibria),
        selected="SMALLEST",
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
    tol: float = STRICT_TOL,
    obedience_tol: float = DEFAULT_TOL,
) -> RealizedEvaluation:
    """Welfare under adversarial (smallest-equilibrium) play.

    PUBLIC: every signal realization is commonly observed; each event's
    posterior feeds the smallest equilibrium of the full simultaneous game.

    PRIVATE_SEQUENTIAL: if the policy passes the obedience checks, following
    the invitations is the unique rationalizable play and the objective value
    is realized. Otherwise the cooperation chain breaks at the first invitee
    with a non-positive interim gain and play is recomputed by iterated best
    response from that point (diagnostic extrapolation; see README). Each
    distinct sequence, and the uniform-full block, is then one event carrying
    the count its chain walk reaches; an obedient policy has no events.
    """
    if isinstance(policy, ThresholdPolicy):
        policy = to_sequential_policy(policy, env)
    if mode == PUBLIC:
        return _evaluate_public(policy, env, welfare, tol)
    if mode == PRIVATE_SEQUENTIAL:
        return _evaluate_private(policy, env, welfare, tol, obedience_tol)
    raise ValueError(f"unknown evaluation mode {mode!r}")


def _evaluate_public(policy, env, welfare, tol) -> RealizedEvaluation:
    total = 0.0
    outcomes = []
    for label, probs, _ in _signal_events(policy, env.n_states):
        mass = float((env.prior * probs).sum())
        if mass <= 0.0:
            continue
        belief = posterior_from_event(env, probs)
        out = smallest_equilibrium(env, belief, tol=tol)
        event = event_outcome(env, welfare, label, probs, belief, out.coop_count)
        total += event.welfare_contribution
        outcomes.append(event)
    return RealizedEvaluation(
        welfare=total, mode=PUBLIC, obedient=None, events=tuple(outcomes)
    )


def _interim_invited_weights(policy, env) -> dict[tuple[int, int], np.ndarray]:
    """Unnormalized belief over states for 'agent i invited after k others':
    the private information an invitee actually has."""
    w: dict[tuple[int, int], np.ndarray] = {}
    for (s, seq), p in policy.entries.items():
        for pos, i in enumerate(seq):
            key = (i, pos)
            if key not in w:
                w[key] = np.zeros(env.n_states)
            w[key][s] += env.prior[s] * p
    share = 1.0 / env.n_agents  # uniform orderings put i at each rank equally
    for s, p in policy.uniform_full.items():
        for i in range(env.n_agents):
            for pos in range(env.n_agents):
                key = (i, pos)
                if key not in w:
                    w[key] = np.zeros(env.n_states)
                w[key][s] += env.prior[s] * p * share
    return w


def _uninvited_weights(policy, env) -> dict[int, np.ndarray]:
    w = {i: np.zeros(env.n_states) for i in range(env.n_agents)}
    for (s, seq), p in policy.entries.items():
        for i in range(env.n_agents):
            if i not in seq:
                w[i][s] += env.prior[s] * p
    return w


def _gain_under(env, weights: np.ndarray, count: int) -> float:
    total = float(weights.sum())
    if total <= 0.0:
        return -math.inf  # event never happens; treat as never joining
    return float(ordered_sum(weights * gain_column(env, count)) / total)


def _evaluate_private(policy, env, welfare, tol, obedience_tol) -> RealizedEvaluation:
    report = check_policy(policy, env, tol=obedience_tol)
    if report.passed:
        return RealizedEvaluation(
            welfare=expected_welfare(policy, env, welfare),
            mode=PRIVATE_SEQUENTIAL,
            obedient=True,
        )

    inv_w = _interim_invited_weights(policy, env)
    non_w = _uninvited_weights(policy, env)

    def chain_walk(seq: tuple[int, ...]) -> int:
        """Invitees accept in order while their interim gain at the believed
        rank stays strictly positive; the first refusal breaks the chain and
        the rest is iterated best response at actual counts."""
        accepted = 0
        for pos, i in enumerate(seq):
            if _gain_under(env, inv_w[(i, pos)], pos) > tol:
                accepted += 1
            else:
                break
        # committed invitees stay in; everyone else re-evaluates at the count
        # actually reached, under their own interim information
        candidates = [
            inv_w[(i, seq.index(i))] if i in seq else non_w[i]
            for i in range(env.n_agents)
            if i not in seq or seq.index(i) >= accepted
        ]
        count = accepted
        changed = True
        while changed and count < env.n_agents:
            changed = False
            still = []
            for w in candidates:
                if _gain_under(env, w, count) > tol:
                    count += 1
                    changed = True
                else:
                    still.append(w)
            candidates = still
        return count

    def uniform_walk(weights: np.ndarray) -> int:
        """Every rank of a uniform ordering holds the same belief, so the
        chain runs until the first rank whose gain is not above tol; that
        same gain keeps everyone after it out."""
        count = 0
        while count < env.n_agents and _gain_under(env, weights, count) > tol:
            count += 1
        return count

    total = 0.0
    outcomes = []
    for label, probs, seq in _signal_events(policy, env.n_states):
        weights = env.prior * probs
        if float(weights.sum()) <= 0.0:
            continue
        count = uniform_walk(weights) if seq is None else chain_walk(seq)
        belief = posterior_from_event(env, probs)
        event = event_outcome(env, welfare, label, probs, belief, count)
        total += event.welfare_contribution
        outcomes.append(event)
    return RealizedEvaluation(
        welfare=total, mode=PRIVATE_SEQUENTIAL, obedient=False, events=tuple(outcomes)
    )
