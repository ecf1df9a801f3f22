"""Ordered invitation policies and sequential-obedience checks.

A policy maps each state to a distribution over ordered sequences of distinct
agents (including the empty sequence). An invited agent is willing to follow
when, conditional on being invited, cooperating is profitable assuming only the
agents invited *before* them comply; a non-invited agent must not want to join
assuming everyone invited complies. The uniform mixture over all N! full
orderings is stored implicitly (one mass per state) because its per-agent
obedience value has the closed form potential(N) / N, which is what makes
large-N checks tractable.
"""

from __future__ import annotations

import itertools
import math
from operator import add, sub
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence

from .env import (
    DEFAULT_TOL,
    MASS_SUM_TOL,
    PROB_TOL,
    Environment,
    Frozen,
    WelfareSpec,
    as_number,
    check_dimensions,
    check_tol,
    gain_column,
    potential_column,
    reject_duplicates,
    welfare_column,
)

# hard cap on explicit sequence enumeration (and on LP columns)
MAX_SEQUENCES = 2_000_000

Sequence_ = tuple[int, ...]


class CapacityError(RuntimeError):
    """Raised when a problem exceeds a size cap: a scenario past one of the
    loader's caps (scenarios.MAX_SWEEP_POINTS, MAX_GRID_COUNT and
    MAX_STATE_AGENTS), explicit enumeration past MAX_SEQUENCES, or a
    symmetric-LP tableau past lp.MAX_TABLEAU_CELLS."""


def count_sequences(n_agents: int) -> int:
    """Number of ordered sequences of distinct agents, empty one included."""
    if n_agents < 1:
        raise ValueError("n_agents must be >= 1")
    total = 0
    term = 1  # n! / (n-k)! built incrementally
    for k in range(n_agents + 1):
        total += term
        term *= n_agents - k
    return total


def enumerate_sequences(n_agents: int) -> list[Sequence_]:
    """All ordered sequences in canonical order: by length, then lexicographic."""
    n = count_sequences(n_agents)
    if n > MAX_SEQUENCES:
        raise CapacityError(
            f"{n} sequences for {n_agents} agents exceeds the cap of {MAX_SEQUENCES}"
        )
    out: list[Sequence_] = []
    for k in range(n_agents + 1):
        out.extend(itertools.permutations(range(n_agents), k))
    return out


class SequentialPolicy(Frozen):
    """Sparse (state, sequence) -> probability map, plus the implicit uniform
    mixture over full orderings per state, and each state's total mass."""

    __slots__ = ("n_agents", "n_states", "entries", "uniform_full", "mass")

    def __init__(
        self,
        n_agents: int,
        n_states: int,
        entries: Mapping[tuple[int, Iterable[int]], float] | None = None,
        uniform_full: Mapping[int, float] | None = None,
    ):
        object.__setattr__(self, "n_agents", as_number(n_agents, "n_agents", int))
        object.__setattr__(self, "n_states", as_number(n_states, "n_states", int))
        for name, arg in (("entries", entries), ("uniform_full", uniform_full)):
            if not isinstance(arg or {}, Mapping):
                raise TypeError(f"{name} must be a mapping, got {type(arg).__name__}")
        clean: dict[tuple[int, Sequence_], float] = {}
        for (s, seq), p in (entries or {}).items():
            seq = tuple(as_number(a, "sequence agent", int) for a in seq)
            key = (as_number(s, "state", int), seq)
            if not 0 <= key[0] < self.n_states:
                raise ValueError(f"state {key[0]} out of range")
            if any(not 0 <= a < self.n_agents for a in seq):
                raise ValueError(f"sequence {seq} has an agent out of range")
            if len(set(seq)) != len(seq):
                raise ValueError(f"sequence {seq} repeats an agent")
            p = as_number(p, f"probability for {key}")
            if not math.isfinite(p) or p < -PROB_TOL:
                raise ValueError(f"probability {p} for {key} is invalid")
            if p > 0.0:
                clean[key] = p
        uf: dict[int, float] = {}
        for s, p in (uniform_full or {}).items():
            s = as_number(s, "uniform-full state", int)
            if not 0 <= s < self.n_states:
                raise ValueError(f"state {s} out of range")
            p = as_number(p, f"uniform-full mass for state {s}")
            if not math.isfinite(p) or p < -PROB_TOL:
                raise ValueError(f"uniform-full mass {p} for state {s} is invalid")
            if p > 0.0:
                uf[s] = p
        object.__setattr__(self, "entries", MappingProxyType(clean))
        object.__setattr__(self, "uniform_full", MappingProxyType(uf))
        terms: list[list[float]] = [[] for _ in range(self.n_states)]
        for (s, _), p in clean.items():
            terms[s].append(p)
        for s, p in uf.items():
            terms[s].append(p)
        # each state's total mass, summed once here for check_policy
        mass = tuple(map(math.fsum, terms))
        object.__setattr__(self, "mass", mass)
        for s, m in enumerate(mass):
            if m > 1.0 + MASS_SUM_TOL:
                raise ValueError(f"state {s} carries probability mass above 1")

    def __reduce__(self):  # a mappingproxy neither pickles nor deep-copies
        args = (self.n_agents, self.n_states, dict(self.entries), dict(self.uniform_full))
        return type(self), args

    def canonical_items(self) -> list[tuple[tuple[int, Sequence_], float]]:
        # length-prefixed sequence ordering gives a stable, canonical listing
        return sorted(self.entries.items(), key=lambda kv: (kv[0][0], len(kv[0][1]), kv[0][1]))


def all_or_none(env: Environment, q: Sequence[float]) -> SequentialPolicy:
    """The policy that invites all N agents in a uniform order with
    probability q[s] in state s and nobody otherwise, for floats q in
    [0, 1], one per state (``designer.check_design`` holds a design to
    that): the record the constructor makes of the same entries, without
    its per-entry checks, which such q always pass. Each state's mass is
    (1 - q) + q, the ``math.fsum`` of its one or two terms (a sum of two
    floats rounds once, correctly), within an ulp of 1."""
    policy = object.__new__(SequentialPolicy)
    fields = {
        "n_agents": env.n_agents,
        "n_states": env.n_states,
        "entries": MappingProxyType({(s, ()): 1.0 - p for s, p in enumerate(q) if p < 1.0}),
        "uniform_full": MappingProxyType({s: p for s, p in enumerate(q) if p > 0.0}),
        "mass": tuple(map(add, map(sub, itertools.repeat(1.0), q), q)),
    }
    for name, value in fields.items():
        object.__setattr__(policy, name, value)
    return policy


class ObedienceReport(NamedTuple):
    """Per-agent obedience values and per-state feasibility for one policy."""

    so_c: tuple[float, ...]  # invited-agent values, must all be >= -tol
    so_n: tuple[float, ...]  # non-invited values, must all be <= tol
    state_mass: tuple[float, ...]
    feasible: bool
    passed: bool
    tol: float


def invited_row(
    env: Environment, probs: Iterable[tuple[int, float]], column: Sequence[float]
) -> list[float]:
    """The agent-symmetric LP's invited row, prior * x * column / N, for each
    (state, x) of ``probs``: SO_c's terms of uniform full orderings of mass x."""
    n, prior = env.n_agents, env.prior
    return [prior[s] * x * column[s] / n for s, x in probs]


def _obedience_values(
    policy: SequentialPolicy, env: Environment
) -> tuple[list[float], list[float]]:
    """SO_c and SO_n of every agent. Every agent no sequence names sees only
    anonymous mass (uniform-full and empty), so they share one sum of each."""
    n = env.n_agents
    columns: dict[int, list[float]] = {}  # gain_column at each count met

    def gain(s: int, count: int) -> float:
        if count not in columns:
            columns[count] = gain_column(env, count)
        return columns[count][s]

    invited: dict[int, list[float]] = {}
    outside: list[tuple[float, tuple[int, ...]]] = []
    for (s, seq), p in policy.entries.items():
        weight = env.prior[s] * p
        for rank, agent in enumerate(seq):
            invited.setdefault(agent, []).append(weight * gain(s, rank))
        # full sequences invite everyone, so no agent is ever outside one
        if len(seq) < n:
            outside.append((weight * gain(s, len(seq)), seq))
    # uniform full orderings: position is uniform, so the average gain
    # telescopes to potential(N) / N
    uniform = invited_row(env, policy.uniform_full.items(), potential_column(env, n))
    so_c, so_n = [math.fsum(uniform)] * n, [math.fsum(t for t, _ in outside)] * n
    for i, terms in invited.items():  # an agent some sequence names sums its own
        so_c[i] = math.fsum(terms + uniform)
        so_n[i] = math.fsum(t for t, seq in outside if i not in seq)
    return so_c, so_n


def check_policy_dimensions(policy: SequentialPolicy, env: Environment) -> None:
    if policy.n_agents != env.n_agents or policy.n_states != env.n_states:
        raise ValueError("policy does not match the environment's dimensions")


def check_policy(
    policy: SequentialPolicy, env: Environment, tol: float = DEFAULT_TOL
) -> ObedienceReport:
    """Feasibility plus both obedience halves for every agent.

    Each state's mass must be within tol of 1. ``so_c[i]`` is agent i's
    prior-weighted gain over all invitations, assuming only the agents
    sequenced before them cooperate; nonnegative for every agent is the
    cooperation half of sequential obedience. ``so_n[i]`` is their gain from
    joining uninvited, assuming every invitee cooperates; nonpositive for
    every agent is the exclusion half. Full sequences invite everyone, so
    the uniform-full block adds to ``so_c`` only."""
    check_tol(tol)
    check_policy_dimensions(policy, env)
    feasible = all(abs(m - 1.0) <= tol for m in policy.mass)
    so_c, so_n = map(tuple, _obedience_values(policy, env))
    passed = feasible and min(so_c) >= -tol and max(so_n) <= tol
    return ObedienceReport(so_c, so_n, policy.mass, feasible, passed, tol)


def expected_welfare(
    policy: SequentialPolicy, env: Environment, welfare: WelfareSpec
) -> float:
    """Designer value if every invitation is followed (the policy objective)."""
    check_dimensions(env, welfare)
    check_policy_dimensions(policy, env)
    n, prior = env.n_agents, env.prior
    blocks = [(s, len(seq), p) for (s, seq), p in policy.entries.items()]
    blocks += [(s, n, p) for s, p in policy.uniform_full.items()]
    # one welfare column per count the blocks reach, not one value per block
    columns = {k: welfare_column(welfare, k) for k in {k for _, k, _ in blocks}}
    return math.fsum([prior[s] * p * columns[k][s] for s, k, p in blocks])


def policy_to_dict(policy: SequentialPolicy, labels: Iterable[str] | None = None) -> dict:
    labels = list(labels) if labels is not None else None
    out = {
        "n_agents": policy.n_agents,
        "n_states": policy.n_states,
        "entries": [
            {"state": s, "sequence": list(seq), "prob": p}
            for (s, seq), p in policy.canonical_items()
        ],
        "uniform_full": [
            {"state": s, "prob": p} for s, p in sorted(policy.uniform_full.items())
        ],
    }
    if labels is not None:
        out["states"] = labels
    return out


def policy_from_dict(data: Mapping) -> SequentialPolicy:
    try:
        entries = [((e["state"], tuple(e["sequence"])), e["prob"]) for e in data["entries"]]
        uniform_full = [(e["state"], e["prob"]) for e in data.get("uniform_full", [])]
        # a dict would keep an item given twice only once, dropping mass
        where = "malformed policy payload"
        reject_duplicates([key for key, _ in entries], where, "(state, sequence)")
        reject_duplicates([state for state, _ in uniform_full], where, "uniform_full state")
        return SequentialPolicy(
            data["n_agents"], data["n_states"], dict(entries), dict(uniform_full)
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed policy payload: {exc}") from exc
