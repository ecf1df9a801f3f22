"""Game environment: states, payoffs, potential, welfare, and assumption checks.

The game is binary-action and supermodular: each agent either cooperates (1) or
stays out (0), cooperation costs ``cost``, and pays a state-dependent benefit
plus a complementarity term that scales with the fraction of other cooperators.
"""

from __future__ import annotations

import math
import numbers
from collections import Counter
from itertools import compress, count, repeat
from operator import gt
from typing import NamedTuple, Sequence

# welfare kinds
POWER = "power"
TABULATED = "tabulated"

# The package's tolerances, one per decision; README's "Tolerances" table
# lists these with the simplex's PIVOT_TOL and PHASE1_TOL.
# obedience slack, the default of check_policy and --tol: an invited value
# must be >= -tol, an uninvited one <= tol, a state's mass within tol of 1
DEFAULT_TOL = 1e-9
# an agent joins only on an expected gain above this, and stays on one >= -it
STRICT_TOL = 1e-12
# two welfare values this close are equal (convexity, sweep boundaries)
WELFARE_TOL = 1e-9
# rounding slack of one probability: how far it may stray outside [0, 1],
# and the mass at or below which an LP variable or baseline event is zero
PROB_TOL = 1e-12
# how far an Environment's prior may sum away from 1
PRIOR_SUM_TOL = 1e-12
# how far a Belief may sum away from 1, and a policy's state mass exceed 1
MASS_SUM_TOL = 1e-9
# largest residual an OPTIMAL answer may carry: the simplex's re-solved
# basis, and designer.certify's duality gap and violations
CERT_TOL = 1e-9


def check_tol(tol: float) -> None:
    """Reject a tolerance that is not finite and nonnegative: a NaN would
    fail every comparison, and an infinite one would pass them all."""
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and nonnegative, got {tol!r}")


def check_dimensions(env: Environment, welfare: WelfareSpec) -> None:
    if welfare.n_agents != env.n_agents or welfare.n_states != env.n_states:
        raise ValueError("welfare spec does not match the environment's dimensions")


def as_number(value, where: str, kind=float):
    """``kind(value)`` for a real number, or a ValueError naming ``where``
    and the value if it is anything else (a string, a bool, None, ...) or,
    for ``kind=int``, a number with a fractional part: nothing is truncated.
    numpy registers its scalar types as ``numbers.Real``, so they pass too.
    A value whose type is exactly ``kind`` is already that number; a bool or
    a numpy scalar is a subclass, so it takes the checked conversion."""
    if type(value) is kind:
        return value
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            number = kind(value)
        except (ValueError, OverflowError):  # int() of nan or inf
            pass
        else:
            if kind is int and number != value:
                raise ValueError(f"{where}: expected an integer, got {value!r}")
            return number
    raise ValueError(f"{where}: expected a number, got {value!r}")


def reject_duplicates(items, where: str, what: str) -> None:
    """Raise ValueError naming every item given more than once."""
    dups = sorted(k for k, n in Counter(items).items() if n > 1)
    if dups:
        raise ValueError(f"{where}: duplicate {what} {dups}")


def _check_at_cost(env: Environment) -> Environment:
    """Reject a non-finite cost, and primitives whose potential at N
    overflows. That column bounds every value derived from them: each term
    of a potential or a gain, (b - c) * n and lambda * n * (n - 1), is
    largest at n = N, so once it is finite nothing downstream overflows.

    Rounding is monotone and every lambda-term is >= 0, so each state's
    potential at N, computed by the same operations, lies between
    (min b - c) * N and (max b - c) * N plus the largest lambda-term. When
    both bounds are finite, so is every intermediate of every state's, and
    no state is walked. Otherwise each state is, and the first whose
    potential overflows is named."""
    if not math.isfinite(env.cost):
        raise ValueError("cost must be finite")
    fixed, n = env._fixed, float(env.n_agents)
    low = (fixed.benefit_low - env.cost) * n
    high = (fixed.benefit_high - env.cost) * n + fixed.comp_potential_high
    if math.isfinite(low) and math.isfinite(high):
        return env
    for s, value in enumerate(potential_column(env, env.n_agents)):
        if not math.isfinite(value):
            raise ValueError(
                f"state {s} ({env.labels[s]}): the potential at N overflows to {value}"
            )
    return env


class _CostFree(NamedTuple):
    """What an environment's primitives fix at every cost, built once and
    shared by its ``with_cost`` copies: the extremes ``_check_at_cost``
    bounds with, and the lambda-terms of the potential at N and of the
    full-trust gain (N - 1 others), which ``potential_column`` and
    ``gain_column`` add to b - c."""

    benefit_low: float
    benefit_high: float
    comp_potential_high: float  # the largest lambda's term in the potential at N
    comp_potential: tuple[float, ...]  # lambda * N * (N - 1) / (2 (N - 1))
    comp_full: tuple[float, ...]  # lambda * (N - 1) / (N - 1)


def _net(env: Environment) -> tuple[float, ...]:
    c = env.cost
    return tuple([b - c for b in env.benefit])


def _cost_free(env: Environment) -> _CostFree:
    n, less, pairs = float(env.n_agents), float(env.n_agents - 1), float(2 * (env.n_agents - 1))
    comp = env.complementarity
    return _CostFree(
        benefit_low=min(env.benefit),
        benefit_high=max(env.benefit),
        comp_potential_high=max(comp) * n * less / pairs,
        comp_potential=tuple([lam * n * less / pairs for lam in comp]),
        comp_full=tuple([lam * less / less for lam in comp]),
    )


def owned(values, name: str) -> tuple[float, ...]:
    """``values`` as a tuple of floats, each read by ``as_number`` (an error
    names ``name`` and the index): a record shares no list with its caller
    and hands out none that can be written. When every value is a float,
    which ``as_number`` returns as it is, one C pass over their types
    settles it and no index is formatted."""
    values = tuple(values)
    if {float}.issuperset(map(type, values)):
        return values
    return tuple([as_number(v, f"{name}[{i}]") for i, v in enumerate(values)])


class Frozen:
    """Base of the records whose constructors convert or validate their
    input: each sets its fields once, with ``object.__setattr__``, and they
    can never be assigned or deleted afterwards."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):  # copy and pickle restore the slots here
        for name, value in state[1].items():
            object.__setattr__(self, name, value)

    def __repr__(self) -> str:  # a private slot is a cache, not a field
        fields = ", ".join(
            f"{n}={getattr(self, n)!r}" for n in self.__slots__ if not n.startswith("_")
        )
        return f"{type(self).__name__}({fields})"


class Environment(Frozen):
    """Primitives of the coordination game.

    States are indexed 0..n_states-1 in input order; outputs elsewhere refer to
    states by index plus label. The per-state columns are tuples of floats,
    copied from the input. Two private slots hold what the columns derive:
    ``_fixed``, the cost-free part (``_CostFree``), and ``_net``, b - c at
    this cost (``net_column``).
    """

    __slots__ = (
        "n_agents",
        "labels",
        "prior",
        "benefit",
        "complementarity",
        "cost",
        "_fixed",
        "_net",
    )

    def __init__(
        self,
        n_agents: int,
        labels: Sequence[str],
        prior: Sequence[float],
        benefit: Sequence[float],
        complementarity: Sequence[float],
        cost: float,
    ):
        object.__setattr__(self, "n_agents", as_number(n_agents, "n_agents", int))
        object.__setattr__(self, "labels", tuple(str(x) for x in labels))
        object.__setattr__(self, "prior", owned(prior, "prior"))
        object.__setattr__(self, "benefit", owned(benefit, "benefit"))
        object.__setattr__(self, "complementarity", owned(complementarity, "complementarity"))
        object.__setattr__(self, "cost", as_number(cost, "cost"))
        self._validate()

    def _validate(self) -> None:
        if self.n_agents < 2:
            raise ValueError(f"n_agents must be >= 2, got {self.n_agents}")
        k = len(self.labels)
        if k < 1:
            raise ValueError("need at least one state")
        for name in ("prior", "benefit", "complementarity"):
            column = getattr(self, name)
            if len(column) != k:
                raise ValueError(
                    f"{name} has shape ({len(column)},), expected ({k},) to match labels"
                )
            if not all(map(math.isfinite, column)):
                raise ValueError(f"{name} contains non-finite entries")
        for name in ("prior", "complementarity"):
            column = getattr(self, name)
            for s, value in enumerate(column):
                if value < 0:
                    raise ValueError(f"{name} must be nonnegative, state {s} is {value}")
            if name == "prior" and abs(math.fsum(column) - 1.0) > PRIOR_SUM_TOL:
                raise ValueError(f"prior must sum to 1, got {math.fsum(column)!r}")
        object.__setattr__(self, "_fixed", _cost_free(self))
        object.__setattr__(self, "_net", _net(self))
        _check_at_cost(self)

    @property
    def n_states(self) -> int:
        return len(self.labels)

    def with_cost(self, cost: float) -> "Environment":
        """Same environment at a different action cost (used by cost sweeps).
        It shares this one's validated tuples, labels and cost-free columns,
        so only the new cost is checked, in O(1) unless a potential at N
        may overflow (``_check_at_cost``)."""
        env = object.__new__(Environment)
        for name in self.__slots__:
            object.__setattr__(env, name, getattr(self, name))
        object.__setattr__(env, "cost", as_number(cost, "cost"))
        object.__setattr__(env, "_net", _net(env))
        return _check_at_cost(env)


class WelfareSpec(Frozen):
    """Designer's objective: value of n cooperators in state s.

    POWER: V(n, s) = alpha[s] * (n / N) ** beta with alpha > 0, beta >= 1.
    TABULATED: explicit table of shape (n_states, N + 1), V(0, s) = 0 and
    weakly increasing in n. Convexity (V(n, s) <= (n/N) V(N, s)) is an
    assumption to be *checked*, not enforced at construction. The
    constructor copies ``alpha`` or the table's rows into tuples of floats
    and validates them for its ``kind``, and stores None for the fields the
    kind does not use, so the record keeps no object of its caller;
    ``power`` and ``tabulated`` are shorthands for it. The private slot
    ``_ends`` holds the columns V(0) and V(N), which every design, played
    event and objective at those counts reads (``welfare_column``).
    """

    __slots__ = ("kind", "n_agents", "alpha", "beta", "table", "_ends")

    def __init__(
        self,
        kind: str,
        n_agents: int,
        alpha: Sequence[float] | None = None,
        beta: float = 1.0,
        table: Sequence[Sequence[float]] | None = None,
    ):
        if kind not in (POWER, TABULATED):
            raise ValueError(f"welfare kind must be {POWER!r} or {TABULATED!r}, got {kind!r}")
        n_agents = as_number(n_agents, "n_agents", int)
        k = len(alpha if kind == POWER else table)
        if n_agents < 2 or k < 1:
            raise ValueError(f"welfare needs n_agents >= 2 and >= 1 state, got {n_agents} and {k}")
        if kind == POWER:
            alpha, beta, table = owned(alpha, "alpha"), as_number(beta, "beta"), None
            if not all(math.isfinite(a) and a > 0 for a in alpha):
                raise ValueError("power welfare requires finite alpha > 0 for every state")
            if not (math.isfinite(beta) and beta >= 1.0):
                raise ValueError(f"power welfare requires beta >= 1, got {beta}")
        else:
            alpha, beta = None, None
            table = tuple(owned(row, f"table[{s}]") for s, row in enumerate(table))
            if any(len(row) != n_agents + 1 for row in table):
                raise ValueError("welfare table must be (n_states, n_agents + 1)")
            if not all(math.isfinite(v) for row in table for v in row):
                raise ValueError("welfare table contains non-finite entries")
            for s, row in enumerate(table):
                if row[0] != 0.0:
                    raise ValueError(f"welfare at zero cooperators must be 0, state {s} is not")
                for n in range(1, n_agents + 1):
                    if row[n] < row[n - 1]:
                        raise ValueError(
                            f"welfare must be weakly increasing in cooperators, "
                            f"state {s} decreases at n={n}"
                        )
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "n_agents", n_agents)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "table", table)
        ends = (_welfare_at(self, 0), _welfare_at(self, n_agents))
        object.__setattr__(self, "_ends", tuple(map(tuple, ends)))

    @classmethod
    def power(cls, n_agents: int, alpha: Sequence[float], beta: float) -> "WelfareSpec":
        return cls(POWER, n_agents, alpha, beta)

    @classmethod
    def tabulated(cls, table: Sequence[Sequence[float]]) -> "WelfareSpec":
        return cls(TABULATED, len(table[0]) - 1 if len(table) else 0, table=table)

    @property
    def n_states(self) -> int:
        return len(self.alpha if self.kind == POWER else self.table)


class AssumptionReport(NamedTuple):
    """Result of check_assumptions; witnesses are (state, count) or state index."""

    dominance: bool
    dominance_witness: int | None
    convex_welfare: bool
    convex_welfare_witness: tuple[int, int] | None

    @property
    def passed(self) -> bool:
        return self.dominance and self.convex_welfare

    def findings(self) -> tuple[str, ...]:
        out = []
        if not self.dominance:
            out.append("no state has benefit - cost > 0 (dominance fails)")
        if not self.convex_welfare:
            s, n = self.convex_welfare_witness
            out.append(f"welfare exceeds the linear hull at state {s}, n={n}")
        return tuple(out)


def marginal_gain(env: Environment, state: int, count: int) -> float:
    """Gain from cooperating when ``count`` other agents cooperate."""
    if not 0 <= state < env.n_states:
        raise ValueError(f"state {state} out of range")
    if not 0 <= count <= env.n_agents - 1:
        raise ValueError(f"count must be in 0..{env.n_agents - 1}, got {count}")
    return float(
        env.benefit[state]
        - env.cost
        + env.complementarity[state] * count / (env.n_agents - 1)
    )


def potential(env: Environment, state: int, n: int) -> float:
    """Exact potential at n cooperators; successive differences are the
    marginal gains, so the closed form below telescopes them."""
    if not 0 <= state < env.n_states:
        raise ValueError(f"state {state} out of range")
    if not 0 <= n <= env.n_agents:
        raise ValueError(f"n must be in 0..{env.n_agents}, got {n}")
    b = env.benefit[state] - env.cost
    lam = env.complementarity[state]
    return float(b * n + lam * n * (n - 1) / (2 * (env.n_agents - 1)))


def welfare_value(welfare: WelfareSpec, state: int, n: int) -> float:
    """Designer value of ``n`` cooperators in ``state``."""
    if not 0 <= n <= welfare.n_agents:
        raise ValueError(f"n must be in 0..{welfare.n_agents}, got {n}")
    if not 0 <= state < welfare.n_states:
        raise ValueError(f"state {state} out of range")
    if welfare.kind == POWER:
        return float(welfare.alpha[state] * (n / welfare.n_agents) ** welfare.beta)
    return float(welfare.table[state][n])


def net_column(env: Environment) -> tuple[float, ...]:
    """b - c of every state, built with ``env`` (each cost is its own
    environment), so the potentials, the gains and every belief's mean gain
    at one cost share one pass over the states."""
    return env._net


def gain_column(env: Environment, count: int) -> list[float]:
    """``marginal_gain`` of every state at one count, as one list."""
    if not 0 <= count <= env.n_agents - 1:
        raise ValueError(f"count must be in 0..{env.n_agents - 1}, got {count}")
    if count == env.n_agents - 1:  # the full-trust gain
        return [x + y for x, y in zip(net_column(env), env._fixed.comp_full)]
    # the whole numbers as floats up front: float * int converts every time
    k, others = float(count), float(env.n_agents - 1)
    return [x + lam * k / others for x, lam in zip(net_column(env), env.complementarity)]


def potential_column(env: Environment, n: int) -> list[float]:
    """``potential`` of every state at n cooperators, as one list."""
    if not 0 <= n <= env.n_agents:
        raise ValueError(f"n must be in 0..{env.n_agents}, got {n}")
    net = net_column(env)
    if n == env.n_agents:
        n = float(n)
        return [x * n + y for x, y in zip(net, env._fixed.comp_potential)]
    n, less, pairs = float(n), float(n - 1), float(2 * (env.n_agents - 1))
    return [x * n + lam * n * less / pairs for x, lam in zip(net, env.complementarity)]


def welfare_column(welfare: WelfareSpec, n: int) -> list[float]:
    """V(n, s) of every state s, as a new list: at n = 0 and n = N a copy of
    the spec's cached column, at any other count built here."""
    if not 0 <= n <= welfare.n_agents:
        raise ValueError(f"n must be in 0..{welfare.n_agents}, got {n}")
    if n == 0 or n == welfare.n_agents:
        return list(welfare._ends[n > 0])
    return _welfare_at(welfare, n)


def _welfare_at(welfare: WelfareSpec, n: int) -> list[float]:
    """V(n, s) of every state s, built from the spec's fields."""
    if welfare.kind == POWER:
        frac = (n / welfare.n_agents) ** welfare.beta
        return [a * frac for a in welfare.alpha]
    return [row[n] for row in welfare.table]


def check_assumptions(env: Environment, welfare: WelfareSpec) -> AssumptionReport:
    """Check dominance and welfare convexity.

    The potential is always convex: its second difference is the constant
    lambda / (N - 1), and ``Environment`` rejects lambda < 0. Welfare
    convexity for POWER reduces to beta >= 1. Both keep this O(1) per state
    so the designer's operation count stays independent of N.
    """
    check_dimensions(env, welfare)
    # the first state with b > c, in one C pass; b - c > 0 exactly when
    # b > c: finite floats that differ never subtract to 0
    dom_witness = next(compress(count(), map(gt, env.benefit, repeat(env.cost))), None)

    cw_witness = None
    if welfare.kind == TABULATED:
        n_agents = welfare.n_agents
        cw_witness = next(
            (
                (s, n)
                for s, row in enumerate(welfare.table)
                for n, value in enumerate(row)
                if value > row[-1] * (n / n_agents) + WELFARE_TOL
            ),
            None,
        )
    # POWER: (n/N)^beta <= n/N holds for every n once beta >= 1

    return AssumptionReport(
        dominance=dom_witness is not None,
        dominance_witness=dom_witness,
        convex_welfare=cw_witness is None,
        convex_welfare_witness=cw_witness,
    )
