"""Game environment: states, payoffs, potential, welfare, and assumption checks.

The game is binary-action and supermodular: each agent either cooperates (1) or
stays out (0), cooperation costs ``cost``, and pays a state-dependent benefit
plus a complementarity term that scales with the fraction of other cooperators.
"""

from __future__ import annotations

import math
import numbers
from collections import Counter
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
    numpy registers its scalar types as ``numbers.Real``, so they pass too."""
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
    largest at n = N, so once it is finite nothing downstream overflows."""
    if not math.isfinite(env.cost):
        raise ValueError("cost must be finite")
    for s, value in enumerate(potential_column(env, env.n_agents)):
        if not math.isfinite(value):
            raise ValueError(
                f"state {s} ({env.labels[s]}): the potential at N overflows to {value}"
            )
    return env


def owned(values, name: str) -> tuple[float, ...]:
    """``values`` as a tuple of floats, each read by ``as_number`` (an error
    names ``name`` and the index): a record shares no list with its caller
    and hands out none that can be written."""
    # a float passes as itself; only other values pay for as_number's checks
    return tuple(
        [v if type(v) is float else as_number(v, f"{name}[{i}]") for i, v in enumerate(values)]
    )


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

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Environment(Frozen):
    """Primitives of the coordination game.

    States are indexed 0..n_states-1 in input order; outputs elsewhere refer to
    states by index plus label. The per-state columns are tuples of floats,
    copied from the input.
    """

    __slots__ = (
        "n_agents",
        "labels",
        "prior",
        "benefit",
        "complementarity",
        "cost",
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
        _check_at_cost(self)

    @property
    def n_states(self) -> int:
        return len(self.labels)

    def with_cost(self, cost: float) -> "Environment":
        """Same environment at a different action cost (used by cost sweeps).
        It shares this one's validated tuples and labels, so only the new
        cost, and the potentials at N it moves, are checked."""
        env = object.__new__(Environment)
        for name in self.__slots__:
            object.__setattr__(env, name, getattr(self, name))
        object.__setattr__(env, "cost", as_number(cost, "cost"))
        return _check_at_cost(env)


class WelfareSpec(Frozen):
    """Designer's objective: value of n cooperators in state s.

    POWER: V(n, s) = alpha[s] * (n / N) ** beta with alpha > 0, beta >= 1.
    TABULATED: explicit table of shape (n_states, N + 1), V(0, s) = 0 and
    weakly increasing in n. Convexity (V(n, s) <= (n/N) V(N, s)) is an
    assumption to be *checked*, not enforced at construction. Build one with
    ``power`` or ``tabulated``, which copy ``alpha`` or the table's rows into
    tuples of floats and validate them; the constructor keeps what it is given.
    """

    __slots__ = ("kind", "n_agents", "alpha", "beta", "table")

    def __init__(
        self,
        kind: str,
        n_agents: int,
        alpha: Sequence[float] | None = None,
        beta: float = 1.0,
        table: Sequence[Sequence[float]] | None = None,
    ):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "n_agents", n_agents)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "table", table)

    @classmethod
    def power(cls, n_agents: int, alpha: Sequence[float], beta: float) -> "WelfareSpec":
        n_agents = as_number(n_agents, "n_agents", int)
        alpha, beta = owned(alpha, "alpha"), as_number(beta, "beta")
        if not all(math.isfinite(a) and a > 0 for a in alpha):
            raise ValueError("power welfare requires finite alpha > 0 for every state")
        if not (math.isfinite(beta) and beta >= 1.0):
            raise ValueError(f"power welfare requires beta >= 1, got {beta}")
        return cls(POWER, n_agents, alpha, beta)

    @classmethod
    def tabulated(cls, table: Sequence[Sequence[float]]) -> "WelfareSpec":
        table = tuple(owned(row, f"table[{s}]") for s, row in enumerate(table))
        width = len(table[0]) if table else 0
        if width < 3 or any(len(row) != width for row in table):
            raise ValueError("welfare table must be (n_states, n_agents + 1)")
        if not all(math.isfinite(v) for row in table for v in row):
            raise ValueError("welfare table contains non-finite entries")
        for s, row in enumerate(table):
            if row[0] != 0.0:
                raise ValueError(f"welfare at zero cooperators must be 0, state {s} is not")
        for s, row in enumerate(table):
            for n in range(1, width):
                if row[n] < row[n - 1]:
                    raise ValueError(
                        f"welfare must be weakly increasing in cooperators, "
                        f"state {s} decreases at n={n}"
                    )
        return cls(TABULATED, width - 1, table=table)

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


def gain_column(env: Environment, count: int) -> list[float]:
    """``marginal_gain`` of every state at one count, as one list."""
    if not 0 <= count <= env.n_agents - 1:
        raise ValueError(f"count must be in 0..{env.n_agents - 1}, got {count}")
    # the whole numbers as floats up front: float * int converts every time
    c, k, others = env.cost, float(count), float(env.n_agents - 1)
    return [b - c + lam * k / others for b, lam in zip(env.benefit, env.complementarity)]


def potential_column(env: Environment, n: int) -> list[float]:
    """``potential`` of every state at n cooperators, as one list."""
    if not 0 <= n <= env.n_agents:
        raise ValueError(f"n must be in 0..{env.n_agents}, got {n}")
    c, n, less, pairs = env.cost, float(n), float(n - 1), float(2 * (env.n_agents - 1))
    return [
        (b - c) * n + lam * n * less / pairs for b, lam in zip(env.benefit, env.complementarity)
    ]


def welfare_column(welfare: WelfareSpec, n: int) -> list[float]:
    """V(n, s) of every state s, as one list."""
    if not 0 <= n <= welfare.n_agents:
        raise ValueError(f"n must be in 0..{welfare.n_agents}, got {n}")
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
    # b - c > 0 exactly when b > c: finite floats that differ never
    # subtract to 0
    dom_witness = None
    if max(env.benefit) > env.cost:
        dom_witness = next(s for s, b in enumerate(env.benefit) if b > env.cost)

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
