"""Independent reference values for the welfare figures robustcoord reports.

Written from the model's definitions in plain Python, without importing the
package, so the output checker has something to compare against on any seed:

- marginal gain of joining with k others: b - c + lambda * k / (N - 1);
- potential at N cooperators: (b - c) * N + lambda * N / 2;
- power welfare of n cooperators: alpha * (n / N) ** beta;
- robust design: rank states by potential-to-welfare score, invite from the
  top until the prior-weighted potential budget binds, mixing at one state;
- optimistic (BCE) baseline: the same greedy rule on the full-trust gain
  b - c + lambda, realized under smallest-equilibrium play of two public
  events (recommend-all, recommend-none);
- public counterfactual: the robust policy's two public events (no invitation,
  everyone invited), each played at its smallest equilibrium.

Sums run in the same order as the paper's greedy scan, so ties and boundary
decisions come out the same as any faithful implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal

STRICT_TOL = 1e-12


@dataclass(frozen=True)
class Model:
    n_agents: int
    prior: tuple[float, ...]
    benefit: tuple[float, ...]
    lam: tuple[float, ...]
    alpha: tuple[float, ...]
    beta: float
    cost: float

    @property
    def n_states(self) -> int:
        return len(self.prior)

    def at_cost(self, cost: float) -> "Model":
        return Model(
            self.n_agents, self.prior, self.benefit, self.lam, self.alpha, self.beta, cost
        )


def model_from_config(config: dict) -> Model:
    """Primitives of a scenario config (explicit states or a theta grid)."""
    n = int(config["n_agents"])
    if "states" in config:
        st = config["states"]
        prior = tuple(float(s["prob"]) for s in st)
        b = tuple(float(s["b"]) for s in st)
        lam = tuple(float(s["lambda"]) for s in st)
        alpha = tuple(float(s["alpha"]) for s in st)
    else:
        g = config["grid"]
        count = int(g["count"])
        d0, dd = Decimal(str(g["theta_start"])), Decimal(str(g["theta_step"]))
        theta = [float(d0 + k * dd) for k in range(count)]

        def ramp(key: str) -> tuple[float, ...]:
            lo, hi = float(g[key][0]), float(g[key][1])
            return tuple(lo + (hi - lo) * t for t in theta)

        prior = (1.0 / count,) * count
        b, lam, alpha = ramp("b"), ramp("lambda"), ramp("alpha")
    return Model(n, prior, b, lam, alpha, float(config["beta"]), float(config["cost"]))


def sweep_costs(block: dict) -> list[float]:
    start, stop, step = (Decimal(str(block[k])) for k in ("start", "stop", "step"))
    out, point = [], start
    while point <= stop:
        out.append(float(point))
        point += step
    return out


def gain(m: Model, s: int, count: int) -> float:
    return m.benefit[s] - m.cost + m.lam[s] * count / (m.n_agents - 1)


def potential_full(m: Model, s: int) -> float:
    n = m.n_agents
    return (m.benefit[s] - m.cost) * n + m.lam[s] * n * (n - 1) / (2 * (n - 1))


def welfare(m: Model, s: int, n: int) -> float:
    return m.alpha[s] * (n / m.n_agents) ** m.beta


def _greedy(m: Model, values: list[float]) -> list[float] | None:
    """Invitation probabilities of the greedy budget rule on per-state values
    (potentials or full-trust gains); None when no value is positive."""
    if not any(v > 0.0 for v in values):
        return None
    stake = [welfare(m, s, m.n_agents) for s in range(m.n_states)]
    scores = [
        values[s] / stake[s] if stake[s] > 0.0 else (float("inf") if values[s] > 0.0 else float("-inf"))
        for s in range(m.n_states)
    ]
    order = sorted(range(m.n_states), key=lambda s: scores[s])
    eligible = [s for s in order if scores[s] > float("-inf")]
    q = [0.0] * m.n_states
    if sum(m.prior[s] * values[s] for s in eligible) >= 0.0:
        for s in eligible:
            q[s] = 1.0
        return q
    cum = 0.0
    for s in reversed(eligible):
        step = m.prior[s] * values[s]
        if values[s] >= 0.0 or cum + step > 0.0:
            q[s] = 1.0
            cum += step
        else:
            q[s] = cum / (-step) if step != 0.0 else 1.0
            break
    return q


def robust_invites(m: Model) -> list[float] | None:
    return _greedy(m, [potential_full(m, s) for s in range(m.n_states)])


def robust_welfare(m: Model) -> float:
    q = robust_invites(m)
    if q is None:
        return 0.0
    return sum(m.prior[s] * q[s] * welfare(m, s, m.n_agents) for s in range(m.n_states))


def smallest_count(m: Model, probs: list[float]) -> int:
    """Smallest equilibrium count under the posterior of a public event."""
    weighted = [m.prior[s] * min(max(p, 0.0), 1.0) for s, p in enumerate(probs)]
    total = sum(weighted)
    belief = [w / total for w in weighted]
    count = 0
    while count < m.n_agents and sum(
        belief[s] * gain(m, s, count) for s in range(m.n_states) if belief[s] > 0.0
    ) > STRICT_TOL:
        count += 1
    return count


def _public_welfare(m: Model, events: list[list[float]], skip_below: float) -> float:
    total = 0.0
    for probs in events:
        if sum(m.prior[s] * probs[s] for s in range(m.n_states)) <= skip_below:
            continue
        k = smallest_count(m, probs)
        total += sum(m.prior[s] * probs[s] * welfare(m, s, k) for s in range(m.n_states))
    return total


def bce_figures(m: Model) -> tuple[float, float]:
    """(predicted, realized) welfare of the optimistic baseline."""
    q = _greedy(m, [gain(m, s, m.n_agents - 1) for s in range(m.n_states)])
    if q is None:
        q = [0.0] * m.n_states
    predicted = sum(m.prior[s] * q[s] * welfare(m, s, m.n_agents) for s in range(m.n_states))
    realized = _public_welfare(m, [q, [1.0 - x for x in q]], STRICT_TOL)
    return predicted, realized


def public_counterfactual(m: Model) -> float:
    """Robust policy's welfare when every invitation is public."""
    q = robust_invites(m)
    if q is None:
        return 0.0
    out_probs = [1.0 - x if x < 1.0 else 0.0 for x in q]
    in_probs = [x if x > 0.0 else 0.0 for x in q]
    return _public_welfare(m, [out_probs, in_probs], 0.0)


def compare_row(m: Model) -> tuple[float, float, float]:
    """(robust, bce_predicted, bce_realized) at the model's cost."""
    return (robust_welfare(m), *bce_figures(m))


def references(config: dict) -> dict:
    """Every welfare figure a `run` or `lp` of this scenario reports."""
    m = model_from_config(config)
    ref = {"robust_welfare": robust_welfare(m)}
    modes = config.get("modes", [])
    if "baselines" in modes:
        ref["compare"] = list(compare_row(m))
    if "public-counterfactual" in modes:
        ref["public_welfare"] = public_counterfactual(m)
    if "sweep" in config:
        ref["sweep"] = [
            [c, *compare_row(m.at_cost(c))] for c in sweep_costs(config["sweep"])
        ]
    return ref
