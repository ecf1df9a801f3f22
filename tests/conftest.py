import numpy as np
import pytest

from robustcoord import Environment, WelfareSpec, load_scenario


@pytest.fixture(scope="session")
def case1():
    scn = load_scenario("case1")
    return scn.env, scn.welfare


@pytest.fixture(scope="session")
def case2():
    scn = load_scenario("case2")
    return scn.env, scn.welfare


@pytest.fixture(scope="session")
def example3():
    """Single known state, fixed-order invitations cannot work: b - c = -1."""
    env = Environment(
        n_agents=3,
        labels=("K",),
        prior=np.array([1.0]),
        benefit=np.array([1.0]),
        complementarity=np.array([1.5]),
        cost=2.0,
    )
    welfare = WelfareSpec.tabulated(np.array([[0.0, 1 / 3, 2 / 3, 1.0]]))
    return env, welfare


def random_convex_instance(rng, n_agents=None, n_states=None):
    """Small random environment with convex power welfare, guaranteed to
    admit at least one state with positive full-cooperation potential.
    Agent and state counts are drawn (2..4 and 1..3) unless given."""
    fixed_agents, fixed_states = n_agents, n_states
    while True:
        n_agents = int(rng.integers(2, 5)) if fixed_agents is None else fixed_agents
        n_states = int(rng.integers(1, 4)) if fixed_states is None else fixed_states
        benefit = rng.uniform(0.0, 3.0, n_states)
        comp = rng.uniform(0.0, 2.0, n_states)
        cost = float(rng.uniform(0.5, 2.5))
        prior = rng.uniform(0.1, 1.0, n_states)
        prior = prior / prior.sum()
        full = (benefit - cost) * n_agents + comp * n_agents / 2.0
        if not (full > 0.0).any():
            continue
        env = Environment(
            n_agents=n_agents,
            labels=tuple(f"s{k}" for k in range(n_states)),
            prior=prior,
            benefit=benefit,
            complementarity=comp,
            cost=cost,
        )
        alpha = rng.uniform(1.0, 10.0, n_states)
        beta = float(rng.uniform(1.0, 3.0))
        return env, WelfareSpec.power(n_agents, alpha, beta)
