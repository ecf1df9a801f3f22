"""Metamorphic relations of the game: what a figure must not depend on.

N-invariance. With b, lambda, c and alpha held fixed, the agent count N
moves no figure ``compare`` reports. The potential at N is N * (b - c +
lambda / 2) and V(N) is alpha, so the designer's scores scale by N and its
ranking, budget signs and threshold weight do not move; the full-trust gain
b - c + lambda and the gain that starts a chain, E[b - c], do not involve N
at all. So the robust, predicted and realized welfare and the threshold
weight p_star agree at every N, up to rounding. ``compare`` prices the
smallest equilibrium with O(log N) gains, which is what makes N = 10^6
affordable here.
"""

import math
import random

import pytest

from robustcoord import Environment, WelfareSpec, compare, load_scenario

AGENT_COUNTS = (2, 3, 10, 1_000, 1_000_000)
REL_TOL = 1e-9


def _drawn(rng: random.Random):
    """S in 1..8, priors in whole hundredths summing to 1, and two-decimal
    b, lambda, alpha and cost; power welfare with beta = 1.5."""
    n_states = rng.randint(1, 8)
    cuts = sorted(rng.sample(range(1, 100), n_states - 1))
    prior = [(hi - lo) / 100 for lo, hi in zip([0, *cuts], [*cuts, 100])]
    benefit, comp, alpha = (
        [round(rng.uniform(lo, hi), 2) for _ in range(n_states)]
        for lo, hi in ((0.0, 3.0), (0.0, 2.0), (1.0, 12.0))
    )
    return prior, benefit, comp, alpha, round(rng.uniform(0.5, 2.5), 2), 1.5


def _presets():
    for name in ("case1", "case2"):
        scn = load_scenario(name)
        env, wf = scn.env, scn.welfare
        yield env.prior, env.benefit, env.complementarity, wf.alpha, env.cost, wf.beta


def _instances(count=60, seed=21):
    yield from _presets()
    rng = random.Random(f"metamorphic/{seed}")
    for _ in range(count):
        yield _drawn(rng)


def _figures(n_agents, prior, benefit, comp, alpha, cost, beta):
    labels = tuple(f"s{s}" for s in range(len(prior)))
    env = Environment(n_agents, labels, prior, benefit, comp, cost)
    rec = compare(env, WelfareSpec.power(n_agents, alpha, beta))
    return rec.robust_welfare, rec.bce_predicted, rec.bce_realized, rec.p_star


def _agree(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


def test_no_figure_of_compare_depends_on_the_agent_count():
    checked = 0
    for primitives in _instances():
        want = _figures(AGENT_COUNTS[0], *primitives)
        for n_agents in AGENT_COUNTS[1:]:
            got = _figures(n_agents, *primitives)
            assert all(map(_agree, got, want)), (n_agents, primitives, got, want)
            checked += 1
    assert checked == 62 * (len(AGENT_COUNTS) - 1)
