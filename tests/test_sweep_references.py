"""The cost sweep's rewritten code against the code it replaced.

``_loop_scan`` is ``designer.threshold_scan`` as it was while it walked the
states from the top in a Python loop, and ``_loop_play`` is
``equilibrium.play_events`` as it was while each event built its prior
weights twice; ``_loop_posterior`` and ``_loop_count`` are the Bayes rule and
smallest-equilibrium count that loop called, and ``_loop_potential``,
``_loop_gain`` and ``_loop_welfare`` the columns before b - c and the
lambda-terms were hoisted. Each is copied verbatim bar the names of what it
calls. On the presets' and the benchmark's wide grids at every sweep cost,
at the knife-edge costs and on seeded stdlib-``random`` instances with zero
stakes, zero priors and exactly-zero gains, the package must give
repr-identical ``ThresholdPolicy`` and ``RealizedEvaluation`` records and
the same ``OpCounter`` ticks: ``repr`` tells -0.0 from 0.0 and names every
infinite score.
"""

import math
import random
from operator import mul

import pytest

from robustcoord import (
    POWER,
    PRIVATE_SEQUENTIAL,
    PUBLIC,
    Environment,
    InfeasibleDesignError,
    OpCounter,
    SequentialPolicy,
    ThresholdPolicy,
    WelfareSpec,
    build_scenario,
    check_assumptions,
    compare,
    design,
    design_bce_optimistic,
    evaluate_bce_realized,
    evaluate_policy_realized,
    load_scenario,
    posterior_from_event,
    to_sequential_policy,
)
from robustcoord.designer import threshold_scan
from robustcoord.env import STRICT_TOL, gain_column, potential_column, welfare_column
from robustcoord.equilibrium import (
    EventOutcome,
    RealizedEvaluation,
    _chain_walk,
    _interim_sums,
    _signal_events,
)
from robustcoord.seqpolicy import invited_row
from test_designer import _benchmark_workloads

# ---------------------------------------------------------------- references


def _loop_potential(env, n):
    c, n, less, pairs = env.cost, float(n), float(n - 1), float(2 * (env.n_agents - 1))
    return [
        (b - c) * n + lam * n * less / pairs for b, lam in zip(env.benefit, env.complementarity)
    ]


def _loop_gain(env, count):
    c, k, others = env.cost, float(count), float(env.n_agents - 1)
    return [b - c + lam * k / others for b, lam in zip(env.benefit, env.complementarity)]


def _loop_welfare(welfare, n):
    if welfare.kind == POWER:
        frac = (n / welfare.n_agents) ** welfare.beta
        return [a * frac for a in welfare.alpha]
    return [row[n] for row in welfare.table]


def _loop_ratio_scores(gains, stakes):
    return [
        g / v if v > 0.0 else (math.inf if g > 0.0 else -math.inf)
        for g, v in zip(gains, stakes)
    ]


def _loop_scan(env, gains, stakes, counter=None):
    if not max(gains) > 0.0:
        raise InfeasibleDesignError("no state has a positive full-cooperation gain")
    counter = counter if counter is not None else OpCounter()
    scores = _loop_ratio_scores(gains, stakes)
    prior, n_states = env.prior, len(scores)
    order = tuple(sorted(range(n_states), key=scores.__getitem__))
    # -inf states come first in the order; they are never invited and
    # never enter the budget
    eligible = order[scores.count(-math.inf) :]
    counter.tick(n_states + len(eligible))
    steps = [prior[s] * gains[s] for s in eligible]
    degenerate = math.fsum(steps) >= 0.0
    q, t, mix, visited = [0.0] * n_states, eligible[0], 1.0, len(eligible)
    # from the top, cum is the budget before each state. Unless degenerate,
    # the total is < 0 and stops the scan at some negative-gain state; were
    # rounding to carry it past every state, all of them end up invited
    cum = 0.0
    for i, s in enumerate(reversed(eligible)):
        step = steps[-1 - i]
        if not degenerate and gains[s] < 0.0 and cum + step <= 0.0:
            t, mix, visited = s, (cum / (-step) if step != 0.0 else 1.0), i + 1
            break
        q[s] = 1.0
        cum += step
    if not degenerate:  # close the invited row as check_policy sums it
        n, k = env.n_agents, len(steps) - visited
        above = [step / n for step in steps[k + 1 :]]  # (prior * 1.0 * gain) / N
        for i in range(10):  # as scanned, corrected once, then up to 8 ulps lower
            miss = math.fsum(above + invited_row(env, [(t, mix)], gains))
            if miss >= 0.0:
                break
            mix = mix - miss / (steps[k] / n) if i == 0 else math.nextafter(mix, 0.0)
        else:
            raise ArithmeticError(f"the invited row does not close at state {t}")
        q[t] = mix
    counter.tick(0 if degenerate else visited)
    return ThresholdPolicy(
        scores=tuple(scores),
        order=order,
        invite_probs=tuple(q),
        threshold_state=t,
        threshold_label=env.labels[t],
        mixing_weight=mix,
        expected_welfare=math.fsum(map(mul, map(mul, prior, q), stakes)),
        degenerate=degenerate,
    )


def _loop_posterior(env, probs):
    weighted = list(map(mul, env.prior, probs))
    mass = math.fsum(weighted)
    if mass <= 0.0:
        return None
    if not (math.isfinite(mass) and min(probs) >= 0.0 and max(probs) <= 1.0):
        return posterior_from_event(env, probs).probs
    return tuple([w / mass for w in weighted])


def _loop_count(env, probs):
    n = env.n_agents
    mean_net = math.fsum(map(mul, probs, [b - env.cost for b in env.benefit]))
    mean_comp = math.fsum(map(mul, probs, env.complementarity))
    gains = [(mean_net + mean_comp * k / (n - 1)) / 1.0 for k in range(n)]
    return next(
        k
        for k in range(n + 1)
        if (k == 0 or gains[k - 1] >= -STRICT_TOL) and (k == n or gains[k] <= STRICT_TOL)
    )


def _loop_play(env, welfare, events, interim=None):
    outcomes = []
    for label, probs, seq in events:
        posterior = _loop_posterior(env, probs)
        if posterior is None:
            continue
        if interim is not None and seq is not None:
            count = _chain_walk(env, seq, *interim)
        else:
            count = _loop_count(env, posterior)
        weights = map(mul, env.prior, probs)
        contrib = math.fsum(map(mul, weights, _loop_welfare(welfare, count)))
        outcomes.append(EventOutcome(label, tuple(probs), posterior, count, contrib))
    total = math.fsum(e.welfare_contribution for e in outcomes)
    if interim is None:
        return RealizedEvaluation(total, PUBLIC, None, tuple(outcomes))
    return RealizedEvaluation(total, PRIVATE_SEQUENTIAL, False, tuple(outcomes))


def _loop_bce_events(q):
    return [("recommend-all", q, None), ("recommend-none", [1.0 - x for x in q], None)]


# --------------------------------------------------------------- the checks


def _outcome(f, *args):
    """``f(*args)``, or the repr of what it raised."""
    try:
        return f(*args)
    except (InfeasibleDesignError, ArithmeticError) as exc:
        return repr(exc)


def _check_point(env, wf, seen):
    """Every record the sweep makes at one cost, against the references."""
    n = env.n_agents
    for got, want in [
        (potential_column(env, n), _loop_potential(env, n)),
        (gain_column(env, n - 1), _loop_gain(env, n - 1)),
        (welfare_column(wf, n), _loop_welfare(wf, n)),
    ]:
        assert repr(got) == repr(want)
    dominance = next((s for s, b in enumerate(env.benefit) if b > env.cost), None)
    report = check_assumptions(env, wf)
    assert report.dominance_witness == dominance

    stakes = _loop_welfare(wf, n)
    counter, ref_counter = OpCounter(), OpCounter()
    tp = _outcome(lambda: design(env, wf, counter=counter))
    ref_counter.tick(env.n_states)
    want = _outcome(_loop_scan, env, _loop_potential(env, n), stakes, ref_counter)
    if not isinstance(want, str):
        want = want._replace(warnings=report.findings())
    assert repr(tp) == repr(want)
    assert counter.ops == ref_counter.ops

    bce = _outcome(design_bce_optimistic, env, wf)
    want = _outcome(_loop_scan, env, _loop_gain(env, n - 1), stakes)
    assert repr(bce) == repr(want)
    rec = compare(env, wf)
    if isinstance(bce, str):
        seen.add("infeasible")
        assert rec.bce_first_full is None
        return
    seen.add("degenerate" if bce.degenerate else "mixing")
    realized = evaluate_bce_realized(bce, env, wf)
    assert repr(realized) == repr(_loop_play(env, wf, _loop_bce_events(bce.invite_probs)))
    q = bce.invite_probs
    first_full = next((env.labels[s] for s in bce.order if q[s] == 1.0), None)
    assert (rec.bce_first_full, rec.bce_realized) == (first_full, realized.welfare)


# the preset costs where a potential or a full-trust gain sits on a knife
# edge (ROADMAP item 1): exactly 0.0 in floats, or a float away from it
KNIFE_EDGES = {"case1": [1.85, 2.65, 2.9], "case2": [2.4, 2.8]}


@pytest.mark.parametrize("scenario", ["case1", "case2", 0, 5, 7])
def test_every_sweep_point_matches_the_references(monkeypatch, scenario):
    if isinstance(scenario, str):
        scn = load_scenario(scenario)
    else:
        scn = build_scenario(_benchmark_workloads(monkeypatch).wide_grid_config(scenario))
    seen = set()
    for cost in [*scn.sweep_costs, *KNIFE_EDGES.get(scenario, [])]:
        _check_point(scn.env.with_cost(cost), scn.welfare, seen)
    assert seen == {"infeasible", "degenerate", "mixing"}


def _instance(rng):
    """A small instance drawn from short lists, so states tie and gains are
    exactly 0.0; two priors in five are 0, some tabulated rows
    are 0 (a stake V(N) of 0, scored +inf or -inf), and the cost is often
    a knife edge of the draw: b, b + lambda / 2 or b + lambda."""
    n_agents, n_states = rng.randint(2, 6), rng.randint(1, 8)
    weights = [rng.choice([0.0, 0.0, 1.0, 2.0, 5.0]) for _ in range(n_states)]
    weights[-1] = weights[-1] or 1.0
    prior = [w / math.fsum(weights) for w in weights]
    benefit = [rng.choice([0.5, 1.0, 1.5, 2.0, 2.5]) for _ in range(n_states)]
    comp = [rng.choice([0.0, 0.0, 0.5, 1.0, 1.5]) for _ in range(n_states)]
    s = rng.randrange(n_states)
    cost = rng.choice([1.0, 2.0, benefit[s], benefit[s] + comp[s] / 2, benefit[s] + comp[s]])
    env = Environment(n_agents, [f"s{k}" for k in range(n_states)], prior, benefit, comp, cost)
    alpha = [rng.choice([1.0, 3.0, 6.0]) for _ in range(n_states)]
    beta = rng.choice([1.0, 1.5, 2.0])
    if rng.random() < 0.5:
        return env, WelfareSpec.power(n_agents, alpha, beta)
    zero = [rng.random() < 0.3 for _ in range(n_states)]
    table = [
        [0.0 if z else a * (n / n_agents) ** beta for n in range(n_agents + 1)]
        for a, z in zip(alpha, zero)
    ]
    return env, WelfareSpec.tabulated(table)


def _policy(env, rng):
    """Explicit sequences of every length beside uniform-full mass."""
    entries, uniform = {}, {}
    for s in range(env.n_states):
        budget = 1.0
        for _ in range(rng.randint(0, 3)):
            seq = tuple(rng.sample(range(env.n_agents), rng.randint(0, env.n_agents)))
            p = rng.choice([0.1, 0.2, 0.3])
            entries[(s, seq)] = entries.get((s, seq), 0.0) + p
            budget -= p
        if rng.random() < 0.6:
            uniform[s] = budget * rng.choice([0.5, 1.0])
    return SequentialPolicy(env.n_agents, env.n_states, entries, uniform)


def test_random_instances_match_the_references():
    rng = random.Random(2033)
    seen = set()
    for _ in range(400):
        env, wf = _instance(rng)
        _check_point(env, wf, seen)
        stakes = welfare_column(wf, wf.n_agents)
        gains = potential_column(env, env.n_agents)
        seen.update(
            name
            for name, hit in [
                ("zero prior", 0.0 in env.prior),
                ("zero stake", 0.0 in stakes),
                ("zero gain", 0.0 in gains),
            ]
            if hit
        )
        policies = [_policy(env, rng)]
        try:
            policies.append(to_sequential_policy(design(env, wf), env))
        except InfeasibleDesignError:
            pass
        for pol in policies:
            events = _signal_events(pol, env.n_states)
            got = evaluate_policy_realized(pol, env, wf, mode=PUBLIC)
            assert repr(got) == repr(_loop_play(env, wf, events))
            got = evaluate_policy_realized(pol, env, wf, mode=PRIVATE_SEQUENTIAL)
            if not got.obedient:
                want = _loop_play(env, wf, events, _interim_sums(pol, env))
                assert repr(got) == repr(want)
                seen.add("private")
    assert seen == {
        "infeasible", "degenerate", "mixing", "zero prior", "zero stake", "zero gain", "private",
    }


def _scan_input(rng):
    """A prior and a gain and stake column drawn so that scores tie at +0.0
    and -0.0: gains of +-5e-324 and +-0.0 over stakes of 2 or more
    underflow, a stake of 0 scores +inf or -inf, and a zero prior makes a
    zero step."""
    n_states = rng.randint(1, 9)
    weights = [rng.choice([0.0, 1.0, 1.0, 3.0]) for _ in range(n_states)]
    weights[0] = weights[0] or 1.0
    prior = [w / math.fsum(weights) for w in weights]
    tiny = [5e-324, -5e-324, 0.0, -0.0]
    gains = [rng.choice([*tiny, *tiny, 1.0, -1.0, 0.5, -0.25, 3.0, -2.0]) for _ in range(n_states)]
    stakes = [rng.choice([0.0, 1.0, 2.0, 4.0, 1e300]) for _ in range(n_states)]
    env = Environment(
        rng.randint(2, 5), [f"s{k}" for k in range(n_states)], prior,
        [0.0] * n_states, [0.0] * n_states, 0.0,
    )
    return env, gains, stakes


def test_threshold_scan_matches_its_loop_where_scores_tie_at_zero():
    # the stop among the states scored 0 is the one place the scan still
    # tests state by state; these inputs put it there
    rng = random.Random(33)
    seen = set()
    for _ in range(3000):
        env, gains, stakes = _scan_input(rng)
        counter, ref_counter = OpCounter(), OpCounter()
        got = _outcome(threshold_scan, env, gains, stakes, counter)
        want = _outcome(_loop_scan, env, gains, stakes, ref_counter)
        assert repr(got) == repr(want)
        assert counter.ops == ref_counter.ops
        if isinstance(got, str):
            seen.add("infeasible")
        elif got.degenerate:
            seen.add("degenerate")
        elif got.scores[got.threshold_state] == 0.0:
            seen.add("stop scored 0")
        else:
            seen.add("stop scored below 0")
    assert seen == {"infeasible", "degenerate", "stop scored 0", "stop scored below 0"}
