"""The state axis against the per-state loops it once replaced.

Each ``_loop_*`` function below is the scalar implementation the package
used before its state loops became numpy arrays, kept as the reference.
The state axis is now tuples of Python floats again, and both sides add
with ``math.fsum``, whose correctly rounded result depends neither on the
order of the terms nor on the Python version, so the references still hold.
``_loop_private`` is the private-play walk that kept one state-length belief
vector per interim event. On seeded instances every reported float must be
the same double, compared through ``repr`` so that -0.0 and 0.0, and the
infinite scores, count as different values.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from robustcoord import (
    Environment,
    InfeasibleDesignError,
    OpCounter,
    PRIVATE_SEQUENTIAL,
    PUBLIC,
    SequentialPolicy,
    WelfareSpec,
    build_scenario,
    check_policy,
    design,
    design_bce_optimistic,
    evaluate_bce_realized,
    evaluate_policy_realized,
    expected_welfare,
    marginal_gain,
    posterior_from_event,
    potential,
    to_sequential_policy,
    welfare_value,
)
from robustcoord.env import gain_column


def bits(x):
    """A float, or each float of an array, as its exact repr."""
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return tuple(repr(float(v)) for v in np.ravel(x))


# ---------------------------------------------------------------- references


def _loop_threshold_scan(prior, gains, scores, counter, n_agents):
    n_states = len(scores)
    order = tuple(sorted(range(n_states), key=lambda s: scores[s]))
    counter.tick(n_states)
    eligible = [s for s in order if scores[s] > -math.inf]
    q = np.zeros(n_states)
    total = math.fsum(prior[s] * gains[s] for s in eligible)
    if total >= 0.0:
        q[eligible] = 1.0
        return order, q, eligible[0], 1.0, True
    cum = 0.0
    t_state, mix = eligible[0], 1.0
    for s in reversed(eligible):
        counter.tick()
        step = prior[s] * gains[s]
        if gains[s] >= 0.0 or cum + step > 0.0:
            q[s] = 1.0
            cum += step
        else:
            t_state = s
            mix = cum / (-step) if step != 0.0 else 1.0
            q[s] = mix
            break

    def invited_row():  # SO_c of the design's policy, as the loops below sum it
        return math.fsum(prior[s] * q[s] * gains[s] / n_agents for s in eligible if q[s] > 0.0)

    # the closing: if rounding left the invited row below 0, correct the
    # weight once by the miss, then lower it an ulp at a time
    if invited_row() < 0.0:
        mix -= invited_row() / (prior[t_state] * gains[t_state] / n_agents)
        q[t_state] = mix
        for _ in range(8):
            if invited_row() >= 0.0:
                break
            mix = q[t_state] = math.nextafter(mix, 0.0)
        assert invited_row() >= 0.0
    return order, q, int(t_state), float(mix), False


def _loop_design(env, welfare):
    counter = OpCounter()
    f_vals = np.empty(env.n_states)
    scores = np.empty(env.n_states)
    for s in range(env.n_states):
        f_vals[s] = potential(env, s, env.n_agents)
        v = welfare_value(welfare, s, welfare.n_agents)
        if v > 0.0:
            scores[s] = f_vals[s] / v
        else:
            scores[s] = math.inf if f_vals[s] > 0.0 else -math.inf
        counter.tick()
    if not np.any(f_vals > 0.0):
        raise InfeasibleDesignError("no state has a positive potential")
    order, q, t_state, mix, degenerate = _loop_threshold_scan(
        env.prior, f_vals, scores, counter, env.n_agents
    )
    terms = []
    for s in order:
        if scores[s] == -math.inf:
            continue
        counter.tick()
        if q[s] > 0.0:
            terms.append(q[s] * env.prior[s] * welfare_value(welfare, s, welfare.n_agents))
    return scores, order, q, t_state, mix, math.fsum(terms), degenerate, counter.ops


def _loop_bce(env, welfare):
    n_states = env.n_states
    g_full = np.array(
        [marginal_gain(env, s, env.n_agents - 1) for s in range(n_states)]
    )
    v_full = np.array(
        [welfare_value(welfare, s, welfare.n_agents) for s in range(n_states)]
    )
    scores = np.where(
        v_full > 0,
        np.divide(g_full, v_full, out=np.zeros_like(g_full), where=v_full > 0),
        np.where(g_full > 0, math.inf, -math.inf),
    )
    if not np.any(g_full > 0.0):
        raise InfeasibleDesignError("no state has a positive full-trust gain")
    order, q, t_state, mix, degenerate = _loop_threshold_scan(
        env.prior, g_full, scores, OpCounter(), env.n_agents
    )
    predicted = math.fsum(env.prior[s] * q[s] * v_full[s] for s in range(n_states))
    first_full = next((s for s in order if q[s] == 1.0), None)
    return q, t_state, mix, first_full, predicted, degenerate


def _loop_expected_gain(env, probs, count):
    return math.fsum(
        probs[s] * marginal_gain(env, s, count) for s in range(env.n_states) if probs[s] > 0.0
    )


def _loop_smallest_count(env, probs, tol):
    n = env.n_agents
    gains = [_loop_expected_gain(env, probs, k) for k in range(n)]
    return next(
        k
        for k in range(n + 1)
        if (k == 0 or gains[k - 1] >= -tol) and (k == n or gains[k] <= tol)
    )


def _loop_event(env, welfare, label, probs, tol):
    belief = posterior_from_event(env, probs)
    count = _loop_smallest_count(env, belief.probs, tol)
    contrib = math.fsum(
        env.prior[s] * probs[s] * welfare_value(welfare, s, count) for s in range(env.n_states)
    )
    return label, count, contrib, tuple(float(p) for p in belief.probs)


def _loop_bce_realized(q, env, welfare, tol=1e-12):
    events = []
    for label, probs in (("recommend-all", q), ("recommend-none", 1.0 - q)):
        if math.fsum(env.prior * probs) <= 0.0:  # every event of positive mass is played
            continue
        events.append(_loop_event(env, welfare, label, probs, tol))
    return math.fsum(e[2] for e in events), events


def _signals(policy, env):
    by_seq = {}
    for (s, seq), p in policy.canonical_items():
        by_seq.setdefault(seq, np.zeros(env.n_states))[s] += p
    signals = []
    for seq in sorted(by_seq, key=lambda q: (len(q), q)):
        label = "invite[" + ",".join(map(str, seq)) + "]" if seq else "invite[-]"
        signals.append((label, by_seq[seq], seq))
    if policy.uniform_full:
        probs = np.zeros(env.n_states)
        for s, p in policy.uniform_full.items():
            probs[s] += p
        signals.append(("invite[all,uniform]", probs, None))
    return signals


def _loop_public(policy, env, welfare, tol=1e-12):
    events = []
    for label, probs, _ in _signals(policy, env):
        if math.fsum(env.prior * probs) <= 0.0:
            continue
        events.append(_loop_event(env, welfare, label, probs, tol))
    return math.fsum(e[2] for e in events), events


def _interim_invited_weights(policy, env):
    w = {}
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


def _uninvited_weights(policy, env):
    w = {i: np.zeros(env.n_states) for i in range(env.n_agents)}
    for (s, seq), p in policy.entries.items():
        for i in range(env.n_agents):
            if i not in seq:
                w[i][s] += env.prior[s] * p
    return w


def _gain_under(env, weights, count):
    total = math.fsum(weights)
    if total <= 0.0:
        return -math.inf  # event never happens; treat as never joining
    return math.fsum(weights * gain_column(env, count)) / total


def _loop_private(policy, env, welfare, tol=1e-12):
    """Private-sequential play with one S-length belief vector per interim
    event. Each event is (label, count, contribution, walk), where walk is
    None for the uniform-full block and otherwise the pair (invitees the
    chain kept before breaking, sequence length)."""
    if check_policy(policy, env).passed:
        return expected_welfare(policy, env, welfare), True, []

    inv_w = _interim_invited_weights(policy, env)
    non_w = _uninvited_weights(policy, env)

    def chain_walk(seq):
        accepted = 0
        for pos, i in enumerate(seq):
            if _gain_under(env, inv_w[(i, pos)], pos) > tol:
                accepted += 1
            else:
                break
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
        return count, (accepted, len(seq))

    def uniform_walk(weights):
        count = 0
        while count < env.n_agents and _gain_under(env, weights, count) > tol:
            count += 1
        return count, None

    events = []
    for label, probs, seq in _signals(policy, env):
        weights = env.prior * probs
        if math.fsum(weights) <= 0.0:
            continue
        count, walk = uniform_walk(weights) if seq is None else chain_walk(seq)
        contrib = math.fsum(
            env.prior[s] * probs[s] * welfare_value(welfare, s, count) for s in range(env.n_states)
        )
        events.append((label, count, contrib, walk))
    return math.fsum(e[2] for e in events), False, events


def _loop_so_c(policy, env, agent):
    terms = []
    for (s, seq), p in policy.entries.items():
        if agent in seq:
            terms.append(env.prior[s] * p * marginal_gain(env, s, seq.index(agent)))
    for s, p in policy.uniform_full.items():
        terms.append(env.prior[s] * p * potential(env, s, env.n_agents) / env.n_agents)
    return math.fsum(terms)


def _loop_so_n(policy, env, agent):
    return math.fsum(
        env.prior[s] * p * marginal_gain(env, s, len(seq))
        for (s, seq), p in policy.entries.items()
        if agent not in seq
    )


def _loop_expected_welfare(policy, env, welfare):
    terms = []
    for (s, seq), p in policy.entries.items():
        terms.append(env.prior[s] * p * welfare_value(welfare, s, len(seq)))
    for s, p in policy.uniform_full.items():
        terms.append(env.prior[s] * p * welfare_value(welfare, s, env.n_agents))
    return math.fsum(terms)


# ----------------------------------------------------------------- instances


def _instance(rng):
    """Parameters drawn from short lists, so states tie exactly; about a
    third of the states carry zero prior, and tabulated welfare zeroes some
    rows, whose scores are then +inf or -inf."""
    n_agents = int(rng.integers(2, 7))
    n_states = int(rng.integers(1, 9))
    prior = rng.choice([0.0, 0.0, 0.1, 0.2, 0.25, 0.4], n_states)
    if prior.sum() == 0.0:
        prior[-1] = 1.0
    prior = prior / prior.sum()
    env = Environment(
        n_agents=n_agents,
        labels=tuple(f"s{k}" for k in range(n_states)),
        prior=prior,
        benefit=rng.choice([0.5, 1.0, 1.5, 2.0, 2.5, 3.0], n_states),
        complementarity=rng.choice([0.0, 0.1, 0.35, 0.5, 0.7, 1.5], n_states),
        cost=float(rng.choice([0.25, 1.0, 1.5, 2.0, 2.5])),
    )
    alpha = rng.choice([3.0, 6.0, 7.5, 12.0], n_states)
    beta = float(rng.choice([1.0, 1.5, 2.0]))
    if rng.random() < 0.5:
        return env, WelfareSpec.power(n_agents, alpha, beta)
    frac = (np.arange(n_agents + 1) / n_agents) ** beta
    table = np.outer(alpha * (rng.random(n_states) < 0.7), frac)
    return env, WelfareSpec.tabulated(table)


def _mixed_policy(env, rng):
    """Explicit sequences of every length beside uniform-full mass."""
    entries = {}
    uniform = {}
    for s in range(env.n_states):
        budget = 1.0
        for _ in range(int(rng.integers(0, 4))):
            length = int(rng.integers(0, env.n_agents + 1))
            seq = tuple(rng.permutation(env.n_agents)[:length].tolist())
            p = float(rng.choice([0.1, 0.15, 0.2, 0.3]))
            entries[(s, seq)] = entries.get((s, seq), 0.0) + p
            budget -= p
        if rng.random() < 0.6:
            uniform[s] = budget * float(rng.choice([0.5, 1.0]))
    return SequentialPolicy(env.n_agents, env.n_states, entries, uniform)


def _cases(seed=2027, count=300):
    rng = np.random.default_rng(seed)
    return [(*_instance(rng), rng) for _ in range(count)]


# --------------------------------------------------------------------- tests


def test_design_matches_loops():
    seen = set()
    for env, wf, _ in _cases():
        try:
            want = _loop_design(env, wf)
        except InfeasibleDesignError:
            with pytest.raises(InfeasibleDesignError):
                design(env, wf)
            seen.add("infeasible")
            continue
        counter = OpCounter()
        tp = design(env, wf, counter=counter)
        scores, order, q, t_state, mix, wel, degenerate, ops = want
        assert bits(tp.scores) == bits(scores)
        assert tp.order == order
        assert bits(tp.invite_probs) == bits(q)
        assert tp.threshold_state == t_state
        assert bits(tp.mixing_weight) == bits(mix)
        assert bits(tp.expected_welfare) == bits(wel)
        assert tp.degenerate == degenerate
        assert counter.ops == ops
        seen.add("degenerate" if degenerate else "mixing")
        if np.isinf(scores).any():
            seen.add("+inf" if (scores == math.inf).any() else "-inf")
        if len(set(scores.tolist())) < len(scores):
            seen.add("tie")
    assert seen >= {"infeasible", "degenerate", "mixing", "+inf", "-inf", "tie"}


def test_optimistic_baseline_matches_loops(case1):
    # case1 first: its recommend-none event has mass 2^-54 (L is recommended
    # with probability 1 - 2^-53), an event of dust mass that is played
    seen = set()
    for env, wf in [case1, *((env, wf) for env, wf, _ in _cases())]:
        try:
            want = _loop_bce(env, wf)
        except InfeasibleDesignError:
            with pytest.raises(InfeasibleDesignError):
                design_bce_optimistic(env, wf)
            seen.add("hopeless")
            continue
        bce = design_bce_optimistic(env, wf)
        q, t_state, mix, first_full, predicted, degenerate = want
        assert bits(bce.invite_probs) == bits(q)
        assert bce.threshold_state == t_state
        assert bits(bce.mixing_weight) == bits(mix)
        assert next((s for s in bce.order if bce.invite_probs[s] == 1.0), None) == first_full
        assert bits(bce.expected_welfare) == bits(predicted)
        assert bce.degenerate == degenerate
        seen.add("degenerate" if degenerate else "mixing")

        realized = evaluate_bce_realized(bce, env, wf)
        total, events = _loop_bce_realized(q, env, wf)
        assert bits(realized.welfare) == bits(total)
        assert [
            (e.label, e.coop_count, bits(e.welfare_contribution), bits(e.posterior))
            for e in realized.events
        ] == [(lab, n, bits(c), bits(post)) for lab, n, c, post in events]
        assert {e.coop_count for e in realized.events} <= {0, env.n_agents}
        if any(0.0 < math.fsum(env.prior * probs) <= 1e-12 for probs in (q, 1.0 - q)):
            seen.add("dust")
    assert seen == {"hopeless", "degenerate", "mixing", "dust"}


def test_obedience_values_and_welfare_match_loops():
    seen = set()
    for env, wf, rng in _cases():
        policies = [_mixed_policy(env, rng)]
        try:
            policies.append(to_sequential_policy(design(env, wf), env))
        except InfeasibleDesignError:
            pass
        for pol in policies:
            report = check_policy(pol, env)
            n = env.n_agents
            assert bits(report.so_c) == bits([_loop_so_c(pol, env, i) for i in range(n)])
            assert bits(report.so_n) == bits([_loop_so_n(pol, env, i) for i in range(n)])
            assert bits(expected_welfare(pol, env, wf)) == bits(
                _loop_expected_welfare(pol, env, wf)
            )

            public = evaluate_policy_realized(pol, env, wf, mode=PUBLIC)
            total, events = _loop_public(pol, env, wf)
            assert bits(public.welfare) == bits(total)
            assert [
                (e.label, e.coop_count, bits(e.welfare_contribution))
                for e in public.events
            ] == [(lab, n_coop, bits(c)) for lab, n_coop, c, _ in events]

            private = evaluate_policy_realized(pol, env, wf, mode=PRIVATE_SEQUENTIAL)
            total, obedient, events = _loop_private(pol, env, wf)
            assert bits(private.welfare) == bits(total)
            assert private.obedient == obedient
            assert [
                (e.label, e.coop_count, bits(e.welfare_contribution))
                for e in private.events
            ] == [(lab, n_coop, bits(c)) for lab, n_coop, c, _ in events]
            if not obedient:
                seen.add("non-obedient")
            for _, n_coop, _, walk in events:
                if walk is None:
                    seen.add("uniform block")
                elif walk[0] < walk[1] and walk[0] < n_coop < n:
                    seen.add("broken chain recovers to an interior count")
    assert seen == {
        "non-obedient",
        "uniform block",
        "broken chain recovers to an interior count",
    }


def test_zero_prior_negative_gain_sums_to_positive_zero():
    # every SO_c term is prior 0 times a negative gain, i.e. -0.0; math.fsum,
    # which the loops call too, gives 0.0, where a running sum started from
    # the first term would report -0.0
    env = Environment(
        n_agents=3,
        labels=("live", "dead"),
        prior=np.array([1.0, 0.0]),
        benefit=np.array([2.0, 0.5]),
        complementarity=np.array([0.5, 0.5]),
        cost=1.0,
    )
    pol = SequentialPolicy(3, 2, {(1, (0,)): 0.5, (0, ()): 1.0}, {1: 0.5})
    assert repr(float(np.cumsum([-0.0, -0.0])[-1])) == "-0.0"
    want = [_loop_so_c(pol, env, i) for i in range(3)]
    assert [repr(v) for v in want] == ["0.0", "0.0", "0.0"]
    assert bits(check_policy(pol, env).so_c) == bits(want)


def _listed(env, welfare, order):
    """A power-welfare scenario's states as an explicit list, in ``order``."""
    states = [
        {
            "label": env.labels[s],
            "prob": env.prior[s],
            "b": env.benefit[s],
            "lambda": env.complementarity[s],
            "alpha": welfare.alpha[s],
        }
        for s in order
    ]
    config = {"schema": 1, "name": "listed", "n_agents": env.n_agents, "states": states}
    scn = build_scenario({**config, "cost": env.cost, "beta": welfare.beta, "modes": ["design"]})
    return scn.env, scn.welfare


def _reported(env, welfare):
    counter = OpCounter()
    tp = design(env, welfare, counter=counter)
    policy = to_sequential_policy(tp, env)
    bce = design_bce_optimistic(env, welfare)
    realized = evaluate_bce_realized(bce, env, welfare)
    public = evaluate_policy_realized(policy, env, welfare, mode=PUBLIC)
    return tp, counter.ops, check_policy(policy, env), bce, realized, public


def test_the_order_of_the_states_does_not_matter(case2):
    # every sum is correctly rounded, so listing the states in reverse moves
    # no reported bit: the threshold scan's running budget follows the score
    # order, which case2's distinct scores fix whatever the listing
    env, wf = case2
    order = range(env.n_states - 1, -1, -1)
    tp, ops, report, bce, realized, public = _reported(env, wf)
    r_tp, r_ops, r_report, r_bce, r_realized, r_public = _reported(*_listed(env, wf, order))
    assert bits(r_tp.expected_welfare) == bits(tp.expected_welfare)
    assert bits(r_tp.mixing_weight) == bits(tp.mixing_weight)
    assert r_tp.threshold_label == tp.threshold_label and r_ops == ops
    assert bits(r_tp.invite_probs) == bits([tp.invite_probs[s] for s in order])
    assert bits(r_report.so_c) == bits(report.so_c)
    assert bits(r_report.so_n) == bits(report.so_n)
    assert bits(r_bce.expected_welfare) == bits(bce.expected_welfare)
    assert bits(r_realized.welfare) == bits(realized.welfare)
    assert bits(r_public.welfare) == bits(public.welfare)
    events = realized.events + public.events
    r_events = r_realized.events + r_public.events
    assert len(r_events) == len(events) == 4
    for got, want in zip(r_events, events):
        assert (got.label, got.coop_count) == (want.label, want.coop_count)
        assert bits(got.welfare_contribution) == bits(want.welfare_contribution)
        assert bits(got.posterior) == bits([want.posterior[s] for s in order])


def _exact(terms):
    """The float nearest the exact sum of ``terms``."""
    return float(sum(map(Fraction, terms)))


def test_case2_sums_are_correctly_rounded(case2):
    # each expected value is the exact sum of the float terms, rounded once
    env, wf = case2
    n, prior, states = env.n_agents, env.prior, range(env.n_states)
    v_full = [welfare_value(wf, s, n) for s in states]
    tp = design(env, wf)
    q = tp.invite_probs
    assert bits(tp.expected_welfare) == bits(_exact([prior[s] * q[s] * v_full[s] for s in states]))
    bce = design_bce_optimistic(env, wf)
    q = bce.invite_probs
    assert bits(bce.expected_welfare) == bits(_exact([prior[s] * q[s] * v_full[s] for s in states]))

    policy = to_sequential_policy(tp, env)
    report = check_policy(policy, env)
    so_c = [prior[s] * p * potential(env, s, n) / n for s, p in policy.uniform_full.items()]
    so_n = [
        prior[s] * p * marginal_gain(env, s, len(seq))
        for (s, seq), p in policy.entries.items()
        if 0 not in seq
    ]
    assert bits(report.so_c[0]) == bits(_exact(so_c))
    assert bits(report.so_n[0]) == bits(_exact(so_n))

    public = evaluate_policy_realized(policy, env, wf, mode=PUBLIC)
    events = public.events + evaluate_bce_realized(bce, env, wf).events
    assert len(events) == 4
    for event in events:
        # the posterior divides each weight by the event's prior mass
        weights = [w * p for w, p in zip(prior, event.probs)]
        mass = _exact(weights)
        assert bits(event.posterior) == bits([w / mass for w in weights]), event.label
