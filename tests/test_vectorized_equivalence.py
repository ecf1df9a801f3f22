"""The state axis against the per-state loops it once replaced.

Each ``_loop_*`` function below is the scalar implementation the package
used before its state loops became numpy arrays, kept as the reference.
The state axis is now tuples of Python floats again, but computed the way
the arrays were (whole-column passes, fixed summation orders), so the same
references still hold. ``_loop_private`` is the private-play walk that kept
one state-length belief vector per interim event. On seeded instances every
reported float must be the same double, compared through ``repr`` so that
-0.0 and 0.0, and the infinite scores, count as different values. The
references add in a fixed order too: Python's ``sum`` compensates rounding
on Python floats from Python 3.12 on, so they never call it on them.
"""

import math

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
from robustcoord.env import gain_column, ordered_sum


def bits(x):
    """A float, or each float of an array, as its exact repr."""
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return tuple(repr(float(v)) for v in np.ravel(x))


# ---------------------------------------------------------------- references


def _loop_threshold_scan(prior, gains, scores, counter):
    n_states = len(scores)
    order = tuple(sorted(range(n_states), key=lambda s: scores[s]))
    counter.tick(n_states)
    eligible = [s for s in order if scores[s] > -math.inf]
    q = np.zeros(n_states)
    total = sum(prior[s] * gains[s] for s in eligible)
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
        env.prior, f_vals, scores, counter
    )
    wel = 0.0
    for s in order:
        if scores[s] == -math.inf:
            continue
        counter.tick()
        if q[s] > 0.0:
            wel += q[s] * env.prior[s] * welfare_value(welfare, s, welfare.n_agents)
    return scores, order, q, t_state, mix, float(wel), degenerate, counter.ops


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
        return None
    order, q, t_state, mix, degenerate = _loop_threshold_scan(
        env.prior, g_full, scores, OpCounter()
    )
    predicted = float(sum(env.prior[s] * q[s] * v_full[s] for s in range(n_states)))
    first_full = next((s for s in order if q[s] == 1.0), None)
    return q, t_state, mix, first_full, predicted, degenerate


def _loop_expected_gain(env, probs, count):
    total = 0.0
    for s in range(env.n_states):
        if probs[s] > 0.0:
            total += probs[s] * marginal_gain(env, s, count)
    return total


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
    contrib = float(
        sum(
            env.prior[s] * probs[s] * welfare_value(welfare, s, count)
            for s in range(env.n_states)
        )
    )
    return label, count, contrib, tuple(float(p) for p in belief.probs)


def _loop_bce_realized(q, env, welfare, tol=1e-12):
    total, events = 0.0, []
    for label, probs in (("recommend-all", q), ("recommend-none", 1.0 - q)):
        if float((env.prior * probs).sum()) <= tol:
            continue
        events.append(_loop_event(env, welfare, label, probs, tol))
        total += events[-1][2]
    return total, events


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
    total, events = 0.0, []
    for label, probs, _ in _signals(policy, env):
        if float((env.prior * probs).sum()) <= 0.0:
            continue
        events.append(_loop_event(env, welfare, label, probs, tol))
        total += events[-1][2]
    return total, events


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
    total = float(weights.sum())
    if total <= 0.0:
        return -math.inf  # event never happens; treat as never joining
    return float(ordered_sum(weights * gain_column(env, count)) / total)


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

    total, events = 0.0, []
    for label, probs, seq in _signals(policy, env):
        weights = env.prior * probs
        if float(weights.sum()) <= 0.0:
            continue
        count, walk = uniform_walk(weights) if seq is None else chain_walk(seq)
        contrib = float(
            sum(
                env.prior[s] * probs[s] * welfare_value(welfare, s, count)
                for s in range(env.n_states)
            )
        )
        events.append((label, count, contrib, walk))
        total += contrib
    return total, False, events


def _loop_so_c(policy, env, agent):
    total = 0.0
    for (s, seq), p in policy.entries.items():
        if agent in seq:
            total += env.prior[s] * p * marginal_gain(env, s, seq.index(agent))
    for s, p in policy.uniform_full.items():
        total += env.prior[s] * p * potential(env, s, env.n_agents) / env.n_agents
    return float(total)


def _loop_so_n(policy, env, agent):
    total = 0.0
    for (s, seq), p in policy.entries.items():
        if agent not in seq:
            total += env.prior[s] * p * marginal_gain(env, s, len(seq))
    return float(total)


def _loop_expected_welfare(policy, env, welfare):
    total = 0.0
    for (s, seq), p in policy.entries.items():
        total += env.prior[s] * p * welfare_value(welfare, s, len(seq))
    for s, p in policy.uniform_full.items():
        total += env.prior[s] * p * welfare_value(welfare, s, env.n_agents)
    return float(total)


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


def test_optimistic_baseline_matches_loops():
    seen = set()
    for env, wf, _ in _cases():
        bce = design_bce_optimistic(env, wf)
        want = _loop_bce(env, wf)
        if want is None:
            assert bce.mixing_state is None and bce.predicted_welfare == 0.0
            seen.add("hopeless")
            continue
        q, t_state, mix, first_full, predicted, degenerate = want
        assert bits(bce.invite_probs) == bits(q)
        assert bce.mixing_state == t_state
        assert bits(bce.mixing_weight) == bits(mix)
        assert bce.first_full_state == first_full
        assert bits(bce.predicted_welfare) == bits(predicted)
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
    assert seen == {"hopeless", "degenerate", "mixing"}


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
    # every SO_c term is prior 0 times a negative gain, i.e. -0.0; summed
    # from +0.0 as the loops do the value is 0.0, where a running sum started
    # from the first term would report -0.0
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
