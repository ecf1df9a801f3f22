"""Smallest-equilibrium selection and realized-welfare evaluation."""

import itertools
import json
import math

import numpy as np
import pytest

from robustcoord import (
    Belief,
    Environment,
    PRIVATE_SEQUENTIAL,
    PUBLIC,
    SequentialPolicy,
    WelfareSpec,
    check_policy,
    design,
    evaluate_policy_realized,
    expected_gain,
    posterior_from_event,
    smallest_equilibrium,
    to_sequential_policy,
)
from robustcoord import cli
from robustcoord.env import welfare_column
from robustcoord.equilibrium import _bayes, _interim_sums, play_events
from conftest import random_convex_instance


def test_belief_validation():
    with pytest.raises(ValueError, match=r"^belief must sum to 1, got 0\.9$"):
        Belief((0.5, 0.4))
    with pytest.raises(ValueError, match="negative"):
        Belief((1.5, -0.5))


def test_prior_gains(case1):
    env, _ = case1
    bel = Belief(env.prior)
    assert expected_gain(env, bel, 0) == pytest.approx(-0.3, abs=1e-12)
    assert expected_gain(env, bel, 1) == pytest.approx(-0.15, abs=1e-12)
    assert expected_gain(env, bel, 2) == pytest.approx(0.0, abs=1e-12)


def test_smallest_equilibrium_checks_the_welfare_dimensions(case1):
    env, wf = case1
    belief = Belief(env.prior)
    assert smallest_equilibrium(env, belief).expected_welfare is None
    # a spec for 4 agents, and one for 3 states, on case1's 3 agents and 2 states
    others = (WelfareSpec.power(4, wf.alpha, 1.5), WelfareSpec.power(3, (6.0, 9.0, 12.0), 1.5))
    for other in others:
        with pytest.raises(ValueError, match="welfare spec does not match"):
            smallest_equilibrium(env, belief, welfare=other)


def test_prior_equilibria(case1):
    env, wf = case1
    out = smallest_equilibrium(env, Belief(env.prior), welfare=wf)
    assert out.coop_count == 0
    assert out.all_equilibria == (0, 3)
    assert out.expected_welfare == 0.0
    assert out.rounds[0] == 0  # starts from universal inaction


def test_point_belief_on_dominant_state(case1):
    env, _ = case1
    out = smallest_equilibrium(env, Belief((0.0, 1.0)))
    assert out.coop_count == 3
    assert out.all_equilibria == (3,)


def test_posterior_from_event(case1):
    env, _ = case1
    p_star = 1.95 / 2.85
    bel = posterior_from_event(env, (p_star, 1.0))
    assert bel.probs[1] == pytest.approx(19 / 32, abs=1e-12)
    assert bel.probs[1] == 0.59375
    with pytest.raises(ValueError, match="zero prior"):
        posterior_from_event(env, (0.0, 0.0))
    with pytest.raises(ValueError, match="lie in"):
        posterior_from_event(env, (1.2, 0.5))


def test_posterior_rejects_a_nan_event_probability(case1):
    # NaN fails both bounds of the range check, so it is named there and not
    # later by Belief as a belief that is not finite
    env, _ = case1
    for probs in ((math.nan, 0.5), (0.5, math.nan)):
        with pytest.raises(ValueError, match=r"event probabilities must lie in \[0, 1\]"):
            posterior_from_event(env, probs)
    # the event loop trusts its events, so their sources reject it: a
    # policy's mass here, the optimistic design's q in test_baselines
    with pytest.raises(ValueError, match="is invalid"):
        SequentialPolicy(3, 2, {(0, ()): math.nan, (1, ()): 1.0}, {})
    with pytest.raises(ValueError, match="is invalid"):
        SequentialPolicy(3, 2, {(1, ()): 1.0}, {0: math.nan})


def _played_posterior(env, wf, probs):
    """The posterior the event loop gives one public event, or None when it
    does not play it."""
    events = play_events(env, wf, [("e", probs, None)]).events
    return events[0].posterior if events else None


def test_posterior_from_event_is_bayes_on_the_clipped_event(case1):
    # one Bayes rule: posterior_from_event checks and clips, then applies
    # _bayes, which the event loop applies to the events it trusts; on an
    # event in [0, 1] both give the bits of Bayes' rule written out here
    env, wf = case1
    rng = np.random.default_rng(3)
    events = [tuple(rng.uniform(0.0, 1.0, 2).tolist()) for _ in range(200)]
    events += [(0.0, 1.0), (1.0, 1.0), (1.95 / 2.85, 1.0), (-0.0, 0.3), (1e-300, 0.0)]
    clipped = [(1.0 + 1e-13, 0.5), (1 + 5e-10, 0.0), (1 + 5e-10, 0.25)]
    for probs in events + clipped:
        weighted = [w * min(max(p, 0.0), 1.0) for w, p in zip(env.prior, probs)]
        want = [x.hex() for x in (w / math.fsum(weighted) for w in weighted)]
        bel = posterior_from_event(env, probs)
        assert [x.hex() for x in bel.probs] == want, probs
        if probs in events:
            played = _played_posterior(env, wf, probs)
            assert [x.hex() for x in played] == want, probs
            # the trusted path skips Belief's checks; they pass on what it returns
            assert Belief(played).probs == played
    # the clipped path: a mass past 1 reads as 1, bit for bit
    assert [x.hex() for x in posterior_from_event(env, (1 + 5e-10, 0.25)).probs] == [
        x.hex() for x in posterior_from_event(env, (1.0, 0.25)).probs
    ]
    # an event of zero prior mass is not played, and has no posterior; the
    # smallest subnormal times the prior 0.5 rounds to a mass of 0 too
    for probs in ((0.0, 0.0), (-0.0, 0.0), (5e-324, 0.0)):
        assert _bayes([w * p for w, p in zip(env.prior, probs)]) is None
        assert _played_posterior(env, wf, probs) is None
        with pytest.raises(ValueError, match="zero prior probability"):
            posterior_from_event(env, probs)
    # any positive mass is played, however small
    assert _played_posterior(env, wf, (1e-310, 0.0)) == (1.0, 0.0)
    assert posterior_from_event(env, (1e-310, 0.0)).probs == (1.0, 0.0)
    with pytest.raises(ValueError, match="lie in"):
        posterior_from_event(env, (1.2, 0.5))


def test_an_event_past_mass_one_is_played_on_its_own_weights(case1):
    # a policy may give a state mass up to 1 + MASS_SUM_TOL; the event loop
    # trusts it and takes the posterior, the mass and the contribution from
    # the same weights, prior * probs, without clipping
    env, wf = case1
    seq = (0, 1, 2)
    policy = SequentialPolicy(3, 2, {(0, seq): 1 + 5e-10, (1, seq): 0.25, (1, ()): 0.75}, {})
    assert check_policy(policy, env).feasible
    got = evaluate_policy_realized(policy, env, wf, mode=PUBLIC)
    (event,) = [e for e in got.events if e.label == "invite[0,1,2]"]
    assert event.probs == (1 + 5e-10, 0.25)
    weights = [w * p for w, p in zip(env.prior, event.probs)]
    want = [w / math.fsum(weights) for w in weights]
    assert [x.hex() for x in event.posterior] == [x.hex() for x in want]
    assert Belief(event.posterior).probs == event.posterior
    assert event.posterior != posterior_from_event(env, event.probs).probs
    contrib = math.fsum(w * v for w, v in zip(weights, welfare_column(wf, event.coop_count)))
    assert event.welfare_contribution == contrib
    assert got.welfare == math.fsum(e.welfare_contribution for e in got.events)


@pytest.mark.parametrize("mode", [PUBLIC, PRIVATE_SEQUENTIAL])
def test_state_mass_within_mass_sum_tol_evaluates_as_mass_one(case1, mode):
    # SequentialPolicy lets a state's mass exceed 1 by MASS_SUM_TOL, so an
    # event probability may too; alone in its event, its posterior is (1, 0)
    # clipped or not
    env, wf = case1
    over = SequentialPolicy(3, 2, {(0, (0, 1, 2)): 1 + 5e-10, (1, ()): 1.0}, {})
    exact = SequentialPolicy(3, 2, {(0, (0, 1, 2)): 1.0, (1, ()): 1.0}, {})
    assert check_policy(over, env).feasible
    got = evaluate_policy_realized(over, env, wf, mode=mode)
    want = evaluate_policy_realized(exact, env, wf, mode=mode)
    assert got.welfare == want.welfare
    assert [(e.label, e.posterior, e.coop_count) for e in got.events] == [
        (e.label, e.posterior, e.coop_count) for e in want.events
    ]
    assert posterior_from_event(env, (1 + 5e-10, 0.0)).probs == (1.0, 0.0)
    with pytest.raises(ValueError, match="lie in"):
        posterior_from_event(env, (1 + 2e-9, 0.0))


def test_posterior_rejects_state_count_mismatch(case1):
    # one probability per state, no more and no fewer
    env, _ = case1
    for probs in ((1.0,), (1.0, 1.0, 1.0)):
        with pytest.raises(ValueError, match="do not match the state count"):
            posterior_from_event(env, probs)


def test_posterior_zero_coop_gain(case1):
    env, _ = case1
    bel = posterior_from_event(env, (1.95 / 2.85, 1.0))
    assert expected_gain(env, bel, 0) == pytest.approx(-0.16875, abs=1e-9)
    assert smallest_equilibrium(env, bel).all_equilibria == (0, 3)
    # the quoted -0.167 is the gain at posterior 0.595, not at 19/32
    coarse = Belief((0.405, 0.595))
    assert expected_gain(env, coarse, 0) == pytest.approx(-0.167, abs=1e-12)


def test_scan_matches_brute_force_small_games():
    rng = np.random.default_rng(17)
    tol = 1e-12
    for _ in range(40):
        env, _ = random_convex_instance(rng)
        if env.n_agents > 4:
            continue
        weights = rng.uniform(0.0, 1.0, env.n_states)
        if weights.sum() <= 0:
            continue
        bel = Belief(tuple(weights / weights.sum()))
        scan = smallest_equilibrium(env, bel)

        nash_counts = set()
        for profile in itertools.product((0, 1), repeat=env.n_agents):
            stable = True
            for i, a in enumerate(profile):
                others = sum(profile) - a
                g = expected_gain(env, bel, others)
                if a == 1 and g < -tol:
                    stable = False
                elif a == 0 and g > tol:
                    stable = False
            if stable:
                nash_counts.add(sum(profile))
        assert set(scan.all_equilibria) == nash_counts
        assert scan.coop_count == min(nash_counts)


def _climb_then_scan(env, belief, tol=1e-12):
    """Reference: best response climbs from zero in one loop, then a second
    loop lists every equilibrium count."""
    n = env.n_agents
    count, rounds = 0, [0]
    while count < n and expected_gain(env, belief, count) > tol:
        count += 1
        rounds.append(count)
    equilibria = []
    for k in range(n + 1):
        hold = k == 0 or expected_gain(env, belief, k - 1) >= -tol
        stay_out = k == n or expected_gain(env, belief, k) <= tol
        if hold and stay_out:
            equilibria.append(k)
    return count, tuple(rounds), tuple(equilibria)


def _knife_edge_games():
    """Point beliefs on one state whose gain is exactly 0 at k0 others:
    b - c = -k0 / 8 and lambda / (N - 1) = 1 / 8, both exact in binary."""
    for n_agents in range(2, 13):
        for k0 in range(n_agents):
            env = Environment(
                n_agents=n_agents,
                labels=("z", "pad"),
                prior=np.array([0.5, 0.5]),
                benefit=np.array([2.0 - 0.125 * k0, 1.0]),
                complementarity=np.array([0.125 * (n_agents - 1), 0.0]),
                cost=2.0,
            )
            yield env, Belief((1.0, 0.0))
        # lambda = 0 and b = c: every gain is exactly 0, every count an equilibrium
        env = Environment(
            n_agents=n_agents,
            labels=("z",),
            prior=np.array([1.0]),
            benefit=np.array([2.0]),
            complementarity=np.array([0.0]),
            cost=2.0,
        )
        yield env, Belief((1.0,))


def test_one_pass_matches_climb_then_scan(case1):
    env1, _ = case1
    games = [(env1, Belief(env1.prior))]  # g(2) = 0 exactly at case1's prior
    games.extend(_knife_edge_games())
    rng = np.random.default_rng(31)
    for n_agents in range(2, 13):
        for _ in range(15):
            n_states = int(rng.integers(1, 5))
            env = Environment(
                n_agents=n_agents,
                labels=tuple(f"s{k}" for k in range(n_states)),
                prior=np.full(n_states, 1.0 / n_states),
                benefit=rng.uniform(0.0, 3.0, n_states),
                complementarity=rng.uniform(0.0, 3.0, n_states),
                cost=float(rng.uniform(0.5, 2.5)),
            )
            weights = rng.uniform(0.0, 1.0, n_states) * (rng.random(n_states) < 0.8)
            if weights.sum() <= 0.0:
                weights[0] = 1.0
            games.append((env, Belief(weights / weights.sum())))

    shapes = set()
    for env, bel in games:
        out = smallest_equilibrium(env, bel)
        count, rounds, equilibria = _climb_then_scan(env, bel)
        assert out.coop_count == count
        assert out.rounds == rounds
        assert out.all_equilibria == equilibria
        stop = {0: "none", env.n_agents: "all"}.get(count, "interior")
        shapes.add((stop, len(equilibria) > 1))
    # gains never fall in the count, so best response stops at 0 or N; the
    # draws reach both, and 0 both alone and beside other equilibria
    assert shapes == {("none", False), ("none", True), ("all", False)}


def test_negative_tolerance_rejected(case1):
    env, wf = case1
    pol = to_sequential_policy(design(env, wf), env)
    with pytest.raises(ValueError, match="nonnegative"):
        evaluate_policy_realized(pol, env, wf, obedience_tol=-1e-12)
    for tol in (0.0, 1e-18):
        ev = evaluate_policy_realized(pol, env, wf, obedience_tol=tol)
        assert ev.obedient is True


@pytest.mark.parametrize("tol", [float("nan"), -1.0, float("inf")])
def test_bad_tolerance_rejected(case1, tol):
    env, wf = case1
    pol = to_sequential_policy(design(env, wf), env)
    with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
        evaluate_policy_realized(pol, env, wf, obedience_tol=tol)


def test_private_evaluation_of_optimal_policy(case1):
    env, wf = case1
    pol = to_sequential_policy(design(env, wf), env)
    ev = evaluate_policy_realized(pol, env, wf, mode=PRIVATE_SEQUENTIAL)
    assert ev.obedient is True
    assert ev.welfare == pytest.approx(8.052631578947368, abs=1e-12)


def test_public_evaluation_of_optimal_policy(case1):
    # pooled into one public invite event, the posterior cannot start the chain
    env, wf = case1
    pol = to_sequential_policy(design(env, wf), env)
    ev = evaluate_policy_realized(pol, env, wf, mode=PUBLIC)
    assert ev.welfare == 0.0
    assert ev.obedient is None
    labels = {e.label: e for e in ev.events}
    pooled = labels["invite[all,uniform]"]
    assert pooled.posterior[1] == pytest.approx(0.59375, abs=1e-12)
    assert pooled.coop_count == 0


def test_uninformative_policy_realizes_nothing(case1):
    env, wf = case1
    silent = SequentialPolicy(3, 2, {(0, ()): 1.0, (1, ()): 1.0}, {})
    assert evaluate_policy_realized(silent, env, wf).welfare == 0.0
    assert evaluate_policy_realized(silent, env, wf, mode=PUBLIC).welfare == 0.0


def test_fixed_order_chain_breaks_immediately(example3):
    env, wf = example3
    pol = SequentialPolicy(3, 1, {(0, (0, 1, 2)): 1.0}, {})
    ev = evaluate_policy_realized(pol, env, wf)
    assert ev.obedient is False
    assert ev.welfare == 0.0


def test_chain_break_partial_recovery(case1):
    # the worked example: the weak-state chains die, the strong-state one runs
    env, wf = case1
    pol = SequentialPolicy(
        3, 2, {(0, (0, 2)): 0.6, (0, (1, 2)): 0.4, (1, (2, 0, 1)): 1.0}, {}
    )
    ev = evaluate_policy_realized(pol, env, wf)
    assert ev.obedient is False
    assert ev.welfare == pytest.approx(6.0, abs=1e-12)
    # one event per distinct sequence, in (length, sequence) order
    assert [(e.label, e.coop_count) for e in ev.events] == [
        ("invite[0,2]", 0),
        ("invite[1,2]", 0),
        ("invite[2,0,1]", 3),
    ]
    assert [e.welfare_contribution for e in ev.events] == [0.0, 0.0, 6.0]
    assert ev.events[2].posterior == (0.0, 1.0)
    pub = evaluate_policy_realized(pol, env, wf, mode=PUBLIC)
    assert pub.welfare == pytest.approx(6.0, abs=1e-12)


def test_private_events_include_uniform_block(case1):
    # uniform orderings in the weak state cannot start (gain -1 at every
    # rank); silence happens only in the strong state, where b > c makes
    # cooperation dominant for every uninvited agent
    env, wf = case1
    pol = SequentialPolicy(3, 2, {(1, ()): 1.0}, {0: 1.0})
    ev = evaluate_policy_realized(pol, env, wf)
    assert ev.obedient is False
    assert [(e.label, e.coop_count) for e in ev.events] == [
        ("invite[-]", 3),
        ("invite[all,uniform]", 0),
    ]
    assert [e.welfare_contribution for e in ev.events] == [6.0, 0.0]
    assert ev.welfare == 6.0


def test_private_play_does_not_depend_on_entry_order():
    # each interim cell is one fsum of its terms; added in turn, the three
    # states' terms of invitation (0,) at 0.1, 0.3 and 0.7 gave a mass and a
    # sum of w * lambda that differ in the last bit from the reverse order
    env = Environment(
        n_agents=3,
        labels=("a", "b", "c"),
        prior=(3 / 7, 1 / 7, 3 / 7),
        benefit=(0.3, 3.3, 0.1),
        complementarity=(0.1, 0.2, 0.3),
        cost=2.0,
    )
    wf = WelfareSpec.power(3, np.array([1.0, 2.0, 3.0]), 1.5)
    cases = [SequentialPolicy(3, 3, {(0, (0,)): 0.1, (1, (0,)): 0.3, (2, (0,)): 0.7})]
    rng = np.random.default_rng(32)
    sequences = [(), (0,), (1,), (2,), (0, 1), (1, 0), (2, 0, 1), (1, 2, 0)]
    for _ in range(200):  # each state's mass 0.9: infeasible, so play walks the chains
        entries, uniform = {}, {}
        for s in range(3):
            picked = rng.choice(len(sequences), size=3, replace=False)
            *shares, uniform[s] = (0.9 * rng.dirichlet(np.ones(4))).tolist()
            entries.update({(s, sequences[k]): p for k, p in zip(picked, shares)})
        cases.append(SequentialPolicy(3, 3, entries, uniform))
    for policy in cases:
        # the same entries and uniform masses, inserted in reverse order
        twin = SequentialPolicy(
            3,
            3,
            dict(reversed(policy.entries.items())),
            dict(reversed(policy.uniform_full.items())),
        )
        assert _interim_sums(twin, env) == _interim_sums(policy, env)
        played = evaluate_policy_realized(policy, env, wf, mode=PRIVATE_SEQUENTIAL)
        assert played.obedient is False
        assert evaluate_policy_realized(twin, env, wf, mode=PRIVATE_SEQUENTIAL) == played


def test_unknown_mode_rejected(case1):
    env, wf = case1
    pol = SequentialPolicy(3, 2, {(0, ()): 1.0, (1, ()): 1.0}, {})
    with pytest.raises(ValueError, match="mode"):
        evaluate_policy_realized(pol, env, wf, mode="simultaneous")


@pytest.mark.parametrize("mode", [PUBLIC, PRIVATE_SEQUENTIAL])
def test_policy_with_more_agents_rejected(case1, mode):
    env, wf = case1
    pol = SequentialPolicy(5, 2, {(1, (0, 1, 2, 3, 4)): 1.0}, {})
    with pytest.raises(ValueError, match="policy does not match the environment"):
        evaluate_policy_realized(pol, env, wf, mode=mode)


@pytest.mark.parametrize("mode", [PUBLIC, PRIVATE_SEQUENTIAL])
def test_policy_with_more_states_rejected(case1, mode):
    env, wf = case1
    pol = SequentialPolicy(3, 3, {(2, (0,)): 1.0}, {})
    with pytest.raises(ValueError, match="policy does not match the environment"):
        evaluate_policy_realized(pol, env, wf, mode=mode)
    three = Environment(
        n_agents=3,
        labels=("a", "b", "c"),
        prior=np.full(3, 1 / 3),
        benefit=np.array([1.0, 2.4, 3.0]),
        complementarity=np.array([0.1, 0.5, 0.5]),
        cost=2.0,
    )
    # a design is played only once it is a policy, and to_sequential_policy
    # checks its size (tests/test_designer.py)
    tp = design(three, WelfareSpec.power(3, [6.0, 12.0, 12.0], 1.5))
    with pytest.raises(TypeError, match=r"to_sequential_policy\(tp, env\)"):
        evaluate_policy_realized(tp, env, wf, mode=mode)


@pytest.mark.parametrize("mode", [PUBLIC, PRIVATE_SEQUENTIAL])
def test_welfare_with_fewer_states_rejected(case1, mode):
    env, _ = case1
    pol = SequentialPolicy(3, 2, {(0, ()): 1.0}, {1: 1.0})
    one_state = WelfareSpec.power(3, [6.0], 1.5)
    with pytest.raises(ValueError, match="welfare spec does not match the environment"):
        evaluate_policy_realized(pol, env, one_state, mode=mode)


def test_outcome_serialization(case1):
    # public.json writes each evaluation as its record's fields, every
    # event as an EventOutcome's fields
    env, wf = case1
    pol = to_sequential_policy(design(env, wf), env)
    ev = evaluate_policy_realized(pol, env, wf, mode=PUBLIC)
    d = json.loads(json.dumps(cli._realized(ev)))
    assert d["mode"] == "public"
    assert set(d) == set(ev._fields)
    assert len(d["events"]) == len(ev.events) >= 1
    assert [set(e) for e in d["events"]] == [set(e._fields) for e in ev.events]
