"""Optimistic persuasion baselines against the robust design."""

import math

import numpy as np
import pytest

from robustcoord import (
    PUBLIC,
    Environment,
    InfeasibleDesignError,
    WelfareSpec,
    build_scenario,
    compare,
    design,
    design_bce_optimistic,
    evaluate_bce_realized,
    evaluate_policy_realized,
    load_scenario,
    sweep,
    sweep_boundaries,
    to_sequential_policy,
)
from robustcoord.env import gain_column, potential_column
from conftest import random_convex_instance
from test_designer import _benchmark_workloads


def test_case1_optimistic_saturates(case1):
    # budget of 0.5*(-0.9) + 0.5*0.9 is zero in exact arithmetic; in floats it
    # lands a hair negative, so L becomes the boundary state at weight 1 - ulp
    env, wf = case1
    bce = design_bce_optimistic(env, wf)
    assert not bce.degenerate
    assert bce.threshold_label == "L"
    assert repr(bce.mixing_weight) == "0.9999999999999999"
    assert bce.invite_probs[1] == 1.0
    assert bce.expected_welfare == 9.0


def test_case1_realized_collapses(case1):
    env, wf = case1
    bce = design_bce_optimistic(env, wf)
    ev = evaluate_bce_realized(bce, env, wf)
    assert ev.welfare == 0.0
    by_label = {e.label: e for e in ev.events}
    assert by_label["recommend-all"].coop_count == 0
    # the no-recommendation event carries only float dust (state L is
    # recommended with probability 1 - 2**-53, so the event's prior mass is
    # 5.6e-17), and like every event of positive mass it is played: nobody
    # cooperates, and it adds nothing
    none = by_label["recommend-none"]
    assert math.fsum(w * p for w, p in zip(env.prior, none.probs)) == 0.5 * 2.0**-53
    assert (none.coop_count, none.welfare_contribution) == (0, 0.0)


def test_case2_optimistic_threshold(case2):
    env, wf = case2
    bce = design_bce_optimistic(env, wf)
    assert bce.threshold_label == "0.27"
    assert repr(bce.mixing_weight) == "0.7245657568238237"
    assert compare(env, wf).bce_first_full == "0.28"
    # its predicted welfare is checked against the exact sum of its terms in
    # test_vectorized_equivalence.py::test_case2_sums_are_correctly_rounded
    assert not bce.degenerate
    assert evaluate_bce_realized(bce, env, wf).welfare == 0.0


def test_case2_realized_zero_coop_gain(case2):
    # on the recommend-all event the mean benefit sits far below the cost
    env, wf = case2
    bce = design_bce_optimistic(env, wf)
    ev = evaluate_bce_realized(bce, env, wf)
    rec_all = next(e for e in ev.events if e.label == "recommend-all")
    post = np.array(rec_all.posterior)
    gain0 = float(post @ (np.array(env.benefit) - env.cost))
    assert gain0 == pytest.approx(-0.5454545454545454, abs=1e-12)


def test_optimistic_all_defect_when_hopeless(example3):
    env, wf = example3
    with pytest.raises(InfeasibleDesignError):
        design_bce_optimistic(env.with_cost(5.0), wf)
    rec = compare(env.with_cost(5.0), wf)
    assert rec.bce_predicted == rec.bce_realized == 0.0
    assert rec.bce_threshold is None
    assert any("no state supports cooperation" in n for n in rec.notes)


# The rule at zero: a design is feasible only where some gain is > 0.0 in
# floats. Both designers share one guard, so this pins it for both; making
# it weak (>= 0.0, ROADMAP item 1) has to flip these tests on purpose.


def test_rule_at_zero_on_case1_sweep_costs(case1):
    env, wf = case1
    # c = 2.65: H's potential N (b - c + lambda / 2) is exactly 0.0 in floats
    at = env.with_cost(2.65)
    assert max(potential_column(at, at.n_agents)) == 0.0
    with pytest.raises(InfeasibleDesignError):
        design(at, wf)
    assert compare(at, wf).robust_welfare == 0.0
    # c = 2.9: H's full-trust gain b - c + lambda is exactly 0.0 in floats
    at = env.with_cost(2.9)
    assert max(gain_column(at, at.n_agents - 1)) == 0.0
    with pytest.raises(InfeasibleDesignError):
        design_bce_optimistic(at, wf)
    rec = compare(at, wf)
    assert rec.bce_predicted == rec.bce_realized == 0.0
    assert rec.bce_threshold is None and rec.bce_first_full is None


@pytest.mark.parametrize("top, feasible", [(5e-324, True), (0.0, False)])
def test_both_designers_share_the_rule_at_zero(top, feasible):
    # with lambda = 0 the potential is N (b - c) and the full-trust gain
    # b - c, so both designers see one gain column: [-5e-324, top]
    cost = 5e-324
    env = Environment(3, ("x", "y"), (0.5, 0.5), (0.0, cost + top), (0.0, 0.0), cost)
    wf = WelfareSpec.power(3, (1.0, 2.0), 1.0)
    assert gain_column(env, 2) == [-5e-324, top]
    if not feasible:
        for designer in (design, design_bce_optimistic):
            with pytest.raises(InfeasibleDesignError, match="positive full-cooperation gain"):
                designer(env, wf)
        return
    tp, bce = design(env, wf), design_bce_optimistic(env, wf)
    assert tp.invite_probs == bce.invite_probs and tp.invite_probs[1] == 1.0
    assert tp.threshold_state == bce.threshold_state


@pytest.mark.parametrize(
    "scenario, feasible",
    [("case1", 38), ("case2", 37), (0, 19), (5, 19), (7, 18)],
)
def test_realized_baseline_is_its_public_counterfactual(monkeypatch, scenario, feasible):
    # the presets' sweeps and the benchmark's wide grid at seeds 0, 5 and 7:
    # the optimistic design's realized value is the public replay of the
    # design as a sequential policy, welfare bit for bit and event by event
    if isinstance(scenario, str):
        scn = load_scenario(scenario)
    else:
        scn = build_scenario(_benchmark_workloads(monkeypatch).wide_grid_config(scenario))
    seen = 0
    for cost in scn.sweep_costs:
        env = scn.env.with_cost(cost)
        try:
            bce = design_bce_optimistic(env, scn.welfare)
        except InfeasibleDesignError:
            continue
        seen += 1
        realized = evaluate_bce_realized(bce, env, scn.welfare)
        public = evaluate_policy_realized(
            to_sequential_policy(bce, env), env, scn.welfare, mode=PUBLIC
        )
        assert realized.welfare == public.welfare, cost
        assert (realized.mode, realized.obedient) == (PUBLIC, None)
        assert sorted(e[1:] for e in realized.events) == sorted(e[1:] for e in public.events)
    assert seen == feasible


def test_compare_case1(case1):
    env, wf = case1
    rec = compare(env, wf)
    assert rec.cost == 2.0
    assert rec.robust_welfare == pytest.approx(8.052631578947368, abs=1e-12)
    assert rec.bce_predicted == pytest.approx(9.0, abs=1e-12)
    assert rec.bce_realized == 0.0
    assert rec.theta_star == "L"
    assert rec.p_star == pytest.approx(1.95 / 2.85, abs=1e-12)
    assert rec.bce_predicted - rec.robust_welfare == pytest.approx(
        9.0 - 8.052631578947368, abs=1e-12
    )
    assert rec.robust_welfare - rec.bce_realized == pytest.approx(
        8.052631578947368, abs=1e-12
    )


def test_compare_handles_infeasible_robust(example3):
    env, wf = example3
    rec = compare(env, wf)
    assert rec.robust_welfare == 0.0
    assert rec.theta_star is None and rec.p_star is None
    assert any("infeasible" in n for n in rec.notes)
    # optimism still sees upside here: G(1) = 1 + 1.5 - 2 > 0
    assert rec.bce_predicted > 0.0
    assert rec.bce_realized == 0.0


def test_sandwich_ordering_on_random_instances():
    # realized play can never beat the robust optimum, which optimism caps
    rng = np.random.default_rng(2026)
    for _ in range(200):
        env, wf = random_convex_instance(rng)
        rec = compare(env, wf)
        assert rec.bce_realized <= rec.robust_welfare + 1e-9
        assert rec.robust_welfare <= rec.bce_predicted + 1e-9


def test_low_cost_coincidence(case2):
    env, wf = case2
    rec = compare(env.with_cost(1.0), wf)
    assert rec.robust_welfare == pytest.approx(9.03, abs=1e-12)
    assert rec.bce_predicted == pytest.approx(9.03, abs=1e-12)
    assert rec.bce_realized == pytest.approx(9.03, abs=1e-12)


def test_mid_band_values(case2):
    env, wf = case2
    rec = compare(env.with_cost(2.75), wf)
    assert rec.robust_welfare == 0.0
    assert rec.bce_predicted == pytest.approx(0.6525, abs=1e-9)
    assert rec.bce_realized == 0.0
    rec = compare(env.with_cost(2.8), wf)
    assert rec.bce_predicted == pytest.approx(0.12, abs=1e-9)


def test_sweep_is_ordered_and_matches_serial(monkeypatch):
    # whole records, notes included, on both presets and the benchmark's
    # wide grid at seeds 0, 5 and 7, at each sweep cost given out of order
    # (and the scenario's own cost once more)
    workloads = _benchmark_workloads(monkeypatch)
    for scenario in ["case1", "case2", 0, 5, 7]:
        if isinstance(scenario, str):
            scn = load_scenario(scenario)
        else:
            scn = build_scenario(workloads.wide_grid_config(scenario))
        env, wf = scn.env, scn.welfare
        costs = [*reversed(scn.sweep_costs[::2]), *scn.sweep_costs[1::2], env.cost]
        recs = sweep(env, wf, costs)
        assert [r.cost for r in recs] == costs
        for r, c in zip(recs, costs):
            assert repr(r) == repr(compare(env.with_cost(c), wf)), (scenario, c)


def test_sweep_work_per_point(monkeypatch, case2):
    # per cost: with_cost checks the cost without walking the states (its
    # bound on the potential at N is finite), b - c is built once, each
    # designer builds its one gain column and runs its one scan, and the
    # optimistic design's events of positive mass are played
    from robustcoord import baselines, designer, env as env_module, equilibrium

    calls = {}

    def count(module, name):
        original, key = getattr(module, name), f"{module.__name__[12:]}.{name}"

        def counted(*args, **kwargs):
            calls[key] = calls.get(key, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(env_module, "potential_column")  # the walk of _check_at_cost
    count(designer, "potential_column")
    count(baselines, "gain_column")
    count(designer, "threshold_scan")
    count(baselines, "threshold_scan")
    count(equilibrium, "smallest_equilibrium")
    base, wf = case2
    envs = [base.with_cost(c) for c in (1.0, 2.0, 2.6, 2.9)]
    assert calls == {}
    nets = [env_module.net_column(e) for e in envs]
    assert len({id(net) for net in nets}) == len(envs)
    for e, net in zip(envs, nets):
        compare(e, wf)
        assert env_module.net_column(e) is net
    # 1.0: degenerate, so the recommend-none event has no mass; 2.0: two
    # events; 2.6: the robust scan raises, two events; 2.9: both scans raise
    assert calls == {
        "designer.potential_column": 4,
        "baselines.gain_column": 4,
        "designer.threshold_scan": 4,
        "baselines.threshold_scan": 4,
        "equilibrium.smallest_equilibrium": 5,
    }


def test_realized_baseline_rejects_a_design_of_another_state_count(case1, case2):
    bce = design_bce_optimistic(*case2)
    with pytest.raises(ValueError, match="covers 100 states, environment has 2"):
        evaluate_bce_realized(bce, *case1)


def test_realized_baseline_rejects_a_design_outside_the_unit_interval(case1):
    # the event loop trusts its events, so the design is checked once, up
    # front: 1 + 1e-13 would make a recommend-none probability of -1e-13
    env, wf = case1
    bce = design_bce_optimistic(env, wf)
    for x in (1 + 1e-13, -1e-13, math.nan):
        for q in ((x, 1.0), (1.0, x)):
            with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
                evaluate_bce_realized(bce._replace(invite_probs=q), env, wf)


def test_sweep_boundaries_case2(case2):
    env, wf = case2
    costs = [round(1.0 + 0.05 * k, 2) for k in range(45)]
    recs = sweep(env, wf, costs)
    bounds = sweep_boundaries(recs)
    assert bounds["robust_all_invite_max_cost"] == 1.45
    assert bounds["coincide_max_cost"] == 1.25
    assert bounds["realized_zero_min_cost"] == 1.3
    assert bounds["robust_zero_min_cost"] == 2.45
    assert bounds["optimistic_zero_min_cost"] == 2.85
    # welfare curves never rise with cost
    robust = [r.robust_welfare for r in recs]
    assert all(a >= b - 1e-12 for a, b in zip(robust, robust[1:]))


def test_sweep_boundaries_case1(case1):
    env, wf = case1
    recs = sweep(env, wf, [1.0, 2.0, 3.0])
    assert sweep_boundaries(recs) == {
        "robust_all_invite_max_cost": 1.0,
        "coincide_max_cost": 1.0,
        "robust_zero_min_cost": 3.0,
        "optimistic_zero_min_cost": 3.0,
        "realized_zero_min_cost": 2.0,
    }


def test_dimension_mismatch(case1):
    env, good = case1
    wf = WelfareSpec.power(3, np.array([6.0]), 1.5)
    with pytest.raises(ValueError, match="dimensions"):
        design_bce_optimistic(env, wf)
    # realized play reads the spec it is handed: one state, five agents or
    # three states would give 3.0, 4.18 and 9.0 at c = 1.2, not raise
    env = env.with_cost(1.2)
    bce = design_bce_optimistic(env, good)
    assert evaluate_bce_realized(bce, env, good).welfare == 9.0
    for wf in (
        WelfareSpec.power(3, [6.0], 1.5),
        WelfareSpec.power(5, [6.0, 12.0], 1.5),
        WelfareSpec.power(3, [6.0, 12.0, 9.0], 1.5),
    ):
        with pytest.raises(ValueError, match="dimensions"):
            evaluate_bce_realized(bce, env, wf)


def test_zero_complementarity_optimism_equals_robust_design():
    # with lambda = 0 the potential is N times the full-trust gain, so both
    # greedy scans budget the same signs in the same order: sequencing buys
    # nothing and the robust design meets the optimistic benchmark
    rng = np.random.default_rng(404)
    compared = 0
    for _ in range(300):
        n_agents = int(rng.integers(2, 30))
        n_states = int(rng.integers(1, 8))
        prior = rng.uniform(0.05, 1.0, n_states)
        env = Environment(
            n_agents=n_agents,
            labels=tuple(f"s{k}" for k in range(n_states)),
            prior=prior / prior.sum(),
            benefit=rng.uniform(0.0, 3.0, n_states),
            complementarity=np.zeros(n_states),
            cost=float(rng.uniform(0.5, 2.5)),
        )
        wf = WelfareSpec.power(
            n_agents, rng.uniform(1.0, 10.0, n_states), float(rng.uniform(1.0, 3.0))
        )
        if not (np.array(env.benefit) > env.cost).any():
            continue  # robust design infeasible
        tp = design(env, wf)
        bce = design_bce_optimistic(env, wf)
        assert tp.invite_probs == pytest.approx(bce.invite_probs, abs=1e-12)
        assert tp.expected_welfare == pytest.approx(bce.expected_welfare, abs=1e-12)
        compared += 1
    assert compared >= 200
