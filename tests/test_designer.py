"""Threshold-rule designer: fixtures, degeneracy, infeasibility, N-independence,
and its LP dual certificate."""

import math
from fractions import Fraction

import numpy as np
import pytest

from robustcoord import (
    PRESETS,
    Environment,
    InfeasibleDesignError,
    OpCounter,
    StrictModeError,
    WelfareSpec,
    certify,
    check_policy,
    design,
    designer,
    load_scenario,
    score,
    to_sequential_policy,
)
from robustcoord.env import CERT_TOL


def test_case1_scores(case1):
    env, wf = case1
    assert score(env, wf, 0) == pytest.approx(-0.475, abs=1e-12)
    assert score(env, wf, 1) == pytest.approx(0.1625, abs=1e-12)


def test_case1_design(case1):
    env, wf = case1
    tp = design(env, wf)
    assert tp.threshold_state == 0 and tp.threshold_label == "L"
    assert tp.mixing_weight == pytest.approx(1.95 / 2.85, abs=1e-12)
    assert repr(tp.mixing_weight) == "0.6842105263157894"
    assert tp.expected_welfare == pytest.approx(8.052631578947368, abs=1e-12)
    assert not tp.degenerate
    assert tp.order == (0, 1)
    assert tp.invite_probabilities() == pytest.approx(
        [0.6842105263157894, 1.0], abs=1e-12
    )
    assert tp.warnings == ()


def test_case1_welfare_closed_form(case1):
    # half the mass gets full adoption outright, the weak state mixes
    env, wf = case1
    tp = design(env, wf)
    want = 0.5 * 12.0 + 0.5 * (1.95 / 2.85) * 6.0
    assert tp.expected_welfare == pytest.approx(want, abs=1e-12)


def test_case2_design(case2):
    env, wf = case2
    tp = design(env, wf)
    assert tp.threshold_label == "0.56"
    assert repr(tp.mixing_weight) == "0.23913043478261042"
    assert repr(tp.expected_welfare) == "4.734782608695652"
    assert not tp.degenerate
    # no state clears b - c > 0 at cost 2, so the dominance warning rides along
    assert any("dominance" in w for w in tp.warnings)
    q = tp.invite_probabilities()
    assert min(q[56:]) == 1.0 and max(q[:55]) == 0.0
    assert q[55] == pytest.approx(0.23913043478261042, abs=1e-15)


def test_designed_policy_is_obedient(case1, case2):
    for env, wf in (case1, case2):
        pol = to_sequential_policy(design(env, wf), env)
        report = check_policy(pol, env)
        assert report.passed, report


def test_degenerate_all_invite(example3):
    env, wf = example3
    tp = design(env.with_cost(0.5), wf)
    assert tp.degenerate
    assert tp.mixing_weight == 1.0
    assert tp.invite_probabilities() == pytest.approx([1.0])
    assert tp.expected_welfare == pytest.approx(1.0, abs=1e-12)


def test_single_dominant_state_invites_fully():
    env = Environment(
        n_agents=4,
        labels=("D",),
        prior=np.array([1.0]),
        benefit=np.array([3.0]),
        complementarity=np.array([0.5]),
        cost=2.0,
    )
    wf = WelfareSpec.power(4, np.array([5.0]), 2.0)
    tp = design(env, wf)
    assert tp.degenerate and tp.mixing_weight == 1.0
    assert tp.expected_welfare == pytest.approx(5.0, abs=1e-12)


def test_infeasible_design_raises(example3):
    env, wf = example3
    with pytest.raises(InfeasibleDesignError, match="positive full-cooperation"):
        design(env, wf)


def test_strict_mode_on_assumption_failure(case2):
    env, wf = case2
    with pytest.raises(StrictModeError, match="dominance"):
        design(env, wf, strict=True)


def test_strict_mode_on_zero_welfare_state(case1):
    env, _ = case1
    wf = WelfareSpec.tabulated(np.array([[0.0, 0.0, 0.0, 0.0], [0.0, 2.0, 5.0, 12.0]]))
    tp = design(env, wf)  # non-strict: the dead state is simply never invited
    assert tp.invite_probabilities()[0] == 0.0
    assert math.isinf(tp.scores[0])
    with pytest.raises(StrictModeError, match="zero full-cooperation welfare"):
        design(env, wf, strict=True)


def test_zero_welfare_positive_potential_scores_plus_inf(case1):
    env, _ = case1
    # state H has F > 0; killing its welfare makes inviting it free upside
    wf = WelfareSpec.tabulated(np.array([[0.0, 1.0, 2.0, 6.0], [0.0, 0.0, 0.0, 0.0]]))
    tp = design(env, wf)
    assert tp.scores[1] == math.inf
    assert score(env, wf, 1) == math.inf
    assert tp.invite_probabilities()[1] == 1.0


def test_mixing_closes_the_budget(case1):
    # the threshold state's mass makes the weighted potentials sum to zero
    env, wf = case1
    tp = design(env, wf)
    q = tp.invite_probabilities()
    budget = sum(
        env.prior[s] * q[s] * ((env.benefit[s] - env.cost) * 3 + env.complementarity[s] * 3 / 2)
        for s in range(2)
    )
    assert budget == pytest.approx(0.0, abs=1e-12)


def test_to_sequential_policy_structure(case1):
    env, wf = case1
    tp = design(env, wf)
    pol = to_sequential_policy(tp, env)
    assert pol.uniform_full == pytest.approx({0: 0.6842105263157894, 1: 1.0})
    assert pol.entries == pytest.approx({(0, ()): 1 - 0.6842105263157894})


def test_to_sequential_policy_rejects_other_state_count(case1):
    env, wf = case1
    one_state = Environment(
        n_agents=3,
        labels=("D",),
        prior=np.array([1.0]),
        benefit=np.array([3.0]),
        complementarity=np.array([0.5]),
        cost=2.0,
    )
    one_state_wf = WelfareSpec.power(3, np.array([5.0]), 2.0)
    with pytest.raises(ValueError, match="design covers 2 states, environment has 1"):
        to_sequential_policy(design(env, wf), one_state)
    with pytest.raises(ValueError, match="design covers 1 states, environment has 2"):
        to_sequential_policy(design(one_state, one_state_wf), env)


def test_op_count_independent_of_n_agents():
    # same state space, wildly different N: the construction does equal work
    counts = {}
    for n in (3, 10, 1000):
        env = Environment(
            n_agents=n,
            labels=("a", "b", "c"),
            prior=np.array([0.2, 0.5, 0.3]),
            benefit=np.array([0.5, 1.4, 2.2]),
            complementarity=np.array([0.3, 0.4, 0.1]),
            cost=1.5,
        )
        wf = WelfareSpec.power(n, np.array([4.0, 6.0, 9.0]), 1.5)
        counter = OpCounter()
        design(env, wf, counter=counter)
        counts[n] = counter.ops
    assert counts[3] == counts[10] == counts[1000]


def test_dimension_mismatch(case1):
    env, _ = case1
    wf = WelfareSpec.power(4, np.array([6.0, 12.0]), 1.5)
    with pytest.raises(ValueError, match="dimensions"):
        design(env, wf)


def test_case1_certificate_is_the_exact_dual():
    # from the preset's decimal spellings: V(n) = alpha (n/N)^beta, so V(N)
    # is alpha, and potential(N) = N(b - c) + lambda N / 2
    cfg = PRESETS["case1"]
    n, cost = cfg["n_agents"], Fraction(str(cfg["cost"]))
    states = [{k: Fraction(str(v)) for k, v in st.items() if k != "label"} for st in cfg["states"]]
    pot = [n * (st["b"] - cost) + st["lambda"] * n / 2 for st in states]
    low = min(range(len(states)), key=lambda s: pot[s] / states[s]["alpha"])
    mu = -states[low]["alpha"] / pot[low]
    assert mu == Fraction(40, 19)
    # under convexity a state's best size is 0 or N
    dual = sum(st["prob"] * max(0, st["alpha"] + mu * f) for st, f in zip(states, pot))
    assert dual == 6 + Fraction(39, 19)  # the design's welfare: 1/2 * 12 + 1/2 * 13/19 * 6

    scn = load_scenario("case1")
    cert = certify(scn.env, scn.welfare, design(scn.env, scn.welfare))
    assert cert.passed
    assert cert.mu == pytest.approx(float(mu), rel=1e-12)
    assert cert.dual_value == pytest.approx(float(dual), rel=1e-12)


@pytest.mark.parametrize("scenario", ["case1", "case2"])
@pytest.mark.parametrize("scale", [0.99, 1.01])
def test_certificate_priced_off_its_mu_fails(scenario, scale):
    scn = load_scenario(scenario)
    env, wf = scn.env, scn.welfare
    tp = design(env, wf)
    cert = certify(env, wf, tp)
    assert cert.passed and cert.mu > 0.0
    moved = designer._certify_at(env, wf, tp, cert.mu * scale)
    assert not moved.passed
    assert max(moved.gap, moved.dual_violation) > CERT_TOL


def test_certificate_rejects_a_design_of_another_size(case1, case2):
    with pytest.raises(ValueError, match="design covers 100 states"):
        certify(*case1, design(*case2))
