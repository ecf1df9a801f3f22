"""Threshold-rule designer: fixtures, degeneracy, infeasibility, N-independence,
and its LP dual certificate."""

import importlib.util
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from robustcoord import (
    PRESETS,
    Environment,
    InfeasibleDesignError,
    PRIVATE_SEQUENTIAL,
    OpCounter,
    StrictModeError,
    WelfareSpec,
    build_scenario,
    certify,
    check_policy,
    design,
    designer,
    evaluate_bce_realized,
    evaluate_policy_realized,
    load_scenario,
    score,
    to_sequential_policy,
)
from robustcoord.env import CERT_TOL, potential_column, welfare_column
from robustcoord.seqpolicy import SequentialPolicy
from conftest import random_convex_instance
from test_lp import LP_N6


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
    assert tp.invite_probs == pytest.approx(
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
    assert repr(tp.mixing_weight) == "0.23913043478260987"
    assert repr(tp.expected_welfare) == "4.734782608695652"
    assert not tp.degenerate
    # no state clears b - c > 0 at cost 2, so the dominance warning rides along
    assert any("dominance" in w for w in tp.warnings)
    q = tp.invite_probs
    assert min(q[56:]) == 1.0 and max(q[:55]) == 0.0
    assert q[55] == pytest.approx(0.23913043478260987, abs=1e-15)


def test_designed_policy_is_obedient(case1, case2):
    for env, wf in (case1, case2):
        pol = to_sequential_policy(design(env, wf), env)
        report = check_policy(pol, env)
        assert report.passed, report


def _benchmark_workloads(monkeypatch):
    """perfbench/workloads.py, read only, with the oracle it imports, both
    dropped from ``sys.modules`` again after the test."""
    root = Path(__file__).resolve().parents[1] / "perfbench"
    for name in ("oracle", "workloads"):
        spec = importlib.util.spec_from_file_location(name, root / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, module)  # dataclass looks itself up there
        spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "scenario, designed",
    [("case1", 33), ("case2", 29), (0, 15), (5, 15), (7, 14)],
)
def test_every_designed_sweep_point_is_obedient_at_tol_zero(monkeypatch, scenario, designed):
    # the presets' sweeps and the benchmark's wide grid at seeds 0, 5 and 7:
    # the threshold weight closes the invited row as check_policy sums it, so
    # the design passes at tol 0 and private play realizes its welfare
    if isinstance(scenario, str):
        scn = load_scenario(scenario)
    else:
        scn = build_scenario(_benchmark_workloads(monkeypatch).wide_grid_config(scenario))
    seen = 0
    for cost in scn.sweep_costs:
        env = scn.env.with_cost(cost)
        try:
            tp = design(env, scn.welfare)
        except InfeasibleDesignError:
            continue
        seen += 1
        policy = to_sequential_policy(tp, env)
        report = check_policy(policy, env, tol=0.0)
        assert report.passed, (cost, min(report.so_c))
        realized = evaluate_policy_realized(
            policy, env, scn.welfare, mode=PRIVATE_SEQUENTIAL, obedience_tol=0.0
        )
        assert realized.obedient and realized.welfare == tp.expected_welfare, cost
    assert seen == designed


def test_threshold_scan_raises_when_the_row_cannot_close(case1, monkeypatch):
    # the closing corrects once and steps at most 8 ulps; a row that stays
    # below 0 past that is an error, not a design that fails its check
    monkeypatch.setattr(designer, "invited_row", lambda env, probs, column: [-1.0])
    with pytest.raises(ArithmeticError, match="does not close at state 0"):
        design(*case1)


def test_degenerate_all_invite(example3):
    env, wf = example3
    tp = design(env.with_cost(0.5), wf)
    assert tp.degenerate
    assert tp.mixing_weight == 1.0
    assert tp.invite_probs == pytest.approx([1.0])
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
    assert tp.invite_probs[0] == 0.0
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
    assert tp.invite_probs[1] == 1.0


def test_mixing_closes_the_budget(case1):
    # the threshold state's mass makes the weighted potentials sum to zero
    env, wf = case1
    tp = design(env, wf)
    q = tp.invite_probs
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
    # unchecked, a five-agent spec scores state H 0.1625, as the matching one does
    with pytest.raises(ValueError, match="dimensions"):
        score(env, WelfareSpec.power(5, [6.0, 12.0], 1.5), 1)


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


@pytest.mark.parametrize("scenario", ["case1", "case2"])
def test_certificate_primal_residual_is_the_policy_check(scenario):
    # a threshold weight raised by 1e-6 overspends the invited row; the
    # certificate's primal side is the design policy's own check_policy
    scn = load_scenario(scenario)
    env, wf = scn.env, scn.welfare
    tp = design(env, wf)
    t = tp.threshold_state
    raised = tp.mixing_weight + 1e-6
    probs = tp.invite_probs[:t] + (raised,) + tp.invite_probs[t + 1 :]
    over = tp._replace(mixing_weight=raised, invite_probs=probs)
    report = check_policy(to_sequential_policy(over, env), env, tol=0.0)
    assert min(report.so_c) < 0.0 and max(report.so_n) <= 0.0
    cert = certify(env, wf, over)
    assert cert.primal_residual == -min(report.so_c)
    assert cert.primal_residual > CERT_TOL and not cert.passed
    assert certify(env, wf, tp).primal_residual == 0.0


def _every_column_violation(env, wf, tp, mu):
    """The certificate's dual violation with every column (state, size k =
    0..N) of the agent-symmetric LP priced against the design's mass-row
    duals: the reference ``certify``'s end columns must equal."""
    n, t = env.n_agents, tp.threshold_state
    v_n, f_n = welfare_column(wf, n), potential_column(env, n)
    q = tp.invite_probs
    y = [p * (v + mu * f) if x > 0.0 else 0.0 for p, x, v, f in zip(env.prior, q, v_n, f_n)]
    y[t] = max(y[t], 0.0)
    worst = max(0.0, -mu)
    for k in range(n + 1):
        columns = zip(env.prior, welfare_column(wf, k), potential_column(env, k), y)
        worst = max(worst, *(p * (v + mu * f) - ys for p, v, f, ys in columns))
    return worst


def _designs(scn):
    """(environment, welfare, design) at the scenario's cost and each of its
    sweep costs that has a design."""
    for cost in (scn.env.cost, *scn.sweep_costs):
        env = scn.env.with_cost(cost)
        try:
            yield env, scn.welfare, design(env, scn.welfare)
        except InfeasibleDesignError:
            pass


def test_end_columns_price_the_certificate_as_every_column_does(monkeypatch):
    # power welfare and mu >= 0: each state's reduced cost is convex in k,
    # so its two ends bound it; on these inputs they give the same bits
    workloads = _benchmark_workloads(monkeypatch)
    configs = [LP_N6]
    for seed in range(10):  # the lp-oracle workload's instances
        rng = random.Random(f"lp-oracle/{seed}")
        configs.extend(workloads.lp_instance(rng, n) for n in (3, 4, 5))
    scenarios = map(build_scenario, configs)
    cases = [(scn.env, scn.welfare, design(scn.env, scn.welfare)) for scn in scenarios]
    for scn in (load_scenario("case1"), load_scenario("case2")):
        cases.extend(_designs(scn))
    cases.extend(_designs(build_scenario(workloads.wide_grid_config(0))))
    assert len(cases) == 111
    for env, wf, tp in cases:
        cert = certify(env, wf, tp)
        assert cert.mu >= 0.0
        want = _every_column_violation(env, wf, tp, cert.mu)
        assert cert.dual_violation.hex() == want.hex(), (env.cost, env.n_states)


def test_end_columns_agree_with_every_column_on_random_instances():
    # a design at its own mu leaves no column above its dual, so each draw
    # is also priced at other mu >= 0 and with hand-drawn invitation
    # probabilities, where the worst column is mostly positive
    rng = np.random.default_rng(41)
    positive = total = 0
    for n_agents in (None, 10, 100, 1000):
        for _ in range(10):
            env, wf = random_convex_instance(rng, n_agents=n_agents)
            tp = design(env, wf)
            mu = certify(env, wf, tp).mu
            drawn = tuple(rng.choice([0.0, 1.0, float(rng.random())], env.n_states).tolist())
            for hand in (tp, tp._replace(invite_probs=drawn)):
                for moved in (mu, 0.5 * mu, 2.0 * mu, mu + 1.0):
                    got = designer._certify_at(env, wf, hand, moved).dual_violation
                    want = _every_column_violation(env, wf, hand, moved)
                    assert got == pytest.approx(want, rel=1e-12, abs=0.0)
                    positive, total = positive + (want > 0.0), total + 1
    assert positive > total // 4


def _sizes_asked(monkeypatch):
    """The (column, count) pairs designer asks for from now on."""
    asked = set()
    for name in ("welfare_column", "potential_column"):
        column = getattr(designer, name)

        def counted(spec, k, name=name, column=column):
            asked.add((name, k))
            return column(spec, k)

        monkeypatch.setattr(designer, name, counted)
    return asked


def test_certify_prices_power_welfare_at_the_end_columns_only(monkeypatch):
    n = 10**6
    env = Environment(n, ("s",), [1.0], [1.5], [0.4], 1.0)
    wf = WelfareSpec.power(n, [6.0], 1.5)
    tp = design(env, wf)
    asked = _sizes_asked(monkeypatch)
    assert certify(env, wf, tp).passed
    assert asked == {(name, k) for name in ("welfare_column", "potential_column") for k in (0, n)}


def test_tabulated_welfare_and_a_negative_mu_are_priced_at_every_size(case1, monkeypatch):
    env, power = case1
    every = {(name, k) for name in ("welfare_column", "potential_column") for k in range(4)}
    asked = _sizes_asked(monkeypatch)
    table = WelfareSpec.tabulated([[0.0, 2.0, 4.0, 6.0], [0.0, 4.0, 8.0, 12.0]])
    assert certify(env, table, design(env, table)).passed
    assert asked == every
    # threshold at H, whose potential at N is > 0: mu = -V / potential < 0
    hand = design(env, power)._replace(threshold_state=1)
    asked.clear()
    cert = certify(env, power, hand)
    assert asked == every
    assert cert.mu < 0.0 and not cert.passed
    assert cert.dual_violation == _every_column_violation(env, power, hand, cert.mu)


def test_certificate_rejects_a_design_that_is_no_policy(case1):
    # the primal side is the design's own policy, and q = 1.5 makes none
    tp = design(*case1)
    with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
        certify(*case1, tp._replace(invite_probs=(1.5, 1.0)))


def test_certificate_rejects_a_design_of_another_size(case1, case2):
    with pytest.raises(ValueError, match="design covers 100 states"):
        certify(*case1, design(*case2))


@pytest.mark.parametrize("t", [-1, 100])
def test_a_threshold_outside_the_states_is_rejected(case2, t):
    # an unchecked index would wrap at -1 and overrun at S
    env, wf = case2
    tp = design(env, wf)._replace(threshold_state=t)
    calls = (
        lambda: certify(env, wf, tp),
        lambda: to_sequential_policy(tp, env),
        lambda: evaluate_bce_realized(tp, env, wf),
    )
    for call in calls:
        with pytest.raises(ValueError, match=rf"threshold state {t} is not a state of 0\.\.99"):
            call()


def _constructed(tp, env):
    """The design's policy as the validating constructor builds it: the
    reference ``to_sequential_policy`` must equal, or its exception."""
    q = tp.invite_probs
    uniform_full = {s: p for s, p in enumerate(q) if p > 0.0}
    entries = {(s, ()): 1.0 - p for s, p in enumerate(q) if p < 1.0}
    return SequentialPolicy(env.n_agents, env.n_states, entries, uniform_full)


def _same_policy(got, want):
    for field in SequentialPolicy.__slots__:
        a, b = getattr(got, field), getattr(want, field)
        if field in ("entries", "uniform_full"):  # in the same order, too
            assert type(a) is type(b) and list(a.items()) == list(b.items())
        else:
            assert type(a) is type(b) and repr(a) == repr(b)


@pytest.mark.parametrize("scenario", ["case1", "case2", 0, 5, 7])
def test_design_policy_equals_the_validating_constructors(scenario, monkeypatch):
    if isinstance(scenario, str):
        scn = load_scenario(scenario)
    else:
        scn = build_scenario(_benchmark_workloads(monkeypatch).wide_grid_config(scenario))
    tp = design(scn.env, scn.welfare)
    _same_policy(to_sequential_policy(tp, scn.env), _constructed(tp, scn.env))


@pytest.mark.parametrize(
    "q", [0, 0.25, 1, np.float64(0.5), 1.5, 1 + 5e-10, -1e-13, math.nan, math.inf, -math.inf]
)
def test_a_hand_built_design_gets_what_the_constructor_gives_it(case1, q):
    # a q in [0, 1], an int or a numpy float too, gets the validating
    # constructor's record; any other q is refused by every reader of a
    # design, with check_design's message, however close to [0, 1] it lies
    env, wf = case1
    tp = design(env, wf)._replace(invite_probs=(q, 1.0))
    if 0 <= q <= 1:
        _same_policy(to_sequential_policy(tp, env), _constructed(tp, env))
        return
    calls = (
        lambda: certify(env, wf, tp),
        lambda: to_sequential_policy(tp, env),
        lambda: evaluate_bce_realized(tp, env, wf),
    )
    for call in calls:
        with pytest.raises(
            ValueError, match=r"^design invitation probabilities must lie in \[0, 1\]$"
        ):
            call()


@pytest.mark.parametrize("q", [True, "0.5"])
def test_a_design_whose_q_is_no_number_is_refused(case1, q):
    env, wf = case1
    tp = design(env, wf)._replace(invite_probs=(q, 1.0))
    calls = (
        lambda: certify(env, wf, tp),
        lambda: to_sequential_policy(tp, env),
        lambda: evaluate_bce_realized(tp, env, wf),
    )
    for call in calls:
        with pytest.raises(ValueError, match=r"^invite_probs\[0\]: expected a number"):
            call()
