"""Acceptance suite: one test per shipped target, `pytest -v` gives one
pass/fail line per criterion.

Where a criterion was first quoted with rounded figures, the test asserts the
exact value instead, derived here from the preset primitives with
`fractions.Fraction` and never read back from the program:

* criterion 6: the invite posterior is 19/32 and the zero-cooperator gain is
  -27/160 = -0.16875 (quoted as 0.5944 and -0.167);
* criterion 8: the three welfare curves coincide up to the prior-mean benefit
  E[b] = 503/400 = 1.2575 on the `case2` grid, and between E[b] and the
  all-invite boundary E[b] + E[lambda]/2 = 5937/4000 = 1.48425 robust and
  optimistic predicted welfare stay at E[alpha] = 9.03 while realized play
  collapses to 0 (quoted as "coincide on c <= 1.48").

The README's errata note lists each quoted figure next to its exact value.
"""

import json
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest

from robustcoord import (
    Belief,
    Environment,
    OpCounter,
    PUBLIC,
    SequentialPolicy,
    WelfareSpec,
    build_lp,
    check_policy,
    compare,
    design,
    design_bce_optimistic,
    evaluate_bce_realized,
    evaluate_policy_realized,
    expected_gain,
    extract_policy,
    marginal_gain,
    posterior_from_event,
    potential,
    score,
    smallest_equilibrium,
    solve,
    sweep,
    to_sequential_policy,
    welfare_value,
)
from robustcoord.cli import main
from robustcoord.scenarios import PRESETS
from conftest import random_convex_instance


def exact(value) -> Fraction:
    """A preset's decimal literal as the rational it denotes (2.4 -> 12/5)."""
    return Fraction(str(value))


def best_of_3(fn) -> float:
    fn()  # warm caches and allocator before timing
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def test_criterion_01_case1_potentials_and_scores(case1):
    env, wf = case1
    assert potential(env, 0, 3) == pytest.approx(-2.85, abs=1e-12)
    assert potential(env, 1, 3) == pytest.approx(1.95, abs=1e-12)
    assert score(env, wf, 0) == pytest.approx(-0.475, abs=1e-12)
    assert score(env, wf, 1) == pytest.approx(0.1625, abs=1e-12)

    def work():
        potential(env, 0, 3), potential(env, 1, 3)
        score(env, wf, 0), score(env, wf, 1)

    assert best_of_3(work) < 1e-3


def test_criterion_02_case1_design(case1):
    env, wf = case1
    tp = design(env, wf)
    assert tp.threshold_label == "L"
    assert tp.mixing_weight == pytest.approx(0.684, abs=5e-4)
    assert tp.mixing_weight == pytest.approx(1.95 / 2.85, abs=1e-15)
    assert tp.expected_welfare == pytest.approx(8.0526, abs=1e-3)
    assert best_of_3(lambda: design(env, wf)) < 1e-3


def test_criterion_03_lp_oracle_agreement(case1):
    t0 = time.perf_counter()
    env, wf = case1
    prog = build_lp(env, wf)
    sol = solve(prog)
    assert sol.status == "OPTIMAL"
    # 8.0526 quotes the exact optimum 0.5*12 + 0.5*(1.95/2.85)*6
    assert sol.value == pytest.approx(8.052631578947368, abs=1e-6)
    assert check_policy(extract_policy(prog, sol), env).passed

    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(200):
        renv, rwf = random_convex_instance(rng)
        rsol = solve(build_lp(renv, rwf))
        assert rsol.status == "OPTIMAL"
        worst = max(worst, abs(rsol.value - design(renv, rwf).expected_welfare))
    assert worst <= 1e-6, f"worst LP/designer gap {worst:.3e}"
    assert time.perf_counter() - t0 < 30.0


def test_criterion_04_obedience_fixtures(case1, example3):
    env, _ = case1
    pol = SequentialPolicy(
        3, 2, {(0, (0, 2)): 0.6, (0, (1, 2)): 0.4, (1, (2, 0, 1)): 1.0}, {}
    )
    assert check_policy(pol, env).so_c[2] == pytest.approx(-0.275, abs=1e-12)
    assert not check_policy(pol, env).passed

    env3, _ = example3
    fixed = SequentialPolicy(3, 1, {(0, (0, 1, 2)): 1.0}, {})
    assert check_policy(fixed, env3).so_c[0] == pytest.approx(-1.0, abs=1e-12)
    assert marginal_gain(env3, 0, 0) == -1.0
    assert not check_policy(fixed, env3).passed


def test_criterion_05_smallest_equilibrium_fixtures(case1):
    env, wf = case1
    bel = Belief(env.prior)
    assert expected_gain(env, bel, 0) == pytest.approx(-0.3, abs=1e-12)
    assert expected_gain(env, bel, 2) == pytest.approx(0.0, abs=1e-12)
    out = smallest_equilibrium(env, bel, welfare=wf)
    assert set(out.all_equilibria) == {0, 3}
    assert out.coop_count == 0
    assert out.expected_welfare == 0.0
    bce = design_bce_optimistic(env, wf)
    assert bce.expected_welfare == pytest.approx(9.0, abs=1e-12)
    assert evaluate_bce_realized(bce, env, wf).welfare == 0.0


def test_criterion_06_public_signal_counterfactual(case1):
    # Exact values from the preset. Full-cooperation potential is
    # N (b - c + lambda / 2); H is invited outright and L at the weight w that
    # closes the pooled budget p_H pot_H + p_L w pot_L = 0.
    cfg = PRESETS["case1"]
    n, c = cfg["n_agents"], exact(cfg["cost"])
    low, high = cfg["states"]
    b_l, b_h = exact(low["b"]), exact(high["b"])
    p_l, p_h = exact(low["prob"]), exact(high["prob"])
    pot_l = n * (b_l - c + exact(low["lambda"]) / 2)
    pot_h = n * (b_h - c + exact(high["lambda"]) / 2)
    assert pot_h > 0 > pot_l
    w = -p_h * pot_h / (p_l * pot_l)
    assert 0 < w < 1
    post_exact = p_h / (p_h + p_l * w)
    g0_exact = post_exact * (b_h - c) + (1 - post_exact) * (b_l - c)
    assert (w, post_exact, g0_exact) == (
        Fraction(13, 19),
        Fraction(19, 32),
        Fraction(-27, 160),
    )

    env, wf = case1
    tp = design(env, wf)
    belief = posterior_from_event(env, tp.invite_probs)
    post_h = float(belief.probs[1])
    assert post_h == pytest.approx(float(post_exact), abs=1e-12), (
        f"invite posterior P(H) is {post_h!r}, not the exact 19/32 = 0.59375"
    )
    g0 = expected_gain(env, belief, 0)
    assert g0 == pytest.approx(float(g0_exact), abs=1e-12), (
        f"zero-cooperator gain at the invite posterior is {g0!r}, not the"
        " exact -27/160 = -0.16875"
    )
    assert g0 < 0
    assert smallest_equilibrium(env, belief).coop_count == 0
    pol = to_sequential_policy(tp, env)
    pub = evaluate_policy_realized(pol, env, wf, mode=PUBLIC)
    assert pub.welfare == 0.0


def test_criterion_07_case2_design(case2):
    env, wf = case2
    tp = design(env, wf)
    assert tp.threshold_label == "0.56"
    assert tp.mixing_weight == pytest.approx(0.24, abs=0.01)
    bce = design_bce_optimistic(env, wf)
    assert float(compare(env, wf).bce_first_full) == pytest.approx(0.28, abs=0.01)
    assert evaluate_bce_realized(bce, env, wf).welfare == 0.0
    assert best_of_3(lambda: design(env, wf)) < 0.1


def test_criterion_08_case2_regime_boundaries(case2, tmp_path):
    env, wf = case2
    costs = [round(1.0 + 0.05 * k, 2) for k in range(45)]
    records = sweep(env, wf, costs)

    low = [r for r in records if r.cost <= 1.48]
    assert low and all(r.robust_degenerate for r in low)

    high = [r for r in records if r.cost >= 3.0]
    assert high
    for r in high:
        assert r.robust_welfare == 0.0
        assert r.bce_predicted == 0.0
        assert r.bce_realized == 0.0

    assert main(["sweep", "--scenario", "case2", "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "sweep_summary.json").read_text())
    boundary = summary["optimistic_zero_min_cost"]
    assert 2.7 <= boundary <= 3.0
    warnings.warn(
        "optimistic welfare first hits zero at c = "
        f"{boundary}, not at the quoted 2.95: the highest-benefit grid state"
        " has b + lambda = 2.8, so optimistic adoption is impossible beyond"
        " that cost"
    )

    # Exact boundaries from the grid primitives (uniform prior over the grid).
    # All-invite carries no information, so realized play is full cooperation
    # only while E[b] - c >= 0; the robust policy invites every state while
    # the pooled budget E[b] - c + E[lambda] / 2 stays nonnegative.
    grid = PRESETS["case2"]["grid"]
    thetas = [
        exact(grid["theta_start"]) + k * exact(grid["theta_step"])
        for k in range(grid["count"])
    ]

    def grid_mean(key: str) -> Fraction:
        lo, hi = (exact(v) for v in grid[key])
        return sum(lo + (hi - lo) * t for t in thetas) / len(thetas)

    mean_b, mean_alpha = grid_mean("b"), grid_mean("alpha")
    all_invite_max = mean_b + grid_mean("lambda") / 2
    assert (mean_b, all_invite_max, mean_alpha) == (
        Fraction(503, 400),
        Fraction(5937, 4000),
        Fraction(903, 100),
    )
    full = float(mean_alpha)  # power welfare at n = N is alpha

    coincide = [r for r in records if r.cost <= mean_b]
    assert [r.cost for r in coincide] == [1.0, 1.05, 1.1, 1.15, 1.2, 1.25]
    bad = [
        r.cost
        for r in coincide
        if abs(r.robust_welfare - r.bce_predicted) > 1e-9
        or abs(r.robust_welfare - r.bce_realized) > 1e-9
        or abs(r.robust_welfare - full) > 1e-9
    ]
    assert not bad, (
        f"welfare curves differ on {bad}, at or below the prior-mean benefit"
        f" E[b] = 503/400, where all three must equal E[alpha] = {full}"
    )

    split = [r for r in records if mean_b < r.cost <= all_invite_max]
    assert [r.cost for r in split] == [1.3, 1.35, 1.4, 1.45]
    bad = [
        r.cost
        for r in split
        if not r.robust_degenerate
        or abs(r.robust_welfare - full) > 1e-9
        or abs(r.bce_predicted - full) > 1e-9
        or r.bce_realized != 0.0
    ]
    assert not bad, (
        f"on {bad}, between E[b] = 503/400 and E[b] + E[lambda]/2 = 5937/4000,"
        " the robust policy must invite every state, robust and optimistic"
        f" predicted welfare must equal E[alpha] = {full}, and realized"
        " welfare must be 0"
    )
    assert not any(r.robust_degenerate for r in records if r.cost > all_invite_max)


def test_criterion_09_property_suites(tmp_path):
    # potential differences are marginal gains, exhaustively for small games
    rng = np.random.default_rng(11)
    for n_agents in (2, 3, 4, 5):
        for _ in range(5):
            env = Environment(
                n_agents=n_agents,
                labels=("s",),
                prior=np.array([1.0]),
                benefit=rng.uniform(0.0, 3.0, 1),
                complementarity=rng.uniform(0.0, 2.0, 1),
                cost=float(rng.uniform(0.5, 2.5)),
            )
            for n in range(1, n_agents + 1):
                assert potential(env, 0, n) - potential(env, 0, n - 1) == (
                    pytest.approx(marginal_gain(env, 0, n - 1), abs=1e-12)
                )

    # power welfare second differences never dip below zero
    for _ in range(20):
        n = int(rng.integers(2, 8))
        wf = WelfareSpec.power(n, rng.uniform(0.5, 10.0, 1), float(rng.uniform(1, 3)))
        vals = [welfare_value(wf, 0, k) for k in range(n + 1)]
        second = np.diff(vals, 2)
        assert second.min() >= -1e-12

    # sandwich: realized <= robust <= optimistic, 200 random instances
    for _ in range(200):
        env, wf = random_convex_instance(rng)
        rec = compare(env, wf)
        assert rec.bce_realized <= rec.robust_welfare + 1e-9
        assert rec.robust_welfare <= rec.bce_predicted + 1e-9

    # iterated best response agrees with the 2^N brute force
    import itertools

    for _ in range(40):
        env, _ = random_convex_instance(rng)
        if env.n_agents > 4:
            continue
        raw = rng.uniform(0.05, 1.0, env.n_states)
        bel = Belief(raw / raw.sum())
        out = smallest_equilibrium(env, bel)
        brute = set()
        for prof in itertools.product((0, 1), repeat=env.n_agents):
            stable = True
            for i in range(env.n_agents):
                g = expected_gain(env, bel, sum(prof) - prof[i])
                if (prof[i] == 1 and g < 0) or (prof[i] == 0 and g > 0):
                    stable = False
                    break
            if stable:
                brute.add(sum(prof))
        assert out.coop_count == min(brute)
        assert set(out.all_equilibria) <= brute

    # designer work does not grow with the number of agents
    ops = {}
    for n in (3, 10, 1000):
        env = Environment(
            n_agents=n,
            labels=("a", "b", "c"),
            prior=np.array([0.2, 0.5, 0.3]),
            benefit=np.array([0.5, 1.4, 2.2]),
            complementarity=np.array([0.3, 0.4, 0.1]),
            cost=1.5,
        )
        counter = OpCounter()
        design(env, WelfareSpec.power(n, np.array([4.0, 6.0, 9.0]), 1.5), counter=counter)
        ops[n] = counter.ops
    assert ops[3] == ops[10] == ops[1000]

    # repeated runs are byte-identical apart from the manifest timestamp
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--scenario", "case2", "--out", str(a)]) == 0
    assert main(["run", "--scenario", "case2", "--out", str(b)]) == 0
    for pa in sorted(a.iterdir()):
        if pa.name == "manifest.json":
            continue
        assert pa.read_bytes() == (b / pa.name).read_bytes(), pa.name
