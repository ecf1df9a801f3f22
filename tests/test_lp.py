"""Exact LP oracle: agreement with the greedy rule, duality, determinism."""

import numpy as np
import pytest

from robustcoord import (
    CapacityError,
    Environment,
    WelfareSpec,
    build_lp,
    check_policy,
    design,
    extract_policy,
    lp_to_text,
    solve,
)

from conftest import random_convex_instance


def test_case1_lp_shape(case1):
    env, wf = case1
    prog = build_lp(env, wf)
    assert prog.n_vars == 32  # 16 ordered sequences per state
    assert prog.eq_matrix.shape == (2, 32)
    assert prog.ineq_matrix.shape == (6, 32)
    assert prog.ineq_senses == (">=", ">=", ">=", "<=", "<=", "<=")
    assert prog.row_labels[0] == "mass[L]"
    assert prog.row_labels[2] == "obey_invited[0]"
    assert prog.row_labels[5] == "stay_out[0]"


def test_case1_lp_value_matches_design(case1):
    env, wf = case1
    sol = solve(build_lp(env, wf))
    assert sol.status == "OPTIMAL"
    want = 0.5 * 12.0 + 0.5 * (1.95 / 2.85) * 6.0
    assert sol.value == pytest.approx(want, abs=1e-9)
    assert sol.value == pytest.approx(design(env, wf).expected_welfare, abs=1e-9)


def test_case1_lp_solution_is_feasible_policy(case1):
    env, wf = case1
    prog = build_lp(env, wf)
    sol = solve(prog)
    pol = extract_policy(prog, sol)
    report = check_policy(pol, env)
    assert report.passed, report.to_dict()
    assert np.abs(sol.eq_residuals).max() <= 1e-9


def test_example3_lp_value_zero(example3):
    env, wf = example3
    sol = solve(build_lp(env, wf))
    assert sol.status == "OPTIMAL"
    assert sol.value == pytest.approx(0.0, abs=1e-12)


def test_all_empty_policy_feasible_when_nothing_works():
    # SO-N already holds when pooling cannot motivate anyone; value is 0
    env = Environment(
        n_agents=3,
        labels=("u", "v"),
        prior=np.array([0.5, 0.5]),
        benefit=np.array([0.2, 0.4]),
        complementarity=np.array([0.0, 0.1]),
        cost=1.0,
    )
    wf = WelfareSpec.power(3, np.array([1.0, 1.0]), 1.0)
    sol = solve(build_lp(env, wf))
    assert sol.status == "OPTIMAL"
    assert sol.value == pytest.approx(0.0, abs=1e-12)


def test_duality_certificates(case1):
    env, wf = case1
    prog = build_lp(env, wf)
    sol = solve(prog)
    # strong duality: mass rows carry rhs 1, obedience rows rhs 0
    assert float(sol.duals_eq.sum()) == pytest.approx(sol.value, abs=1e-7)
    # complementary slackness on both sides
    assert float(np.abs(sol.ineq_slacks * sol.duals_ineq).max()) <= 1e-7
    assert float(np.abs(sol.x * sol.reduced_costs).max()) <= 1e-7
    # maximization reading: >= rows price nonpositive, <= rows nonnegative...
    # here all obedience duals push welfare down, so just check signs pair up
    ge = sol.duals_ineq[:3]
    le = sol.duals_ineq[3:]
    assert (ge <= 1e-9).all()
    assert (le >= -1e-9).all()


def test_solve_is_deterministic(case1):
    env, wf = case1
    prog = build_lp(env, wf)
    a, b = solve(prog), solve(prog)
    assert a.iterations == b.iterations
    assert a.basis == b.basis
    assert np.array_equal(a.x, b.x)


def test_capacity_guard(case2):
    env, wf = case2
    with pytest.raises(CapacityError, match="cap"):
        build_lp(env, wf)


def test_random_instances_match_greedy():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(30):
        env, wf = random_convex_instance(rng)
        tp = design(env, wf)
        sol = solve(build_lp(env, wf))
        assert sol.status == "OPTIMAL"
        worst = max(worst, abs(sol.value - tp.expected_welfare))
    assert worst <= 1e-6


def test_lp_to_text(case1):
    env, wf = case1
    text = lp_to_text(build_lp(env, wf))
    assert "mass[L]" in text and "stay_out[2]" in text
    assert text.startswith("max ")
    assert "pi[1|0,1]" in text
