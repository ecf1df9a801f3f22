"""Exact LP oracle: agreement with the greedy rule and its dual certificate,
duality, determinism."""

import tracemalloc

import numpy as np
import pytest

from robustcoord import (
    CapacityError,
    Environment,
    WelfareSpec,
    build_lp,
    build_scenario,
    build_symmetric_lp,
    certify,
    check_policy,
    design,
    extract_policy,
    load_scenario,
    marginal_gain,
    solve,
)
from robustcoord import simplex
from robustcoord.simplex import CERT_TOL, check_basis

from conftest import random_convex_instance

# Three states, six agents: under pure Bland pricing the explicit LP (5,871
# columns) drifted here over 23,781 pivots, to a false OPTIMAL at 9.3015 read
# off the tableau (above the all-invite ceiling of 9.3) and a singular basis.
LP_N6 = {
    "schema": 1,
    "name": "lp-n6",
    "n_agents": 6,
    "states": [
        {"label": "s0", "prob": 0.3, "b": 1.0, "lambda": 0.3, "alpha": 6.0},
        {"label": "s1", "prob": 0.3, "b": 1.8, "lambda": 0.6, "alpha": 9.0},
        {"label": "s2", "prob": 0.4, "b": 2.5, "lambda": 0.9, "alpha": 12.0},
    ],
    "cost": 2.0,
    "beta": 1.5,
    "modes": ["lp"],
}


def _residuals(sol):
    return (sol.check.primal_residual, sol.check.bound_violation, sol.check.dual_violation)


def test_case1_lp_shape(case1):
    env, wf = case1
    prog = build_lp(env, wf)
    assert prog.n_vars == 32  # 16 ordered sequences per state
    assert prog.eq_matrix.shape == (2, 32)
    assert prog.ineq_matrix.shape == (6, 32)
    # pi[1|0]: in state H agent 0 alone is invited, agents 1 and 2 stay out;
    # the invited row is stored negated, as solve_min takes it
    j = prog.var_names.index("pi[1|0]")
    invited, stay_out = (env.prior[1] * marginal_gain(env, 1, k) for k in (0, 1))
    want = [-invited, 0.0, 0.0, 0.0, stay_out, stay_out]
    assert prog.ineq_matrix[:, j] == pytest.approx(want, abs=1e-15)
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
    assert report.passed, report
    assert np.abs(sol.eq_residuals).max() <= 1e-9


@pytest.mark.parametrize("which", ["case1", "lp-n6"])
def test_lp_rows_are_the_obedience_values(case1, which):
    """At the explicit LP's optimum, the invited rows (stored negated) are
    check_policy's SO-C values and the stay-out rows its SO-N values."""
    if which == "case1":
        env, wf = case1
    else:
        scn = build_scenario(LP_N6)
        env, wf = scn.env, scn.welfare
    prog = build_lp(env, wf)
    sol = solve(prog)
    assert sol.status == "OPTIMAL"
    report = check_policy(extract_policy(prog, sol), env)
    n = env.n_agents
    assert -(prog.ineq_matrix[:n] @ sol.x) == pytest.approx(report.so_c, abs=1e-12)
    assert prog.ineq_matrix[n:] @ sol.x == pytest.approx(report.so_n, abs=1e-12)


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
    check = sol.check  # solve_min's reading: minimize -objective
    # strong duality: mass rows carry rhs 1, obedience rows rhs 0
    assert float(check.duals_eq.sum()) == pytest.approx(-sol.value, abs=1e-7)
    # complementary slackness on both sides
    assert float(np.abs(sol.ineq_slacks * check.duals_ub).max()) <= 1e-7
    assert float(np.abs(sol.x * check.reduced_costs).max()) <= 1e-7
    # every obedience row is stored as <= 0, and a minimization prices each
    # such row nonpositive (its slack's reduced cost is -dual >= 0)
    assert (check.duals_ub <= 1e-9).all()


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


def _certificate_instances():
    for name in ("case1", "case2"):
        scn = load_scenario(name)
        yield name, scn.env, scn.welfare
    scn = build_scenario(LP_N6)
    yield "lp-n6", scn.env, scn.welfare
    rng = np.random.default_rng(42)  # test_random_instances_match_greedy's 30
    for i in range(30):
        yield i, *random_convex_instance(rng)


def test_certificate_is_the_symmetric_simplex_dual():
    count = 0
    for name, env, wf in _certificate_instances():
        cert = certify(env, wf, design(env, wf))
        sol = solve(build_symmetric_lp(env, wf))
        assert cert.passed and sol.status == "OPTIMAL", name
        # the simplex prices the invited row, potential / N, at N * mu
        nu = -float(sol.check.duals_ub[0])
        assert env.n_agents * cert.mu == pytest.approx(nu, rel=1e-12, abs=1e-12), name
        assert cert.dual_value == pytest.approx(sol.value, rel=1e-12), name
        count += 1
    assert count == 33


def test_certificate_reports_non_convex_welfare():
    # a third of the agents already buy most of state L's welfare, above the
    # chord: the LP does better than inviting all or none, and the
    # certificate says so instead of closing
    env = load_scenario("case1").env
    wf = WelfareSpec.tabulated([[0.0, 5.0, 5.5, 6.0], [0.0, 4.0, 8.0, 12.0]])
    tp = design(env, wf)
    cert = certify(env, wf, tp)
    assert not cert.passed
    assert max(cert.gap, cert.dual_violation) > CERT_TOL
    # tabulated welfare has every size priced: L at one cooperator costs
    # 1/2 * (5 + 40/19 * potential -1) = 55/38 above its dual, 0
    assert cert.dual_violation == pytest.approx(55 / 38, rel=1e-12)
    sol = solve(build_symmetric_lp(env, wf))
    assert sol.status == "OPTIMAL"
    assert sol.value > tp.expected_welfare + 0.5


def test_lp_row_and_column_names(case1):
    """The program names its rows and variables: a reader of the LP needs no text dump."""
    env, wf = case1
    prog = build_lp(env, wf)
    assert len(prog.row_labels) == prog.eq_matrix.shape[0] + prog.ineq_matrix.shape[0]
    assert prog.row_labels[0] == "mass[L]"
    assert prog.row_labels[-1] == "stay_out[2]"
    assert len(prog.var_names) == len(prog.objective) == prog.n_vars
    assert prog.var_names[:2] == ("pi[0|-]", "pi[0|0]")
    assert "pi[1|0,1]" in prog.var_names
    assert np.count_nonzero(prog.objective) > 0


def test_lp_n6_explicit_lp_is_certified():
    scn = build_scenario(LP_N6)
    prog = build_lp(scn.env, scn.welfare)
    sol = solve(prog)
    assert sol.status == "OPTIMAL"
    assert sol.iterations == 8  # pure Bland pricing took 23,781
    assert sol.value == pytest.approx(9.3, abs=1e-9)
    assert sol.value == pytest.approx(design(scn.env, scn.welfare).expected_welfare, abs=1e-9)
    assert np.abs(prog.eq_matrix @ sol.x - 1.0).max() <= 1e-9
    assert max(_residuals(sol)) <= CERT_TOL


def test_lp_n6_symmetric_lp_matches_design():
    scn = build_scenario(LP_N6)
    prog = build_symmetric_lp(scn.env, scn.welfare)
    sol = solve(prog)
    assert sol.status == "OPTIMAL"
    assert sol.value == pytest.approx(9.3, abs=1e-9)  # every state invited
    assert sol.value == pytest.approx(design(scn.env, scn.welfare).expected_welfare, abs=1e-9)
    assert np.abs(prog.eq_matrix @ sol.x - 1.0).max() <= 1e-9
    assert max(_residuals(sol)) <= CERT_TOL


def test_case2_symmetric_lp_pivot_count(case2):
    env, wf = case2
    sol = solve(build_symmetric_lp(env, wf))
    assert sol.status == "OPTIMAL"
    assert sol.iterations == 145  # pure Bland pricing took 2,509


def test_case2_solve_never_holds_tableau_and_stacked_rows_together(case2):
    # the tableau is freed before the basis check stacks the original rows,
    # so the solve's peak above the program's own arrays stays below both
    env, wf = case2
    prog = build_symmetric_lp(env, wf)
    m_eq, m_ub = len(prog.eq_matrix), len(prog.ineq_matrix)
    rows = (m_eq + m_ub) * prog.n_vars * 8
    tableau = (m_eq + m_ub + 1) * (prog.n_vars + m_ub + m_eq + 1) * 8
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        sol = solve(prog)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert sol.iterations == 145
    assert peak < tableau + rows


def _dense_pivot(T, basis, row, col):
    """Reference pivot: the rank-1 update over every column."""
    T[row] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= np.outer(factors, T[row])
    basis[row] = col


def test_sparse_pivot_matches_dense_update():
    rng = np.random.default_rng(0)
    zero_factors = 0  # rows the sparse pivot skips for a zero in the pivot column
    for _ in range(20):
        m, n = rng.integers(2, 12), rng.integers(3, 40)
        T = rng.normal(size=(m + 1, n + 1))
        T[rng.random(T.shape) < 0.8] = 0.0  # exact zeros, as in the obedience rows
        basis = np.arange(m)
        dense, dense_basis = T.copy(), basis.copy()
        for _ in range(10):
            row = int(rng.integers(m))
            nonzero = np.flatnonzero(np.abs(T[row, :n]) > 1e-3)
            if nonzero.size == 0:
                continue
            col = int(rng.choice(nonzero))
            zero_factors += int(np.count_nonzero(T[:, col] == 0.0))
            # a second pivot on the same cell finds a unit column: every
            # other row's factor is an exact zero
            for _ in range(2):
                simplex.pivot(T, basis, row, col)
                _dense_pivot(dense, dense_basis, row, col)
                assert np.array_equal(T, dense)  # equal up to the sign of a zero
                assert np.array_equal(basis, dense_basis)
    assert zero_factors > 500


def test_degenerate_cycle_terminates():
    # Beale's (1955) program: most-negative pricing with lowest-index ratio
    # ties cycles through six degenerate bases at x = 0, forever
    c = np.array([-0.75, 150.0, -0.02, 6.0])
    A_ub = np.array(
        [
            [0.25, -60.0, -0.04, 9.0],
            [0.5, -90.0, -0.02, 3.0],
            [0.0, 0.0, 1.0, 0.0],
        ]
    )
    b_ub = np.array([0.0, 0.0, 1.0])
    res = simplex.solve_min(c, None, None, A_ub, b_ub)
    assert res.status == "OPTIMAL"
    assert res.check.passed
    assert res.check.x == pytest.approx([1 / 25, 0.0, 1.0, 0.0], abs=1e-12)
    assert float(c @ res.check.x) == pytest.approx(-1 / 20, abs=1e-12)


def test_solve_min_infeasible_program():
    # min x  s.t.  x = 1,  x <= 0
    res = simplex.solve_min([1.0], [[1.0]], [1.0], [[1.0]], [0.0])
    assert res.status == "INFEASIBLE"
    assert not res.check.passed


def test_solve_min_unbounded_program_raises():
    # min -x  s.t.  -x <= 0
    with pytest.raises(RuntimeError, match="unbounded"):
        simplex.solve_min([-1.0], None, None, [[-1.0]], [0.0])


@pytest.mark.parametrize("phase", [1, 2])
def test_iteration_limit_is_reported(monkeypatch, case1, phase):
    env, wf = case1
    real = simplex.pivot_loop

    def run_out(T, basis, active_cols, maxiter):
        in_phase2 = active_cols < T.shape[1] - 1  # artificials shut out
        if in_phase2 == (phase == 2):
            return "ITERATION_LIMIT", maxiter
        return real(T, basis, active_cols, maxiter)

    monkeypatch.setattr(simplex, "pivot_loop", run_out)
    sol = solve(build_symmetric_lp(env, wf))
    assert sol.status == "ITERATION_LIMIT"


@pytest.mark.parametrize(
    "rows",
    [
        (None, None, [[-1.0]], [-1.0]),  # x >= 1 written as -x <= -1
        ([[1.0]], [-1.0], None, None),
    ],
)
def test_negative_right_hand_side_rejected(rows):
    with pytest.raises(ValueError, match="nonnegative"):
        simplex.solve_min([1.0], *rows)
    with pytest.raises(ValueError, match="nonnegative"):
        check_basis([1.0], *rows, [0])


def test_check_basis_passes_only_the_optimal_basis(case1):
    env, wf = case1
    prog = build_symmetric_lp(env, wf)
    form = (
        -prog.objective,
        prog.eq_matrix,
        np.ones(len(prog.eq_matrix)),
        prog.ineq_matrix,
        np.zeros(len(prog.ineq_matrix)),
    )
    good = check_basis(*form, solve(prog).basis)
    assert good.passed
    assert float(prog.objective @ good.x) == pytest.approx(8.052631578947368, abs=1e-12)
    # columns: p[L, 0..3] = 0..3, p[H, 0..3] = 4..7, slacks of the invited and
    # stay-out rows = 8, 9, artificials of the two mass rows = 10, 11
    nobody = check_basis(*form, [0, 4, 8, 9])  # feasible, welfare 0
    assert nobody.primal_residual <= CERT_TOL and nobody.bound_violation == 0.0
    assert nobody.dual_violation > 1.0
    assert not nobody.passed
    start = check_basis(*form, [10, 11, 8, 9])  # phase 1's start: mass rows unmet
    assert start.primal_residual == pytest.approx(1.0)
    assert not start.passed
    singular = check_basis(*form, [0, 0, 8, 9])
    assert singular.primal_residual == np.inf and not singular.passed


def test_premature_optimal_tableau_gives_numerical(monkeypatch, case1):
    env, wf = case1
    prog = build_symmetric_lp(env, wf)
    real = simplex.pivot_loop

    def stop_in_phase2(T, basis, active_cols, maxiter):
        if active_cols < T.shape[1] - 1:  # phase 2 shuts out the artificials
            return "OPTIMAL", 0  # claim optimality at phase 1's basis
        return real(T, basis, active_cols, maxiter)

    monkeypatch.setattr(simplex, "pivot_loop", stop_in_phase2)
    sol = solve(prog)
    assert sol.status == "NUMERICAL"
    assert sol.check.dual_violation > CERT_TOL
    assert sol.check.primal_residual <= CERT_TOL


def test_drifted_tableau_values_are_recomputed(monkeypatch, case1):
    env, wf = case1
    prog = build_symmetric_lp(env, wf)
    clean = solve(prog)
    real = simplex.pivot_loop

    def drift(T, basis, active_cols, maxiter):
        code, it = real(T, basis, active_cols, maxiter)
        if active_cols < T.shape[1] - 1:
            T[:, -1] += 1e-4  # rhs column and objective value off, basis kept
        return code, it

    monkeypatch.setattr(simplex, "pivot_loop", drift)
    sol = solve(prog)
    assert sol.status == "OPTIMAL"
    assert sol.basis == clean.basis
    assert np.array_equal(sol.x, clean.x)
    assert sol.value == clean.value == pytest.approx(8.052631578947368, abs=1e-12)


def test_symmetric_lp_shape(case1):
    env, wf = case1
    prog = build_symmetric_lp(env, wf)
    assert prog.n_vars == 8  # sizes 0..3 per state
    assert prog.var_names[:5] == ("p[0|0]", "p[0|1]", "p[0|2]", "p[0|3]", "p[1|0]")
    assert prog.eq_matrix.shape == (2, 8) and prog.ineq_matrix.shape == (2, 8)
    assert prog.row_labels == ("mass[L]", "mass[H]", "obey_invited", "stay_out")
    # state L: prior 0.5, b - c = -1, lambda = 0.1, N = 3
    gains = [-1.0, -0.95, -0.9]
    invited = [0.5 * sum(gains[:k]) / 3 for k in range(4)]
    stay_out = [0.5 * (3 - k) / 3 * gains[k] for k in range(3)] + [0.0]
    assert -prog.ineq_matrix[0, :4] == pytest.approx(invited, abs=1e-15)
    assert prog.ineq_matrix[1, :4] == pytest.approx(stay_out, abs=1e-15)
    assert prog.objective[:4] == pytest.approx(
        [0.5 * 6.0 * (k / 3) ** 1.5 for k in range(4)], abs=1e-15
    )
    assert prog.var_names[-1] == "p[1|3]"
    with pytest.raises(ValueError, match="explicit LP"):
        extract_policy(prog, solve(prog))


def test_symmetric_lp_matches_explicit_lp():
    rng = np.random.default_rng(11)
    worst = 0.0
    for n_agents, count in ((2, 10), (3, 10), (4, 10), (5, 10), (6, 3)):
        for _ in range(count):
            env, wf = random_convex_instance(rng, n_agents=n_agents)
            sym, full = solve(build_symmetric_lp(env, wf)), solve(build_lp(env, wf))
            assert sym.status == full.status == "OPTIMAL"
            worst = max(worst, abs(sym.value - full.value))
    assert worst <= 1e-9


def test_symmetric_lp_matches_design():
    rng = np.random.default_rng(2013)
    worst = 0.0
    count = 0
    for n_agents in range(2, 13):
        for n_states in range(1, 7):
            for _ in range(4):
                env, wf = random_convex_instance(rng, n_agents, n_states)
                sol = solve(build_symmetric_lp(env, wf))
                assert sol.status == "OPTIMAL"
                assert max(_residuals(sol)) <= CERT_TOL
                worst = max(worst, abs(sol.value - design(env, wf).expected_welfare))
                count += 1
    assert count >= 200
    assert worst <= 1e-9


def test_symmetric_lp_capacity_guard(case2):
    env, wf = case2
    assert build_symmetric_lp(env, wf).n_vars == 1100
    n_states = 2000
    wide = Environment(
        n_agents=20,
        labels=tuple(str(s) for s in range(n_states)),
        prior=np.full(n_states, 1.0 / n_states),
        benefit=np.linspace(0.5, 2.0, n_states),
        complementarity=np.linspace(0.1, 0.8, n_states),
        cost=2.0,
    )
    wide_wf = WelfareSpec.power(20, np.linspace(6.0, 12.0, n_states), 1.5)
    with pytest.raises(CapacityError, match="cell cap"):
        build_symmetric_lp(wide, wide_wf)
