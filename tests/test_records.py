"""Record types: immutability, constructor signatures, the op counter."""

import copy
import inspect
import pickle

import numpy as np
import pytest

import robustcoord
from robustcoord import (
    PUBLIC,
    Belief,
    Environment,
    InfeasibleDesignError,
    OpCounter,
    WelfareSpec,
    build_lp,
    build_symmetric_lp,
    certify,
    check_assumptions,
    check_policy,
    compare,
    design,
    design_bce_optimistic,
    equilibrium,
    evaluate_policy_realized,
    load_scenario,
    simplex,
    smallest_equilibrium,
    solve,
    to_sequential_policy,
)

E = inspect.Parameter.empty

# (name, default) of every constructor parameter, in order
SIGNATURES = {
    "AssumptionReport": [
        ("dominance", E),
        ("dominance_witness", E),
        ("convex_welfare", E),
        ("convex_welfare_witness", E),
    ],
    "Belief": [("probs", E)],
    "ComparisonRecord": [
        ("cost", E),
        ("robust_welfare", E),
        ("bce_predicted", E),
        ("bce_realized", E),
        ("theta_star", E),
        ("p_star", E),
        ("bce_threshold", E),
        ("bce_first_full", E),
        ("robust_degenerate", E),
        ("notes", ()),
    ],
    "Environment": [
        ("n_agents", E),
        ("labels", E),
        ("prior", E),
        ("benefit", E),
        ("complementarity", E),
        ("cost", E),
    ],
    "EquilibriumOutcome": [
        ("coop_count", E),
        ("all_equilibria", E),
        ("rounds", E),
        ("expected_welfare", None),
    ],
    "EventOutcome": [
        ("label", E),
        ("probs", E),
        ("posterior", E),
        ("coop_count", E),
        ("welfare_contribution", E),
    ],
    "LinearProgram": [
        ("objective", E),
        ("eq_matrix", E),
        ("ineq_matrix", E),
        ("row_labels", E),
        ("var_names", E),
        ("n_agents", E),
        ("n_states", E),
    ],
    "LpSolution": [
        ("status", E),
        ("value", E),
        ("x", E),
        ("eq_residuals", E),
        ("ineq_slacks", E),
        ("iterations", E),
        ("basis", E),
        ("check", E),
    ],
    "Certificate": [
        ("mu", E),
        ("dual_value", E),
        ("gap", E),
        ("dual_violation", E),
        ("primal_residual", E),
        ("bound_violation", E),
    ],
    "ObedienceReport": [
        ("so_c", E),
        ("so_n", E),
        ("state_mass", E),
        ("feasible", E),
        ("passed", E),
        ("tol", E),
    ],
    "OpCounter": [("ops", 0)],
    "RealizedEvaluation": [
        ("welfare", E),
        ("mode", E),
        ("obedient", E),
        ("events", ()),
    ],
    "Scenario": [
        ("name", E),
        ("env", E),
        ("welfare", E),
        ("modes", E),
        ("sweep_costs", E),
    ],
    "SequentialPolicy": [
        ("n_agents", E),
        ("n_states", E),
        ("entries", None),
        ("uniform_full", None),
    ],
    "ThresholdPolicy": [
        ("scores", E),
        ("order", E),
        ("invite_probs", E),
        ("threshold_state", E),
        ("threshold_label", E),
        ("mixing_weight", E),
        ("expected_welfare", E),
        ("degenerate", E),
        ("warnings", ()),
    ],
    "WelfareSpec": [
        ("kind", E),
        ("n_agents", E),
        ("alpha", None),
        ("beta", 1.0),
        ("table", None),
    ],
    "BasisCheck": [
        ("x", E),
        ("duals_eq", E),
        ("duals_ub", E),
        ("reduced_costs", E),
        ("primal_residual", E),
        ("bound_violation", E),
        ("dual_violation", E),
    ],
    "SimplexResult": [
        ("status", E),
        ("iterations", E),
        ("basis", E),
        ("check", E),
    ],
}


@pytest.mark.parametrize("name", sorted(SIGNATURES))
def test_constructor_signature(name):
    cls = getattr(robustcoord, name, None) or getattr(simplex, name)
    params = inspect.signature(cls).parameters.values()
    assert [(p.name, p.default) for p in params] == SIGNATURES[name]
    assert {p.kind for p in params} == {inspect.Parameter.POSITIONAL_OR_KEYWORD}


def test_only_the_obedience_tolerance_is_a_parameter():
    # every other tolerance is a named constant in env; the obedience one
    # stays settable because --tol sets it
    settable = {
        robustcoord.check_policy: {"tol"},
        robustcoord.evaluate_policy_realized: {"obedience_tol"},
        robustcoord.smallest_equilibrium: set(),
        robustcoord.evaluate_bce_realized: set(),
        robustcoord.sweep_boundaries: set(),
        robustcoord.LpSolution.support: set(),
        equilibrium._chain_walk: set(),
    }
    for fn, names in settable.items():
        params = inspect.signature(fn).parameters
        assert {p for p in params if "tol" in p} == names, fn.__qualname__


def _case1_records():
    """One instance of every immutable record, all from case1."""
    scn = load_scenario("case1")
    env, wf = scn.env, scn.welfare
    tp = design(env, wf)
    pol = to_sequential_policy(tp, env)
    belief = Belief(env.prior)
    public = evaluate_policy_realized(pol, env, wf, mode=PUBLIC)
    prog = build_symmetric_lp(env, wf)
    sol = solve(prog)
    return [
        scn,
        env,
        wf,
        check_assumptions(env, wf),
        tp,
        certify(env, wf, tp),
        pol,
        check_policy(pol, env),
        belief,
        smallest_equilibrium(env, belief, wf),
        public,
        public.events[0],
        prog,
        sol,
        sol.check,
        simplex.solve_min([1.0], None, None, [[1.0]], [1.0]),
        design_bce_optimistic(env, wf),
        compare(env, wf),
    ]


def test_records_refuse_assignment_and_deletion():
    records = _case1_records()
    assert {type(r).__name__ for r in records} == set(SIGNATURES) - {"OpCounter"}
    for rec in records:
        for field, _ in SIGNATURES[type(rec).__name__]:
            value = getattr(rec, field)
            with pytest.raises(AttributeError):
                setattr(rec, field, value)
            with pytest.raises(AttributeError):
                delattr(rec, field)
            assert getattr(rec, field) is value
        with pytest.raises(AttributeError):
            rec.not_a_field = 1


def test_validating_records_repr_their_fields(case1):
    env, wf = case1
    assert repr(Belief([0.25, 0.75])) == "Belief(probs=(0.25, 0.75))"
    assert repr(wf).startswith("WelfareSpec(kind='power', n_agents=3, alpha=(6.0, 12.0),")
    assert repr(env).startswith("Environment(n_agents=3, labels=('L', 'H'), prior=(0.5, 0.5),")


def test_validating_records_copy_and_pickle(case1):
    env, wf = case1
    pol = to_sequential_policy(design(env, wf), env)
    for rec in (env, wf, Belief(env.prior), pol):
        for twin in (copy.deepcopy(rec), pickle.loads(pickle.dumps(rec))):
            assert type(twin) is type(rec)
            assert repr(twin) == repr(rec)


def test_validating_records_own_read_only_arrays():
    prior, benefit, comp = np.array([0.5, 0.5]), np.array([1.0, 2.4]), np.array([0.1, 0.5])
    alpha, table = np.array([6.0, 12.0]), np.array([[0.0, 1.0, 2.0, 6.0]])
    probs = np.array([0.25, 0.75])
    env = Environment(3, ("L", "H"), prior, benefit, comp, 2.0)
    power = WelfareSpec.power(3, alpha, 1.5)
    tabulated = WelfareSpec.tabulated(table)
    belief = Belief(probs)
    for arr in (prior, benefit, comp, alpha, table, probs):
        arr[0] = 7.0  # the caller's arrays stay the caller's
    assert env.prior == (0.5, 0.5) and sum(env.prior) == 1.0
    assert env.benefit[0] == 1.0 and env.complementarity[0] == 0.1
    assert power.alpha[0] == 6.0 and tabulated.table[0][0] == 0.0
    assert belief.probs[0] == 0.25
    twins = (copy.deepcopy(env), pickle.loads(pickle.dumps(env)), env.with_cost(1.0))
    held = [env.prior, env.benefit, env.complementarity, power.alpha]
    held += [tabulated.table, *tabulated.table, belief.probs, *(t.prior for t in twins)]
    for column in held:
        # tuples of plain floats (of rows, for the table): nothing to write
        assert type(column) is tuple
        assert all(type(x) is (tuple if column is tabulated.table else float) for x in column)
        with pytest.raises(TypeError):
            column[0] = 7.0


def test_design_arrays_are_read_only(case1):
    env, wf = case1
    tp = design(env, wf)
    held = [tp.invite_probs, tp.scores, design_bce_optimistic(env, wf).invite_probs]
    with pytest.raises(InfeasibleDesignError):  # no gain
        design_bce_optimistic(env.with_cost(10.0), wf)
    for column in held:
        assert type(column) is tuple and all(type(x) is float for x in column)
        with pytest.raises(TypeError):
            column[0] = 0.9
    q = list(tp.invite_probs)
    q[0] = 0.9  # a writable copy
    assert tp.invite_probs[0] != 0.9


def test_lp_arrays_are_read_only(case1):
    env, wf = case1
    held = []
    for build in (build_lp, build_symmetric_lp):
        prog = build(env, wf)
        sol = solve(prog)
        held += [prog.objective, prog.eq_matrix, prog.ineq_matrix]
        held += [sol.x, sol.eq_residuals, sol.ineq_slacks]
        held += [sol.check.x, sol.check.duals_eq, sol.check.duals_ub, sol.check.reduced_costs]
    res = simplex.solve_min([1.0], None, None, [[1.0]], [1.0])
    held.append(res.basis)
    singular = simplex.check_basis([1.0, 1.0], [[1.0, 1.0]], [1.0], [[1.0, 1.0]], [1.0], [0, 0])
    assert singular.primal_residual == np.inf
    held += [singular.x, singular.duals_eq, singular.duals_ub, singular.reduced_costs]
    for arr in held:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.5


def test_sequential_policy_mappings_are_read_only(case1):
    env, wf = case1
    pol = to_sequential_policy(design(env, wf), env)
    for twin in (pol, copy.deepcopy(pol), pickle.loads(pickle.dumps(pol))):
        assert twin.canonical_items() == pol.canonical_items()
        assert twin.uniform_full == pol.uniform_full
        with pytest.raises(TypeError):
            twin.uniform_full[0] = 5.0
        with pytest.raises(TypeError):
            twin.entries[(0, ())] = 1.0


def test_op_counter_starts_at_zero_and_counts():
    counter = OpCounter()
    assert counter.ops == 0
    counter.tick()
    counter.tick(3)
    assert counter.ops == 4
    assert OpCounter(5).ops == 5
