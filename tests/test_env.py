"""Environment primitives: utilities, gains, potentials, welfare, assumptions,
and the package's named tolerances."""

import ast
import math
import random
import re
from pathlib import Path

import numpy as np
import pytest

import robustcoord
from robustcoord import (
    AssumptionReport,
    Environment,
    WelfareSpec,
    check_assumptions,
    marginal_gain,
    potential,
    welfare_value,
)
from robustcoord.env import as_number, welfare_column


def utility(env, agent, profile, state):
    """Payoff of ``agent`` under a full binary action profile, straight from
    the model's definition: the reference for the gains and the potential."""
    n_others = sum(profile) - profile[agent]
    comp = env.complementarity[state] * n_others / (env.n_agents - 1)
    return float(profile[agent] * (env.benefit[state] + comp - env.cost))


def test_case1_utilities(case1):
    env, _ = case1
    # lone cooperator in the strong state keeps the dominance margin
    assert utility(env, 0, (1, 0, 0), 1) == pytest.approx(0.4, abs=1e-12)
    # full cooperation in the weak state still loses money
    assert utility(env, 0, (1, 1, 1), 0) == pytest.approx(-0.9, abs=1e-12)
    # defectors earn exactly zero
    assert utility(env, 2, (1, 1, 0), 0) == 0.0


def test_case1_marginal_gains(case1):
    env, _ = case1
    assert marginal_gain(env, 0, 1) == pytest.approx(-0.95, abs=1e-12)
    assert marginal_gain(env, 1, 0) == pytest.approx(0.4, abs=1e-12)
    with pytest.raises(ValueError, match="count"):
        marginal_gain(env, 0, 3)
    with pytest.raises(ValueError, match="count"):
        marginal_gain(env, 0, -1)
    for state in (-1, 2):  # -1 would read state H's gain
        with pytest.raises(ValueError, match=f"state {state} out of range"):
            marginal_gain(env, state, 0)


def test_case1_potentials(case1):
    env, _ = case1
    assert abs(potential(env, 0, 3) - (-2.85)) <= 1e-12
    assert abs(potential(env, 1, 3) - 1.95) <= 1e-12
    assert potential(env, 0, 0) == 0.0
    for state in (-1, 2):  # -1 would read state H's potential
        with pytest.raises(ValueError, match=f"state {state} out of range"):
            potential(env, state, 3)


def test_potential_difference_identity():
    # F(n) - F(n-1) must equal the n-th joiner's gain, for every small game
    rng = np.random.default_rng(7)
    for n_agents in range(2, 6):
        for _ in range(20):
            env = Environment(
                n_agents=n_agents,
                labels=("x",),
                prior=np.array([1.0]),
                benefit=np.array([rng.uniform(-2, 3)]),
                complementarity=np.array([rng.uniform(0, 2)]),
                cost=float(rng.uniform(0, 3)),
            )
            for n in range(1, n_agents + 1):
                diff = potential(env, 0, n) - potential(env, 0, n - 1)
                assert diff == pytest.approx(marginal_gain(env, 0, n - 1), abs=1e-12)
                # agent 0 joining n - 1 cooperators, from the payoffs
                others = (1,) * (n - 1) + (0,) * (n_agents - n)
                gain = utility(env, 0, (1, *others), 0) - utility(env, 0, (0, *others), 0)
                assert gain == pytest.approx(marginal_gain(env, 0, n - 1), abs=1e-12)


def test_power_welfare_values(case1):
    _, wf = case1
    assert welfare_value(wf, 1, 2) == pytest.approx(6.531972647421808, abs=1e-12)
    assert welfare_value(wf, 0, 0) == 0.0
    assert welfare_value(wf, 1, 3) == pytest.approx(12.0, abs=1e-12)
    with pytest.raises(ValueError, match="n must be"):
        welfare_value(wf, 0, 4)


def test_tabulated_welfare_lookup():
    wf = WelfareSpec.tabulated(np.array([[0.0, 0.5, 2.0, 6.0]]))
    assert wf.n_agents == 3
    assert welfare_value(wf, 0, 2) == 2.0
    assert welfare_value(wf, 0, 3) == 6.0


def test_welfare_validation():
    with pytest.raises(ValueError, match="alpha"):
        WelfareSpec.power(3, np.array([0.0]), 1.5)
    with pytest.raises(ValueError, match="beta"):
        WelfareSpec.power(3, np.array([1.0]), 0.9)
    with pytest.raises(ValueError, match="zero"):
        WelfareSpec.tabulated(np.array([[1.0, 2.0, 3.0, 4.0]]))
    with pytest.raises(ValueError, match="increasing"):
        WelfareSpec.tabulated(np.array([[0.0, 2.0, 1.0, 4.0]]))


@pytest.mark.parametrize(
    "make",
    [
        lambda: WelfareSpec.power(0, [1.0], 1.5),
        lambda: WelfareSpec.power(1, [1.0], 1.5),
        lambda: WelfareSpec.power(3, [], 1.5),
        lambda: WelfareSpec.tabulated([[0.0, 1.0]]),
        lambda: WelfareSpec.tabulated([]),
        lambda: WelfareSpec("tabulated", 3, table=[]),
    ],
    ids=[
        "power-0-agents",
        "power-1-agent",
        "power-no-state",
        "table-1-agent",
        "table-empty",
        "table-no-state",
    ],
)
def test_welfare_counts_are_checked_alike_for_both_kinds(make):
    # as Environment: at least 2 agents and 1 state, whatever the kind; a
    # power spec for 0 agents used to divide by zero in welfare_value
    with pytest.raises(ValueError, match=r"^welfare needs n_agents >= 2 and >= 1 state, got "):
        make()


@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        # V(1) = 12 (1/3)^0.5 = 6.93 lies above the chord's 4: not convex
        (("power", 3), dict(alpha=(6.0, 12.0), beta=0.5), "beta >= 1"),
        (("power", 3), dict(alpha=(6.0, 0.0)), "alpha > 0"),
        (("power", 3), dict(alpha=(6.0, -1.0), beta=1.5), "alpha > 0"),
        (("tabulated", 3), dict(table=((0.0, 1.0, 2.0),)), "n_agents \\+ 1"),
        (("tabulated", 2), dict(table=((0.0, 1.0, 2.0, 3.0),)), "n_agents \\+ 1"),
        (("tabulated", 3), dict(table=((0.0, 1.0, 2.0, 3.0), (0.0, 1.0))), "n_agents \\+ 1"),
        (("tabulated", 3), dict(table=((0.0, 3.0, 2.0, 3.0),)), "increasing"),
        (("tabulated", 3), dict(table=((1.0, 1.0, 2.0, 3.0),)), "zero"),
        (("convex", 3), dict(alpha=(6.0, 12.0), beta=1.5), "kind must be"),
    ],
    ids=[
        "beta-below-1",
        "alpha-zero",
        "alpha-negative",
        "table-narrow",
        "table-wide",
        "table-ragged",
        "table-decreasing",
        "table-nonzero-at-0",
        "unknown-kind",
    ],
)
def test_welfare_constructor_validates(args, kwargs, message):
    # the constructor itself, not only power and tabulated, checks its input
    with pytest.raises(ValueError, match=message):
        WelfareSpec(*args, **kwargs)


def test_welfare_constructor_copies_like_its_shorthands():
    power = WelfareSpec("power", 3, [6, 12.0], 1.5)
    assert repr(power) == repr(WelfareSpec.power(3, (6.0, 12.0), 1.5))
    table = [[0, 1, 2, 6]]
    assert repr(WelfareSpec("tabulated", 3, table=table)) == repr(WelfareSpec.tabulated(table))


def test_welfare_spec_keeps_no_list_of_its_caller():
    # the field a kind does not use is stored as None, not as the caller's object
    alpha, table = [6.0, 12.0], [[0.0, 1.0, 2.0, 6.0]]
    tabulated = WelfareSpec("tabulated", 3, alpha=alpha, table=table)
    power = WelfareSpec("power", 3, alpha, 1.5, table=table)
    alpha.append(9.0)
    table.append([0.0, 0.0, 0.0, 0.0])
    assert tabulated.alpha is None and tabulated.beta is None and power.table is None
    assert power.alpha == (6.0, 12.0) and tabulated.table == ((0.0, 1.0, 2.0, 6.0),)
    assert tabulated.n_states == 1 and power.n_states == 2


def test_environment_validation():
    base = dict(
        labels=("a", "b"),
        prior=np.array([0.5, 0.5]),
        benefit=np.array([1.0, 2.0]),
        complementarity=np.array([0.1, 0.2]),
        cost=1.0,
    )
    with pytest.raises(ValueError, match="n_agents"):
        Environment(n_agents=1, **base)
    bad = dict(base, prior=np.array([0.5, 0.4]))
    with pytest.raises(ValueError, match="prior must sum to 1"):
        Environment(n_agents=3, **bad)
    bad = dict(base, prior=np.array([0.5, 0.75]))
    with pytest.raises(ValueError) as err:
        Environment(n_agents=3, **bad)
    assert str(err.value) == "prior must sum to 1, got 1.25"  # not np.float64(1.25)
    bad = dict(base, complementarity=np.array([0.1, -0.2]))
    with pytest.raises(ValueError, match="nonnegative, state 1"):
        Environment(n_agents=3, **bad)
    bad = dict(base, benefit=np.array([1.0]))
    with pytest.raises(ValueError, match="shape"):
        Environment(n_agents=3, **bad)
    bad = dict(base, cost=float("nan"))
    with pytest.raises(ValueError, match="finite"):
        Environment(n_agents=3, **bad)


@pytest.mark.parametrize("n_agents", [3.7, "3", True, None])
def test_agent_count_must_be_a_whole_number(n_agents):
    # int() would keep 3 of 3.7 and 1 of True; nothing is truncated
    with pytest.raises(ValueError, match=re.escape("n_agents: expected a")):
        Environment(n_agents, ("a",), [1.0], [2.0], [0.1], 1.0)
    with pytest.raises(ValueError, match=re.escape("n_agents: expected a")):
        WelfareSpec.power(n_agents, [1.0], 1.5)


@pytest.mark.parametrize("cost", ["2", True, None])
def test_cost_must_be_a_number(cost):
    # float() would read "2" as 2.0 and True as 1.0
    with pytest.raises(ValueError, match=re.escape("cost: expected a number, got")):
        Environment(3, ("a",), [1.0], [2.0], [0.1], cost)


@pytest.mark.parametrize("cost", ["1.5", False])
def test_with_cost_must_be_given_a_number(cost):
    env = Environment(3, ("a",), [1.0], [2.0], [0.1], 1.0)
    with pytest.raises(ValueError, match=re.escape("cost: expected a number, got")):
        env.with_cost(cost)


@pytest.mark.parametrize("beta", ["1.5", True, None])
def test_power_beta_must_be_a_number(beta):
    # a string used to reach math.isfinite and raise TypeError
    with pytest.raises(ValueError, match=re.escape("beta: expected a number, got")):
        WelfareSpec.power(3, [1.0, 2.0], beta)


def test_whole_float_and_numpy_agent_counts_are_read_as_ints():
    for n in (3.0, np.int64(3), np.float64(3.0)):
        env = Environment(n, ("a",), [1.0], [2.0], [0.1], 1.0)
        wf = WelfareSpec.power(n, [1.0], 1.5)
        assert type(env.n_agents) is type(wf.n_agents) is int
        assert env.n_agents == wf.n_agents == 3


def test_as_number_reads_numpy_scalars_as_real_numbers():
    half, three = as_number(np.float32(0.5), "x"), as_number(np.int64(3), "x", int)
    assert (half, three) == (0.5, 3) and (type(half), type(three)) == (float, int)
    with pytest.raises(ValueError, match=re.escape("x: expected a number, got")):
        as_number(np.bool_(True), "x")
    with pytest.raises(ValueError, match=re.escape("x: expected an integer, got")):
        as_number(np.float64(2.5), "x", int)


def test_as_number_returns_a_number_of_its_kind_as_is():
    # a float for a float, an int for an int: the value itself, and every
    # other input still converts through the checks (an int read as a float,
    # a whole float read as an int, a numpy float64 that subclasses float)
    x, big, nan = 0.1, 10**400, math.nan
    assert as_number(x, "x") is x and as_number(big, "x", int) is big
    assert as_number(nan, "x") is nan
    assert type(as_number(3, "x")) is float and type(as_number(3.0, "x", int)) is int
    assert type(as_number(np.float64(0.25), "x")) is float
    for flag in (True, False):
        for kind in (float, int):
            with pytest.raises(ValueError, match="expected a number"):
                as_number(flag, "x", kind)
    with pytest.raises(ValueError, match="expected an integer"):
        as_number(2.5, "x", int)


# a per-state value that is not a number, by the column and index its error names
NOT_NUMBERS = {
    "benefit[0]": lambda: Environment(3, "ab", [0.5, 0.5], [True, "3.0"], [0.1, 0.2], 1.0),
    "prior[0]": lambda: Environment(3, "ab", ["0.5", 0.5], [1.0, 3.0], [0.1, 0.2], 1.0),
    "complementarity[1]": lambda: Environment(3, "ab", [0.5, 0.5], [1.0, 3.0], [0.1, None], 1.0),
    "alpha[0]": lambda: WelfareSpec.power(3, ["1", True], 1.5),
    "alpha[1]": lambda: WelfareSpec.power(3, [1.0, True], 1.5),
    "table[1][0]": lambda: WelfareSpec.tabulated([[0.0, 1.0, 2.0, 3.0], ["0", 1.0, 2.0, 3.0]]),
    "table[0][2]": lambda: WelfareSpec.tabulated([[0.0, 1.0, True, 3.0]]),
}


@pytest.mark.parametrize("where", list(NOT_NUMBERS))
def test_per_state_columns_must_be_numbers(where):
    # float() would read "3.0" as 3.0 and True as 1.0, as cost and beta once did
    with pytest.raises(ValueError, match=re.escape(f"{where}: expected a number, got")):
        NOT_NUMBERS[where]()


def test_per_state_columns_read_numpy_scalars_as_floats():
    env = Environment(3, "ab", [np.float32(0.5), 0.5], [np.int64(1), 3.0], [0.1, 0.2], 1.0)
    table = WelfareSpec.tabulated([[np.int64(0), 1.0, np.float64(2.0), 3.0]]).table
    alpha = WelfareSpec.power(3, np.array([1.0, 2.0]), 1.5).alpha
    for column in (env.prior, env.benefit, table[0], alpha):
        assert type(column) is tuple and {type(v) for v in column} == {float}
    assert env.benefit == (1.0, 3.0) and table == ((0.0, 1.0, 2.0, 3.0),)


@pytest.mark.parametrize(
    "benefit, comp, message",
    [
        ([1.0, 1e308], [0.1, 0.5], "state 1 (b): the potential at N overflows to inf"),
        ([1.0, 2.0], [1e308, 0.5], "state 0 (a): the potential at N overflows to inf"),
        # the gain at N - 1 overflows too, and the potential at N always with it
        ([1.0, 1e308], [0.1, 1e308], "state 1 (b): the potential at N overflows to inf"),
        ([-1e308, 1.0], [0.1, 0.5], "state 0 (a): the potential at N overflows to -inf"),
        ([-1e308, 1.0], [1e308, 0.5], "state 0 (a): the potential at N overflows to nan"),
    ],
)
def test_overflowing_primitives_rejected(benefit, comp, message, recwarn):
    with pytest.raises(ValueError, match=re.escape(message)):
        Environment(3, ("a", "b"), [0.5, 0.5], benefit, comp, cost=2.0)
    assert not recwarn.list  # the overflow is computed silently, then named


def test_with_cost_rejects_a_cost_that_overflows(recwarn):
    huge = Environment(3, ("a", "b"), [0.5, 0.5], [1.0, 1e307], [0.1, 0.5], cost=2.0)
    assert huge.with_cost(1e307).cost == 1e307
    with pytest.raises(ValueError, match=re.escape("state 0 (a): the potential at N")):
        huge.with_cost(-1e308)
    assert not recwarn.list


def test_with_cost_walks_the_states_only_where_its_bound_overflows(monkeypatch):
    # the bound adds the largest b - c and the largest lambda-term, which
    # sit in different states: it overflows, the walk finds no state that
    # does, and the environment stands
    from robustcoord import env as env_module

    walked = []
    potential_column = env_module.potential_column
    monkeypatch.setattr(
        env_module, "potential_column", lambda *a: walked.append(a) or potential_column(*a)
    )
    env = Environment(3, ("a", "b"), [0.5, 0.5], [5e307, 0.0], [0.0, 2.5e307], cost=0.0)
    assert len(walked) == 1
    assert all(map(math.isfinite, potential_column(env, 3)))
    env.with_cost(-1.0)
    assert len(walked) == 2
    env.with_cost(1e307)  # (5e307 - 1e307) * 3 + 2.5e307 * 6 / 4 is finite
    assert len(walked) == 2


def test_with_cost_rejects_exactly_what_the_walk_rejects():
    # near the overflow, the O(1) bound must accept every cost whose
    # potentials at N are all finite and reject, naming the first state
    # that overflows, every other
    rng = random.Random(12)
    seen = set()
    for _ in range(2000):
        n_states = rng.randint(1, 4)
        big = [rng.choice([0.0, 1.0, 1e306, 3e307, 6e307, 1e308]) for _ in range(2 * n_states)]
        benefit = [b * rng.choice([1.0, -1.0]) for b in big[:n_states]]
        comp = big[n_states:]
        labels = [f"s{k}" for k in range(n_states)]
        n_agents = rng.randint(2, 4)
        try:
            env = Environment(n_agents, labels, [1 / n_states] * n_states, benefit, comp, 0.0)
        except ValueError:
            continue
        cost = rng.choice([0.0, 1e307, -1e307, 5e307, -5e307, 1e308, -1e308])
        c, n, less, pairs = cost, float(n_agents), float(n_agents - 1), float(2 * (n_agents - 1))
        walk = [(b - c) * n + lam * n * less / pairs for b, lam in zip(benefit, comp)]
        bad = next((s for s, v in enumerate(walk) if not math.isfinite(v)), None)
        if bad is None:
            assert env.with_cost(cost).cost == cost
            seen.add("accepted")
        else:
            with pytest.raises(ValueError, match=re.escape(f"state {bad} ({labels[bad]}):")):
                env.with_cost(cost)
            seen.add("rejected")
    assert seen == {"accepted", "rejected"}


def test_with_cost_returns_new_environment(case1):
    env, _ = case1
    cheap = env.with_cost(0.5)
    assert cheap.cost == 0.5
    assert env.cost == 2.0
    assert cheap.labels == env.labels
    # the validated read-only arrays are shared, not copied and re-checked
    assert cheap.prior is env.prior and cheap.benefit is env.benefit
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="cost must be finite"):
            env.with_cost(bad)


def test_check_assumptions_case1(case1):
    env, wf = case1
    report = check_assumptions(env, wf)
    assert isinstance(report, AssumptionReport)
    assert report.passed
    assert report.dominance_witness == 1  # H is the dominant state
    assert report.findings() == ()


def test_check_assumptions_flags_missing_dominance(case2):
    env, wf = case2
    report = check_assumptions(env, wf)  # max b = 2.0 = c: no strict margin
    assert not report.dominance
    assert not report.passed
    assert any("dominance" in f for f in report.findings())


def test_check_assumptions_flags_nonconvex_welfare(case1):
    env, _ = case1
    table = np.array([[0.0, 3.0, 3.5, 4.0], [0.0, 1.0, 2.0, 4.0]])
    wf = WelfareSpec.tabulated(table)
    report = check_assumptions(env, wf)
    assert not report.convex_welfare
    assert report.convex_welfare_witness[0] == 0


def test_power_welfare_second_difference_nonnegative():
    # beta >= 1 keeps V discretely convex in the cooperator count
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(2, 8))
        wf = WelfareSpec.power(
            n, np.array([float(rng.uniform(0.5, 10.0))]), float(rng.uniform(1.0, 4.0))
        )
        vals = [welfare_value(wf, 0, k) for k in range(n + 1)]
        for k in range(1, n):
            assert vals[k + 1] - 2 * vals[k] + vals[k - 1] >= -1e-12


def test_tolerances_are_named_constants_listed_in_readme():
    # a float literal below 1e-3 is a tolerance: it may appear only as the
    # value of an upper-case module constant, and README's table lists every
    # such constant with its module and value
    constants, stray = {}, []
    for path in sorted(Path(robustcoord.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        named = set()
        for node in tree.body:
            if (
                isinstance(node, ast.Assign)
                and [type(t) for t in node.targets] == [ast.Name]
                and node.targets[0].id.isupper()
                and isinstance(node.value, ast.Constant)
            ):
                named.add(node.value)
                if isinstance(node.value.value, float) and 0 < node.value.value < 1e-3:
                    constants[node.targets[0].id] = (path.stem, node.value.value)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, float)
                and 0 < abs(node.value) < 1e-3
                and node not in named
            ):
                stray.append(f"{path.name}:{node.lineno}")
    assert stray == []
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Tolerances\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| `(\w+)` \| `([^`]+)` \|", section, re.M)
    assert {name: (module, float(value)) for name, module, value in rows} == constants


def test_float_sums_are_fsum():
    # a float sum in src/ is math.fsum, correctly rounded whatever the order
    # of its terms; the builtin sum is left only for _chain_walk's count of
    # booleans, and functools.reduce for none
    builtin_sums, reduces = [], []
    for path in sorted(Path(robustcoord.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        functions = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                reduces += [f"{path.name}:{node.lineno}" for a in node.names if a.name == "reduce"]
            elif isinstance(node, ast.Attribute) and node.attr == "reduce":
                if isinstance(node.value, ast.Name) and node.value.id == "functools":
                    reduces.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id == "sum":
                    # the innermost function around the call: ast.walk is breadth first
                    owners = [f.name for f in functions if f.lineno <= node.lineno <= f.end_lineno]
                    builtin_sums.append((path.stem, owners[-1] if owners else None))
    assert reduces == []
    assert builtin_sums == [("equilibrium", "_chain_walk")]


@pytest.mark.parametrize("kind", ["power", "tabulated"])
def test_welfare_column_hands_out_a_new_list_each_call(kind):
    # V(0) and V(N) come from the spec's cache; no caller can write it
    if kind == "power":
        wf = WelfareSpec.power(3, [1.0, 2.5], 1.5)
    else:
        wf = WelfareSpec.tabulated([[0.0, 1.0, 2.0, 6.0], [-0.0, 0.5, 3.0, 4.0]])
    for n in range(4):
        first = welfare_column(wf, n)
        want = [welfare_value(wf, s, n) for s in range(2)]
        assert repr(first) == repr(want)
        first[0] = 99.0
        second = welfare_column(wf, n)
        assert second is not first and repr(second) == repr(want)


def test_certify_leaves_only_the_cost_free_columns_cached():
    # certify reads V(k) at every k = 0..N; only V(0) and V(N) are kept
    from robustcoord import certify, design

    n = 1000
    env = Environment(n, ("a", "b", "c"), [0.2, 0.3, 0.5], [1.5, 0.5, 2.5], [0.4, 0.2, 0.1], 1.0)
    wf = WelfareSpec.power(n, [1.0, 2.0, 3.0], 1.5)
    ends = wf._ends
    assert certify(env, wf, design(env, wf)).passed
    assert wf._ends is ends and [len(column) for column in ends] == [3, 3]
    assert ends == (tuple(welfare_column(wf, 0)), tuple(welfare_column(wf, n)))


def test_owned_names_the_column_and_index_of_a_bad_value():
    with pytest.raises(ValueError, match=r"^prior\[3\]: expected a number, got 'x'$"):
        Environment(2, "abcd", [0.25, 0.25, 0.25, "x"], [1.0] * 4, [0.0] * 4, 0.5)
