"""Environment primitives: utilities, gains, potentials, welfare, assumptions,
and the package's named tolerances."""

import ast
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
from robustcoord.env import as_number, ordered_sum, pairwise_sum


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


def test_case1_potentials(case1):
    env, _ = case1
    assert abs(potential(env, 0, 3) - (-2.85)) <= 1e-12
    assert abs(potential(env, 1, 3) - 1.95) <= 1e-12
    assert potential(env, 0, 0) == 0.0


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


def test_pairwise_sum_is_np_sum_bit_for_bit():
    # numpy sums fewer than 8 terms in order, up to 128 in eight strided
    # running sums, and halves longer arrays at a multiple of 8; spread
    # magnitudes make every one of those orders show in the last bits
    rng = np.random.default_rng(2026)
    order_shows = 0
    for n in [*range(301), 2000]:
        values = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.integers(-8, 9, n)
        for arr in (values, np.abs(values), np.zeros(n), np.full(n, -0.0)):
            want = float(np.sum(arr)).hex()
            assert pairwise_sum(arr.tolist()).hex() == want, n
            assert pairwise_sum(tuple(arr.tolist())).hex() == want, n
        order_shows += ordered_sum(values.tolist()).hex() != float(np.sum(values)).hex()
    assert order_shows > 200  # the lengths where an ordered sum would differ


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
