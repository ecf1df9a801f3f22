"""Sequential policies: enumeration, obedience values, serialization."""

import itertools
import json
import math
import re

import numpy as np
import pytest

from robustcoord import (
    CapacityError,
    Environment,
    SequentialPolicy,
    WelfareSpec,
    check_policy,
    count_sequences,
    enumerate_sequences,
    expected_welfare,
    policy_from_dict,
    policy_to_dict,
)


def expand_uniform_full(policy):
    """The uniform-full block as explicit entries, N! per flagged state: the
    reference for the closed forms that keep it implicit."""
    entries = dict(policy.entries)
    share = 1.0 / math.factorial(policy.n_agents)
    for s, p in policy.uniform_full.items():
        for seq in itertools.permutations(range(policy.n_agents)):
            entries[(s, seq)] = entries.get((s, seq), 0.0) + p * share
    return SequentialPolicy(policy.n_agents, policy.n_states, entries, {})


def test_count_sequences():
    assert count_sequences(1) == 2
    assert count_sequences(2) == 5
    assert count_sequences(3) == 16
    assert count_sequences(4) == 65
    assert count_sequences(8) == 109601
    assert count_sequences(9) == 986410
    assert count_sequences(10) == 9864101


def test_enumerate_sequences_canonical_order():
    seqs = enumerate_sequences(2)
    assert seqs == [(), (0,), (1,), (0, 1), (1, 0)]
    assert len(enumerate_sequences(3)) == 16


def test_enumeration_guard():
    with pytest.raises(CapacityError, match="sequences"):
        enumerate_sequences(10)


class TestPolicyConstruction:
    def test_drops_zero_mass(self):
        pol = SequentialPolicy(3, 2, {(0, (0,)): 0.5, (1, ()): 0.0}, {})
        assert pol.entries == {(0, (0,)): 0.5}

    def test_entries_must_be_a_mapping(self):
        # an iterable of pairs could repeat a key; a mapping cannot
        with pytest.raises(TypeError, match="entries must be a mapping, got list"):
            SequentialPolicy(3, 2, [((0, (0,)), 0.3), ((0, (0,)), 0.2)], {})

    def test_uniform_full_must_be_a_mapping(self):
        with pytest.raises(TypeError, match="uniform_full must be a mapping, got list"):
            SequentialPolicy(3, 2, {}, [(0, 1.0)])

    def test_rejects_bad_state(self):
        with pytest.raises(ValueError, match="state"):
            SequentialPolicy(3, 2, {(2, ()): 1.0}, {})

    def test_rejects_repeated_agent(self):
        with pytest.raises(ValueError, match="repeats"):
            SequentialPolicy(3, 1, {(0, (1, 1)): 1.0}, {})

    def test_rejects_agent_out_of_range(self):
        with pytest.raises(ValueError, match="agent"):
            SequentialPolicy(3, 1, {(0, (3,)): 1.0}, {})

    def test_rejects_excess_mass(self):
        with pytest.raises(ValueError, match="mass above 1"):
            SequentialPolicy(3, 1, {(0, ()): 0.7}, {0: 0.5})

    def test_state_mass_and_feasibility(self, case1):
        env, _ = case1
        pol = SequentialPolicy(3, 2, {(0, ()): 0.4, (1, ()): 1.0}, {0: 0.6})
        report = check_policy(pol, env, 1e-9)
        assert report.feasible and report.state_mass == pytest.approx((1.0, 1.0), abs=1e-12)
        short = SequentialPolicy(3, 2, {(0, ()): 0.4, (1, ()): 1.0}, {})
        assert not check_policy(short, env, 1e-9).feasible


def test_worked_example_obedience_values(case1):
    # invite 1-then-3 or 2-then-3 in the weak state, 3-1-2 in the strong one
    env, _ = case1
    pol = SequentialPolicy(
        3, 2, {(0, (0, 2)): 0.6, (0, (1, 2)): 0.4, (1, (2, 0, 1)): 1.0}, {}
    )
    report = check_policy(pol, env)
    so_c = report.so_c
    assert so_c[0] == pytest.approx(0.025, abs=1e-12)
    assert so_c[1] == pytest.approx(0.25, abs=1e-12)
    assert so_c[2] == pytest.approx(-0.275, abs=1e-12)  # third agent balks
    so_n = report.so_n
    assert so_n[0] == pytest.approx(-0.18, abs=1e-12)
    assert so_n[1] == pytest.approx(-0.27, abs=1e-12)
    assert so_n[2] == 0.0
    assert not report.passed
    assert report.feasible


def test_one_uninvited_agent_who_would_join_fails_the_policy():
    # L is silent; in H agents 1 and 2 are invited in turn and agent 0 never
    # is, and joining the two pays 0.9 there: so_n[0] = 0.2 * -1 + 0.8 * 0.9
    # is the one value past its bound
    env = Environment(3, ("L", "H"), (0.2, 0.8), (1.0, 2.4), (0.1, 0.5), 2.0)
    report = check_policy(SequentialPolicy(3, 2, {(0, ()): 1.0, (1, (1, 2)): 1.0}), env)
    assert report.feasible and min(report.so_c) >= 0.0
    assert report.so_n[0] == pytest.approx(0.52, abs=1e-12)
    assert max(report.so_n[1:]) < 0.0
    assert not report.passed


def test_uniform_full_closed_form_matches_expansion(case1):
    env, _ = case1
    rng = np.random.default_rng(3)
    for _ in range(10):
        p0, p1 = rng.uniform(0.1, 1.0, 2)
        pol = SequentialPolicy(
            3, 2, {(0, ()): 1.0 - p0, (1, ()): 1.0 - p1}, {0: p0, 1: p1}
        )
        expanded = expand_uniform_full(pol)
        assert not expanded.uniform_full
        assert len(expanded.entries) == 2 + 2 * 6
        closed, explicit = check_policy(pol, env), check_policy(expanded, env)
        assert closed.so_c == pytest.approx(explicit.so_c, abs=1e-12)
        assert closed.so_n == pytest.approx(explicit.so_n, abs=1e-12)


def test_uniform_full_so_c_is_potential_average(case1):
    env, _ = case1
    pol = SequentialPolicy(3, 2, {}, {0: 1.0, 1: 1.0})
    # every agent pools ranks uniformly, so the gain telescopes to F(N)/N
    want = 0.5 * (-2.85) / 3 + 0.5 * 1.9499999999999997 / 3
    assert check_policy(pol, env).so_c == pytest.approx((want,) * 3, abs=1e-12)


def test_expected_welfare(case1):
    env, wf = case1
    pol = SequentialPolicy(3, 2, {(0, ()): 1.0}, {1: 1.0})
    assert expected_welfare(pol, env, wf) == pytest.approx(6.0, abs=1e-12)


def test_expected_welfare_checks_dimensions(case1):
    env, wf = case1
    pol = SequentialPolicy(3, 2, {(0, ()): 1.0}, {1: 1.0})
    # a spec for 4 agents, and one for 3 states, on case1's 3 agents and 2 states
    others = (WelfareSpec.power(4, wf.alpha, 1.5), WelfareSpec.power(3, (6.0, 9.0, 12.0), 1.5))
    for other in others:
        with pytest.raises(ValueError, match="welfare spec does not match"):
            expected_welfare(pol, env, other)
    for other in (SequentialPolicy(4, 2, {}, {1: 1.0}), SequentialPolicy(3, 3, {}, {1: 1.0})):
        with pytest.raises(ValueError, match="policy does not match"):
            expected_welfare(other, env, wf)


def test_silence_is_obedient_at_any_tolerance(case1):
    env, _ = case1
    pol = SequentialPolicy(3, 2, {(0, ()): 1.0, (1, ()): 1.0}, {})
    for tol in (1e-9, 0.0, 1e-18):
        assert check_policy(pol, env, tol=tol).passed


@pytest.mark.parametrize("tol", [float("nan"), -1.0, float("inf")])
def test_check_policy_rejects_bad_tolerance(case1, tol):
    env, _ = case1
    pol = SequentialPolicy(3, 2, {(0, ()): 1.0, (1, ()): 1.0}, {})
    with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
        check_policy(pol, env, tol=tol)


@pytest.mark.parametrize(
    "args, message",
    [
        ((3, 2, {(0.5, ()): 0.4, (0, ()): 0.6}, {}), "state: expected an integer, got 0.5"),
        ((3, 2, {(1, (1.7, 0)): 1.0}, {}), "sequence agent: expected an integer, got 1.7"),
        ((3, 2, {}, {1.5: 1.0}), "uniform-full state: expected an integer, got 1.5"),
        ((3.7, 2, {}, {}), "n_agents: expected an integer, got 3.7"),
        ((3, "2", {}, {}), "n_states: expected a number, got '2'"),
        ((3, 2, {(True, ()): 1.0}, {}), "state: expected a number, got True"),
    ],
)
def test_policy_indices_are_whole_numbers(args, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        SequentialPolicy(*args)


def test_whole_float_and_numpy_indices_are_read_as_ints():
    pol = SequentialPolicy(3.0, np.int64(2), {(1.0, (np.int64(1), 0.0)): 1.0}, {0.0: 1.0})
    assert (pol.n_agents, pol.n_states) == (3, 2)
    assert pol.entries == {(1, (1, 0)): 1.0} and pol.uniform_full == {0: 1.0}
    assert all(type(i) is int for (s, seq) in pol.entries for i in (s, *seq))


@pytest.mark.parametrize(
    "where, value, message",
    [
        ("n_agents", 3.7, "n_agents: expected an integer, got 3.7"),
        ("sequence", [2.9], "sequence agent: expected an integer, got 2.9"),
        ("state", True, "state: expected a number, got True"),
        ("sequence", ["1"], "sequence agent: expected a number, got '1'"),
    ],
)
def test_policy_from_dict_rejects_non_integral_indices(where, value, message):
    data = {"n_agents": 3, "n_states": 2, "entries": [{"state": 1, "sequence": [1], "prob": 1.0}]}
    if where == "n_agents":
        data[where] = value
    else:
        data["entries"][0][where] = value
    with pytest.raises(ValueError, match=re.escape(message)):
        policy_from_dict(data)


@pytest.mark.parametrize("value", ["1.0", True, None, [1.0]])
def test_policy_probabilities_must_be_numbers(value):
    # float() would read "1.0" and True as 1.0
    base = {"n_agents": 3, "n_states": 1, "entries": []}
    entry = {**base, "entries": [{"state": 0, "sequence": [], "prob": value}]}
    message = f"probability for (0, ()): expected a number, got {value!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        policy_from_dict(entry)
    block = {**base, "uniform_full": [{"state": 0, "prob": value}]}
    message = f"uniform-full mass for state 0: expected a number, got {value!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        policy_from_dict(block)


def test_policy_from_dict_rejects_a_repeated_entry():
    # a dict would keep the last item and drop state 0's other half
    half = {"state": 0, "sequence": [], "prob": 0.5}
    data = {
        "n_agents": 3,
        "n_states": 2,
        "entries": [half, dict(half), {"state": 1, "sequence": [], "prob": 1.0}],
    }
    message = "malformed policy payload: duplicate (state, sequence) [(0, ())]"
    with pytest.raises(ValueError, match=re.escape(message)):
        policy_from_dict(data)


def test_policy_from_dict_rejects_a_repeated_uniform_full_state():
    data = {
        "n_agents": 3,
        "n_states": 1,
        "entries": [],
        "uniform_full": [{"state": 0, "prob": 0.6}, {"state": 0, "prob": 0.4}],
    }
    message = "malformed policy payload: duplicate uniform_full state [0]"
    with pytest.raises(ValueError, match=re.escape(message)):
        policy_from_dict(data)


def test_numpy_probabilities_are_read_as_floats():
    pol = SequentialPolicy(3, 2, {(0, ()): np.float32(0.5), (0, (1,)): 0.5}, {1: np.float64(1.0)})
    assert pol.entries == {(0, ()): 0.5, (0, (1,)): 0.5} and pol.uniform_full == {1: 1.0}
    assert all(type(p) is float for p in (*pol.entries.values(), *pol.uniform_full.values()))


def test_serialization_round_trip():
    pol = SequentialPolicy(
        4, 2, {(0, (2, 0)): 0.25, (1, ()): 1.0}, {0: 0.75}
    )
    again = policy_from_dict(policy_to_dict(pol, labels=("lo", "hi")))
    assert again.entries == pol.entries
    assert again.uniform_full == pol.uniform_full
    assert again.n_agents == 4 and again.n_states == 2

    text = json.dumps(policy_to_dict(pol))
    assert policy_from_dict(json.loads(text)).entries == pol.entries
    assert '"states"' not in text  # labels only when provided
    assert "states" in policy_to_dict(pol, labels=("lo", "hi"))


def test_canonical_items_sorted():
    pol = SequentialPolicy(
        3, 2, {(1, (0,)): 0.5, (0, (1, 0)): 0.2, (0, ()): 0.8, (1, (2,)): 0.5}, {}
    )
    keys = [k for k, _ in pol.canonical_items()]
    assert keys == sorted(keys, key=lambda k: (k[0], len(k[1]), k[1]))


def test_sequence_orderings_matter(case1):
    # putting the strong state's holdout first flips the sign structure
    env, _ = case1
    fwd = SequentialPolicy(3, 2, {(1, (0, 1, 2)): 1.0, (0, ()): 1.0}, {})
    rev = SequentialPolicy(3, 2, {(1, (2, 1, 0)): 1.0, (0, ()): 1.0}, {})
    so_c_fwd, so_c_rev = check_policy(fwd, env).so_c, check_policy(rev, env).so_c
    assert sorted(so_c_fwd) == pytest.approx(sorted(so_c_rev), abs=1e-12)
    assert so_c_fwd[0] != so_c_rev[0]


def test_all_permutation_mixture_equivalent_to_uniform_block(case1):
    env, _ = case1
    explicit = {
        (s, g): 0.5 / 6.0
        for s in range(2)
        for g in itertools.permutations(range(3))
    }
    explicit[(0, ())] = 0.5
    explicit[(1, ())] = 0.5
    expl = SequentialPolicy(3, 2, explicit, {})
    blocked = SequentialPolicy(
        3, 2, {(0, ()): 0.5, (1, ()): 0.5}, {0: 0.5, 1: 0.5}
    )
    assert check_policy(expl, env).so_c == pytest.approx(
        check_policy(blocked, env).so_c, abs=1e-12
    )
