"""Command line interface: exit codes, artifacts, determinism."""

import gc
import hashlib
import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import robustcoord
from robustcoord import (
    Certificate,
    EventOutcome,
    ObedienceReport,
    RealizedEvaluation,
    ThresholdPolicy,
    WelfareSpec,
    cli,
    design,
    designer,
    scenarios,
    score,
)
from robustcoord.cli import main
from robustcoord.scenarios import PRESETS, Scenario, build_scenario, load_scenario
from robustcoord.seqpolicy import check_policy, policy_from_dict

from test_lp import LP_N6


def run_cli(command, scenario, out, *extra):
    return main([command, "--scenario", scenario, "--out", str(out), *extra])


def test_design_artifacts(tmp_path):
    assert run_cli("design", "case1", tmp_path) == 0
    names = {p.name for p in tmp_path.iterdir()}
    assert names == {"design.json", "policy.json", "figdata_scores.csv", "manifest.json"}

    dsn = json.loads((tmp_path / "design.json").read_text())
    assert dsn["threshold_label"] == "L"
    assert dsn["mixing_weight"] == pytest.approx(0.6842105263157894, abs=1e-15)
    assert dsn["expected_welfare"] == pytest.approx(8.052631578947368, abs=1e-12)
    assert dsn["invite_probabilities"][1] == 1.0

    scores = (tmp_path / "figdata_scores.csv").read_text().splitlines()
    assert scores[0] == "state,score,invite_prob"
    assert scores[1].startswith("L,-0.475")
    assert len(scores) == 3


def test_policy_json_round_trips(tmp_path):
    run_cli("design", "case1", tmp_path)
    pol = policy_from_dict(json.loads((tmp_path / "policy.json").read_text()))
    env = load_scenario("case1").env
    assert check_policy(pol, env, tol=1e-9).passed


def test_check_artifacts(tmp_path):
    assert run_cli("check", "case1", tmp_path) == 0
    rep = json.loads((tmp_path / "obedience.json").read_text())
    assert set(rep) == {"so_c", "so_n", "state_mass", "feasible", "pass", "tol"}
    assert rep["pass"] is True
    assert rep["feasible"] is True
    assert rep["tol"] == 1e-9


def test_lp_artifacts(tmp_path):
    assert run_cli("lp", "case1", tmp_path) == 0
    lp = json.loads((tmp_path / "lp.json").read_text())
    assert lp["status"] == "OPTIMAL"
    assert lp["value"] == pytest.approx(8.052631578947368, abs=1e-9)
    assert lp["agreement_gap"] <= 1e-9
    assert lp["n_vars"] == 8  # agent-symmetric LP: sizes 0..3 per state
    assert all(set(a) == {"state", "size", "prob"} for a in lp["assignment"])
    assert lp["assignment"] == [
        {"state": "L", "size": 0, "prob": pytest.approx(0.3157894736842105, abs=1e-12)},
        {"state": "L", "size": 3, "prob": pytest.approx(0.6842105263157894, abs=1e-12)},
        {"state": "H", "size": 3, "prob": 1.0},
    ]
    for key in ("primal_residual", "bound_violation", "dual_violation"):
        assert 0.0 <= lp[key] <= 1e-9


def test_evaluate_artifacts(tmp_path):
    assert run_cli("evaluate", "case1", tmp_path) == 0
    pub = json.loads((tmp_path / "public.json").read_text())
    assert pub["private_sequential"]["welfare"] == pytest.approx(
        8.052631578947368, abs=1e-12
    )
    assert pub["public_counterfactual"]["welfare"] == 0.0
    assert pub["welfare_shortfall"] == pytest.approx(8.052631578947368, abs=1e-12)
    assert pub["public_counterfactual"]["mode"] == "public"
    events = pub["public_counterfactual"]["events"]
    assert events and all(
        set(e) == {"label", "probs", "posterior", "coop_count", "welfare_contribution"}
        for e in events
    )


def test_compare_artifacts(tmp_path):
    assert run_cli("compare", "case1", tmp_path) == 0
    lines = (tmp_path / "comparison.csv").read_text().splitlines()
    assert lines[0] == (
        "cost,robust_welfare,bce_predicted,bce_realized,theta_star,p_star,bce_threshold"
    )
    assert lines[1] == "2,8.052631579,9,0,L,0.6842105263,L"
    assert len(lines) == 2


def test_sweep_artifacts(tmp_path):
    assert run_cli("sweep", "case1", tmp_path) == 0
    names = {p.name for p in tmp_path.iterdir()}
    assert names == {
        "sweep.csv",
        "figdata_welfare.csv",
        "sweep_summary.json",
        "manifest.json",
    }
    rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
    assert len(rows) == 45
    robust = [float(r.split(",")[1]) for r in rows]
    assert all(a >= b for a, b in zip(robust, robust[1:]))

    summary = json.loads((tmp_path / "sweep_summary.json").read_text())
    assert summary["coincide_max_cost"] == 1.65
    assert summary["optimistic_zero_min_cost"] == 2.9

    fig = (tmp_path / "figdata_welfare.csv").read_text().splitlines()
    assert fig[0] == "cost,robust,bce_predicted,bce_realized"
    assert len(fig) == 46


def test_run_executes_all_modes(tmp_path):
    assert run_cli("run", "case1", tmp_path) == 0
    names = {p.name for p in tmp_path.iterdir()}
    assert names == {
        "design.json",
        "policy.json",
        "figdata_scores.csv",
        "obedience.json",
        "lp.json",
        "comparison.csv",
        "public.json",
        "sweep.csv",
        "figdata_welfare.csv",
        "sweep_summary.json",
        "manifest.json",
    }
    man = json.loads((tmp_path / "manifest.json").read_text())
    assert man["scenario"] == "case1"
    assert man["command"] == "run"
    assert man["modes"] == ["design", "check", "lp", "baselines", "public-counterfactual"]
    assert man["artifacts"] == sorted(names - {"manifest.json"})
    assert man["flags"] == {"tol": 1e-9, "strict": False}
    assert "timestamp" in man


def test_manifest_written_even_for_empty_modes(tmp_path):
    cfg = {
        "schema": 1,
        "name": "noop",
        "n_agents": 2,
        "states": [{"label": "x", "prob": 1.0, "b": 2.0, "lambda": 0.5, "alpha": 1.0}],
        "cost": 1.0,
        "beta": 1.0,
        "modes": [],
    }
    path = tmp_path / "noop.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run_cli("run", str(path), out) == 0
    assert [p.name for p in out.iterdir()] == ["manifest.json"]


def test_run_computes_the_design_only_when_a_mode_needs_it(tmp_path):
    # no state has a positive potential, so `design` would exit 2; the
    # baselines mode alone must never ask for it
    cfg = {
        "schema": 1,
        "name": "hopeless",
        "n_agents": 2,
        "states": [{"label": "x", "prob": 1.0, "b": 0.1, "lambda": 0.1, "alpha": 1.0}],
        "cost": 2.0,
        "beta": 1.0,
        "modes": ["baselines"],
    }
    path = tmp_path / "hopeless.json"
    path.write_text(json.dumps(cfg))
    assert run_cli("run", str(path), tmp_path / "ok") == 0
    cfg["modes"] = ["baselines", "check"]
    path.write_text(json.dumps(cfg))
    assert run_cli("run", str(path), tmp_path / "fails") == 2


def test_repeat_runs_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("run", "case2", a) == 0
    assert run_cli("run", "case2", b) == 0
    for pa in sorted(a.iterdir()):
        pb = b / pa.name
        if pa.name == "manifest.json":
            da, db = json.loads(pa.read_text()), json.loads(pb.read_text())
            da.pop("timestamp"), db.pop("timestamp")
            assert da == db
        else:
            assert pa.read_bytes() == pb.read_bytes(), pa.name


def test_strict_assumption_failure_exits_1(tmp_path, capsys):
    # at cost 2 no grid state has benefit above cost, so dominance fails
    assert run_cli("design", "case2", tmp_path, "--strict") == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "manifest.json").exists()


def test_lp_certifies_a_grid_past_the_tableau_cap(tmp_path):
    # a wide-grid-sized instance: 2,000 states and 20 agents would give a
    # dense symmetric-LP tableau of ~8.8e7 cells, past lp.MAX_TABLEAU_CELLS
    # (test_lp.py::test_symmetric_lp_capacity_guard); the certificate is O(S*N)
    cfg = {
        "schema": 1,
        "name": "wide",
        "n_agents": 20,
        "grid": {
            "count": 2000,
            "theta_start": 0.0005,
            "theta_step": 0.0005,
            "b": [0.5, 2.0],
            "lambda": [0.1, 0.8],
            "alpha": [6.0, 12.0],
        },
        "cost": 2.0,
        "beta": 1.5,
        "modes": ["lp"],
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(cfg))
    assert run_cli("lp", str(path), tmp_path / "out") == 0
    lp = json.loads((tmp_path / "out" / "lp.json").read_text())
    assert lp["status"] == "OPTIMAL"
    assert lp["n_vars"] == 2000 * 21
    assert lp["agreement_gap"] <= 1e-9


@pytest.mark.parametrize(
    "cap, scenario, at",
    [
        ("MAX_SWEEP_POINTS", "case1", 45),  # 1.0 to 3.2 in steps of 0.05
        ("MAX_GRID_COUNT", "case2", 100),
        ("MAX_STATE_AGENTS", "case2", 1000),  # 100 grid states, 10 agents
        ("MAX_STATE_AGENTS", "case1", 6),  # 2 listed states, 3 agents
    ],
)
def test_loader_size_caps_exit_3_before_out_exists(
    tmp_path, capsys, monkeypatch, cap, scenario, at
):
    monkeypatch.setattr(scenarios, cap, at)
    assert run_cli("design", scenario, tmp_path / "at") == 0
    monkeypatch.setattr(scenarios, cap, at - 1)
    assert run_cli("design", scenario, tmp_path / "past") == 3
    assert f"cap of {at - 1}" in capsys.readouterr().err
    assert not (tmp_path / "past").exists()


def test_a_fine_sweep_exits_3_before_building_its_costs(tmp_path, capsys):
    # 1.0 to 3.2 in steps of 1e-7 is ~22M costs: seconds and hundreds of MB
    # before the cap; the count is checked first
    cfg = {**PRESETS["case1"], "sweep": {"start": 1.0, "stop": 3.2, "step": 1e-7}}
    path = tmp_path / "fine.json"
    path.write_text(json.dumps(cfg))
    assert run_cli("design", str(path), tmp_path / "out") == 3
    assert "sweep has more than the cap" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_every_scenario_mode_has_a_runner():
    # a mode in MODES alone would crash `run` with a KeyError (exit 1)
    assert set(scenarios.MODES) == set(cli._MODE_RUNNERS)


def test_lp_case2_within_guard(tmp_path):
    assert run_cli("lp", "case2", tmp_path) == 0
    lp = json.loads((tmp_path / "lp.json").read_text())
    assert lp["status"] == "OPTIMAL"
    assert lp["n_vars"] == 1100
    assert lp["agreement_gap"] <= 1e-9


def test_input_errors_exit_2(tmp_path, capsys):
    assert run_cli("design", "nonesuch", tmp_path) == 2
    assert "unknown scenario" in capsys.readouterr().err

    cfg = {
        "schema": 1,
        "name": "bad",
        "n_agents": 2,
        "states": [{"label": "x", "prob": 0.7, "b": 2.0, "lambda": 0.5, "alpha": 1.0}],
        "cost": 1.0,
        "beta": 1.0,
        "modes": ["design"],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert run_cli("design", str(path), tmp_path / "o1") == 2
    assert "prior must sum to 1" in capsys.readouterr().err

    cfg["states"][0]["prob"] = 1.0
    cfg["surprise"] = True
    path.write_text(json.dumps(cfg))
    assert run_cli("design", str(path), tmp_path / "o2") == 2
    assert "surprise" in capsys.readouterr().err

    # potential(N) = 2 * (b - c) + lambda / 2 < 0: the robust design is infeasible
    del cfg["surprise"]
    cfg["cost"] = 3.0
    path.write_text(json.dumps(cfg))
    assert run_cli("design", str(path), tmp_path / "o3") == 2
    assert "error: no state has a positive full-cooperation potential" in capsys.readouterr().err


def test_non_finite_artifact_exits_2_and_leaves_strict_json(tmp_path, capsys, recwarn):
    # b = 1e308 overflows the potential at N: the scenario is refused when it
    # loads, before anything is computed or written and without a warning
    cfg = {
        "schema": 1,
        "name": "huge",
        "n_agents": 3,
        "states": [
            {"label": "L", "prob": 0.5, "b": 1e308, "lambda": 0.1, "alpha": 6.0},
            {"label": "H", "prob": 0.5, "b": 1e308, "lambda": 0.5, "alpha": 12.0},
        ],
        "cost": 2.0,
        "beta": 1.5,
        "modes": ["design", "check", "lp", "baselines", "public-counterfactual"],
    }
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run_cli("run", str(path), out) == 2
    err = capsys.readouterr().err
    assert "error: state 0 (L): the potential at N overflows to inf" in err
    assert not out.exists()
    assert not recwarn.list


@pytest.mark.parametrize("label", ["L,x", "H\nnew", 'say "hi"', "CR\rhere"])
def test_label_breaking_csv_exits_2(tmp_path, capsys, label):
    # a label lands unquoted in figdata_scores.csv and comparison.csv
    cfg = {
        "schema": 1,
        "name": "labels",
        "n_agents": 3,
        "states": [
            {"label": "L", "prob": 0.5, "b": 1.0, "lambda": 0.1, "alpha": 6.0},
            {"label": label, "prob": 0.5, "b": 2.4, "lambda": 0.5, "alpha": 12.0},
        ],
        "cost": 2.0,
        "beta": 1.5,
        "modes": ["design", "baselines"],
    }
    path = tmp_path / "labels.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run_cli("run", str(path), out) == 2
    assert f"error: states[1].label: {label!r} holds a comma" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_write_json_refuses_non_finite_values(tmp_path, value):
    # the backstop behind the overflow check: no artifact holds Infinity or NaN
    with pytest.raises(ValueError, match="^x.json: Out of range float values"):
        cli._write_json(tmp_path / "x.json", {"figure": [1.0, value]})
    assert not (tmp_path / "x.json").exists()


def test_design_json_writes_infinite_scores_as_strings(tmp_path):
    # a zero stake in H scores +inf, which JSON cannot hold as a number
    env = load_scenario("case1").env
    wf = WelfareSpec.tabulated([[0.0, 1.0, 2.0, 6.0], [0.0, 0.0, 0.0, 0.0]])
    scn = Scenario("stakes", env, wf, ("design",), None)
    cli._run_design(scn, tmp_path, None, cli._Designed(scn, strict=False))
    text = (tmp_path / "design.json").read_text()
    dsn = json.loads(text, parse_constant=pytest.fail)
    assert dsn["scores"][1] == "inf"
    assert isinstance(dsn["scores"][0], float)
    assert dsn["states"] == ["L", "H"]


def test_json_artifacts_are_their_records_fields(tmp_path):
    # each JSON artifact is its record's fields, with only the departures
    # its writer names: a renamed field, the state labels, the event records
    assert run_cli("run", "case1", tmp_path) == 0

    def read(name):
        return json.loads((tmp_path / name).read_text())

    fields = set(ThresholdPolicy._fields) - {"invite_probs"}
    assert set(read("design.json")) == fields | {"invite_probabilities", "states"}
    fields = set(ObedienceReport._fields) - {"passed"}
    assert set(read("obedience.json")) == fields | {"pass"}
    public = read("public.json")
    assert set(public) == {"private_sequential", "public_counterfactual", "welfare_shortfall"}
    for mode in ("private_sequential", "public_counterfactual"):
        assert set(public[mode]) == set(RealizedEvaluation._fields)
        for event in public[mode]["events"]:
            assert set(event) == set(EventOutcome._fields)
    fields = set(Certificate._fields) - {"dual_value"}
    extra = {"value", "status", "n_vars", "assignment", "greedy_welfare", "agreement_gap"}
    assert set(read("lp.json")) == fields | extra


def test_lp_json_writes_a_failed_certificate_as_numerical(tmp_path, monkeypatch):
    def off_by_one_percent(env, welfare, tp):  # a certificate priced off its mu
        cert = designer.certify(env, welfare, tp)
        return designer._certify_at(env, welfare, tp, cert.mu * 1.01)

    monkeypatch.setattr(cli, "certify", off_by_one_percent)
    assert run_cli("lp", "case1", tmp_path) == 0
    lp = json.loads((tmp_path / "lp.json").read_text())
    assert lp["status"] == "NUMERICAL"
    assert lp["gap"] > 1e-9
    assert lp["agreement_gap"] is None


def _to_grid(cfg, count, theta_step=0.1):
    del cfg["states"]
    cfg["grid"] = {
        "count": count,
        "theta_start": 0.1,
        "theta_step": theta_step,
        "b": [0.5, 2.0],
        "lambda": [0.1, 0.8],
        "alpha": [6.0, 12.0],
    }


@pytest.mark.parametrize(
    "message, edit",
    [
        ("states[0].prob: expected a number", lambda cfg: cfg["states"][0].update(prob=None)),
        ("scenario.cost: expected a number", lambda cfg: cfg.update(cost=[2.0])),
        ("sweep.step: expected a number", lambda cfg: cfg["sweep"].update(step=None)),
        ("sweep.step: must be finite", lambda cfg: cfg["sweep"].update(step=float("nan"))),
        ("scenario.n_agents: expected an integer, got 3.9", lambda cfg: cfg.update(n_agents=3.9)),
        ("grid.count: expected an integer, got 2.5", lambda cfg: _to_grid(cfg, count=2.5)),
        # JSON strings are not numbers, whatever they spell
        ("scenario.cost: expected a number, got '2.0'", lambda cfg: cfg.update(cost="2.0")),
        ("scenario.n_agents: expected a number, got '3'", lambda cfg: cfg.update(n_agents="3")),
        (
            "states[0].prob: expected a number, got '1.0'",
            lambda cfg: cfg["states"][0].update(prob="1.0"),
        ),
        (
            "grid.theta_step: expected a number, got '0.01'",
            lambda cfg: _to_grid(cfg, count=3, theta_step="0.01"),
        ),
        ("sweep.step: expected a number, got '0.05'", lambda cfg: cfg["sweep"].update(step="0.05")),
    ],
    ids=[
        "prob-null",
        "cost-list",
        "sweep-step-null",
        "sweep-step-nan",
        "n-agents-fractional",
        "grid-count-fractional",
        "cost-string",
        "n-agents-string",
        "prob-string",
        "theta-step-string",
        "sweep-step-string",
    ],
)
def test_malformed_number_exits_2(tmp_path, capsys, message, edit):
    cfg = {
        "schema": 1,
        "name": "malformed",
        "n_agents": 2,
        "states": [{"label": "x", "prob": 1.0, "b": 2.0, "lambda": 0.5, "alpha": 1.0}],
        "cost": 1.0,
        "beta": 1.0,
        "sweep": {"start": 1.0, "stop": 1.1, "step": 0.05},
        "modes": ["design"],
    }
    edit(cfg)
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(cfg))
    assert run_cli("design", str(path), tmp_path / "out") == 2
    assert message in capsys.readouterr().err


def test_sweep_without_block_exits_2(tmp_path, capsys):
    cfg = {
        "schema": 1,
        "name": "nosweep",
        "n_agents": 2,
        "states": [{"label": "x", "prob": 1.0, "b": 2.0, "lambda": 0.5, "alpha": 1.0}],
        "cost": 1.0,
        "beta": 1.0,
        "modes": ["design"],
    }
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(cfg))
    assert run_cli("sweep", str(path), tmp_path / "out") == 2
    assert "no sweep block" in capsys.readouterr().err


def test_tol_flag_reaches_checker(tmp_path):
    # an absurdly tight tolerance flips the obedience verdict on float dust
    assert run_cli("check", "case1", tmp_path, "--tol", "1e-18") == 0
    rep = json.loads((tmp_path / "obedience.json").read_text())
    assert rep["tol"] == 1e-18
    assert run_cli("check", "case1", tmp_path / "zero", "--tol", "0") == 0


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_bad_tolerance_exits_2(tmp_path, capsys, tol):
    for command in ("design", "check", "evaluate"):
        assert run_cli(command, "case1", tmp_path / command, "--tol", tol) == 2
        assert "tol must be finite and nonnegative" in capsys.readouterr().err
        assert not (tmp_path / command).exists()


# A 300-state grid with the public counterfactual: its events pool 222 and
# 79 states, so each posterior's normalising total is a long math.fsum,
# which neither preset reaches (case1 has 2 states, case2 has 100 and no
# public mode).
GRID_300 = {
    "schema": 1,
    "name": "grid",
    "n_agents": 20,
    "grid": {
        "count": 300,
        "theta_start": 0.003,
        "theta_step": 0.003,
        "b": [0.5, 2.0],
        "lambda": [0.1, 0.8],
        "alpha": [6.0, 12.0],
    },
    "cost": 2.0,
    "beta": 1.5,
    "sweep": {"start": 1.8, "stop": 2.2, "step": 0.1},
    "modes": ["design", "check", "baselines", "public-counterfactual"],
}


@pytest.mark.parametrize("config", [PRESETS["case2"], GRID_300], ids=["case2", "grid300"])
def test_score_matches_design_scores_bit_for_bit(config):
    # score is the scalar reference: potential and welfare_value per state
    scn = build_scenario(config)
    for cost in (1.0, 1.5, 2.0, 2.2):
        env = scn.env.with_cost(cost)
        scores = design(env, scn.welfare).scores
        reference = [score(env, scn.welfare, s) for s in range(env.n_states)]
        assert [x.hex() for x in reference] == [x.hex() for x in scores]


# SHA-256 of every artifact `run` writes except manifest.json, as recorded
# from commit 2330f8c (the grid's from commit 3b7ed88, with numpy on the
# state axis); case1's lp.json changed on purpose when `lp` moved to
# the agent-symmetric LP and began reporting its basis-check residuals, and
# again when the simplex moved to most-negative pricing (its `iterations`
# went from 8 to 4, every other field unchanged), and again when `lp` came
# to report the design's dual certificate in place of a simplex solve (mu
# and gap in, iterations out). When every float sum became math.fsum, the
# sums that numpy's order had rounded differently moved: case2's
# obedience.json (so_c) and the grid's design.json, obedience.json and
# public.json (expected welfare, so_c, posteriors). A change that alters any
# of these files on purpose updates the digest here and says so in
# CHANGES.md.
GOLDEN_DIGESTS = {
    "case1": {
        "comparison.csv": "622058182ae1080a41505e14ac835884521b62118dddb033a598c0ba505b6a18",
        "design.json": "69eed7719cea990137d46fb8910c2c4c8286daf92c578b10353fb49eff3d9f92",
        "figdata_scores.csv": "cafec2bc2ae334a6016e7f054ff3c3785507953291514a78fd1bc81611eb7755",
        "figdata_welfare.csv": "861bc338b1bba0812bc77544d4c75fca58ada1af16b4f0bb8026d78fdb743b00",
        "lp.json": "0c3393d1929d471bceaeb408d9b17772f22a66ffdf7483dc52c23a8ab9505344",
        "obedience.json": "4716ceb85c97df5532c635b46516ef08ff23d2a034a7084564330cadb3961899",
        "policy.json": "e2e8874b273465d48555711931bf15b6e76879b58cdf4e13a36bd5d8a4b76d72",
        "public.json": "9c639c532aab72d3357eb554c494b7228a8e74c169a5038691d3a9b9dc6fdc47",
        "sweep.csv": "c4f24c42111d9a0fe36303c853e533a80aabc452840c093f2dbd4d17b3bb5c03",
        "sweep_summary.json": "46ac30a075c7cbc10e5c38a7abb1c04ab040aecda7ef072e494e87137302dce5",
    },
    "case2": {
        "comparison.csv": "cbf3829d146b32f2404ebbd9316104fea8df2c3097b8beaa7746490e4476b0d5",
        "design.json": "2b02159aa91d8306212693667d6c83b64aca2d56a58b9b1920c9f9dc62f767e6",
        "figdata_scores.csv": "151b3953395d97d53f09ea31f025ea4298a9063332ce88c02afd5b979596a635",
        "figdata_welfare.csv": "866e832bda82440f61c6418deb6cb57a3e0c6d698929736c09f20db03107a681",
        "obedience.json": "30c5a2ef134755b865217b5e9866e995dfc251c20f8acc4a553d7bb4ebf8f60c",
        "policy.json": "ebadf802cad4a4dc7708500949e8bc18a78e301aedff245a076b9b195caf1211",
        "sweep.csv": "3d41ab5e54e464c22f62918ce76d3917a293f81029fd10e855bb651bb8d8e4f5",
        "sweep_summary.json": "28ba9f4c01fc8e48bbc117c5d4c461405ad9150c2de1643f9294d4738b979617",
    },
    "grid": {
        "comparison.csv": "b7e943da73de280869a42979501cddf7da3e7e9a2028dafdc40f0f31f7142b12",
        "design.json": "983de6a1f4367ccd62e79f2cd93979d0e3a256db45b2d24f231fa71bd7c0bf64",
        "figdata_scores.csv": "d406ae4f68470898cf90840493b779d10f47bf37d66c2807110b0680ffb2decc",
        "figdata_welfare.csv": "e13736f6f441af6fdf04939477601cce28b251d125ff304302c1ed3edaecfa64",
        "obedience.json": "767406d75db3a8bd6239c3027b3164edb165ee9e423014c1d90ac9e20cc554a0",
        "policy.json": "8f67bff01e53f708c74f1f21c5aec453ba9c8aa9ad0beb4af720baa82065b49a",
        "public.json": "efc6ce378b89b15ca810237b554bc2ddc20dbb901ed96018afccc7c7f322ca39",
        "sweep.csv": "acc2cf1ca3246d98e7279aa74f52464544240f2feedc13fc801091215edbac3a",
        "sweep_summary.json": "4439692b0119a09eec09595382405f64a03df5113fd8c51a7b6b686236847fea",
    },
}


def _digests(out: Path) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.name != "manifest.json"
    }


@pytest.mark.parametrize("scenario", sorted(GOLDEN_DIGESTS))
def test_run_artifacts_match_golden_digests(tmp_path, scenario):
    source = scenario
    if scenario == "grid":
        source = tmp_path / "grid.json"
        source.write_text(json.dumps(GRID_300))
    assert run_cli("run", str(source), tmp_path / "out") == 0
    assert _digests(tmp_path / "out") == GOLDEN_DIGESTS[scenario]


# SHA-256 of the lp.json that `lp` writes at the benchmark's sizes: case2's
# certificate (1,100 columns priced, value 4.734782608695652) and the
# six-agent instance LP_N6 of test_lp.py, run from a scenario file. Both
# changed on purpose when `lp` moved from the simplex to the certificate.
LP_DIGESTS = {
    "case2": "f6f37abb4693118dff5dfb35f22eed8d37dc986ce14d7a41fcfc2b09cdcc9e21",
    "lp-n6": "cd02a2f4fbc308fed24b2f348141b1f2cd73e6d3e69f1a5353e07d2d093acb66",
}


@pytest.mark.parametrize("scenario", sorted(LP_DIGESTS))
def test_lp_artifact_matches_golden_digest(tmp_path, scenario):
    source = scenario
    if scenario == "lp-n6":
        source = tmp_path / "lp-n6.json"
        source.write_text(json.dumps(LP_N6))
    assert run_cli("lp", str(source), tmp_path / "out") == 0
    assert _digests(tmp_path / "out") == {"lp.json": LP_DIGESTS[scenario]}


def _child_env(**extra):
    """This process's environment for a child interpreter that can import
    robustcoord, without the OPENBLAS_NUM_THREADS that importing robustcoord
    has already set here, plus ``extra``."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    src = str(Path(robustcoord.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.update(extra)
    return env


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/task") or len(os.sched_getaffinity(0)) < 2,
    reason="counts threads in /proc/self/task; OpenBLAS starts workers only on 2+ usable CPUs",
)
def test_one_blas_thread_unless_the_user_sets_one():
    def threads(**extra):
        # the package first: its default holds for a numpy imported after it
        code = (
            "import robustcoord, numpy, os, sys\n"
            "print('numpy' in sys.modules, len(os.listdir('/proc/self/task')))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=_child_env(**extra),
            capture_output=True,
            text=True,
            check=True,
        )
        numpy_loaded, count = proc.stdout.split()
        assert numpy_loaded == "True"
        return int(count)

    assert threads() == 1
    assert threads(OPENBLAS_NUM_THREADS="2") == 2  # the user's own setting wins


def test_blas_thread_count_never_changes_an_artifact():
    # no command imports numpy, so the one answer that could move is the
    # library LP's: case2's symmetric LP has the package's largest
    # np.linalg.solve calls, in the simplex's final basis check
    code = (
        "import sys, robustcoord as rc\n"
        "scn = rc.load_scenario('case2')\n"
        "sol = rc.solve(rc.build_symmetric_lp(scn.env, scn.welfare))\n"
        "arrays = (sol.check.x, sol.check.duals_eq, sol.check.duals_ub)\n"
        "sys.stdout.buffer.write(b''.join(a.tobytes() for a in arrays))\n"
    )

    def solved(threads):
        return subprocess.run(
            [sys.executable, "-c", code],
            env=_child_env(OPENBLAS_NUM_THREADS=threads),
            capture_output=True,
            check=True,
        ).stdout

    one = solved("1")
    assert len(one) == 8 * (1100 + 100 + 2)
    assert solved("2") == one


def test_command_process_freezes_its_import_heap(tmp_path):
    # main() without argv is the console script or `python -m`: it owns the
    # process, so the import-time heap goes to the permanent generation
    code = (
        "import gc, sys\n"
        "import robustcoord.cli as cli\n"
        "out = sys.argv[1]\n"
        "sys.argv = ['robustcoord', 'run', '--scenario', 'case1', '--out', out]\n"
        "code = cli.main()\n"
        "print(gc.get_freeze_count())\n"
        "sys.exit(code)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)],
        env=_child_env(),
        capture_output=True,
        text=True,
        check=True,
    )
    assert int(proc.stdout) > 0
    assert _digests(tmp_path) == GOLDEN_DIGESTS["case1"]


def test_main_with_argv_leaves_the_collector_alone(tmp_path):
    before = gc.get_freeze_count()
    assert run_cli("run", "case1", tmp_path) == 0
    assert gc.get_freeze_count() == before


def test_run_leaves_no_cyclic_garbage_holding_package_functions(tmp_path):
    # a function caught in a reference cycle (a closure that calls itself,
    # say) keeps everything it refers to alive until a collection runs
    source = tmp_path / "grid.json"
    source.write_text(json.dumps(GRID_300))
    enabled, debug = gc.isenabled(), gc.get_debug()
    gc.collect()
    gc.disable()
    try:
        assert run_cli("run", str(source), tmp_path / "out") == 0
        gc.set_debug(gc.DEBUG_SAVEALL)  # collect() keeps what it finds in gc.garbage
        gc.collect()
        cyclic = [
            f.__qualname__
            for f in gc.garbage
            if inspect.isfunction(f) and (f.__module__ or "").startswith("robustcoord")
        ]
    finally:
        gc.set_debug(debug)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert cyclic == []


def test_each_command_imports_only_the_modules_it_runs(tmp_path):
    code = (
        "import json, sys\n"
        "import robustcoord\n"
        "watch = ('numpy', 'dataclasses', 'robustcoord.baselines', 'robustcoord.equilibrium')\n"
        "def show(*first):\n"
        "    print(json.dumps([*first, [m for m in watch if m in sys.modules]]))\n"
        "show(sorted(set(robustcoord.__all__) - set(dir(robustcoord))),\n"
        "     [m for m in sys.modules if m.startswith('robustcoord.')])\n"
        "import robustcoord.cli as cli\n"
        "show()\n"
        "out = sys.argv[1]\n"
        "show(cli.main(['lp', '--scenario', 'case1', '--out', out + '/lp']))\n"
        "show(cli.main(['run', '--scenario', 'case1', '--out', out + '/run']))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)],
        env=_child_env(),
        capture_output=True,
        text=True,
        check=True,
    )
    assert [json.loads(line) for line in proc.stdout.splitlines()] == [
        # the package alone: dir() lists every export, nothing is loaded
        [[], [], []],
        [[]],  # robustcoord.cli
        [0, []],  # after lp: the certificate needs no module beyond designer
        [0, ["robustcoord.baselines", "robustcoord.equilibrium"]],  # after run
    ]
    assert _digests(tmp_path / "run") == GOLDEN_DIGESTS["case1"]


def test_no_command_imports_numpy_or_the_lp_modules(tmp_path):
    # the benchmark's setup probe (import cli, load a preset and a grid
    # file), then every command in turn, and in a process of its own `run`
    # on case1, whose scenario enables the lp mode
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps(GRID_300))
    code = (
        "import json, sys\n"
        "import robustcoord.cli as cli\n"
        "watch = ('numpy', 'robustcoord.lp', 'robustcoord.simplex')\n"
        "out, grid, *commands = sys.argv[1:]\n"
        "cli.load_scenario('case2'), cli.load_scenario(grid)\n"
        "print(json.dumps(['probe', [m for m in watch if m in sys.modules]]))\n"
        "for i, command in enumerate(commands):\n"
        "    name, scenario = command.split()\n"
        "    code = cli.main([name, '--scenario', scenario, '--out', f'{out}/{i}'])\n"
        "    print(json.dumps([command, code, [m for m in watch if m in sys.modules]]))\n"
    )

    def watch(out, *commands):
        proc = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / out), str(grid), *commands],
            env=_child_env(),
            capture_output=True,
            text=True,
            check=True,
        )
        return [json.loads(line) for line in proc.stdout.splitlines()]

    commands = [f"{c} case2" for c in cli._COMMANDS]
    assert watch("a", *commands) == [
        ["probe", []],
        *([command, 0, []] for command in commands),
    ]
    assert watch("b", "run case1") == [["probe", []], ["run case1", 0, []]]


def test_only_the_lp_modules_import_numpy():
    src = Path(robustcoord.__file__).resolve().parent
    importers = {
        path.name
        for path in src.glob("*.py")
        if re.search(r"^\s*(import numpy|from numpy)", path.read_text(), re.M)
    }
    assert importers == {"lp.py", "simplex.py"}


def test_every_name_the_benchmark_looks_up_resolves(monkeypatch):
    # perfbench/ reaches into the package only through these names: each
    # traced function and every module binding spans.py replaces, the
    # backend name run.py records, and the counter the design span passes
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("_spans", root / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # dataclass looks itself up there
    spec.loader.exec_module(spans)
    for _, home, attr, users, _, _ in spans.TARGETS:
        original = getattr(importlib.import_module(home), attr)
        for user in users:
            assert getattr(importlib.import_module(user), attr) is original, (user, attr)
    from robustcoord._kernels import active_backend
    from robustcoord.designer import OpCounter

    assert active_backend() == "numpy"
    assert OpCounter().ops == 0
    # the stub serves the benchmark alone: nothing in the package imports it
    src = Path(robustcoord.__file__).resolve().parent
    importers = {
        path.name
        for path in src.glob("*.py")
        if re.search(r"^\s*(from|import)\s.*_kernels", path.read_text(), re.M)
    }
    assert importers == set()


def test_package_exports_resolve_on_first_use():
    for name, module in robustcoord._EXPORTS.items():
        home = importlib.import_module(f"robustcoord.{module}")
        assert getattr(robustcoord, name) is getattr(home, name)
    assert set(robustcoord.__all__) == set(robustcoord._EXPORTS)
    namespace = {}
    exec("from robustcoord import *", namespace)
    assert set(robustcoord.__all__) <= set(namespace)
    with pytest.raises(AttributeError, match="no_such_name"):
        robustcoord.no_such_name


def test_readme_lists_the_library_api():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Library API\n", 1)[1].split("\n## ", 1)[0]
    listed = {}
    for module, names in re.findall(r"^- from `(\w+)`: (.+)$", section, re.M):
        listed.update(dict.fromkeys(re.findall(r"`(\w+)`", names), module))
    assert listed == robustcoord._EXPORTS


def test_runners_call_the_names_bound_on_cli(tmp_path, monkeypatch):
    # a tracer rebinds these on the cli module before a command runs; the
    # runners must call what is bound there, not a copy imported elsewhere
    calls = dict.fromkeys(
        ["compare", "sweep", "sweep_boundaries", "evaluate_policy_realized"], 0
    )
    for name in calls:

        def counted(*args, _name=name, _fn=getattr(cli, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(cli, name, counted)
    assert run_cli("run", "case1", tmp_path) == 0
    assert calls == {
        "compare": 1,
        "sweep": 1,
        "sweep_boundaries": 1,
        "evaluate_policy_realized": 2,
    }
    assert _digests(tmp_path) == GOLDEN_DIGESTS["case1"]
    with pytest.raises(AttributeError, match="no_such_name"):
        cli.no_such_name
