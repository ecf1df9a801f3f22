"""Scenario schema: presets, validation, and file loading."""

import json

import numpy as np
import pytest

from robustcoord.scenarios import PRESETS, build_scenario, load_scenario


def test_preset_names():
    assert set(PRESETS) == {"case1", "case2"}


def test_case1_preset():
    scn = load_scenario("case1")
    assert scn.name == "case1"
    env, wf = scn.env, scn.welfare
    assert env.n_agents == 3
    assert env.labels == ("L", "H")
    assert list(env.prior) == [0.5, 0.5]
    assert list(env.benefit) == [1.0, 2.4]
    assert list(env.complementarity) == [0.1, 0.5]
    assert env.cost == 2.0
    assert wf.kind == "power" and wf.beta == 1.5
    assert list(wf.alpha) == [6.0, 12.0]
    assert scn.modes == ("design", "check", "lp", "baselines", "public-counterfactual")
    assert scn.sweep_costs[0] == 1.0 and scn.sweep_costs[-1] == 3.2
    assert len(scn.sweep_costs) == 45


def test_case2_preset_grid():
    scn = load_scenario("case2")
    env = scn.env
    assert env.n_states == 100
    # decimal stepping keeps labels exact
    assert env.labels[0] == "0.01"
    assert env.labels[55] == "0.56"
    assert env.labels[-1] == "1.00"
    assert np.allclose(env.prior, 0.01)
    # ramps are linear in theta itself
    theta = 0.01 * (np.arange(100) + 1)
    assert env.benefit[12] == 0.5 + (2.0 - 0.5) * theta[12]
    assert env.complementarity[70] == 0.1 + (0.8 - 0.1) * theta[70]
    assert scn.welfare.alpha[3] == 6.0 + (12.0 - 6.0) * theta[3]
    assert scn.modes == ("design", "check", "baselines")
    assert len(scn.sweep_costs) == 45 and scn.sweep_costs[-1] == 3.2


def _base_config():
    return {
        "schema": 1,
        "name": "tiny",
        "n_agents": 2,
        "states": [
            {"label": "a", "prob": 0.4, "b": 0.5, "lambda": 0.2, "alpha": 1.0},
            {"label": "b", "prob": 0.6, "b": 2.0, "lambda": 0.1, "alpha": 2.0},
        ],
        "cost": 1.0,
        "beta": 1.0,
        "modes": ["design"],
    }


def test_explicit_states_build():
    scn = build_scenario(_base_config())
    assert scn.env.labels == ("a", "b")
    assert scn.env.n_agents == 2
    assert list(scn.welfare.alpha) == [1.0, 2.0]
    assert scn.sweep_costs is None


def test_unknown_field_rejected_at_every_level():
    cfg = _base_config()
    cfg["bogus"] = 1
    with pytest.raises(ValueError, match="bogus"):
        build_scenario(cfg)

    cfg = _base_config()
    cfg["states"][1]["extra"] = 0.0
    with pytest.raises(ValueError, match="extra"):
        build_scenario(cfg)

    cfg = _base_config()
    del cfg["states"]
    cfg["grid"] = {
        "count": 3,
        "theta_start": 0.1,
        "theta_step": 0.1,
        "b": [0.0, 1.0],
        "lambda": [0.0, 1.0],
        "alpha": [1.0, 2.0],
        "oops": True,
    }
    with pytest.raises(ValueError, match="oops"):
        build_scenario(cfg)

    cfg = _base_config()
    cfg["sweep"] = {"start": 1.0, "stop": 2.0, "step": 0.5, "pace": 1}
    with pytest.raises(ValueError, match="pace"):
        build_scenario(cfg)


def test_schema_version_checked():
    cfg = _base_config()
    cfg["schema"] = 2
    with pytest.raises(ValueError, match="schema"):
        build_scenario(cfg)
    del cfg["schema"]
    with pytest.raises(ValueError, match="schema"):
        build_scenario(cfg)
    cfg["schema"] = 1.0  # a whole number, as "n_agents": 3.0 is
    assert build_scenario(cfg).name == "tiny"


def test_states_xor_grid():
    cfg = _base_config()
    cfg["grid"] = {
        "count": 2,
        "theta_start": 0.0,
        "theta_step": 1.0,
        "b": [0.0, 1.0],
        "lambda": [0.0, 1.0],
        "alpha": [1.0, 2.0],
    }
    with pytest.raises(ValueError, match="exactly one of"):
        build_scenario(cfg)
    del cfg["states"]
    del cfg["grid"]
    with pytest.raises(ValueError, match="exactly one of"):
        build_scenario(cfg)


def test_modes_validation():
    cfg = _base_config()
    cfg["modes"] = ["design", "teleport"]
    with pytest.raises(ValueError, match="teleport"):
        build_scenario(cfg)
    cfg["modes"] = "design"
    with pytest.raises(ValueError, match="list"):
        build_scenario(cfg)
    # empty list is allowed: run everything later, or nothing
    cfg["modes"] = []
    assert build_scenario(cfg).modes == ()


def test_duplicate_modes_rejected():
    cfg = _base_config()
    cfg["modes"] = ["design", "check", "design"]
    with pytest.raises(ValueError, match=r"scenario.modes: duplicate mode\(s\) \['design'\]"):
        build_scenario(cfg)


def test_duplicate_state_labels_rejected():
    cfg = _base_config()
    cfg["states"][1]["label"] = "a"
    with pytest.raises(ValueError, match=r"states: duplicate label\(s\) \['a'\]"):
        build_scenario(cfg)
    # a zero grid step puts every state at the same theta, hence one label
    del cfg["states"]
    cfg["grid"] = {
        "count": 3,
        "theta_start": 0.1,
        "theta_step": 0,
        "b": [0.0, 1.0],
        "lambda": [0.0, 1.0],
        "alpha": [1.0, 2.0],
    }
    with pytest.raises(ValueError, match=r"grid: duplicate label\(s\) \['0.1'\]"):
        build_scenario(cfg)


def test_sweep_validation():
    cfg = _base_config()
    cfg["sweep"] = {"start": 1.0, "stop": 2.0, "step": 0.25}
    scn = build_scenario(cfg)
    assert scn.sweep_costs == (1.0, 1.25, 1.5, 1.75, 2.0)

    cfg["sweep"] = {"start": 1.0, "stop": 2.0, "step": 0.0}
    with pytest.raises(ValueError, match="step"):
        build_scenario(cfg)
    cfg["sweep"] = {"start": 2.0, "stop": 1.0, "step": 0.5}
    with pytest.raises(ValueError, match="stop"):
        build_scenario(cfg)


def test_sweep_decimal_stepping_is_exact():
    cfg = _base_config()
    cfg["sweep"] = {"start": 1.0, "stop": 3.2, "step": 0.05}
    costs = build_scenario(cfg).sweep_costs
    assert len(costs) == 45
    assert costs[6] == 1.3  # not 1.3000000000000003
    assert costs[-1] == 3.2


def test_load_from_file(tmp_path):
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(_base_config()))
    scn = load_scenario(str(path))
    assert scn.name == "tiny"
    assert scn.env.cost == 1.0


@pytest.mark.parametrize(
    "field, twice, key",
    [
        # json keeps the last value, so this file would run at cost 1
        ('"cost": 1.0', '"cost": 9.0, "cost": 1.0', "cost"),
        ('"prob": 0.4', '"prob": 0.9, "prob": 0.4', "prob"),
    ],
    ids=["top-level", "in-a-state"],
)
def test_duplicate_json_keys_rejected(tmp_path, field, twice, key):
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(_base_config()).replace(field, twice))
    with pytest.raises(ValueError, match=rf"duplicate key\(s\) \['{key}'\]"):
        load_scenario(str(path))


def test_load_errors(tmp_path):
    with pytest.raises(ValueError, match="no such file"):
        load_scenario(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValueError, match="invalid JSON"):
        load_scenario(str(bad))


def test_grid_count_must_be_positive():
    cfg = _base_config()
    del cfg["states"]
    cfg["grid"] = {
        "count": 0,
        "theta_start": 0.1,
        "theta_step": 0.1,
        "b": [0.0, 1.0],
        "lambda": [0.0, 1.0],
        "alpha": [1.0, 2.0],
    }
    with pytest.raises(ValueError, match="count"):
        build_scenario(cfg)
