import json

import checker
from workloads import Op


def lp_payload(mass_s1=1.0, value=9.3, gap=0.0, status="OPTIMAL"):
    return {
        "status": status,
        "value": value,
        "agreement_gap": gap,
        "assignment": [
            {"state": "s0", "sequence": [0, 1], "prob": 1.0},
            {"state": "s1", "sequence": [1, 0], "prob": mass_s1},
            {"state": "s2", "sequence": [], "prob": 1.0},
        ],
    }


def test_clean_lp_passes():
    assert checker.check_lp_json(lp_payload(), 9.3, 3) == []


def test_mass_drift_fails():
    # the N=6 instance drifts to state mass 1.000545 while claiming OPTIMAL
    errors = checker.check_lp_json(lp_payload(mass_s1=1.000545), 9.3, 3)
    assert any("mass of state s1" in e for e in errors)


def test_false_optimal_value_fails():
    errors = checker.check_lp_json(lp_payload(value=9.30147, gap=1.47e-3), 9.3, 3)
    assert any("agreement_gap" in e for e in errors)
    assert any("lp value" in e for e in errors)


def test_missing_gap_and_status_fail():
    errors = checker.check_lp_json(lp_payload(status="INFEASIBLE", gap=None), 9.3, 3)
    assert len(errors) == 2


def test_state_without_mass_fails():
    errors = checker.check_lp_json(lp_payload(), 9.3, 4)
    assert errors == ["lp assigns mass to 3 of 4 states"]


def test_sweep_order_and_reference():
    row = {"cost": "2", "robust_welfare": "5", "bce_predicted": "4", "bce_realized": "0"}
    errors = checker.check_sweep_rows([row], [[2.0, 5.0, 4.0, 0.0]])
    assert errors == ["sweep order broken at cost 2"]
    row = {"cost": "2", "robust_welfare": "4.000001", "bce_predicted": "7", "bce_realized": "0"}
    errors = checker.check_sweep_rows([row], [[2.0, 4.0, 7.0, 0.0]])
    assert errors and "robust" in errors[0]


def test_doctored_lp_json_fails_op(tmp_path):
    (tmp_path / "lp.json").write_text(json.dumps(lp_payload(mass_s1=1.000545)))
    op = Op("n6", ["lp", "--scenario", "x.json"], {"modes": ["lp"], "states": [{}] * 3}, "n6", {"robust_welfare": 9.3})
    assert checker.check_op(op, tmp_path, 0)
    (tmp_path / "lp.json").write_text(json.dumps(lp_payload()))
    assert checker.check_op(op, tmp_path, 0) == []
    assert checker.check_op(op, tmp_path, 3) == ["exit code 3"]


def test_missing_artifact_is_a_failure(tmp_path):
    op = Op("n3", ["lp", "--scenario", "x.json"], {"modes": ["lp"], "states": [{}] * 3}, "n3", {"robust_welfare": 1.0})
    (errors,) = checker.check_op(op, tmp_path, 0)
    assert errors.startswith("unreadable artifacts")
