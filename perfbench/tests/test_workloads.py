import json
from pathlib import Path

import pytest

import layers
import oracle
import run
import workloads

ROOT = Path(__file__).resolve().parents[2]

# welfare figures the CLI printed at the commit that introduced the benchmark
SEED_COMMIT = {
    "case1": (8.052631578947368, [8.052631578947368, 9.0, 0.0]),
    "case2": (4.734782608695652, [4.734782608695652, 7.238411910669976, 0.0]),
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_scenario_files_repeat_for_a_seed(tmp_path, workload):
    def files(seed, where):
        workloads.build_ops(workload, seed, where)
        return {p.name: p.read_bytes() for p in sorted(where.iterdir())}

    first, again = files(7, tmp_path / "a"), files(7, tmp_path / "b")
    assert first == again
    if workload != "paper-cases":
        assert files(8, tmp_path / "c") != first


def test_wide_grid_seed0_uses_case2_ramps():
    cfg = workloads.wide_grid_config(0)
    for key in ("b", "lambda", "alpha"):
        assert cfg["grid"][key] == workloads.CASE2["grid"][key]


def test_lp_oracle_has_the_known_instances(tmp_path):
    ops = workloads.build_ops("lp-oracle", 3, tmp_path)
    assert [op.lp_tag for op in ops] == ["n3", "n4", "n5", "n6", "case2"]
    assert ops[3].ref["robust_welfare"] == pytest.approx(9.3, rel=1e-12)


@pytest.mark.parametrize("name", sorted(SEED_COMMIT))
def test_oracle_matches_seed_commit(name):
    robust, row = SEED_COMMIT[name]
    ref = oracle.references(getattr(workloads, name.upper()))
    assert ref["robust_welfare"] == pytest.approx(robust, rel=1e-12)
    assert ref["compare"] == pytest.approx(row, rel=1e-12)


def test_oracle_matches_library(tmp_path):
    from robustcoord import build_scenario, compare, design

    for op in workloads.build_ops("lp-oracle", 5, tmp_path)[:3]:
        scn = build_scenario(op.config)
        assert op.ref["robust_welfare"] == pytest.approx(
            design(scn.env, scn.welfare).expected_welfare, rel=1e-12
        )
    cfg = dict(workloads.wide_grid_config(5), grid=dict(workloads.wide_grid_config(5)["grid"], count=50))
    scn = build_scenario(cfg)
    rec = compare(scn.env, scn.welfare)
    assert oracle.compare_row(oracle.model_from_config(cfg)) == pytest.approx(
        (rec.robust_welfare, rec.bce_predicted, rec.bce_realized), rel=1e-12, abs=1e-12
    )


def test_benchmark_json_lists_the_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
