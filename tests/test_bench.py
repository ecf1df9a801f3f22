"""The benchmark writer, benchmarks/bench.py, on its smallest input."""

import importlib.util
import shutil
import subprocess
from pathlib import Path

import pytest

from robustcoord import load_scenario

BENCH = Path(__file__).resolve().parents[1] / "benchmarks" / "bench.py"


def _load():
    spec = importlib.util.spec_from_file_location("_bench", BENCH)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_rounds_below_one_exit_2_before_measuring(capsys):
    with pytest.raises(SystemExit) as exc:
        _load().main(["-k", "0"])
    assert exc.value.code == 2 and "-k must be at least 1" in capsys.readouterr().err


def test_summary_is_the_median_and_quartiles_of_its_samples():
    got = _load()._summary([5.0, 1.0, 4.0, 2.0, 3.0])
    assert got == {"median": 3.0, "q1": 2.0, "q3": 4.0, "samples": [5.0, 1.0, 4.0, 2.0, 3.0]}


def _git(tree, *args):
    identity = ["-c", "user.name=bench", "-c", "user.email=bench@example.com"]
    subprocess.run(["git", *identity, "-c", "commit.gpgsign=false", *args], cwd=tree, check=True)


def test_bench_records_one_round_of_case1(tmp_path):
    # the record main() writes, less its "command", on one case of CASES,
    # for two copies of this checkout's src/: one committed to a clone of
    # its own, so the test needs no git tree around it, and one outside any
    bench = _load()
    skip = shutil.ignore_patterns("__pycache__")
    clone, copy = tmp_path / "clone", tmp_path / "copy"
    for tree in (clone, copy):
        shutil.copytree(bench.ROOT / "src", tree / "src", ignore=skip)
    _git(clone, "init", "-q")
    _git(clone, "add", "src")
    _git(clone, "commit", "-q", "-m", "src")
    measured = (clone, copy)
    record = bench.bench(["run-case1"], 1, [clone, copy])
    # the twin rows ran from byte-compiled copies, not from these trees
    assert not any(path for tree in measured for path in tree.rglob("__pycache__"))
    assert set(record) == {"schema", "machine", "rounds", "order", "trees"}
    assert record["schema"] == 3 and record["rounds"] == 1
    assert set(record["machine"]) == {"cpu_count", "python", "platform", "PYTHONDONTWRITEBYTECODE"}
    checkout, copy = record["trees"]
    for tree in (checkout, copy):
        assert set(tree) == {
            "tag", "git_head", "src_dirty", "src_pycache", "floors", "end_to_end", "per_layer",
        }
        assert tree["per_layer"] == {}  # not asked for
    assert copy["tag"] == "no-git" and copy["git_head"] is None and not copy["src_dirty"]
    assert checkout["git_head"] and checkout["tag"].startswith(checkout["git_head"][:7])
    for tree in (checkout, copy):
        assert list(tree["floors"]) == [
            "python -c pass", "python -S -c pass", "import robustcoord.cli",
            "import robustcoord.cli (bytecode)",
        ]
        assert list(tree["end_to_end"]) == ["run-case1", "run-case1 (bytecode)"]
        for name in tree["end_to_end"]:
            assert tree["end_to_end"][name]["argv"] == [
                "-m", "robustcoord.cli", "run", "--scenario", "case1",
                "--out", "$TMP/out/run-case1",
            ]
        for row in [*tree["floors"].values(), *tree["end_to_end"].values()]:
            for metric in ("cpu_s", "max_rss_mb"):
                stats = row[metric]
                assert set(stats) == {"median", "q1", "q3", "samples"}
                assert len(stats["samples"]) == 1 and stats["samples"][0] > 0
                assert stats["q1"] == stats["median"] == stats["q3"] == stats["samples"][0]


def test_bench_times_each_layer_of_the_wide_grid_in_process():
    # one round on this checkout: one process, which times each layer's
    # second call on the seed-0 wide grid
    bench = _load()
    record = bench.bench([bench.LAYERS], 1, [bench.ROOT])
    (tree,) = record["trees"]
    assert tree["end_to_end"] == {}
    assert list(tree["per_layer"]) == ["load", "design", "compare", "sweep"]
    for row in tree["per_layer"].values():
        stats = row["wall_s"]
        assert set(stats) == {"best", "median", "q1", "q3", "samples"}
        assert len(stats["samples"]) == 1 and stats["samples"][0] > 0
        assert stats["best"] == stats["median"] == stats["samples"][0]


def test_a_tree_without_the_package_exits_2_before_measuring(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        _load().main([str(tmp_path), "-k", "1"])
    assert exc.value.code == 2 and "holds no src/robustcoord" in capsys.readouterr().err


def test_bench_times_each_command_on_a_scale_grid(tmp_path):
    # one round on this checkout, of one tiny shape in place of SCALE_SHAPES
    bench = _load()
    scn = load_scenario(bench._scale_grid(tmp_path / "grid.json", 10, 4))
    assert scn.env.n_agents == 10 and scn.env.cost == 1.0 and scn.welfare.beta == 1.5
    assert scn.env.labels == ("0.125", "0.375", "0.625", "0.875")
    record = bench.bench([], 1, [bench.ROOT], [(4, 3)])
    (tree,) = record["trees"]
    assert tree["per_layer"] == {}
    assert list(tree["end_to_end"]) == [f"{command} 4x3" for command in bench.SCALE_COMMANDS]
    for command in bench.SCALE_COMMANDS:
        row = tree["end_to_end"][f"{command} 4x3"]
        assert row["argv"] == [
            "-m", "robustcoord.cli", command, "--scenario", "$TMP/scale-4x3.json",
            "--out", f"$TMP/out/{command}-4x3",
        ]
        assert len(row["cpu_s"]["samples"]) == 1 and row["cpu_s"]["samples"][0] > 0
