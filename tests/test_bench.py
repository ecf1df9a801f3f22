"""The benchmark writer, benchmarks/bench.py, on its smallest input."""

import importlib.util
from pathlib import Path

import pytest

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


def test_bench_records_one_round_of_case1():
    # the record main() writes, less its "command", on one case of CASES
    record = _load().bench(["run-case1"], 1)
    assert set(record) == {
        "schema", "tag", "git_head", "src_dirty", "machine",
        "rounds", "order", "floors", "end_to_end",
    }
    assert record["rounds"] == 1
    assert set(record["machine"]) == {
        "cpu_count", "python", "platform", "PYTHONDONTWRITEBYTECODE", "src_pycache",
    }
    assert list(record["floors"]) == [
        "python -c pass", "python -S -c pass", "import robustcoord.cli",
    ]
    assert list(record["end_to_end"]) == ["run-case1"]
    assert record["end_to_end"]["run-case1"]["argv"] == [
        "-m", "robustcoord.cli", "run", "--scenario", "case1", "--out", "$TMP/out/run-case1",
    ]
    for row in [*record["floors"].values(), *record["end_to_end"].values()]:
        for metric in ("cpu_s", "max_rss_mb"):
            stats = row[metric]
            assert set(stats) == {"median", "q1", "q3", "samples"}
            assert len(stats["samples"]) == 1 and stats["samples"][0] > 0
            assert stats["q1"] == stats["median"] == stats["q3"] == stats["samples"][0]
