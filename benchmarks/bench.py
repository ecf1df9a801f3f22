"""Process CPU and peak memory of robustcoord commands, written to BENCH_<tag>.json.

Each measurement is one fresh process, timed by the kernel: CPU is its user
plus system time and memory its max resident set, both read from ``wait4``.
On Linux a process's max RSS never reads below the resident size of the
process that launched it, so each one is launched by a small ``python -S``
process (``LAUNCHER``), about 8 MB, not by this script: the ``python -S -c
pass`` row is that floor.

One round runs every measurement once, forward on even rounds and backward on
odd ones, so a drift in the machine's speed falls on all of them alike. Each
figure is the median and quartiles of ``-k`` rounds, with every sample kept.

End to end: ``run`` on case1, case2 and the seed-0 wide grid of
``perfbench/workloads.py`` (N=20, S=2000), and ``lp`` on case2. Floors: the
bare interpreter with and without ``site``, and the import of
``robustcoord.cli``, so figures from two machines can be set against what
every process pays before any command runs.

    python benchmarks/bench.py [-k 15] [--out FILE]

It measures the checkout it sits in, and writes the file at that checkout's
root unless ``--out`` names another. Stdlib only.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# name -> the command's arguments; "{grid}" is the wide grid's scenario file
CASES = {
    "run-case1": ["run", "--scenario", "case1"],
    "run-case2": ["run", "--scenario", "case2"],
    "run-wide-grid": ["run", "--scenario", "{grid}"],
    "lp-case2": ["lp", "--scenario", "case2"],
}
FLOORS = {
    "python -c pass": ["-c", "pass"],
    "python -S -c pass": ["-S", "-c", "pass"],
    "import robustcoord.cli": ["-c", "import robustcoord.cli"],
}


def _git(*args: str) -> str | None:
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _wide_grid(path: Path) -> str:
    """The seed-0 wide grid, from perfbench/workloads.py loaded read only."""
    perfbench = ROOT / "perfbench"
    sys.path.insert(0, str(perfbench))  # workloads imports its oracle
    try:
        spec = importlib.util.spec_from_file_location("workloads", perfbench / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        sys.modules["workloads"] = workloads  # dataclass looks itself up there
        spec.loader.exec_module(workloads)
        config = workloads.wide_grid_config(0)
    finally:
        sys.path.remove(str(perfbench))
        sys.modules.pop("workloads", None)
        sys.modules.pop("oracle", None)
    path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
    return str(path)


# spawns argv[1:] with its stdout discarded, waits, prints exit code, CPU s, max RSS KiB
LAUNCHER = """import os, sys
out = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ, file_actions=out)
_, status, ru = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), ru.ru_utime + ru.ru_stime, ru.ru_maxrss)
"""


def _measure(argv: list[str], env: dict) -> tuple[float, float]:
    """CPU seconds and max RSS in MB of one process, which must exit 0."""
    launch = [sys.executable, "-S", "-c", LAUNCHER, *argv]
    proc = subprocess.run(launch, env=env, capture_output=True, text=True)
    fields = proc.stdout.split()
    if proc.returncode != 0 or fields[0] != "0":  # a failing command says why on stderr
        raise RuntimeError(f"{argv} failed: {proc.stdout}{proc.stderr}")
    return float(fields[1]), int(fields[2]) / 1024.0  # Linux: KiB


def _summary(samples: list[float]) -> dict:
    if len(samples) > 1:
        q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    else:
        q1 = median = q3 = samples[0]
    return {"median": median, "q1": q1, "q3": q3, "samples": samples}


def bench(cases: list[str], rounds: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory(prefix="robustcoord-bench-") as tmp:
        tmp = Path(tmp)
        grid = _wide_grid(tmp / "wide-grid.json") if "run-wide-grid" in cases else None
        argvs = {name: [sys.executable, *args] for name, args in FLOORS.items()}
        for name in cases:
            args = [a.format(grid=grid) for a in CASES[name]]
            out = str(tmp / "out" / name)
            argvs[name] = [sys.executable, "-m", "robustcoord.cli", *args, "--out", out]
        runs: dict[str, list[tuple[float, float]]] = {name: [] for name in argvs}
        names = list(argvs)
        for r in range(rounds):
            for name in names if r % 2 == 0 else names[::-1]:
                runs[name].append(_measure(argvs[name], env))

    def rows(group) -> dict:
        return {
            name: {
                "argv": [a.replace(str(tmp), "$TMP") for a in argvs[name][1:]],
                "cpu_s": _summary([round(cpu, 6) for cpu, _ in runs[name]]),
                "max_rss_mb": _summary([round(rss, 3) for _, rss in runs[name]]),
            }
            for name in group
        }

    head = _git("rev-parse", "HEAD")
    dirty = bool(_git("status", "--porcelain", "--untracked-files=no", "--", "src"))
    return {
        "schema": 1,
        "tag": (head[:7] + ("-dirty" if dirty else "")) if head else "no-git",
        "git_head": head,
        "src_dirty": dirty,  # HEAD plus uncommitted edits under src/
        "machine": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
            "src_pycache": any((ROOT / "src").rglob("__pycache__")),
        },
        "rounds": rounds,
        "order": "alternating: forward on even rounds, backward on odd ones",
        "floors": rows(FLOORS),
        "end_to_end": rows(cases),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("-k", type=int, default=15, help="rounds (default 15)")
    parser.add_argument(
        "--out", type=Path, help="file to write (default: BENCH_<tag>.json at the root)"
    )
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    if args.k < 1:
        parser.error("-k must be at least 1")
    record = {"command": ["python", "benchmarks/bench.py", *argv], **bench(list(CASES), args.k)}
    out = args.out or ROOT / f"BENCH_{record['tag']}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    for group in ("floors", "end_to_end"):
        for name, row in record[group].items():
            cpu, rss = row["cpu_s"], row["max_rss_mb"]
            print(
                f"{name:<24} cpu {cpu['median'] * 1e3:7.1f} ms "
                f"[{cpu['q1'] * 1e3:.1f}, {cpu['q3'] * 1e3:.1f}]  "
                f"max-rss {rss['median']:6.1f} MB"
            )
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
