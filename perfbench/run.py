"""robustcoord benchmark: real CLI processes, end to end and per layer.

Usage, from the root of a checkout:
    python3 perfbench/run.py --workload {paper-cases,wide-grid,lp-oracle,all}
        --seed N --seconds S --trace {0,1}

The load is a closed loop with one client: one ``python3 -m robustcoord.cli``
process at a time, each started when the previous one has exited. A pass runs
every op of the workload once (see ``workloads``); every op's artifacts are
checked (see ``checker``), and an op fails on a nonzero exit or a failed
check. Passes repeat until the next one would end after ``--seconds``, with
at least three.

With ``--trace 0`` the last line of stdout reports the end-to-end metrics:

- ``setup_s``: wall time of a fresh interpreter that imports robustcoord.cli
  and loads the workload's scenarios, median of SETUP_REPEATS;
- ``cpu_s``: user+sys CPU seconds of a pass's processes, median over passes;
- ``peak_rss_mb``: the largest max-RSS of any op process;
- ``ok_ratio``: ops that passed over ops attempted, i.e. 1 - fail_ratio.

Printed above it, and kept in the results file, are the wall-time figures:
``pass_s.p50`` (wall time of one pass, the sum of its processes' lifetimes,
median over passes), ``pass_s.tail`` (the highest percentile of pass time
with at least ten passes beyond it; the 5-second passes of wide-grid and
lp-oracle do not reach eleven passes in one run, so it reads n/a there),
``fail_ratio`` and the share of pass time the hypervisor took the CPUs away
(steal, from /proc/stat). Wall time is not a bounded metric: on a shared
2-vCPU VM, steal moved the median pass time of identical runs by up to 60%,
while the CPU time of the same processes moved by up to 25%.

With ``--trace 1`` a fresh interpreter runs the ops in process (``traced``),
alternating untraced and traced passes, and the last line reports the
per-layer metrics of ``layers`` plus ``cli.import_s`` and
``trace.overhead_s`` (median traced pass minus median untraced pass).

``correct`` is true when every op gave the same verdict in every pass and,
traced, every exact count repeated in every pass; ops that fail their checks
are counted in ``failed``. Environment, per-op failures and spans go to
``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import checker
import layers
import spans
from workloads import WORKLOADS, Op, build_ops

SETUP_REPEATS = 7
MIN_PASSES = 3
OP_TIMEOUT_S = 150.0
WORK_DIR = ".perfbench_work"

# (name, unit, better) in the order BENCHMARK.json lists them
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_ratio", "ratio", "higher"),
]

_PROBE = "import sys, robustcoord.cli as c\nfor s in sys.argv[1:]: c.load_scenario(s)"


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def steal_s() -> float:
    """Seconds the hypervisor has held this machine's CPUs (all CPUs)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return 0.0
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


@dataclass
class Child:
    code: int
    wall: float  # seconds from start to exit
    cpu: float  # user + sys seconds
    rss_mb: float  # max resident set size
    steal: float  # seconds the hypervisor held the CPUs meanwhile


def run_child(argv: list[str], env: dict, stderr_path: Path, timeout: float) -> Child:
    """Run one process to completion; one still running after ``timeout``
    is killed."""
    with stderr_path.open("wb") as err:
        s0, t0 = steal_s(), time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall, steal = time.perf_counter() - t0, steal_s() - s0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, steal
    )  # ru_maxrss is in KiB on Linux


def measure_setup(ops: list[Op], env: dict, work: Path) -> float:
    scenarios = sorted({op.scenario for op in ops})
    walls = []
    for _ in range(SETUP_REPEATS):
        child = run_child([sys.executable, "-c", _PROBE, *scenarios], env, work / "setup.err", OP_TIMEOUT_S)
        if child.code != 0:
            raise RuntimeError(f"setup probe exited {child.code}; see {work / 'setup.err'}")
        walls.append(child.wall)
    return statistics.median(walls)


def tail(values: list[float]) -> tuple[str, float | None]:
    """Highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n <= 10:
        return f"{n} passes; needs at least 11", None
    k = n - 10
    value = sorted(values)[k - 1]
    return f"p{100 * k / n:.0f} of {n} passes, 10 beyond", value


def run_untraced(ops: list[Op], env: dict, work: Path, seconds: float) -> list[dict]:
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or (
        time.perf_counter() - start + statistics.median(p["wall"] for p in passes) <= seconds
    ):
        children, verdicts = [], {}
        for op in ops:
            out = work / "out" / op.name
            shutil.rmtree(out, ignore_errors=True)
            argv = [sys.executable, "-m", "robustcoord.cli", *op.argv, "--out", str(out)]
            child = run_child(argv, env, work / f"{op.name}.err", OP_TIMEOUT_S)
            children.append(child)
            verdicts[op.name] = checker.check_op(op, out, child.code)
        passes.append(
            {
                "wall": sum(c.wall for c in children),
                "cpu": sum(c.cpu for c in children),
                "steal": sum(c.steal for c in children),
                "peak_rss_mb": max(c.rss_mb for c in children),
                "verdicts": verdicts,
            }
        )
    return passes


def run_traced(ops: list[Op], env: dict, work: Path, seconds: float) -> dict:
    spec = work / "ops.json"
    spec.write_text(json.dumps({"out_dir": str(work / "out"), "ops": [asdict(op) for op in ops]}))
    result = work / "traced.json"
    script = str(Path(__file__).resolve().parent / "traced.py")
    child = run_child(
        [sys.executable, script, str(spec), str(result), str(seconds)], env, work / "traced.err", OP_TIMEOUT_S
    )
    if child.code != 0:
        raise RuntimeError(f"traced run exited {child.code}; see {work / 'traced.err'}")
    return json.loads(result.read_text())


def verdict_summary(passes: list[dict]) -> tuple[int, int, bool, dict]:
    """(attempted, failed, every op same verdict in every pass, reasons)."""
    attempted = failed = 0
    reasons: dict[str, list[str]] = {}
    for p in passes:
        for name, errors in p["verdicts"].items():
            attempted += 1
            failed += bool(errors)
            if errors:
                reasons.setdefault(name, errors)
    steady = all(p["verdicts"] == passes[0]["verdicts"] for p in passes)
    return attempted, failed, steady, reasons


def end_to_end(ops, env, work, seconds, setup_s) -> tuple[dict, dict]:
    passes = run_untraced(ops, env, work, seconds)
    attempted, failed, steady, reasons = verdict_summary(passes)
    walls = [p["wall"] for p in passes]
    tail_label, tail_value = tail(walls)
    metrics = {
        "setup_s": setup_s,
        "cpu_s": statistics.median(p["cpu"] for p in passes),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
        "ok_ratio": (attempted - failed) / attempted,
    }
    extra = {
        "passes": len(passes),
        "pass_walls": walls,
        "pass_steal": [p["steal"] for p in passes],
        "pass_cpu": [p["cpu"] for p in passes],
        "pass_s.p50": statistics.median(walls),
        "pass_s.tail": {"value": tail_value, "which": tail_label},
        "fail_ratio": failed / attempted,
        "attempted": attempted,
        "failed": failed,
        "correct": steady,
        "failures": reasons,
    }
    return metrics, extra


def per_layer(ops, env, work, seconds) -> tuple[dict, dict]:
    result = run_traced(ops, env, work, seconds)
    all_spans = [spans.Span(**d) for d in result["spans"]]
    op_info = {op.name: {"lp_tag": op.lp_tag, "ref_welfare": op.ref["robust_welfare"]} for op in ops}
    traced = [p for p in result["passes"] if p["traced"]]
    untraced = [p for p in result["passes"] if not p["traced"]]
    by_pass = [[sp for sp in all_spans if sp.pass_id == p["pass_id"]] for p in traced]
    metrics, repeat = layers.combine([layers.pass_metrics(group, op_info) for group in by_pass])
    metrics["cli.import_s"] = result["import_s"]
    metrics["trace.overhead_s"] = statistics.median(p["wall"] for p in traced) - statistics.median(
        p["wall"] for p in untraced
    )
    attempted, failed, steady, reasons = verdict_summary(result["passes"])
    extra = {
        "passes": len(result["passes"]),
        "counts_repeat_exactly": repeat,
        "attempted": attempted,
        "failed": failed,
        "correct": steady and repeat,
        "failures": reasons,
        "spans": result["spans"],
    }
    return {name: metrics[name] for name, _, _ in layers.PER_LAYER}, extra


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(root: Path, seed: int) -> dict:
    sys.path.insert(0, str(root / "src"))
    from robustcoord._kernels import active_backend

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "active_backend": active_backend(),
        "git_commit": git_commit(root),
        "seed": seed,
        "command": [Path(sys.executable).name, *sys.argv],
    }


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = root / WORK_DIR / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ops = build_ops(workload, seed, work / "scenarios")
    env = child_env(root)
    if trace:
        metrics, extra = per_layer(ops, env, work, seconds)
        units = layers.UNITS
    else:
        setup_s = measure_setup(ops, env, work)
        metrics, extra = end_to_end(ops, env, work, seconds, setup_s)
        units = {name: unit for name, unit, _ in END_TO_END}
    result = {
        "correct": extra["correct"],
        "attempted": extra["attempted"],
        "failed": extra["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    report(workload, seed, ops, result, extra, trace)
    results = root / WORK_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {"workload": workload, "env": environment(root, seed), "result": result, "detail": extra}
    (results / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1) + "\n")
    print("env: " + json.dumps(record["env"]))
    return result


def report(workload, seed, ops, result, extra, trace) -> None:
    print(
        f"workload {workload}  seed {seed}  {extra['passes']} passes of {len(ops)} ops"
        f"  ({'traced, in process' if trace else 'closed loop, one client'})"
    )
    for name, m in result["metrics"].items():
        print(f"  {name:<44} {m['value']:.6g} {m['unit']}")
    if not trace:
        print(f"  {'pass_s.p50':<44} {extra['pass_s.p50']:.6g} s (wall, median of {extra['passes']} passes)")
        t = extra["pass_s.tail"]
        value = "n/a" if t["value"] is None else f"{t['value']:.6g} s"
        print(f"  {'pass_s.tail':<44} {value} ({t['which']})")
        print(f"  {'fail_ratio':<44} {extra['fail_ratio']:.6g} ({extra['failed']} of {extra['attempted']} ops)")
        steal = sum(extra["pass_steal"]) / sum(extra["pass_walls"])
        print(f"  hypervisor steal during passes: {100 * steal:.1f}% of pass wall time (all CPUs)")
    else:
        print(f"  counts repeat exactly: {extra['counts_repeat_exactly']}")
    for name, errors in extra["failures"].items():
        print(f"  failed op {name}: {'; '.join(errors[:3])}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "robustcoord" / "cli.py").is_file():
        print("error: run from the root of a robustcoord checkout (src/robustcoord missing)", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: run_workload(root, w, args.seed, args.seconds, bool(args.trace)) for w in names}
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
