"""Process CPU and peak memory of robustcoord commands, written to BENCH_<tag>.json.

Each measurement is one fresh process, timed by the kernel: CPU is its user
plus system time and memory its max resident set, both read from ``wait4``.
On Linux a process's max RSS never reads below the resident size of the
process that launched it, so each one is launched by a small ``python -S``
process (``LAUNCHER``), about 8 MB, not by this script: the ``python -S -c
pass`` row is that floor.

It measures one or more source trees, each a directory holding the package
under ``src/`` (a checkout, or a copy of another commit's), interleaved in
one invocation. One round runs every measurement of every tree once, a
command's trees one after another, forward on even rounds and backward on
odd ones, so a drift in the machine's speed falls on all of them alike and
not between trees measured one after the other. Each figure is the median
and quartiles of ``-k`` rounds, with every sample kept.

End to end: ``run`` on case1, case2 and the seed-0 wide grid of
``perfbench/workloads.py`` (N=20, S=2000), and ``lp`` on case2. Floors: the
bare interpreter with and without ``site``, and the import of
``robustcoord.cli``, so figures from two machines can be set against what
every process pays before any command runs.

Every process runs with ``PYTHONDONTWRITEBYTECODE=1``, so it compiles the
source it imports and never writes ``__pycache__`` into a measured tree.
The import floor and each command run a second time, in the same rounds,
from a copy of the tree's ``src/`` in a temporary directory, byte-compiled
there with ``compileall``: the rows ``<name> (bytecode)``. A row and its
twin differ only in compiling the package, which is what each line of it
costs every process that imports it.

Per layer, in process, on the same wide grid: the wall time of
``load_scenario``, of ``design`` and ``compare`` at the scenario's cost, and
of ``sweep`` over its 23 costs. Each round runs one fresh process per tree,
in the same alternating order, which calls each layer twice and times the
second call, so imports and first-call work stay out; each row keeps every
round's sample and the best of them.

With ``--scale``, the N x S table as well: ``design``, ``check``, ``lp``,
``evaluate`` and ``compare`` on ramped grids of N agents and S states at
S * N = 10^6, the loader's cap (``SCALE_SHAPES``), each a row named
``<command> <N>x<S>`` measured like the end-to-end rows, without a bytecode
twin. They take seconds a round, so they are not run by default.

    python benchmarks/bench.py [TREE ...] [-k 15] [--scale] [--out FILE]

With no TREE it measures the checkout it sits in. Each tree is named in the
record by its git commit (``no-git`` outside a clone) and whether its
``src/`` has uncommitted edits; the file goes to this checkout's root as
``BENCH_<tag>.json``, the trees' tags joined by ``_vs_``, unless ``--out``
names another. Stdlib only.
"""

from __future__ import annotations

import argparse
import compileall
import importlib.util
import json
import os
import platform
import shutil
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
# the per-layer rows: one process per tree and round, timing each layer in it
LAYERS = "layers-wide-grid"
FLOORS = {
    "python -c pass": ["-c", "pass"],
    "python -S -c pass": ["-S", "-c", "pass"],
    "import robustcoord.cli": ["-c", "import robustcoord.cli"],
}
# the suffix of a row run from a byte-compiled copy of the tree's src/
BYTECODE = " (bytecode)"
# the scale rows: each command on each (N, S) grid of _scale_grid
SCALE_COMMANDS = ("design", "check", "lp", "evaluate", "compare")
SCALE_SHAPES = ((1_000, 1_000), (10_000, 100), (100_000, 10), (1_000_000, 1))


def _git(tree: Path, *args: str) -> str | None:
    """git's output in ``tree``, or None unless ``tree`` is a clone's root."""
    if not (tree / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", *args], cwd=tree, capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _tree(tree: Path) -> dict:
    head = _git(tree, "rev-parse", "HEAD")
    dirty = bool(_git(tree, "status", "--porcelain", "--untracked-files=no", "--", "src"))
    return {
        "tag": (head[:7] + ("-dirty" if dirty else "")) if head else "no-git",
        "git_head": head,
        "src_dirty": dirty,  # HEAD plus uncommitted edits under src/
        "src_pycache": any((tree / "src").rglob("__pycache__")),
    }


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


def _scale_grid(path: Path, n_agents: int, n_states: int) -> str:
    """A grid of ``n_states`` states at the midpoints of (0, 1) in theta,
    on case2's ramps (b 0.5-2.0, lambda 0.1-0.8, alpha 6-12), with c = 1.0
    and beta = 1.5."""
    config = {
        "schema": 1,
        "name": f"scale-{n_agents}x{n_states}",
        "n_agents": n_agents,
        "grid": {
            "count": n_states,
            "theta_start": 1 / (2 * n_states),
            "theta_step": 1 / n_states,
            "b": [0.5, 2.0],
            "lambda": [0.1, 0.8],
            "alpha": [6.0, 12.0],
        },
        "cost": 1.0,
        "beta": 1.5,
        "modes": ["design"],
    }
    path.write_text(json.dumps(config, indent=2) + "\n")
    return str(path)


# loads the scenario file argv[1] and prints the wall seconds of the second of
# two calls of each layer, as JSON
LAYER_TIMER = """import json, sys, time
from robustcoord import compare, design, load_scenario, sweep
scn = load_scenario(sys.argv[1])
calls = {
    "load": lambda: load_scenario(sys.argv[1]),
    "design": lambda: design(scn.env, scn.welfare),
    "compare": lambda: compare(scn.env, scn.welfare),
    "sweep": lambda: sweep(scn.env, scn.welfare, scn.sweep_costs),
}
times = {}
for name, call in calls.items():
    call()
    start = time.perf_counter()
    call()
    times[name] = time.perf_counter() - start
print(json.dumps(times))
"""


def _compiled(tree: Path, dest: Path) -> Path:
    """A copy of ``tree``'s src/ at ``dest``, byte-compiled there."""
    shutil.copytree(tree / "src", dest, ignore=shutil.ignore_patterns("__pycache__"))
    if not compileall.compile_dir(dest, quiet=1):
        raise RuntimeError(f"byte-compiling a copy of {tree / 'src'} failed")
    return dest


def _layers(grid: str, env: dict) -> dict[str, float]:
    """One fresh process's per-layer wall seconds on the scenario ``grid``."""
    proc = subprocess.run(
        [sys.executable, "-c", LAYER_TIMER, grid], env=env, capture_output=True, text=True
    )
    if proc.returncode != 0:
        raise RuntimeError(f"per-layer timing failed: {proc.stderr}")
    return json.loads(proc.stdout)


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


def bench(cases: list[str], rounds: int, trees: list[Path], shapes=()) -> dict:
    """The record of ``rounds`` interleaved rounds; no tree means this
    checkout. ``cases`` names rows of CASES, and LAYERS for the per-layer
    rows; ``shapes`` lists the (N, S) grids of the scale rows."""
    trees = [Path(t).resolve() for t in trees or [ROOT]]
    extra = os.environ.get("PYTHONPATH")

    def env(src: Path) -> dict:
        path = os.pathsep.join(filter(None, [str(src), extra]))
        return {**os.environ, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1"}

    with tempfile.TemporaryDirectory(prefix="robustcoord-bench-") as tmp:
        tmp = Path(tmp)
        envs = [env(t / "src") for t in trees]
        bytecode_envs = [env(_compiled(t, tmp / f"bytecode-{i}")) for i, t in enumerate(trees)]
        wide = {"run-wide-grid", LAYERS}.intersection(cases)
        grid = _wide_grid(tmp / "wide-grid.json") if wide else None
        commands = [name for name in cases if name != LAYERS]
        argvs = {name: [sys.executable, *args] for name, args in FLOORS.items()}
        for name in commands:
            args = [a.format(grid=grid) for a in CASES[name]]
            out = str(tmp / "out" / name)
            argvs[name] = [sys.executable, "-m", "robustcoord.cli", *args, "--out", out]
        # the import floor and each command again, from the compiled copy,
        # each twin right after the row it repeats
        imports = ["import robustcoord.cli", *commands]
        argvs.update({name + BYTECODE: argvs[name] for name in imports})
        floors = [*FLOORS, imports[0] + BYTECODE]
        commands = [twin for name in commands for twin in (name, name + BYTECODE)]
        for n, s in shapes:
            scenario = _scale_grid(tmp / f"scale-{n}x{s}.json", n, s)
            for command in SCALE_COMMANDS:
                name, out = f"{command} {n}x{s}", str(tmp / "out" / f"{command}-{n}x{s}")
                argvs[name] = [sys.executable, "-m", "robustcoord.cli", command]
                argvs[name] += ["--scenario", scenario, "--out", out]
                commands.append(name)
        # one command's trees run back to back, so they share the machine's state
        names = [*floors, *commands, LAYERS] if LAYERS in cases else [*floors, *commands]
        jobs = [(name, t) for name in names for t in range(len(trees))]
        runs: dict[tuple[str, int], list] = {job: [] for job in jobs}
        for r in range(rounds):
            for name, t in jobs if r % 2 == 0 else jobs[::-1]:
                if name == LAYERS:
                    runs[name, t].append(_layers(grid, envs[t]))
                else:
                    child = bytecode_envs[t] if name.endswith(BYTECODE) else envs[t]
                    runs[name, t].append(_measure(argvs[name], child))

    def rows(group, t: int) -> dict:
        return {
            name: {
                "argv": [a.replace(str(tmp), "$TMP") for a in argvs[name][1:]],
                "cpu_s": _summary([round(cpu, 6) for cpu, _ in runs[name, t]]),
                "max_rss_mb": _summary([round(rss, 3) for _, rss in runs[name, t]]),
            }
            for name in group
        }

    def layer_rows(t: int) -> dict:
        timed, layers = runs.get((LAYERS, t), []), {}
        for name in timed[0] if timed else []:
            samples = [round(x[name], 6) for x in timed]
            layers[name] = {"wall_s": {"best": min(samples), **_summary(samples)}}
        return layers

    return {
        "schema": 3,
        "machine": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        },
        "rounds": rounds,
        "order": "alternating: forward on even rounds, backward on odd ones; "
        "each command's trees back to back",
        "trees": [
            {
                **_tree(tree),
                "floors": rows(floors, t),
                "end_to_end": rows(commands, t),
                "per_layer": layer_rows(t),
            }
            for t, tree in enumerate(trees)
        ],
    }


def _cell(row: dict) -> str:
    cpu, rss = row["cpu_s"], row["max_rss_mb"]
    ms = f"{cpu['median'] * 1e3:.1f} [{cpu['q1'] * 1e3:.1f}, {cpu['q3'] * 1e3:.1f}]"
    return f"{ms:>22} {rss['median']:7.1f}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "trees", nargs="*", type=Path, help="source trees to measure (default: this checkout)"
    )
    parser.add_argument("-k", type=int, default=15, help="rounds (default 15)")
    parser.add_argument(
        "--scale", action="store_true", help="add the N x S table (SCALE_SHAPES); seconds a round"
    )
    parser.add_argument(
        "--out", type=Path, help="file to write (default: BENCH_<tag>.json at the root)"
    )
    args = parser.parse_args(argv)
    if args.k < 1:
        parser.error("-k must be at least 1")
    for tree in args.trees:
        if not (tree / "src" / "robustcoord").is_dir():
            parser.error(f"{tree} holds no src/robustcoord")
    record = bench([*CASES, LAYERS], args.k, args.trees, SCALE_SHAPES if args.scale else ())
    # a tree is named by its place in "trees", not by where it sat
    trees = [f"$TREE{i}" for i in range(len(args.trees))]
    command = ["python", "benchmarks/bench.py", *trees, "-k", str(args.k)]
    record = {"command": command + ["--scale"] * args.scale, **record}
    tag = "_vs_".join(tree["tag"] for tree in record["trees"])
    out = args.out or ROOT / f"BENCH_{tag}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"{'cpu ms [q1, q3], max-rss MB':<34}", *(f"{t['tag']:>30}" for t in record["trees"]))
    for group in ("floors", "end_to_end"):
        for name in record["trees"][0][group]:
            print(f"{name:<34}", *(_cell(tree[group][name]) for tree in record["trees"]))
    print(f"{'wide grid, best ms':<34}")
    for name in record["trees"][0]["per_layer"]:
        best = (tree["per_layer"][name]["wall_s"]["best"] * 1e3 for tree in record["trees"])
        print(f"{name:<34}", *(f"{ms:>30.2f}" for ms in best))
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
