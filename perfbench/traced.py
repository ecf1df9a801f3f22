"""Traced in-process run: one fresh interpreter calls ``robustcoord.cli.main``
for every op of a pass: one warm-up pass, then untraced and traced passes
in turn.

Usage (started by run.py with PYTHONPATH pointing at src):
    python3 perfbench/traced.py OPS_JSON RESULT_JSON SECONDS

The import of ``robustcoord.cli`` is timed first, before anything else is
loaded. Each op's artifacts are checked after it returns, outside the pass
time. Spans stay in memory and are written to RESULT_JSON with the pass
times and verdicts when the run ends.
"""

import sys
import time

_t0 = time.perf_counter()
import robustcoord.cli as cli  # noqa: E402

IMPORT_S = time.perf_counter() - _t0

import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

import checker  # noqa: E402
import spans  # noqa: E402
from workloads import Op  # noqa: E402

MIN_PASSES_EACH = 2


def run_pass(ops: list[Op], out_root: Path, tracer: spans.Tracer | None):
    wall, verdicts = 0.0, {}
    for op in ops:
        out = out_root / op.name
        shutil.rmtree(out, ignore_errors=True)
        t0 = time.perf_counter()
        try:
            code = cli.main([*op.argv, "--out", str(out)])
        except Exception as exc:  # a crash is a failed op, not a failed run
            print(f"{op.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
            code = -1
        wall += time.perf_counter() - t0
        if tracer is not None:
            root = next(sp for sp in reversed(tracer.spans) if sp.name == "cli.main")
            root.attrs["op"] = op.name
        verdicts[op.name] = checker.check_op(op, out, code)
    return wall, verdicts


def main(argv: list[str]) -> int:
    ops_path, result_path, seconds = Path(argv[0]), Path(argv[1]), float(argv[2])
    spec = json.loads(ops_path.read_text())
    ops = [Op(**d) for d in spec["ops"]]
    out_root = Path(spec["out_dir"])
    tracer = spans.Tracer()
    passes: list[dict] = []
    start = time.perf_counter()
    run_pass(ops, out_root, None)  # warm-up: first calls, page cache
    while True:
        walls = [p["wall"] for p in passes]
        counts = {k: sum(p["traced"] == k for p in passes) for k in (False, True)}
        enough = min(counts.values()) >= MIN_PASSES_EACH
        if enough and time.perf_counter() - start + statistics.median(walls) > seconds:
            break
        traced = len(passes) % 2 == 1
        tracer.pass_id = len(passes)
        uninstall = spans.install(tracer) if traced else None
        try:
            wall, verdicts = run_pass(ops, out_root, tracer if traced else None)
        finally:
            if uninstall:
                uninstall()
        passes.append({"pass_id": len(passes), "traced": traced, "wall": wall, "verdicts": verdicts})
    result_path.write_text(
        json.dumps({"import_s": IMPORT_S, "passes": passes, "spans": tracer.to_json()})
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
