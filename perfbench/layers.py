"""Per-layer metrics derived from the spans of the traced run.

Per-call layer times (``designer.design_s`` and the like) are the summed CPU
time of the calling thread inside each span: ``sweep`` runs ``compare`` on a
thread pool, where wall time would count waits for the interpreter lock.
``cli.main_s``, ``cli.self_s``, ``scenarios.load_s`` and ``baselines.sweep_s``
are wall time on the main thread. Each is summed over one pass and reported
as the median over traced passes; counts are taken from the first traced
pass, and ``combine`` says whether every pass gave the same counts.

The lp.* and simplex.* metrics carry one suffix per LP instance, named by its
agent count (``.n3`` ... ``.n6``) or ``.case2``. Where a workload has no such
instance they read 0; where the program refused to build the LP, the
instance counts as the zero solution: mass residual 1 and agreement gap equal
to the reference welfare.
"""

from __future__ import annotations

import statistics

from spans import Span, self_times

LP_TAGS = ("n3", "n4", "n5", "n6", "case2")
CERT_TOL = 1e-9

_LP_METRICS = [
    ("lp.build_lp_s", "s", "lower"),
    ("lp.solve_s", "s", "lower"),
    ("lp.n_vars", "count", "lower"),
    ("simplex.pivots", "count", "lower"),
    ("lp.mass_residual_max", "prob", "lower"),
    ("lp.agreement_gap", "welfare", "lower"),
]

# (name, unit, better) in the order BENCHMARK.json lists them
PER_LAYER = [
    ("cli.import_s", "s", "lower"),
    ("scenarios.load_s", "s", "lower"),
    ("cli.main_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("designer.design_s", "s", "lower"),
    ("designer.design_calls", "count", "lower"),
    ("designer.ops", "count", "lower"),
    ("designer.to_sequential_policy_s", "s", "lower"),
    ("seqpolicy.check_policy_s", "s", "lower"),
    ("equilibrium.smallest_equilibrium_s", "s", "lower"),
    ("equilibrium.smallest_equilibrium_calls", "count", "lower"),
    ("equilibrium.br_rounds", "count", "lower"),
    ("equilibrium.evaluate_policy_realized_s", "s", "lower"),
    ("baselines.compare_s", "s", "lower"),
    ("baselines.design_bce_optimistic_s", "s", "lower"),
    ("baselines.evaluate_bce_realized_s", "s", "lower"),
    ("baselines.sweep_s", "s", "lower"),
    ("baselines.sweep_points_per_s", "1/s", "higher"),
    *[(f"{name}.{tag}", unit, better) for name, unit, better in _LP_METRICS for tag in LP_TAGS],
    ("lp.certified_ratio", "ratio", "higher"),
    ("trace.overhead_s", "s", "lower"),
]

UNITS = {name: unit for name, unit, _ in PER_LAYER}
COUNTS = [name for name, unit, _ in PER_LAYER if unit == "count"]

# spans whose metric is their summed CPU time, as "<span name>_s"
_CPU_TIMED = {
    "designer.design",
    "designer.to_sequential_policy",
    "seqpolicy.check_policy",
    "equilibrium.smallest_equilibrium",
    "equilibrium.evaluate_policy_realized",
    "baselines.compare",
    "baselines.design_bce_optimistic",
    "baselines.evaluate_bce_realized",
}


def _descendants(root: Span, children: dict[int, list[Span]]) -> list[Span]:
    out, todo = [], [root]
    while todo:
        sp = todo.pop()
        kids = children.get(sp.id, [])
        out.extend(kids)
        todo.extend(kids)
    return out


def _lp_instance(op_spans: list[Span], ref_welfare: float) -> tuple[dict, bool]:
    """lp.* values of one LP instance and whether its answer is certified."""
    by_name = {sp.name: sp for sp in op_spans}
    build, solve = by_name.get("lp.build_lp"), by_name.get("lp.solve")
    solve_min, design = by_name.get("simplex.solve_min"), by_name.get("designer.design")
    vals = {
        "lp.build_lp_s": build.cpu if build else 0.0,
        "lp.solve_s": solve.cpu if solve else 0.0,
        "lp.n_vars": build.attrs.get("n_vars", 0) if build else 0,
        "simplex.pivots": solve_min.attrs.get("pivots", 0) if solve_min else 0,
        "lp.mass_residual_max": 1.0,
        "lp.agreement_gap": ref_welfare,
    }
    if solve is None or "status" not in solve.attrs:
        return vals, False
    design_welfare = design.attrs["welfare"] if design and "welfare" in design.attrs else ref_welfare
    vals["lp.mass_residual_max"] = solve.attrs["mass_residual"]
    vals["lp.agreement_gap"] = abs(solve.attrs["value"] - design_welfare)
    certified = (
        solve.attrs["status"] == "OPTIMAL"
        and vals["lp.mass_residual_max"] <= CERT_TOL
        and solve.attrs["min_slack"] >= -CERT_TOL
        and vals["lp.agreement_gap"] <= CERT_TOL
    )
    return vals, certified


def pass_metrics(spans: list[Span], ops: dict[str, dict]) -> dict[str, float]:
    """Per-layer values of one traced pass. ``ops`` maps op name to its
    ``lp_tag`` and reference welfare; each cli.main span names its op."""
    children: dict[int, list[Span]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append(sp)
    selfs = self_times(spans)
    m = {name: 0.0 for name, _, _ in PER_LAYER if name not in ("cli.import_s", "trace.overhead_s")}
    points, sweep_wall = 0, 0.0
    for sp in spans:
        if sp.name in _CPU_TIMED:
            m[sp.name + "_s"] += sp.cpu
        if sp.name == "cli.main":
            m["cli.main_s"] += sp.duration
            m["cli.self_s"] += selfs[sp.id]
        elif sp.name == "scenarios.load":
            m["scenarios.load_s"] += sp.duration
        elif sp.name == "designer.design":
            m["designer.design_calls"] += 1
            m["designer.ops"] += sp.attrs.get("ops", 0)
        elif sp.name == "equilibrium.smallest_equilibrium":
            m["equilibrium.smallest_equilibrium_calls"] += 1
            m["equilibrium.br_rounds"] += sp.attrs.get("br_rounds", 0)
        elif sp.name == "baselines.sweep":
            m["baselines.sweep_s"] += sp.duration
            sweep_wall += sp.duration
            points += sp.attrs.get("points", 0)
    if sweep_wall > 0.0:
        m["baselines.sweep_points_per_s"] = points / sweep_wall

    attempted = certified = 0
    for root in spans:
        if root.name != "cli.main" or root.attrs.get("op") not in ops:
            continue
        op = ops[root.attrs["op"]]
        if op["lp_tag"] is None:
            continue
        vals, ok = _lp_instance(_descendants(root, children), op["ref_welfare"])
        attempted += 1
        certified += ok
        for name, value in vals.items():
            m[f"{name}.{op['lp_tag']}"] = value
    if attempted:
        m["lp.certified_ratio"] = certified / attempted
    for name in COUNTS:
        m[name] = int(m[name])
    return m


def combine(per_pass: list[dict[str, float]]) -> tuple[dict[str, float], bool]:
    """Median over passes for measured values, first pass for counts; the
    flag says whether every pass gave the same counts."""
    out = {}
    for name in per_pass[0]:
        if name in COUNTS:
            out[name] = per_pass[0][name]
        else:
            out[name] = statistics.median(p[name] for p in per_pass)
    repeat = all(p[name] == per_pass[0][name] for p in per_pass for name in COUNTS)
    return out, repeat
