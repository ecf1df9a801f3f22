"""Command line surface: scenario runs, verification, sweeps, figure data.

Each command loads a scenario (preset name or JSON path), runs one
analysis, and writes artifacts into --out. `run` executes every mode the
scenario enables plus the cost sweep when one is configured. Artifacts are
deterministic: rerunning a scenario reproduces byte-identical files except
for the manifest timestamp. Each JSON artifact is built here, from its
record's `_asdict()`; where one departs from those fields, its writer says why.

Exit codes: 0 success, 1 assumption failure under --strict, 2 input or I/O
error, 3 a scenario past one of the loader's size caps.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys
from datetime import datetime, timezone
from functools import cache, cached_property
from itertools import chain, compress, repeat
from pathlib import Path

from .designer import InfeasibleDesignError, StrictModeError, certify, design, to_sequential_policy
from .env import DEFAULT_TOL, PROB_TOL, check_tol
from .scenarios import Scenario, load_scenario
from .seqpolicy import CapacityError, check_policy, policy_to_dict

# Only the baselines, sweep and public-counterfactual modes run baselines
# and equilibrium, so these names are taken through the package's _EXPORTS
# on first use (PEP 562): a `design` or `check` process loads neither. The
# runners look the names up on this module when they call them, so whatever
# is bound here at that moment (a tracing wrapper, say) is what runs.
# No command runs build_lp or solve: they stay only because the benchmark's
# tracer (perfbench/spans.py) rebinds them here, and ROADMAP item 3, which
# retargets those spans at certify, releases them.
_LAZY = frozenset(
    "compare sweep sweep_boundaries evaluate_policy_realized PRIVATE_SEQUENTIAL PUBLIC "
    "build_lp solve".split()
)


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(sys.modules[__package__], name)
    return value


_cli = sys.modules[__name__]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".10g")
    return str(value)


_CONTAINERS = (dict, list, tuple)


def _flat(values) -> bool:
    """No value is a non-empty container (json writes an empty one as "[]" or
    "{}"), in C passes over ``values``, which must be re-iterable. The
    values' types settle the common case, no container at all."""
    if not any(issubclass(t, _CONTAINERS) for t in set(map(type, values))):
        return True
    return not any(compress(values, map(isinstance, values, repeat(_CONTAINERS))))


@cache
def _encoder(depth: int):
    """json's C encoder, whose item separator starts a line at ``depth``."""
    item = ",\n" + "  " * depth
    return json.JSONEncoder(sort_keys=True, allow_nan=False, separators=(item, ": ")).encode


def _dumps(obj, depth: int = 0) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)`` for
    ``obj`` at ``depth``, with json's C encoder doing the flat parts. With
    ``indent`` set json runs its pure-Python encoder, which walks every
    value; here a flat container, and a list of non-empty flat dicts, is one
    C call whose brackets are then indented. An encoded string holds no raw
    newline, so in such a list "},\\n" and the item indent before "{" occur
    only between items."""
    if not (isinstance(obj, _CONTAINERS) and obj):
        return _encoder(depth)(obj)
    is_dict = isinstance(obj, dict)
    pad, inner = "\n" + "  " * depth, "\n" + "  " * (depth + 1)
    if _flat(obj.values() if is_dict else obj):
        text = _encoder(depth + 1)(obj)
        return text[0] + inner + text[1:-1] + pad + text[-1]
    if is_dict:
        if not all(isinstance(key, str) for key in obj):  # json's own key rules
            return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False).replace("\n", pad)
        quote = json.encoder.encode_basestring_ascii
        body = [f"{quote(key)}: {_dumps(v, depth + 1)}" for key, v in sorted(obj.items())]
        return "{" + inner + ("," + inner).join(body) + pad + "}"
    if set(map(type, obj)) == {dict} and all(obj):
        if _flat([*chain.from_iterable(map(dict.values, obj))]):
            item = "\n" + "  " * (depth + 2)
            text = _encoder(depth + 2)(obj)[2:-2]
            text = text.replace("}," + item + "{", inner + "}," + inner + "{" + item)
            return "[" + inner + "{" + item + text + inner + "}" + pad + "]"
    return "[" + inner + ("," + inner).join([_dumps(v, depth + 1) for v in obj]) + pad + "]"


def _write_json(path: Path, obj) -> None:
    try:
        text = _dumps(obj) + "\n"
    except ValueError as exc:  # NaN or an infinity, which JSON cannot hold
        raise ValueError(f"{path.name}: {exc}") from exc
    path.write_text(text)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(map(_fmt, row)) for row in rows)
    path.write_text("\n".join(lines) + "\n")


class _Designed:
    """The scenario's design and its sequential policy, each computed at
    most once per command and only when a mode first asks for it."""

    def __init__(self, scn: Scenario, strict: bool):
        self.scn, self.strict = scn, strict

    @cached_property
    def tp(self):
        return design(self.scn.env, self.scn.welfare, strict=self.strict)

    @cached_property
    def policy(self):
        return to_sequential_policy(self.tp, self.scn.env)


def _run_design(scn: Scenario, out: Path, args, dsn: _Designed) -> list[str]:
    tp, pol = dsn.tp, dsn.policy
    fields = tp._asdict()
    # the artifact's established key for the field
    fields["invite_probabilities"] = fields.pop("invite_probs")
    # JSON has no infinities, and a tiny alpha can still make a score infinite
    fields["scores"] = [
        ("inf" if x > 0 else "-inf") if math.isinf(x) else x for x in tp.scores
    ]
    fields["states"] = scn.env.labels  # the record numbers the states; add their labels
    _write_json(out / "design.json", fields)
    _write_json(out / "policy.json", policy_to_dict(pol, labels=scn.env.labels))
    rows = [list(row) for row in zip(scn.env.labels, tp.scores, tp.invite_probs)]
    _write_csv(out / "figdata_scores.csv", ["state", "score", "invite_prob"], rows)
    return ["design.json", "policy.json", "figdata_scores.csv"]


def _run_check(scn: Scenario, out: Path, args, dsn: _Designed) -> list[str]:
    fields = check_policy(dsn.policy, scn.env, tol=args.tol)._asdict()
    fields["pass"] = fields.pop("passed")  # the artifact's established key
    _write_json(out / "obedience.json", fields)
    return ["obedience.json"]


def _run_lp(scn: Scenario, out: Path, args, dsn: _Designed) -> list[str]:
    # the design, certified by the agent-symmetric LP's dual; of that LP's
    # columns (state, size k), the design uses only the sizes 0 and N
    env, tp = scn.env, dsn.tp
    cert = certify(env, scn.welfare, tp)
    fields = cert._asdict()
    value = fields.pop("dual_value")  # the artifact's established key
    payload = {
        "status": "OPTIMAL" if cert.passed else "NUMERICAL",
        "value": value,
        # the LP's S * (N + 1) columns, each bounded by the certificate: with
        # power welfare its end columns k = 0 and N bound the rest
        "n_vars": env.n_states * (env.n_agents + 1),
        "assignment": [
            {"state": label, "size": size, "prob": p}
            for label, x in zip(env.labels, tp.invite_probs)
            for size, p in ((0, 1.0 - x), (env.n_agents, x))
            if p > PROB_TOL
        ],
        **fields,
        "greedy_welfare": tp.expected_welfare,
        "agreement_gap": abs(value - tp.expected_welfare) if cert.passed else None,
    }
    _write_json(out / "lp.json", payload)
    return ["lp.json"]


def _realized(ev) -> dict:  # each event as its own fields, not a bare list
    return {**ev._asdict(), "events": [e._asdict() for e in ev.events]}


def _run_public(scn: Scenario, out: Path, args, dsn: _Designed) -> list[str]:
    pol = dsn.policy
    evaluate = _cli.evaluate_policy_realized
    priv = evaluate(
        pol, scn.env, scn.welfare, mode=_cli.PRIVATE_SEQUENTIAL, obedience_tol=args.tol
    )
    pub = evaluate(pol, scn.env, scn.welfare, mode=_cli.PUBLIC)
    _write_json(
        out / "public.json",
        {
            "private_sequential": _realized(priv),
            "public_counterfactual": _realized(pub),
            "welfare_shortfall": priv.welfare - pub.welfare,
        },
    )
    return ["public.json"]


_COMPARE_HEADER = [
    "cost",
    "robust_welfare",
    "bce_predicted",
    "bce_realized",
    "theta_star",
    "p_star",
    "bce_threshold",
]


def _compare_row(rec) -> list:
    return [getattr(rec, field) for field in _COMPARE_HEADER]


def _run_compare(scn: Scenario, out: Path, args, dsn: _Designed) -> list[str]:
    rec = _cli.compare(scn.env, scn.welfare)
    _write_csv(out / "comparison.csv", _COMPARE_HEADER, [_compare_row(rec)])
    return ["comparison.csv"]


def _run_sweep(scn: Scenario, out: Path, args, dsn: _Designed) -> list[str]:
    if scn.sweep_costs is None:
        raise ValueError(f"scenario {scn.name!r} has no sweep block")
    records = _cli.sweep(scn.env, scn.welfare, scn.sweep_costs)
    _write_csv(out / "sweep.csv", _COMPARE_HEADER, [_compare_row(r) for r in records])
    _write_csv(
        out / "figdata_welfare.csv",
        ["cost", "robust", "bce_predicted", "bce_realized"],
        [[r.cost, r.robust_welfare, r.bce_predicted, r.bce_realized] for r in records],
    )
    _write_json(out / "sweep_summary.json", _cli.sweep_boundaries(records))
    return ["sweep.csv", "figdata_welfare.csv", "sweep_summary.json"]


_MODE_RUNNERS = {
    "design": _run_design,
    "check": _run_check,
    "lp": _run_lp,
    "baselines": _run_compare,
    "public-counterfactual": _run_public,
}


def _run_all(scn: Scenario, out: Path, args, dsn: _Designed) -> list[str]:
    written: list[str] = []
    for mode in scn.modes:
        written.extend(_MODE_RUNNERS[mode](scn, out, args, dsn))
    if scn.sweep_costs is not None:
        written.extend(_run_sweep(scn, out, args, dsn))
    return written


_COMMANDS = {
    "design": (_run_design, "compute the robust threshold policy"),
    "check": (_run_check, "verify obedience of the designed policy"),
    "lp": (_run_lp, "certify the design optimal by the agent-symmetric LP's dual"),
    "evaluate": (_run_public, "realized welfare, private versus public signals"),
    "compare": (_run_compare, "robust versus optimistic baselines at one cost"),
    "sweep": (_run_sweep, "baseline comparison across the configured cost grid"),
    "run": (_run_all, "every mode the scenario enables, plus the sweep"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robustcoord",
        description="Robust information design for binary-action coordination games.",
        epilog="commands:\n"
        + "".join(f"  {name:<10} {help_text}\n" for name, (_, help_text) in _COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "command", choices=_COMMANDS, metavar="command", help="one of the commands below"
    )
    parser.add_argument(
        "--scenario",
        required=True,
        help="preset name (case1, case2) or path to a scenario JSON file",
    )
    parser.add_argument("--out", default="artifacts", help="output directory (created if missing)")
    parser.add_argument("--tol", type=float, default=DEFAULT_TOL, help="obedience check tolerance")
    parser.add_argument(
        "--strict",
        action="store_true",
        help="fail (exit 1) on modeling-assumption violations instead of warning",
    )
    return parser


def main(argv=None) -> int:
    if argv is None:
        # we own the process: park the import-time heap in the permanent
        # generation, so no collection walks it and exit leaves it to the OS
        gc.freeze()
    args = _build_parser().parse_args(argv)
    try:
        check_tol(args.tol)
        scn = load_scenario(args.scenario)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        written = _COMMANDS[args.command][0](scn, out, args, _Designed(scn, args.strict))
        _write_json(
            out / "manifest.json",
            {
                "schema": 1,
                "scenario": scn.name,
                "command": args.command,
                "modes": list(scn.modes),
                "artifacts": sorted(written),
                "flags": {"tol": args.tol, "strict": args.strict},
                "timestamp": datetime.now(timezone.utc).isoformat(),
            },
        )
    except StrictModeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, InfeasibleDesignError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
