"""Output checker: one verdict per CLI op, which feeds the failure count.

An op fails on a nonzero exit or on any failed check of its artifacts:

- ``obedience.json`` has ``"pass": true``;
- ``lp.json`` has status OPTIMAL, per-state mass summed from ``assignment``
  equal to 1 within 1e-9 for every state, ``agreement_gap`` at most 1e-9, and a value equal
  to the robust design's welfare;
- every sweep row has bce_realized <= robust_welfare <= bce_predicted within
  1e-9;
- every welfare figure matches its reference (``oracle``) within 1e-9
  relative; CSV figures are printed to 10 significant digits, which this
  tolerance covers.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

TOL = 1e-9


def close(value: float, ref: float) -> bool:
    return math.isclose(value, ref, rel_tol=TOL, abs_tol=1e-12)


def check_lp_json(lp: dict, robust_welfare: float, n_states: int) -> list[str]:
    errors = []
    if lp.get("status") != "OPTIMAL":
        errors.append(f"lp status {lp.get('status')!r}")
    mass: dict[str, float] = {}
    for entry in lp.get("assignment", []):
        mass[entry["state"]] = mass.get(entry["state"], 0.0) + entry["prob"]
    if len(mass) != n_states:
        errors.append(f"lp assigns mass to {len(mass)} of {n_states} states")
    for state, total in sorted(mass.items()):
        if abs(total - 1.0) > TOL:
            errors.append(f"lp mass of state {state} is {total!r}")
    gap = lp.get("agreement_gap")
    if gap is None or gap > TOL:
        errors.append(f"lp agreement_gap {gap!r}")
    if not close(lp.get("value", math.nan), robust_welfare):
        errors.append(f"lp value {lp.get('value')!r} != design welfare {robust_welfare!r}")
    return errors


def check_sweep_rows(rows: list[dict], ref_rows: list[list[float]]) -> list[str]:
    errors = []
    if len(rows) != len(ref_rows):
        return [f"sweep has {len(rows)} rows, expected {len(ref_rows)}"]
    for row, (cost, robust, predicted, realized) in zip(rows, ref_rows):
        got = [float(row[k]) for k in ("cost", "robust_welfare", "bce_predicted", "bce_realized")]
        if not (got[3] <= got[1] + TOL and got[1] <= got[2] + TOL):
            errors.append(f"sweep order broken at cost {row['cost']}")
        for name, value, ref in zip(("cost", "robust", "bce_predicted", "bce_realized"), got, (cost, robust, predicted, realized)):
            if not close(value, ref):
                errors.append(f"sweep {name} at cost {row['cost']}: {value!r} != {ref!r}")
    return errors


def _read_json(path: Path):
    return json.loads(path.read_text())


def _read_csv(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def check_artifacts(op, out: Path) -> list[str]:
    errors: list[str] = []
    modes, ref = op.config["modes"], op.ref
    robust = ref["robust_welfare"]
    n_states = len(op.config["states"]) if "states" in op.config else op.config["grid"]["count"]
    if op.command == "lp":
        return check_lp_json(_read_json(out / "lp.json"), robust, n_states)
    if "design" in modes:
        got = _read_json(out / "design.json")["expected_welfare"]
        if not close(got, robust):
            errors.append(f"design welfare {got!r} != {robust!r}")
    if "check" in modes and _read_json(out / "obedience.json").get("pass") is not True:
        errors.append("obedience check did not pass")
    if "lp" in modes:
        errors += check_lp_json(_read_json(out / "lp.json"), robust, n_states)
    if "baselines" in modes:
        (row,) = _read_csv(out / "comparison.csv")
        got = [float(row[k]) for k in ("robust_welfare", "bce_predicted", "bce_realized")]
        if not all(close(g, r) for g, r in zip(got, ref["compare"])):
            errors.append(f"comparison {got} != {ref['compare']}")
    if "public-counterfactual" in modes:
        pub = _read_json(out / "public.json")
        if not close(pub["private_sequential"]["welfare"], robust):
            errors.append("private-sequential welfare differs from the design")
        if not close(pub["public_counterfactual"]["welfare"], ref["public_welfare"]):
            errors.append("public-counterfactual welfare differs from the reference")
    if "sweep" in op.config:
        errors += check_sweep_rows(_read_csv(out / "sweep.csv"), ref["sweep"])
    return errors


def check_op(op, out: Path, exit_code: int) -> list[str]:
    """Every reason the op failed; empty when it passed."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        return check_artifacts(op, out)
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable artifacts: {type(exc).__name__}: {exc}"]
