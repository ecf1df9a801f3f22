"""Scenario configs: named presets plus a strict JSON loader.

A scenario bundles an environment, a power welfare spec, the analyses to run,
and an optional cost sweep. Configs are strict: any unknown key, or a key
given twice, is an error, so typos fail loudly instead of silently running
defaults.

Grid scenarios place states at theta = theta_start + k * theta_step and derive
the primitives as ramps linear in theta itself, value = lo + (hi - lo) * theta,
NOT normalized to the grid index range. Grid points and sweep costs are
stepped in decimal and converted to float once, so labels are exact ("0.56",
never "0.5600000000000001") and reruns reproduce byte-identical artifacts.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from decimal import Decimal
from pathlib import Path
from typing import NamedTuple

from .env import Environment, WelfareSpec, as_number

SCHEMA_VERSION = 1

MODES = ("design", "check", "lp", "baselines", "public-counterfactual")

_CASE1 = {
    "schema": 1,
    "name": "case1",
    "n_agents": 3,
    "states": [
        {"label": "L", "prob": 0.5, "b": 1.0, "lambda": 0.1, "alpha": 6.0},
        {"label": "H", "prob": 0.5, "b": 2.4, "lambda": 0.5, "alpha": 12.0},
    ],
    "cost": 2.0,
    "beta": 1.5,
    "sweep": {"start": 1.0, "stop": 3.2, "step": 0.05},
    "modes": ["design", "check", "lp", "baselines", "public-counterfactual"],
}

_CASE2 = {
    "schema": 1,
    "name": "case2",
    "n_agents": 10,
    "grid": {
        "count": 100,
        "theta_start": 0.01,
        "theta_step": 0.01,
        "b": [0.5, 2.0],
        "lambda": [0.1, 0.8],
        "alpha": [6.0, 12.0],
    },
    "cost": 2.0,
    "beta": 1.5,
    "sweep": {"start": 1.0, "stop": 3.2, "step": 0.05},
    "modes": ["design", "check", "baselines"],
}

PRESETS = {"case1": _CASE1, "case2": _CASE2}


class Scenario(NamedTuple):
    name: str
    env: Environment
    welfare: WelfareSpec
    modes: tuple[str, ...]
    sweep_costs: tuple[float, ...] | None


def _reject_unknown(block, allowed: set[str], where: str) -> None:
    if not isinstance(block, dict):
        raise ValueError(f"{where}: expected an object, got {type(block).__name__}")
    unknown = set(block) - allowed
    if unknown:
        raise ValueError(f"{where}: unknown field(s) {sorted(unknown)}")


def _require(block: dict, key: str, where: str):
    if key not in block:
        raise ValueError(f"{where}: missing required field '{key}'")
    return block[key]


def _reject_duplicates(items, where: str, what: str) -> None:
    dups = sorted(k for k, n in Counter(items).items() if n > 1)
    if dups:
        raise ValueError(f"{where}: duplicate {what} {dups}")


def _unique_keys(pairs: list) -> dict:
    """A JSON object, refusing a key it gives twice (``json`` keeps the last)."""
    _reject_duplicates([key for key, _ in pairs], "scenario file", "key(s)")
    return dict(pairs)


def _field(block: dict, key: str, where: str, kind=float):
    return as_number(_require(block, key, where), f"{where}.{key}", kind)


def _decimal(block: dict, key: str, where: str) -> Decimal:
    """A finite number as an exact decimal, read from its JSON spelling."""
    if not math.isfinite(_field(block, key, where)):
        raise ValueError(f"{where}.{key}: must be finite")
    return Decimal(str(block[key]))


def _ramp_endpoints(value, where: str) -> tuple[float, float]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ValueError(f"{where}: expected [lo, hi]")
    return as_number(value[0], f"{where}[0]"), as_number(value[1], f"{where}[1]")


def _build_explicit(config: dict, n_agents: int, cost: float, beta: float):
    states = config["states"]
    if not isinstance(states, list) or not states:
        raise ValueError("states: expected a non-empty list")
    labels, prior, benefit, comp, alpha = [], [], [], [], []
    for k, st in enumerate(states):
        where = f"states[{k}]"
        _reject_unknown(st, {"label", "prob", "b", "lambda", "alpha"}, where)
        label = str(_require(st, "label", where))
        # labels go unquoted into the CSV artifacts; grid labels are decimal strings
        if any(ch in label for ch in ',"\r\n'):
            raise ValueError(
                f"{where}.label: {label!r} holds a comma, double quote, CR or LF, "
                "which the CSV artifacts cannot carry"
            )
        labels.append(label)
        prior.append(_field(st, "prob", where))
        benefit.append(_field(st, "b", where))
        comp.append(_field(st, "lambda", where))
        alpha.append(_field(st, "alpha", where))
    env = Environment(
        n_agents=n_agents,
        labels=tuple(labels),
        prior=prior,
        benefit=benefit,
        complementarity=comp,
        cost=cost,
    )
    return env, WelfareSpec.power(n_agents, alpha, beta)


def _build_grid(config: dict, n_agents: int, cost: float, beta: float):
    grid = config["grid"]
    _reject_unknown(
        grid, {"count", "theta_start", "theta_step", "b", "lambda", "alpha"}, "grid"
    )
    count = _field(grid, "count", "grid", int)
    if count < 1:
        raise ValueError("grid.count: must be at least 1")
    d0, dd = _decimal(grid, "theta_start", "grid"), _decimal(grid, "theta_step", "grid")
    decs = [d0 + k * dd for k in range(count)]
    theta = [float(d) for d in decs]

    def ramp(key: str) -> list[float]:
        lo, hi = _ramp_endpoints(_require(grid, key, "grid"), f"grid.{key}")
        return [lo + (hi - lo) * t for t in theta]

    env = Environment(
        n_agents=n_agents,
        labels=tuple(str(d) for d in decs),
        prior=[1.0 / count] * count,
        benefit=ramp("b"),
        complementarity=ramp("lambda"),
        cost=cost,
    )
    return env, WelfareSpec.power(n_agents, ramp("alpha"), beta)


def _build_sweep(block: dict) -> tuple[float, ...]:
    _reject_unknown(block, {"start", "stop", "step"}, "sweep")
    start = _decimal(block, "start", "sweep")
    stop = _decimal(block, "stop", "sweep")
    step = _decimal(block, "step", "sweep")
    if step <= 0:
        raise ValueError("sweep.step: must be positive")
    if stop < start:
        raise ValueError("sweep.stop: must not be below sweep.start")
    costs, point = [], start
    while point <= stop:
        costs.append(float(point))
        point += step
    return tuple(costs)


def build_scenario(config: dict) -> Scenario:
    _reject_unknown(
        config,
        {"schema", "name", "n_agents", "states", "grid", "cost", "beta", "sweep", "modes"},
        "scenario",
    )
    schema = _require(config, "schema", "scenario")
    if schema != SCHEMA_VERSION:
        raise ValueError(f"scenario.schema: expected {SCHEMA_VERSION}, got {schema!r}")
    name = str(_require(config, "name", "scenario"))
    n_agents = _field(config, "n_agents", "scenario", int)
    cost = _field(config, "cost", "scenario")
    beta = _field(config, "beta", "scenario")

    if ("states" in config) == ("grid" in config):
        raise ValueError("scenario: provide exactly one of 'states' or 'grid'")
    if "states" in config:
        env, welfare = _build_explicit(config, n_agents, cost, beta)
    else:
        env, welfare = _build_grid(config, n_agents, cost, beta)
    _reject_duplicates(env.labels, "states" if "states" in config else "grid", "label(s)")

    modes = _require(config, "modes", "scenario")
    if not isinstance(modes, list):
        raise ValueError("scenario.modes: expected a list")
    bad = [m for m in modes if m not in MODES]
    if bad:
        raise ValueError(f"scenario.modes: unknown mode(s) {bad}; valid: {list(MODES)}")
    _reject_duplicates(modes, "scenario.modes", "mode(s)")

    sweep_costs = _build_sweep(config["sweep"]) if "sweep" in config else None
    return Scenario(
        name=name,
        env=env,
        welfare=welfare,
        modes=tuple(modes),
        sweep_costs=sweep_costs,
    )


def load_scenario(source: str) -> Scenario:
    """Accepts a preset name or a path to a scenario JSON file."""
    if source in PRESETS:
        return build_scenario(PRESETS[source])
    path = Path(source)
    if not path.exists():
        raise ValueError(
            f"unknown scenario {source!r}: not a preset "
            f"({', '.join(sorted(PRESETS))}) and no such file"
        )
    try:
        config = json.loads(path.read_text(), object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON ({exc})") from exc
    return build_scenario(config)
