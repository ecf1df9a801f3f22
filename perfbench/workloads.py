"""The benchmark's workloads: which CLI ops one pass runs, and their inputs.

Inputs come from the seed alone (``random.Random`` seeded with a string is
stable across runs and platforms); the program only ever sees the scenario
files written here, or a preset name. Each op carries the reference figures
its outputs are checked against (see ``oracle`` and ``checker``).

- ``paper-cases``: ``run`` on the presets case1 and case2, each a fresh
  process. Short processes, so import, scenario load and artifact writing
  dominate. The seed is unused.
- ``wide-grid``: one ``run`` of an N=20, S=2000 grid scenario with design,
  check, baselines and public-counterfactual plus a 23-point cost sweep. Time
  goes to Python loops over states and agent counts.
- ``lp-oracle``: ``lp`` on seeded three-state instances at N=3, 4, 5, on a
  fixed N=6 instance and on case2. Time goes to LP assembly and pivoting.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import oracle

WORKLOADS = ("paper-cases", "wide-grid", "lp-oracle")

# the paper's two cases, as the CLI presets define them; kept here so the
# references do not come from the code under test
CASE1 = {
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

CASE2 = {
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

# the explicit LP reports a false OPTIMAL on this instance (mass drift 5.45e-4)
LP_N6 = {
    "schema": 1,
    "name": "lp-n6",
    "n_agents": 6,
    "states": [
        {"label": "s0", "prob": 0.3, "b": 1.0, "lambda": 0.3, "alpha": 6.0},
        {"label": "s1", "prob": 0.3, "b": 1.8, "lambda": 0.6, "alpha": 9.0},
        {"label": "s2", "prob": 0.4, "b": 2.5, "lambda": 0.9, "alpha": 12.0},
    ],
    "cost": 2.0,
    "beta": 1.5,
    "modes": ["lp"],
}


@dataclass
class Op:
    """One CLI process: ``robustcoord <argv>`` plus what its outputs must show."""

    name: str
    argv: list[str]
    config: dict
    lp_tag: str | None = None  # suffix of the lp.* / simplex.* metrics
    ref: dict = field(default_factory=dict)

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def scenario(self) -> str:
        return self.argv[self.argv.index("--scenario") + 1]


def _write(path: Path, config: dict) -> str:
    path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
    return str(path)


def wide_grid_config(seed: int) -> dict:
    ramps = {"b": [0.5, 2.0], "lambda": [0.1, 0.8], "alpha": [6.0, 12.0]}
    if seed != 0:
        rng = random.Random(f"wide-grid/{seed}")
        spread = {"b": 0.1, "lambda": 0.1, "alpha": 0.5}
        ramps = {
            k: [round(v + rng.uniform(-spread[k], spread[k]), 3) for v in lohi]
            for k, lohi in ramps.items()
        }
    return {
        "schema": 1,
        "name": f"wide-grid-{seed}",
        "n_agents": 20,
        "grid": {"count": 2000, "theta_start": 0.0005, "theta_step": 0.0005, **ramps},
        "cost": 2.0,
        "beta": 1.5,
        "sweep": {"start": 1.0, "stop": 3.2, "step": 0.1},
        "modes": ["design", "check", "baselines", "public-counterfactual"],
    }


def lp_instance(rng: random.Random, n_agents: int) -> dict:
    """Three-state instance whose robust design is feasible at cost 2."""
    while True:
        p0, p1 = round(rng.uniform(0.15, 0.45), 2), round(rng.uniform(0.15, 0.45), 2)
        prior = [p0, p1, round(1.0 - p0 - p1, 2)]
        b = sorted(round(rng.uniform(0.5, 3.0), 2) for _ in range(3))
        states = [
            {
                "label": f"s{k}",
                "prob": prior[k],
                "b": b[k],
                "lambda": round(rng.uniform(0.1, 1.0), 2),
                "alpha": round(rng.uniform(4.0, 14.0), 1),
            }
            for k in range(3)
        ]
        config = {
            "schema": 1,
            "name": f"lp-n{n_agents}",
            "n_agents": n_agents,
            "states": states,
            "cost": 2.0,
            "beta": 1.5,
            "modes": ["lp"],
        }
        if oracle.robust_invites(oracle.model_from_config(config)) is not None:
            return config


def build_ops(workload: str, seed: int, scenario_dir: Path) -> list[Op]:
    """The ops of one pass, with scenario files written under scenario_dir."""
    scenario_dir.mkdir(parents=True, exist_ok=True)
    if workload == "paper-cases":
        ops = [
            Op("case1", ["run", "--scenario", "case1"], CASE1, "n3"),
            Op("case2", ["run", "--scenario", "case2"], CASE2),
        ]
    elif workload == "wide-grid":
        config = wide_grid_config(seed)
        path = _write(scenario_dir / "wide-grid.json", config)
        ops = [Op("grid", ["run", "--scenario", path], config)]
    elif workload == "lp-oracle":
        rng = random.Random(f"lp-oracle/{seed}")
        ops = []
        for n in (3, 4, 5):
            config = lp_instance(rng, n)
            path = _write(scenario_dir / f"lp-n{n}.json", config)
            ops.append(Op(f"n{n}", ["lp", "--scenario", path], config, f"n{n}"))
        path = _write(scenario_dir / "lp-n6.json", LP_N6)
        ops.append(Op("n6", ["lp", "--scenario", path], LP_N6, "n6"))
        ops.append(Op("case2", ["lp", "--scenario", "case2"], CASE2, "case2"))
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    for op in ops:
        op.ref = oracle.references(op.config)
    return ops
