"""Robust information design for binary-action coordination games.

Computes the welfare-optimal sequential information policy when a designer
must assume agents settle on the smallest (least cooperative) equilibrium,
verifies it against an exact linear program over ordered recommendation
sequences, and quantifies the gap to classical persuasion baselines that
presume the best equilibrium.
"""

import os

# numpy's OpenBLAS starts one worker thread per extra CPU when it loads, and
# each worker busy-waits before it sleeps; no BLAS call here is large enough
# to use one, so the spin only burns CPU. One thread unless the user chose
# otherwise; this must run before the first numpy import to take effect.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .baselines import (
    BaselinePolicy,
    ComparisonRecord,
    compare,
    design_bce_optimistic,
    evaluate_bce_realized,
    sweep,
    sweep_boundaries,
)
from .designer import (
    InfeasibleDesignError,
    OpCounter,
    StrictModeError,
    ThresholdPolicy,
    design,
    score,
    to_sequential_policy,
)
from .env import (
    POWER,
    TABULATED,
    AssumptionReport,
    Environment,
    WelfareSpec,
    check_assumptions,
    full_coop_value,
    marginal_gain,
    potential,
    utility,
    welfare_value,
)
from .equilibrium import (
    PRIVATE_SEQUENTIAL,
    PUBLIC,
    Belief,
    EquilibriumOutcome,
    EventOutcome,
    RealizedEvaluation,
    evaluate_policy_realized,
    expected_gain,
    posterior_from_event,
    smallest_equilibrium,
)
from .lp import (
    LinearProgram,
    LpSolution,
    build_lp,
    build_symmetric_lp,
    extract_policy,
    lp_to_text,
    solve,
)
from .scenarios import MODES, PRESETS, Scenario, build_scenario, load_scenario
from .seqpolicy import (
    CapacityError,
    ObedienceReport,
    SequentialPolicy,
    check_policy,
    count_sequences,
    enumerate_sequences,
    expected_welfare,
    policy_from_dict,
    policy_from_json,
    policy_to_dict,
    policy_to_json,
    so_c_value,
    so_n_value,
)

__version__ = "0.1.0"

__all__ = [
    "AssumptionReport",
    "BaselinePolicy",
    "Belief",
    "CapacityError",
    "ComparisonRecord",
    "Environment",
    "EquilibriumOutcome",
    "EventOutcome",
    "InfeasibleDesignError",
    "LinearProgram",
    "LpSolution",
    "MODES",
    "ObedienceReport",
    "OpCounter",
    "POWER",
    "PRESETS",
    "PRIVATE_SEQUENTIAL",
    "PUBLIC",
    "RealizedEvaluation",
    "Scenario",
    "SequentialPolicy",
    "StrictModeError",
    "TABULATED",
    "ThresholdPolicy",
    "WelfareSpec",
    "build_lp",
    "build_symmetric_lp",
    "build_scenario",
    "check_assumptions",
    "check_policy",
    "compare",
    "count_sequences",
    "design",
    "design_bce_optimistic",
    "enumerate_sequences",
    "evaluate_bce_realized",
    "evaluate_policy_realized",
    "expected_gain",
    "expected_welfare",
    "extract_policy",
    "full_coop_value",
    "load_scenario",
    "lp_to_text",
    "marginal_gain",
    "policy_from_dict",
    "policy_from_json",
    "policy_to_dict",
    "policy_to_json",
    "posterior_from_event",
    "potential",
    "score",
    "smallest_equilibrium",
    "so_c_value",
    "so_n_value",
    "solve",
    "sweep",
    "sweep_boundaries",
    "to_sequential_policy",
    "utility",
    "welfare_value",
]
