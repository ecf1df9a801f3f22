"""Robust information design for binary-action coordination games.

Computes the welfare-optimal sequential information policy when a designer
must assume agents settle on the smallest (least cooperative) equilibrium,
verifies it against an exact linear program over ordered recommendation
sequences, and quantifies the gap to classical persuasion baselines that
presume the best equilibrium.
"""

import os
from importlib import import_module

# Only the LP (lp, simplex) uses numpy, so this matters only in a
# process that solves one. numpy's OpenBLAS starts one worker thread per
# extra CPU when it loads, and each worker busy-waits before it sleeps; no
# BLAS call here is large enough to use one, so the spin only burns CPU. One
# thread unless the user chose otherwise; this must run before the first
# numpy import to take effect.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

# every public name and the submodule that defines it; a submodule is
# imported the first time one of its names is used (PEP 562), so a command
# loads only the modules it runs
_EXPORTS = {
    name: module
    for module, names in {
        "baselines": "BaselinePolicy ComparisonRecord compare design_bce_optimistic "
        "evaluate_bce_realized sweep sweep_boundaries",
        "designer": "Certificate InfeasibleDesignError OpCounter StrictModeError "
        "ThresholdPolicy certify design score to_sequential_policy",
        "env": "POWER TABULATED AssumptionReport Environment WelfareSpec "
        "check_assumptions marginal_gain potential welfare_value",
        "equilibrium": "PRIVATE_SEQUENTIAL PUBLIC Belief EquilibriumOutcome "
        "EventOutcome RealizedEvaluation evaluate_policy_realized expected_gain "
        "posterior_from_event smallest_equilibrium",
        "lp": "LinearProgram LpSolution build_lp build_symmetric_lp extract_policy solve",
        "scenarios": "MODES PRESETS Scenario build_scenario load_scenario",
        "seqpolicy": "CapacityError ObedienceReport SequentialPolicy check_policy "
        "count_sequences enumerate_sequences expected_welfare policy_from_dict "
        "policy_to_dict",
    }.items()
    for name in names.split()
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
