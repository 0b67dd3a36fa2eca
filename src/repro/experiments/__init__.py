"""Experiment harness, declarative specs and report formatting.

Public API::

    from repro.experiments import harness, reporting, spec
    from repro.experiments.harness import build_trace, evaluate_schemes
"""

from repro._lazy import lazy_attributes
from repro.experiments import harness
from repro.experiments.harness import (
    STANDARD_SCHEMES,
    UPPER_BOUND_SCHEMES,
    EvaluationContext,
    build_trace,
    default_policy_for,
    evaluate_schemes,
    gains_over,
)

__all__ = [
    "harness",
    "reporting",
    "characterize",
    "export",
    "spec",
    "ExperimentSpec",
    "compile_plan",
    "load_spec",
    "PhaseProfile",
    "characterize_trace",
    "format_characterization",
    "schedule_to_csv",
    "gains_to_csv",
    "write_csv",
    "STANDARD_SCHEMES",
    "UPPER_BOUND_SCHEMES",
    "EvaluationContext",
    "build_trace",
    "default_policy_for",
    "evaluate_schemes",
    "gains_over",
]

# Tooling no job runs: imported on first use.
__getattr__ = lazy_attributes(
    __name__,
    globals(),
    {
        "characterize": "characterize",
        "export": "export",
        "reporting": "reporting",
        "spec": "spec",
        "ExperimentSpec": "spec.ExperimentSpec",
        "compile_plan": "spec.compile_plan",
        "load_spec": "spec.load_spec",
        "PhaseProfile": "characterize.PhaseProfile",
        "characterize_trace": "characterize.characterize",
        "format_characterization": "characterize.format_characterization",
        "gains_to_csv": "export.gains_to_csv",
        "schedule_to_csv": "export.schedule_to_csv",
        "write_csv": "export.write_csv",
    },
)
