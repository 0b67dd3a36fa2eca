"""Analytical model of the Transmuter reconfigurable accelerator.

Public API::

    from repro.transmuter import (
        HardwareConfig, TransmuterModel, EpochWorkload, EpochResult,
        PerformanceCounters, reconfiguration_cost,
    )
"""

from repro._lazy import lazy_attributes
from repro.transmuter import params
from repro.transmuter.cache import SetAssociativeCache, StridePrefetcher
from repro.transmuter.config import (
    CAPACITIES_KB,
    CLOCKS_MHZ,
    PREFETCH_LEVELS,
    RUNTIME_PARAMETERS,
    HardwareConfig,
    full_space,
    neighbors,
    runtime_space,
    sample_configs,
    space_size,
)
from repro.transmuter.counters import (
    COUNTER_GROUPS,
    ECHO_COUNTERS,
    PLAUSIBLE_BOUNDS,
    PerformanceCounters,
)
from repro.transmuter.dvfs import (
    OperatingPoint,
    clamp_frequency,
    operating_point,
    voltage_for_frequency,
)
from repro.transmuter.machine import (
    EpochEnvironment,
    EpochResult,
    TransmuterModel,
)
from repro.transmuter.memory import MemorySystem
from repro.transmuter.power import EnergyBreakdown, PowerModel
from repro.transmuter.reconfig import (
    AppliedTransition,
    ReconfigCost,
    apply_transition,
    change_granularity,
    changed_parameters,
    parameter_change_cost,
    reconfiguration_cost,
)
from repro.transmuter.workload import (
    PHASE_CONV,
    PHASE_GEMM,
    PHASE_MERGE,
    PHASE_MULTIPLY,
    PHASE_SPMSPV,
    EpochWorkload,
)

__all__ = [
    "params",
    "EpochEnvironment",
    "ECHO_COUNTERS",
    "PLAUSIBLE_BOUNDS",
    "AppliedTransition",
    "apply_transition",
    "clamp_frequency",
    "HardwareConfig",
    "full_space",
    "runtime_space",
    "sample_configs",
    "space_size",
    "neighbors",
    "RUNTIME_PARAMETERS",
    "CAPACITIES_KB",
    "CLOCKS_MHZ",
    "PREFETCH_LEVELS",
    "PerformanceCounters",
    "COUNTER_GROUPS",
    "OperatingPoint",
    "operating_point",
    "voltage_for_frequency",
    "TransmuterModel",
    "EpochResult",
    "EpochWorkload",
    "MemorySystem",
    "PowerModel",
    "EnergyBreakdown",
    "SetAssociativeCache",
    "StridePrefetcher",
    "DetailedResult",
    "simulate_epoch_detailed",
    "synthesize_trace",
    "ReconfigCost",
    "reconfiguration_cost",
    "parameter_change_cost",
    "changed_parameters",
    "change_granularity",
    "PHASE_MULTIPLY",
    "PHASE_MERGE",
    "PHASE_SPMSPV",
    "PHASE_GEMM",
    "PHASE_CONV",
]

# The line-accurate cross-check model, which no job runs: imported on
# first use.
__getattr__ = lazy_attributes(
    __name__,
    globals(),
    {
        "detailed": "detailed",
        "DetailedResult": "detailed.DetailedResult",
        "simulate_epoch_detailed": "detailed.simulate_epoch_detailed",
        "synthesize_trace": "detailed.synthesize_trace",
    },
)
