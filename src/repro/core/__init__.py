"""SparseAdapt core: modes, telemetry, training, model, policies, runtime.

Public API::

    from repro.core import (
        OptimizationMode, SparseAdaptModel, SparseAdaptController,
        TransmuterRuntime, HybridPolicy, train_default_model,
    )
"""

from repro._lazy import lazy_attributes
from repro.core.controller import SparseAdaptController
from repro.core.hardening import (
    CounterSanitizer,
    HardeningConfig,
    SafeModeMachine,
)
from repro.core.dataset import (
    PhaseSample,
    TrainingSet,
    build_training_set,
    find_best_config,
    representative_epochs,
    table3_phases,
)
from repro.core.model import SparseAdaptModel
from repro.core.modes import OptimizationMode, cost_value, metric_value
from repro.core.policies import (
    AggressivePolicy,
    ConservativePolicy,
    HybridPolicy,
    PolicyVerdict,
    ReconfigurationPolicy,
    policy_from_name,
)
from repro.core.schedule import EpochRecord, ScheduleResult
from repro.core.telemetry import build_features, feature_groups, feature_names
from repro.core.training import (
    DEFAULT_PARAM_GRID,
    QUICK_PARAM_GRID,
    clear_model_cache,
    train_default_model,
    train_model,
)

__all__ = [
    "OptimizationMode",
    "MemoryModeModel",
    "MemoryModeController",
    "train_memory_mode_model",
    "train_counters_only_model",
    "save_model",
    "load_model",
    "save_memory_mode_model",
    "load_memory_mode_model",
    "model_to_dict",
    "model_from_dict",
    "metric_value",
    "cost_value",
    "SparseAdaptModel",
    "SparseAdaptController",
    "HardeningConfig",
    "CounterSanitizer",
    "SafeModeMachine",
    "TransmuterRuntime",
    "OffloadOutcome",
    "ScheduleResult",
    "EpochRecord",
    "ReconfigurationPolicy",
    "AggressivePolicy",
    "ConservativePolicy",
    "HybridPolicy",
    "policy_from_name",
    "PolicyVerdict",
    "PhaseSample",
    "TrainingSet",
    "build_training_set",
    "find_best_config",
    "representative_epochs",
    "table3_phases",
    "train_model",
    "train_default_model",
    "clear_model_cache",
    "DEFAULT_PARAM_GRID",
    "QUICK_PARAM_GRID",
    "build_features",
    "feature_names",
    "feature_groups",
]

# Extensions, model files and the offload runtime, which no suite job
# runs: imported on first use.
__getattr__ = lazy_attributes(
    __name__,
    globals(),
    {
        "ablation": "ablation",
        "memorymode": "memorymode",
        "persistence": "persistence",
        "runtime": "runtime",
        "train_counters_only_model": "ablation.train_counters_only_model",
        "MemoryModeController": "memorymode.MemoryModeController",
        "MemoryModeModel": "memorymode.MemoryModeModel",
        "train_memory_mode_model": "memorymode.train_memory_mode_model",
        "load_memory_mode_model": "persistence.load_memory_mode_model",
        "load_model": "persistence.load_model",
        "model_from_dict": "persistence.model_from_dict",
        "model_to_dict": "persistence.model_to_dict",
        "save_memory_mode_model": "persistence.save_memory_mode_model",
        "save_model": "persistence.save_model",
        "OffloadOutcome": "runtime.OffloadOutcome",
        "TransmuterRuntime": "runtime.TransmuterRuntime",
    },
)
