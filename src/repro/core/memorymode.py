"""Dynamic memory-mode (cache <-> SPM) adaptation — paper Section 7.

The baseline SparseAdapt fixes the L1 memory type at compile time,
which "leaves out some scope for optimization when different parts of
the program show amenability to a cache or SPM"; the paper points at
Stash-like hardware as the enabler. This module implements that
extension:

* :class:`MemoryModeModel` — the per-type tree ensembles plus a
  seventh classifier that predicts, from the telemetry, which L1
  memory type suits the next epoch;
* :func:`train_memory_mode_model` — trains both ensembles and the
  type classifier from the Table-3 sweep run under *both* L1 types
  (the type label is whichever type's best configuration achieves the
  higher metric for the phase);
* :class:`MemoryModeController` — a controller that may cross the
  type boundary, paying the coarse-grained checkpoint + code-switch +
  L1 re-orchestration cost, guarded by a cost tolerance so the switch
  only happens when the epoch is long enough to amortize it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.core.controller import _HOST_DECISION_POWER_W, SparseAdaptController
from repro.core.dataset import build_training_set, find_best_config, table3_phases
from repro.core.model import SparseAdaptModel
from repro.core.modes import OptimizationMode, metric_value
from repro.core.policies import ReconfigurationPolicy
from repro.core.schedule import EpochRecord, ScheduleResult
from repro.core.telemetry import build_features
from repro.core.training import QUICK_PARAM_GRID, train_model
from repro.errors import ConfigError, ModelError
from repro.kernels.base import KernelTrace
from repro.ml.decision_tree import DecisionTreeClassifier
from repro.transmuter import params
from repro.transmuter.config import HardwareConfig
from repro.transmuter.counters import PerformanceCounters
from repro.transmuter.machine import TransmuterModel
from repro.transmuter.reconfig import (
    host_decision_overhead_s,
    reconfiguration_cost,
)

__all__ = [
    "MemoryModeModel",
    "train_memory_mode_model",
    "MemoryModeController",
]


@dataclass
class MemoryModeModel:
    """Per-type ensembles plus the memory-type classifier."""

    cache_model: SparseAdaptModel
    spm_model: SparseAdaptModel
    type_tree: DecisionTreeClassifier

    def __post_init__(self) -> None:
        if self.cache_model.l1_type != "cache":
            raise ModelError("cache_model must be trained for l1_type=cache")
        if self.spm_model.l1_type != "spm":
            raise ModelError("spm_model must be trained for l1_type=spm")

    # ------------------------------------------------------------------
    @staticmethod
    def _type_features(
        counters: PerformanceCounters, current: HardwareConfig
    ) -> np.ndarray:
        base = build_features(counters, current)
        is_spm = 1.0 if current.l1_type == "spm" else 0.0
        return np.concatenate([base, [is_spm]])

    def predict_type(
        self, counters: PerformanceCounters, current: HardwareConfig
    ) -> str:
        """Which L1 memory type the next epoch should run under."""
        row = self._type_features(counters, current).reshape(1, -1)
        return str(self.type_tree.predict(row)[0])

    def predict(
        self, counters: PerformanceCounters, current: HardwareConfig
    ) -> HardwareConfig:
        """Best configuration for the next epoch, possibly crossing the
        memory-type boundary."""
        target_type = self.predict_type(counters, current)
        model = self.cache_model if target_type == "cache" else self.spm_model
        if current.l1_type == target_type:
            return model.predict(counters, current)
        # Cross-boundary: ask the target-type ensemble, seeding it with
        # the current config re-expressed in the target type.
        from repro.baselines.static import spm_variant

        if target_type == "spm":
            seed_config = spm_variant(current)
        else:
            from dataclasses import replace

            seed_config = replace(current, l1_type="cache")
        return model.predict(counters, seed_config)


def train_memory_mode_model(
    mode: OptimizationMode,
    kernel: str = "spmspv",
    quick: bool = True,
    k_samples: int = 24,
    seed: int = 0,
) -> MemoryModeModel:
    """Train both per-type ensembles and the type classifier."""
    grid = QUICK_PARAM_GRID if quick else None
    type_rows = []
    type_labels = []
    per_type_models: Dict[str, SparseAdaptModel] = {}
    for l1_type in ("cache", "spm"):
        phases = table3_phases(kernel, l1_type=l1_type, seed=seed)
        training_set = build_training_set(
            phases, mode, k_samples=k_samples, seed=seed
        )
        per_type_models[l1_type] = train_model(
            training_set, l1_type=l1_type, param_grid=grid, seed=seed
        )
        # Type labels: compare the best achievable metric under each
        # type for every phase; every sampled example of the phase
        # inherits the winning type as its label.
        rng = np.random.default_rng(seed + 1)
        for phase in phases:
            phase_seed = int(rng.integers(0, 2**31 - 1))
            best_by_type = {}
            for candidate_type in ("cache", "spm"):
                best = find_best_config(
                    phase.machine,
                    phase.workload,
                    mode,
                    l1_type=candidate_type,
                    k_samples=max(8, k_samples // 2),
                    seed=phase_seed,
                )
                result = phase.machine.simulate_epoch(phase.workload, best)
                best_by_type[candidate_type] = metric_value(
                    mode,
                    max(phase.workload.flops, 1.0),
                    result.time_s,
                    result.energy_j,
                )
            winner = max(best_by_type, key=best_by_type.get)
            # One representative example per phase (observed on the
            # phase's own l1_type baseline configuration).
            observe_config = HardwareConfig(l1_type=l1_type)
            observed = phase.machine.simulate_epoch(
                phase.workload, observe_config
            )
            type_rows.append(
                MemoryModeModel._type_features(
                    observed.counters, observe_config
                )
            )
            type_labels.append(winner)
    type_tree = DecisionTreeClassifier(max_depth=8)
    type_tree.fit(np.vstack(type_rows), np.asarray(type_labels))
    return MemoryModeModel(
        cache_model=per_type_models["cache"],
        spm_model=per_type_models["spm"],
        type_tree=type_tree,
    )


class MemoryModeController(SparseAdaptController):
    """Controller that may switch the L1 memory type at runtime.

    The type switch is coarse-grained (checkpoint + code swap + L1
    re-orchestration), so it is guarded by ``switch_tolerance``: it is
    applied only when its time cost stays within that fraction of the
    previous epoch's duration.
    """

    def __init__(
        self,
        model: MemoryModeModel,
        machine: TransmuterModel,
        mode: OptimizationMode,
        policy: Optional[ReconfigurationPolicy] = None,
        initial_config: Optional[HardwareConfig] = None,
        switch_tolerance: float = 2.0,
    ) -> None:
        # The base-class constructor expects a SparseAdaptModel; seed it
        # with the per-type ensemble matching the initial configuration.
        initial_config = initial_config or HardwareConfig(l1_type="cache")
        seed_model = (
            model.cache_model
            if initial_config.l1_type == "cache"
            else model.spm_model
        )
        super().__init__(seed_model, machine, mode, policy, initial_config)
        if switch_tolerance < 0:
            raise ConfigError("switch_tolerance must be non-negative")
        self.memory_model = model
        self.switch_tolerance = switch_tolerance
        self.n_type_switches = 0

    # ------------------------------------------------------------------
    def run(self, trace: KernelTrace) -> ScheduleResult:
        schedule = ScheduleResult(scheme="sparseadapt-memorymode")
        config = self.initial_config
        pending_reconfig = None
        overhead = host_decision_overhead_s()
        for index, workload in enumerate(trace.epochs):
            result = self.machine.simulate_epoch(workload, config)
            schedule.append(
                EpochRecord(
                    index=index,
                    config=config,
                    result=result,
                    reconfig=pending_reconfig,
                )
            )
            dirty_hint = workload.stores * params.WORD_BYTES
            predicted = self.memory_model.predict(result.counters, config)

            applied = None
            if predicted.l1_type != config.l1_type:
                switch_cost = reconfiguration_cost(
                    config,
                    predicted,
                    self.machine.power,
                    self.bandwidth_gbps,
                    dirty_bytes_hint=dirty_hint,
                    allow_memory_mode=True,
                )
                if (
                    switch_cost.time_s
                    <= self.switch_tolerance * result.time_s
                ):
                    applied = predicted
                    self.n_type_switches += 1
            if applied is None:
                # Same-type adaptation (either no switch was proposed,
                # or the switch is too expensive right now).
                model = (
                    self.memory_model.cache_model
                    if config.l1_type == "cache"
                    else self.memory_model.spm_model
                )
                same_type_prediction = model.predict(result.counters, config)
                applied = self.policy.filter(
                    current=config,
                    predicted=same_type_prediction,
                    last_epoch_time_s=result.time_s,
                    power=self.machine.power,
                    bandwidth_gbps=self.bandwidth_gbps,
                    dirty_bytes_hint=dirty_hint,
                )

            pending_reconfig = reconfiguration_cost(
                config,
                applied,
                self.machine.power,
                self.bandwidth_gbps,
                dirty_bytes_hint=dirty_hint,
                allow_memory_mode=True,
            )
            if pending_reconfig.is_free:
                pending_reconfig = None
            config = applied
            schedule.overhead_time_s += overhead
            schedule.overhead_energy_j += overhead * _HOST_DECISION_POWER_W
        return schedule
