"""Training-set construction (paper Figure 4 and Section 5.1).

For every program phase P (a steady-state epoch workload) and machine
setting (external bandwidth), the "best" configuration is found in
three steps:

1. **Random sampling** — evaluate K sampled configurations, keep the
   best.
2. **Neighbour evaluation** — evaluate the one-step hyper-sphere around
   it, keep the best.
3. **Dimension sweep** — from there, sweep each configuration dimension
   in isolation and combine the per-dimension optima (valid under the
   conditional-independence assumption).

Each of the K sampled configurations then yields one training example:
features are the counters observed *on that configuration* plus the
configuration's own parameters; the label is the best configuration —
this is the paper's key trick for multiplying the training data and
removing the profiling configuration (Section 4.2).

Phases are produced by the Table-3 parameter sweep: uniform random
matrices across dimension, density, and external memory bandwidth,
traced by the real kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.modes import OptimizationMode, metric_value
from repro.core.telemetry import build_features, feature_names
from repro.errors import ModelError
from repro.fastpath.epochs import simulate_configs
from repro.kernels.base import KernelTrace
from repro.kernels.spmspm import trace_spmspm
from repro.kernels.spmspv import trace_spmspv
from repro.sparse import generators
from repro.transmuter.config import (
    RUNTIME_PARAMETERS,
    HardwareConfig,
    neighbors,
    sample_configs,
)
from repro.transmuter.machine import TransmuterModel
from repro.transmuter.workload import EpochWorkload

__all__ = [
    "PhaseSample",
    "TrainingSet",
    "find_best_config",
    "representative_epochs",
    "table3_phases",
    "build_training_set",
    "default_grid",
]


@dataclass(frozen=True)
class PhaseSample:
    """One training phase: a steady-state workload on a machine setting."""

    workload: EpochWorkload
    machine: TransmuterModel
    l1_type: str = "cache"


@dataclass
class TrainingSet:
    """Feature matrix plus one label vector per runtime parameter."""

    features: np.ndarray
    labels: Dict[str, np.ndarray]
    names: List[str] = field(default_factory=feature_names)

    @property
    def n_examples(self) -> int:
        return int(self.features.shape[0])

    def merged_with(self, other: "TrainingSet") -> "TrainingSet":
        """Concatenate two training sets (same feature layout)."""
        if self.names != other.names:
            raise ModelError("cannot merge training sets with different features")
        return TrainingSet(
            features=np.vstack([self.features, other.features]),
            labels={
                key: np.concatenate([self.labels[key], other.labels[key]])
                for key in self.labels
            },
            names=self.names,
        )


def _epoch_metric(
    machine: TransmuterModel,
    workload: EpochWorkload,
    config: HardwareConfig,
    mode: OptimizationMode,
) -> float:
    result = machine.simulate_epoch(workload, config)
    return metric_value(
        mode, max(workload.flops, 1.0), result.time_s, result.energy_j
    )


def _argbest(
    machine: TransmuterModel,
    workload: EpochWorkload,
    configs: Sequence[HardwareConfig],
    mode: OptimizationMode,
) -> HardwareConfig:
    """First configuration with the strictly greatest metric.

    Mirrors ``max(configs, key=...)``: on ties the earliest candidate
    wins, so batched and scalar searches pick the same configuration.
    """
    results = simulate_configs(machine, workload, configs)
    flops = max(workload.flops, 1.0)
    best = configs[0]
    best_score = metric_value(
        mode, flops, results[0].time_s, results[0].energy_j
    )
    for config, result in zip(configs[1:], results[1:]):
        score = metric_value(mode, flops, result.time_s, result.energy_j)
        if score > best_score:
            best_score = score
            best = config
    return best


def find_best_config(
    machine: TransmuterModel,
    workload: EpochWorkload,
    mode: OptimizationMode,
    l1_type: str = "cache",
    k_samples: int = 24,
    seed: Optional[int] = None,
) -> HardwareConfig:
    """Three-step best-configuration search of Figure 4a."""
    samples = sample_configs(k_samples, l1_type=l1_type, seed=seed)
    best = _argbest(machine, workload, samples, mode)
    # Step 2: one-step neighbourhood.
    candidates = [best] + neighbors(best)
    best = _argbest(machine, workload, candidates, mode)
    # Step 3: independent dimension sweeps from the neighbourhood optimum.
    from repro.transmuter import config as config_space

    values_by_parameter = {
        "l1_sharing": config_space.SHARING_MODES,
        "l2_sharing": config_space.SHARING_MODES,
        "l1_kb": config_space.CAPACITIES_KB,
        "l2_kb": config_space.CAPACITIES_KB,
        "clock_mhz": config_space.CLOCKS_MHZ,
        "prefetch": config_space.PREFETCH_LEVELS,
    }
    # The sweeps are independent by construction, so all candidates
    # across all parameters can be simulated as one batch.
    sweep: List[tuple] = []
    for parameter in RUNTIME_PARAMETERS:
        if l1_type == "spm" and parameter == "l1_kb":
            continue
        for value in values_by_parameter[parameter]:
            sweep.append((parameter, value, best.with_value(parameter, value)))
    results = simulate_configs(machine, workload, [c for _, _, c in sweep])
    flops = max(workload.flops, 1.0)
    scores = {
        (parameter, value): metric_value(
            mode, flops, result.time_s, result.energy_j
        )
        for (parameter, value, _), result in zip(sweep, results)
    }
    chosen = {}
    for parameter in RUNTIME_PARAMETERS:
        if l1_type == "spm" and parameter == "l1_kb":
            chosen[parameter] = best.l1_kb
            continue
        best_value = None
        best_score = -np.inf
        for value in values_by_parameter[parameter]:
            score = scores[(parameter, value)]
            if score > best_score:
                best_score = score
                best_value = value
        chosen[parameter] = best_value
    return HardwareConfig(l1_type=l1_type, **chosen)


def representative_epochs(
    trace: KernelTrace, per_phase: int = 1
) -> List[EpochWorkload]:
    """Steady-state representatives: the middle epoch(s) of each phase.

    The paper runs each phase "until the program behavior stabilizes"
    and samples it once (Section 5.1); the mid-phase epochs are the
    stabilized ones.
    """
    by_phase: Dict[str, List[EpochWorkload]] = {}
    for epoch in trace.epochs:
        by_phase.setdefault(epoch.phase, []).append(epoch)
    out: List[EpochWorkload] = []
    for epochs in by_phase.values():
        middle = len(epochs) // 2
        half = max(1, per_phase) // 2
        lo = max(0, middle - half)
        out.extend(epochs[lo : lo + max(1, per_phase)])
    return out


def default_grid(kernel: str) -> Dict[str, Sequence]:
    """Reduced Table-3 sweep kept tractable for pure-Python training.

    The paper sweeps dimensions 128 -> 1k (SpMSpM) / 256 -> 8k (SpMSpV),
    densities 0.2 -> 13 %, and bandwidths 0.01 -> 100 GB/s. The defaults
    here cover the same ranges with fewer grid points.
    """
    if kernel == "spmspm":
        return {
            "dims": (64, 128, 256),
            "densities": (0.005, 0.02, 0.08),
            "bandwidths": (0.1, 1.0, 10.0, 100.0),
        }
    if kernel == "spmspv":
        return {
            "dims": (256, 1024, 4096),
            "densities": (0.002, 0.01, 0.05),
            "bandwidths": (0.1, 1.0, 10.0, 100.0),
        }
    raise ModelError(f"unknown kernel {kernel!r}")


def table3_phases(
    kernel: str,
    l1_type: str = "cache",
    grid: Optional[Dict[str, Sequence]] = None,
    n_tiles: int = 2,
    gpes_per_tile: int = 8,
    seed: int = 0,
) -> List[PhaseSample]:
    """Generate training phases per the Table-3 parameter sweeps."""
    grid = grid or default_grid(kernel)
    rng = np.random.default_rng(seed)
    phases: List[PhaseSample] = []
    for dim in grid["dims"]:
        for density in grid["densities"]:
            matrix_seed = int(rng.integers(0, 2**31 - 1))
            matrix = generators.uniform_random(dim, dim, density, matrix_seed)
            if kernel == "spmspm":
                trace = trace_spmspm(
                    matrix.to_csc(), matrix.transpose().to_csr()
                )
            else:
                vector = generators.random_vector(dim, 0.5, matrix_seed + 1)
                trace = trace_spmspv(matrix.to_csc(), vector)
            workloads = representative_epochs(trace)
            for bandwidth in grid["bandwidths"]:
                machine = TransmuterModel(
                    n_tiles=n_tiles,
                    gpes_per_tile=gpes_per_tile,
                    bandwidth_gbps=float(bandwidth),
                )
                for workload in workloads:
                    phases.append(PhaseSample(workload, machine, l1_type))
    return phases


def build_training_set(
    phases: Sequence[PhaseSample],
    mode: OptimizationMode,
    k_samples: int = 24,
    seed: int = 0,
) -> TrainingSet:
    """Build the Figure-4b training set from phase samples.

    For each phase, K sampled configurations are executed; each yields
    one example mapping (its counters, its own parameters) to the best
    configuration found for that phase.
    """
    if not phases:
        raise ModelError("no phases given")
    rng = np.random.default_rng(seed)
    feature_rows: List[np.ndarray] = []
    label_rows: Dict[str, List] = {name: [] for name in RUNTIME_PARAMETERS}
    for phase in phases:
        phase_seed = int(rng.integers(0, 2**31 - 1))
        best = find_best_config(
            phase.machine,
            phase.workload,
            mode,
            l1_type=phase.l1_type,
            k_samples=k_samples,
            seed=phase_seed,
        )
        samples = sample_configs(
            k_samples, l1_type=phase.l1_type, seed=phase_seed
        )
        for config, result in zip(
            samples, simulate_configs(phase.machine, phase.workload, samples)
        ):
            feature_rows.append(build_features(result.counters, config))
            for name in RUNTIME_PARAMETERS:
                label_rows[name].append(best.get(name))
    return TrainingSet(
        features=np.vstack(feature_rows),
        labels={
            name: np.asarray(values) for name, values in label_rows.items()
        },
    )
