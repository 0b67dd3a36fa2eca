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

The search runs all phases that share a machine and L1 type together:
each of the three steps is one paired :class:`EpochGrid` over every
phase's candidates, and the step-1 grid's counter arrays are the
training rows, so the sampled configurations are simulated once.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.modes import OptimizationMode, metric_value
from repro.core.telemetry import feature_matrix, feature_names
from repro.errors import ModelError
from repro.fastpath.epochs import EpochGrid
from repro.kernels.base import KernelTrace
from repro.kernels.spmspm import trace_spmspm
from repro.kernels.spmspv import trace_spmspv
from repro.sparse import generators
from repro.transmuter import config as config_space
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


def _first_best(scores: Sequence[float]) -> int:
    """Index of the first strictly greatest score.

    Mirrors ``max(range(n), key=scores.__getitem__)``: on ties the
    earliest candidate wins.
    """
    best = 0
    best_score = scores[0]
    for index in range(1, len(scores)):
        if scores[index] > best_score:
            best_score = scores[index]
            best = index
    return best


#: The value ladder each runtime parameter is swept over in step 3.
_SWEEP_VALUES = {
    "l1_sharing": config_space.SHARING_MODES,
    "l2_sharing": config_space.SHARING_MODES,
    "l1_kb": config_space.CAPACITIES_KB,
    "l2_kb": config_space.CAPACITIES_KB,
    "clock_mhz": config_space.CLOCKS_MHZ,
    "prefetch": config_space.PREFETCH_LEVELS,
}


def _search_group(
    machine: TransmuterModel,
    workloads: Sequence[EpochWorkload],
    seeds: Sequence[int],
    l1_type: str,
    mode: OptimizationMode,
    k_samples: int,
) -> Tuple[List[HardwareConfig], List[np.ndarray]]:
    """The three-step search for phases sharing a machine and L1 type.

    Each step is one paired grid over every phase's candidates. Returns
    each phase's best configuration and the feature rows of its step-1
    samples (one row per sample, in sample order).
    """
    flops = [max(workload.flops, 1.0) for workload in workloads]

    def evaluate(candidates: List[List[HardwareConfig]]):
        """One grid over every phase's candidates; per-phase scores."""
        grid = EpochGrid.paired(
            machine,
            [
                (workload, config)
                for workload, configs in zip(workloads, candidates)
                for config in configs
            ],
        )
        times = grid.times[0].tolist()
        energies = grid.energies[0].tolist()
        scores: List[List[float]] = []
        k = 0
        for phase_flops, configs in zip(flops, candidates):
            scores.append(
                [
                    metric_value(mode, phase_flops, times[n], energies[n])
                    for n in range(k, k + len(configs))
                ]
            )
            k += len(configs)
        return grid, scores

    # Step 1: random sampling. Its grid also yields the training rows.
    samples = [
        sample_configs(k_samples, l1_type=l1_type, seed=seed) for seed in seeds
    ]
    grid, scores = evaluate(samples)
    features = feature_matrix(
        {name: row[0] for name, row in grid.counter_columns().items()},
        grid.configs,
    )
    rows = []
    k = 0
    for configs in samples:
        rows.append(features[k : k + len(configs)])
        k += len(configs)
    best = [configs[_first_best(s)] for configs, s in zip(samples, scores)]
    # Step 2: one-step neighbourhood.
    candidates = [[config] + neighbors(config) for config in best]
    _, scores = evaluate(candidates)
    best = [configs[_first_best(s)] for configs, s in zip(candidates, scores)]
    # Step 3: independent dimension sweeps from the neighbourhood optimum,
    # combined per dimension; independent by construction, so one grid.
    swept = [
        parameter
        for parameter in RUNTIME_PARAMETERS
        if not (l1_type == "spm" and parameter == "l1_kb")
    ]
    sweeps = [
        [
            config.with_value(parameter, value)
            for parameter in swept
            for value in _SWEEP_VALUES[parameter]
        ]
        for config in best
    ]
    _, scores = evaluate(sweeps)
    chosen_configs: List[HardwareConfig] = []
    for config, phase_scores in zip(best, scores):
        chosen = {}
        k = 0
        for parameter in swept:
            values = _SWEEP_VALUES[parameter]
            chosen[parameter] = values[
                _first_best(phase_scores[k : k + len(values)])
            ]
            k += len(values)
        chosen_configs.append(replace(config, **chosen))
    return chosen_configs, rows


def _search(
    phases: Sequence[PhaseSample],
    seeds: Sequence[int],
    mode: OptimizationMode,
    k_samples: int,
) -> Tuple[List[HardwareConfig], List[np.ndarray]]:
    """Figure-4a search for every phase, batched per machine and L1 type.

    Returns, per phase in input order, the best configuration and the
    feature rows of the phase's step-1 samples.
    """
    groups: Dict[tuple, List[int]] = {}
    for index, phase in enumerate(phases):
        groups.setdefault((id(phase.machine), phase.l1_type), []).append(index)
    best: List[Optional[HardwareConfig]] = [None] * len(phases)
    rows: List[Optional[np.ndarray]] = [None] * len(phases)
    for indices in groups.values():
        first = phases[indices[0]]
        group_best, group_rows = _search_group(
            first.machine,
            [phases[i].workload for i in indices],
            [seeds[i] for i in indices],
            first.l1_type,
            mode,
            k_samples,
        )
        for i, config, phase_rows in zip(indices, group_best, group_rows):
            best[i] = config
            rows[i] = phase_rows
    return best, rows


def find_best_config(
    machine: TransmuterModel,
    workload: EpochWorkload,
    mode: OptimizationMode,
    l1_type: str = "cache",
    k_samples: int = 24,
    seed: Optional[int] = None,
) -> HardwareConfig:
    """Three-step best-configuration search of Figure 4a."""
    best, _ = _search(
        [PhaseSample(workload, machine, l1_type)], [seed], mode, k_samples
    )
    return best[0]


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
    # One machine per bandwidth: the search batches phases per machine.
    machines = {
        bandwidth: TransmuterModel(
            n_tiles=n_tiles,
            gpes_per_tile=gpes_per_tile,
            bandwidth_gbps=float(bandwidth),
        )
        for bandwidth in grid["bandwidths"]
    }
    phases: List[PhaseSample] = []
    for dim in grid["dims"]:
        for density in grid["densities"]:
            matrix_seed = int(rng.integers(0, 2**31 - 1))
            matrix = generators.uniform_random(dim, dim, density, matrix_seed)
            # Drop the COO matrix once its compressed copies exist: the
            # trace reads only those, and the largest sweep points would
            # otherwise hold both forms through the whole trace.
            if kernel == "spmspm":
                operands = (matrix.to_csc(), matrix.transpose().to_csr())
                del matrix
                trace = trace_spmspm(*operands)
            else:
                operands = (matrix.to_csc(),)
                del matrix
                vector = generators.random_vector(dim, 0.5, matrix_seed + 1)
                trace = trace_spmspv(*operands, vector)
            del operands
            workloads = representative_epochs(trace)
            for bandwidth in grid["bandwidths"]:
                for workload in workloads:
                    phases.append(
                        PhaseSample(workload, machines[bandwidth], l1_type)
                    )
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
    seeds = [int(rng.integers(0, 2**31 - 1)) for _ in phases]
    best, rows = _search(phases, seeds, mode, k_samples)
    label_rows: Dict[str, List] = {name: [] for name in RUNTIME_PARAMETERS}
    for config, phase_rows in zip(best, rows):
        for name in RUNTIME_PARAMETERS:
            label_rows[name].extend([config.get(name)] * len(phase_rows))
    return TrainingSet(
        features=np.vstack(rows),
        labels={
            name: np.asarray(values) for name, values in label_rows.items()
        },
    )
