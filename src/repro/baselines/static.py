"""Static (non-reconfiguring) comparison points (paper Table 4 / 5.3).

* **Baseline** — the best-average configuration across the broad
  application set of the original Transmuter paper.
* **Best Avg** — the best-average static configuration for the SpMSpM /
  SpMSpV kernels on this work's datasets (one per L1 type).
* **Max Cfg** — maximum value of every ordinal parameter, shared caches.
* **Ideal Static** — the best static configuration *for the specific
  program and dataset*, selected with hindsight from the sampled space.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from repro.baselines.table import EpochTable
from repro.core.modes import OptimizationMode, metric_value
from repro.core.schedule import EpochRecord, ScheduleResult
from repro.errors import ConfigError
from repro.fastpath.epochs import EpochGrid
from repro.kernels.base import KernelTrace
from repro.transmuter.config import HardwareConfig
from repro.transmuter.machine import TransmuterModel

__all__ = [
    "BASELINE",
    "BEST_AVG_CACHE",
    "BEST_AVG_SPM",
    "MAX_CFG",
    "spm_variant",
    "static_configs_for",
    "run_static",
    "ideal_static",
]

#: Table 4, row "Baseline".
BASELINE = HardwareConfig(
    l1_type="cache",
    l1_sharing="shared",
    l2_sharing="shared",
    l1_kb=4,
    l2_kb=4,
    clock_mhz=1000.0,
    prefetch=4,
)

#: Table 4, row "Best Avg (L1: cache)".
BEST_AVG_CACHE = HardwareConfig(
    l1_type="cache",
    l1_sharing="private",
    l2_sharing="shared",
    l1_kb=4,
    l2_kb=4,
    clock_mhz=1000.0,
    prefetch=0,
)

#: Table 4, row "Best Avg (L1: SPM)".
BEST_AVG_SPM = HardwareConfig(
    l1_type="spm",
    l1_sharing="private",
    l2_sharing="private",
    l1_kb=4,
    l2_kb=32,
    clock_mhz=500.0,
    prefetch=8,
)

#: Table 4, row "Maximum".
MAX_CFG = HardwareConfig(
    l1_type="cache",
    l1_sharing="shared",
    l2_sharing="shared",
    l1_kb=64,
    l2_kb=64,
    clock_mhz=1000.0,
    prefetch=8,
)


def spm_variant(config: HardwareConfig) -> HardwareConfig:
    """SPM twin of a cache configuration (L1 capacity pinned)."""
    from dataclasses import replace

    from repro.transmuter.config import SPM_FIXED_L1_KB

    return replace(config, l1_type="spm", l1_kb=SPM_FIXED_L1_KB)


def static_configs_for(l1_type: str = "cache") -> Dict[str, HardwareConfig]:
    """The named static comparison points for one L1 type."""
    if l1_type == "cache":
        return {
            "Baseline": BASELINE,
            "Best Avg": BEST_AVG_CACHE,
            "Max Cfg": MAX_CFG,
        }
    if l1_type == "spm":
        return {
            "Baseline": spm_variant(BASELINE),
            "Best Avg": BEST_AVG_SPM,
            "Max Cfg": spm_variant(MAX_CFG),
        }
    raise ConfigError(f"unknown l1_type {l1_type!r}")


def run_static(
    machine: TransmuterModel,
    trace: KernelTrace,
    configs: Mapping[str, HardwareConfig],
    table: Optional[EpochTable] = None,
) -> Dict[str, ScheduleResult]:
    """Run every epoch of a trace on each named fixed configuration.

    One ``epochs x configs`` :class:`EpochGrid` evaluates every static
    at once. With an :class:`EpochTable` over the same trace whose
    sampled set includes the configs, the schedules read its columns
    and nothing is evaluated again. A grid cell equals
    ``simulate_epoch`` whatever the batch around it, so each schedule
    is the one a per-config evaluation would build.
    """
    schedules = {name: ScheduleResult(scheme=name) for name in configs}
    if not trace.epochs or not configs:
        return schedules
    if table is not None:
        if table.trace is not trace:
            raise ConfigError(
                f"table is over {table.trace.name!r}, not {trace.name!r}"
            )
        rows = table.results
        columns = [table.config_index(c) for c in configs.values()]
    else:
        rows = EpochGrid(machine, trace.epochs, list(configs.values())).rows()
        columns = range(len(configs))
    for (name, config), j in zip(configs.items(), columns):
        append = schedules[name].append
        for index, row in enumerate(rows):
            append(EpochRecord(index=index, config=config, result=row[j]))
    return schedules


def ideal_static(table: EpochTable, mode: OptimizationMode) -> ScheduleResult:
    """Best whole-trace static configuration from the sampled space.

    A static schedule pays no reconfiguration or host overhead, so its
    metric depends only on the per-epoch times and energies the table
    already holds. ``x + 0.0 == x`` bitwise for the positive epoch
    values, and Python's left-to-right ``sum`` here matches
    ``ScheduleResult.total_*`` term for term, so both the totals and
    the first-strict-max winner are bit-identical to scoring a full
    schedule per configuration — without materializing an
    ``EpochRecord`` per (epoch, config) cell.
    """
    flops = sum(workload.flops for workload in table.trace.epochs)
    best_index = None
    best_metric = float("-inf")
    for j in range(table.n_configs):
        metric = metric_value(
            mode,
            flops,
            sum(table.times[:, j].tolist()),
            sum(table.energies[:, j].tolist()),
        )
        if metric > best_metric:
            best_metric = metric
            best_index = j
    schedule = ScheduleResult(scheme="ideal-static")
    config = table.configs[best_index]
    for index in range(table.n_epochs):
        schedule.append(
            EpochRecord(
                index=index,
                config=config,
                result=table.result(index, config),
            )
        )
    return schedule
