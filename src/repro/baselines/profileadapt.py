"""ProfileAdapt comparison scheme (Dubach et al., paper Section 6.4).

ProfileAdapt detects a new phase, switches into a *profiling
configuration* (every reconfigurable parameter at its maximum), runs
there while collecting telemetry, then reconfigures to the predicted
configuration. Per the paper's pessimistic-to-us methodology (Appendix
A.7 step 8), it is applied *on top of the Ideal Greedy sequence*:

* **naive** — profiles at every epoch boundary (no phase detector);
* **ideal** — profiles only at epochs where the configuration changes,
  i.e. assumes a perfect external phase detector (SimPoint-like), which
  the paper notes is unrealistic for implicit phases.

The profiled epoch is split: the leading fraction runs in the profiling
configuration (still doing useful work), the remainder in the selected
configuration; both transition penalties are charged.
"""

from __future__ import annotations

from typing import Optional

from repro.baselines.greedy import ideal_greedy
from repro.baselines.static import MAX_CFG, spm_variant
from repro.baselines.table import EpochTable
from repro.core.modes import OptimizationMode
from repro.core.schedule import EpochRecord, ScheduleResult
from repro.errors import ConfigError
from repro.fastpath.epochs import EpochGrid
from repro.transmuter.config import HardwareConfig
from repro.transmuter.reconfig import ReconfigCost

__all__ = ["profile_adapt"]


def _profiling_config(l1_type: str) -> HardwareConfig:
    if l1_type == "cache":
        return MAX_CFG
    return spm_variant(MAX_CFG)


def profile_adapt(
    table: EpochTable,
    mode: OptimizationMode,
    variant: str = "naive",
    profiling_fraction: float = 0.2,
    greedy: Optional[ScheduleResult] = None,
) -> ScheduleResult:
    """ProfileAdapt schedule derived from the Ideal Greedy sequence.

    ``greedy`` is ``ideal_greedy(table, mode)`` when the caller already
    has it; it is computed here otherwise.
    """
    if variant not in ("naive", "ideal"):
        raise ConfigError(f"unknown ProfileAdapt variant {variant!r}")
    if not 0.0 < profiling_fraction < 1.0:
        raise ConfigError("profiling_fraction must be in (0, 1)")
    if greedy is None:
        greedy = ideal_greedy(table, mode)
    sequence = greedy.config_sequence()
    profiling = _profiling_config(table.configs[0].l1_type)
    # Every profiled epoch splits into a leading slice in the profiling
    # configuration and the remainder in the selected one: one grid
    # holds all slices, head then tail, in epoch order.
    profiled = [
        variant == "naive" or epoch == 0 or config != sequence[epoch - 1]
        for epoch, config in enumerate(sequence)
    ]
    slices = []
    for epoch, config in enumerate(sequence):
        if profiled[epoch]:
            workload = table.trace.epochs[epoch]
            slices.append((workload.scaled(profiling_fraction), profiling))
            slices.append((workload.scaled(1.0 - profiling_fraction), config))
    grid = EpochGrid.paired(table.machine, slices)
    schedule = ScheduleResult(scheme=f"profileadapt-{variant}")
    k = 0
    for epoch, config in enumerate(sequence):
        if not profiled[epoch]:
            schedule.append(
                EpochRecord(
                    index=epoch,
                    config=config,
                    result=table.results[epoch][table.config_index(config)],
                )
            )
        else:
            # Transition into the profiling configuration, run the
            # leading slice there, then transition to the selected
            # configuration and run the remainder. Both slices
            # contribute useful work.
            previous = sequence[epoch - 1] if epoch else None
            cost_in = (
                table.reconfig_cost(previous, profiling)
                if previous is not None and previous != profiling
                else None
            )
            schedule.append(
                EpochRecord(
                    index=epoch,
                    config=profiling,
                    result=grid.result(0, k),
                    reconfig=cost_in,
                )
            )
            cost_out: ReconfigCost = table.reconfig_cost(profiling, config)
            schedule.append(
                EpochRecord(
                    index=epoch,
                    config=config,
                    result=grid.result(0, k + 1),
                    reconfig=cost_out if cost_out.changed else None,
                )
            )
            k += 2
    return schedule
