"""Reconfiguration cost model (paper Sections 3.4 and 5.2).

Configuration changes fall into the paper's taxonomy:

* **Super fine-grained** — clock frequency, prefetcher aggressiveness,
  and *increases* of a cache capacity: a small fixed cost (100 cycles),
  since the sub-banked R-DCache can grow without invalidation.
* **Fine-grained** — capacity *decreases* and sharing-mode changes:
  require flushing the affected layer, pessimistically assuming every
  line is dirty. L1 banks flush to L2 through the tile crossbars; L2
  banks flush to main memory at the off-chip bandwidth (the paper's
  100-961k cycles / up to 157 uJ for L1 and 100-122k cycles / up to
  22 uJ for L2 at 1 GB/s fall out of the same arithmetic). Cores,
  ICaches, queues and the synchronization SPM are power-gated while
  flushing.
* **Coarse-grained** — the L1 memory type (cache vs. SPM) changes the
  compiled code and is never reconfigured at runtime in the baseline
  design. The Section-7 extension (Stash-like dynamic memory-mode
  switching) is supported behind ``allow_memory_mode=True``, priced as
  a checkpoint + code switch + full L1 re-orchestration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.obs import profile as obs_profile
from repro.transmuter import params
from repro.transmuter.config import RUNTIME_PARAMETERS, HardwareConfig
from repro.transmuter.dvfs import OperatingPoint, operating_point
from repro.transmuter.power import PowerModel

__all__ = [
    "GRANULARITY_SUPER_FINE",
    "GRANULARITY_FINE",
    "GRANULARITY_COARSE",
    "AppliedTransition",
    "ReconfigCost",
    "changed_parameters",
    "change_granularity",
    "reconfiguration_cost",
    "transition_matrices",
    "apply_transition",
    "parameter_change_cost",
]

GRANULARITY_SUPER_FINE = "super-fine"
GRANULARITY_FINE = "fine"
GRANULARITY_COARSE = "coarse"

#: Effective internal flush throughput, bytes per cycle, for draining the
#: L1 layer into L2 (single drain path through the tile crossbars).
L1_FLUSH_BYTES_PER_CYCLE = 1.0

#: Flush energy per byte moved. L1 -> L2 stays on chip (SRAM read +
#: crossbar + SRAM write); L2 -> memory pays the off-chip byte cost.
#: Gated leakage during the flush window is charged separately.
E_FLUSH_L1_BYTE = 15e-12
E_FLUSH_L2_BYTE = 50e-12

#: Coarse-grained memory-mode (cache <-> SPM) switch: checkpointing the
#: kernel state, swapping the code version on the GPEs/LCPs, and
#: re-orchestrating SPM contents (a Stash-like mechanism, paper
#: Section 7). Charged on top of a full L1 flush, cycles at nominal.
MEMORY_MODE_SWITCH_CYCLES = 50_000


@dataclass(frozen=True)
class ReconfigCost:
    """Time and energy cost of one configuration transition."""

    time_s: float
    energy_j: float
    flushed_l1: bool
    flushed_l2: bool
    changed: Tuple[str, ...]

    @property
    def is_free(self) -> bool:
        return not self.changed


def changed_parameters(
    old: HardwareConfig,
    new: HardwareConfig,
    allow_memory_mode: bool = False,
) -> List[str]:
    """Runtime parameters that differ between two configurations.

    The L1 memory type is compile-time only in the baseline SparseAdapt
    design (Section 3.4); pass ``allow_memory_mode=True`` to permit the
    Section-7 extension (dynamic cache <-> SPM switching via a
    Stash-like mechanism), in which case ``l1_type`` is reported as a
    changed parameter.
    """
    changed = []
    if old.l1_type != new.l1_type:
        if not allow_memory_mode:
            raise ConfigError(
                "the L1 memory type is compile-time only and cannot be "
                "reconfigured at runtime (coarse-grained parameter)"
            )
        changed.append("l1_type")
    changed += [
        name
        for name in RUNTIME_PARAMETERS
        if old.get(name) != new.get(name)
    ]
    return changed


def change_granularity(
    old: HardwareConfig, new: HardwareConfig, parameter: str
) -> str:
    """Taxonomy class of changing one parameter between two configs."""
    if parameter == "l1_type":
        return GRANULARITY_COARSE
    if parameter in ("clock_mhz", "prefetch"):
        return GRANULARITY_SUPER_FINE
    if parameter in ("l1_kb", "l2_kb"):
        # Growing a sub-banked cache costs only the fixed latch update;
        # shrinking evicts (flushes) the disabled sub-banks.
        if new.get(parameter) >= old.get(parameter):
            return GRANULARITY_SUPER_FINE
        return GRANULARITY_FINE
    if parameter in ("l1_sharing", "l2_sharing"):
        return GRANULARITY_FINE
    raise ConfigError(f"unknown parameter {parameter!r}")


def _flush_requirements(
    old: HardwareConfig, new: HardwareConfig, changed: List[str]
) -> Tuple[bool, bool]:
    """Which layers must be flushed for this transition."""
    flush_l1 = False
    flush_l2 = False
    for name in changed:
        if change_granularity(old, new, name) != GRANULARITY_FINE:
            continue
        if name in ("l1_kb", "l1_sharing"):
            flush_l1 = True
        else:
            flush_l2 = True
    # A scratchpad L1 holds software-managed data; privatization changes
    # still require re-orchestration, treated as an L1 flush as well.
    return flush_l1, flush_l2


#: Process-wide transition-cost memo. Bounded: cleared
#: wholesale if it ever grows past the cap (a campaign's working set —
#: config pairs x a handful of dirty-byte hints — stays far below it).
_COST_MEMO: Dict[tuple, "ReconfigCost"] = {}
_COST_MEMO_MAX = 1 << 17


def reconfiguration_cost(
    old: HardwareConfig,
    new: HardwareConfig,
    power: PowerModel,
    bandwidth_gbps: float = params.DEFAULT_BANDWIDTH_GBPS,
    dirty_bytes_hint: Optional[float] = None,
    allow_memory_mode: bool = False,
) -> ReconfigCost:
    """Total cost of switching from ``old`` to ``new``.

    Flushes run at the flush operating point the host looks up
    (Section 5.2) — the nominal clock, since draining caches as fast as
    possible minimizes the gated-leakage window. ``dirty_bytes_hint``
    bounds the dirty data per layer (e.g. the bytes actually written
    since the last flush); without it the paper's pessimistic
    everything-is-dirty assumption applies to the full provisioned
    capacity.
    """
    # The cost is a pure function of its (hashable) inputs, and
    # campaigns re-evaluate the same transitions thousands of times
    # (per-epoch policy checks) — memoize process-wide. ReconfigCost is
    # frozen, so sharing is safe.
    key = (
        old,
        new,
        power.n_tiles,
        power.gpes_per_tile,
        bandwidth_gbps,
        dirty_bytes_hint,
        allow_memory_mode,
    )
    cached = _COST_MEMO.get(key)
    if cached is not None:
        return cached
    with obs_profile.span("reconfig"):
        cost = _reconfiguration_cost(
            old, new, power, bandwidth_gbps, dirty_bytes_hint,
            allow_memory_mode,
        )
    if len(_COST_MEMO) >= _COST_MEMO_MAX:
        _COST_MEMO.clear()
    _COST_MEMO[key] = cost
    return cost


def _reconfiguration_cost(
    old: HardwareConfig,
    new: HardwareConfig,
    power: PowerModel,
    bandwidth_gbps: float,
    dirty_bytes_hint: Optional[float],
    allow_memory_mode: bool,
) -> ReconfigCost:
    changed = changed_parameters(old, new, allow_memory_mode)
    if not changed:
        return ReconfigCost(0.0, 0.0, False, False, ())
    point = operating_point(new.clock_mhz)
    frequency_hz = new.clock_mhz * 1e6
    flush_hz = params.F_NOMINAL_MHZ * 1e6

    time_s = params.RECONFIG_FIXED_CYCLES / frequency_hz
    energy_j = (
        params.RECONFIG_FIXED_CYCLES
        * params.E_CORE_OP
        * point.dynamic_scale
    )

    memory_mode_switch = "l1_type" in changed
    if memory_mode_switch:
        switch_time = MEMORY_MODE_SWITCH_CYCLES / flush_hz
        time_s += switch_time
        energy_j += (
            MEMORY_MODE_SWITCH_CYCLES
            * params.E_CORE_OP
            * power.n_cores
            * point.dynamic_scale
        )

    flush_l1, flush_l2 = _flush_requirements(
        old, new, [name for name in changed if name != "l1_type"]
    )
    if memory_mode_switch:
        flush_l1 = True  # re-orchestrating the L1 contents
    leak_w = (
        power.leakage_power(old, point) * params.FLUSH_GATED_LEAK_FRACTION
    )
    if flush_l1:
        dirty_bytes = (
            power.provisioned_l1_kb(old) * 1024.0 * params.FLUSH_DIRTY_FRACTION
        )
        if dirty_bytes_hint is not None:
            dirty_bytes = min(dirty_bytes, dirty_bytes_hint)
        flush_cycles = dirty_bytes / L1_FLUSH_BYTES_PER_CYCLE
        flush_time = flush_cycles / flush_hz
        time_s += flush_time
        energy_j += dirty_bytes * E_FLUSH_L1_BYTE + leak_w * flush_time
    if flush_l2:
        dirty_bytes = (
            power.provisioned_l2_kb(old) * 1024.0 * params.FLUSH_DIRTY_FRACTION
        )
        if dirty_bytes_hint is not None:
            dirty_bytes = min(dirty_bytes, dirty_bytes_hint)
        flush_time = dirty_bytes / (bandwidth_gbps * 1e9)
        time_s += flush_time
        energy_j += dirty_bytes * E_FLUSH_L2_BYTE + leak_w * flush_time
    return ReconfigCost(
        time_s=time_s,
        energy_j=energy_j,
        flushed_l1=flush_l1,
        flushed_l2=flush_l2,
        changed=tuple(changed),
    )


def transition_matrices(
    configs: Sequence[HardwareConfig],
    power: PowerModel,
    bandwidth_gbps: float,
    dirty_bytes_hint: Optional[float],
) -> Tuple[np.ndarray, np.ndarray]:
    """(time, energy) of every transition ``configs[i] -> configs[j]``.

    Cell ``[i, j]`` equals ``_reconfiguration_cost(configs[i],
    configs[j], ...)`` bit for bit: every term is computed from
    per-config vectors and combined in the scalar function's operand
    order. Cells with no changed parameter (the diagonal included) are
    0. The L1 memory type is compile-time only, so a set that mixes
    ``l1_type`` raises :class:`ConfigError` like
    :func:`changed_parameters`.
    """
    with obs_profile.span("reconfig"):
        if len({cfg.l1_type for cfg in configs}) > 1:
            raise ConfigError(
                "the L1 memory type is compile-time only and cannot be "
                "reconfigured at runtime (coarse-grained parameter)"
            )

        def column(values) -> np.ndarray:
            return np.array(values, dtype=np.float64)

        # Runtime parameters, one entry per config (sharing as 0/1).
        l1_shared = column([cfg.l1_sharing == "shared" for cfg in configs])
        l2_shared = column([cfg.l2_sharing == "shared" for cfg in configs])
        l1_kb = column([cfg.l1_kb for cfg in configs])
        l2_kb = column([cfg.l2_kb for cfg in configs])
        clock = column([cfg.clock_mhz for cfg in configs])
        prefetch = column([cfg.prefetch for cfg in configs])

        def differs(values: np.ndarray) -> np.ndarray:
            return values[:, None] != values[None, :]

        changed = (
            differs(l1_shared)
            | differs(l2_shared)
            | differs(l1_kb)
            | differs(l2_kb)
            | differs(clock)
            | differs(prefetch)
        )
        # Rows are the old config, columns the new one; shrinking a
        # capacity or changing a sharing mode flushes that layer.
        flush_l1 = differs(l1_shared) | (l1_kb[None, :] < l1_kb[:, None])
        flush_l2 = differs(l2_shared) | (l2_kb[None, :] < l2_kb[:, None])

        # Per new config: the fixed latch update at its operating point.
        points = [operating_point(cfg.clock_mhz) for cfg in configs]
        fixed_time = params.RECONFIG_FIXED_CYCLES / (clock * 1e6)
        fixed_energy = (
            params.RECONFIG_FIXED_CYCLES * params.E_CORE_OP
        ) * column([point.dynamic_scale for point in points])
        leakage_scale = column([point.leakage_scale for point in points])

        # Per old config: gated leakage before DVFS scaling, dirty bytes.
        unscaled = OperatingPoint(
            params.F_NOMINAL_MHZ, params.VDD_NOMINAL, 1.0, 1.0
        )
        base_leak = column(
            [power.leakage_power(cfg, unscaled) for cfg in configs]
        )
        leak_w = (
            base_leak[:, None] * leakage_scale[None, :]
        ) * params.FLUSH_GATED_LEAK_FRACTION
        dirty_l1 = column(
            [power.provisioned_l1_kb(cfg) * 1024.0 for cfg in configs]
        ) * params.FLUSH_DIRTY_FRACTION
        dirty_l2 = column(
            [power.provisioned_l2_kb(cfg) * 1024.0 for cfg in configs]
        ) * params.FLUSH_DIRTY_FRACTION
        if dirty_bytes_hint is not None:
            dirty_l1 = np.minimum(dirty_l1, dirty_bytes_hint)
            dirty_l2 = np.minimum(dirty_l2, dirty_bytes_hint)
        flush_hz = params.F_NOMINAL_MHZ * 1e6
        time_l1 = (dirty_l1 / L1_FLUSH_BYTES_PER_CYCLE) / flush_hz
        time_l2 = dirty_l2 / (bandwidth_gbps * 1e9)

        n = len(configs)
        times = np.broadcast_to(fixed_time, (n, n))
        energies = np.broadcast_to(fixed_energy, (n, n))
        for flushed, dirty, byte_energy, flush_time in (
            (flush_l1, dirty_l1, E_FLUSH_L1_BYTE, time_l1[:, None]),
            (flush_l2, dirty_l2, E_FLUSH_L2_BYTE, time_l2[:, None]),
        ):
            layer_energy = (dirty * byte_energy)[:, None] + leak_w * flush_time
            times = np.where(flushed, times + flush_time, times)
            energies = np.where(flushed, energies + layer_energy, energies)
        return np.where(changed, times, 0.0), np.where(changed, energies, 0.0)


@dataclass(frozen=True)
class AppliedTransition:
    """Outcome of commanding a configuration transition.

    ``actual`` is the configuration the hardware ends up in — equal to
    ``requested`` on a healthy machine, but under fault injection some
    commanded parameter changes can silently fail to land (``dropped``),
    in which case those parameters keep their old values. The cost is
    computed on the *actual* transition: a change that never happened
    is not paid for.
    """

    requested: HardwareConfig
    actual: HardwareConfig
    cost: ReconfigCost
    dropped: Tuple[str, ...] = ()

    @property
    def complete(self) -> bool:
        """Whether every commanded change landed."""
        return not self.dropped


def apply_transition(
    old: HardwareConfig,
    requested: HardwareConfig,
    power: PowerModel,
    bandwidth_gbps: float = params.DEFAULT_BANDWIDTH_GBPS,
    dirty_bytes_hint: Optional[float] = None,
    drop_parameters: Tuple[str, ...] = (),
    allow_memory_mode: bool = False,
) -> AppliedTransition:
    """Command a transition and report what the hardware actually did.

    ``drop_parameters`` names runtime parameters whose commanded change
    silently fails (supplied by a fault injector); they revert to their
    ``old`` values in the resulting configuration. Without drops this
    is :func:`reconfiguration_cost` wrapped in an
    :class:`AppliedTransition`.
    """
    actual = requested
    dropped = tuple(
        name
        for name in drop_parameters
        if old.get(name) != requested.get(name)
    )
    for name in dropped:
        actual = actual.with_value(name, old.get(name))
    cost = reconfiguration_cost(
        old,
        actual,
        power,
        bandwidth_gbps,
        dirty_bytes_hint=dirty_bytes_hint,
        allow_memory_mode=allow_memory_mode,
    )
    return AppliedTransition(
        requested=requested, actual=actual, cost=cost, dropped=dropped
    )


def parameter_change_cost(
    old: HardwareConfig,
    new: HardwareConfig,
    parameter: str,
    power: PowerModel,
    bandwidth_gbps: float = params.DEFAULT_BANDWIDTH_GBPS,
    dirty_bytes_hint: Optional[float] = None,
) -> ReconfigCost:
    """Cost of changing a *single* parameter (for per-knob policies)."""
    if old.get(parameter) == new.get(parameter):
        return ReconfigCost(0.0, 0.0, False, False, ())
    isolated = old.with_value(parameter, new.get(parameter))
    return reconfiguration_cost(
        old, isolated, power, bandwidth_gbps, dirty_bytes_hint
    )


def host_decision_overhead_s() -> float:
    """Telemetry + inference + command time on the host per epoch."""
    return params.HOST_DECISION_CYCLES / (params.HOST_CLOCK_MHZ * 1e6)
