"""Epoch-level Transmuter machine model.

:class:`TransmuterModel` predicts, for one :class:`EpochWorkload` under
one :class:`HardwareConfig`, the epoch duration, the full energy
breakdown, and the Table-2 performance counters. It composes the
analytic cache model, the crossbar contention model, the DVFS model,
the memory system, and the power estimator.

The model is deliberately *analytic*: evaluating one (epoch, config)
pair costs microseconds, which is what makes the paper's methodology
(simulate every epoch under hundreds of sampled configurations, then
stitch dynamic schemes together — Appendix A.7) feasible in pure
Python.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import SimulationError
from repro.obs import TraceRecorder, get_recorder
from repro.obs import profile as obs_profile
from repro.transmuter import params
from repro.transmuter.cache_model import LevelBehaviour, LevelInputs, model_level
from repro.transmuter.config import HardwareConfig
from repro.transmuter.counters import PerformanceCounters
from repro.transmuter.crossbar import model_crossbar
from repro.transmuter.config import CLOCKS_MHZ
from repro.transmuter.dvfs import OperatingPoint, clamp_frequency, operating_point
from repro.transmuter.memory import MemorySystem
from repro.transmuter.power import EnergyBreakdown, PowerModel
from repro.transmuter.workload import EpochWorkload

__all__ = [
    "EpochEnvironment",
    "EpochResult",
    "TransmuterModel",
    "record_epoch",
]


@dataclass(frozen=True)
class EpochEnvironment:
    """Transient machine-level conditions for one epoch.

    A healthy epoch runs without an environment (``None``); fault
    injection supplies one to model events the controller did not
    command: HBM bandwidth throttling (``bandwidth_scale < 1``) and a
    thermal DVFS clamp window (``clock_cap_mhz``). The performance
    counters of a degraded epoch echo the *effective* clock, which is
    how a hardened controller can notice the clamp.
    """

    bandwidth_scale: float = 1.0
    clock_cap_mhz: Optional[float] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.bandwidth_scale <= 1.0:
            raise SimulationError(
                f"bandwidth_scale must be in (0, 1], got {self.bandwidth_scale}"
            )
        if self.clock_cap_mhz is not None and self.clock_cap_mhz not in CLOCKS_MHZ:
            raise SimulationError(
                f"clock_cap_mhz must be a Table-1 clock step, "
                f"got {self.clock_cap_mhz!r}"
            )

    def constrain(self, config: HardwareConfig) -> HardwareConfig:
        """The configuration the hardware effectively runs under."""
        if self.clock_cap_mhz is None:
            return config
        effective = clamp_frequency(config.clock_mhz, self.clock_cap_mhz)
        if effective == config.clock_mhz:
            return config
        return config.with_value("clock_mhz", effective)


@dataclass(frozen=True)
class EpochResult:
    """Predicted outcome of executing one epoch on one configuration."""

    time_s: float
    energy: EnergyBreakdown
    counters: PerformanceCounters
    core_time_s: float
    memory_time_s: float
    dram_read_bytes: float
    dram_write_bytes: float
    flops: float
    fp_ops: float

    @property
    def energy_j(self) -> float:
        return self.energy.total

    @property
    def power_w(self) -> float:
        return self.energy.total / max(self.time_s, 1e-15)

    @property
    def gflops(self) -> float:
        """Performance metric: arithmetic GFLOP/s."""
        return self.flops / max(self.time_s, 1e-15) / 1e9

    @property
    def gflops_per_watt(self) -> float:
        """Energy-efficiency metric (= flops / energy / 1e9)."""
        return self.flops / max(self.energy.total, 1e-18) / 1e9


def record_epoch(
    recorder: TraceRecorder,
    workload: EpochWorkload,
    config: HardwareConfig,
    *,
    time_s: float,
    core_time_s: float,
    memory_time_s: float,
    l1_hit_rate: float,
    l2_hit_rate: float,
    dram_read_utilization: float,
    dram_write_utilization: float,
) -> None:
    """Emit the ``machine.epoch`` event of one epoch.

    The one place traced epochs are reported: :meth:`simulate_epoch`
    calls it per epoch and :class:`repro.fastpath.epochs.EpochGrid` per
    cell, so both produce the same records for the same epochs.
    """
    bandwidth_utilization = dram_read_utilization + dram_write_utilization
    saturated = bandwidth_utilization >= params.BANDWIDTH_SATURATION_THRESHOLD
    recorder.event(
        "machine.epoch",
        phase=workload.phase,
        config=config.describe(),
        time_s=time_s,
        core_time_s=core_time_s,
        memory_time_s=memory_time_s,
        l1_hit_rate=l1_hit_rate,
        l2_hit_rate=l2_hit_rate,
        dram_read_utilization=dram_read_utilization,
        dram_write_utilization=dram_write_utilization,
        bandwidth_saturated=bool(saturated),
    )


def _soft_roofline(core_time: float, memory_time: float) -> float:
    """Smooth maximum of compute time and memory-transfer time."""
    p = params.ROOFLINE_SMOOTHNESS
    return (core_time**p + memory_time**p) ** (1.0 / p)


class TransmuterModel:
    """Analytic model of an M x N Transmuter system."""

    def __init__(
        self,
        n_tiles: int = params.DEFAULT_TILES,
        gpes_per_tile: int = params.DEFAULT_GPES_PER_TILE,
        bandwidth_gbps: float = params.DEFAULT_BANDWIDTH_GBPS,
        memory: Optional[MemorySystem] = None,
    ) -> None:
        if n_tiles < 1 or gpes_per_tile < 1:
            raise SimulationError("system geometry must be positive")
        self.n_tiles = n_tiles
        self.gpes_per_tile = gpes_per_tile
        self.memory = memory or MemorySystem(bandwidth_gbps)
        self.power = PowerModel(n_tiles, gpes_per_tile)

    # ------------------------------------------------------------------
    @property
    def n_gpes(self) -> int:
        return self.n_tiles * self.gpes_per_tile

    def describe(self) -> str:
        """Geometry summary, e.g. ``2x8 @ 1.0 GB/s``."""
        gbps = self.memory.bandwidth_bytes_per_s / 1e9
        return f"{self.n_tiles}x{self.gpes_per_tile} @ {gbps:g} GB/s"

    # ------------------------------------------------------------------
    # L1 model
    # ------------------------------------------------------------------
    def _l1_geometry(
        self, workload: EpochWorkload, config: HardwareConfig
    ):
        """Working set, capacity, and compulsory inflation at L1."""
        shared_frac = workload.shared_fraction
        total_ws = workload.live_set_bytes
        tiles = self.n_tiles
        gpes = self.gpes_per_tile
        if config.l1_sharing == "shared":
            # One logical cache per tile: shared data held once per tile.
            working_set = total_ws * ((1.0 - shared_frac) / tiles + shared_frac)
            capacity = config.l1_kb * 1024.0 * gpes
            inflation = (1.0 - shared_frac) + shared_frac * min(tiles, 2.0)
        else:
            # Private per GPE: shared data replicated into each L1.
            working_set = total_ws * (
                (1.0 - shared_frac) / (tiles * gpes) + shared_frac
            )
            capacity = config.l1_kb * 1024.0
            inflation = (1.0 - shared_frac) + shared_frac * min(
                gpes, params.REPLICATION_CAP_L1
            )
        return working_set, capacity, inflation

    def _model_l1(
        self, workload: EpochWorkload, config: HardwareConfig
    ) -> LevelBehaviour:
        working_set, capacity, inflation = self._l1_geometry(workload, config)
        if config.l1_type == "spm":
            return self._model_l1_spm(workload, working_set, capacity)
        inputs = LevelInputs(
            accesses=workload.accesses,
            unique_words=min(workload.unique_words * inflation, workload.accesses),
            unique_lines=min(
                workload.unique_lines * inflation,
                workload.unique_words * inflation,
            ),
            working_set_bytes=working_set,
            capacity_bytes=capacity,
            stride_fraction=workload.stride_fraction,
            prefetch=config.prefetch,
            sharers=self.gpes_per_tile if config.l1_sharing == "shared" else 1,
            reuse_locality=workload.reuse_locality,
        )
        return model_level(inputs)

    def _model_l1_spm(
        self,
        workload: EpochWorkload,
        working_set: float,
        capacity: float,
    ) -> LevelBehaviour:
        """Scratchpad L1: software maps the hot region; mapped accesses
        always hit, the rest bypass to L2. No hardware prefetch at L1
        (DMA orchestration is charged as extra int ops by the caller)."""
        mappable = working_set * params.SPM_MAPPABLE_FRACTION
        mapped_fraction = params.SPM_MAPPABLE_FRACTION * min(
            1.0, capacity / max(mappable, 1.0)
        )
        access_hit_fraction = min(
            0.98, mapped_fraction * params.SPM_HOT_ACCESS_BOOST
        )
        accesses = max(workload.accesses, 1e-9)
        hits = accesses * access_hit_fraction
        return LevelBehaviour(
            hits=hits,
            misses=accesses - hits,
            hit_rate=access_hit_fraction,
            residency=access_hit_fraction,
            occupancy=min(1.0, working_set / max(capacity, 1e-9)),
            prefetches_issued=0.0,
            prefetch_covered_lines=0.0,
            overfetch_lines=0.0,
        )

    # ------------------------------------------------------------------
    # L2 model
    # ------------------------------------------------------------------
    def _model_l2(
        self,
        workload: EpochWorkload,
        config: HardwareConfig,
        l1_misses: float,
    ) -> LevelBehaviour:
        shared_frac = workload.shared_fraction * params.TILE_SHARING_FACTOR
        total_ws = workload.live_set_bytes
        tiles = self.n_tiles
        if config.l2_sharing == "shared":
            working_set = total_ws
            capacity = config.l2_kb * 1024.0 * tiles
            inflation = 1.0
        else:
            working_set = total_ws * ((1.0 - shared_frac) / tiles + shared_frac)
            capacity = config.l2_kb * 1024.0
            inflation = (1.0 - shared_frac) + shared_frac * min(
                tiles, params.REPLICATION_CAP_L2
            )
        unique = min(workload.unique_lines * inflation, max(l1_misses, 1e-9))
        inputs = LevelInputs(
            accesses=max(l1_misses, 1e-9),
            unique_words=unique,
            unique_lines=unique,
            working_set_bytes=working_set,
            capacity_bytes=capacity,
            stride_fraction=workload.stride_fraction,
            prefetch=config.prefetch,
            sharers=self.n_tiles if config.l2_sharing == "shared" else 1,
            reuse_locality=workload.reuse_locality,
        )
        return model_level(inputs)

    # ------------------------------------------------------------------
    # Epoch simulation
    # ------------------------------------------------------------------
    def simulate_epoch(
        self,
        workload: EpochWorkload,
        config: HardwareConfig,
        environment: Optional[EpochEnvironment] = None,
    ) -> EpochResult:
        """Predict time, energy, and counters for one epoch.

        ``environment`` models transient machine events (bandwidth
        throttling, thermal clock clamps) the controller did not
        command; the epoch then runs under the *effective* conditions
        and its counters echo them. ``None`` (the default) is the
        healthy fast path and leaves the modeled numbers untouched.
        """
        with obs_profile.span("kernel_sim"):
            return self._simulate_epoch(workload, config, environment)

    def _simulate_epoch(
        self,
        workload: EpochWorkload,
        config: HardwareConfig,
        environment: Optional[EpochEnvironment] = None,
    ) -> EpochResult:
        memory = self.memory
        if environment is not None:
            config = environment.constrain(config)
            if environment.bandwidth_scale != 1.0:
                memory = memory.scaled(environment.bandwidth_scale)
        point = operating_point(config.clock_mhz)
        frequency_hz = config.clock_mhz * 1e6

        int_ops = workload.int_ops
        if config.l1_type == "spm":
            int_ops *= 1.0 + params.SPM_ORCHESTRATION_OVERHEAD
        instructions = workload.flops + int_ops + workload.accesses

        imbalance = 1.0 + min(
            params.IMBALANCE_CAP - 1.0,
            params.IMBALANCE_COEFF * workload.work_skew,
        )
        instructions_per_gpe = instructions / self.n_gpes * imbalance

        with obs_profile.span("cache_model"):
            l1 = self._model_l1(workload, config)
            l2 = self._model_l2(workload, config, l1.misses)

        # Crossbar layers: GPE->L1 within a tile, tile->L2 across tiles.
        xbar1 = model_crossbar(
            accesses=workload.accesses / self.n_tiles,
            busy_cycles=instructions_per_gpe,
            n_requesters=self.gpes_per_tile,
            n_banks=self.gpes_per_tile,
            shared=config.l1_sharing == "shared",
        )
        xbar2 = model_crossbar(
            accesses=l1.misses / max(self.n_tiles, 1),
            busy_cycles=instructions_per_gpe,
            n_requesters=self.n_tiles,
            n_banks=self.n_tiles,
            shared=config.l2_sharing == "shared",
        )

        # Stall cycles (global, then distributed over GPEs).
        dram_latency = memory.latency_cycles(config.clock_mhz)
        l2_hit_latency = params.L2_LATENCY + xbar2.extra_latency_cycles
        l2_hits = l1.misses * l2.hit_rate
        l2_misses = l1.misses - l2_hits
        covered = min(l2.prefetch_covered_lines, l2_misses)
        uncovered = l2_misses - covered
        stalls = (
            workload.accesses * xbar1.extra_latency_cycles
            + l2_hits * l2_hit_latency
            + covered * l2_hit_latency
            + uncovered * dram_latency
        )
        mlp = params.MLP * (
            params.MLP_STRIDE_FLOOR
            + params.MLP_STRIDE_SLOPE * workload.stride_fraction
        )
        stalls_per_gpe = stalls / self.n_gpes * imbalance / mlp

        cycles_per_gpe = instructions_per_gpe + stalls_per_gpe
        core_time = cycles_per_gpe / frequency_hz

        # DRAM traffic.
        line = params.CACHE_LINE_BYTES
        read_bytes = line * (
            l2.misses * params.REFETCH_LINE_FACTOR + l2.overfetch_lines
        )
        read_bytes = max(read_bytes, workload.read_bytes_compulsory)
        store_fraction = workload.stores / max(workload.accesses, 1e-9)
        evict_bytes = line * l2.misses * store_fraction * 0.5
        write_bytes = workload.write_bytes + evict_bytes

        memory_time = (read_bytes + write_bytes) / memory.bandwidth_bytes_per_s
        elapsed = _soft_roofline(core_time, memory_time)
        memory_io = memory.transfer(read_bytes, write_bytes, elapsed)

        with obs_profile.span("power_model"):
            energy = self.power.epoch_energy(
                config=config,
                point=point,
                elapsed_s=elapsed,
                core_ops=instructions,
                l1_accesses=workload.accesses + l1.prefetches_issued,
                l2_accesses=l1.misses + l2.prefetches_issued,
                xbar_transfers=xbar1.transfers * self.n_tiles
                + xbar2.transfers * self.n_tiles,
                dram_bytes=read_bytes + write_bytes,
            )

        counters = self._build_counters(
            workload=workload,
            config=config,
            point=point,
            l1=l1,
            l2=l2,
            xbar_contention=max(xbar1.contention_ratio, xbar2.contention_ratio),
            cycles_per_gpe=cycles_per_gpe,
            instructions_per_gpe=instructions_per_gpe,
            elapsed=elapsed,
            memory_io=memory_io,
        )
        recorder = get_recorder()
        if recorder.enabled:
            record_epoch(
                recorder,
                workload,
                config,
                time_s=elapsed,
                core_time_s=core_time,
                memory_time_s=memory_time,
                l1_hit_rate=l1.hit_rate,
                l2_hit_rate=l2.hit_rate,
                dram_read_utilization=memory_io.read_utilization,
                dram_write_utilization=memory_io.write_utilization,
            )
        return EpochResult(
            time_s=elapsed,
            energy=energy,
            counters=counters,
            core_time_s=core_time,
            memory_time_s=memory_time,
            dram_read_bytes=read_bytes,
            dram_write_bytes=write_bytes,
            flops=workload.flops,
            fp_ops=workload.fp_ops,
        )

    # ------------------------------------------------------------------
    def _build_counters(
        self,
        workload: EpochWorkload,
        config: HardwareConfig,
        point: OperatingPoint,
        l1: LevelBehaviour,
        l2: LevelBehaviour,
        xbar_contention: float,
        cycles_per_gpe: float,
        instructions_per_gpe: float,
        elapsed: float,
        memory_io,
    ) -> PerformanceCounters:
        cycles = max(cycles_per_gpe, 1e-9)
        n_l1_banks = self.n_gpes
        n_l2_banks = self.n_tiles
        accesses = workload.accesses
        gpe_ipc = min(1.0, instructions_per_gpe / cycles)
        fp_per_gpe = workload.fp_ops / self.n_gpes
        gpe_fp_ipc = min(gpe_ipc, fp_per_gpe / cycles)
        lcp_instr = (
            workload.instructions
            * params.LCP_WORK_FRACTION
            * (1.0 + workload.work_skew)
            / self.n_tiles
        )
        lcp_ipc = min(1.0, lcp_instr / cycles)
        return PerformanceCounters(
            l1_access_rate=accesses / cycles / n_l1_banks,
            l1_occupancy=l1.occupancy,
            l1_miss_rate=1.0 - l1.hit_rate,
            l1_prefetch_ratio=l1.prefetches_issued / max(accesses, 1e-9),
            l1_capacity_kb=float(config.l1_kb),
            l2_access_rate=l1.misses / cycles / n_l2_banks,
            l2_occupancy=l2.occupancy,
            l2_miss_rate=1.0 - l2.hit_rate,
            l2_prefetch_ratio=l2.prefetches_issued / max(l1.misses, 1e-9),
            l2_capacity_kb=float(config.l2_kb),
            xbar_contention_ratio=xbar_contention,
            gpe_ipc=gpe_ipc,
            gpe_fp_ipc=gpe_fp_ipc,
            lcp_ipc=lcp_ipc,
            lcp_fp_ipc=lcp_ipc * 0.4,
            clock_mhz=config.clock_mhz,
            dram_read_utilization=memory_io.read_utilization,
            dram_write_utilization=memory_io.write_utilization,
        )
