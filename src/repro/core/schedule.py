"""Schedule result containers shared by SparseAdapt and all baselines.

A *schedule* is the sequence of configurations a scheme chose for the
trace's epochs, together with the predicted per-epoch results and any
reconfiguration costs paid at epoch boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.modes import OptimizationMode, metric_value
from repro.errors import SimulationError
from repro.transmuter.config import HardwareConfig
from repro.transmuter.machine import EpochResult
from repro.transmuter.reconfig import ReconfigCost

__all__ = ["EpochRecord", "ScheduleResult", "ScheduleTotals"]


@dataclass(frozen=True)
class EpochRecord:
    """One executed epoch: the chosen configuration, the machine-model
    outcome, and the transition cost paid *before* the epoch ran."""

    index: int
    config: HardwareConfig
    result: EpochResult
    reconfig: Optional[ReconfigCost] = None

    @property
    def time_s(self) -> float:
        extra = self.reconfig.time_s if self.reconfig else 0.0
        return self.result.time_s + extra

    @property
    def energy_j(self) -> float:
        extra = self.reconfig.energy_j if self.reconfig else 0.0
        return self.result.energy_j + extra

    def as_dict(self) -> dict:
        """JSON-friendly view of one epoch (trace tooling, ``--json``)."""
        return {
            "epoch": self.index,
            "config": {
                "l1_type": self.config.l1_type,
                "l1_sharing": self.config.l1_sharing,
                "l2_sharing": self.config.l2_sharing,
                "l1_kb": self.config.l1_kb,
                "l2_kb": self.config.l2_kb,
                "clock_mhz": self.config.clock_mhz,
                "prefetch": self.config.prefetch,
            },
            "time_s": self.result.time_s,
            "energy_j": self.result.energy_j,
            "gflops": self.result.gflops,
            "reconfig_time_s": self.reconfig.time_s if self.reconfig else 0.0,
            "reconfig_energy_j": (
                self.reconfig.energy_j if self.reconfig else 0.0
            ),
            "changed": list(self.reconfig.changed) if self.reconfig else [],
        }


def _gflops(flops: float, time_s: float) -> float:
    return flops / max(time_s, 1e-15) / 1e9


def _gflops_per_watt(flops: float, energy_j: float) -> float:
    return flops / max(energy_j, 1e-18) / 1e9


def _average_power_w(energy_j: float, time_s: float) -> float:
    return energy_j / max(time_s, 1e-15)


@dataclass(frozen=True)
class ScheduleTotals:
    """A schedule's totals, each summed once, and the rates built on them.

    Read them through :meth:`ScheduleResult.totals` when a caller needs
    several: every :class:`ScheduleResult` total walks all its records.
    """

    flops: float
    time_s: float
    energy_j: float

    @property
    def gflops(self) -> float:
        return _gflops(self.flops, self.time_s)

    @property
    def gflops_per_watt(self) -> float:
        return _gflops_per_watt(self.flops, self.energy_j)

    @property
    def average_power_w(self) -> float:
        return _average_power_w(self.energy_j, self.time_s)


@dataclass
class ScheduleResult:
    """Aggregate outcome of running a whole trace under one scheme."""

    scheme: str
    records: List[EpochRecord] = field(default_factory=list)
    overhead_time_s: float = 0.0  # host telemetry/decision time
    overhead_energy_j: float = 0.0
    #: Controller fault/hardening counters for this run (attached by the
    #: harness when the scheme ran under fault injection; ``None`` for
    #: fault-free runs and table-driven schemes).
    fault_stats: Optional[dict] = None

    # ------------------------------------------------------------------
    def append(self, record: EpochRecord) -> None:
        self.records.append(record)

    @property
    def n_epochs(self) -> int:
        return len(self.records)

    @property
    def n_reconfigurations(self) -> int:
        return sum(
            1
            for record in self.records
            if record.reconfig is not None and record.reconfig.changed
        )

    @property
    def total_flops(self) -> float:
        return sum(record.result.flops for record in self.records)

    @property
    def total_time_s(self) -> float:
        return (
            sum(record.time_s for record in self.records)
            + self.overhead_time_s
        )

    @property
    def total_energy_j(self) -> float:
        return (
            sum(record.energy_j for record in self.records)
            + self.overhead_energy_j
        )

    def totals(self) -> ScheduleTotals:
        """Flops, time and energy, one walk of the records each."""
        return ScheduleTotals(
            self.total_flops, self.total_time_s, self.total_energy_j
        )

    # ------------------------------------------------------------------
    @property
    def gflops(self) -> float:
        return _gflops(self.total_flops, self.total_time_s)

    @property
    def gflops_per_watt(self) -> float:
        return _gflops_per_watt(self.total_flops, self.total_energy_j)

    @property
    def average_power_w(self) -> float:
        return _average_power_w(self.total_energy_j, self.total_time_s)

    def metric(self, mode: OptimizationMode) -> float:
        """The mode's figure of merit for the whole schedule."""
        if not self.records:
            raise SimulationError("empty schedule has no metric")
        return metric_value(
            mode, self.total_flops, self.total_time_s, self.total_energy_j
        )

    def config_sequence(self) -> List[HardwareConfig]:
        """Configuration chosen for each epoch, in order."""
        return [record.config for record in self.records]

    def energy_breakdown(self) -> dict:
        """Component energies aggregated across the schedule, joules.

        ``reconfiguration`` collects the transition costs;
        ``host_overhead`` the telemetry/decision energy.
        """
        totals = {
            "core_dynamic": 0.0,
            "l1_dynamic": 0.0,
            "l2_dynamic": 0.0,
            "xbar_dynamic": 0.0,
            "dram": 0.0,
            "leakage": 0.0,
            "reconfiguration": 0.0,
        }
        for record in self.records:
            breakdown = record.result.energy
            totals["core_dynamic"] += breakdown.core_dynamic
            totals["l1_dynamic"] += breakdown.l1_dynamic
            totals["l2_dynamic"] += breakdown.l2_dynamic
            totals["xbar_dynamic"] += breakdown.xbar_dynamic
            totals["dram"] += breakdown.dram
            totals["leakage"] += breakdown.leakage
            if record.reconfig is not None:
                totals["reconfiguration"] += record.reconfig.energy_j
        totals["host_overhead"] = self.overhead_energy_j
        return totals

    def summary(self) -> dict:
        """Loggable scalar summary."""
        return {
            "scheme": self.scheme,
            "epochs": self.n_epochs,
            "reconfigurations": self.n_reconfigurations,
            "time_ms": self.total_time_s * 1e3,
            "energy_mj": self.total_energy_j * 1e3,
            "gflops": self.gflops,
            "gflops_per_watt": self.gflops_per_watt,
        }

    def as_dict(self, include_epochs: bool = False) -> dict:
        """Machine-readable export (``repro run --json``, trace tooling).

        The scalar totals always appear; ``include_epochs`` adds the
        full per-epoch timeline via :meth:`EpochRecord.as_dict`.
        """
        out = self.summary()
        out["overhead_time_s"] = self.overhead_time_s
        out["overhead_energy_j"] = self.overhead_energy_j
        out["energy_breakdown_j"] = self.energy_breakdown()
        if include_epochs:
            out["records"] = [record.as_dict() for record in self.records]
        return out
