"""Off-chip (HBM) memory model.

The evaluated system attaches the L2 layer to high-bandwidth memory
through a memory controller; the paper reduces the available bandwidth
to 1 GB/s to keep the scaled-down 2x8 system's compute-to-memory ratio
representative (Section 5.2) and sweeps it for Figure 11 (right).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import SimulationError
from repro.transmuter import params

__all__ = ["MemoryBehaviour", "MemorySystem"]


@dataclass(frozen=True)
class MemoryBehaviour:
    """Off-chip traffic and cost summary for one epoch."""

    read_bytes: float
    write_bytes: float
    transfer_time_s: float
    energy_j: float
    read_utilization: float
    write_utilization: float


class MemorySystem:
    """Bandwidth-limited DRAM channel with per-byte energy."""

    def __init__(
        self,
        bandwidth_gbps: float = params.DEFAULT_BANDWIDTH_GBPS,
        latency_s: float = params.DRAM_LATENCY_S,
        energy_per_byte: float = params.E_DRAM_BYTE,
    ) -> None:
        if not (math.isfinite(bandwidth_gbps) and bandwidth_gbps > 0):
            raise SimulationError(
                "bandwidth must be finite and positive, "
                f"got {bandwidth_gbps!r}"
            )
        if latency_s < 0 or energy_per_byte < 0:
            raise SimulationError("latency/energy must be non-negative")
        self.bandwidth_bytes_per_s = bandwidth_gbps * 1e9
        self.latency_s = latency_s
        self.energy_per_byte = energy_per_byte

    def scaled(self, factor: float) -> "MemorySystem":
        """A copy with the bandwidth scaled by ``factor`` (same latency
        and per-byte energy). Used to model transient bandwidth
        throttling events without mutating the shared memory system."""
        if not 0.0 < factor <= 1.0:
            raise SimulationError(
                f"bandwidth scale factor must be in (0, 1], got {factor}"
            )
        return MemorySystem(
            bandwidth_gbps=self.bandwidth_bytes_per_s * factor / 1e9,
            latency_s=self.latency_s,
            energy_per_byte=self.energy_per_byte,
        )

    def transfer(
        self, read_bytes: float, write_bytes: float, elapsed_s: float
    ) -> MemoryBehaviour:
        """Cost of moving the epoch's traffic; utilizations use
        ``elapsed_s`` (the final epoch duration) as the denominator."""
        if read_bytes < 0 or write_bytes < 0:
            raise SimulationError("negative traffic")
        total = read_bytes + write_bytes
        transfer_time = total / self.bandwidth_bytes_per_s
        window = max(elapsed_s, 1e-15)
        capacity = self.bandwidth_bytes_per_s * window
        return MemoryBehaviour(
            read_bytes=read_bytes,
            write_bytes=write_bytes,
            transfer_time_s=transfer_time,
            energy_j=total * self.energy_per_byte,
            read_utilization=min(1.0, read_bytes / capacity),
            write_utilization=min(1.0, write_bytes / capacity),
        )

    def latency_cycles(self, clock_mhz: float) -> float:
        """DRAM access latency expressed in core cycles."""
        if clock_mhz <= 0:
            raise SimulationError("clock must be positive")
        return self.latency_s * clock_mhz * 1e6
