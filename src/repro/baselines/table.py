"""Precomputed epoch x configuration result table.

The paper's methodology (Appendix A.7) simulates every epoch under S
randomly sampled configurations and then *stitches* dynamic schemes
(Ideal Greedy, Oracle, ProfileAdapt) out of the per-epoch segments.
:class:`EpochTable` is that table: one machine-model evaluation per
(epoch, configuration) pair, shared by all schemes so comparisons are
exact.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import SimulationError
from repro.fastpath.epochs import EpochGrid
from repro.kernels.base import KernelTrace
from repro.transmuter.config import HardwareConfig, sample_configs
from repro.transmuter.machine import EpochResult, TransmuterModel
from repro.transmuter.reconfig import (
    reconfiguration_cost,
    transition_matrices,
)

__all__ = ["EpochTable"]


class EpochTable:
    """Dense table of machine-model results for a trace.

    Parameters
    ----------
    machine:
        The machine model (geometry + bandwidth) to evaluate on.
    trace:
        The kernel trace whose epochs are simulated.
    configs:
        The sampled configuration set (paper: S = 256); defaults to a
        seeded sample including any ``include`` configurations.
    """

    def __init__(
        self,
        machine: TransmuterModel,
        trace: KernelTrace,
        configs: Optional[Sequence[HardwareConfig]] = None,
        n_samples: int = 64,
        l1_type: str = "cache",
        seed: int = 0,
        include: Sequence[HardwareConfig] = (),
    ) -> None:
        if configs is None:
            configs = sample_configs(
                n_samples, l1_type=l1_type, seed=seed, include=include
            )
        if not configs:
            raise SimulationError("need at least one configuration")
        if not trace.epochs:
            raise SimulationError("trace has no epochs")
        self.machine = machine
        self.trace = trace
        self.configs: List[HardwareConfig] = list(configs)
        self._index: Dict[HardwareConfig, int] = {
            cfg: i for i, cfg in enumerate(self.configs)
        }
        n_epochs = len(trace.epochs)
        n_configs = len(self.configs)
        # One vectorized pass over the whole epoch x config grid;
        # EpochResult cells materialize lazily as schemes index them
        # (bit-identical to simulate_epoch, see repro.fastpath).
        grid = EpochGrid(machine, trace.epochs, self.configs)
        self.results = grid.rows()
        self.times = grid.times
        self.energies = grid.energies
        assert self.times.shape == (n_epochs, n_configs)
        # Dirty-data bound for flush costs: the typical bytes written
        # into the hierarchy per epoch (see reconfiguration_cost).
        from repro.transmuter import params

        self.dirty_bytes_hint = float(
            np.median(
                [w.stores * params.WORD_BYTES for w in trace.epochs]
            )
        )

    # ------------------------------------------------------------------
    @property
    def n_epochs(self) -> int:
        return len(self.trace.epochs)

    @property
    def n_configs(self) -> int:
        return len(self.configs)

    @property
    def bandwidth_gbps(self) -> float:
        return self.machine.memory.bandwidth_bytes_per_s / 1e9

    def config_index(self, config: HardwareConfig) -> int:
        """Index of a configuration in the sampled set."""
        if config not in self._index:
            raise SimulationError(
                f"configuration {config.describe()} not in the sampled table"
            )
        return self._index[config]

    def result(self, epoch: int, config: HardwareConfig) -> EpochResult:
        """The machine-model result for one (epoch, config) pair."""
        return self.results[epoch][self.config_index(config)]

    # ------------------------------------------------------------------
    def reconfig_cost(self, source: HardwareConfig, target: HardwareConfig):
        """Full transition cost with this table's dirty-bytes bound."""
        return reconfiguration_cost(
            source,
            target,
            self.machine.power,
            self.bandwidth_gbps,
            dirty_bytes_hint=self.dirty_bytes_hint,
        )

    def reconfig_matrices(self) -> tuple:
        """(time, energy) transition matrices over the sampled configs."""
        return transition_matrices(
            self.configs,
            self.machine.power,
            self.bandwidth_gbps,
            self.dirty_bytes_hint,
        )
