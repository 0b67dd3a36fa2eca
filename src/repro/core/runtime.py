"""Host runtime facade: offload kernels to the modeled Transmuter.

This is the library's highest-level entry point, mirroring the paper's
host/device split (Figure 2): the host "executes Python code and is
responsible for offloading parallelizable kernels to Transmuter". A
:class:`TransmuterRuntime` owns a machine model, an optimization mode,
and a control scheme; its kernel methods compute the *numerically
exact* result with the reference routines and simultaneously predict
the accelerator's behaviour by driving the controller over the kernel's
workload trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro import obs
from repro.core.controller import SparseAdaptController
from repro.core.model import SparseAdaptModel
from repro.core.modes import OptimizationMode
from repro.core.policies import ReconfigurationPolicy
from repro.core.schedule import ScheduleResult
from repro.core.training import train_default_model
from repro.errors import ConfigError
from repro.graph.bfs import BFSResult, bfs
from repro.graph.sssp import SSSPResult, sssp
from repro.kernels.base import (
    SPMSPM_EPOCH_FP_OPS,
    SPMSPV_EPOCH_FP_OPS,
    KernelTrace,
)
from repro.kernels.spmspm import trace_spmspm
from repro.kernels.spmspv import trace_spmspv
from repro.sparse.coo import COOMatrix
from repro.sparse.ops import spmspm_reference, spmspv_reference
from repro.sparse.vector import SparseVector
from repro.transmuter.config import HardwareConfig
from repro.transmuter.machine import TransmuterModel

__all__ = ["OffloadOutcome", "TransmuterRuntime"]


@dataclass
class OffloadOutcome:
    """Result of one offloaded kernel: numerics plus predicted metrics."""

    result: object
    schedule: ScheduleResult
    trace: KernelTrace

    @property
    def gflops(self) -> float:
        return self.schedule.gflops

    @property
    def gflops_per_watt(self) -> float:
        return self.schedule.gflops_per_watt


class TransmuterRuntime:
    """Host-side runtime dispatching kernels under SparseAdapt control."""

    def __init__(
        self,
        machine: Optional[TransmuterModel] = None,
        mode: OptimizationMode = OptimizationMode.ENERGY_EFFICIENT,
        model: Optional[SparseAdaptModel] = None,
        policy: Optional[ReconfigurationPolicy] = None,
        initial_config: Optional[HardwareConfig] = None,
        l1_type: str = "cache",
    ) -> None:
        self.machine = machine or TransmuterModel()
        self.mode = mode
        self.l1_type = model.l1_type if model is not None else l1_type
        self._model = model
        self.policy = policy
        self.initial_config = initial_config

    # ------------------------------------------------------------------
    @property
    def model(self) -> SparseAdaptModel:
        """The predictive model (trained lazily on first use)."""
        if self._model is None:
            self._model = train_default_model(
                self.mode, kernel="spmspv", l1_type=self.l1_type
            )
        return self._model

    def _controller(self) -> SparseAdaptController:
        return SparseAdaptController(
            model=self.model,
            machine=self.machine,
            mode=self.mode,
            policy=self.policy,
            initial_config=self.initial_config,
        )

    def run_trace(self, trace: KernelTrace) -> ScheduleResult:
        """Run an arbitrary pre-built workload trace under control."""
        return self._controller().run(trace)

    def _offload(self, kernel: str, result, trace: KernelTrace) -> OffloadOutcome:
        """Drive the controller over a kernel trace, instrumented.

        Each offload is one ``offload`` span (kernel type, trace length,
        achieved GFLOPS and GFLOPS/W) plus a ``runtime.offload`` event;
        the span body is the controlled run itself.
        """
        recorder = obs.get_recorder()
        with recorder.span(
            "offload", kernel=kernel, trace=trace.name, n_epochs=trace.n_epochs
        ) as span:
            schedule = self.run_trace(trace)
            if recorder.enabled:
                span.set(
                    gflops=schedule.gflops,
                    gflops_per_watt=schedule.gflops_per_watt,
                    reconfigurations=schedule.n_reconfigurations,
                )
        if recorder.enabled:
            recorder.event(
                "runtime.offload",
                kernel=kernel,
                trace=trace.name,
                n_epochs=trace.n_epochs,
                gflops=schedule.gflops,
                gflops_per_watt=schedule.gflops_per_watt,
                time_s=schedule.total_time_s,
                energy_j=schedule.total_energy_j,
                reconfigurations=schedule.n_reconfigurations,
            )
        return OffloadOutcome(result, schedule, trace)

    # ------------------------------------------------------------------
    # Kernel offload API
    # ------------------------------------------------------------------
    def spmspm(
        self,
        a: COOMatrix,
        b: Optional[COOMatrix] = None,
        epoch_fp_ops: float = SPMSPM_EPOCH_FP_OPS,
        compute_result: bool = True,
    ) -> OffloadOutcome:
        """Sparse-sparse matrix multiply ``C = A @ B`` (B defaults to
        ``A.T``, the paper's evaluation setting)."""
        b = b if b is not None else a.transpose()
        if a.shape[1] != b.shape[0]:
            raise ConfigError(f"shape mismatch {a.shape} @ {b.shape}")
        a_csc = a.to_csc()
        b_csr = b.to_csr()
        trace = trace_spmspm(a_csc, b_csr, epoch_fp_ops)
        result = spmspm_reference(a_csc, b_csr) if compute_result else None
        return self._offload("spmspm", result, trace)

    def spmspv(
        self,
        a: COOMatrix,
        x: SparseVector,
        epoch_fp_ops: float = SPMSPV_EPOCH_FP_OPS,
        compute_result: bool = True,
    ) -> OffloadOutcome:
        """Sparse matrix - sparse vector multiply ``y = A @ x``."""
        a_csc = a.to_csc()
        trace = trace_spmspv(a_csc, x, epoch_fp_ops)
        result = spmspv_reference(a_csc, x) if compute_result else None
        return self._offload("spmspv", result, trace)

    def bfs(self, graph: COOMatrix, source: int = 0) -> OffloadOutcome:
        """Breadth-first search over an adjacency matrix."""
        outcome: BFSResult = bfs(graph.to_csc(), source)
        return self._offload("bfs", outcome, outcome.trace)

    def sssp(self, graph: COOMatrix, source: int = 0) -> OffloadOutcome:
        """Single-source shortest paths over a weighted adjacency matrix."""
        outcome: SSSPResult = sssp(graph.to_csc(), source)
        return self._offload("sssp", outcome, outcome.trace)
