"""Kernel trace containers and the epoch accumulator.

A kernel "execution" in this reproduction walks the real algorithm over
the real input data, accumulating workload statistics, and cuts an
epoch whenever the floating-point-operation budget (inclusive of FP
loads and stores, Section 4 of the paper) is exhausted. The result is a
:class:`KernelTrace`: an ordered list of
:class:`~repro.transmuter.workload.EpochWorkload` records plus metadata.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.transmuter.workload import EpochWorkload

__all__ = ["KernelTrace", "EpochAccumulator"]

#: Default epoch budgets (paper Section 5.4).
SPMSPM_EPOCH_FP_OPS = 5000
SPMSPV_EPOCH_FP_OPS = 500


@dataclass
class KernelTrace:
    """A kernel execution summarized as a sequence of epoch workloads."""

    name: str
    epochs: List[EpochWorkload]
    info: Dict[str, float] = field(default_factory=dict)

    @property
    def n_epochs(self) -> int:
        return len(self.epochs)

    @property
    def total_flops(self) -> float:
        """Arithmetic FLOPs across the whole trace (GFLOPS numerator)."""
        return float(sum(epoch.flops for epoch in self.epochs))

    @property
    def total_fp_ops(self) -> float:
        return float(sum(epoch.fp_ops for epoch in self.epochs))

    def phases(self) -> List[str]:
        """Distinct phase labels in execution order."""
        seen: List[str] = []
        for epoch in self.epochs:
            if not seen or seen[-1] != epoch.phase:
                seen.append(epoch.phase)
        return seen


class EpochAccumulator:
    """Accumulates per-task statistics and emits fixed-budget epochs.

    Tasks (one outer product, one merged row, one SpMSpV column, ...)
    enter one at a time through :meth:`add` or as arrays through
    :meth:`add_tasks`; :meth:`finish` then cuts an epoch wherever the
    accumulated FP-op count reaches ``epoch_fp_ops``. Fractions (stride,
    sharing) are averaged weighted by accesses; the work skew is the
    coefficient of variation of the per-task FP work inside the epoch.

    Every epoch sum is sequential in task order (``np.cumsum``, never
    the pairwise ``np.sum``), so an epoch's fields are the floats a
    running per-task total would reach.
    """

    def __init__(self, phase: str, epoch_fp_ops: float) -> None:
        if epoch_fp_ops <= 0:
            raise SimulationError("epoch budget must be positive")
        self.phase = phase
        self.epoch_fp_ops = epoch_fp_ops
        self._rows: List[tuple] = []
        self._blocks: List[np.ndarray] = []

    # ------------------------------------------------------------------
    def add(
        self,
        flops: float,
        fp_loads: float,
        fp_stores: float,
        int_ops: float,
        loads: float,
        stores: float,
        unique_words: float,
        unique_lines: float,
        stride_fraction: float,
        shared_fraction: float,
        read_bytes: float,
        write_bytes: float,
        resident_bytes: float = 0.0,
        reuse_locality: float = 0.5,
    ) -> None:
        """Add one task's contribution.

        ``resident_bytes`` is the live cross-epoch working set observed
        while this task ran; the epoch records the maximum across its
        tasks.
        """
        self._rows.append(
            (flops, fp_loads, fp_stores, int_ops, loads, stores,
             unique_words, unique_lines, stride_fraction, shared_fraction,
             read_bytes, write_bytes, resident_bytes, reuse_locality)
        )

    def add_tasks(
        self,
        flops,
        fp_loads,
        fp_stores,
        int_ops,
        loads,
        stores,
        unique_words,
        unique_lines,
        stride_fraction,
        shared_fraction,
        read_bytes,
        write_bytes,
        resident_bytes=0.0,
        reuse_locality=0.5,
    ) -> None:
        """Add a run of tasks in order: :meth:`add`'s fields, each an
        array with one element per task or a scalar shared by all."""
        columns = (
            flops, fp_loads, fp_stores, int_ops, loads, stores,
            unique_words, unique_lines, stride_fraction, shared_fraction,
            read_bytes, write_bytes, resident_bytes, reuse_locality,
        )
        self._flush_rows()
        block = np.empty((len(columns), np.broadcast(*columns).size))
        for row, column in zip(block, columns):
            row[:] = column
        self._blocks.append(block)

    def _flush_rows(self) -> None:
        if self._rows:
            self._blocks.append(np.array(self._rows, dtype=np.float64).T)
            self._rows = []

    def finish(self) -> List[EpochWorkload]:
        """Cut the tasks into epochs, closing any partial last one."""
        self._flush_rows()
        if not self._blocks:
            return []
        tasks = np.concatenate(self._blocks, axis=1)
        self._blocks = []
        (flops, fp_loads, fp_stores, int_ops, loads, stores, unique_words,
         unique_lines, stride, shared, read_bytes, write_bytes, resident,
         reuse) = tasks
        work = flops + fp_loads + fp_stores
        weight = np.maximum(unique_words, 1.0)
        stack = np.stack([
            work, flops, int_ops, loads, stores, unique_words, unique_lines,
            stride * weight, reuse * weight, shared * weight, weight,
            read_bytes, write_bytes,
        ])
        starts, stops = self._cuts(work.tolist())
        lengths = stops - starts
        sums = np.empty((stack.shape[0], starts.size))
        skews = np.zeros(starts.size)
        peaks = np.empty(starts.size)
        # Epochs with equal task counts are reduced together, one row
        # each: a row's cumsum, mean and std are those of its own slice.
        for length in np.unique(lengths).tolist():
            which = np.flatnonzero(lengths == length)
            index = starts[which, None] + np.arange(length)
            sums[:, which] = np.cumsum(stack[:, index], axis=2)[:, :, -1]
            peaks[which] = np.maximum(resident[index].max(axis=1), 0.0)
            if length > 1:
                segment = work[index]
                mean = segment.mean(axis=1)
                std = segment.std(axis=1)
                skews[which] = np.divide(
                    std, mean, out=np.zeros_like(mean), where=mean > 0
                )
        (fp_ops, flops, int_ops, loads, stores, unique_words, unique_lines,
         stride_weighted, reuse_weighted, shared_weighted, unique_weight,
         read_bytes, write_bytes) = sums
        weight = np.maximum(unique_weight, 1e-9)
        fields = np.stack([
            fp_ops, flops, int_ops, loads, stores, unique_words,
            np.maximum(unique_lines, 1.0),
            np.minimum(1.0, stride_weighted / weight),
            np.minimum(1.0, shared_weighted / weight),
            read_bytes, write_bytes, skews, peaks,
            np.minimum(1.0, reuse_weighted / weight),
        ])
        # Positional in EpochWorkload's field order after ``phase``.
        return [EpochWorkload(self.phase, *row) for row in fields.T.tolist()]

    def _cuts(self, work: List[float]) -> Tuple[np.ndarray, np.ndarray]:
        """Start and stop task of every epoch.

        An epoch ends at the task whose running FP-op total reaches the
        budget; the total restarts at zero after each cut. A last partial
        run of tasks is an epoch only if its total is positive.
        """
        starts = []
        stops = []
        start = 0
        total = 0.0
        budget = self.epoch_fp_ops
        for index, value in enumerate(work):
            total += value
            if total >= budget:
                starts.append(start)
                stops.append(index + 1)
                start = index + 1
                total = 0.0
        if total > 0:
            starts.append(start)
            stops.append(len(work))
        return np.array(starts, dtype=np.int64), np.array(stops, dtype=np.int64)
