"""Column-wise SpMSpV kernel model.

``y = A @ x`` with A in CSC and x as sorted index/value pairs: for every
stored ``x_j`` the kernel scales column ``j`` of A and accumulates into
a sparse accumulator over the output vector. Multiply and merge happen
"in tandem" (paper Section 5.1): every column task both multiplies and
merges into the accumulator, so the trace has a single explicit phase
and all phase variation is implicit — driven by column densities and by
how much of the accumulator each column revisits.

The kernel executes on the real operands and tracks the accumulator
exactly, so accumulator reuse (the dominant implicit-phase signal) is
measured, not assumed.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ShapeError
from repro.kernels.base import SPMSPV_EPOCH_FP_OPS, EpochAccumulator, KernelTrace
from repro.sparse.csc import CSCMatrix
from repro.sparse.vector import SparseVector
from repro.transmuter import params
from repro.transmuter.workload import PHASE_SPMSPV

__all__ = ["trace_spmspv"]

_ELEMENT_BYTES = 12.0

#: Streaming fraction of the column fetch (values + indices).
_COLUMN_STRIDE = 0.85


def trace_spmspv(
    a_csc: CSCMatrix,
    x: SparseVector,
    epoch_fp_ops: float = SPMSPV_EPOCH_FP_OPS,
    name: Optional[str] = None,
) -> KernelTrace:
    """Trace column-driven SpMSpV over real operands.

    Returns a :class:`KernelTrace` with one implicit-phase epoch stream.
    Use :func:`repro.sparse.ops.spmspv_reference` for the numeric result.
    """
    if a_csc.shape[1] != x.length:
        raise ShapeError(
            f"dimension mismatch: {a_csc.shape} @ vector({x.length})"
        )
    accumulator = EpochAccumulator(PHASE_SPMSPV, epoch_fp_ops)

    # One task per non-empty column x selects, in x order.
    starts = a_csc.indptr[x.indices]
    a_nnz = a_csc.indptr[x.indices + 1] - starts
    nonempty = a_nnz > 0
    starts, a_nnz = starts[nonempty], a_nnz[nonempty]
    n_tasks = a_nnz.size
    # Row indices of every selected column, concatenated in task order.
    element_task = np.repeat(np.arange(n_tasks), a_nnz)
    shift = starts - (np.cumsum(a_nnz) - a_nnz)
    rows = a_csc.indices[np.arange(element_task.size) + shift[element_task]]

    # A task's new touches are the accumulator rows no earlier column
    # reached: the first occurrence of each row.
    touched_rows, first = np.unique(rows, return_index=True)
    new_touches = np.bincount(element_task[first], minlength=n_tasks)
    touched_count = np.cumsum(new_touches)

    # Spatial locality of the accumulator scatter: the fraction of
    # consecutive row gaps inside a column that stay within one cache
    # line. Diagonal-local matrices (R09) score high; power-law columns
    # whose entries span the whole accumulator score low. Words per
    # line: updates whose row gaps stay within a line behave like
    # streaming; larger gaps are true gathers.
    words_per_line = params.CACHE_LINE_BYTES // params.WORD_BYTES
    near = np.diff(rows) <= words_per_line
    same_column = element_task[1:] == element_task[:-1]
    near_gaps = np.bincount(
        element_task[1:][near & same_column], minlength=n_tasks
    )
    accumulator_locality = np.ones(n_tasks)
    multi = a_nnz > 1
    accumulator_locality[multi] = near_gaps[multi] / (a_nnz[multi] - 1)

    unique_lines = np.maximum(
        1.0,
        (
            _ELEMENT_BYTES * a_nnz
            + params.WORD_BYTES * new_touches
            / np.maximum(accumulator_locality, 0.125)
        )
        / params.CACHE_LINE_BYTES,
    )
    column_accesses = 2.0 * a_nnz
    accumulator_accesses = 2.0 * a_nnz
    stride = (
        column_accesses * _COLUMN_STRIDE
        + accumulator_accesses * accumulator_locality
    ) / (column_accesses + accumulator_accesses)
    accumulator.add_tasks(
        flops=2.0 * a_nnz,  # multiply + accumulate per stored element
        fp_loads=2.0 * a_nnz + 1.0,  # column values + accumulator reads + x_j
        fp_stores=a_nnz,  # accumulator writes
        int_ops=3.0 * a_nnz,  # row indices + accumulator addressing
        loads=3.0 * a_nnz + 1.0,  # values, indices, accumulator
        stores=a_nnz,
        unique_words=2.0 * a_nnz + new_touches,
        unique_lines=unique_lines,
        stride_fraction=np.clip(stride, 0.0, 1.0),
        # The output vector is row-partitioned across GPEs, and each
        # GPE reads only the column entries landing in its slice, so
        # both the accumulator and the matrix data are effectively
        # private; only x values and index metadata are shared.
        shared_fraction=0.15,
        read_bytes=_ELEMENT_BYTES * a_nnz + _ELEMENT_BYTES,
        write_bytes=_ELEMENT_BYTES * new_touches,
        resident_bytes=(
            touched_count * params.WORD_BYTES + _ELEMENT_BYTES * a_nnz
        ),
        reuse_locality=accumulator_locality,
    )

    epochs = accumulator.finish()
    return KernelTrace(
        name=name or "spmspv",
        epochs=epochs,
        info={
            "a_nnz": float(a_csc.nnz),
            "x_nnz": float(x.nnz),
            "y_nnz": float(touched_rows.size),
        },
    )
