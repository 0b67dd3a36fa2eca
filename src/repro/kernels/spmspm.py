"""Outer-product SpMSpM kernel model (paper Section 2.1, OuterSpace).

``C = A @ B`` with A in CSC and B in CSR decomposes into two explicit
phases:

* **multiply** — for every inner index ``i``, the outer product of
  column ``i`` of A (``a_i`` non-zeros) with row ``i`` of B (``b_i``
  non-zeros) produces ``a_i * b_i`` partial products, streamed out as
  per-row lists. The B row is reused ``a_i`` times, so dense outer
  products have high temporal reuse and a larger live working set —
  these are the paper's *implicit phases* (Figure 1).
* **merge** — for every output row, the partial products accumulated
  for that row are merge-sorted and summed into the final row of C.
  Row partial counts vary wildly for power-law inputs, driving load
  imbalance and irregular access.

The kernel walks the real matrices, so the epoch statistics (and hence
the implicit phases the controller reacts to) come from real data.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ShapeError
from repro.kernels.base import SPMSPM_EPOCH_FP_OPS, EpochAccumulator, KernelTrace
from repro.sparse.csc import CSCMatrix
from repro.sparse.csr import CSRMatrix
from repro.sparse.ops import partials_per_row
from repro.transmuter import params
from repro.transmuter.workload import PHASE_MERGE, PHASE_MULTIPLY

__all__ = ["trace_spmspm"]

#: Bytes per stored element: 8-byte value + 4-byte index.
_ELEMENT_BYTES = 12.0

#: Streaming fractions of each phase's access mix: the multiply phase
#: reads and writes sequential runs (columns, rows, partial lists); the
#: merge phase gathers scattered partials.
_MULTIPLY_STRIDE = 0.85
_MERGE_STRIDE = 0.30

#: GPEs collaborating on one outer product share the B row (the paper
#: observes multiply is amenable to shared L1, merge to private L1).
_MERGE_SHARED = 0.05

#: Nominal number of concurrent tasks (outer products / merge rows) in
#: flight across the system, used to size the live operand buffers the
#: caches should hold (machine-independent trace: the 2x8 system).
_CONCURRENCY = 16


def trace_spmspm(
    a_csc: CSCMatrix,
    b_csr: CSRMatrix,
    epoch_fp_ops: float = SPMSPM_EPOCH_FP_OPS,
    name: Optional[str] = None,
) -> KernelTrace:
    """Trace outer-product SpMSpM over real operands.

    Returns a :class:`KernelTrace` whose epochs cover the multiply phase
    followed by the merge phase. Use
    :func:`repro.sparse.ops.spmspm_reference` for the numeric result.
    """
    if a_csc.shape[1] != b_csr.shape[0]:
        raise ShapeError(
            f"inner dimensions differ: {a_csc.shape} @ {b_csr.shape}"
        )
    a_counts = a_csc.col_lengths()
    b_counts = b_csr.row_lengths()

    # ------------------------------------------------------------------
    # Multiply phase: one task per outer product.
    # ------------------------------------------------------------------
    nonempty = (a_counts > 0) & (b_counts > 0)
    a_nnz = a_counts[nonempty]
    b_nnz = b_counts[nonempty]
    partials = a_nnz * b_nnz
    # The B row is streamed once per element of the A column; reuse
    # makes all but the first pass cache-resident.
    unique_words = 2.0 * (a_nnz + b_nnz) + 2.0 * partials
    unique_lines = (
        _ELEMENT_BYTES * (a_nnz + b_nnz) + _ELEMENT_BYTES * partials
    ) / params.CACHE_LINE_BYTES
    shared = (2.0 * b_nnz) / np.maximum(unique_words, 1.0)
    multiply = EpochAccumulator(PHASE_MULTIPLY, epoch_fp_ops)
    multiply.add_tasks(
        flops=partials,
        fp_loads=a_nnz + a_nnz * b_nnz,  # A values once, B values re-read
        fp_stores=partials,  # partial-product values
        int_ops=2.0 * partials + (a_nnz + b_nnz),  # indices + addressing
        loads=2.0 * a_nnz + a_nnz * b_nnz + b_nnz,  # values + index arrays
        stores=2.0 * partials,  # value + column index per partial
        unique_words=unique_words,
        unique_lines=np.maximum(unique_lines, 1.0),
        stride_fraction=_MULTIPLY_STRIDE,
        shared_fraction=np.minimum(0.9, 4.0 * shared),
        read_bytes=_ELEMENT_BYTES * (a_nnz + b_nnz),
        write_bytes=_ELEMENT_BYTES * partials,
        resident_bytes=_CONCURRENCY * _ELEMENT_BYTES * (a_nnz + b_nnz),
        reuse_locality=0.9,  # the reused B row is re-scanned in order
    )
    multiply_epochs = multiply.finish()

    # ------------------------------------------------------------------
    # Merge phase: one task per output row holding >= 1 partial.
    # ------------------------------------------------------------------
    row_partials = partials_per_row(a_csc, b_csr)
    counts = row_partials[row_partials > 0]
    k = counts.astype(np.float64)
    # ceil(log2(k)) for k > 1 is the bit length of k - 1.
    passes = np.maximum(1.0, np.frexp((counts - 1).astype(np.float64))[1])
    output = np.maximum(1.0, k * 0.7)  # duplicates collapse some partials
    merge = EpochAccumulator(PHASE_MERGE, epoch_fp_ops)
    merge.add_tasks(
        flops=k,  # additions when summing duplicate columns
        fp_loads=k * passes,
        fp_stores=k * (passes - 1.0) + output,
        int_ops=2.0 * k * passes,  # comparisons + index moves
        loads=2.0 * k * passes,
        stores=2.0 * (k * (passes - 1.0) + output),
        unique_words=2.0 * (k + output),
        unique_lines=np.maximum(
            1.0, _ELEMENT_BYTES * (k + output) / params.CACHE_LINE_BYTES
        ),
        stride_fraction=_MERGE_STRIDE,
        shared_fraction=_MERGE_SHARED,
        read_bytes=_ELEMENT_BYTES * k,
        write_bytes=_ELEMENT_BYTES * output,
        resident_bytes=_CONCURRENCY * _ELEMENT_BYTES * (k + output),
        reuse_locality=0.6,  # merge passes re-scan partial runs
    )
    merge_epochs = merge.finish()

    epochs = multiply_epochs + merge_epochs
    total_partials = float(np.sum(row_partials))
    return KernelTrace(
        name=name or "spmspm",
        epochs=epochs,
        info={
            "a_nnz": float(a_csc.nnz),
            "b_nnz": float(b_csr.nnz),
            "partial_products": total_partials,
            "multiply_epochs": float(len(multiply_epochs)),
            "merge_epochs": float(len(merge_epochs)),
        },
    )
