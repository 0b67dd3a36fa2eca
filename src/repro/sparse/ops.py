"""Reference sparse linear-algebra operations.

These are numerically exact, numpy-vectorized implementations used to
validate the modelled kernels in :mod:`repro.kernels` and to compute
result matrices without materializing every outer-product partial.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.sparse.coo import COOMatrix
from repro.sparse.csc import CSCMatrix
from repro.sparse.csr import CSRMatrix
from repro.sparse.vector import SparseVector

__all__ = [
    "spmspm_reference",
    "spmspv_reference",
    "spmspv_semiring",
    "sparse_add",
    "hadamard",
    "partials_per_row",
    "total_partial_products",
]


def spmspm_reference(a_csc: CSCMatrix, b_csr: CSRMatrix) -> COOMatrix:
    """Exact sparse-sparse matrix product ``C = A @ B``.

    Implemented as a row-wise Gustavson product over CSR(A); the numeric
    result is identical to the outer-product formulation the kernels
    model, while keeping memory proportional to the output rather than to
    the partial-product count.
    """
    if a_csc.shape[1] != b_csr.shape[0]:
        raise ShapeError(
            f"inner dimensions differ: {a_csc.shape} @ {b_csr.shape}"
        )
    a_csr = a_csc.to_csr()
    n_rows = a_csr.shape[0]
    n_cols = b_csr.shape[1]
    rows_out = []
    cols_out = []
    vals_out = []
    for i in range(n_rows):
        a_cols, a_vals = a_csr.row(i)
        if a_cols.size == 0:
            continue
        accumulator: dict = {}
        for k, a_val in zip(a_cols, a_vals):
            b_cols, b_vals = b_csr.row(int(k))
            if b_cols.size == 0:
                continue
            for j, b_val in zip(b_cols, b_vals):
                j = int(j)
                accumulator[j] = accumulator.get(j, 0.0) + a_val * b_val
        if accumulator:
            cols = np.fromiter(accumulator.keys(), dtype=np.int64)
            vals = np.fromiter(accumulator.values(), dtype=np.float64)
            rows_out.append(np.full(cols.size, i, dtype=np.int64))
            cols_out.append(cols)
            vals_out.append(vals)
    if not rows_out:
        return COOMatrix.empty((n_rows, n_cols))
    return COOMatrix(
        np.concatenate(rows_out),
        np.concatenate(cols_out),
        np.concatenate(vals_out),
        (n_rows, n_cols),
    ).sum_duplicates()


def spmspv_reference(a_csc: CSCMatrix, x: SparseVector) -> SparseVector:
    """Exact sparse matrix - sparse vector product ``y = A @ x``.

    Column-driven: for each stored entry ``x_j``, scale column ``j`` of A
    and accumulate — the same dataflow the modelled SpMSpV kernel uses.
    """
    if a_csc.shape[1] != x.length:
        raise ShapeError(
            f"dimension mismatch: {a_csc.shape} @ vector({x.length})"
        )
    dense_acc = np.zeros(a_csc.shape[0])
    for j, x_val in zip(x.indices, x.values):
        rows, vals = a_csc.col(int(j))
        np.add.at(dense_acc, rows, vals * x_val)
    return SparseVector.from_dense(dense_acc)


def spmspv_semiring(
    a_csc: CSCMatrix,
    x: SparseVector,
    add: str = "plus",
    multiply: str = "times",
) -> SparseVector:
    """SpMSpV over a configurable semiring.

    Supports the semirings needed by the graph kernels:

    * ``plus``/``times`` — ordinary arithmetic,
    * ``min``/``plus``   — tropical semiring for shortest paths,
    * ``or``/``and``     — boolean semiring for reachability (BFS).
    """
    if a_csc.shape[1] != x.length:
        raise ShapeError(
            f"dimension mismatch: {a_csc.shape} @ vector({x.length})"
        )
    if add == "plus":
        identity = 0.0
    elif add == "min":
        identity = np.inf
    elif add == "or":
        identity = 0.0
    else:
        raise ShapeError(f"unsupported additive operation {add!r}")

    acc = np.full(a_csc.shape[0], identity)
    touched = np.zeros(a_csc.shape[0], dtype=bool)
    for j, x_val in zip(x.indices, x.values):
        rows, vals = a_csc.col(int(j))
        if rows.size == 0:
            continue
        if multiply == "times":
            products = vals * x_val
        elif multiply == "plus":
            products = vals + x_val
        elif multiply == "and":
            products = ((vals != 0) & (x_val != 0)).astype(np.float64)
        else:
            raise ShapeError(f"unsupported multiplicative op {multiply!r}")
        if add == "plus":
            np.add.at(acc, rows, products)
        elif add == "min":
            np.minimum.at(acc, rows, products)
        else:  # "or"
            np.logical_or.at(touched, rows, products != 0)
        if add != "or":
            touched[rows] = True
    if add == "or":
        acc = touched.astype(np.float64)
    idx = np.nonzero(touched)[0]
    return SparseVector(idx, acc[idx], a_csc.shape[0])


def sparse_add(a: COOMatrix, b: COOMatrix) -> COOMatrix:
    """Element-wise sum ``A + B`` (GraphBLAS eWiseAdd with plus)."""
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch: {a.shape} + {b.shape}")
    return COOMatrix(
        np.concatenate([a.rows, b.rows]),
        np.concatenate([a.cols, b.cols]),
        np.concatenate([a.vals, b.vals]),
        a.shape,
    ).sum_duplicates()


def hadamard(a: COOMatrix, b: COOMatrix) -> COOMatrix:
    """Element-wise product ``A .* B`` (GraphBLAS eWiseMult with times).

    Only coordinates stored in *both* operands survive (structural
    intersection), matching semiring semantics for masks.
    """
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch: {a.shape} .* {b.shape}")
    a = a.sum_duplicates()
    b = b.sum_duplicates()
    a_keys = a.rows * a.shape[1] + a.cols
    b_keys = b.rows * b.shape[1] + b.cols
    common, ia, ib = np.intersect1d(a_keys, b_keys, return_indices=True)
    return COOMatrix(
        common // a.shape[1],
        common % a.shape[1],
        a.vals[ia] * b.vals[ib],
        a.shape,
    )


def partials_per_row(a_csc: CSCMatrix, b_csr: CSRMatrix) -> np.ndarray:
    """Outer-product partial counts landing in each row of C = A @ B.

    For outer product ``i`` (column ``i`` of A times row ``i`` of B),
    every stored row ``r`` of ``A[:, i]`` receives ``nnz(B[i, :])``
    partial products. The merge phase of OP-SpMSpM sorts and sums exactly
    these counts per row, so this array drives the merge-phase workload
    trace.
    """
    if a_csc.shape[1] != b_csr.shape[0]:
        raise ShapeError(
            f"inner dimensions differ: {a_csc.shape} @ {b_csr.shape}"
        )
    counts = np.zeros(a_csc.shape[0], dtype=np.int64)
    np.add.at(
        counts,
        a_csc.indices,
        np.repeat(b_csr.row_lengths(), a_csc.col_lengths()),
    )
    return counts


def total_partial_products(a_csc: CSCMatrix, b_csr: CSRMatrix) -> int:
    """Total outer-product partials: sum over i of nnz(A[:,i])*nnz(B[i,:])."""
    if a_csc.shape[1] != b_csr.shape[0]:
        raise ShapeError(
            f"inner dimensions differ: {a_csc.shape} @ {b_csr.shape}"
        )
    return int(np.dot(a_csc.col_lengths(), b_csr.row_lengths()))
