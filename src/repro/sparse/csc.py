"""Compressed sparse column (CSC) matrix format.

CSC stores, for each column, a contiguous slice of row indices and values.
It is the layout the paper uses for the *A* operand of outer-product
SpMSpM (column fetches) and for column-driven SpMSpV.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import FormatError, ShapeError

__all__ = ["CSCMatrix"]


class CSCMatrix:
    """A sparse matrix in compressed sparse column format.

    Parameters
    ----------
    indptr:
        ``n_cols + 1`` monotonically non-decreasing offsets into
        ``indices``/``data``.
    indices:
        Row index of each stored entry, column-major order.
    data:
        Stored values, parallel to ``indices``.
    shape:
        ``(n_rows, n_cols)``.
    """

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
        shape: Tuple[int, int],
    ) -> None:
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        data = np.asarray(data, dtype=np.float64)
        n_rows, n_cols = int(shape[0]), int(shape[1])
        if indptr.ndim != 1 or indptr.size != n_cols + 1:
            raise FormatError(
                f"indptr must have length n_cols+1={n_cols + 1}, "
                f"got {indptr.size}"
            )
        if indptr[0] != 0:
            raise FormatError("indptr must start at 0")
        if np.any(np.diff(indptr) < 0):
            raise FormatError("indptr must be non-decreasing")
        if indices.size != data.size or indices.size != indptr[-1]:
            raise FormatError("indices/data length must equal indptr[-1]")
        if indices.size and (indices.min() < 0 or indices.max() >= n_rows):
            raise FormatError("row index out of bounds")
        self.indptr = indptr
        self.indices = indices
        self.data = data
        self.shape = (n_rows, n_cols)

    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        return int(self.data.size)

    @property
    def density(self) -> float:
        """Fraction of stored entries relative to the dense size."""
        cells = self.shape[0] * self.shape[1]
        if cells == 0:
            return 0.0
        return self.nnz / cells

    def __repr__(self) -> str:
        return f"CSCMatrix(shape={self.shape}, nnz={self.nnz})"

    # ------------------------------------------------------------------
    # Column access
    # ------------------------------------------------------------------
    def col(self, j: int) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(row_indices, values)`` of column ``j`` (views)."""
        if not 0 <= j < self.shape[1]:
            raise ShapeError(f"column {j} out of range for {self.shape}")
        lo, hi = self.indptr[j], self.indptr[j + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    def col_nnz(self, j: int) -> int:
        """Number of stored entries in column ``j``."""
        if not 0 <= j < self.shape[1]:
            raise ShapeError(f"column {j} out of range for {self.shape}")
        return int(self.indptr[j + 1] - self.indptr[j])

    def col_lengths(self) -> np.ndarray:
        """Array of per-column nnz counts."""
        return np.diff(self.indptr)

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def to_coo(self):
        """Convert to :class:`repro.sparse.coo.COOMatrix`."""
        from repro.sparse.coo import COOMatrix

        cols = np.repeat(np.arange(self.shape[1]), np.diff(self.indptr))
        return COOMatrix(self.indices.copy(), cols, self.data.copy(), self.shape)

    def to_csr(self):
        """Convert to :class:`repro.sparse.csr.CSRMatrix`."""
        return self.to_coo().to_csr()

    def to_dense(self) -> np.ndarray:
        """Materialize as a dense numpy array."""
        return self.to_coo().to_dense()

    def transpose(self) -> "CSCMatrix":
        """Return the transpose as a new CSC matrix."""
        return self.to_coo().transpose().to_csc()
