"""Sparse vector container used by the SpMSpV kernel and graph frontiers.

The paper stores the *B* vector operand "as an array of index-value
tuples" (Section 5.4); :class:`SparseVector` mirrors that with two
parallel arrays sorted by index.
"""

from __future__ import annotations

import numpy as np

from repro.errors import FormatError, ShapeError

__all__ = ["SparseVector"]


class SparseVector:
    """A length-``n`` sparse vector stored as sorted index/value pairs."""

    def __init__(
        self, indices: np.ndarray, values: np.ndarray, length: int
    ) -> None:
        indices = np.asarray(indices, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if indices.ndim != 1 or values.ndim != 1:
            raise FormatError("sparse vector arrays must be one-dimensional")
        if indices.size != values.size:
            raise FormatError("indices/values length mismatch")
        length = int(length)
        if length < 0:
            raise ShapeError("vector length must be non-negative")
        if indices.size:
            if indices.min() < 0 or indices.max() >= length:
                raise FormatError("vector index out of bounds")
            if np.any(np.diff(indices) <= 0):
                order = np.argsort(indices, kind="stable")
                indices = indices[order]
                values = values[order]
                if np.any(np.diff(indices) == 0):
                    raise FormatError("duplicate indices in sparse vector")
        self.indices = indices
        self.values = values
        self.length = length

    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        return int(self.values.size)

    @property
    def density(self) -> float:
        """Fraction of stored entries relative to the vector length."""
        if self.length == 0:
            return 0.0
        return self.nnz / self.length

    def __repr__(self) -> str:
        return f"SparseVector(length={self.length}, nnz={self.nnz})"

    # ------------------------------------------------------------------
    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "SparseVector":
        """Build from a dense 1-D array, dropping zeros."""
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 1:
            raise ShapeError("from_dense expects a 1-D array")
        (idx,) = np.nonzero(dense)
        return cls(idx, dense[idx], dense.size)

    @classmethod
    def empty(cls, length: int) -> "SparseVector":
        """Build an all-zero vector of the given length."""
        return cls(
            np.zeros(0, dtype=np.int64), np.zeros(0), length
        )

    def to_dense(self) -> np.ndarray:
        """Materialize as a dense numpy array."""
        dense = np.zeros(self.length)
        dense[self.indices] = self.values
        return dense

    def prune(self, tolerance: float = 0.0) -> "SparseVector":
        """Drop entries whose magnitude is <= ``tolerance``."""
        keep = np.abs(self.values) > tolerance
        return SparseVector(
            self.indices[keep], self.values[keep], self.length
        )

    def item(self, i: int) -> float:
        """Value at logical position ``i`` (0.0 when not stored)."""
        pos = np.searchsorted(self.indices, i)
        if pos < self.nnz and self.indices[pos] == i:
            return float(self.values[pos])
        return 0.0

    def dot(self, other: "SparseVector") -> float:
        """Sparse-sparse dot product by sorted-index intersection."""
        if self.length != other.length:
            raise ShapeError("dot of vectors with different lengths")
        common, ia, ib = np.intersect1d(
            self.indices, other.indices, return_indices=True
        )
        del common
        return float(np.dot(self.values[ia], other.values[ib]))
