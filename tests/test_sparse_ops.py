"""Unit tests for the reference sparse operations."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.sparse import COOMatrix, generators, ops, suite
from repro.sparse.suite import SPMSPM_IDS
from repro.sparse.vector import SparseVector
from tests import scalar_reference


class TestSpMSpM:
    def test_matches_dense_product(self, small_uniform):
        b = small_uniform.transpose()
        result = ops.spmspm_reference(small_uniform.to_csc(), b.to_csr())
        expected = small_uniform.to_dense() @ b.to_dense()
        assert np.allclose(result.to_dense(), expected)

    def test_rectangular(self):
        a = generators.uniform_random(10, 20, 0.3, seed=1)
        b = generators.uniform_random(20, 15, 0.3, seed=2)
        result = ops.spmspm_reference(a.to_csc(), b.to_csr())
        assert result.shape == (10, 15)
        assert np.allclose(result.to_dense(), a.to_dense() @ b.to_dense())

    def test_empty_result(self):
        a = COOMatrix.empty((4, 4))
        result = ops.spmspm_reference(a.to_csc(), a.to_csr())
        assert result.nnz == 0

    def test_dimension_mismatch(self):
        a = generators.uniform_random(4, 5, 0.5, seed=3)
        with pytest.raises(ShapeError):
            ops.spmspm_reference(a.to_csc(), a.to_csr())


class TestSpMSpV:
    def test_matches_dense_product(self, small_uniform):
        x = generators.random_vector(small_uniform.shape[1], 0.5, seed=4)
        result = ops.spmspv_reference(small_uniform.to_csc(), x)
        expected = small_uniform.to_dense() @ x.to_dense()
        assert np.allclose(result.to_dense(), expected)

    def test_empty_vector(self, small_uniform):
        x = SparseVector.empty(small_uniform.shape[1])
        result = ops.spmspv_reference(small_uniform.to_csc(), x)
        assert result.nnz == 0

    def test_dimension_mismatch(self, small_uniform):
        with pytest.raises(ShapeError):
            ops.spmspv_reference(
                small_uniform.to_csc(), SparseVector.empty(3)
            )


class TestSemiring:
    def test_plus_times_matches_reference(self, small_uniform):
        x = generators.random_vector(small_uniform.shape[1], 0.4, seed=5)
        semiring = ops.spmspv_semiring(small_uniform.to_csc(), x)
        reference = ops.spmspv_reference(small_uniform.to_csc(), x)
        assert np.allclose(
            semiring.to_dense()[reference.indices],
            reference.values,
        )

    def test_min_plus_relaxation(self):
        # Path graph 0 -> 1 -> 2 with weights 2 and 3.
        dense = np.zeros((3, 3))
        dense[1, 0] = 2.0
        dense[2, 1] = 3.0
        a = COOMatrix.from_dense(dense).to_csc()
        frontier = SparseVector([0], [0.0], 3)
        step = ops.spmspv_semiring(a, frontier, add="min", multiply="plus")
        assert step.item(1) == pytest.approx(2.0)

    def test_boolean_or_and(self):
        dense = np.zeros((3, 3))
        dense[1, 0] = 1.0
        dense[2, 0] = 1.0
        a = COOMatrix.from_dense(dense).to_csc()
        frontier = SparseVector([0], [1.0], 3)
        reached = ops.spmspv_semiring(a, frontier, add="or", multiply="and")
        assert set(reached.indices.tolist()) == {1, 2}

    def test_unknown_semiring_rejected(self, small_uniform):
        x = generators.random_vector(small_uniform.shape[1], 0.2, seed=6)
        with pytest.raises(ShapeError):
            ops.spmspv_semiring(small_uniform.to_csc(), x, add="max")


class TestPartialCounts:
    def test_partials_per_row_sums_to_total(self, small_uniform):
        a_csc = small_uniform.to_csc()
        b_csr = small_uniform.transpose().to_csr()
        per_row = ops.partials_per_row(a_csc, b_csr)
        assert per_row.sum() == ops.total_partial_products(a_csc, b_csr)

    def test_total_partials_formula(self):
        a = generators.uniform_random(8, 8, 0.5, seed=7)
        a_csc = a.to_csc()
        b_csr = a.transpose().to_csr()
        expected = int(
            np.dot(a_csc.col_lengths(), b_csr.row_lengths())
        )
        assert ops.total_partial_products(a_csc, b_csr) == expected

    def test_partials_at_least_output_nnz(self, small_uniform):
        """Every output non-zero needs >= 1 partial product."""
        a_csc = small_uniform.to_csc()
        b_csr = small_uniform.transpose().to_csr()
        product = ops.spmspm_reference(a_csc, b_csr)
        assert ops.total_partial_products(a_csc, b_csr) >= product.nnz

    @pytest.mark.parametrize("scale", [0.05, 0.15])
    @pytest.mark.parametrize("matrix_id", SPMSPM_IDS)
    def test_partials_per_row_matches_column_loop(self, matrix_id, scale):
        matrix = suite.load(matrix_id, scale)
        a_csc = matrix.to_csc()
        b_csr = matrix.transpose().to_csr()
        assert np.array_equal(
            ops.partials_per_row(a_csc, b_csr),
            scalar_reference.partials_per_row(a_csc, b_csr),
        )
