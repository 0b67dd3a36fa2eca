"""The array-code matrix generators against their set-based originals.

``rmat``, ``diagonal_local`` and ``block_arrow`` deduplicate each
round's candidate coordinates with array operations. The originals in
:mod:`tests.scalar_reference` insert the candidates one at a time into a
Python set and draw R-MAT quadrants with ``rng.choice``. Both consume the
same random stream, so every matrix must come out byte for byte equal:
on about 300 seeded random cases, including targets no number of rounds
can reach, and on every suite matrix against the content hashes in
``tests/golden/suite_matrices.json``.

``uniform_random`` and ``random_vector`` sample without replacement in
O(nnz) memory; the reference is numpy's own ``rng.choice``, compared on
the result and on the generator state it leaves behind, and every
Table-3 training input is checked against
``tests/golden/table3_matrices.json``.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import tracemalloc

import numpy as np
import pytest

from repro.core import dataset
from repro.errors import ShapeError
from repro.sparse import generators, suite
from tests import scalar_reference

GOLDEN = pathlib.Path(__file__).parent / "golden" / "suite_matrices.json"
TABLE3_GOLDEN = GOLDEN.with_name("table3_matrices.json")


def _assert_same(matrix, reference) -> None:
    assert matrix.shape == reference.shape
    for name in ("rows", "cols", "vals"):
        ours, theirs = getattr(matrix, name), getattr(reference, name)
        assert ours.dtype == theirs.dtype
        assert ours.tobytes() == theirs.tobytes(), name


def _digest(*arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(array.tobytes())
    return digest.hexdigest()


def _cases(seed: int, count: int):
    """Seeded ``(n, nnz, seed)`` triples from 1x1 up to a few hundred
    rows; ``nnz`` reaches past what the structure can hold."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.choice([1, 2, 3, 5, 8, 16, 31, 64, 100, 128, 257, 400]))
        nnz = int(rng.integers(1, min(2 * n * n, 2000) + 1))
        yield n, nnz, int(rng.integers(0, 2**31 - 1))


class TestSuiteMatricesGolden:
    @pytest.mark.parametrize("scale", [0.05, 0.15])
    @pytest.mark.parametrize("matrix_id", sorted(suite.SUITE))
    def test_matches_recorded_hash(self, matrix_id, scale):
        recorded = json.loads(GOLDEN.read_text())[f"{matrix_id}@{scale}"]
        matrix = suite.load(matrix_id, scale)
        assert list(matrix.shape) == recorded["shape"]
        assert matrix.nnz == recorded["nnz"]
        digest = _digest(matrix.rows, matrix.cols, matrix.vals)
        assert digest == recorded["sha256"]

    @pytest.mark.parametrize("scale", [0.05, 0.15])
    def test_suite_loads_match_set_based_generators(self, scale, monkeypatch):
        """Every R-MAT, diagonal-local and block-arrow stand-in, including
        R08 and R09 at 0.05, whose targets stay out of reach for all
        64/128 rounds."""
        ids = [
            matrix_id
            for matrix_id, spec in suite.SUITE.items()
            if spec.structure in ("rmat", "diagonal_local", "block_arrow")
        ]
        ours = {matrix_id: suite.load(matrix_id, scale) for matrix_id in ids}
        for name in ("rmat", "diagonal_local", "block_arrow"):
            monkeypatch.setattr(
                generators, name, getattr(scalar_reference, name)
            )
        for matrix_id in ids:
            _assert_same(ours[matrix_id], suite.load(matrix_id, scale))


class TestRmatDifferential:
    def test_quadrant_draw_is_choice(self):
        """``rng.choice(4, p=...)`` is one uniform per draw compared with
        the normalized CDF; the generator relies on that identity."""
        for seed in range(20):
            probs = np.random.default_rng(1000 + seed).dirichlet(np.ones(4))
            probs[3] = 1.0 - probs[:3].sum()
            expected = np.random.default_rng(seed).choice(4, size=(50, 7), p=probs)
            cdf = probs.cumsum()
            cdf /= cdf[-1]
            u = np.random.default_rng(seed).random((50, 7))
            assert np.array_equal(expected, cdf.searchsorted(u, side="right"))

    @pytest.mark.parametrize("n, nnz, seed", list(_cases(1, 100)))
    def test_matches_set_based(self, n, nnz, seed):
        a, b, c = np.random.default_rng(seed).dirichlet(np.ones(4))[:3]
        for params in ({}, {"a": a, "b": b, "c": c}):
            _assert_same(
                generators.rmat(n, nnz, seed=seed, **params),
                scalar_reference.rmat(n, nnz, seed=seed, **params),
            )

    def test_unreachable_target(self):
        """Cells with probability 0.1**depth stay empty for all 64 rounds."""
        _assert_same(
            generators.rmat(16, 256, seed=5),
            scalar_reference.rmat(16, 256, seed=5),
        )

    def test_probabilities_still_checked(self):
        with pytest.raises(ShapeError):
            generators.rmat(16, 10, a=0.5, b=0.5, c=0.5)


class TestDiagonalLocalDifferential:
    @pytest.mark.parametrize("n, nnz, seed", list(_cases(2, 100)))
    def test_matches_set_based(self, n, nnz, seed):
        spread = float(np.random.default_rng(seed).choice([0.0, 0.01, 0.1, 0.5]))
        _assert_same(
            generators.diagonal_local(n, nnz, spread=spread, seed=seed),
            scalar_reference.diagonal_local(n, nnz, spread=spread, seed=seed),
        )


class TestBlockArrowDifferential:
    @pytest.mark.parametrize("n, nnz, seed", list(_cases(3, 100)))
    def test_matches_set_based(self, n, nnz, seed):
        rng = np.random.default_rng(seed)
        n_blocks = int(rng.integers(1, 17))
        arrow_fraction = float(rng.choice([0.0, 0.25, 0.6, 1.0]))
        _assert_same(
            generators.block_arrow(
                n, nnz, n_blocks, arrow_fraction, seed=seed
            ),
            scalar_reference.block_arrow(
                n, nnz, n_blocks, arrow_fraction, seed=seed
            ),
        )

    def test_block_count_still_checked(self):
        with pytest.raises(ShapeError):
            generators.block_arrow(64, 100, n_blocks=0)


def _sampling_cases(count: int):
    """Seeded ``(population, size)`` pairs on both sides of numpy's
    tail-shuffle cutoff, ``size`` up to the whole population."""
    rng = np.random.default_rng(23)
    for _ in range(count):
        population = int(rng.choice([1, 50, 9999, 10001, 30000, 200000]))
        population += int(rng.integers(0, 1000))
        yield population, int(rng.integers(0, population + 1))


class TestSampleWithoutReplacement:
    @staticmethod
    def _assert_same_as_choice(population, size, seed=0):
        expected_rng = np.random.default_rng(seed)
        expected = expected_rng.choice(population, size, replace=False)
        rng = np.random.default_rng(seed)
        sample = generators._sample_without_replacement(rng, population, size)
        context = f"population={population} size={size} numpy {np.__version__}"
        assert sample.dtype == expected.dtype, context
        assert np.array_equal(sample, expected), context
        # ``_values`` draws next, so the stream must continue identically.
        assert rng.bit_generator.state == expected_rng.bit_generator.state, (
            context
        )

    @pytest.mark.parametrize(
        "population, size",
        [(10001, 200), (10001, 201), (10000, 9000), (65536, 1310),
         (65536, 1311)],
    )
    def test_cutoff_boundary(self, population, size):
        self._assert_same_as_choice(population, size)

    @pytest.mark.parametrize("population", [1, 10001, 65536])
    @pytest.mark.parametrize("short", [0, 1])
    def test_whole_population(self, population, short):
        self._assert_same_as_choice(population, population - short)

    @pytest.mark.parametrize("case", list(enumerate(_sampling_cases(300))))
    def test_fuzz(self, case):
        seed, (population, size) = case
        self._assert_same_as_choice(population, size, seed)

    @pytest.mark.parametrize("n", [1024, 4096])
    def test_table3_points(self, n):
        cells = n * n
        self._assert_same_as_choice(cells, int(round(0.05 * cells)), seed=n)

    def test_largest_table3_matrix_memory(self):
        """Sampling 4096^2 x 5% without an array of every cell: numpy's
        tail shuffle needs about 168 bytes per non-zero, this about 50."""
        tracemalloc.start()
        try:
            matrix = generators.uniform_random(4096, 4096, 0.05, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / matrix.nnz < 80


class TestTable3Golden:
    @pytest.mark.parametrize("kernel", ["spmspm", "spmspv"])
    def test_matches_recorded_hashes(self, kernel, monkeypatch):
        """Every matrix and vector ``table3_phases`` samples at seed 0."""
        made = []
        uniform, vector = generators.uniform_random, generators.random_vector

        def record_matrix(*args):
            matrix = uniform(*args)
            made.append(
                (
                    "uniform_random", list(args), list(matrix.shape),
                    matrix.nnz,
                    _digest(matrix.rows, matrix.cols, matrix.vals),
                )
            )
            return matrix

        def record_vector(*args):
            sample = vector(*args)
            made.append(
                (
                    "random_vector", list(args), [sample.length], sample.nnz,
                    _digest(sample.indices, sample.values),
                )
            )
            return sample

        monkeypatch.setattr(generators, "uniform_random", record_matrix)
        monkeypatch.setattr(generators, "random_vector", record_vector)
        dataset.table3_phases(kernel, seed=0)
        recorded = json.loads(TABLE3_GOLDEN.read_text())[kernel]
        assert made == [
            (
                entry["generator"], entry["args"], entry["shape"],
                entry["nnz"], entry["sha256"],
            )
            for entry in recorded
        ]
