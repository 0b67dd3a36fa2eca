"""The array-form epoch accumulator and traces against the scalar loops.

``trace_spmspm`` and ``trace_spmspv`` compute their per-task statistics
as arrays and hand them to ``EpochAccumulator.add_tasks``; ``finish``
cuts the epochs. :mod:`tests.scalar_reference` keeps the loops they
replaced: one ``add`` call per outer product, merged row or SpMSpV
column, each closing its epoch the moment the budget is reached. The
two must agree exactly: epoch lists ``==``, ``info`` dicts ``==`` and
every numeric field a Python ``float``.
"""

from __future__ import annotations

import importlib

import numpy as np
import pytest

from repro.core import dataset
from repro.experiments.harness import build_trace
from repro.kernels import EpochAccumulator, trace_spmspm, trace_spmspv
from repro.sparse import generators, suite
from repro.sparse.coo import COOMatrix
from repro.sparse.vector import SparseVector
from tests import scalar_reference
from tests.scalar_reference import ScalarEpochAccumulator, scalar_path

FIELDS = (
    "flops", "fp_loads", "fp_stores", "int_ops", "loads", "stores",
    "unique_words", "unique_lines", "stride_fraction", "shared_fraction",
    "read_bytes", "write_bytes", "resident_bytes", "reuse_locality",
)

SUITE_IDS = [f"R{i:02d}" for i in range(1, 17)]


def _assert_same_trace(ours, reference) -> None:
    assert ours.name == reference.name
    assert ours.epochs == reference.epochs
    assert ours.info == reference.info
    _assert_floats(ours.epochs)
    assert all(type(value) is float for value in ours.info.values())


def _assert_floats(epochs) -> None:
    for epoch in epochs:
        for name, value in vars(epoch).items():
            if name != "phase":
                assert type(value) is float, name


def _both(epoch_fp_ops, tasks, batched=True):
    """Epochs of ``tasks`` (dicts of every add() keyword) both ways."""
    ours = EpochAccumulator("merge", epoch_fp_ops)
    if batched and tasks:
        ours.add_tasks(
            **{name: np.array([task[name] for task in tasks]) for name in FIELDS}
        )
    else:
        for task in tasks:
            ours.add(**task)
    reference = ScalarEpochAccumulator("merge", epoch_fp_ops)
    for task in tasks:
        reference.add(**task)
    return ours.finish(), reference.finish()


def _task(work, **overrides):
    task = dict(
        flops=work, fp_loads=0.0, fp_stores=0.0, int_ops=1.0, loads=2.0,
        stores=1.0, unique_words=3.0, unique_lines=1.0,
        stride_fraction=0.5, shared_fraction=0.1, read_bytes=12.0,
        write_bytes=12.0, resident_bytes=64.0, reuse_locality=0.7,
    )
    task.update(overrides)
    return task


class TestAccumulatorDifferential:
    def test_no_tasks(self):
        ours, reference = _both(100.0, [])
        assert ours == reference == []

    def test_one_task_over_budget(self):
        ours, reference = _both(100.0, [_task(250.0)])
        assert ours == reference
        assert len(ours) == 1 and ours[0].work_skew == 0.0

    def test_budget_hit_exactly(self):
        tasks = [_task(work) for work in (40.0, 60.0, 100.0, 25.0, 75.0, 1.0)]
        ours, reference = _both(100.0, tasks)
        assert ours == reference
        assert [epoch.fp_ops for epoch in ours] == [100.0, 100.0, 100.0, 1.0]

    def test_single_task_epochs_have_zero_skew(self):
        ours, reference = _both(10.0, [_task(float(w)) for w in range(10, 20)])
        assert ours == reference
        assert all(epoch.work_skew == 0.0 for epoch in ours)

    def test_zero_work_tail_is_dropped(self):
        tasks = [_task(60.0), _task(50.0), _task(0.0), _task(0.0)]
        ours, reference = _both(100.0, tasks)
        assert ours == reference and len(ours) == 1

    def test_scalar_add_and_add_tasks_share_one_epoch_stream(self):
        tasks = [_task(float(w)) for w in (30.0, 50.0, 10.0, 70.0, 5.0)]
        ours = EpochAccumulator("merge", 100.0)
        ours.add(**tasks[0])
        ours.add_tasks(
            **{name: np.array([t[name] for t in tasks[1:4]]) for name in FIELDS}
        )
        ours.add(**tasks[4])
        reference = ScalarEpochAccumulator("merge", 100.0)
        for task in tasks:
            reference.add(**task)
        assert ours.finish() == reference.finish()

    def test_int_inputs_become_floats(self):
        tasks = [
            _task(7, int_ops=3, unique_words=1, resident_bytes=96)
            for _ in range(5)
        ]
        ours, reference = _both(20.0, tasks, batched=False)
        assert ours == reference
        _assert_floats(ours)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_streams(self, seed):
        rng = np.random.default_rng(seed)
        n_tasks = int(rng.integers(1, 400))
        scale = float(rng.choice([1.0, 10.0, 1000.0]))
        tasks = [
            _task(
                float(rng.choice([0.0, rng.random() * scale, np.floor(rng.pareto(1.2) * scale)])),
                fp_loads=float(rng.random() * scale),
                unique_words=float(rng.choice([0.0, 0.5, rng.random() * 50])),
                unique_lines=float(rng.random() * 3),
                stride_fraction=float(rng.random()),
                shared_fraction=float(rng.random()),
                resident_bytes=float(rng.random() * 1e4),
                reuse_locality=float(rng.random()),
            )
            for _ in range(n_tasks)
        ]
        budget = float(rng.choice([1.0, 50.0, 500.0, 5000.0]))
        ours, reference = _both(budget, tasks, batched=bool(seed % 2))
        assert ours == reference
        _assert_floats(ours)


class TestSuiteTraces:
    @pytest.mark.parametrize("scale", [0.05, 0.15])
    @pytest.mark.parametrize("matrix_id", SUITE_IDS)
    def test_spmspm(self, matrix_id, scale):
        matrix = suite.load(matrix_id, scale)
        a_csc, b_csr = matrix.to_csc(), matrix.transpose().to_csr()
        _assert_same_trace(
            trace_spmspm(a_csc, b_csr),
            scalar_reference.trace_spmspm(a_csc, b_csr),
        )

    @pytest.mark.parametrize("scale", [0.05, 0.15])
    @pytest.mark.parametrize("matrix_id", SUITE_IDS)
    def test_spmspv(self, matrix_id, scale):
        matrix = suite.load(matrix_id, scale)
        a_csc = matrix.to_csc()
        x = generators.random_vector(matrix.shape[1], 0.5, seed=1)
        _assert_same_trace(
            trace_spmspv(a_csc, x), scalar_reference.trace_spmspv(a_csc, x)
        )

    @pytest.mark.parametrize("kernel", ["bfs", "sssp"])
    @pytest.mark.parametrize("matrix_id", ["R09", "R10", "R13", "R16"])
    def test_graph_kernels(self, kernel, matrix_id):
        graph_module = importlib.import_module(f"repro.graph.{kernel}")
        ours = build_trace(kernel, matrix_id, 0.05, use_cache=False)
        with scalar_path():
            assert graph_module.trace_spmspv is scalar_reference.trace_spmspv
            reference = build_trace(kernel, matrix_id, 0.05, use_cache=False)
        _assert_same_trace(ours, reference)


class TestTable3Traces:
    @pytest.mark.parametrize("kernel", ["spmspm", "spmspv"])
    def test_training_sweep_traces(self, kernel):
        """The matrices and vectors ``table3_phases`` traces, drawn the
        way it draws them."""
        grid = dataset.default_grid(kernel)
        rng = np.random.default_rng(0)
        for dim in grid["dims"]:
            for density in grid["densities"]:
                matrix_seed = int(rng.integers(0, 2**31 - 1))
                matrix = generators.uniform_random(dim, dim, density, matrix_seed)
                a_csc = matrix.to_csc()
                if kernel == "spmspm":
                    b_csr = matrix.transpose().to_csr()
                    ours = trace_spmspm(a_csc, b_csr)
                    reference = scalar_reference.trace_spmspm(a_csc, b_csr)
                else:
                    x = generators.random_vector(dim, 0.5, matrix_seed + 1)
                    ours = trace_spmspv(a_csc, x)
                    reference = scalar_reference.trace_spmspv(a_csc, x)
                _assert_same_trace(ours, reference)

    @pytest.mark.parametrize("kernel", ["spmspm", "spmspv"])
    def test_table3_phases(self, kernel):
        ours = [phase.workload for phase in dataset.table3_phases(kernel)]
        with scalar_path():
            reference = [
                phase.workload for phase in dataset.table3_phases(kernel)
            ]
        assert ours == reference


class TestSpMSpVEdgeCases:
    @staticmethod
    def _matrix():
        # Columns 1 and 3 are empty; column 4 has a single entry.
        rows = np.array([0, 5, 6, 2, 9, 30, 31, 7])
        cols = np.array([0, 0, 0, 2, 2, 2, 2, 4])
        return COOMatrix(rows, cols, np.ones(rows.size), (40, 5)).to_csc()

    def _compare(self, indices, epoch_fp_ops=500.0):
        a_csc = self._matrix()
        x = SparseVector(np.array(indices, dtype=np.int64),
                         np.ones(len(indices)), 5)
        ours = trace_spmspv(a_csc, x, epoch_fp_ops)
        _assert_same_trace(
            ours, scalar_reference.trace_spmspv(a_csc, x, epoch_fp_ops)
        )
        return ours

    def test_only_empty_columns_selected(self):
        trace = self._compare([1, 3])
        assert trace.epochs == []
        assert trace.info["y_nnz"] == 0.0

    def test_empty_vector(self):
        assert self._compare([]).epochs == []

    @pytest.mark.parametrize("epoch_fp_ops", [1.0, 6.0, 21.0, 500.0])
    def test_mixed_columns(self, epoch_fp_ops):
        self._compare([0, 1, 2, 3, 4], epoch_fp_ops)

    def test_multiply_without_tasks(self):
        """A @ B where no outer product is non-empty traces no epochs."""
        a = COOMatrix(np.array([0]), np.array([0]), np.ones(1), (3, 3))
        b = COOMatrix(np.array([2]), np.array([1]), np.ones(1), (3, 3))
        _assert_same_trace(
            trace_spmspm(a.to_csc(), b.to_csr()),
            scalar_reference.trace_spmspm(a.to_csc(), b.to_csr()),
        )
