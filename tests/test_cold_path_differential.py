"""The cold path's one-sort, valid-split and per-cell code against the
code it replaced.

* COO -> CSR/CSC conversion sorts once, on the target-order key. The
  two-sort originals (a stable row-major sort in ``sum_duplicates``,
  then a ``lexsort``) live in :mod:`tests.scalar_reference`; every
  ``indptr``, ``indices`` and ``data`` must match byte for byte.
* CART scores only the positions where x changes. The all-positions
  search (score everything, then mask) must grow equal trees, node for
  node, with equal feature importances.
* ``EpochGrid.result`` unboxes only its own cell, in one call, and
  builds its records without the dataclass ``__init__``. Every cell
  must equal the whole-grid ``tolist`` unboxing built through the
  constructors: ``==``, equal hashes, the same fields, Python floats.
* ``EpochGrid``'s workload-only quantities are array expressions. Each
  column must equal the per-workload loop's (``np.array_equal``) on
  every Table-5 trace, on an epoch without memory accesses, and both
  must raise on a negative crossbar load.
* The job body sums a schedule's totals once and hands them to
  ``gains_over``, so an untraced job walks each schedule's records
  once per total, and an untraced offload reads none once its run is
  done.
* A regret job builds one ``EpochTable`` and solves the Oracle once,
  and its ``oracle_regret_pct`` values equal the former computation's
  (a second table, one Oracle solve per scheme).
* ``build_trace`` loads each suite matrix once per process. Traces of
  the cached matrix must equal traces of a fresh ``suite.load``
  (``np.array_equal`` on every epoch field), four SpMSpV seeds must
  cost one load, ``use_cache=False`` must still load, and threads
  filling the cache at once must all get the one cached matrix.
"""

from __future__ import annotations

import dataclasses
import sys
import threading

import numpy as np
import pytest

from repro.baselines import EpochTable, oracle, per_epoch_costs
from repro.core import dataset
from repro.core.modes import OptimizationMode
from repro.core.runtime import TransmuterRuntime
from repro.core.schedule import ScheduleResult
from repro.errors import SimulationError
from repro.experiments import harness
from repro.experiments.harness import KNOWN_SCHEMES, build_trace
from repro.kernels import (
    SPMSPM_EPOCH_FP_OPS,
    SPMSPV_EPOCH_FP_OPS,
    trace_spmspm,
    trace_spmspv,
)
from repro.fastpath import epochs
from repro.fastpath.epochs import EpochGrid
from repro.ml.decision_tree import DecisionTreeClassifier
from repro.runner.plan import JobSpec
from repro.runner.worker import _evaluate_fn
from repro.sparse import generators, suite
from repro.sparse.coo import COOMatrix
from repro.transmuter.config import sample_configs
from repro.transmuter.counters import PerformanceCounters
from repro.transmuter.machine import EpochResult, TransmuterModel
from repro.transmuter.power import EnergyBreakdown
from repro.transmuter.workload import EpochWorkload
from tests import scalar_reference


# ---------------------------------------------------------------------------
# COO conversions
# ---------------------------------------------------------------------------
def _table3_matrices(kernel: str):
    """The uniform matrices ``table3_phases`` draws, in draw order."""
    grid = dataset.default_grid(kernel)
    rng = np.random.default_rng(0)
    for dim in grid["dims"]:
        for density in grid["densities"]:
            seed = int(rng.integers(0, 2**31 - 1))
            yield generators.uniform_random(dim, dim, density, seed)


def _assert_same_arrays(ours, theirs, names) -> None:
    assert ours.shape == theirs.shape
    for name in names:
        a, b = getattr(ours, name), getattr(theirs, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name
        assert a.tobytes() == b.tobytes(), name


def _assert_conversions_match(coo: COOMatrix) -> None:
    _assert_same_arrays(
        coo.sum_duplicates(),
        scalar_reference.coo_sum_duplicates(coo),
        ("rows", "cols", "vals"),
    )
    _assert_same_arrays(
        coo.to_csr(),
        scalar_reference.coo_to_csr(coo),
        ("indptr", "indices", "data"),
    )
    _assert_same_arrays(
        coo.to_csc(),
        scalar_reference.coo_to_csc(coo),
        ("indptr", "indices", "data"),
    )


def _random_coo(seed: int) -> COOMatrix:
    """Duplicate-heavy COO with cancelling pairs and signed zeros."""
    rng = np.random.default_rng(seed)
    n_rows = int(rng.integers(1, 40))
    n_cols = int(rng.integers(1, 40))
    nnz = int(rng.integers(0, 4 * n_rows * n_cols))
    rows = rng.integers(0, n_rows, size=nnz)
    cols = rng.integers(0, n_cols, size=nnz)
    vals = rng.normal(size=nnz)
    vals[rng.random(nnz) < 0.05] = -0.0
    # Each pair (v, -v) at one coordinate sums to exactly 0.0.
    k = nnz // 4
    rows = np.concatenate([rows, rows[:k]])
    cols = np.concatenate([cols, cols[:k]])
    vals = np.concatenate([vals, -vals[:k]])
    order = rng.permutation(rows.size)
    return COOMatrix(rows[order], cols[order], vals[order], (n_rows, n_cols))


class TestCOOConversions:
    @pytest.mark.parametrize("kernel", ["spmspm", "spmspv"])
    def test_table3_matrices(self, kernel):
        for matrix in _table3_matrices(kernel):
            _assert_conversions_match(matrix)
            _assert_conversions_match(matrix.transpose())

    @pytest.mark.parametrize("matrix_id", sorted(suite.SUITE))
    def test_suite_matrices(self, matrix_id):
        _assert_conversions_match(suite.load(matrix_id, 0.05))

    @pytest.mark.parametrize("seed", range(40))
    def test_random_duplicates(self, seed):
        _assert_conversions_match(_random_coo(seed))

    def test_cancelling_duplicates_stay_stored(self):
        coo = COOMatrix([0, 0, 1], [1, 1, 0], [2.5, -2.5, -0.0], (2, 3))
        _assert_conversions_match(coo)
        csr = coo.to_csr()
        assert csr.indptr.tolist() == [0, 1, 2]
        assert csr.data.tobytes() == np.array([0.0, 0.0]).tobytes()

    @pytest.mark.parametrize(
        "coo",
        [
            COOMatrix.empty((0, 0)),
            COOMatrix.empty((3, 0)),
            COOMatrix.empty((4, 7)),
            COOMatrix([0], [0], [1.5], (1, 1)),
            COOMatrix([0] * 9, [0] * 9, np.linspace(-1.0, 3.0, 9), (1, 1)),
            COOMatrix([2] * 5, [4] * 5, [0.1] * 5, (3, 5)),
            COOMatrix([1, 0, 1], [0, 2, 1], [-0.0, 1.0, -0.0], (2, 3)),
        ],
        ids=[
            "0x0", "3x0", "empty", "1x1", "1x1-dups", "all-dups",
            "signed-zeros",
        ],
    )
    def test_edge_cases(self, coo):
        _assert_conversions_match(coo)

    @pytest.mark.parametrize("shape", [(1, 50), (50, 1), (7, 300), (300, 7)])
    def test_non_square(self, shape):
        rng = np.random.default_rng(shape[0] * 1000 + shape[1])
        nnz = shape[0] * shape[1] // 2
        coo = COOMatrix(
            rng.integers(0, shape[0], size=nnz),
            rng.integers(0, shape[1], size=nnz),
            rng.normal(size=nnz),
            shape,
        )
        _assert_conversions_match(coo)
        _assert_conversions_match(coo.sum_duplicates())


# ---------------------------------------------------------------------------
# CART split search
# ---------------------------------------------------------------------------
def _nodes(node):
    """Preorder (feature, threshold, n_samples, impurity, value bytes)."""
    out = []
    stack = [node]
    while stack:
        node = stack.pop()
        out.append(
            (
                node.feature,
                node.threshold,
                node.n_samples,
                node.impurity,
                node.value.tobytes(),
            )
        )
        if not node.is_leaf:
            stack += [node.right, node.left]
    return out


def _assert_same_tree(make, features, targets) -> None:
    ours = make().fit(features, targets)
    with scalar_reference.all_position_splits():
        theirs = make().fit(features, targets)
    assert _nodes(ours.root_) == _nodes(theirs.root_)
    assert np.array_equal(
        ours.feature_importances_, theirs.feature_importances_
    )
    assert (
        ours.feature_importances_.tobytes()
        == theirs.feature_importances_.tobytes()
    )


def _dataset(seed, n, n_features, n_classes, decimals=None):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n, n_features))
    if decimals is not None:
        features = np.round(features, decimals)
    score = features[:, 0] + 0.5 * features[:, 1 % n_features] ** 2
    score = score + 0.3 * rng.normal(size=n)
    edges = np.quantile(score, np.linspace(0, 1, n_classes + 1)[1:-1])
    return features, np.searchsorted(edges, score)


class TestCARTSplits:
    @pytest.mark.parametrize("criterion", ["gini", "entropy"])
    @pytest.mark.parametrize("n_classes", [2, 3, 5, 8, 9, 12])
    def test_classes_and_criteria(self, criterion, n_classes):
        for seed in range(4):
            features, labels = _dataset(seed, 240, 5, n_classes)
            _assert_same_tree(
                lambda: DecisionTreeClassifier(criterion=criterion),
                features,
                labels,
            )

    @pytest.mark.parametrize("criterion", ["gini", "entropy"])
    @pytest.mark.parametrize("decimals", [0, 1])
    def test_tie_heavy_features(self, criterion, decimals):
        for seed in range(6):
            features, labels = _dataset(seed, 300, 4, 4, decimals=decimals)
            _assert_same_tree(
                lambda: DecisionTreeClassifier(
                    criterion=criterion, max_depth=8
                ),
                features,
                labels,
            )

    @pytest.mark.parametrize("leaf", [1, 3, 7, 20, 60])
    def test_min_samples_leaf(self, leaf):
        # n = 100: the deep nodes and leaf = 60 have n < 2 * leaf.
        for seed in range(4):
            features, labels = _dataset(seed, 100, 3, 3, decimals=1)
            _assert_same_tree(
                lambda: DecisionTreeClassifier(min_samples_leaf=leaf),
                features,
                labels,
            )

    def test_single_class(self):
        features, _ = _dataset(0, 50, 3, 2)
        _assert_same_tree(DecisionTreeClassifier, features, np.full(50, 7))

    def test_constant_features(self):
        features = np.ones((40, 3))
        labels = np.arange(40) % 3
        _assert_same_tree(DecisionTreeClassifier, features, labels)

    def test_training_set_trees(self):
        """The stock spmspm training set: 1728 rows, 27 features."""
        data = dataset.build_training_set(
            dataset.table3_phases("spmspm"),
            OptimizationMode.ENERGY_EFFICIENT,
        )
        for labels in data.labels.values():
            _assert_same_tree(
                lambda: DecisionTreeClassifier(max_depth=12),
                data.features,
                labels,
            )


# ---------------------------------------------------------------------------
# EpochGrid unboxing
# ---------------------------------------------------------------------------
def _flat_fields(value, prefix=""):
    """Every leaf field of a result dataclass, by dotted name."""
    out = {}
    for item in dataclasses.fields(value):
        inner = getattr(value, item.name)
        if dataclasses.is_dataclass(inner):
            out.update(_flat_fields(inner, f"{prefix}{item.name}."))
        else:
            out[prefix + item.name] = inner
    return out


def _assert_same_object(ours, theirs) -> None:
    """Equal dataclass instances with the same fields in ``vars``."""
    assert type(ours) is type(theirs)
    assert ours == theirs
    assert list(vars(ours)) == [f.name for f in dataclasses.fields(theirs)]


def _assert_cells_match(grid: EpochGrid) -> None:
    reference = scalar_reference.whole_grid_results(grid)
    for i in range(grid.n_workloads):
        for j in range(grid.n_configs):
            result = grid.result(i, j)
            built = reference[i][j]
            _assert_same_object(result, built)
            _assert_same_object(result.energy, built.energy)
            _assert_same_object(result.counters, built.counters)
            assert hash(result.counters) == hash(built.counters)
            assert hash(result.energy) == hash(built.energy)
            ours = _flat_fields(result)
            theirs = _flat_fields(built)
            assert ours.keys() == theirs.keys()
            for name, value in ours.items():
                assert type(value) is type(theirs[name]), (i, j, name)
                assert value == theirs[name], (i, j, name)
                if type(theirs[name]) is float:
                    assert type(value) is float


class TestGridUnboxing:
    @pytest.mark.parametrize("l1_type", ["cache", "spm"])
    def test_cross_grid(self, l1_type):
        trace = build_trace("spmspm", "R03", scale=0.1)
        grid = EpochGrid(
            TransmuterModel(),
            trace.epochs[:6],
            sample_configs(8, l1_type=l1_type, seed=4),
        )
        _assert_cells_match(grid)

    def test_cross_grid_mixed_l1_types(self):
        trace = build_trace("spmspv", "R10", scale=0.1)
        configs = sample_configs(4, l1_type="spm", seed=7)
        configs[1:1] = sample_configs(3, l1_type="cache", seed=8)
        grid = EpochGrid(TransmuterModel(), trace.epochs[:5], configs)
        assert len({config.l1_type for config in grid.configs}) == 2
        _assert_cells_match(grid)

    def test_result_classes_have_no_post_init(self):
        # result() skips the generated __init__; that is only sound
        # while __init__ checks nothing.
        for cls in (EpochResult, EnergyBreakdown, PerformanceCounters):
            assert dataclasses.is_dataclass(cls)
            assert not hasattr(cls, "__post_init__"), cls

    def test_paired_grid_mixed_l1_types(self):
        trace = build_trace("spmspv", "R10", scale=0.1)
        pairs = []
        for n, (cache_cfg, spm_cfg) in enumerate(
            zip(
                sample_configs(5, l1_type="cache", seed=5),
                sample_configs(5, l1_type="spm", seed=6),
            )
        ):
            workload = trace.epochs[n % 3]
            pairs += [(workload, cache_cfg), (workload.scaled(0.3), spm_cfg)]
        grid = EpochGrid.paired(TransmuterModel(), pairs)
        _assert_cells_match(grid)

    def test_cells_read_in_any_order_are_cached(self):
        trace = build_trace("spmspv", "R10", scale=0.1)
        grid = EpochGrid(
            TransmuterModel(), trace.epochs[:3], sample_configs(4, seed=2)
        )
        first = grid.result(2, 3)
        assert grid.result(2, 3) is first
        assert grid.result(0, 0) is not first


# ---------------------------------------------------------------------------
# EpochGrid workload scalars
# ---------------------------------------------------------------------------
#: Every Table-5 trace: SpMSpM over R01-R08, SpMSpV over R09-R16.
_TABLE5_TRACES = [("spmspm", f"R{index:02d}") for index in range(1, 9)] + [
    ("spmspv", f"R{index:02d}") for index in range(9, 17)
]


def _assert_same_scalars(machine, workloads, spm) -> None:
    ours = epochs._workload_scalars(machine, workloads, spm)
    theirs = scalar_reference.workload_scalars(machine, workloads, spm)
    assert ours.keys() == theirs.keys()
    for name, column in theirs.items():
        assert ours[name].dtype == column.dtype, name
        assert np.array_equal(ours[name], column), name


def _idle_epoch() -> EpochWorkload:
    """An epoch that issues no memory access at all."""
    return EpochWorkload(
        phase="merge",
        fp_ops=0.0,
        flops=0.0,
        int_ops=12.0,
        loads=0.0,
        stores=0.0,
        unique_words=0.0,
        unique_lines=0.0,
        stride_fraction=1.0,
        shared_fraction=0.0,
        read_bytes_compulsory=0.0,
        write_bytes=0.0,
    )


class TestWorkloadScalars:
    @pytest.mark.parametrize("spm", [False, True], ids=["cache", "spm"])
    @pytest.mark.parametrize("kernel,matrix", _TABLE5_TRACES)
    def test_table5_trace(self, kernel, matrix, spm):
        trace = build_trace(kernel, matrix, scale=0.15)
        _assert_same_scalars(TransmuterModel(), trace.epochs, spm)

    @pytest.mark.parametrize("spm", [False, True], ids=["cache", "spm"])
    def test_epoch_without_accesses(self, spm):
        busy = build_trace("spmspv", "R10", scale=0.1).epochs[:2]
        workloads = [busy[0], _idle_epoch(), busy[1]]
        _assert_same_scalars(TransmuterModel(), workloads, spm)
        ours = epochs._workload_scalars(TransmuterModel(), workloads, spm)
        assert ours["x1_contention"][1, 0] == 0.0
        assert ours["x1_extra"][1, 0] == 0.0
        assert ours["x1_extra"][0, 0] > 0.0

    def test_negative_crossbar_load_raises(self):
        busy = build_trace("spmspv", "R10", scale=0.1).epochs[0]
        broken = dataclasses.replace(busy)
        # Past the workload's own validation, as a corrupt epoch would be.
        object.__setattr__(broken, "stores", -busy.loads - 1.0)
        for compute in (
            epochs._workload_scalars,
            scalar_reference.workload_scalars,
        ):
            with pytest.raises(SimulationError, match="negative crossbar"):
                compute(TransmuterModel(), [busy, broken], False)


# ---------------------------------------------------------------------------
# Schedule totals
# ---------------------------------------------------------------------------
class TestTotalsWalks:
    @pytest.mark.parametrize("mode", ["ee", "pp"])
    def test_job_walks_each_total_once(self, monkeypatch, mode):
        # Only walks made after a scheme returned its schedule count: the
        # pp-mode oracle reads each candidate's totals while it searches.
        walks = {}
        alive = []  # keeps every schedule alive, so ids stay unique

        def in_scheme_run():
            frame = sys._getframe(2)
            while frame is not None:
                if frame.f_code.co_name == "run_scheme":
                    return True
                frame = frame.f_back
            return False

        def counted(name):
            original = getattr(ScheduleResult, name)

            def get(self):
                if not in_scheme_run():
                    alive.append(self)
                    key = (id(self), name)
                    walks[key] = walks.get(key, 0) + 1
                return original.fget(self)

            return property(get)

        for name in ("total_time_s", "total_energy_j"):
            monkeypatch.setattr(ScheduleResult, name, counted(name))
        spec = JobSpec(
            kernel="spmspv",
            matrix="P1",
            scale=0.05,
            mode=mode,
            schemes=KNOWN_SCHEMES,
        )
        report = _evaluate_fn(spec.as_dict())()
        assert sorted(report["schemes"]) == sorted(KNOWN_SCHEMES)
        assert walks and max(walks.values()) == 1, walks

    def test_untraced_offload_reads_no_totals(
        self, monkeypatch, model_ee, small_powerlaw, small_vector
    ):
        # The offload span's attributes are built only under a recorder.
        reads = []
        finished = []
        run_trace = TransmuterRuntime.run_trace

        def tracked_run_trace(self, trace):
            schedule = run_trace(self, trace)
            finished.append(schedule)
            return schedule

        def counted(name):
            original = getattr(ScheduleResult, name)

            def get(self):
                if finished:
                    reads.append(name)
                return original.fget(self)

            return property(get)

        for name in (
            "total_flops",
            "total_time_s",
            "total_energy_j",
            "n_reconfigurations",
        ):
            monkeypatch.setattr(ScheduleResult, name, counted(name))
        monkeypatch.setattr(TransmuterRuntime, "run_trace", tracked_run_trace)
        runtime = TransmuterRuntime(model=model_ee)
        runtime.spmspv(small_powerlaw, small_vector)
        assert len(finished) == 1
        assert reads == []


def _two_table_regret_pcts(spec: JobSpec) -> dict:
    """``oracle_regret_pct`` per scheme as the job body computed it
    before sharing the table: a second ``EpochTable`` after the schemes
    ran, and one Oracle solve per scheme."""
    context = harness.job_context(spec)
    results = harness.evaluate_schemes(context, spec.schemes)
    table = EpochTable(
        context.machine,
        context.trace,
        n_samples=context.n_samples,
        l1_type=context.l1_type,
        seed=context.seed,
        include=list(context.static_points().values()),
    )
    pcts = {}
    for name, schedule in results.items():
        costs = per_epoch_costs(schedule, context.mode)
        ref_costs = per_epoch_costs(oracle(table, context.mode), context.mode)
        n = min(len(costs), len(ref_costs))
        total_cost = float(costs[:n].sum())
        oracle_cost = float(ref_costs[:n].sum())
        pcts[name] = (
            (total_cost - oracle_cost) / oracle_cost * 100.0
            if oracle_cost > 0
            else 0.0
        )
    return pcts


class TestRegretJob:
    @pytest.mark.parametrize("mode", ["ee", "pp"])
    @pytest.mark.parametrize(
        "schemes", [KNOWN_SCHEMES, ("Baseline", "SparseAdapt")]
    )
    def test_one_table_one_oracle(self, monkeypatch, mode, schemes):
        spec = JobSpec(
            kernel="spmspv",
            matrix="P1",
            scale=0.05,
            mode=mode,
            schemes=schemes,
            regret=True,
        )
        expected = _two_table_regret_pcts(spec)
        calls = {"table": 0, "oracle": 0}
        table_init = EpochTable.__init__
        solve = harness.oracle

        def counted_init(self, *args, **kwargs):
            calls["table"] += 1
            table_init(self, *args, **kwargs)

        def counted_oracle(*args, **kwargs):
            calls["oracle"] += 1
            return solve(*args, **kwargs)

        monkeypatch.setattr(EpochTable, "__init__", counted_init)
        monkeypatch.setattr(harness, "oracle", counted_oracle)
        report = _evaluate_fn(spec.as_dict())()
        assert calls == {"table": 1, "oracle": 1}
        assert {
            name: entry["oracle_regret_pct"]
            for name, entry in report["schemes"].items()
        } == expected


# ---------------------------------------------------------------------------
# Suite matrix cache
# ---------------------------------------------------------------------------
_EPOCH_FIELDS = tuple(
    field.name
    for field in dataclasses.fields(EpochWorkload)
    if field.name != "phase"
)


def _fresh_trace(load, kernel, matrix_id, scale, seed):
    """The trace ``build_trace`` made before the matrix cache: a fresh
    load for every trace."""
    matrix = load(matrix_id, scale=scale)
    if kernel == "spmspm":
        return trace_spmspm(
            matrix.to_csc(),
            matrix.transpose().to_csr(),
            SPMSPM_EPOCH_FP_OPS,
            name=f"spmspm-{matrix_id}",
        )
    vector = generators.random_vector(matrix.shape[1], 0.5, seed=seed + 1)
    return trace_spmspv(
        matrix.to_csc(),
        vector,
        SPMSPV_EPOCH_FP_OPS,
        name=f"spmspv-{matrix_id}",
    )


def _assert_same_trace_arrays(ours, theirs) -> None:
    assert ours.name == theirs.name
    assert ours.info == theirs.info
    assert [e.phase for e in ours.epochs] == [e.phase for e in theirs.epochs]
    for name in _EPOCH_FIELDS:
        a = np.array([getattr(epoch, name) for epoch in ours.epochs])
        b = np.array([getattr(epoch, name) for epoch in theirs.epochs])
        assert np.array_equal(a, b), name
        assert a.tobytes() == b.tobytes(), name


class TestSuiteMatrixCache:
    @pytest.fixture
    def loads(self, monkeypatch):
        """Empty caches and a counting ``suite.load``; returns
        ``(calls, the real loader)``."""
        monkeypatch.setattr(harness, "_TRACE_CACHE", {})
        monkeypatch.setattr(harness, "_MATRIX_CACHE", {})
        calls = []
        original = suite.load

        def counting_load(*args, **kwargs):
            calls.append((args, kwargs))
            return original(*args, **kwargs)

        monkeypatch.setattr(suite, "load", counting_load)
        return calls, original

    def test_spmspv_seeds_match_fresh_loads(self, loads):
        calls, load = loads
        for seed in range(4):
            cached = build_trace("spmspv", "R09", scale=0.05, seed=seed)
            _assert_same_trace_arrays(
                cached, _fresh_trace(load, "spmspv", "R09", 0.05, seed)
            )
        assert len(calls) == 1

    def test_spmspm_matches_fresh_load(self, loads):
        _, load = loads
        # A second kernel over the same matrix reads the cached one.
        build_trace("spmspv", "R01", scale=0.05)
        cached = build_trace("spmspm", "R01", scale=0.05)
        _assert_same_trace_arrays(
            cached, _fresh_trace(load, "spmspm", "R01", 0.05, 0)
        )
        matrix = harness._MATRIX_CACHE[("R01", 0.05)]
        _assert_same_arrays(
            matrix, load("R01", scale=0.05), ("rows", "cols", "vals")
        )

    def test_four_seeds_one_load(self, loads):
        calls, _ = loads
        traces = [
            build_trace("spmspv", "R12", scale=0.05, seed=seed)
            for seed in range(4)
        ]
        assert len({id(trace) for trace in traces}) == 4
        assert len(calls) == 1
        assert list(harness._MATRIX_CACHE) == [("R12", 0.05)]

    def test_use_cache_false_still_loads(self, loads):
        calls, _ = loads
        build_trace("spmspv", "R12", scale=0.05, seed=0)
        for seed in (0, 1):
            build_trace("spmspv", "R12", scale=0.05, seed=seed, use_cache=False)
        assert len(calls) == 3
        build_trace("spmspv", "R13", scale=0.05, use_cache=False)
        assert len(calls) == 4
        assert list(harness._MATRIX_CACHE) == [("R12", 0.05)]

    def test_threads_share_one_matrix(self, loads):
        """Watchdog threads fill the cache concurrently; every caller
        must end up holding the one cached object."""
        got = []
        start = threading.Barrier(4)

        def worker():
            start.wait(timeout=30)
            for _ in range(50):
                got.append(harness._suite_matrix("R14", 0.05, True))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(got) == 200
        cached = harness._MATRIX_CACHE[("R14", 0.05)]
        assert all(matrix is cached for matrix in got)
