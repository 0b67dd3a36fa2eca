"""Differential suite: the fast path must be bit-identical to the
scalar reference.

Every fast-path component (flat decision tables, the vectorized
epoch grid, the controller decision memo, the pure-function memos) is
run against the scalar code it replaces on the same inputs, and the
outputs are compared with ``==`` — not ``pytest.approx``. The promise
under test is the one ``docs/performance.md`` documents: the batched
engines change wall-clock and nothing else, down to the last float bit
in every report byte. The scalar legs run the reference copies in
``tests/scalar_reference.py``.

The comparisons are seeded property tests: each case loops over a
handful of seeds, regenerating models/configs/traces per seed, so the
equivalence is exercised across a family of inputs rather than one
golden instance.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np
import pytest

from repro.baselines import static
from repro.baselines.static import BASELINE, run_static, static_configs_for
from repro.baselines.table import EpochTable
from repro.core.controller import SparseAdaptController
from repro.core.modes import OptimizationMode
from repro.core.schedule import EpochRecord, ScheduleResult
from repro.core.telemetry import build_features
from repro.core.training import train_default_model
from repro.errors import ConfigError
from repro.experiments.harness import (
    STANDARD_SCHEMES,
    EvaluationContext,
    build_trace,
    evaluate_schemes,
)
from repro.faults.spec import FaultSchedule, FaultSpec
from repro.ml.decision_tree import DecisionTreeClassifier, TreeNode
from repro.transmuter.config import HardwareConfig, sample_configs
from repro.transmuter.machine import TransmuterModel
from repro.transmuter.reconfig import (
    _reconfiguration_cost,
    transition_matrices,
)
from tests.scalar_reference import code_path, scalar_path
from tests.scalar_reference import decision_path as reference_path
from tests.scalar_reference import predict_proba as reference_proba
from tests.scalar_reference import simulate_trace as reference_simulate_trace

SEEDS = (0, 1, 2)

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

ALL_SCHEMES = (
    "Baseline",
    "Best Avg",
    "Max Cfg",
    "SparseAdapt",
    "Ideal Static",
    "Ideal Greedy",
    "Oracle",
    "ProfileAdapt Naive",
    "ProfileAdapt Ideal",
)


def _result_tuple(result):
    """Every float an EpochResult carries, as an exactly-comparable tuple."""
    energy = result.energy
    return (
        result.time_s,
        result.core_time_s,
        result.memory_time_s,
        result.dram_read_bytes,
        result.dram_write_bytes,
        result.flops,
        result.fp_ops,
        energy.core_dynamic,
        energy.l1_dynamic,
        energy.l2_dynamic,
        energy.xbar_dynamic,
        energy.dram,
        energy.leakage,
        tuple(sorted(result.counters.as_dict().items())),
    )


def _schedule_tuple(schedule):
    """Exact per-epoch content of a ScheduleResult."""
    return (
        schedule.scheme,
        schedule.overhead_time_s,
        schedule.overhead_energy_j,
        tuple(
            (
                record.index,
                record.config,
                _result_tuple(record.result),
                None
                if record.reconfig is None
                else (
                    record.reconfig.time_s,
                    record.reconfig.energy_j,
                    tuple(record.reconfig.changed),
                ),
            )
            for record in schedule.records
        ),
    )


def _walks_agree(tree, queries):
    """The flat table against the linked ``TreeNode`` walkers: every
    prediction, probability row and decision path, exactly."""
    queries = np.asarray(queries, dtype=np.float64)
    reference = reference_proba(tree, queries)
    decoded = tree.classes_[np.argmax(reference, axis=1)].tolist()
    assert np.array_equal(tree.predict_proba(queries), reference)
    assert tree.predict(queries).tolist() == decoded
    assert [tree.table.predict_row(q) for q in queries.tolist()] == decoded
    for query in queries:
        assert tree.decision_path(query) == reference_path(tree, query)


def _rows_reaching_every_leaf(tree, base):
    """One row per leaf: ``base`` with each split on the way set to its
    threshold (left) or the next float above it (right)."""
    rows = []

    def visit(node, row):
        if node.is_leaf:
            rows.append(row)
            return
        left = list(row)
        left[node.feature] = node.threshold
        right = list(row)
        right[node.feature] = float(np.nextafter(node.threshold, np.inf))
        visit(node.left, left)
        visit(node.right, right)

    visit(tree.root_, list(base))
    return rows


class TestCompiledTables:
    """Flat decision tables vs. the linked ``TreeNode`` walkers."""

    def _dataset(self, seed: int, n: int = 200, features: int = 7):
        rng = np.random.default_rng(seed)
        rows = rng.normal(size=(n, features))
        labels = (
            (rows[:, 0] + rows[:, 1] ** 2 - rows[:, 2] > 0.2).astype(int)
            + (rows[:, 3] > 0.5).astype(int)
        )
        return rows, labels

    @pytest.mark.parametrize("seed", SEEDS)
    def test_tree_predictions_identical(self, seed):
        rows, labels = self._dataset(seed)
        tree = DecisionTreeClassifier(max_depth=6).fit(rows, labels)
        queries = np.random.default_rng(seed + 100).normal(
            size=(64, rows.shape[1])
        )
        _walks_agree(tree, queries)
        _walks_agree(tree, _rows_reaching_every_leaf(tree, queries[0]))

    def test_compiled_model_matches_scalar_and_provenance(self):
        """model.predict (flat tables) == model.predict (linked nodes),
        and model.explain agrees with both, per decision, over real
        telemetry."""
        mode = OptimizationMode.ENERGY_EFFICIENT
        model = train_default_model(mode, kernel="spmspv")
        machine = TransmuterModel()
        trace = build_trace("spmspv", "R09", scale=0.15)
        configs = sample_configs(4, seed=3)
        for config in configs:
            for workload in trace.epochs[:6]:
                counters = machine.simulate_epoch(workload, config).counters
                compiled = model.predict(counters, config)
                provenance = model.explain(counters, config)
                with scalar_path():
                    scalar = model.predict(counters, config)
                    reference = model.explain(counters, config)
                assert compiled == scalar
                assert provenance == reference
                assert set(provenance) == set(model.predicted_parameters())
                for name, record in provenance.items():
                    assert record["predicted"] == compiled.get(name)

    @pytest.mark.parametrize("mode", list(OptimizationMode))
    @pytest.mark.parametrize("l1_type", ["cache", "spm"])
    @pytest.mark.parametrize("kernel", ["spmspv", "spmspm"])
    def test_stock_trees_every_leaf(self, kernel, l1_type, mode):
        model = train_default_model(mode, kernel=kernel, l1_type=l1_type)
        config = sample_configs(1, l1_type=l1_type, seed=0)[0]
        workload = build_trace(kernel, "R09", scale=0.15).epochs[0]
        counters = TransmuterModel().simulate_epoch(workload, config).counters
        base = build_features(counters, config)
        for name in model.predicted_parameters():
            tree = model.trees[name]
            rows = _rows_reaching_every_leaf(tree, base)
            table = tree.table
            assert {table.leaf(row) for row in rows} == {
                node for node, feature in enumerate(table.feature)
                if feature < 0
            }, name
            _walks_agree(tree, rows)

    @pytest.mark.parametrize("labels", [[3] * 6, [0, 1, 1, 0, 1, 1]])
    def test_single_leaf_tree(self, labels):
        rows = np.arange(12, dtype=np.float64).reshape(6, 2)
        tree = DecisionTreeClassifier(min_samples_split=50).fit(rows, labels)
        assert tree.root_.is_leaf
        assert tree.table.feature == [-1]
        _walks_agree(tree, rows + 0.5)

    def test_refit_decodes_new_root(self):
        rows, labels = self._dataset(0)
        tree = DecisionTreeClassifier(max_depth=4).fit(rows, labels)
        tree.predict(rows)
        rows, labels = self._dataset(1)
        tree.fit(rows, labels)
        fresh = DecisionTreeClassifier(max_depth=4).fit(rows, labels)
        assert tree.table.root is tree.root_
        assert tree.predict(rows).tolist() == fresh.predict(rows).tolist()
        _walks_agree(tree, rows)

    def test_loaded_tree_decodes_new_root(self, tmp_path):
        from repro.core.persistence import load_model, save_model

        rows, labels = self._dataset(1)
        tree = DecisionTreeClassifier(max_depth=5).fit(rows, labels)
        other = DecisionTreeClassifier(max_depth=2).fit(rows, labels == 0)
        tree.predict(rows)
        tree.root_, tree.classes_ = other.root_, other.classes_
        assert tree.predict(rows).tolist() == other.predict(rows).tolist()
        _walks_agree(tree, rows)

        model = train_default_model(
            OptimizationMode.ENERGY_EFFICIENT, kernel="spmspv"
        )
        save_model(model, tmp_path / "model.json")
        loaded = load_model(tmp_path / "model.json")
        config = HardwareConfig()
        workload = build_trace("spmspv", "R09", scale=0.15).epochs[0]
        counters = TransmuterModel().simulate_epoch(workload, config).counters
        assert loaded.predict(counters, config) == model.predict(
            counters, config
        )
        assert loaded.explain(counters, config) == model.explain(
            counters, config
        )
        for name in loaded.predicted_parameters():
            assert loaded.trees[name].table.root is loaded.trees[name].root_


class TestEpochGrid:
    """Vectorized epoch x config grid vs. machine.simulate_epoch."""

    @pytest.mark.parametrize(
        "kernel,matrix,l1_type",
        [
            ("spmspm", "R03", "cache"),
            ("spmspv", "R11", "cache"),
            ("spmspm", "R05", "spm"),
        ],
    )
    def test_grid_cells_bit_identical(self, kernel, matrix, l1_type):
        from repro.fastpath.epochs import EpochGrid

        machine = TransmuterModel()
        trace = build_trace(kernel, matrix, scale=0.12)
        workloads = trace.epochs[:8]
        for seed in SEEDS:
            configs = sample_configs(10, l1_type=l1_type, seed=seed)
            grid = EpochGrid(machine, workloads, configs)
            for i, workload in enumerate(workloads):
                for j, config in enumerate(configs):
                    scalar = machine.simulate_epoch(workload, config)
                    assert _result_tuple(grid.result(i, j)) == _result_tuple(
                        scalar
                    ), (i, j, config)

    def test_mixed_l1_type_batch(self):
        """One paired grid over interleaved cache and SPM pairs."""
        from repro.fastpath.epochs import EpochGrid

        machine = TransmuterModel()
        trace = build_trace("spmspv", "R10", scale=0.12)
        pairs = []
        for n, (cache_cfg, spm_cfg) in enumerate(
            zip(
                sample_configs(6, l1_type="cache", seed=5),
                sample_configs(6, l1_type="spm", seed=6),
            )
        ):
            workload = trace.epochs[n % 3]
            pairs += [(workload, cache_cfg), (workload.scaled(0.2), spm_cfg)]
        grid = EpochGrid.paired(machine, pairs)
        assert (grid.n_workloads, grid.n_configs) == (1, len(pairs))
        columns = grid.counter_columns()
        for k, (workload, config) in enumerate(pairs):
            scalar = machine.simulate_epoch(workload, config)
            assert _result_tuple(grid.result(0, k)) == _result_tuple(
                scalar
            ), config
            assert {
                name: values[0, k] for name, values in columns.items()
            } == scalar.counters.as_dict()

    def test_times_energies_arrays_match_cells(self):
        from repro.fastpath.epochs import EpochGrid

        machine = TransmuterModel()
        trace = build_trace("spmspm", "R02", scale=0.12)
        configs = sample_configs(6, seed=9)
        grid = EpochGrid(machine, trace.epochs[:5], configs)
        for i in range(5):
            for j in range(len(configs)):
                cell = grid.result(i, j)
                assert grid.times[i, j] == cell.time_s
                assert grid.energies[i, j] == cell.energy_j


class TestStaticGrid:
    """The Table-4 statics as one grid, or as columns of the job's
    table, against one per-epoch loop per static."""

    @pytest.mark.parametrize("with_table", [False, True])
    @pytest.mark.parametrize("l1_type", ["cache", "spm"])
    @pytest.mark.parametrize(
        "kernel,matrix", [("spmspm", "R04"), ("spmspv", "R12")]
    )
    def test_statics_match_per_epoch_loop(
        self, kernel, matrix, l1_type, with_table, monkeypatch
    ):
        machine = TransmuterModel()
        trace = build_trace(kernel, matrix, scale=0.12)
        configs = static_configs_for(l1_type)
        expected = {}
        for name, config in configs.items():
            schedule = ScheduleResult(scheme=name)
            for index, result in enumerate(
                reference_simulate_trace(machine, trace.epochs, config)
            ):
                schedule.append(
                    EpochRecord(index=index, config=config, result=result)
                )
            expected[name] = schedule
        table = None
        if with_table:
            # The statics last and reversed: no static's column index
            # is its position in ``configs``.
            table = EpochTable(
                machine,
                trace,
                configs=sample_configs(13, l1_type=l1_type, seed=5)
                + list(configs.values())[::-1],
            )
            # Every static is a column of the table: no grid of its own.
            monkeypatch.setattr(static, "EpochGrid", None)
        statics = run_static(machine, trace, configs, table)
        assert list(statics) == list(configs)
        assert statics == expected

    def test_table_of_another_trace_rejected(self):
        machine = TransmuterModel()
        table = EpochTable(
            machine,
            build_trace("spmspv", "R12", scale=0.12),
            n_samples=4,
            include=[BASELINE],
        )
        with pytest.raises(ConfigError, match="not"):
            run_static(
                machine,
                build_trace("spmspv", "R11", scale=0.12),
                {"Baseline": BASELINE},
                table,
            )


def _reference_find_best_config(
    machine, workload, mode, l1_type="cache", k_samples=24, seed=None
):
    """The per-phase three-step search the paired search replaced,
    kept verbatim (one cross grid per step) as the reference."""
    from repro.core.modes import metric_value
    from repro.fastpath.epochs import EpochGrid
    from repro.transmuter import config as config_space
    from repro.transmuter.config import RUNTIME_PARAMETERS, neighbors

    def simulate_configs(configs):
        grid = EpochGrid(machine, [workload], configs)
        return [grid.result(0, j) for j in range(grid.n_configs)]

    def argbest(configs):
        results = simulate_configs(configs)
        flops = max(workload.flops, 1.0)
        best = configs[0]
        best_score = metric_value(
            mode, flops, results[0].time_s, results[0].energy_j
        )
        for config, result in zip(configs[1:], results[1:]):
            score = metric_value(mode, flops, result.time_s, result.energy_j)
            if score > best_score:
                best_score = score
                best = config
        return best

    samples = sample_configs(k_samples, l1_type=l1_type, seed=seed)
    best = argbest(samples)
    best = argbest([best] + neighbors(best))
    values_by_parameter = {
        "l1_sharing": config_space.SHARING_MODES,
        "l2_sharing": config_space.SHARING_MODES,
        "l1_kb": config_space.CAPACITIES_KB,
        "l2_kb": config_space.CAPACITIES_KB,
        "clock_mhz": config_space.CLOCKS_MHZ,
        "prefetch": config_space.PREFETCH_LEVELS,
    }
    sweep = []
    for parameter in RUNTIME_PARAMETERS:
        if l1_type == "spm" and parameter == "l1_kb":
            continue
        for value in values_by_parameter[parameter]:
            sweep.append((parameter, value, best.with_value(parameter, value)))
    results = simulate_configs([c for _, _, c in sweep])
    flops = max(workload.flops, 1.0)
    scores = {
        (parameter, value): metric_value(
            mode, flops, result.time_s, result.energy_j
        )
        for (parameter, value, _), result in zip(sweep, results)
    }
    chosen = {}
    for parameter in RUNTIME_PARAMETERS:
        if l1_type == "spm" and parameter == "l1_kb":
            chosen[parameter] = best.l1_kb
            continue
        best_value = None
        best_score = -np.inf
        for value in values_by_parameter[parameter]:
            score = scores[(parameter, value)]
            if score > best_score:
                best_score = score
                best_value = value
        chosen[parameter] = best_value
    return HardwareConfig(l1_type=l1_type, **chosen)


def _reference_build_training_set(phases, mode, k_samples=24, seed=0):
    """The per-phase training-set loop the paired search replaced:
    search, then simulate the step-1 sample again for its counters."""
    from repro.core.telemetry import build_features
    from repro.fastpath.epochs import EpochGrid
    from repro.transmuter.config import RUNTIME_PARAMETERS

    rng = np.random.default_rng(seed)
    feature_rows = []
    label_rows = {name: [] for name in RUNTIME_PARAMETERS}
    for phase in phases:
        phase_seed = int(rng.integers(0, 2**31 - 1))
        best = _reference_find_best_config(
            phase.machine,
            phase.workload,
            mode,
            l1_type=phase.l1_type,
            k_samples=k_samples,
            seed=phase_seed,
        )
        samples = sample_configs(
            k_samples, l1_type=phase.l1_type, seed=phase_seed
        )
        grid = EpochGrid(phase.machine, [phase.workload], samples)
        for j, config in enumerate(samples):
            feature_rows.append(
                build_features(grid.result(0, j).counters, config)
            )
            for name in RUNTIME_PARAMETERS:
                label_rows[name].append(best.get(name))
    return np.vstack(feature_rows), {
        name: np.asarray(values) for name, values in label_rows.items()
    }


def _reference_profile_adapt(table, mode, variant, profiling_fraction=0.2):
    """The per-slice ProfileAdapt loop the paired grid replaced."""
    from repro.baselines import ideal_greedy
    from repro.baselines.profileadapt import _profiling_config

    sequence = ideal_greedy(table, mode).config_sequence()
    profiling = _profiling_config(table.configs[0].l1_type)
    schedule = ScheduleResult(scheme=f"profileadapt-{variant}")
    previous = None
    for epoch, config in enumerate(sequence):
        profile_here = variant == "naive" or previous is None or config != previous
        workload = table.trace.epochs[epoch]
        if not profile_here:
            schedule.append(
                EpochRecord(
                    index=epoch,
                    config=config,
                    result=table.results[epoch][table.config_index(config)],
                )
            )
            previous = config
            continue
        cost_in = (
            table.reconfig_cost(previous, profiling)
            if previous is not None and previous != profiling
            else None
        )
        head = table.machine.simulate_epoch(
            workload.scaled(profiling_fraction), profiling
        )
        schedule.append(
            EpochRecord(
                index=epoch, config=profiling, result=head, reconfig=cost_in
            )
        )
        cost_out = table.reconfig_cost(profiling, config)
        tail = table.machine.simulate_epoch(
            workload.scaled(1.0 - profiling_fraction), config
        )
        schedule.append(
            EpochRecord(
                index=epoch,
                config=config,
                result=tail,
                reconfig=cost_out if cost_out.changed else None,
            )
        )
        previous = config
    return schedule


#: A reduced Table-3 sweep per kernel: two matrices, two bandwidths.
_REDUCED_GRIDS = {
    "spmspm": {
        "dims": (64, 128),
        "densities": (0.02,),
        "bandwidths": (0.1, 10.0),
    },
    "spmspv": {
        "dims": (256, 1024),
        "densities": (0.01,),
        "bandwidths": (0.1, 10.0),
    },
}


class TestPairedSearch:
    """The batched Figure-4 search vs. the per-phase loop it replaced:
    equal arrays, not close ones, for every kernel, L1 type and mode."""

    @pytest.mark.parametrize("mode", list(OptimizationMode))
    @pytest.mark.parametrize("l1_type", ["cache", "spm"])
    @pytest.mark.parametrize("kernel", ["spmspm", "spmspv"])
    def test_training_set_identical(self, kernel, l1_type, mode):
        from repro.core.dataset import build_training_set, table3_phases

        phases = table3_phases(
            kernel, l1_type=l1_type, grid=_REDUCED_GRIDS[kernel], seed=3
        )
        got = build_training_set(phases, mode, k_samples=12, seed=1)
        features, labels = _reference_build_training_set(
            phases, mode, k_samples=12, seed=1
        )
        assert np.array_equal(got.features, features)
        assert got.features.dtype == features.dtype
        assert got.labels.keys() == labels.keys()
        for name, values in labels.items():
            assert np.array_equal(got.labels[name], values), name
            assert got.labels[name].dtype == values.dtype, name

    @pytest.mark.parametrize("mode", list(OptimizationMode))
    def test_find_best_config_is_one_phase_search(self, mode):
        from repro.core.dataset import find_best_config

        machine = TransmuterModel(bandwidth_gbps=1.0)
        trace = build_trace("spmspv", "R11", scale=0.12)
        for l1_type in ("cache", "spm"):
            for seed in SEEDS:
                workload = trace.epochs[seed]
                assert find_best_config(
                    machine, workload, mode, l1_type, k_samples=10, seed=seed
                ) == _reference_find_best_config(
                    machine, workload, mode, l1_type, k_samples=10, seed=seed
                )

    def test_phases_on_separate_machines(self):
        """Phases are grouped by machine identity; one machine object
        per phase degenerates to the per-phase search."""
        from repro.core.dataset import PhaseSample, build_training_set

        trace = build_trace("spmspm", "R04", scale=0.12)
        phases = [
            PhaseSample(workload, TransmuterModel(bandwidth_gbps=bandwidth))
            for workload in trace.epochs[:2]
            for bandwidth in (1.0, 1.0, 10.0)
        ]
        mode = OptimizationMode.POWER_PERFORMANCE
        got = build_training_set(phases, mode, k_samples=8, seed=4)
        features, labels = _reference_build_training_set(
            phases, mode, k_samples=8, seed=4
        )
        assert np.array_equal(got.features, features)
        for name, values in labels.items():
            assert np.array_equal(got.labels[name], values), name


class TestPairedProfileAdapt:
    """ProfileAdapt's one grid of head/tail slices vs. the per-slice
    ``simulate_epoch`` loop it replaced, record by record."""

    @pytest.mark.parametrize("l1_type", ["cache", "spm"])
    @pytest.mark.parametrize("mode", list(OptimizationMode))
    @pytest.mark.parametrize("variant", ["naive", "ideal"])
    def test_records_identical(self, variant, mode, l1_type):
        from repro.baselines import EpochTable, profile_adapt

        trace = build_trace("spmspv", "R11", scale=0.12)
        table = EpochTable(
            TransmuterModel(), trace, n_samples=16, l1_type=l1_type, seed=2
        )
        got = profile_adapt(table, mode, variant)
        want = _reference_profile_adapt(table, mode, variant)
        assert _schedule_tuple(got) == _schedule_tuple(want)

    def test_shared_table_matches_separate_table(self):
        """evaluate_schemes stitches ProfileAdapt from the upper bounds'
        table; a dedicated table gives the same schedules."""
        from repro.baselines import EpochTable, profile_adapt
        from repro.baselines.static import BASELINE, BEST_AVG_CACHE, MAX_CFG

        mode = OptimizationMode.ENERGY_EFFICIENT
        trace = build_trace("spmspm", "R04", scale=0.12)
        context = EvaluationContext(
            trace=trace, machine=TransmuterModel(), mode=mode
        )
        results = evaluate_schemes(
            context, ("ProfileAdapt Naive", "Ideal Greedy", "ProfileAdapt Ideal")
        )
        table = EpochTable(
            TransmuterModel(),
            trace,
            include=[BASELINE, BEST_AVG_CACHE, MAX_CFG],
        )
        for name, variant in (
            ("ProfileAdapt Naive", "naive"),
            ("ProfileAdapt Ideal", "ideal"),
        ):
            assert _schedule_tuple(results[name]) == _schedule_tuple(
                profile_adapt(table, mode, variant)
            )
        assert results["ProfileAdapt Naive"] is not results["Ideal Greedy"]


class TestTransitionMatrices:
    """Whole-matrix transition costs vs. the pairwise scalar cost."""

    @staticmethod
    def _pairwise(configs, power, bandwidth_gbps, hint):
        n = len(configs)
        times = np.zeros((n, n))
        energies = np.zeros((n, n))
        for i, source in enumerate(configs):
            for j, target in enumerate(configs):
                cost = _reconfiguration_cost(
                    source, target, power, bandwidth_gbps, hint, False
                )
                times[i, j], energies[i, j] = cost.time_s, cost.energy_j
        return times, energies

    @pytest.mark.parametrize("l1_type", ["cache", "spm"])
    @pytest.mark.parametrize(
        "kernel,matrix", [("spmspm", "R03"), ("spmspv", "R11")]
    )
    def test_matrices_bit_identical(self, kernel, matrix, l1_type):
        table = EpochTable(
            TransmuterModel(),
            build_trace(kernel, matrix, scale=0.12),
            n_samples=48,
            l1_type=l1_type,
            seed=4,
        )
        power = table.machine.power
        assert all(
            np.array_equal(got, want)
            for got, want in zip(
                table.reconfig_matrices(),
                self._pairwise(
                    table.configs,
                    power,
                    table.bandwidth_gbps,
                    table.dirty_bytes_hint,
                ),
            )
        )
        for bandwidth_gbps in (0.1, 1.0, 10.0, 100.0):
            for hint in (table.dirty_bytes_hint, None, 1.0):
                got = transition_matrices(
                    table.configs, power, bandwidth_gbps, hint
                )
                want = self._pairwise(
                    table.configs, power, bandwidth_gbps, hint
                )
                assert np.array_equal(got[0], want[0]), (bandwidth_gbps, hint)
                assert np.array_equal(got[1], want[1]), (bandwidth_gbps, hint)

    def test_mixed_l1_type_rejected(self):
        configs = [HardwareConfig(), HardwareConfig(l1_type="spm")]
        with pytest.raises(ConfigError):
            transition_matrices(configs, TransmuterModel().power, 1.0, None)


def _reference_fit_tree(self, features, encoded):
    """The per-node, per-feature-argsort CART builder that presorting
    replaced, kept (as a method body) as the reference."""
    self.n_features_ = features.shape[1]
    self._importance_raw = np.zeros(self.n_features_)
    indices = np.arange(features.shape[0])
    self.root_ = _reference_build(self, features, encoded, indices, 0)
    if self.ccp_alpha > 0.0:
        self._prune(self.root_)
    total = self._importance_raw.sum()
    if total > 0:
        self.feature_importances_ = self._importance_raw / total
    else:
        self.feature_importances_ = np.zeros(self.n_features_)


def _reference_build(self, features, encoded, indices, depth):
    y_node = encoded[indices]
    counts = np.bincount(y_node, minlength=self._n_classes)
    impurity = self._impurity_from_counts(counts)
    node = TreeNode(
        value=counts / counts.sum(),
        n_samples=indices.size,
        impurity=impurity,
    )
    if (
        impurity <= 1e-12
        or indices.size < self.min_samples_split
        or (self.max_depth is not None and depth >= self.max_depth)
    ):
        return node
    best_gain = 0.0
    best_feature = -1
    best_threshold = 0.0
    for feat in range(self.n_features_):
        x_col = features[indices, feat]
        order = np.argsort(x_col, kind="stable")
        gain, threshold = self._reference_split(x_col, y_node, order)
        if gain > best_gain + 1e-15:
            best_gain = gain
            best_feature = int(feat)
            best_threshold = threshold
    if best_feature < 0:
        return node
    go_left = features[indices, best_feature] <= best_threshold
    left_idx = indices[go_left]
    right_idx = indices[~go_left]
    if (
        left_idx.size < self.min_samples_leaf
        or right_idx.size < self.min_samples_leaf
    ):
        return node
    node.feature = best_feature
    node.threshold = best_threshold
    self._importance_raw[best_feature] += best_gain * indices.size
    node.left = _reference_build(self, features, encoded, left_idx, depth + 1)
    node.right = _reference_build(
        self, features, encoded, right_idx, depth + 1
    )
    return node


def _split_positions(x_sorted, n, min_samples_leaf):
    lo = min_samples_leaf
    hi = n - min_samples_leaf
    if hi < lo:
        return None
    positions = np.arange(lo, hi + 1)
    distinct = x_sorted[positions] > x_sorted[positions - 1] + 1e-15
    positions = positions[distinct]
    return positions if positions.size else None


def _best_of(gains, positions, x_sorted):
    best = int(np.argmax(gains))
    if gains[best] <= 0:
        return 0.0, 0.0
    pos = positions[best]
    threshold = 0.5 * (x_sorted[pos - 1] + x_sorted[pos])
    return float(gains[best]), float(threshold)


class ReferenceClassifier(DecisionTreeClassifier):
    def fit(self, features, labels):
        self.classes_, encoded = np.unique(labels, return_inverse=True)
        self._n_classes = self.classes_.size
        _reference_fit_tree(
            self,
            np.asarray(features, dtype=np.float64),
            encoded.astype(np.int64),
        )
        return self

    def _reference_split(self, x_col, y, order):
        x_sorted = x_col[order]
        y_sorted = y[order]
        n = y_sorted.size
        one_hot = np.zeros((n, self._n_classes))
        one_hot[np.arange(n), y_sorted] = 1.0
        prefix = np.cumsum(one_hot, axis=0)
        total = prefix[-1]
        parent_impurity = self._impurity_from_counts(total)
        positions = _split_positions(x_sorted, n, self.min_samples_leaf)
        if positions is None:
            return 0.0, 0.0
        left_counts = prefix[positions - 1]
        right_counts = total - left_counts
        n_left = positions.astype(np.float64)
        n_right = n - n_left

        def batch_impurity(counts, sizes):
            p = counts / sizes[:, None]
            if self.criterion == "gini":
                return 1.0 - np.sum(p * p, axis=1)
            logs = np.zeros_like(p)
            np.log2(p, where=p > 0, out=logs)
            return -np.sum(p * logs, axis=1)

        weighted = (
            n_left * batch_impurity(left_counts, n_left)
            + n_right * batch_impurity(right_counts, n_right)
        ) / n
        return _best_of(parent_impurity - weighted, positions, x_sorted)


def _preorder(tree):
    """Every fitted node's fields, in preorder, exactly comparable."""
    rows = []
    stack = [tree.root_]
    while stack:
        node = stack.pop()
        rows.append(
            (
                node.feature,
                node.threshold,
                node.n_samples,
                node.impurity,
                tuple(node.value.tolist()),
            )
        )
        if not node.is_leaf:
            stack += [node.right, node.left]
    return rows


def _same_tree(got, want):
    return _preorder(got) == _preorder(want) and np.array_equal(
        got.feature_importances_, want.feature_importances_
    )


class TestPresortedTree:
    """The presorted CART builder vs. the per-node argsort reference."""

    def _dataset(self, seed: int, n: int = 300, features: int = 8):
        rng = np.random.default_rng(seed)
        rows = rng.normal(size=(n, features))
        labels = (
            (rows[:, 0] + rows[:, 1] ** 2 - rows[:, 2] > 0.2).astype(int)
            + (rows[:, 3] > 0.5).astype(int)
            + 2 * (rng.random(n) < 0.15)
        )
        return rows, labels

    @pytest.mark.parametrize("criterion", ["gini", "entropy"])
    @pytest.mark.parametrize(
        "max_depth,min_samples_leaf", [(10, 5), (6, 1), (14, 20), (None, 1)]
    )
    def test_classifier_identical(
        self, criterion, max_depth, min_samples_leaf
    ):
        for seed in SEEDS:
            rows, labels = self._dataset(seed)
            params = dict(
                criterion=criterion,
                max_depth=max_depth,
                min_samples_leaf=min_samples_leaf,
            )
            assert _same_tree(
                DecisionTreeClassifier(**params).fit(rows, labels),
                ReferenceClassifier(**params).fit(rows, labels),
            ), seed

    def test_tied_and_duplicate_values_identical(self):
        """Few distinct x values and a duplicated column: split scores
        tie within a feature and across features, and the order of
        tied samples decides every prefix sum."""
        rng = np.random.default_rng(7)
        rows = np.round(rng.normal(size=(240, 4)) * 2.0) / 2.0
        rows = np.hstack([rows, rows[:, :1]])
        labels = (rows[:, 0] + rows[:, 1] > 0).astype(int) + (
            rows[:, 2] > 0.5
        )
        small = np.array(
            [[1.0, 0.0], [1.0, 0.0], [2.0, 0.0], [2.0, 1.0], [0.5, 1.0],
             [2.0, 1.0], [1.0, 1.0], [0.5, 0.0], [3.0, 0.0], [3.0, 1.0]]
        )
        small_labels = np.array([0, 1, 1, 0, 0, 1, 1, 0, 2, 2])
        for x, y in ((rows, labels), (small, small_labels)):
            for min_samples_leaf in (1, 2, 3):
                params = dict(min_samples_leaf=min_samples_leaf)
                assert _same_tree(
                    DecisionTreeClassifier(**params).fit(x, y),
                    ReferenceClassifier(**params).fit(x, y),
                )


class TestStockTreeGolden:
    """The four quick stock models, node by node, against the preorder
    arrays recorded from the per-feature builder that presorting
    replaced (``tests/golden/stock_trees.json``)."""

    @pytest.mark.parametrize(
        "kernel,tag,mode",
        [
            ("spmspv", "ee", OptimizationMode.ENERGY_EFFICIENT),
            ("spmspv", "pp", OptimizationMode.POWER_PERFORMANCE),
            ("spmspm", "ee", OptimizationMode.ENERGY_EFFICIENT),
            ("spmspm", "pp", OptimizationMode.POWER_PERFORMANCE),
        ],
    )
    def test_stock_model_matches_golden(self, kernel, tag, mode):
        golden = json.loads((GOLDEN_DIR / "stock_trees.json").read_text())
        model = train_default_model(mode, kernel=kernel)
        recorded = golden[f"{kernel}/{tag}"]
        assert sorted(model.trees) == sorted(recorded)
        for name, arrays in recorded.items():
            tree = model.trees[name]
            nodes = _preorder(tree)
            assert [list(field) for field in zip(*nodes)] == [
                arrays["feature"],
                arrays["threshold"],
                arrays["n_samples"],
                arrays["impurity"],
                [tuple(value) for value in arrays["value"]],
            ], name
            assert tree.classes_.tolist() == arrays["classes"], name
            assert (
                tree.feature_importances_.tolist()
                == arrays["feature_importances"]
            ), name


class TestSchemes:
    """Whole schemes, both legs, exact schedule equality."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_all_schemes_identical(self, seed):
        mode = OptimizationMode.ENERGY_EFFICIENT
        model = train_default_model(mode, kernel="spmspm")

        def leg(flag):
            with code_path(flag):
                context = EvaluationContext(
                    trace=build_trace("spmspm", "R04", scale=0.12),
                    machine=TransmuterModel(),
                    mode=mode,
                    model=model,
                    seed=seed,
                )
                results = evaluate_schemes(context, schemes=ALL_SCHEMES)
                return {
                    name: _schedule_tuple(result)
                    for name, result in results.items()
                }

        assert leg(True) == leg(False)

    def test_controller_memo_identical_decisions(self):
        """The decision memo must change hit counters, not schedules."""
        mode = OptimizationMode.ENERGY_EFFICIENT
        model = train_default_model(mode, kernel="spmspv")
        trace = build_trace("spmspv", "R12", scale=0.15)

        def leg(flag):
            with code_path(flag):
                controller = SparseAdaptController(
                    model=model, machine=TransmuterModel(), mode=mode
                )
                return _schedule_tuple(controller.run(trace))

        assert leg(True) == leg(False)

    def test_memo_invalidated_on_model_swap(self):
        mode = OptimizationMode.ENERGY_EFFICIENT
        model_a = train_default_model(mode, kernel="spmspv")
        model_b = train_default_model(mode, kernel="spmspm")
        trace = build_trace("spmspv", "R13", scale=0.12)
        controller = SparseAdaptController(
            model=model_a, machine=TransmuterModel(), mode=mode
        )
        controller.run(trace)
        controller.model = model_b
        swapped = _schedule_tuple(controller.run(trace))
        with scalar_path():
            reference = _schedule_tuple(
                SparseAdaptController(
                    model=model_b, machine=TransmuterModel(), mode=mode
                ).run(trace)
            )
        assert swapped == reference


class TestFaults:
    """Equivalence must hold under active fault schedules: the memo
    keys on the *observed* (possibly faulted) counters, so seeded
    injection perturbs both legs identically."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_faulted_controller_identical(self, seed):
        mode = OptimizationMode.ENERGY_EFFICIENT
        model = train_default_model(mode, kernel="spmspm")
        trace = build_trace("spmspm", "R06", scale=0.12)
        schedule = FaultSchedule(
            specs=(
                FaultSpec(kind="counter_noise", severity=0.4),
                FaultSpec(kind="reconfig_drop", rate=0.3),
            ),
            seed=seed,
        )

        def leg(flag):
            with code_path(flag):
                controller = SparseAdaptController(
                    model=model,
                    machine=TransmuterModel(),
                    mode=mode,
                    faults=schedule,
                )
                result = controller.run(trace)
                return (
                    _schedule_tuple(result),
                    dict(controller.last_run_stats),
                )

        assert leg(True) == leg(False)


class TestCampaignBytes:
    """A table5-mini campaign must serialize to the same bytes on both
    legs — serial, with --workers 2, and across a kill/resume seam."""

    SCHEMES = (
        "Baseline",
        "Best Avg",
        "SparseAdapt",
        "Ideal Static",
        "Ideal Greedy",
        "Oracle",
    )

    def _plan(self):
        from repro.runner import CampaignPlan

        return CampaignPlan.from_dict(
            {
                "name": "table5-mini",
                "defaults": {"scale": 0.12, "schemes": list(self.SCHEMES)},
                "jobs": [
                    {"kernel": "spmspm", "matrix": "R01"},
                    {"kernel": "spmspv", "matrix": "R09"},
                ],
            }
        )

    @staticmethod
    def _bytes(report) -> bytes:
        rows = [
            {k: v for k, v in row.items() if k != "duration_s"}
            for row in report.rows
        ]
        return json.dumps(rows, sort_keys=True).encode()

    def _run(self, fast: bool, workers: int = 1, **kwargs):
        from repro.runner import SupervisorConfig, run_plan

        with code_path(fast):
            return run_plan(
                self._plan(),
                config=SupervisorConfig(max_retries=0, backoff_base_s=0.0),
                workers=workers,
                **kwargs,
            )

    def test_serial_bytes_identical(self):
        fast = self._run(fast=True)
        scalar = self._run(fast=False)
        assert fast.counts() == scalar.counts() == {"ok": 2, "failed": 0}
        assert self._bytes(fast) == self._bytes(scalar)

    def test_workers2_bytes_identical(self):
        fast = self._run(fast=True, workers=2)
        scalar = self._run(fast=False, workers=2)
        serial = self._run(fast=False)
        assert fast.counts() == {"ok": 2, "failed": 0}
        assert (
            self._bytes(fast) == self._bytes(scalar) == self._bytes(serial)
        )

    def test_resume_across_legs_bytes_identical(self, tmp_path):
        """Kill after one job on the scalar leg, resume on the fast
        leg: the stitched report equals a straight-through scalar run."""
        ledger = tmp_path / "mini.jsonl"
        partial = self._run(fast=False, ledger_path=ledger, max_jobs=1)
        assert partial.partial
        resumed = self._run(
            fast=True, ledger_path=ledger, resume=True
        )
        straight = self._run(fast=False)
        assert resumed.counts() == {"ok": 2, "failed": 0}
        assert self._bytes(resumed) == self._bytes(straight)


#: Host wall-clock timings a ``decision`` event carries.
_DECISION_TIMINGS = (
    "latency_s",
    "counter_read_s",
    "inference_s",
    "policy_filter_s",
    "cost_model_s",
)


def _record_content(record):
    """A trace record without its sequence number and wall-clock."""
    attrs = dict(record["attrs"])
    if record["name"] == "decision":
        for key in _DECISION_TIMINGS:
            del attrs[key]
    return (record["type"], record["name"], attrs)


class TestTracedRuns:
    """A recorder changes what a run reports, not which machine-model
    code runs: a traced run executes the batched grid and emits exactly
    the records of the per-epoch scalar reference."""

    @pytest.mark.parametrize(
        "kernel,matrix,schemes",
        [
            ("spmspm", "R04", ALL_SCHEMES),
            ("spmspv", "R12", ALL_SCHEMES),
            ("spmspm", "R04", STANDARD_SCHEMES),
            ("spmspv", "R12", STANDARD_SCHEMES),
        ],
        ids=[
            "spmspm-R04",
            "spmspv-R12",
            "spmspm-R04-no-table",
            "spmspv-R12-no-table",
        ],
    )
    def test_traced_records_match_scalar_reference(
        self, kernel, matrix, schemes, monkeypatch
    ):
        from repro import obs
        from repro.fastpath.epochs import EpochGrid

        mode = OptimizationMode.ENERGY_EFFICIENT
        model = train_default_model(mode, kernel=kernel)
        trace = build_trace(kernel, matrix, scale=0.12)
        grids = []
        build_grid = EpochGrid.__init__

        def counting_init(self, *args, **kwargs):
            grids.append(self)
            build_grid(self, *args, **kwargs)

        monkeypatch.setattr(EpochGrid, "__init__", counting_init)

        def schedules(results):
            return {name: _schedule_tuple(r) for name, r in results.items()}

        def run(traced: bool, fast: bool = True):
            context = EvaluationContext(
                trace=trace, machine=TransmuterModel(), mode=mode, model=model
            )
            with code_path(fast):
                if not traced:
                    return schedules(evaluate_schemes(context, schemes))
                with obs.recording() as recorder:
                    results = evaluate_schemes(context, schemes)
                records = recorder.sink.records()
            assert len(records) == recorder.n_emitted
            return schedules(results), [_record_content(r) for r in records]

        untraced = run(traced=False)
        del grids[:]
        traced, records = run(traced=True)
        assert grids, "the traced run built no EpochGrid"
        del grids[:]
        _, scalar_records = run(traced=True, fast=False)
        assert not grids, "the scalar reference built an EpochGrid"
        assert traced == untraced
        assert records == scalar_records
        # Between the header and the first scheme's span (spans close
        # after their records) every record is machine.epoch: the
        # table's cells, each once, and no records of the statics;
        # without a table, one row-major grid of the three statics.
        first_scheme = next(
            k
            for k, (_, name, _) in enumerate(records)
            if name == "harness.scheme"
        )
        assert records[0][:2] == ("header", "trace")
        head = records[1:first_scheme]
        assert {name for _, name, _ in head} == {"machine.epoch"}
        statics = list(static_configs_for("cache").values())
        if schemes == STANDARD_SCHEMES:
            columns = [config.describe() for config in statics]
        else:
            columns = [
                config.describe()
                for config in sample_configs(64, seed=0, include=statics)
            ]
        assert [attrs["config"] for _, _, attrs in head] == (
            columns * trace.n_epochs
        )

    def test_traced_run_counts_the_untraced_memo(self, monkeypatch):
        """A recorder adds records, not a second decision path: the
        traced run calls the model (one call per decision-memo miss)
        exactly as often as the untraced one does, and the memo saves
        calls on some adapting epochs."""
        from repro import obs
        from repro.core.model import SparseAdaptModel

        mode = OptimizationMode.ENERGY_EFFICIENT
        model = train_default_model(mode, kernel="spmspm")
        trace = build_trace("spmspm", "R04", scale=0.15)
        calls = []
        predict = SparseAdaptModel.predict

        def counting_predict(self, *args, **kwargs):
            calls.append(1)
            return predict(self, *args, **kwargs)

        monkeypatch.setattr(SparseAdaptModel, "predict", counting_predict)

        def predict_calls(traced: bool):
            context = EvaluationContext(
                trace=trace, machine=TransmuterModel(), mode=mode, model=model
            )
            del calls[:]
            if not traced:
                evaluate_schemes(context, ALL_SCHEMES)
                return len(calls), None
            with obs.recording() as recorder:
                evaluate_schemes(context, ALL_SCHEMES)
            decisions = [
                r for r in recorder.sink.records() if r["name"] == "decision"
            ]
            return len(calls), len(decisions)

        untraced, _ = predict_calls(traced=False)
        traced, adapting_epochs = predict_calls(traced=True)
        assert traced == untraced
        assert 0 < untraced < adapting_epochs
