"""Unit tests for training-set construction and model training."""

import tracemalloc

import numpy as np
import pytest

from repro.core import (
    OptimizationMode,
    PhaseSample,
    build_training_set,
    find_best_config,
    representative_epochs,
    table3_phases,
    train_model,
)
from repro.core.dataset import default_grid
from repro.core.training import QUICK_PARAM_GRID
from repro.errors import ModelError
from repro.kernels.base import KernelTrace
from repro.transmuter import EpochWorkload, HardwareConfig, TransmuterModel

EE = OptimizationMode.ENERGY_EFFICIENT
PP = OptimizationMode.POWER_PERFORMANCE


def memory_bound_workload():
    return EpochWorkload(
        phase="spmspv",
        fp_ops=500.0, flops=250.0, int_ops=300.0,
        loads=500.0, stores=250.0,
        unique_words=700.0, unique_lines=110.0,
        stride_fraction=0.8, shared_fraction=0.5,
        read_bytes_compulsory=7000.0, write_bytes=3000.0,
    )


def compute_bound_workload():
    return EpochWorkload(
        phase="spmspv",
        fp_ops=5e5, flops=2.5e5, int_ops=3e5,
        loads=5e5, stores=2.5e5,
        unique_words=2000.0, unique_lines=250.0,
        stride_fraction=0.9, shared_fraction=0.5,
        read_bytes_compulsory=1000.0, write_bytes=500.0,
    )


class TestFindBestConfig:
    def test_memory_bound_ee_picks_slow_clock(self, machine):
        best = find_best_config(
            machine, memory_bound_workload(), EE, k_samples=24, seed=0
        )
        assert best.clock_mhz <= 250.0

    def test_compute_bound_pp_picks_fast_clock(self, machine):
        best = find_best_config(
            machine, compute_bound_workload(), PP, k_samples=24, seed=0
        )
        assert best.clock_mhz >= 500.0

    def test_best_beats_random_sample(self, machine):
        """The 3-step search must do at least as well as every config in
        its own random sample (on the search metric)."""
        from repro.core.dataset import _epoch_metric
        from repro.transmuter.config import sample_configs

        workload = memory_bound_workload()
        best = find_best_config(machine, workload, EE, k_samples=16, seed=3)
        best_metric = _epoch_metric(machine, workload, best, EE)
        for config in sample_configs(16, seed=3):
            assert best_metric >= _epoch_metric(
                machine, workload, config, EE
            ) - 1e-12

    def test_spm_mode_pins_l1(self, machine):
        best = find_best_config(
            machine,
            memory_bound_workload(),
            EE,
            l1_type="spm",
            k_samples=12,
            seed=1,
        )
        assert best.l1_type == "spm"


class TestRepresentativeEpochs:
    def test_picks_middle_of_each_phase(self):
        epochs = [
            EpochWorkload(
                phase=phase,
                fp_ops=100.0 + i, flops=50.0, int_ops=10.0,
                loads=10.0, stores=10.0, unique_words=10.0, unique_lines=2.0,
                stride_fraction=0.5, shared_fraction=0.1,
                read_bytes_compulsory=0.0, write_bytes=0.0,
            )
            for phase in ("multiply", "merge")
            for i in range(5)
        ]
        trace = KernelTrace(name="t", epochs=epochs)
        picked = representative_epochs(trace)
        assert len(picked) == 2
        assert {e.phase for e in picked} == {"multiply", "merge"}
        assert picked[0].fp_ops == 102.0  # the middle epoch


class TestTable3Phases:
    def test_grid_produces_phases(self):
        grid = {"dims": (64,), "densities": (0.02,), "bandwidths": (1.0, 10.0)}
        phases = table3_phases("spmspm", grid=grid, seed=0)
        # 1 matrix x 2 phases (multiply, merge) x 2 bandwidths.
        assert len(phases) == 4
        bandwidths = {
            p.machine.memory.bandwidth_bytes_per_s for p in phases
        }
        assert bandwidths == {1e9, 1e10}

    def test_sweep_releases_each_coo_matrix(self):
        """The largest SpMSpV sweep point (4096^2 at 5 %) peaks while its
        COO matrix becomes CSC. Holding the COO matrix through the trace
        as well peaks about 5 bytes per non-zero higher."""
        largest_nnz = int(round(0.05 * 4096 * 4096))
        tracemalloc.start()
        try:
            table3_phases("spmspv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / largest_nnz < 61

    def test_default_grids_cover_paper_ranges(self):
        spmspm = default_grid("spmspm")
        spmspv = default_grid("spmspv")
        assert min(spmspm["bandwidths"]) <= 0.1
        assert max(spmspm["bandwidths"]) >= 100.0
        assert max(spmspv["dims"]) >= 4096

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ModelError):
            default_grid("stencil")


class TestBuildTrainingSet:
    @pytest.fixture(scope="class")
    def training_set(self, machine):
        phases = [
            PhaseSample(memory_bound_workload(), machine),
            PhaseSample(compute_bound_workload(), machine),
        ]
        return build_training_set(phases, EE, k_samples=12, seed=0)

    def test_example_count(self, training_set):
        assert training_set.n_examples == 24  # 2 phases x 12 samples

    def test_labels_for_all_runtime_parameters(self, training_set):
        assert set(training_set.labels) == {
            "l1_sharing", "l2_sharing", "l1_kb", "l2_kb",
            "clock_mhz", "prefetch",
        }

    def test_feature_width_matches_names(self, training_set):
        assert training_set.features.shape[1] == len(training_set.names)

    def test_examples_within_phase_share_label(self, training_set):
        """All K examples of a phase map to the same best config."""
        clocks = training_set.labels["clock_mhz"]
        assert np.unique(clocks[:12]).size == 1
        assert np.unique(clocks[12:]).size == 1

    def test_merge(self, training_set):
        merged = training_set.merged_with(training_set)
        assert merged.n_examples == 48

    def test_empty_phases_rejected(self):
        with pytest.raises(ModelError):
            build_training_set([], EE)


class TestTrainModel:
    def test_quick_training_produces_all_trees(self, machine):
        phases = [
            PhaseSample(memory_bound_workload(), machine),
            PhaseSample(compute_bound_workload(), machine),
        ]
        training_set = build_training_set(phases, EE, k_samples=12, seed=0)
        model = train_model(training_set, param_grid=QUICK_PARAM_GRID)
        assert set(model.trees) == set(training_set.labels)
        prediction = model.predict(
            machine.simulate_epoch(
                memory_bound_workload(), HardwareConfig()
            ).counters,
            HardwareConfig(),
        )
        assert isinstance(prediction, HardwareConfig)

    def test_grid_search_records_hyperparameters(self, machine):
        phases = [
            PhaseSample(memory_bound_workload(), machine),
            PhaseSample(compute_bound_workload(), machine),
        ]
        training_set = build_training_set(phases, EE, k_samples=12, seed=0)
        model = train_model(
            training_set,
            param_grid={
                "criterion": ("gini",),
                "max_depth": (2, 6),
                "min_samples_leaf": (1,),
            },
        )
        for name, params in model.hyperparameters.items():
            assert params.get("constant") or "max_depth" in params
