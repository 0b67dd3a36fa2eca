"""Tests for the ablation utilities (configuration-echo masking)."""

import numpy as np
import pytest

from repro.core import OptimizationMode, build_training_set
from repro.core.ablation import (
    config_feature_indices,
    mask_config_features,
    train_counters_only_model,
)
from repro.core.dataset import PhaseSample
from repro.core.telemetry import feature_names
from repro.transmuter import EpochWorkload, HardwareConfig, TransmuterModel

EE = OptimizationMode.ENERGY_EFFICIENT


def _phases(machine):
    workloads = [
        EpochWorkload(
            phase="spmspv",
            fp_ops=500.0, flops=250.0, int_ops=300.0,
            loads=500.0, stores=250.0,
            unique_words=700.0, unique_lines=110.0,
            stride_fraction=stride, shared_fraction=0.2,
            read_bytes_compulsory=7000.0, write_bytes=3000.0,
            resident_bytes=resident,
        )
        for stride, resident in ((0.8, 4000.0), (0.3, 60000.0))
    ]
    return [PhaseSample(w, machine) for w in workloads]


class TestMasking:
    def test_indices_cover_exactly_config_features(self):
        names = feature_names()
        indices = config_feature_indices()
        assert all(names[i].startswith("cfg_") for i in indices)
        assert len(indices) == sum(
            1 for name in names if name.startswith("cfg_")
        )

    def test_mask_zeroes_only_config_columns(self):
        row = np.arange(len(feature_names()), dtype=float) + 1.0
        masked = mask_config_features(row)[0]
        indices = set(config_feature_indices().tolist())
        for i, value in enumerate(masked):
            if i in indices:
                assert value == 0.0
            else:
                assert value == row[i]

    def test_mask_does_not_mutate_input(self):
        row = np.ones(len(feature_names()))
        mask_config_features(row)
        assert np.all(row == 1.0)


class TestAblatedModel:
    @pytest.fixture(scope="class")
    def models(self, machine):
        training_set = build_training_set(
            _phases(machine), EE, k_samples=12, seed=0
        )
        from repro.core.training import QUICK_PARAM_GRID, train_model

        full = train_model(training_set, param_grid=QUICK_PARAM_GRID)
        ablated = train_counters_only_model(training_set)
        return full, ablated

    def test_ablated_prediction_ignores_config_echo(self, models, machine):
        _, ablated = models
        workload = _phases(machine)[0].workload
        counters = machine.simulate_epoch(
            workload, HardwareConfig()
        ).counters
        # Identical counters + different current configs must give the
        # same prediction: the trees never split on the zeroed echo.
        a = ablated.predict(counters, HardwareConfig())
        b = ablated.predict(counters, HardwareConfig(l2_kb=64, prefetch=8))
        assert a == b

    def test_full_model_can_use_config_echo(self, models, machine):
        full, _ = models
        importances = np.zeros(len(feature_names()))
        for name in full.predicted_parameters():
            importances += full.feature_importance(name)
        echo_weight = importances[config_feature_indices()].sum()
        assert echo_weight >= 0.0  # echo features exist in the model

    def test_ablated_trees_never_split_on_echo(self, models):
        _, ablated = models
        echo = set(config_feature_indices().tolist())

        def check(node):
            if node.is_leaf:
                return
            assert node.feature not in echo
            check(node.left)
            check(node.right)

        for tree in ablated.trees.values():
            check(tree.root_)

