"""Unit tests for the predictive model wrapper, policies, controller,
and the host runtime facade."""

import numpy as np
import pytest

from repro.core import (
    AggressivePolicy,
    ConservativePolicy,
    HybridPolicy,
    OptimizationMode,
    SparseAdaptController,
    SparseAdaptModel,
    TransmuterRuntime,
    policy_from_name,
)
from repro.errors import ConfigError, ModelError
from repro.sparse import generators, ops
from repro.transmuter import HardwareConfig, TransmuterModel

EE = OptimizationMode.ENERGY_EFFICIENT


class TestSparseAdaptModel:
    def test_predict_returns_valid_config(self, model_ee, machine, spmspv_trace):
        result = machine.simulate_epoch(
            spmspv_trace.epochs[0], HardwareConfig()
        )
        predicted = model_ee.predict(result.counters, HardwareConfig())
        assert isinstance(predicted, HardwareConfig)
        assert predicted.l1_type == "cache"

    def test_l1_type_mismatch_rejected(self, model_ee, machine, spmspv_trace):
        result = machine.simulate_epoch(
            spmspv_trace.epochs[0], HardwareConfig()
        )
        spm_config = HardwareConfig(l1_type="spm")
        with pytest.raises(ModelError):
            model_ee.predict(result.counters, spm_config)

    def test_importances_cover_feature_groups(self, model_ee):
        table = model_ee.importance_table()
        assert "clock_mhz" in table
        groups = set()
        for grouped in table.values():
            groups |= set(grouped)
        assert "Memory Ctrl" in groups
        assert "L1 R-DCache" in groups

    def test_importance_sums_to_one(self, model_ee):
        for name in model_ee.predicted_parameters():
            importances = model_ee.feature_importance(name)
            total = importances.sum()
            assert total == pytest.approx(1.0) or total == 0.0

    def test_describe_lists_trees(self, model_ee):
        text = model_ee.describe()
        assert "clock_mhz" in text
        assert "depth=" in text

    def test_rejects_non_cart_estimator(self, model_ee):
        trees = dict(model_ee.trees, l1_kb=object())
        with pytest.raises(ModelError, match="l1_kb"):
            SparseAdaptModel(trees=trees)


class TestPolicies:
    def setup_method(self):
        self.power = TransmuterModel().power
        self.current = HardwareConfig(l1_kb=16, l2_kb=16, clock_mhz=250.0)
        # Prediction mixing a cheap change (clock) and a costly one
        # (L1 shrink, which flushes).
        self.predicted = (
            self.current.with_value("clock_mhz", 1000.0)
            .with_value("l1_kb", 4)
        )

    def test_aggressive_applies_everything(self):
        applied = AggressivePolicy().filter(
            self.current, self.predicted, 1e-4, self.power, 1.0
        )
        assert applied == self.predicted

    def test_conservative_blocks_flush(self):
        applied = ConservativePolicy().filter(
            self.current, self.predicted, 1e-4, self.power, 1.0
        )
        assert applied.clock_mhz == 1000.0  # cheap change applied
        assert applied.l1_kb == 16  # flush-inducing change blocked

    def test_hybrid_scales_with_epoch_length(self):
        policy = HybridPolicy(tolerance=0.4)
        short_epoch = policy.filter(
            self.current, self.predicted, 1e-6, self.power, 1.0
        )
        long_epoch = policy.filter(
            self.current, self.predicted, 10.0, self.power, 1.0
        )
        assert short_epoch.l1_kb == 16  # blocked in a short epoch
        assert long_epoch.l1_kb == 4  # allowed when epochs are long

    def test_hybrid_zero_tolerance_blocks_all(self):
        applied = HybridPolicy(tolerance=0.0).filter(
            self.current, self.predicted, 1e-3, self.power, 1.0
        )
        assert applied == self.current

    def test_policy_from_name(self):
        assert isinstance(policy_from_name("hybrid"), HybridPolicy)
        assert isinstance(
            policy_from_name("conservative"), ConservativePolicy
        )
        assert isinstance(policy_from_name("aggressive"), AggressivePolicy)
        with pytest.raises(ConfigError):
            policy_from_name("timid")

    def test_invalid_parameters(self):
        with pytest.raises(ConfigError):
            HybridPolicy(tolerance=-0.1)
        with pytest.raises(ConfigError):
            ConservativePolicy(max_cost_s=-1.0)


class TestController:
    def test_run_covers_every_epoch(self, model_ee, machine, spmspv_trace):
        controller = SparseAdaptController(model_ee, machine, EE)
        schedule = controller.run(spmspv_trace)
        assert schedule.n_epochs == spmspv_trace.n_epochs
        assert schedule.total_flops == pytest.approx(
            spmspv_trace.total_flops
        )

    def test_host_overhead_accumulated(self, model_ee, machine, spmspv_trace):
        controller = SparseAdaptController(model_ee, machine, EE)
        schedule = controller.run(spmspv_trace)
        assert schedule.overhead_time_s > 0
        assert schedule.overhead_energy_j > 0

    def test_adapts_away_from_initial_config(
        self, model_ee, machine, spmspv_trace
    ):
        controller = SparseAdaptController(
            model_ee, machine, EE, initial_config=HardwareConfig()
        )
        schedule = controller.run(spmspv_trace)
        assert len(set(schedule.config_sequence())) > 1

    def test_first_epoch_runs_on_initial_config(
        self, model_ee, machine, spmspv_trace
    ):
        initial = HardwareConfig(prefetch=0)
        controller = SparseAdaptController(
            model_ee, machine, EE, initial_config=initial
        )
        schedule = controller.run(spmspv_trace)
        assert schedule.records[0].config == initial
        assert schedule.records[0].reconfig is None

    def test_l1_type_mismatch_rejected(self, model_ee, machine):
        with pytest.raises(ConfigError):
            SparseAdaptController(
                model_ee,
                machine,
                EE,
                initial_config=HardwareConfig(l1_type="spm"),
            )


class TestRuntime:
    @pytest.fixture(scope="class")
    def runtime(self, model_ee):
        return TransmuterRuntime(mode=EE, model=model_ee)

    def test_spmspm_numerics_and_schedule(self, runtime, small_uniform):
        outcome = runtime.spmspm(small_uniform)
        expected = (
            small_uniform.to_dense() @ small_uniform.to_dense().T
        )
        assert np.allclose(outcome.result.to_dense(), expected)
        assert outcome.schedule.n_epochs == outcome.trace.n_epochs
        assert outcome.gflops > 0
        assert outcome.gflops_per_watt > 0

    def test_spmspv_numerics(self, runtime, small_powerlaw, small_vector):
        outcome = runtime.spmspv(small_powerlaw, small_vector)
        reference = ops.spmspv_reference(
            small_powerlaw.to_csc(), small_vector
        )
        assert np.allclose(
            outcome.result.to_dense(), reference.to_dense()
        )

    def test_result_skippable(self, runtime, small_uniform):
        outcome = runtime.spmspm(small_uniform, compute_result=False)
        assert outcome.result is None
        assert outcome.schedule.n_epochs > 0

    def test_bfs_offload(self, runtime, small_powerlaw):
        import numpy as np

        source = int(
            np.argmax(small_powerlaw.to_csc().col_lengths())
        )
        outcome = runtime.bfs(small_powerlaw, source=source)
        assert outcome.result.levels[source] == 0
        assert outcome.schedule.n_epochs >= 1

    def test_shape_mismatch_rejected(self, runtime, small_uniform):
        other = generators.uniform_random(10, 10, 0.5, seed=0)
        with pytest.raises(ConfigError):
            runtime.spmspm(small_uniform, other)
