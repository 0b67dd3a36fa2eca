"""Unit tests for the epoch table, static points, greedy, oracle, and
ProfileAdapt — including the ordering invariants between them."""

import numpy as np
import pytest

from repro.baselines import (
    BASELINE,
    BEST_AVG_CACHE,
    BEST_AVG_SPM,
    MAX_CFG,
    EpochTable,
    ideal_greedy,
    ideal_static,
    oracle,
    profile_adapt,
    run_static,
    spm_variant,
    static_configs_for,
)
from repro.core import OptimizationMode
from repro.errors import ConfigError, SimulationError
from repro.transmuter import HardwareConfig

EE = OptimizationMode.ENERGY_EFFICIENT
PP = OptimizationMode.POWER_PERFORMANCE


@pytest.fixture(scope="module")
def table(machine, spmspm_trace):
    return EpochTable(
        machine,
        spmspm_trace,
        n_samples=32,
        seed=0,
        include=[BASELINE, MAX_CFG, BEST_AVG_CACHE],
    )


class TestStaticConfigs:
    def test_table4_values(self):
        assert BASELINE.l1_kb == 4 and BASELINE.clock_mhz == 1000.0
        assert BEST_AVG_CACHE.l1_sharing == "private"
        assert BEST_AVG_CACHE.prefetch == 0
        assert BEST_AVG_SPM.l1_type == "spm"
        assert BEST_AVG_SPM.l2_kb == 32
        assert BEST_AVG_SPM.clock_mhz == 500.0
        assert MAX_CFG.l1_kb == 64 and MAX_CFG.l2_kb == 64
        assert MAX_CFG.prefetch == 8

    def test_spm_variant(self):
        variant = spm_variant(MAX_CFG)
        assert variant.l1_type == "spm"
        assert variant.l2_kb == MAX_CFG.l2_kb

    def test_static_points_per_l1_type(self):
        cache_points = static_configs_for("cache")
        spm_points = static_configs_for("spm")
        assert set(cache_points) == {"Baseline", "Best Avg", "Max Cfg"}
        assert all(c.l1_type == "spm" for c in spm_points.values())
        with pytest.raises(ConfigError):
            static_configs_for("hbm")

    def test_run_static_covers_trace(self, machine, spmspm_trace):
        schedule = run_static(
            machine, spmspm_trace, {"Baseline": BASELINE}
        )["Baseline"]
        assert schedule.n_epochs == spmspm_trace.n_epochs
        assert schedule.n_reconfigurations == 0

    def test_max_cfg_fast_but_inefficient(self, machine, spmspm_trace):
        statics = run_static(
            machine, spmspm_trace, {"Baseline": BASELINE, "Max Cfg": MAX_CFG}
        )
        base, maxi = statics["Baseline"], statics["Max Cfg"]
        assert maxi.gflops > base.gflops
        assert maxi.gflops_per_watt < base.gflops_per_watt


class TestEpochTable:
    def test_shape(self, table, spmspm_trace):
        assert table.n_epochs == spmspm_trace.n_epochs
        assert table.n_configs == 32
        assert table.times.shape == (table.n_epochs, 32)

    def test_includes_forced_configs(self, table):
        assert BASELINE in table.configs
        assert MAX_CFG in table.configs

    def test_result_lookup(self, table):
        result = table.result(0, BASELINE)
        assert result.time_s == table.times[0][table.config_index(BASELINE)]

    def test_unknown_config_rejected(self, table):
        foreign = HardwareConfig(l1_kb=8, l2_kb=8, clock_mhz=62.5, prefetch=0,
                                 l1_sharing="private", l2_sharing="private")
        if foreign in table.configs:
            pytest.skip("sampled by chance")
        with pytest.raises(SimulationError):
            table.config_index(foreign)

    def test_reconfig_matrices_symmetric_zero_diagonal(self, table):
        times, energies = table.reconfig_matrices()
        assert np.all(np.diag(times) == 0)
        assert np.all(np.diag(energies) == 0)
        assert np.all(times >= 0)
        assert np.all(energies >= 0)

    def test_empty_trace_rejected(self, machine):
        from repro.kernels.base import KernelTrace

        with pytest.raises(SimulationError):
            EpochTable(machine, KernelTrace(name="x", epochs=[]))


class TestSchemeOrdering:
    @pytest.mark.parametrize("mode", [EE, PP])
    def test_oracle_dominates_everything(self, table, mode):
        static = ideal_static(table, mode)
        greedy = ideal_greedy(table, mode)
        best = oracle(table, mode)
        assert best.metric(mode) >= static.metric(mode) - 1e-12
        assert best.metric(mode) >= greedy.metric(mode) - 1e-12

    @pytest.mark.parametrize("mode", [EE, PP])
    def test_ideal_static_beats_named_statics(
        self, table, machine, spmspm_trace, mode
    ):
        static = ideal_static(table, mode)
        for named in run_static(
            machine, spmspm_trace, static_configs_for("cache")
        ).values():
            assert static.metric(mode) >= named.metric(mode) - 1e-12

    def test_oracle_ee_minimizes_energy(self, table):
        """In EE mode the oracle's energy must be <= every static
        config's energy (it can always stay put)."""
        best = oracle(table, EE)
        for config in table.configs:
            static_energy = table.energies[
                :, table.config_index(config)
            ].sum()
            assert best.total_energy_j <= static_energy + 1e-12

    def test_greedy_first_epoch_is_per_epoch_optimal(self, table):
        greedy = ideal_greedy(table, EE)
        first = greedy.records[0]
        assert first.result.energy_j == pytest.approx(
            table.energies[0].min()
        )

    def test_schedules_cover_all_epochs(self, table):
        for schedule in (
            ideal_static(table, EE),
            ideal_greedy(table, PP),
            oracle(table, PP),
        ):
            assert schedule.n_epochs == table.n_epochs


class TestProfileAdapt:
    @pytest.mark.parametrize("mode", [EE, PP])
    def test_naive_worse_than_greedy(self, table, mode):
        greedy = ideal_greedy(table, mode)
        naive = profile_adapt(table, mode, "naive")
        assert naive.metric(mode) <= greedy.metric(mode) + 1e-12

    def test_ideal_no_worse_than_naive(self, table):
        naive = profile_adapt(table, EE, "naive")
        ideal = profile_adapt(table, EE, "ideal")
        assert ideal.metric(EE) >= naive.metric(EE) - 1e-12

    def test_flops_preserved(self, table, spmspm_trace):
        """Splitting epochs must not lose work."""
        naive = profile_adapt(table, EE, "naive")
        assert naive.total_flops == pytest.approx(
            spmspm_trace.total_flops, rel=1e-6
        )

    def test_naive_profiles_every_epoch(self, table):
        naive = profile_adapt(table, EE, "naive")
        # Every source epoch splits in two records.
        assert naive.n_epochs == 2 * table.n_epochs

    def test_invalid_variant_rejected(self, table):
        with pytest.raises(ConfigError):
            profile_adapt(table, EE, "lazy")
        with pytest.raises(ConfigError):
            profile_adapt(table, EE, "naive", profiling_fraction=1.5)
