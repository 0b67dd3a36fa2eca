"""Unit tests for the epoch-level machine model."""

import pytest

from repro.errors import SimulationError
from repro.transmuter import EpochWorkload, HardwareConfig, TransmuterModel


def make_workload(**overrides):
    base = dict(
        phase="multiply",
        fp_ops=5000.0,
        flops=2500.0,
        int_ops=3000.0,
        loads=5000.0,
        stores=2500.0,
        unique_words=6000.0,
        unique_lines=900.0,
        stride_fraction=0.8,
        shared_fraction=0.6,
        read_bytes_compulsory=48_000.0,
        write_bytes=30_000.0,
        work_skew=0.4,
    )
    base.update(overrides)
    return EpochWorkload(**base)


class TestWorkload:
    def test_derived_quantities(self):
        workload = make_workload()
        assert workload.accesses == 7500.0
        assert workload.instructions == 2500.0 + 3000.0 + 7500.0
        assert workload.working_set_bytes == 900.0 * 64

    def test_scaled(self):
        half = make_workload().scaled(0.5)
        assert half.fp_ops == 2500.0
        assert half.loads == 2500.0
        assert half.stride_fraction == 0.8  # intensive fields unchanged

    def test_validation(self):
        with pytest.raises(SimulationError):
            make_workload(flops=-1.0)
        with pytest.raises(SimulationError):
            make_workload(stride_fraction=1.5)
        with pytest.raises(SimulationError):
            make_workload().scaled(-1.0)


class TestMachineModel:
    def test_result_fields_positive(self, machine):
        result = machine.simulate_epoch(make_workload(), HardwareConfig())
        assert result.time_s > 0
        assert result.energy_j > 0
        assert result.power_w > 0
        assert result.gflops > 0
        assert result.dram_read_bytes >= 0

    def test_time_is_at_least_roofline_parts(self, machine):
        result = machine.simulate_epoch(make_workload(), HardwareConfig())
        assert result.time_s >= result.core_time_s - 1e-15
        assert result.time_s >= result.memory_time_s - 1e-15

    def test_memory_bound_insensitive_to_clock(self, machine):
        """On a bandwidth-saturated epoch, halving the clock barely
        changes time but cuts energy — the paper's DVFS opportunity."""
        workload = make_workload()
        fast = machine.simulate_epoch(
            workload, HardwareConfig(clock_mhz=1000.0)
        )
        slow = machine.simulate_epoch(
            workload, HardwareConfig(clock_mhz=250.0)
        )
        assert fast.memory_time_s > fast.core_time_s  # memory-bound
        assert slow.time_s < 1.25 * fast.time_s
        assert slow.energy_j < fast.energy_j

    def test_compute_bound_slows_with_dvfs(self, machine):
        workload = make_workload(
            flops=2.5e5,
            int_ops=3e5,
            fp_ops=5e5,
            read_bytes_compulsory=1000.0,
            write_bytes=1000.0,
        )
        fast = machine.simulate_epoch(workload, HardwareConfig())
        slow = machine.simulate_epoch(
            workload, HardwareConfig(clock_mhz=125.0)
        )
        assert slow.time_s > 4 * fast.time_s

    def test_dram_reads_at_least_compulsory(self, machine):
        result = machine.simulate_epoch(make_workload(), HardwareConfig())
        assert result.dram_read_bytes >= 48_000.0

    def test_bigger_l1_reduces_miss_rate(self, machine):
        workload = make_workload(shared_fraction=0.1)
        small = machine.simulate_epoch(workload, HardwareConfig(l1_kb=4))
        large = machine.simulate_epoch(workload, HardwareConfig(l1_kb=64))
        assert large.counters.l1_miss_rate <= small.counters.l1_miss_rate

    def test_shared_mode_contends(self, machine):
        workload = make_workload()
        shared = machine.simulate_epoch(
            workload, HardwareConfig(l1_sharing="shared")
        )
        private = machine.simulate_epoch(
            workload, HardwareConfig(l1_sharing="private")
        )
        assert (
            shared.counters.xbar_contention_ratio
            >= private.counters.xbar_contention_ratio
        )

    def test_skew_slows_execution(self, machine):
        balanced = machine.simulate_epoch(
            make_workload(work_skew=0.0,
                          read_bytes_compulsory=100.0, write_bytes=100.0),
            HardwareConfig(),
        )
        skewed = machine.simulate_epoch(
            make_workload(work_skew=2.0,
                          read_bytes_compulsory=100.0, write_bytes=100.0),
            HardwareConfig(),
        )
        assert skewed.core_time_s > balanced.core_time_s

    def test_spm_mode_cheaper_per_access(self, machine):
        workload = make_workload(stride_fraction=0.5)
        cache = machine.simulate_epoch(
            workload, HardwareConfig(l1_type="cache")
        )
        spm = machine.simulate_epoch(
            workload, HardwareConfig(l1_type="spm")
        )
        assert spm.energy.l1_dynamic < cache.energy.l1_dynamic

    def test_counters_ranges(self, machine):
        counters = machine.simulate_epoch(
            make_workload(), HardwareConfig()
        ).counters
        assert 0.0 <= counters.l1_miss_rate <= 1.0
        assert 0.0 <= counters.l2_miss_rate <= 1.0
        assert 0.0 <= counters.l1_occupancy <= 1.0
        assert 0.0 <= counters.gpe_ipc <= 1.0
        assert 0.0 <= counters.dram_read_utilization <= 1.0
        assert counters.clock_mhz == 1000.0
        assert counters.l1_capacity_kb == 4.0

    def test_counter_features_roundtrip(self, machine):
        counters = machine.simulate_epoch(
            make_workload(), HardwareConfig()
        ).counters
        features = counters.as_features()
        names = counters.feature_names()
        assert len(features) == len(names) == 18
        assert counters.as_dict()["clock_mhz"] == 1000.0

    def test_geometry_scales_throughput(self):
        workload = make_workload(
            flops=1e5, int_ops=1e5, fp_ops=2e5,
            read_bytes_compulsory=100.0, write_bytes=100.0,
        )
        small = TransmuterModel(1, 8).simulate_epoch(workload, HardwareConfig())
        large = TransmuterModel(4, 16).simulate_epoch(workload, HardwareConfig())
        assert large.core_time_s < small.core_time_s

    def test_bad_geometry_rejected(self):
        with pytest.raises(SimulationError):
            TransmuterModel(0, 4)

    @pytest.mark.parametrize(
        "bandwidth", [float("nan"), float("inf"), 0.0, -1.0]
    )
    def test_bandwidth_must_be_finite_and_positive(self, bandwidth):
        with pytest.raises(SimulationError, match="finite and positive"):
            TransmuterModel(bandwidth_gbps=bandwidth)

    def test_describe(self, machine):
        assert machine.describe() == "2x8 @ 1 GB/s"
