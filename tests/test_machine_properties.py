"""Hypothesis property tests for the machine model and schedulers."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.fastpath.epochs import EpochGrid
from repro.transmuter import (
    CAPACITIES_KB,
    CLOCKS_MHZ,
    PREFETCH_LEVELS,
    EpochWorkload,
    HardwareConfig,
    TransmuterModel,
)
from repro.transmuter.cache import SetAssociativeCache
from tests.test_fastpath_equivalence import _result_tuple

_MACHINE = TransmuterModel()


@st.composite
def workloads(draw):
    accesses = draw(st.integers(100, 200_000))
    loads = int(accesses * draw(st.floats(0.3, 0.9)))
    stores = accesses - loads
    unique_words = draw(st.integers(10, accesses))
    unique_lines = draw(st.integers(1, max(1, unique_words)))
    flops = draw(st.integers(10, 100_000))
    return EpochWorkload(
        phase="spmspv",
        fp_ops=float(flops + loads + stores),
        flops=float(flops),
        int_ops=float(draw(st.integers(0, 100_000))),
        loads=float(loads),
        stores=float(stores),
        unique_words=float(unique_words),
        unique_lines=float(unique_lines),
        stride_fraction=draw(st.floats(0.0, 1.0)),
        shared_fraction=draw(st.floats(0.0, 1.0)),
        read_bytes_compulsory=float(draw(st.integers(0, 1_000_000))),
        write_bytes=float(draw(st.integers(0, 1_000_000))),
        work_skew=draw(st.floats(0.0, 3.0)),
        resident_bytes=float(draw(st.integers(0, 2_000_000))),
        reuse_locality=draw(st.floats(0.0, 1.0)),
    )


@st.composite
def configs(draw):
    return HardwareConfig(
        l1_type=draw(st.sampled_from(("cache", "spm"))),
        l1_sharing=draw(st.sampled_from(("shared", "private"))),
        l2_sharing=draw(st.sampled_from(("shared", "private"))),
        l1_kb=draw(st.sampled_from(CAPACITIES_KB)),
        l2_kb=draw(st.sampled_from(CAPACITIES_KB)),
        clock_mhz=draw(st.sampled_from(CLOCKS_MHZ)),
        prefetch=draw(st.sampled_from(PREFETCH_LEVELS)),
    )


def _epoch_records(recorder):
    return [
        (r["name"], r["attrs"])
        for r in recorder.sink.records()
        if r["name"] == "machine.epoch"
    ]


@given(
    st.lists(workloads(), min_size=1, max_size=3),
    st.lists(configs(), min_size=1, max_size=4),
)
@settings(max_examples=80, deadline=None)
def test_results_are_physical(workload_list, config_list):
    """Time, energy, and every counter stay in their physical ranges,
    whether an epoch runs through ``simulate_epoch`` or is a cell of a
    batched ``EpochGrid`` (which must equal it exactly, ``machine.epoch``
    trace records included, mixed ``l1_type`` config lists too)."""
    with obs.recording() as scalar_recorder:
        scalar = [
            [_MACHINE.simulate_epoch(workload, cfg) for cfg in config_list]
            for workload in workload_list
        ]
    with obs.recording() as grid_recorder:
        grid = EpochGrid(_MACHINE, workload_list, config_list)
    assert _epoch_records(grid_recorder) == _epoch_records(scalar_recorder)
    for i, workload in enumerate(workload_list):
        for j in range(len(config_list)):
            cell = grid.result(i, j)
            assert _result_tuple(cell) == _result_tuple(scalar[i][j])
            for result in (scalar[i][j], cell):
                _assert_physical(workload, result)


@given(
    st.lists(workloads(), min_size=1, max_size=3),
    st.lists(
        st.tuples(st.integers(0, 2), configs(), st.sampled_from((1.0, 0.2, 0.8))),
        min_size=1,
        max_size=8,
    ),
)
@settings(max_examples=80, deadline=None)
def test_paired_cells_equal_simulate_epoch(workload_list, picks):
    """Every cell of a paired grid, and its ``machine.epoch`` record,
    equals ``simulate_epoch`` of its pair bit for bit, counter arrays
    included: pairs repeat
    workload objects, mix ``l1_type`` and include scaled slices."""
    pairs = []
    for index, config, fraction in picks:
        workload = workload_list[index % len(workload_list)]
        if fraction != 1.0:
            workload = workload.scaled(fraction)
        pairs.append((workload, config))
    with obs.recording() as scalar_recorder:
        scalar = [_MACHINE.simulate_epoch(w, cfg) for w, cfg in pairs]
    with obs.recording() as grid_recorder:
        grid = EpochGrid.paired(_MACHINE, pairs)
    assert _epoch_records(grid_recorder) == _epoch_records(scalar_recorder)
    columns = grid.counter_columns()
    for k, result in enumerate(scalar):
        assert _result_tuple(grid.result(0, k)) == _result_tuple(result)
        assert grid.times[0, k] == result.time_s
        assert grid.energies[0, k] == result.energy_j
        assert {
            name: values[0, k] for name, values in columns.items()
        } == result.counters.as_dict()


def _assert_physical(workload, result):
    assert result.time_s > 0
    assert result.energy_j > 0
    assert result.dram_read_bytes >= workload.read_bytes_compulsory
    assert result.dram_write_bytes >= workload.write_bytes
    counters = result.counters
    for name, value in counters.as_dict().items():
        assert np.isfinite(value), name
    for rate in (
        counters.l1_miss_rate,
        counters.l2_miss_rate,
        counters.l1_occupancy,
        counters.l2_occupancy,
        counters.gpe_ipc,
        counters.gpe_fp_ipc,
        counters.lcp_ipc,
        counters.dram_read_utilization,
        counters.dram_write_utilization,
        counters.xbar_contention_ratio,
    ):
        assert -1e-9 <= rate <= 1.0 + 1e-9


@given(workloads(), configs())
@settings(max_examples=60, deadline=None)
def test_time_at_least_roofline_legs(workload, config):
    result = _MACHINE.simulate_epoch(workload, config)
    assert result.time_s >= result.core_time_s - 1e-15
    assert result.time_s >= result.memory_time_s - 1e-15


@given(workloads())
@settings(max_examples=50, deadline=None)
def test_dvfs_never_speeds_up_execution(workload):
    """Lowering the clock can only keep or increase epoch time."""
    times = [
        _MACHINE.simulate_epoch(
            workload, HardwareConfig(clock_mhz=clock)
        ).time_s
        for clock in sorted(CLOCKS_MHZ, reverse=True)
    ]
    for faster, slower in zip(times, times[1:]):
        assert slower >= faster - 1e-15


#: Off-chip bandwidths swept by the bandwidth monotonicity property.
_BANDWIDTHS_GBPS = (32.0, 64.0, 128.0, 256.0, 512.0)
_BANDWIDTH_MACHINES = [
    TransmuterModel(bandwidth_gbps=bandwidth) for bandwidth in _BANDWIDTHS_GBPS
]


@given(workloads(), configs())
@settings(max_examples=60, deadline=None)
def test_more_bandwidth_never_slows_epoch(workload, config):
    """Raising the HBM bandwidth can only keep or decrease epoch time."""
    times = [
        machine.simulate_epoch(workload, config).time_s
        for machine in _BANDWIDTH_MACHINES
    ]
    for narrower, wider in zip(times, times[1:]):
        assert wider <= narrower


@given(workloads())
@settings(max_examples=50, deadline=None)
def test_dvfs_reduces_onchip_energy(workload):
    """The on-chip dynamic energy share must not grow as V drops."""
    fast = _MACHINE.simulate_epoch(
        workload, HardwareConfig(clock_mhz=1000.0)
    )
    slow = _MACHINE.simulate_epoch(
        workload, HardwareConfig(clock_mhz=125.0)
    )
    fast_dynamic = fast.energy.on_chip - fast.energy.leakage
    slow_dynamic = slow.energy.on_chip - slow.energy.leakage
    assert slow_dynamic <= fast_dynamic + 1e-15


@given(workloads(), st.sampled_from(("cache",)))
@settings(max_examples=50, deadline=None)
def test_l1_capacity_never_hurts_miss_rate(workload, l1_type):
    """With everything else fixed, growing the L1 must not increase
    its miss rate (residency is monotone in capacity)."""
    rates = [
        _MACHINE.simulate_epoch(
            workload, HardwareConfig(l1_type=l1_type, l1_kb=capacity)
        ).counters.l1_miss_rate
        for capacity in CAPACITIES_KB
    ]
    for smaller, larger in zip(rates, rates[1:]):
        assert larger <= smaller + 1e-9


@given(workloads(), configs())
@settings(max_examples=40, deadline=None)
def test_scaled_workload_scales_extensively(workload, config):
    """Halving a workload roughly halves time and dynamic traffic."""
    full = _MACHINE.simulate_epoch(workload, config)
    half = _MACHINE.simulate_epoch(workload.scaled(0.5), config)
    assert half.dram_read_bytes <= full.dram_read_bytes + 1e-9
    assert half.time_s <= full.time_s + 1e-12


@given(workloads())
@settings(max_examples=40, deadline=None)
def test_energy_additive_decomposition(workload):
    result = _MACHINE.simulate_epoch(workload, HardwareConfig())
    breakdown = result.energy
    total = (
        breakdown.core_dynamic
        + breakdown.l1_dynamic
        + breakdown.l2_dynamic
        + breakdown.xbar_dynamic
        + breakdown.dram
        + breakdown.leakage
    )
    assert breakdown.total == total
    assert result.energy_j == total


@given(
    # Few distinct lines, so sets conflict and lines get reused.
    st.lists(st.integers(0, 63), min_size=50, max_size=300),
    st.sampled_from((1, 2, 4)),
    st.sampled_from((1, 2, 4, 8, 16, 32)),
)
@settings(max_examples=80, deadline=None)
def test_lru_set_refinement_never_adds_misses(lines, ways, n_sets):
    """Doubling the sets of an LRU cache (same line size and ways)
    never turns a hit into a miss.

    The cache indexes by ``line % n_sets``, so every set of the doubled
    cache sees a subsequence of one set of the original. An access hits
    under LRU iff fewer than ``ways`` distinct lines of its set were
    touched since its last use, and a subsequence never has more
    (Hill & Smith's set-refinement inclusion).
    """
    line_bytes = 64
    coarse = SetAssociativeCache(n_sets * ways * line_bytes, line_bytes, ways)
    fine = SetAssociativeCache(2 * n_sets * ways * line_bytes, line_bytes, ways)
    assert fine.n_sets == 2 * coarse.n_sets
    for line in lines:
        address = line * line_bytes + line % line_bytes
        coarse_hit = coarse.access(address)
        fine_hit = fine.access(address)
        assert fine_hit or not coarse_hit
    assert fine.stats.misses <= coarse.stats.misses
