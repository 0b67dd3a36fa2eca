"""Vectorized epoch-model evaluation over ``workloads x configs`` grids.

:class:`EpochGrid` reproduces
:meth:`repro.transmuter.machine.TransmuterModel._simulate_epoch` for a
whole grid of (workload, configuration) pairs in one pass of
elementwise numpy ops, bit-identical to the scalar reference. The
strategy, in order of importance:

1. **Mirror the scalar expressions exactly.** Elementwise float64
   arithmetic, ``np.minimum``/``np.maximum`` and ``np.sqrt`` are
   IEEE-754 correctly rounded in both numpy and CPython, so keeping the
   operand order and grouping of the scalar code yields the same bits.
2. **Never use numpy ``pow``.** numpy's vectorized ``**`` differs from
   CPython's ``float.__pow__`` in the last ulp for most exponents, so
   the two data-dependent powers (crossbar collision, soft roofline) go
   through :func:`pow_exact` — CPython's pow applied elementwise.
3. **Precompute config-only quantities with the scalar functions.**
   DVFS operating points, SRAM access energies, leakage power and DRAM
   latency depend only on the configuration; they are computed once per
   distinct config by the original scalar code (sqrt, pow and all) and
   broadcast, so their bits are the scalar path's bits by construction.
4. **Compute per-workload quantities as arrays over all workloads.**
   Workload-derived scalars (instruction counts, imbalance, geometry
   working sets, the GPE->L1 crossbar, which never varies along the
   config axis within a batch) are one array expression each, then
   broadcast. They are exact for the reasons of point 1: each is the
   scalar expression in the same operand order, with ``min``/``max``
   as ``np.minimum``/``np.maximum`` (exact selections, like the
   builtins), the crossbar's collision power through
   :func:`pow_exact`, and its zero-access branch as an ``np.where``.

Branches on the configuration (sharing modes, prefetch level, L1 type)
become ``np.where`` selections between per-branch values; mixed-type
batches are partitioned by ``l1_type`` and stitched back column-wise.

The same expressions also evaluate an arbitrary list of (workload,
config) pairs (:meth:`EpochGrid.paired`): the per-axis scalars are
computed once per distinct workload and config, gathered into one
``(1, n_pairs)`` row each, and broadcast against each other instead of
across a cross product. A search that scores different configurations
for different workloads, or a scheme that simulates fractional epoch
slices, becomes one grid instead of a loop of small ones.

The result fields are written into one preallocated
``(fields, workloads, configs)`` stack, one row per field, so a cell's
fields are the column ``stack[:, i, j]``. The grid materializes
:class:`~repro.transmuter.machine.EpochResult` objects lazily, one cell
at a time: :meth:`EpochGrid.result` unboxes its cell's column with one
``tolist`` and fills the three frozen records' ``__dict__`` directly
(none defines ``__post_init__``, so the skipped ``__init__`` checks
nothing). Schemes touch only the table cells they stitch into a
schedule; a nine-scheme Table-5 campaign reads about one cell in ten of
the grids it reads from.

This engine has no :class:`EpochEnvironment`: degraded epochs occur
only inside the (inherently sequential) controller loop, which runs on
``simulate_epoch``. Under an enabled trace recorder the grid reports
every cell through :func:`repro.transmuter.machine.record_epoch` in
row-major (workload, config) order, pair order for a paired grid, so a
traced run executes the same code as an untraced one and emits the
``machine.epoch`` records a loop over ``simulate_epoch`` would.
"""

from __future__ import annotations

import operator
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.obs import TraceRecorder, get_recorder
from repro.obs import profile as obs_profile
from repro.transmuter import params
from repro.transmuter.config import HardwareConfig
from repro.transmuter.counters import PerformanceCounters
from repro.transmuter.dvfs import OperatingPoint, operating_point
from repro.transmuter.machine import (
    EpochResult,
    TransmuterModel,
    record_epoch,
)
from repro.transmuter.power import EnergyBreakdown, _sram_access_energy
from repro.transmuter.workload import EpochWorkload

__all__ = ["pow_exact", "EpochGrid"]

# CPython's float.__pow__ applied elementwise (object ufunc). numpy's
# own pow uses a SIMD implementation whose results differ in the last
# ulp, which would break byte-identical reports.
_POW_UFUNC = np.frompyfunc(float.__pow__, 2, 1)


def pow_exact(base: np.ndarray, exponent: float) -> np.ndarray:
    """Elementwise ``base ** exponent`` with CPython pow semantics."""
    exponent = float(exponent)
    if exponent == 1.0:
        # pow(x, 1.0) == x exactly in both numpy and libm.
        return np.array(base, dtype=np.float64, copy=True)
    return _POW_UFUNC(base, exponent).astype(np.float64)


# ---------------------------------------------------------------------------
# Per-axis precomputation
# ---------------------------------------------------------------------------
#: The :class:`EpochWorkload` fields :func:`_workload_scalars` reads.
_WORKLOAD_FIELDS = (
    "fp_ops", "flops", "int_ops", "loads", "stores", "unique_words",
    "unique_lines", "stride_fraction", "shared_fraction",
    "read_bytes_compulsory", "write_bytes", "work_skew", "resident_bytes",
    "reuse_locality",
)
_workload_row = operator.attrgetter(*_WORKLOAD_FIELDS)


def _workload_scalars(
    machine: TransmuterModel, workloads: Sequence[EpochWorkload], spm: bool
) -> Dict[str, np.ndarray]:
    """Workload-only quantities, one array expression per quantity.

    Every expression mirrors the scalar model (``EpochWorkload``'s
    properties, ``_simulate_epoch`` and ``model_crossbar``) with the
    same operand order; results are shaped ``(n_workloads, 1)`` for
    broadcasting along the config axis.
    """
    tiles = machine.n_tiles
    gpes = machine.gpes_per_tile
    n_gpes = machine.n_gpes
    (
        fp_ops, flops, int_ops, loads, stores, unique_words, unique_lines,
        stride, shared_frac, read_bytes_compulsory, write_bytes, work_skew,
        resident_bytes, reuse_locality,
    ) = np.array(
        [_workload_row(w) for w in workloads], dtype=np.float64
    ).reshape(len(workloads), len(_WORKLOAD_FIELDS)).T
    accesses = loads + stores
    spm_int_ops = int_ops
    if spm:
        spm_int_ops = int_ops * (1.0 + params.SPM_ORCHESTRATION_OVERHEAD)
    instructions = flops + spm_int_ops + accesses
    imbalance = 1.0 + np.minimum(
        params.IMBALANCE_CAP - 1.0,
        params.IMBALANCE_COEFF * work_skew,
    )
    ipg = instructions / n_gpes * imbalance
    total_ws = np.maximum(
        unique_lines * params.CACHE_LINE_BYTES, resident_bytes
    )
    sf2 = shared_frac * params.TILE_SHARING_FACTOR

    # GPE->L1 crossbar: its load never varies along the config axis
    # (within one l1_type partition), only the shared/private mode
    # does — evaluate ``model_crossbar``'s shared case and select by
    # mask later (the private case is all zeros).
    x1_accesses = accesses / tiles
    if np.any(x1_accesses < 0) or np.any(ipg < 0):
        raise SimulationError("negative crossbar load")
    x1_rate = np.minimum(1.0, x1_accesses / (gpes * np.maximum(ipg, 1.0)))
    x1_collision = 1.0 - pow_exact(1.0 - x1_rate / gpes, gpes - 1)
    x1_idle = x1_accesses == 0
    cols = {
        "accesses": accesses,
        "instructions": instructions,
        "imbalance": imbalance,
        "ipg": ipg,
        "mlp": params.MLP
        * (params.MLP_STRIDE_FLOOR + params.MLP_STRIDE_SLOPE * stride),
        "ws_l1_shared": total_ws * ((1.0 - shared_frac) / tiles + shared_frac),
        "infl_l1_shared": (1.0 - shared_frac)
        + shared_frac * min(tiles, 2.0),
        "ws_l1_private": total_ws
        * ((1.0 - shared_frac) / (tiles * gpes) + shared_frac),
        "infl_l1_private": (1.0 - shared_frac)
        + shared_frac * min(gpes, params.REPLICATION_CAP_L1),
        "total_ws": total_ws,
        "ws_l2_private": total_ws * ((1.0 - sf2) / tiles + sf2),
        "infl_l2_private": (1.0 - sf2)
        + sf2 * min(tiles, params.REPLICATION_CAP_L2),
        "unique_words": unique_words,
        "unique_lines": unique_lines,
        "conflict": params.CONFLICT_BASE
        + params.CONFLICT_IRREGULAR * (1.0 - stride),
        "stride": stride,
        "reuse_locality": reuse_locality,
        "store_fraction": stores / np.maximum(accesses, 1e-9),
        "lcp_instr": (flops + int_ops + accesses)
        * params.LCP_WORK_FRACTION
        * (1.0 + work_skew)
        / tiles,
        "fp_per_gpe": fp_ops / n_gpes,
        "read_bytes_compulsory": read_bytes_compulsory,
        "write_bytes": write_bytes,
        "x1_contention": np.where(x1_idle, 0.0, x1_collision),
        "x1_extra": np.where(
            x1_idle,
            0.0,
            params.L1_SHARED_BASE_LATENCY
            - 1.0
            + x1_collision * params.XBAR_CONTENTION_PENALTY,
        ),
        "x1_transfers": x1_accesses,
    }
    return {name: values.reshape(-1, 1) for name, values in cols.items()}


def _config_scalars(
    machine: TransmuterModel, configs: Sequence[HardwareConfig], spm: bool
) -> Dict[str, np.ndarray]:
    """Config-only quantities via the original scalar functions.

    DVFS, SRAM energy and leakage involve ``pow``/``sqrt`` — computing
    them per distinct config with the scalar code guarantees their bits
    match the reference path. Shaped ``(1, n_configs)``.
    """
    tiles = machine.n_tiles
    gpes = machine.gpes_per_tile
    memory = machine.memory
    power = machine.power
    rows: Dict[str, List[float]] = {name: [] for name in (
        "freq_hz", "dyn_scale", "l1_energy", "l2_energy", "leak_w",
        "dram_latency", "cap_l1", "cap_l2", "conflict_add_l1",
        "conflict_add_l2", "coverage", "pollution_coef",
        "overfetch_coef", "l1_shared", "l2_shared",
    )}
    points: Dict[float, OperatingPoint] = {}
    for cfg in configs:
        point = points.get(cfg.clock_mhz)
        if point is None:
            point = points[cfg.clock_mhz] = operating_point(cfg.clock_mhz)
        l1_energy = _sram_access_energy(params.E_L1_BASE, cfg.l1_kb)
        if spm:
            l1_energy *= params.SPM_ENERGY_FACTOR
        l1_shared = cfg.l1_sharing == "shared"
        l2_shared = cfg.l2_sharing == "shared"
        sharers_l1 = gpes if l1_shared else 1
        sharers_l2 = tiles if l2_shared else 1
        rows["freq_hz"].append(cfg.clock_mhz * 1e6)
        rows["dyn_scale"].append(point.dynamic_scale)
        rows["l1_energy"].append(l1_energy)
        rows["l2_energy"].append(
            _sram_access_energy(params.E_L2_BASE, cfg.l2_kb)
        )
        rows["leak_w"].append(power.leakage_power(cfg, point))
        rows["dram_latency"].append(memory.latency_cycles(cfg.clock_mhz))
        rows["cap_l1"].append(
            cfg.l1_kb * 1024.0 * gpes if l1_shared else cfg.l1_kb * 1024.0
        )
        rows["cap_l2"].append(
            cfg.l2_kb * 1024.0 * tiles if l2_shared else cfg.l2_kb * 1024.0
        )
        rows["conflict_add_l1"].append(
            params.CONFLICT_SHARING * (1.0 - 1.0 / sharers_l1)
            if sharers_l1 > 1
            else 0.0
        )
        rows["conflict_add_l2"].append(
            params.CONFLICT_SHARING * (1.0 - 1.0 / sharers_l2)
            if sharers_l2 > 1
            else 0.0
        )
        rows["coverage"].append(params.PREFETCH_COVERAGE[cfg.prefetch])
        rows["pollution_coef"].append(params.PREFETCH_POLLUTION[cfg.prefetch])
        rows["overfetch_coef"].append(params.PREFETCH_OVERFETCH[cfg.prefetch])
        rows["l1_shared"].append(l1_shared)
        rows["l2_shared"].append(l2_shared)
    out = {
        name: np.asarray(values, dtype=np.float64).reshape(1, -1)
        for name, values in rows.items()
        if name not in ("l1_shared", "l2_shared")
    }
    out["l1_shared"] = np.asarray(rows["l1_shared"], dtype=bool).reshape(1, -1)
    out["l2_shared"] = np.asarray(rows["l2_shared"], dtype=bool).reshape(1, -1)
    return out


# ---------------------------------------------------------------------------
# Vectorized cache level (mirrors cache_model.model_level + residency)
# ---------------------------------------------------------------------------
def _model_level_vec(
    accesses_in,
    unique_words_in,
    unique_lines_in,
    working_set,
    capacity,
    stride,
    reuse_locality,
    coverage,
    pollution_coef,
    overfetch_coef,
    conflict_base,
    conflict_add,
) -> Dict[str, np.ndarray]:
    accesses = np.maximum(accesses_in, 1e-9)
    unique_words = np.minimum(unique_words_in, accesses)
    unique_lines = np.minimum(unique_lines_in, unique_words)
    # Scalar: ``min(...) or 1e-9`` — the fallback fires on exact zero.
    unique_lines = np.where(unique_lines == 0.0, 1e-9, unique_lines)

    pollution = pollution_coef * (1.0 - stride)
    overfetch_rate = overfetch_coef * (1.0 - stride)

    # residency(): capacity over working set with conflict discounts.
    effective = capacity * (1.0 - pollution)
    conflict = conflict_base + conflict_add
    with np.errstate(divide="ignore", invalid="ignore"):
        raw = np.minimum(1.0, effective / working_set)
        p_resident = np.maximum(0.0, raw * (1.0 - conflict))
    p_resident = np.where(working_set > 0.0, p_resident, 1.0)

    reuse_refs = np.maximum(0.0, accesses - unique_words)
    spatial_refs = np.maximum(0.0, unique_words - unique_lines)
    compulsory = unique_lines

    covered_lines = compulsory * stride * coverage
    prefetches_issued = covered_lines + compulsory * overfetch_rate
    overfetch_lines = compulsory * overfetch_rate

    spatial_hit_prob = np.maximum(p_resident, 0.8)
    spatial_density = np.maximum(
        0.0, 1.0 - unique_lines / np.maximum(unique_words, 1e-9)
    )
    refill_hit_prob = spatial_density * reuse_locality
    reuse_hit_prob = p_resident + (1.0 - p_resident) * refill_hit_prob
    hits = (
        reuse_refs * reuse_hit_prob
        + spatial_refs * spatial_hit_prob
        + covered_lines
    )
    hits = np.minimum(hits, accesses)
    misses = accesses - hits
    occupancy = np.minimum(1.0, working_set / np.maximum(capacity, 1e-9))
    return {
        "hits": hits,
        "misses": misses,
        "hit_rate": hits / accesses,
        "occupancy": occupancy,
        "prefetches_issued": prefetches_issued,
        "covered_lines": covered_lines,
        "overfetch_lines": overfetch_lines,
    }


def _model_l1_spm_vec(accesses_col, working_set, capacity):
    """Vector twin of ``TransmuterModel._model_l1_spm``."""
    mappable = working_set * params.SPM_MAPPABLE_FRACTION
    mapped_fraction = params.SPM_MAPPABLE_FRACTION * np.minimum(
        1.0, capacity / np.maximum(mappable, 1.0)
    )
    access_hit_fraction = np.minimum(
        0.98, mapped_fraction * params.SPM_HOT_ACCESS_BOOST
    )
    accesses = np.maximum(accesses_col, 1e-9)
    hits = accesses * access_hit_fraction
    misses = accesses - hits
    zeros = np.zeros(np.broadcast(hits, capacity).shape)
    return {
        "hits": hits,
        "misses": misses,
        "hit_rate": access_hit_fraction + zeros,
        "occupancy": np.minimum(
            1.0, working_set / np.maximum(capacity, 1e-9)
        )
        + zeros,
        "prefetches_issued": zeros,
        "covered_lines": zeros,
        "overfetch_lines": zeros,
    }


# ---------------------------------------------------------------------------
# The grid
# ---------------------------------------------------------------------------
#: EpochResult scalar fields held as (n_workloads, n_configs) arrays.
_FIELDS = (
    "time_s", "core_time_s", "memory_time_s",
    "dram_read_bytes", "dram_write_bytes",
    "core_dynamic", "l1_dynamic", "l2_dynamic", "xbar_dynamic",
    "dram", "leakage",
    "l1_access_rate", "l1_occupancy", "l1_miss_rate", "l1_prefetch_ratio",
    "l2_access_rate", "l2_occupancy", "l2_miss_rate", "l2_prefetch_ratio",
    "xbar_contention_ratio", "gpe_ipc", "gpe_fp_ipc", "lcp_ipc",
    "dram_read_utilization", "dram_write_utilization",
)

#: Cache hit rates, held for ``machine.epoch`` trace records only
#: (``1 - miss_rate`` would not round-trip bit-exactly).
_HIT_RATES = ("l1_hit_rate", "l2_hit_rate")

#: Counters held as grid fields (the rest echo the config or scale one).
_COUNTER_FIELDS = (
    "l1_access_rate", "l1_occupancy", "l1_miss_rate", "l1_prefetch_ratio",
    "l2_access_rate", "l2_occupancy", "l2_miss_rate", "l2_prefetch_ratio",
    "xbar_contention_ratio", "gpe_ipc", "gpe_fp_ipc", "lcp_ipc",
    "dram_read_utilization", "dram_write_utilization",
)

#: Rows of a grid's field stack: a cell is ``stack[:, i, j]``.
_STACKED = _FIELDS + _HIT_RATES

#: The fields a ``machine.epoch`` record carries.
_RECORD_FIELDS = (
    "time_s", "core_time_s", "memory_time_s",
    "dram_read_utilization", "dram_write_utilization",
) + _HIT_RATES


def _compute(
    machine: TransmuterModel,
    w: Dict[str, np.ndarray],
    c: Dict[str, np.ndarray],
    spm: bool,
    shape: Tuple[int, int],
) -> np.ndarray:
    """Evaluate one homogeneous-``l1_type`` grid; see module docstring.

    ``w`` and ``c`` are the per-workload and per-config scalars, shaped
    ``(n, 1)`` and ``(1, m)`` for a cross grid or both ``(1, n)`` for
    pairs; every expression broadcasts them to ``shape``. Returns the
    ``(len(_STACKED),) + shape`` stack, one row per field.
    """
    tiles = machine.n_tiles
    n_gpes = machine.n_gpes
    bandwidth = machine.memory.bandwidth_bytes_per_s

    # --- L1 ------------------------------------------------------------
    ws1 = np.where(c["l1_shared"], w["ws_l1_shared"], w["ws_l1_private"])
    if spm:
        l1 = _model_l1_spm_vec(w["accesses"], ws1, c["cap_l1"])
    else:
        inflation1 = np.where(
            c["l1_shared"], w["infl_l1_shared"], w["infl_l1_private"]
        )
        uw_inflated = w["unique_words"] * inflation1
        ul_inflated = w["unique_lines"] * inflation1
        l1 = _model_level_vec(
            accesses_in=w["accesses"],
            unique_words_in=np.minimum(uw_inflated, w["accesses"]),
            unique_lines_in=np.minimum(ul_inflated, uw_inflated),
            working_set=ws1,
            capacity=c["cap_l1"],
            stride=w["stride"],
            reuse_locality=w["reuse_locality"],
            coverage=c["coverage"],
            pollution_coef=c["pollution_coef"],
            overfetch_coef=c["overfetch_coef"],
            conflict_base=w["conflict"],
            conflict_add=c["conflict_add_l1"],
        )

    # --- L2 ------------------------------------------------------------
    ws2 = np.where(c["l2_shared"], w["total_ws"], w["ws_l2_private"])
    inflation2 = np.where(c["l2_shared"], 1.0, w["infl_l2_private"])
    l1_misses_floor = np.maximum(l1["misses"], 1e-9)
    unique2 = np.minimum(w["unique_lines"] * inflation2, l1_misses_floor)
    l2 = _model_level_vec(
        accesses_in=l1_misses_floor,
        unique_words_in=unique2,
        unique_lines_in=unique2,
        working_set=ws2,
        capacity=c["cap_l2"],
        stride=w["stride"],
        reuse_locality=w["reuse_locality"],
        coverage=c["coverage"],
        pollution_coef=c["pollution_coef"],
        overfetch_coef=c["overfetch_coef"],
        conflict_base=w["conflict"],
        conflict_add=c["conflict_add_l2"],
    )

    # --- Crossbars ------------------------------------------------------
    x1_contention = np.where(c["l1_shared"], w["x1_contention"], 0.0)
    x1_extra = np.where(c["l1_shared"], w["x1_extra"], 0.0)
    accesses_x2 = l1["misses"] / max(tiles, 1)
    cycles_x2 = np.maximum(w["ipg"], 1.0)
    rate_x2 = np.minimum(1.0, accesses_x2 / (tiles * cycles_x2))
    collision_x2 = 1.0 - pow_exact(1.0 - rate_x2 / tiles, tiles - 1)
    extra_x2_raw = (
        params.L1_SHARED_BASE_LATENCY
        - 1.0
        + collision_x2 * params.XBAR_CONTENTION_PENALTY
    )
    valid_x2 = c["l2_shared"] & (accesses_x2 != 0.0)
    x2_contention = np.where(valid_x2, collision_x2, 0.0)
    x2_extra = np.where(valid_x2, extra_x2_raw, 0.0)

    # --- Stalls and core time ------------------------------------------
    l2_hit_latency = params.L2_LATENCY + x2_extra
    l2_hits = l1["misses"] * l2["hit_rate"]
    l2_misses = l1["misses"] - l2_hits
    covered = np.minimum(l2["covered_lines"], l2_misses)
    uncovered = l2_misses - covered
    stalls = (
        w["accesses"] * x1_extra
        + l2_hits * l2_hit_latency
        + covered * l2_hit_latency
        + uncovered * c["dram_latency"]
    )
    stalls_per_gpe = stalls / n_gpes * w["imbalance"] / w["mlp"]
    cycles_per_gpe = w["ipg"] + stalls_per_gpe
    core_time = cycles_per_gpe / c["freq_hz"]

    # --- DRAM traffic and roofline -------------------------------------
    line = params.CACHE_LINE_BYTES
    read_bytes = line * (
        l2["misses"] * params.REFETCH_LINE_FACTOR + l2["overfetch_lines"]
    )
    read_bytes = np.maximum(read_bytes, w["read_bytes_compulsory"])
    evict_bytes = line * l2["misses"] * w["store_fraction"] * 0.5
    write_bytes = w["write_bytes"] + evict_bytes
    memory_time = (read_bytes + write_bytes) / bandwidth
    p = params.ROOFLINE_SMOOTHNESS
    elapsed = pow_exact(
        pow_exact(core_time, p) + pow_exact(memory_time, p), 1.0 / p
    )
    window = np.maximum(elapsed, 1e-15)
    bw_capacity = bandwidth * window
    read_utilization = np.minimum(1.0, read_bytes / bw_capacity)
    write_utilization = np.minimum(1.0, write_bytes / bw_capacity)

    # --- Energy ---------------------------------------------------------
    l1_accesses_e = w["accesses"] + l1["prefetches_issued"]
    l2_accesses_e = l1["misses"] + l2["prefetches_issued"]
    xbar_transfers = w["x1_transfers"] * tiles + accesses_x2 * tiles
    dram_bytes = read_bytes + write_bytes
    scale = c["dyn_scale"]

    # --- Counters --------------------------------------------------------
    cycles = np.maximum(cycles_per_gpe, 1e-9)
    gpe_ipc = np.minimum(1.0, w["ipg"] / cycles)
    gpe_fp_ipc = np.minimum(gpe_ipc, w["fp_per_gpe"] / cycles)
    lcp_ipc = np.minimum(1.0, w["lcp_instr"] / cycles)

    grid = {
        "time_s": elapsed,
        "core_time_s": core_time,
        "memory_time_s": memory_time,
        "dram_read_bytes": read_bytes,
        "dram_write_bytes": write_bytes,
        "core_dynamic": w["instructions"] * params.E_CORE_OP * scale,
        "l1_dynamic": l1_accesses_e * c["l1_energy"] * scale,
        "l2_dynamic": l2_accesses_e * c["l2_energy"] * scale,
        "xbar_dynamic": xbar_transfers * params.E_XBAR_TRANSFER * scale,
        "dram": dram_bytes * params.E_DRAM_BYTE,
        "leakage": c["leak_w"] * elapsed,
        "l1_access_rate": w["accesses"] / cycles / n_gpes,
        "l1_occupancy": l1["occupancy"],
        "l1_miss_rate": 1.0 - l1["hit_rate"],
        "l1_prefetch_ratio": l1["prefetches_issued"]
        / np.maximum(w["accesses"], 1e-9),
        "l2_access_rate": l1["misses"] / cycles / tiles,
        "l2_occupancy": l2["occupancy"],
        "l2_miss_rate": 1.0 - l2["hit_rate"],
        "l2_prefetch_ratio": l2["prefetches_issued"]
        / np.maximum(l1["misses"], 1e-9),
        "xbar_contention_ratio": np.maximum(x1_contention, x2_contention),
        "gpe_ipc": gpe_ipc,
        "gpe_fp_ipc": gpe_fp_ipc,
        "lcp_ipc": lcp_ipc,
        "dram_read_utilization": read_utilization,
        "dram_write_utilization": write_utilization,
        "l1_hit_rate": l1["hit_rate"],
        "l2_hit_rate": l2["hit_rate"],
    }
    stack = np.empty((len(_STACKED),) + shape)
    for row, name in zip(stack, _STACKED):
        row[...] = grid[name]
    return stack


def _distinct(
    items: Sequence, key: Callable = lambda item: item
) -> Tuple[np.ndarray, list]:
    """Index of each item into the list of its distinct values."""
    position: Dict[object, int] = {}
    unique: list = []
    index: List[int] = []
    for item in items:
        k = key(item)
        if k not in position:
            position[k] = len(unique)
            unique.append(item)
        index.append(position[k])
    return np.asarray(index, dtype=np.intp), unique


def _gather(
    scalars: Dict[str, np.ndarray], index: np.ndarray
) -> Dict[str, np.ndarray]:
    """Per-distinct-item scalars spread to one ``(1, n)`` row."""
    return {
        name: values.reshape(-1)[index].reshape(1, -1)
        for name, values in scalars.items()
    }


def _cross_fields(
    machine: TransmuterModel,
    workloads: Sequence[EpochWorkload],
    configs: Sequence[HardwareConfig],
    indices: Sequence[int],
) -> np.ndarray:
    """Config columns ``indices`` of the ``workloads x configs`` grid."""
    columns = [configs[j] for j in indices]
    spm = columns[0].l1_type == "spm"
    return _compute(
        machine,
        _workload_scalars(machine, workloads, spm),
        _config_scalars(machine, columns, spm),
        spm,
        (len(workloads), len(columns)),
    )


def _paired_fields(
    machine: TransmuterModel,
    workloads: Sequence[EpochWorkload],
    configs: Sequence[HardwareConfig],
    indices: Sequence[int],
) -> np.ndarray:
    """Pairs ``indices``, each distinct workload and config done once.

    Workloads are told apart by identity (a search pairs one workload
    object with many configs), configs by value.
    """
    spm = configs[indices[0]].l1_type == "spm"
    w_index, w_unique = _distinct([workloads[k] for k in indices], key=id)
    c_index, c_unique = _distinct([configs[k] for k in indices])
    return _compute(
        machine,
        _gather(_workload_scalars(machine, w_unique, spm), w_index),
        _gather(_config_scalars(machine, c_unique, spm), c_index),
        spm,
        (1, len(indices)),
    )


def _frozen(cls, **fields):
    """A frozen dataclass instance, built without its ``__init__``.

    The generated ``__init__`` of a frozen dataclass sets each field
    through ``object.__setattr__``; filling ``__dict__`` in one update
    gives an equal object (same fields, same ``==`` and ``hash``) at a
    fraction of the cost. Only for classes without ``__post_init__``,
    whose ``__init__`` checks nothing: ``EnergyBreakdown``,
    ``PerformanceCounters`` and ``EpochResult``. Pass the fields in
    declaration order so ``vars()`` lists them as ``__init__`` would.
    """
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


class _ResultRow:
    """Lazy list-like view of one workload's results across configs."""

    __slots__ = ("_grid", "_index")

    def __init__(self, grid: "EpochGrid", index: int) -> None:
        self._grid = grid
        self._index = index

    def __len__(self) -> int:
        return self._grid.n_configs

    def __getitem__(self, j: int) -> EpochResult:
        return self._grid.result(self._index, j)

    def __iter__(self):
        for j in range(len(self)):
            yield self[j]


class EpochGrid:
    """Batched, lazily materialized epoch-model results.

    The cross form, ``EpochGrid(machine, workloads, configs)``, holds
    ``workloads x configs``: cell ``(i, j)`` runs ``workloads[i]`` under
    ``configs[j]``. The paired form, :meth:`paired`, holds one row whose
    cell ``(0, k)`` runs the ``k``-th (workload, config) pair; its
    ``workloads`` and ``configs`` are the per-pair lists. Both forms
    evaluate through the same expressions and report one
    ``machine.epoch`` record per cell, row-major (pair order).
    """

    def __init__(
        self,
        machine: TransmuterModel,
        workloads: Sequence[EpochWorkload],
        configs: Sequence[HardwareConfig],
        paired: bool = False,
    ) -> None:
        if not workloads or not configs:
            raise SimulationError("epoch grid needs workloads and configs")
        if paired and len(workloads) != len(configs):
            raise SimulationError("paired grid needs one config per workload")
        self.machine = machine
        self.workloads = list(workloads)
        self.configs = list(configs)
        self.paired = paired
        self.n_workloads = 1 if paired else len(self.workloads)
        self.n_configs = len(self.configs)
        compute = _paired_fields if paired else _cross_fields
        with obs_profile.span("epoch_batch"):
            by_type: Dict[str, List[int]] = {}
            for j, cfg in enumerate(self.configs):
                by_type.setdefault(cfg.l1_type, []).append(j)
            if len(by_type) == 1:
                stack = compute(
                    machine, self.workloads, self.configs,
                    range(self.n_configs),
                )
            else:
                stack = np.empty(
                    (len(_STACKED), self.n_workloads, self.n_configs)
                )
                for indices in by_type.values():
                    stack[:, :, indices] = compute(
                        machine, self.workloads, self.configs, indices
                    )
        stack.flags.writeable = False
        self._stack = stack
        self._fields = dict(zip(_STACKED, stack))
        self._cache: Dict[int, EpochResult] = {}
        recorder = get_recorder()
        if recorder.enabled:
            self._record(recorder)

    @classmethod
    def paired(
        cls,
        machine: TransmuterModel,
        pairs: Sequence[Tuple[EpochWorkload, HardwareConfig]],
    ) -> "EpochGrid":
        """The paired form: one ``(1, len(pairs))`` row, cell k = pair k."""
        return cls(
            machine,
            [workload for workload, _ in pairs],
            [config for _, config in pairs],
            paired=True,
        )

    def _cell(self, i: int, j: int) -> Tuple[EpochWorkload, HardwareConfig]:
        """The (workload, config) a cell evaluates."""
        return self.workloads[j if self.paired else i], self.configs[j]

    def _record(self, recorder: TraceRecorder) -> None:
        """One ``machine.epoch`` record per cell, row-major."""
        f = {name: self._fields[name].tolist() for name in _RECORD_FIELDS}
        for i in range(self.n_workloads):
            for j in range(self.n_configs):
                record_epoch(
                    recorder,
                    *self._cell(i, j),
                    **{name: values[i][j] for name, values in f.items()},
                )

    # ------------------------------------------------------------------
    @property
    def times(self) -> np.ndarray:
        """Epoch durations, seconds, shape (n_workloads, n_configs)."""
        return np.array(self._fields["time_s"])

    @property
    def energies(self) -> np.ndarray:
        """Total epoch energies, joules, same shape as :attr:`times`."""
        f = self._fields
        # EnergyBreakdown.total sums the components left to right.
        return (
            f["core_dynamic"]
            + f["l1_dynamic"]
            + f["l2_dynamic"]
            + f["xbar_dynamic"]
            + f["dram"]
            + f["leakage"]
        )

    def counter_columns(self) -> Dict[str, np.ndarray]:
        """Every :class:`PerformanceCounters` field as a grid-shaped array.

        Keyed in field order; each cell equals the counter of
        :meth:`result` bit for bit, without materializing any result.
        """
        f = self._fields
        shape = (self.n_workloads, self.n_configs)

        def per_config(values):
            row = np.asarray(values, dtype=np.float64).reshape(1, -1)
            return np.broadcast_to(row, shape)

        columns = {name: f[name] for name in _COUNTER_FIELDS}
        columns["l1_capacity_kb"] = per_config(
            [float(config.l1_kb) for config in self.configs]
        )
        columns["l2_capacity_kb"] = per_config(
            [float(config.l2_kb) for config in self.configs]
        )
        columns["lcp_fp_ipc"] = f["lcp_ipc"] * 0.4
        columns["clock_mhz"] = per_config(
            [config.clock_mhz for config in self.configs]
        )
        return {
            name: columns[name]
            for name in PerformanceCounters.feature_names()
        }

    def rows(self) -> List[_ResultRow]:
        """Lazy ``results[i][j]``-style view (EpochTable contract)."""
        return [_ResultRow(self, i) for i in range(self.n_workloads)]

    # ------------------------------------------------------------------
    def result(self, i: int, j: int) -> EpochResult:
        """Materialize the :class:`EpochResult` of one grid cell."""
        key = i * self.n_configs + j
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        # Unbox only this cell, in one call: a scheme reads a small share
        # of its table, so converting whole grids would mostly feed the GC.
        (
            time_s, core_time_s, memory_time_s,
            dram_read_bytes, dram_write_bytes,
            core_dynamic, l1_dynamic, l2_dynamic, xbar_dynamic,
            dram, leakage,
            l1_access_rate, l1_occupancy, l1_miss_rate, l1_prefetch_ratio,
            l2_access_rate, l2_occupancy, l2_miss_rate, l2_prefetch_ratio,
            xbar_contention_ratio, gpe_ipc, gpe_fp_ipc, lcp_ipc,
            dram_read_utilization, dram_write_utilization,
        ) = self._stack[:len(_FIELDS), i, j].tolist()
        workload, config = self._cell(i, j)
        result = _frozen(
            EpochResult,
            time_s=time_s,
            energy=_frozen(
                EnergyBreakdown,
                core_dynamic=core_dynamic,
                l1_dynamic=l1_dynamic,
                l2_dynamic=l2_dynamic,
                xbar_dynamic=xbar_dynamic,
                dram=dram,
                leakage=leakage,
            ),
            counters=_frozen(
                PerformanceCounters,
                l1_access_rate=l1_access_rate,
                l1_occupancy=l1_occupancy,
                l1_miss_rate=l1_miss_rate,
                l1_prefetch_ratio=l1_prefetch_ratio,
                l1_capacity_kb=float(config.l1_kb),
                l2_access_rate=l2_access_rate,
                l2_occupancy=l2_occupancy,
                l2_miss_rate=l2_miss_rate,
                l2_prefetch_ratio=l2_prefetch_ratio,
                l2_capacity_kb=float(config.l2_kb),
                xbar_contention_ratio=xbar_contention_ratio,
                gpe_ipc=gpe_ipc,
                gpe_fp_ipc=gpe_fp_ipc,
                lcp_ipc=lcp_ipc,
                lcp_fp_ipc=lcp_ipc * 0.4,
                clock_mhz=config.clock_mhz,
                dram_read_utilization=dram_read_utilization,
                dram_write_utilization=dram_write_utilization,
            ),
            core_time_s=core_time_s,
            memory_time_s=memory_time_s,
            dram_read_bytes=dram_read_bytes,
            dram_write_bytes=dram_write_bytes,
            flops=workload.flops,
            fp_ops=workload.fp_ops,
        )
        self._cache[key] = result
        return result

