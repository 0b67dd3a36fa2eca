"""Ablation studies of SparseAdapt's design choices (DESIGN.md §5).

1. **Configuration echo** (paper Section 4.2's key insight): training
   and inferring with the current configuration parameters as features
   vs. a counters-only model.
2. **Outer- vs inner-product SpMSpM** (paper Section 5.4's algorithm
   choice): modeled cost of both formulations across a density sweep.
3. **Epoch size** (paper Section 5.4 sweeps 250-4k FP-ops for SpMSpV).
"""

import numpy as np

from benchmarks.conftest import run_once
from repro.baselines import BASELINE, run_static
from repro.core import (
    HybridPolicy,
    OptimizationMode,
    SparseAdaptController,
    build_training_set,
    table3_phases,
    train_default_model,
    train_model,
)
from repro.core.ablation import train_counters_only_model
from repro.core.training import QUICK_PARAM_GRID
from repro.experiments.harness import build_trace
from repro.experiments.reporting import format_gain_table, format_scalar_table
from repro.kernels import trace_spmspm, trace_spmspm_inner
from repro.sparse import generators
from repro.transmuter import TransmuterModel

EE = OptimizationMode.ENERGY_EFFICIENT


def _config_echo_ablation():
    phases = table3_phases("spmspv")
    training_set = build_training_set(phases, EE, k_samples=24, seed=0)
    full_model = train_model(training_set, param_grid=QUICK_PARAM_GRID)
    ablated_model = train_counters_only_model(training_set)

    machine = TransmuterModel()
    rows = {}
    for matrix_id in ("P2", "P3"):
        trace = build_trace("spmspv", matrix_id, scale=0.4)
        baseline = run_static(machine, trace, {"Baseline": BASELINE})[
            "Baseline"
        ]
        gains = {}
        for label, model in (
            ("with_config_echo", full_model),
            ("counters_only", ablated_model),
        ):
            schedule = SparseAdaptController(
                model, machine, EE, HybridPolicy(0.4), BASELINE
            ).run(trace)
            gains[label] = (
                schedule.gflops_per_watt / baseline.gflops_per_watt
            )
        rows[matrix_id] = gains
    return rows


def test_ablation_config_echo(benchmark, emit):
    rows = run_once(benchmark, _config_echo_ablation)
    emit(
        format_gain_table(
            "Ablation 1 - configuration-echo features"
            " (EE efficiency gains over Baseline)",
            rows,
            ("with_config_echo", "counters_only"),
        )
    )
    for gains in rows.values():
        # The echo must not hurt; it usually helps. (Its main value is
        # removing the profiling configuration — see bench_sec64.)
        assert gains["with_config_echo"] >= 0.95 * gains["counters_only"]
        # EXPERIMENTS.md: the counters-only model never beats the echo.
        assert gains["with_config_echo"] >= gains["counters_only"]


def _op_vs_ip_sweep():
    machine = TransmuterModel()
    out = {}
    n = 192
    for density in (0.005, 0.02, 0.08, 0.25):
        matrix = generators.uniform_random(n, n, density, seed=9)
        a_csc = matrix.to_csc()
        b_csr = matrix.transpose().to_csr()
        outer = run_static(
            machine, trace_spmspm(a_csc, b_csr), {"outer": BASELINE}
        )["outer"]
        inner = run_static(
            machine, trace_spmspm_inner(a_csc, b_csr), {"inner": BASELINE}
        )["inner"]
        out[f"density={density:g}"] = {
            "outer_time_ms": outer.total_time_s * 1e3,
            "inner_time_ms": inner.total_time_s * 1e3,
            "inner_over_outer": inner.total_time_s / outer.total_time_s,
        }
    return out


def test_ablation_outer_vs_inner_product(benchmark, emit):
    rows = run_once(benchmark, _op_vs_ip_sweep)
    emit(
        format_gain_table(
            "Ablation 2 - outer- vs inner-product SpMSpM"
            " (Baseline config, modeled time)",
            rows,
            ("outer_time_ms", "inner_time_ms", "inner_over_outer"),
            value_format="{:8.3f}",
        )
    )
    ratios = [row["inner_over_outer"] for row in rows.values()]
    # At the paper's low densities the outer product wins clearly...
    assert ratios[0] > 1.5
    # ...and the gap narrows monotonically as density rises.
    assert ratios == sorted(ratios, reverse=True)
    # EXPERIMENTS.md: the inner product wins only past 2% density.
    assert rows["density=0.02"]["inner_over_outer"] > 1.0
    assert rows["density=0.08"]["inner_over_outer"] < 1.0


def _epoch_size_sweep():
    machine = TransmuterModel()
    model = train_default_model(EE, kernel="spmspv")
    out = {}
    for epoch_fp_ops in (125.0, 250.0, 500.0, 1000.0, 2000.0, 8000.0):
        trace = build_trace(
            "spmspv", "P3", scale=0.4, epoch_fp_ops=epoch_fp_ops
        )
        baseline = run_static(machine, trace, {"Baseline": BASELINE})[
            "Baseline"
        ]
        schedule = SparseAdaptController(
            model, machine, EE, HybridPolicy(0.4), BASELINE
        ).run(trace)
        out[f"epoch={int(epoch_fp_ops)}"] = {
            "efficiency_gain": (
                schedule.gflops_per_watt / baseline.gflops_per_watt
            ),
            "reconfigurations": float(schedule.n_reconfigurations),
        }
    return out


def test_ablation_epoch_size(benchmark, emit):
    rows = run_once(benchmark, _epoch_size_sweep)
    emit(
        format_gain_table(
            "Ablation 3 - epoch-size sweep (SpMSpV P3, EE mode; the"
            " paper picked 500 FP-ops from a 250-4k sweep)",
            rows,
            ("efficiency_gain", "reconfigurations"),
        )
    )
    gains = [row["efficiency_gain"] for row in rows.values()]
    # Every epoch size must produce a working controller with gains.
    assert all(g > 1.0 for g in gains)
    # EXPERIMENTS.md: the sweep peaks at the paper's 500 FP-op choice.
    best = max(rows, key=lambda name: rows[name]["efficiency_gain"])
    assert best == "epoch=500"
