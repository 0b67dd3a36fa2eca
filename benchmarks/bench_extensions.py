"""Extension studies beyond the paper's evaluation.

1. **Dynamic memory-mode switching** (paper Section 7): the
   MemoryModeController vs. the per-type compile-time choices it
   subsumes.
2. **Additional graph workloads** (PageRank, connected components) on
   the adaptive runtime — the GraphBLAS-style breadth the paper's
   framework targets.
"""

import numpy as np

from benchmarks.conftest import run_once
from repro.baselines import BASELINE, run_static, spm_variant
from repro.core import (
    HybridPolicy,
    MemoryModeController,
    OptimizationMode,
    SparseAdaptController,
    train_default_model,
    train_memory_mode_model,
)
from repro.experiments.harness import build_trace
from repro.experiments.reporting import format_gain_table
from repro.graph import connected_components, pagerank
from repro.sparse import suite
from repro.transmuter import TransmuterModel

EE = OptimizationMode.ENERGY_EFFICIENT


def _memory_mode_study():
    machine = TransmuterModel()
    memory_model = train_memory_mode_model(EE, kernel="spmspv", quick=True)
    rows = {}
    for matrix_id in ("P3", "R09", "R13"):
        trace = build_trace("spmspv", matrix_id, scale=0.35)
        statics = run_static(
            machine,
            trace,
            {"cache": BASELINE, "spm": spm_variant(BASELINE)},
        )
        cache_static, spm_static = statics["cache"], statics["spm"]
        cache_adaptive = SparseAdaptController(
            memory_model.cache_model, machine, EE, HybridPolicy(0.4), BASELINE
        ).run(trace)
        controller = MemoryModeController(
            memory_model, machine, EE, HybridPolicy(0.4), BASELINE
        )
        adaptive = controller.run(trace)
        base = cache_static.gflops_per_watt
        rows[matrix_id] = {
            "spm_static": spm_static.gflops_per_watt / base,
            "cache_adaptive": cache_adaptive.gflops_per_watt / base,
            "memory_mode": adaptive.gflops_per_watt / base,
            "type_switches": float(controller.n_type_switches),
        }
    return rows


def test_ext_memory_mode(benchmark, emit):
    rows = run_once(benchmark, _memory_mode_study)
    emit(
        format_gain_table(
            "Extension 1 - dynamic memory-mode switching (Section 7)"
            " - EE efficiency gains over the cache Baseline",
            rows,
            ("spm_static", "cache_adaptive", "memory_mode", "type_switches"),
        )
    )
    for gains in rows.values():
        # The memory-mode controller must never lose to the same-type
        # adaptive controller it extends (it can only add switches that
        # passed its amortization guard).
        assert gains["memory_mode"] >= 0.95 * gains["cache_adaptive"]


def _graph_workloads_study():
    machine = TransmuterModel()
    model = train_default_model(EE, kernel="spmspv")
    rows = {}
    for matrix_id in ("R10", "R14"):
        graph = suite.load(matrix_id, scale=0.25)
        csc = graph.to_csc()
        for name, trace in (
            ("pagerank", pagerank(csc, max_iterations=10).trace),
            ("components", connected_components(csc).trace),
        ):
            baseline = run_static(machine, trace, {"Baseline": BASELINE})[
                "Baseline"
            ]
            adaptive = SparseAdaptController(
                model, machine, EE, HybridPolicy(0.4), BASELINE
            ).run(trace)
            rows[f"{name}-{matrix_id}"] = {
                "epochs": float(trace.n_epochs),
                "efficiency_gain": (
                    adaptive.gflops_per_watt / baseline.gflops_per_watt
                ),
            }
    return rows


def test_ext_graph_workloads(benchmark, emit):
    rows = run_once(benchmark, _graph_workloads_study)
    emit(
        format_gain_table(
            "Extension 2 - PageRank / connected components under"
            " SparseAdapt (EE efficiency gains over Baseline)",
            rows,
            ("epochs", "efficiency_gain"),
        )
    )
    gains = [row["efficiency_gain"] for row in rows.values()]
    assert all(g > 1.0 for g in gains)
