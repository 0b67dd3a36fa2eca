"""Section 7 — regular kernels: dynamic control is overkill.

Paper shape: for GeMM and Conv the gap between Ideal Static and the
Oracle is under ~5%, i.e. a static configuration captures essentially
all the benefit for regular workloads.
"""

from benchmarks.conftest import run_once
from repro.baselines import BASELINE, EpochTable, ideal_static, oracle
from repro.core.modes import OptimizationMode
from repro.experiments.reporting import format_scalar_table
from repro.kernels import trace_conv, trace_gemm
from repro.transmuter.machine import TransmuterModel

EE = OptimizationMode.ENERGY_EFFICIENT


def test_sec7_regular_kernels(benchmark, emit):
    def headroom():
        """Oracle GFLOPS/W over Ideal Static, minus one, per kernel."""
        machine = TransmuterModel()
        gaps = {}
        traces = {
            "gemm": trace_gemm(96, 96, 96),
            "conv": trace_conv(96, 96, kernel=3),
        }
        for name, trace in traces.items():
            table = EpochTable(
                machine, trace, n_samples=64, seed=0, include=[BASELINE]
            )
            static = ideal_static(table, EE)
            best_dynamic = oracle(table, EE)
            gaps[name] = (
                best_dynamic.gflops_per_watt / static.gflops_per_watt - 1.0
            )
        return gaps

    gaps = run_once(benchmark, headroom)
    emit(
        format_scalar_table(
            "Section 7 - Oracle efficiency headroom over Ideal Static"
            " (fraction; paper: < 0.05)",
            gaps,
            value_format="{:8.4f}",
        )
    )
    for kernel, gap in gaps.items():
        assert gap >= -1e-9, f"oracle worse than static for {kernel}"
        assert gap < 0.05, f"regular kernel {kernel} shows dynamic headroom"
