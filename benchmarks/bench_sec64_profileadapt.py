"""Section 6.4 — comparison against ProfileAdapt (Dubach et al.).

Paper shapes: against the naive ProfileAdapt (profiling switch at
every epoch), SparseAdapt gains 2.8x GFLOPS and 2.0x GFLOPS/W in
Power-Performance mode and 2.9x GFLOPS/W in Energy-Efficient mode;
against the ideal variant (perfect external phase detector) the gains
shrink but remain >= ~1.1x. ProfileAdapt runs at its own best epoch
size, chosen by sweep, exactly as the paper does.
"""

import numpy as np

from benchmarks.conftest import run_once
from repro.core.modes import OptimizationMode
from repro.core.policies import HybridPolicy
from repro.core.training import train_default_model
from repro.experiments.harness import (
    EvaluationContext,
    build_trace,
    evaluate_schemes,
)
from repro.experiments.reporting import format_gain_table
from repro.transmuter.machine import TransmuterModel

MATRICES = ("R09", "R10", "R12", "R15")
SCALE = 0.2
#: ProfileAdapt's candidate epoch sizes (FP ops); each variant keeps
#: its best.
PA_EPOCH_FP_OPS = (2000.0, 4000.0, 6000.0)
N_SAMPLES = 48
RATIOS = ("perf_vs_naive", "eff_vs_naive", "perf_vs_ideal", "eff_vs_ideal")


def _best_profileadapt(matrix_id, mode):
    """Each ProfileAdapt variant at its best epoch size on one input."""
    best = {}
    for epoch_size in PA_EPOCH_FP_OPS:
        trace = build_trace(
            "spmspv", matrix_id, scale=SCALE, epoch_fp_ops=epoch_size
        )
        context = EvaluationContext(
            trace=trace,
            machine=TransmuterModel(),
            mode=mode,
            n_samples=N_SAMPLES,
            profiling_epoch_trace=trace,
        )
        candidates = evaluate_schemes(
            context, ("ProfileAdapt Naive", "ProfileAdapt Ideal")
        )
        for name, schedule in candidates.items():
            if name not in best or schedule.metric(mode) > best[name].metric(
                mode
            ):
                best[name] = schedule
    return best["ProfileAdapt Naive"], best["ProfileAdapt Ideal"]


def test_sec64_profileadapt(benchmark, emit):
    def geomean_ratios():
        """SparseAdapt / ProfileAdapt geomean ratios per mode (SpMSpV,
        L1 cache, hybrid 40%)."""
        rows = {}
        for key, mode in (
            ("PP", OptimizationMode.POWER_PERFORMANCE),
            ("EE", OptimizationMode.ENERGY_EFFICIENT),
        ):
            model = train_default_model(mode, kernel="spmspv")
            ratios = {name: [] for name in RATIOS}
            for matrix_id in MATRICES:
                context = EvaluationContext(
                    trace=build_trace("spmspv", matrix_id, scale=SCALE),
                    machine=TransmuterModel(),
                    mode=mode,
                    model=model,
                    policy=HybridPolicy(0.40),
                    n_samples=N_SAMPLES,
                )
                ours = evaluate_schemes(context, ("SparseAdapt",))[
                    "SparseAdapt"
                ]
                naive, ideal = _best_profileadapt(matrix_id, mode)
                ratios["perf_vs_naive"].append(ours.gflops / naive.gflops)
                ratios["eff_vs_naive"].append(
                    ours.gflops_per_watt / naive.gflops_per_watt
                )
                ratios["perf_vs_ideal"].append(ours.gflops / ideal.gflops)
                ratios["eff_vs_ideal"].append(
                    ours.gflops_per_watt / ideal.gflops_per_watt
                )
            rows[key] = {
                name: float(np.exp(np.mean(np.log(values))))
                for name, values in ratios.items()
            }
        return rows

    rows = run_once(benchmark, geomean_ratios)
    emit(
        format_gain_table(
            "Section 6.4 - SparseAdapt / ProfileAdapt geomean ratios"
            " (SpMSpV, L1 cache)",
            rows,
            RATIOS,
        )
    )
    # SparseAdapt clearly beats the naive scheme on efficiency.
    assert rows["PP"]["eff_vs_naive"] > 1.3
    assert rows["EE"]["eff_vs_naive"] > 1.3
    # The ideal phase detector narrows but does not close the gap.
    assert rows["EE"]["eff_vs_ideal"] > 0.95
    assert rows["EE"]["eff_vs_naive"] > rows["EE"]["eff_vs_ideal"]
