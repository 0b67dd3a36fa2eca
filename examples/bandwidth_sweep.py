"""Deploy SparseAdapt across memory-bandwidth scenarios — no retraining.

The paper's Figure 11 (right): the same trained model is deployed on
systems with different external memory bandwidths (e.g. bandwidth
shared with concurrent kernels, or a different memory technology) and
keeps delivering gains, largest when the system is memory-bound.

Run with::

    python examples/bandwidth_sweep.py
"""

from __future__ import annotations

from repro.core import (
    HybridPolicy,
    OptimizationMode,
    SparseAdaptController,
    train_default_model,
)
from repro.baselines import BASELINE, BEST_AVG_CACHE, run_static
from repro.experiments.harness import build_trace
from repro.transmuter import TransmuterModel


def main() -> None:
    mode = OptimizationMode.ENERGY_EFFICIENT
    model = train_default_model(mode, kernel="spmspv")  # trained at 2x8
    trace = build_trace("spmspv", "P3", scale=0.4)
    print(f"workload: {trace.name}, {trace.n_epochs} epochs\n")
    print(
        f"{'bandwidth':>10} {'SparseAdapt':>12} {'Baseline':>10} "
        f"{'gain':>6} {'vs BestAvg':>11}"
    )
    for bandwidth in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0):
        machine = TransmuterModel(bandwidth_gbps=bandwidth)
        controller = SparseAdaptController(
            model=model,
            machine=machine,
            mode=mode,
            policy=HybridPolicy(0.40),
            initial_config=BASELINE,
        )
        adaptive = controller.run(trace)
        statics = run_static(
            machine,
            trace,
            {"Baseline": BASELINE, "Best Avg": BEST_AVG_CACHE},
        )
        baseline, best_avg = statics["Baseline"], statics["Best Avg"]
        print(
            f"{bandwidth:>8.2f}GB {adaptive.gflops_per_watt:>12.4f} "
            f"{baseline.gflops_per_watt:>10.4f} "
            f"{adaptive.gflops_per_watt / baseline.gflops_per_watt:>5.2f}x "
            f"{adaptive.gflops_per_watt / best_avg.gflops_per_watt:>10.2f}x"
        )
    print(
        "\nGains are largest when memory-bound (low bandwidth) and taper"
        "\ntowards the compute-bound end - Figure 11 (right)."
    )


if __name__ == "__main__":
    main()
