"""Advanced controller variants side by side.

Compares, on one power-law SpMSpV workload:

* the stock SparseAdapt controller,
* the dynamic memory-mode controller (paper Section 7: runtime
  cache <-> SPM switching),
* the stock controller under noisy telemetry (deployment robustness).

Run with::

    python examples/advanced_controllers.py
"""

from __future__ import annotations

from repro.baselines import BASELINE, run_static
from repro.core import (
    HardeningConfig,
    HybridPolicy,
    MemoryModeController,
    OptimizationMode,
    SparseAdaptController,
    train_default_model,
    train_memory_mode_model,
)
from repro.experiments.harness import build_trace
from repro.faults import noise_schedule
from repro.transmuter import TransmuterModel


def main() -> None:
    mode = OptimizationMode.ENERGY_EFFICIENT
    machine = TransmuterModel()
    trace = build_trace("spmspv", "P3", scale=0.4)
    baseline = run_static(machine, trace, {"Baseline": BASELINE})["Baseline"]
    print(f"workload: {trace.name}, {trace.n_epochs} epochs")
    print(
        f"static Baseline: {baseline.gflops_per_watt:.3f} GFLOPS/W\n"
    )

    model = train_default_model(mode, kernel="spmspv")
    memory_model = train_memory_mode_model(mode, kernel="spmspv")

    controllers = {
        "stock SparseAdapt": SparseAdaptController(
            model, machine, mode, HybridPolicy(0.4), BASELINE
        ),
        "memory-mode": MemoryModeController(
            memory_model, machine, mode, HybridPolicy(0.4), BASELINE
        ),
        "stock + 15% counter noise": SparseAdaptController(
            model,
            machine,
            mode,
            HybridPolicy(0.4),
            BASELINE,
            faults=noise_schedule(0.15, seed=1),
            hardening=HardeningConfig.disabled(),
        ),
    }

    print(f"{'controller':28} {'GFLOPS/W':>9} {'gain':>6} {'reconfigs':>10}")
    for name, controller in controllers.items():
        schedule = controller.run(trace)
        extra = ""
        if isinstance(controller, MemoryModeController):
            extra = f"  ({controller.n_type_switches} type switches)"
        print(
            f"{name:28} {schedule.gflops_per_watt:>9.3f} "
            f"{schedule.gflops_per_watt / baseline.gflops_per_watt:>5.2f}x "
            f"{schedule.n_reconfigurations:>10}{extra}"
        )

    print(
        "\nWhere the energy goes under the stock controller:"
    )
    stock = controllers["stock SparseAdapt"].run(trace)
    total = stock.total_energy_j
    for component, energy in sorted(
        stock.energy_breakdown().items(), key=lambda kv: -kv[1]
    ):
        if energy > 0:
            print(f"  {component:<16} {energy / total:6.1%}")


if __name__ == "__main__":
    main()
