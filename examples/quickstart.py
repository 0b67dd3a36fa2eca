"""Quickstart: offload a sparse kernel to the modeled Transmuter.

Builds a power-law matrix, trains (or fetches) the stock SparseAdapt
model, multiplies the matrix with its transpose under closed-loop
control, and compares the outcome against the paper's static
comparison points.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro.baselines import BASELINE, run_static, static_configs_for
from repro.core import (
    ConservativePolicy,
    OptimizationMode,
    TransmuterRuntime,
    train_default_model,
)
from repro.sparse import generators
from repro.transmuter import TransmuterModel


def main() -> None:
    # 1. An irregular input: 1024x1024 R-MAT power-law matrix.
    matrix = generators.rmat(1024, 8000, seed=7)
    print(f"input matrix: {matrix}")

    # 2. A Transmuter device model (2 tiles x 8 GPEs @ 1 GB/s) and the
    #    SparseAdapt runtime in Energy-Efficient mode. The predictive
    #    model is trained once on the Table-3 uniform-random sweep and
    #    cached for the rest of the process.
    machine = TransmuterModel()
    print(f"device: {machine.describe()}")
    mode = OptimizationMode.ENERGY_EFFICIENT
    model = train_default_model(mode, kernel="spmspm")
    runtime = TransmuterRuntime(
        machine=machine,
        mode=mode,
        model=model,
        policy=ConservativePolicy(),  # the paper's SpMSpM policy
        initial_config=BASELINE,
    )

    # 3. Offload C = A @ A^T. The numeric result is exact; the schedule
    #    is the modeled accelerator behaviour under adaptive control.
    outcome = runtime.spmspm(matrix)
    product = outcome.result
    dense_check = matrix.to_dense() @ matrix.to_dense().T
    assert np.allclose(product.to_dense(), dense_check)
    print(f"result: {product}")
    print(
        f"SparseAdapt: {outcome.schedule.n_epochs} epochs, "
        f"{outcome.schedule.n_reconfigurations} reconfigurations, "
        f"{outcome.gflops:.4f} GFLOPS, "
        f"{outcome.gflops_per_watt:.4f} GFLOPS/W"
    )

    # 4. Compare with the paper's static configurations.
    print("\nstatic comparison points:")
    configs = static_configs_for("cache")
    statics = run_static(machine, outcome.trace, configs)
    for name, schedule in statics.items():
        print(
            f"  {name:9s} {schedule.gflops:.4f} GFLOPS, "
            f"{schedule.gflops_per_watt:.4f} GFLOPS/W"
            f"  ({configs[name].describe()})"
        )

    gains = outcome.schedule.gflops_per_watt
    baseline = statics["Baseline"]
    print(
        f"\nSparseAdapt efficiency gain over Baseline: "
        f"{gains / baseline.gflops_per_watt:.2f}x"
    )


if __name__ == "__main__":
    main()
