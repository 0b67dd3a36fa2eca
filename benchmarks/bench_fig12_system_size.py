"""Figure 12 — system-size scaling without retraining.

Paper shape: GFLOPS/W gains of 1.7-2.0x geomean persist while scaling
the system from 1x8 to 4x16 tiles x GPEs using the model trained on
the 2x8 system (fixed 1 GB/s bandwidth); DVFS benefits grow with
system size because larger systems saturate the link sooner.
"""

from benchmarks.conftest import run_once
from repro.core.modes import OptimizationMode
from repro.core.policies import ConservativePolicy
from repro.core.training import train_default_model
from repro.experiments.harness import (
    EvaluationContext,
    build_trace,
    evaluate_schemes,
    gains_over,
)
from repro.experiments.reporting import append_geomean, format_gain_table
from repro.ml.metrics import geometric_mean
from repro.sparse import suite
from repro.transmuter.machine import TransmuterModel

EE = OptimizationMode.ENERGY_EFFICIENT
GEOMETRIES = ((1, 8), (2, 8), (2, 16), (4, 16))


def test_fig12_system_size(benchmark, emit):
    def sweep():
        model = train_default_model(EE, kernel="spmspm")
        rows = {}
        for n_tiles, gpes in GEOMETRIES:
            machine = TransmuterModel(n_tiles=n_tiles, gpes_per_tile=gpes)
            gains = {}
            for matrix_id in suite.SPMSPM_IDS:
                context = EvaluationContext(
                    trace=build_trace("spmspm", matrix_id, scale=0.25),
                    machine=machine,
                    mode=EE,
                    model=model,
                    policy=ConservativePolicy(),
                )
                results = evaluate_schemes(
                    context, ("Baseline", "SparseAdapt")
                )
                gains[matrix_id] = gains_over(results)["SparseAdapt"][
                    "efficiency_gain"
                ]
            rows[f"{n_tiles}x{gpes}"] = gains
        return rows

    rows = run_once(benchmark, sweep)
    emit(
        format_gain_table(
            "Figure 12 - EE GFLOPS/W gains over Baseline while scaling"
            " the system (2x8-trained model)",
            append_geomean(rows),
            suite.SPMSPM_IDS,
        )
    )
    for geometry, gains in rows.items():
        gm = geometric_mean(list(gains.values()))
        # Gains persist at every geometry without retraining.
        assert gm > 1.1, f"no gain at {geometry}"
