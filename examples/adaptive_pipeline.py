"""A multi-kernel graph-analytics service under one controller.

Runs BFS -> PageRank -> connected components on one power-law graph as
a single offloaded pipeline: the controller's configuration carries
across kernel boundaries (explicit phase changes), and the per-stage
breakdown shows what each workload demanded. Also demonstrates the
workload characterization report and the CSV timeline export.

Run with::

    python examples/adaptive_pipeline.py [timeline.csv]
"""

from __future__ import annotations

import sys

from repro.apps import concat_traces, graph_analytics_stages, run_pipeline
from repro.baselines import BASELINE, run_static
from repro.core import (
    HybridPolicy,
    OptimizationMode,
    SparseAdaptController,
    train_default_model,
)
from repro.experiments import format_characterization, schedule_to_csv
from repro.sparse import suite
from repro.transmuter import TransmuterModel


def main() -> None:
    graph = suite.load("R10", scale=0.3)
    print(f"graph: {graph}\n")
    stages = graph_analytics_stages(graph, pagerank_iterations=4)

    # 1. What does each stage's workload look like?
    combined = concat_traces(stages, name="graph-analytics")
    print(format_characterization(combined))

    # 2. Run the whole pipeline under one adaptive controller.
    mode = OptimizationMode.ENERGY_EFFICIENT
    machine = TransmuterModel()
    controller = SparseAdaptController(
        model=train_default_model(mode, kernel="spmspv"),
        machine=machine,
        mode=mode,
        policy=HybridPolicy(0.40),
        initial_config=BASELINE,
    )
    result = run_pipeline(controller, stages, name="graph-analytics")
    baseline = run_static(machine, combined, {"Baseline": BASELINE})[
        "Baseline"
    ]

    print("\nper-stage outcome under SparseAdapt:")
    for name, summary in result.per_stage_summary().items():
        print(
            f"  {name:11s} {summary['epochs']:>5} epochs, "
            f"{summary['reconfigurations']:>3} reconfigs, "
            f"{summary['gflops_per_watt']:.3f} GFLOPS/W"
        )
    print(
        f"\npipeline efficiency gain over static Baseline: "
        f"{result.schedule.gflops_per_watt / baseline.gflops_per_watt:.2f}x"
    )

    # 3. Export the raw per-epoch timeline for offline plotting.
    if len(sys.argv) > 1:
        csv_text = schedule_to_csv(result.schedule, combined)
        with open(sys.argv[1], "w") as handle:
            handle.write(csv_text)
        print(f"timeline written to {sys.argv[1]}")


if __name__ == "__main__":
    main()
