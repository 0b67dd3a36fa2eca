"""Graph analytics on the modeled accelerator: BFS and SSSP.

Maps the two graph algorithms of the paper's Section 6.1.3 to iterative
SpMSpV under SparseAdapt control (Energy-Efficient mode) and reports
TEPS and TEPS/W against the static Baseline — the Table-6 experiment,
on a single power-law graph.

Run with::

    python examples/graph_analytics.py
"""

from __future__ import annotations

import numpy as np

from repro.baselines import BASELINE, run_static
from repro.core import (
    HybridPolicy,
    OptimizationMode,
    TransmuterRuntime,
    train_default_model,
)
from repro.graph import teps, teps_per_watt
from repro.sparse import suite
from repro.transmuter import TransmuterModel


def main() -> None:
    # The R10 stand-in (Oregon-1 AS graph: undirected, power-law).
    graph = suite.load("R10", scale=0.4)
    csc = graph.to_csc()
    source = int(np.argmax(csc.col_lengths()))  # start from a hub
    print(f"graph: {graph} (source vertex {source})")

    mode = OptimizationMode.ENERGY_EFFICIENT
    machine = TransmuterModel()
    runtime = TransmuterRuntime(
        machine=machine,
        mode=mode,
        model=train_default_model(mode, kernel="spmspv"),
        policy=HybridPolicy(tolerance=0.40),  # the paper's SpMSpV policy
        initial_config=BASELINE,
    )

    for name, offload in (("BFS", runtime.bfs), ("SSSP", runtime.sssp)):
        outcome = offload(graph, source=source)
        result = outcome.result
        schedule = outcome.schedule
        baseline = run_static(
            machine, outcome.trace, {"Baseline": BASELINE}
        )["Baseline"]
        edges = (
            result.edges_traversed
            if hasattr(result, "edges_traversed")
            else result.edges_relaxed
        )
        adaptive_teps = teps(edges, schedule.total_time_s)
        adaptive_teps_w = teps_per_watt(
            edges, schedule.total_time_s, schedule.total_energy_j
        )
        baseline_teps_w = teps_per_watt(
            edges, baseline.total_time_s, baseline.total_energy_j
        )
        print(f"\n{name}:")
        print(
            f"  reached {result.reached} vertices in "
            f"{result.n_iterations} iterations ({edges} edges)"
        )
        print(
            f"  SparseAdapt: {adaptive_teps:.3e} TEPS, "
            f"{adaptive_teps_w:.3e} TEPS/W "
            f"({schedule.n_reconfigurations} reconfigurations)"
        )
        print(
            f"  TEPS/W gain over Baseline: "
            f"{adaptive_teps_w / baseline_teps_w:.2f}x"
        )

    # Sanity: BFS levels agree with SSSP reachability.
    bfs_result = runtime.bfs(graph, source=source).result
    sssp_result = runtime.sssp(graph, source=source).result
    reachable_bfs = bfs_result.levels >= 0
    reachable_sssp = np.isfinite(sssp_result.distances)
    assert np.array_equal(reachable_bfs, reachable_sssp)
    print("\nBFS and SSSP agree on reachability.")


if __name__ == "__main__":
    main()
