"""Reproduce the paper's Figure-1 motivation timeline as text/CSV.

Runs outer-product SpMSpM on the strip matrix (dense columns separating
sparse strips), derives the best static configuration and the dynamic
(oracle) schedule, and prints the per-epoch timeline: efficiency,
instantaneous clock, L2 bank capacity, and DRAM bandwidth utilization —
the four panels of Figure 1 (right).

Run with::

    python examples/motivation_timeline.py [output.csv]

``benchmarks/bench_fig01_motivation.py`` asserts the figure's shape on
:func:`figure1_motivation`.
"""

from __future__ import annotations

import sys
from typing import Dict, List

import numpy as np

from repro.baselines import (
    BASELINE,
    BEST_AVG_CACHE,
    EpochTable,
    ideal_static,
    oracle,
    run_static,
)
from repro.core.modes import OptimizationMode
from repro.core.schedule import ScheduleResult
from repro.kernels import trace_spmspm
from repro.sparse.generators import strip_matrix
from repro.transmuter.machine import TransmuterModel


def figure1_motivation(
    n: int = 128, density: float = 0.20, n_samples: int = 64
) -> Dict[str, object]:
    """OP-SpMSpM on the strip matrix: dynamic vs. best static.

    Returns the summary gains (the paper reports ~1.5x less energy and
    ~22.6% faster) and the per-epoch timeline (efficiency, clock, L2
    capacity, bandwidth utilization) of both schemes.
    """
    matrix = strip_matrix(n=n, density=density, seed=1)
    trace = trace_spmspm(matrix.to_csc(), matrix.transpose().to_csr())
    machine = TransmuterModel()
    table = EpochTable(
        machine, trace, n_samples=n_samples, seed=0, include=[BASELINE]
    )
    mode = OptimizationMode.POWER_PERFORMANCE
    static = ideal_static(table, mode)
    dynamic = oracle(table, mode)
    best_avg = run_static(machine, trace, {"Best Avg": BEST_AVG_CACHE})[
        "Best Avg"
    ]

    def timeline(schedule: ScheduleResult) -> Dict[str, List[float]]:
        return {
            "time_ms": list(
                np.cumsum([r.time_s for r in schedule.records]) * 1e3
            ),
            "gflops_per_watt": [
                r.result.gflops_per_watt for r in schedule.records
            ],
            "clock_mhz": [r.config.clock_mhz for r in schedule.records],
            "l2_kb": [float(r.config.l2_kb) for r in schedule.records],
            "dram_utilization": [
                r.result.counters.dram_read_utilization
                + r.result.counters.dram_write_utilization
                for r in schedule.records
            ],
            "phase": [trace.epochs[r.index].phase for r in schedule.records],
        }

    return {
        # Against the with-hindsight ideal static (our conservative
        # reading of the figure's "Best Static Cfg").
        "energy_gain": static.total_energy_j / dynamic.total_energy_j,
        "speedup_percent": (
            static.total_time_s / dynamic.total_time_s - 1.0
        )
        * 100.0,
        # Against the Table-4 Best-Avg compromise (upper bound of the
        # claim: a realistic static point, not a per-input oracle).
        "energy_gain_vs_best_avg": (
            best_avg.total_energy_j / dynamic.total_energy_j
        ),
        "speedup_percent_vs_best_avg": (
            best_avg.total_time_s / dynamic.total_time_s - 1.0
        )
        * 100.0,
        "static_timeline": timeline(static),
        "dynamic_timeline": timeline(dynamic),
        "n_epochs": trace.n_epochs,
    }


def main() -> None:
    result = figure1_motivation(n=128, density=0.20)
    print(
        f"dynamic vs best static: {result['energy_gain']:.2f}x less "
        f"energy, {result['speedup_percent']:.1f}% faster "
        f"({result['n_epochs']} epochs)\n"
    )

    header = (
        "epoch",
        "phase",
        "scheme",
        "t_ms",
        "gflops_per_watt",
        "clock_mhz",
        "l2_kb",
        "dram_util",
    )
    rows = []
    for scheme in ("static", "dynamic"):
        timeline = result[f"{scheme}_timeline"]
        for epoch in range(len(timeline["time_ms"])):
            rows.append(
                (
                    epoch,
                    timeline["phase"][epoch],
                    scheme,
                    f"{timeline['time_ms'][epoch]:.4f}",
                    f"{timeline['gflops_per_watt'][epoch]:.4f}",
                    f"{timeline['clock_mhz'][epoch]:g}",
                    f"{timeline['l2_kb'][epoch]:g}",
                    f"{timeline['dram_utilization'][epoch]:.3f}",
                )
            )

    lines = [",".join(header)]
    lines += [",".join(str(cell) for cell in row) for row in rows]
    csv_text = "\n".join(lines)

    if len(sys.argv) > 1:
        with open(sys.argv[1], "w") as handle:
            handle.write(csv_text + "\n")
        print(f"timeline written to {sys.argv[1]}")
    else:
        # Print a readable excerpt: every 8th dynamic epoch.
        print("dynamic timeline excerpt (every 8th epoch):")
        print(f"{'epoch':>5} {'phase':>9} {'GF/W':>8} {'clock':>7} "
              f"{'L2kB':>5} {'bw':>5}")
        timeline = result["dynamic_timeline"]
        for epoch in range(0, len(timeline["time_ms"]), 8):
            print(
                f"{epoch:>5} {timeline['phase'][epoch]:>9} "
                f"{timeline['gflops_per_watt'][epoch]:>8.3f} "
                f"{timeline['clock_mhz'][epoch]:>7g} "
                f"{timeline['l2_kb'][epoch]:>5g} "
                f"{timeline['dram_utilization'][epoch]:>5.2f}"
            )


if __name__ == "__main__":
    main()
