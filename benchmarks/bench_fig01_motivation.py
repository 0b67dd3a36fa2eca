"""Figure 1 — motivation: dynamic reconfiguration on the strip matrix.

Paper: OP-SpMSpM on a 128x128, 20%-dense matrix with dense separator
columns; a dynamic scheme that adapts to the explicit multiply->merge
transition and the implicit dense/sparse outer products achieves ~1.5x
less energy and ~22.6% faster execution than the best static
configuration. We reproduce the dominance shape (dynamic no worse on
either axis, strictly better on at least one) and emit the timeline.
The run itself is ``figure1_motivation`` in
``examples/motivation_timeline.py``, loaded by path.
"""

import importlib.util
import pathlib

from benchmarks.conftest import run_once
from repro.experiments.reporting import format_timeline

_EXAMPLE = (
    pathlib.Path(__file__).parent.parent
    / "examples"
    / "motivation_timeline.py"
)


def _load_example():
    spec = importlib.util.spec_from_file_location(
        "motivation_timeline", _EXAMPLE
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fig01_motivation(benchmark, emit):
    example = _load_example()
    result = run_once(
        benchmark, example.figure1_motivation, n=128, density=0.20
    )
    dynamic = result["dynamic_timeline"]
    phases = dynamic["phase"]
    transition = phases.index("merge") if "merge" in phases else -1
    lines = [
        "Figure 1 - motivation (OP-SpMSpM, 128x128 strip matrix)",
        f"epochs: {result['n_epochs']}",
        f"dynamic vs ideal-static energy gain: {result['energy_gain']:.2f}x"
        " (paper ~1.5x vs 'best static')",
        f"dynamic vs ideal-static speedup    : "
        f"{result['speedup_percent']:.1f}% (paper ~22.6%)",
        f"dynamic vs Best-Avg energy gain    : "
        f"{result['energy_gain_vs_best_avg']:.2f}x",
        f"dynamic vs Best-Avg speedup        : "
        f"{result['speedup_percent_vs_best_avg']:.1f}%",
        f"explicit phase transition at epoch : {transition}",
        "clock trajectory (dynamic)         : "
        + " ".join(f"{c:g}" for c in dynamic["clock_mhz"][:12])
        + " ...",
        "L2 capacity trajectory (dynamic)   : "
        + " ".join(f"{int(c)}" for c in dynamic["l2_kb"][:12])
        + " ...",
        "",
        format_timeline(
            "dynamic timeline (paper Figure 1 right panels):",
            {
                "GFLOPS/W": dynamic["gflops_per_watt"],
                "clock MHz": dynamic["clock_mhz"],
                "L2 kB": dynamic["l2_kb"],
                "DRAM util": dynamic["dram_utilization"],
            },
        ),
    ]
    emit("\n".join(lines))

    # Shape assertions: dynamic dominates the best static configuration.
    assert result["energy_gain"] >= 1.0
    assert result["speedup_percent"] >= -1.0
    assert result["energy_gain"] > 1.02 or result["speedup_percent"] > 2.0
    # Both explicit phases appear in the timeline.
    assert "multiply" in phases and "merge" in phases
