"""Figure 9 — effect of decision-tree depth on SparseAdapt's gains.

Paper shape: in Power-Performance mode GFLOPS is more sensitive to
model complexity than GFLOPS/W; very shallow trees lose gains, and the
curve flattens (or dips from overfitting) at large depths.
"""

from benchmarks.conftest import run_once
from repro.core.dataset import build_training_set, table3_phases
from repro.core.model import SparseAdaptModel
from repro.core.modes import OptimizationMode
from repro.core.policies import HybridPolicy
from repro.core.training import train_model
from repro.experiments.harness import (
    EvaluationContext,
    build_trace,
    evaluate_schemes,
    gains_over,
)
from repro.experiments.reporting import format_gain_table
from repro.ml.decision_tree import DecisionTreeClassifier
from repro.transmuter.machine import TransmuterModel

PP = OptimizationMode.POWER_PERFORMANCE
DEPTHS = (2, 6, 10, 14, 22)


def _sparseadapt_gains(trace, model):
    """SparseAdapt's gains over Baseline on one trace (hybrid 40%)."""
    context = EvaluationContext(
        trace=trace,
        machine=TransmuterModel(),
        mode=PP,
        model=model,
        policy=HybridPolicy(0.40),
    )
    results = evaluate_schemes(context, ("Baseline", "SparseAdapt"))
    return gains_over(results)["SparseAdapt"]


def _depth_grid(depth):
    return {
        "criterion": ("gini",),
        "max_depth": (depth,),
        "min_samples_leaf": (1,),
    }


def test_fig09_model_complexity(benchmark, emit):
    """Every parameter's tree retrained at each depth (the paper varies
    one tree at a time; sweeping them jointly exposes the same
    over/under-fitting trend)."""

    def sweep():
        training_set = build_training_set(
            table3_phases("spmspv"), PP, k_samples=24, seed=0
        )
        rows_by_matrix = {"P1": {}, "P3": {}}
        for depth in DEPTHS:
            model = train_model(training_set, param_grid=_depth_grid(depth))
            for matrix_id, rows in rows_by_matrix.items():
                gains = _sparseadapt_gains(
                    build_trace("spmspv", matrix_id, scale=0.15), model
                )
                rows[f"depth={depth}"] = {
                    "perf_gain": gains["perf_gain"],
                    "efficiency_gain": gains["efficiency_gain"],
                }
        return rows_by_matrix

    rows_by_matrix = run_once(benchmark, sweep)
    emit(
        "\n\n".join(
            format_gain_table(
                f"Figure 9 - SparseAdapt gains vs tree depth ({matrix_id},"
                " PP mode)",
                rows,
                ("perf_gain", "efficiency_gain"),
            )
            for matrix_id, rows in rows_by_matrix.items()
        )
    )

    for rows in rows_by_matrix.values():
        # All depths produce a working controller.
        assert all(row["efficiency_gain"] > 0.5 for row in rows.values())
        # Deep trees should not be worse than the shallowest stub by a
        # large margin (the model has learned *something* by depth 10).
        assert rows["depth=10"]["efficiency_gain"] >= rows["depth=2"][
            "efficiency_gain"
        ] * 0.9


def test_fig09_per_parameter_depth(benchmark, emit):
    """The paper's exact protocol: vary one parameter's tree depth at a
    time, keeping the depth-10 trees for the rest."""

    def sweep():
        training_set = build_training_set(
            table3_phases("spmspv"), PP, k_samples=24, seed=0
        )
        original = train_model(training_set, param_grid=_depth_grid(10))
        trace = build_trace("spmspv", "P3", scale=0.15)
        rows = {}
        for parameter in original.predicted_parameters():
            rows[parameter] = {}
            for depth in (2, 10):
                replacement = DecisionTreeClassifier(max_depth=depth)
                replacement.fit(
                    training_set.features, training_set.labels[parameter]
                )
                trees = dict(original.trees)
                trees[parameter] = replacement
                variant = SparseAdaptModel(trees=trees, l1_type="cache")
                rows[parameter][f"depth={depth}"] = _sparseadapt_gains(
                    trace, variant
                )["efficiency_gain"]
        return rows

    rows = run_once(benchmark, sweep)
    emit(
        format_gain_table(
            "Figure 9 (per-parameter) - efficiency gain while varying"
            " one tree's depth (P3, PP mode)",
            rows,
            ("depth=2", "depth=10"),
        )
    )
    # Crippling a single tree never helps, and at least one parameter's
    # tree is depth-sensitive (the paper highlights the clock model).
    drops = {
        parameter: row["depth=10"] - row["depth=2"]
        for parameter, row in rows.items()
    }
    assert all(drop >= -0.05 for drop in drops.values())
    assert max(drops.values()) > 0.02
