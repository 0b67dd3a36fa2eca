"""Experiment drivers for the figures a spec cannot express.

The scheme comparisons (Figures 5-8, Table 6) are experiment specs
under ``experiments/specs/paper/``; the drivers here sweep something
other than schemes over matrices (a timeline, model depth, policy
tolerance, bandwidth, system size, ProfileAdapt's epoch size, regular
kernels). Each driver returns plain dictionaries so benchmarks can
both assert on the shape and print the same rows/series the paper
reports. ``scale`` arguments shrink the input matrices (the
per-row density is preserved, see :mod:`repro.sparse.suite`) so the
full grid stays tractable in pure Python; drivers default to moderate
scales and accept 1.0 for full-size runs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines import BASELINE, BEST_AVG_CACHE, EpochTable, ideal_static, oracle
from repro.core.modes import OptimizationMode
from repro.core.policies import (
    AggressivePolicy,
    ConservativePolicy,
    HybridPolicy,
)
from repro.core.schedule import ScheduleResult
from repro.core.training import train_default_model
from repro.experiments.harness import (
    EvaluationContext,
    build_trace,
    evaluate_schemes,
    gains_over,
)
from repro.kernels import trace_conv, trace_gemm
from repro.sparse import suite
from repro.transmuter.machine import TransmuterModel

__all__ = [
    "figure1_motivation",
    "figure9_model_complexity",
    "figure9_per_parameter_depth",
    "figure10_feature_importance",
    "figure11_policy_sweep",
    "figure11_bandwidth_sweep",
    "figure12_system_size",
    "section64_profileadapt",
    "section7_regular_kernels",
]

EE = OptimizationMode.ENERGY_EFFICIENT
PP = OptimizationMode.POWER_PERFORMANCE


# ---------------------------------------------------------------------------
# Figure 1 — motivation timeline
# ---------------------------------------------------------------------------
def figure1_motivation(
    n: int = 128, density: float = 0.20, n_samples: int = 64
) -> Dict[str, object]:
    """OP-SpMSpM on the strip matrix: dynamic vs. best static.

    Returns the summary gains (the paper reports ~1.5x less energy and
    ~22.6% faster) and the per-epoch timeline (efficiency, clock, L2
    capacity, bandwidth utilization) of both schemes.
    """
    from repro.kernels import trace_spmspm
    from repro.sparse.generators import strip_matrix

    from repro.baselines import run_static

    matrix = strip_matrix(n=n, density=density, seed=1)
    trace = trace_spmspm(matrix.to_csc(), matrix.transpose().to_csr())
    machine = TransmuterModel()
    table = EpochTable(
        machine, trace, n_samples=n_samples, seed=0, include=[BASELINE]
    )
    static = ideal_static(table, PP)
    dynamic = oracle(table, PP)
    best_avg = run_static(machine, trace, BEST_AVG_CACHE)

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


# ---------------------------------------------------------------------------
# Figure 9 — model-complexity sweep
# ---------------------------------------------------------------------------
def figure9_model_complexity(
    depths: Sequence[int] = (2, 6, 10, 14, 22),
    matrix_ids: Sequence[str] = ("P1", "P3"),
    scale: float = 0.25,
) -> Dict[str, Dict[int, Dict[str, float]]]:
    """Gains vs. decision-tree depth for SpMSpV in PP mode.

    The trees for every parameter are retrained at each depth (the
    paper varies one parameter's tree at a time; sweeping them jointly
    exposes the same over/under-fitting trend).
    """
    from repro.core.dataset import build_training_set, table3_phases
    from repro.core.training import train_model

    phases = table3_phases("spmspv")
    training_set = build_training_set(phases, PP, k_samples=24, seed=0)
    machine = TransmuterModel()
    out: Dict[str, Dict[int, Dict[str, float]]] = {m: {} for m in matrix_ids}
    for depth in depths:
        model = train_model(
            training_set,
            param_grid={
                "criterion": ("gini",),
                "max_depth": (depth,),
                "min_samples_leaf": (1,),
            },
        )
        for matrix_id in matrix_ids:
            trace = build_trace("spmspv", matrix_id, scale=scale)
            context = EvaluationContext(
                trace=trace,
                machine=machine,
                mode=PP,
                model=model,
                policy=HybridPolicy(0.40),
            )
            results = evaluate_schemes(context, ("Baseline", "SparseAdapt"))
            gains = gains_over(results)["SparseAdapt"]
            out[matrix_id][depth] = {
                "perf_gain": gains["perf_gain"],
                "efficiency_gain": gains["efficiency_gain"],
            }
    return out


def figure9_per_parameter_depth(
    depths: Sequence[int] = (2, 6, 14),
    matrix_id: str = "P3",
    scale: float = 0.2,
) -> Dict[str, Dict[int, float]]:
    """The paper's exact Figure-9 protocol: vary ONE parameter's tree
    depth at a time, keeping the original trees for the rest, and
    report the efficiency gain of the resulting controller.
    """
    from repro.core.dataset import build_training_set, table3_phases
    from repro.core.model import SparseAdaptModel
    from repro.core.training import train_model
    from repro.ml.decision_tree import DecisionTreeClassifier

    phases = table3_phases("spmspv")
    training_set = build_training_set(phases, PP, k_samples=24, seed=0)
    original = train_model(
        training_set,
        param_grid={
            "criterion": ("gini",),
            "max_depth": (10,),
            "min_samples_leaf": (1,),
        },
    )
    machine = TransmuterModel()
    trace = build_trace("spmspv", matrix_id, scale=scale)

    def evaluate(model) -> float:
        context = EvaluationContext(
            trace=trace,
            machine=machine,
            mode=PP,
            model=model,
            policy=HybridPolicy(0.40),
        )
        results = evaluate_schemes(context, ("Baseline", "SparseAdapt"))
        return gains_over(results)["SparseAdapt"]["efficiency_gain"]

    out: Dict[str, Dict[int, float]] = {}
    for parameter in original.predicted_parameters():
        labels = training_set.labels[parameter]
        per_depth: Dict[int, float] = {}
        for depth in depths:
            replacement = DecisionTreeClassifier(max_depth=depth)
            replacement.fit(training_set.features, labels)
            trees = dict(original.trees)
            trees[parameter] = replacement
            variant = SparseAdaptModel(trees=trees, l1_type="cache")
            per_depth[depth] = evaluate(variant)
        out[parameter] = per_depth
    return out


# ---------------------------------------------------------------------------
# Figure 10 — feature importance
# ---------------------------------------------------------------------------
def figure10_feature_importance(
    quick: bool = True,
) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Grouped Gini importances per trained model, both modes."""
    out: Dict[str, Dict[str, Dict[str, float]]] = {}
    for mode, key in ((PP, "pp"), (EE, "ee")):
        model = train_default_model(mode, kernel="spmspv", quick=quick)
        out[key] = model.importance_table()
    return out


# ---------------------------------------------------------------------------
# Figure 11 — policy and bandwidth sweeps
# ---------------------------------------------------------------------------
def figure11_policy_sweep(
    matrix_ids: Sequence[str] = ("P3", "R12"),
    tolerances: Sequence[float] = (0.1, 0.2, 0.4, 0.7, 0.9),
    scale: float = 0.25,
) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Conservative / aggressive / hybrid-tolerance sweep (PP mode)."""
    model = train_default_model(PP, kernel="spmspv")
    machine = TransmuterModel()
    out: Dict[str, Dict[str, Dict[str, float]]] = {}
    policies = {"conservative": ConservativePolicy(), "aggressive": AggressivePolicy()}
    for tolerance in tolerances:
        policies[f"hybrid-{int(tolerance * 100)}%"] = HybridPolicy(tolerance)
    for matrix_id in matrix_ids:
        trace = build_trace("spmspv", matrix_id, scale=scale)
        rows: Dict[str, Dict[str, float]] = {}
        for name, policy in policies.items():
            context = EvaluationContext(
                trace=trace,
                machine=machine,
                mode=PP,
                model=model,
                policy=policy,
            )
            results = evaluate_schemes(context, ("Baseline", "SparseAdapt"))
            gains = gains_over(results)["SparseAdapt"]
            rows[name] = {
                "perf_gain": gains["perf_gain"],
                "efficiency_gain": gains["efficiency_gain"],
            }
        out[matrix_id] = rows
    return out


def figure11_bandwidth_sweep(
    matrix_id: str = "P3",
    bandwidths_gbps: Sequence[float] = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0),
    scale: float = 0.25,
) -> Dict[float, Dict[str, float]]:
    """EE-mode efficiency gains vs. external bandwidth (no retraining)."""
    model = train_default_model(EE, kernel="spmspv")
    trace = build_trace("spmspv", matrix_id, scale=scale)
    out: Dict[float, Dict[str, float]] = {}
    for bandwidth in bandwidths_gbps:
        context = EvaluationContext(
            trace=trace,
            machine=TransmuterModel(bandwidth_gbps=bandwidth),
            mode=EE,
            model=model,
            policy=HybridPolicy(0.40),
        )
        results = evaluate_schemes(
            context, ("Baseline", "Best Avg", "SparseAdapt")
        )
        gains = gains_over(results)
        out[bandwidth] = {
            "over_baseline": gains["SparseAdapt"]["efficiency_gain"],
            "over_best_avg": (
                gains["SparseAdapt"]["efficiency_gain"]
                / gains["Best Avg"]["efficiency_gain"]
            ),
        }
    return out


# ---------------------------------------------------------------------------
# Figure 12 — system-size scaling
# ---------------------------------------------------------------------------
def figure12_system_size(
    geometries: Sequence[Tuple[int, int]] = ((1, 8), (2, 8), (2, 16), (4, 16)),
    scale: float = 0.4,
    matrix_ids: Optional[Sequence[str]] = None,
) -> Dict[str, Dict[str, float]]:
    """EE GFLOPS/W gains while scaling tiles x GPEs (model not retrained)."""
    matrix_ids = matrix_ids or suite.SPMSPM_IDS
    model = train_default_model(EE, kernel="spmspm")
    out: Dict[str, Dict[str, float]] = {}
    for n_tiles, gpes in geometries:
        machine = TransmuterModel(n_tiles=n_tiles, gpes_per_tile=gpes)
        rows: Dict[str, float] = {}
        for matrix_id in matrix_ids:
            trace = build_trace("spmspm", matrix_id, scale=scale)
            context = EvaluationContext(
                trace=trace,
                machine=machine,
                mode=EE,
                model=model,
                policy=ConservativePolicy(),
            )
            results = evaluate_schemes(context, ("Baseline", "SparseAdapt"))
            rows[matrix_id] = gains_over(results)["SparseAdapt"][
                "efficiency_gain"
            ]
        out[f"{n_tiles}x{gpes}"] = rows
    return out


# ---------------------------------------------------------------------------
# Section 6.4 — ProfileAdapt comparison
# ---------------------------------------------------------------------------
def section64_profileadapt(
    matrix_ids: Optional[Sequence[str]] = None,
    scale: float = 0.35,
    pa_epoch_fp_ops: Sequence[float] = (2000.0, 4000.0, 6000.0),
    n_samples: int = 48,
) -> Dict[str, Dict[str, float]]:
    """SparseAdapt vs ProfileAdapt (naive/ideal) for SpMSpV, L1 cache.

    ProfileAdapt runs at its own best epoch size: each candidate size in
    ``pa_epoch_fp_ops`` is evaluated and the best one per variant kept
    (paper Section 6.4 does the same sweep).
    """
    matrix_ids = matrix_ids or suite.SPMSPV_IDS[:4]
    out: Dict[str, Dict[str, float]] = {}
    for mode, key in ((PP, "pp"), (EE, "ee")):
        model = train_default_model(mode, kernel="spmspv")
        ratios: Dict[str, List[float]] = {
            "perf_vs_naive": [],
            "eff_vs_naive": [],
            "perf_vs_ideal": [],
            "eff_vs_ideal": [],
        }
        for matrix_id in matrix_ids:
            trace = build_trace("spmspv", matrix_id, scale=scale)
            machine = TransmuterModel()
            context = EvaluationContext(
                trace=trace,
                machine=machine,
                mode=mode,
                model=model,
                policy=HybridPolicy(0.40),
                n_samples=n_samples,
            )
            sparse_adapt = evaluate_schemes(context, ("SparseAdapt",))[
                "SparseAdapt"
            ]
            best: Dict[str, ScheduleResult] = {}
            for epoch_size in pa_epoch_fp_ops:
                pa_trace = build_trace(
                    "spmspv", matrix_id, scale=scale, epoch_fp_ops=epoch_size
                )
                pa_context = EvaluationContext(
                    trace=pa_trace,
                    machine=machine,
                    mode=mode,
                    n_samples=n_samples,
                    profiling_epoch_trace=pa_trace,
                )
                candidates = evaluate_schemes(
                    pa_context, ("ProfileAdapt Naive", "ProfileAdapt Ideal")
                )
                for name, schedule in candidates.items():
                    if name not in best or schedule.metric(mode) > best[
                        name
                    ].metric(mode):
                        best[name] = schedule
            naive = best["ProfileAdapt Naive"]
            ideal = best["ProfileAdapt Ideal"]
            ratios["perf_vs_naive"].append(sparse_adapt.gflops / naive.gflops)
            ratios["eff_vs_naive"].append(
                sparse_adapt.gflops_per_watt / naive.gflops_per_watt
            )
            ratios["perf_vs_ideal"].append(sparse_adapt.gflops / ideal.gflops)
            ratios["eff_vs_ideal"].append(
                sparse_adapt.gflops_per_watt / ideal.gflops_per_watt
            )
        out[key] = {
            name: float(np.exp(np.mean(np.log(values))))
            for name, values in ratios.items()
        }
    return out


# ---------------------------------------------------------------------------
# Section 7 — regular kernels
# ---------------------------------------------------------------------------
def section7_regular_kernels(n_samples: int = 64) -> Dict[str, float]:
    """Ideal Static vs Oracle gap for GeMM and Conv (paper: < 5%)."""
    machine = TransmuterModel()
    out: Dict[str, float] = {}
    traces = {
        "gemm": trace_gemm(96, 96, 96),
        "conv": trace_conv(96, 96, kernel=3),
    }
    for name, trace in traces.items():
        table = EpochTable(
            machine, trace, n_samples=n_samples, seed=0, include=[BASELINE]
        )
        static = ideal_static(table, EE)
        best_dynamic = oracle(table, EE)
        out[name] = (
            best_dynamic.gflops_per_watt / static.gflops_per_watt - 1.0
        )
    return out
