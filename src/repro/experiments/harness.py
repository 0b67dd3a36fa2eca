"""Experiment harness: build traces, evaluate schemes, compute gains.

Every figure/table driver composes the same three steps:

1. :func:`build_trace` — generate (or load) the input, execute the
   kernel, get a :class:`~repro.kernels.base.KernelTrace`;
2. :func:`evaluate_schemes` — run the requested control schemes over
   the trace on one machine configuration, sharing a single
   :class:`~repro.baselines.table.EpochTable`;
3. :func:`gains_over` — normalize metrics to a reference scheme, the
   way every figure in the paper reports "gains over Baseline".

A run described as data — a :class:`~repro.runner.plan.JobSpec`, as
``suite-run`` jobs, ``repro run`` and ``compare --drill-down`` describe
theirs — becomes its :class:`EvaluationContext` in one place,
:func:`job_context`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro import obs
from repro.obs import profile as obs_profile
from repro.baselines import (
    BASELINE,
    BEST_AVG_CACHE,
    BEST_AVG_SPM,
    MAX_CFG,
    EpochTable,
    epoch_cost_proxy,
    ideal_greedy,
    ideal_static,
    oracle,
    per_epoch_costs,
    profile_adapt,
    run_static,
    spm_variant,
)
from repro.core.controller import SparseAdaptController
from repro.core.hardening import HardeningConfig
from repro.core.model import SparseAdaptModel
from repro.core.modes import OptimizationMode
from repro.core.persistence import load_model
from repro.core.policies import (
    ConservativePolicy,
    HybridPolicy,
    ReconfigurationPolicy,
    parse_policy,
)
from repro.core.schedule import ScheduleResult
from repro.core.training import train_default_model
from repro.errors import ConfigError
from repro.faults.spec import FaultSchedule
from repro.graph.bfs import bfs
from repro.graph.sssp import sssp
from repro.kernels import (
    SPMSPM_EPOCH_FP_OPS,
    SPMSPV_EPOCH_FP_OPS,
    KernelTrace,
    trace_spmspm,
    trace_spmspv,
)
from repro.sparse import generators, suite
from repro.transmuter.config import HardwareConfig
from repro.transmuter.machine import TransmuterModel

__all__ = [
    "KNOWN_SCHEMES",
    "STANDARD_SCHEMES",
    "UPPER_BOUND_SCHEMES",
    "build_trace",
    "job_context",
    "evaluate_schemes",
    "gains_over",
    "default_policy_for",
    "oracle_regret",
]

#: The comparison set of Figures 5-7.
STANDARD_SCHEMES = ("Baseline", "Best Avg", "Max Cfg", "SparseAdapt")

#: The upper-bound set of Figure 8.
UPPER_BOUND_SCHEMES = (
    "Baseline",
    "SparseAdapt",
    "Ideal Static",
    "Ideal Greedy",
    "Oracle",
)

#: Every scheme name :func:`evaluate_schemes` accepts (plan validation
#: in :mod:`repro.runner.plan` fails fast against this set).
KNOWN_SCHEMES = (
    "Baseline",
    "Best Avg",
    "Max Cfg",
    "SparseAdapt",
    "Ideal Static",
    "Ideal Greedy",
    "Oracle",
    "ProfileAdapt Naive",
    "ProfileAdapt Ideal",
)

_TRACE_CACHE: Dict[tuple, KernelTrace] = {}
#: The cache is shared with watchdog worker threads (the suite runner
#: executes deadline-supervised jobs off-thread), so guard it.
_TRACE_CACHE_LOCK = threading.Lock()


def default_policy_for(kernel: str) -> ReconfigurationPolicy:
    """Paper Section 5.4: conservative for SpMSpM, hybrid 40% for SpMSpV."""
    if kernel == "spmspm":
        return ConservativePolicy()
    return HybridPolicy(tolerance=0.40)


def build_trace(
    kernel: str,
    matrix_id: str,
    scale: float = 1.0,
    epoch_fp_ops: Optional[float] = None,
    vector_density: float = 0.5,
    seed: int = 0,
    use_cache: bool = True,
) -> KernelTrace:
    """Trace one kernel over one suite matrix.

    ``kernel`` is one of ``spmspm`` (C = A A^T, the paper's setting),
    ``spmspv`` (y = A x against a ``vector_density``-dense vector),
    ``bfs`` or ``sssp``. Only ``spmspv`` reads ``vector_density`` and
    ``seed``, so the other kernels share one cached trace across them.
    """
    key = (kernel, matrix_id, scale, epoch_fp_ops)
    if kernel == "spmspv":
        key += (vector_density, seed)
    if use_cache:
        with _TRACE_CACHE_LOCK:
            if key in _TRACE_CACHE:
                return _TRACE_CACHE[key]
    recorder = obs.get_recorder()
    with recorder.span(
        "harness.build_trace", kernel=kernel, matrix=matrix_id, scale=scale
    ) as span:
        with obs_profile.span("build_trace"):
            trace = _build_trace_uncached(
                kernel, matrix_id, scale, epoch_fp_ops, vector_density, seed
            )
        span.set(n_epochs=trace.n_epochs)
    if use_cache:
        with _TRACE_CACHE_LOCK:
            _TRACE_CACHE[key] = trace
    return trace


def _build_trace_uncached(
    kernel: str,
    matrix_id: str,
    scale: float,
    epoch_fp_ops: Optional[float],
    vector_density: float,
    seed: int,
) -> KernelTrace:
    matrix = suite.load(matrix_id, scale=scale)
    if kernel == "spmspm":
        trace = trace_spmspm(
            matrix.to_csc(),
            matrix.transpose().to_csr(),
            epoch_fp_ops or SPMSPM_EPOCH_FP_OPS,
            name=f"spmspm-{matrix_id}",
        )
    elif kernel == "spmspv":
        vector = generators.random_vector(
            matrix.shape[1], vector_density, seed=seed + 1
        )
        trace = trace_spmspv(
            matrix.to_csc(),
            vector,
            epoch_fp_ops or SPMSPV_EPOCH_FP_OPS,
            name=f"spmspv-{matrix_id}",
        )
    elif kernel in ("bfs", "sssp"):
        import numpy as np

        csc = matrix.to_csc()
        source = int(np.argmax(csc.col_lengths()))  # hub with out-edges
        algorithm = bfs if kernel == "bfs" else sssp
        trace = algorithm(csc, source, epoch_fp_ops or SPMSPV_EPOCH_FP_OPS).trace
    else:
        raise ConfigError(f"unknown kernel {kernel!r}")
    return trace


@dataclass
class EvaluationContext:
    """Everything needed to evaluate schemes over one trace."""

    trace: KernelTrace
    machine: TransmuterModel
    mode: OptimizationMode
    l1_type: str = "cache"
    model: Optional[SparseAdaptModel] = None
    policy: Optional[ReconfigurationPolicy] = None
    n_samples: int = 64
    seed: int = 0
    profiling_epoch_trace: Optional[KernelTrace] = None
    #: Fault injection for the SparseAdapt scheme (static baselines and
    #: table-driven upper bounds model the fault-free machine; faults
    #: only exist on the closed control loop).
    faults: Optional[FaultSchedule] = None
    hardening: Optional[HardeningConfig] = None

    def static_points(self) -> Dict[str, HardwareConfig]:
        if self.l1_type == "cache":
            return {
                "Baseline": BASELINE,
                "Best Avg": BEST_AVG_CACHE,
                "Max Cfg": MAX_CFG,
            }
        return {
            "Baseline": spm_variant(BASELINE),
            "Best Avg": BEST_AVG_SPM,
            "Max Cfg": spm_variant(MAX_CFG),
        }


def job_context(spec) -> EvaluationContext:
    """Decode one :class:`~repro.runner.plan.JobSpec` into its context.

    The one place a run description becomes a run: ``"ee"``/``"pp"``
    to a mode, the traced input, the machine, the policy (the paper
    default unless the spec names one), the model, and the fault
    schedule with its hardening switch. The stock model is resolved
    here, before any scheme runs, and only when the job evaluates
    SparseAdapt, so a statics-only job trains nothing and a recorder
    installed around :func:`evaluate_schemes` sees no training.
    """
    mode = (
        OptimizationMode.ENERGY_EFFICIENT
        if spec.mode == "ee"
        else OptimizationMode.POWER_PERFORMANCE
    )
    trace = build_trace(
        spec.kernel, spec.matrix, scale=spec.scale, seed=spec.seed
    )
    model_kernel = "spmspm" if spec.kernel == "spmspm" else "spmspv"
    machine = TransmuterModel(bandwidth_gbps=spec.bandwidth_gbps)
    model = None
    if spec.model is not None:
        model = load_model(spec.model)
    elif "SparseAdapt" in spec.schemes:
        model = train_default_model(
            mode, kernel=model_kernel, l1_type=spec.l1_type
        )
    return EvaluationContext(
        trace=trace,
        machine=machine,
        mode=mode,
        l1_type=spec.l1_type,
        model=model,
        policy=(
            parse_policy(spec.policy)
            if spec.policy is not None
            else default_policy_for(model_kernel)
        ),
        seed=spec.seed,
        faults=(
            FaultSchedule.from_dict(spec.faults)
            if spec.faults is not None
            else None
        ),
        hardening=(
            HardeningConfig.disabled() if spec.hardening is False else None
        ),
    )


def evaluate_schemes(
    context: EvaluationContext,
    schemes: Sequence[str] = STANDARD_SCHEMES,
) -> Dict[str, ScheduleResult]:
    """Run the requested schemes over one trace on one machine.

    Recognized scheme names: the Table-4 statics (``Baseline``,
    ``Best Avg``, ``Max Cfg``), ``SparseAdapt``, the upper bounds
    (``Ideal Static``, ``Ideal Greedy``, ``Oracle``), and the
    state-of-the-art comparison (``ProfileAdapt Naive``,
    ``ProfileAdapt Ideal`` — these use ``profiling_epoch_trace`` when
    given, since ProfileAdapt operates at its own best epoch size).

    All table-driven schemes share one :class:`EpochTable` per trace:
    without a ``profiling_epoch_trace``, ProfileAdapt stitches from the
    same table as the upper bounds. The Ideal Greedy schedule is
    computed once per table and reused as ProfileAdapt's base sequence;
    every scheme still returns its own :class:`ScheduleResult`.

    SparseAdapt runs the context's ``model``; :func:`job_context` is the
    one place a stock model is chosen, so a context without one cannot
    evaluate SparseAdapt.
    """
    if context.trace.n_epochs == 0:
        raise ConfigError(
            f"cannot evaluate schemes over the empty trace "
            f"{context.trace.name!r} (0 epochs)"
        )
    if "SparseAdapt" in schemes and context.model is None:
        raise ConfigError(
            f"SparseAdapt needs a model: build the context with "
            f"job_context() or pass model= ({context.trace.name!r})"
        )
    statics = context.static_points()

    def make_table(trace: KernelTrace) -> EpochTable:
        with obs_profile.span("epoch_table"):
            return EpochTable(
                context.machine,
                trace,
                n_samples=context.n_samples,
                l1_type=context.l1_type,
                seed=context.seed,
                include=list(statics.values()),
            )

    profile_schemes = any(name.startswith("ProfileAdapt") for name in schemes)
    table: Optional[EpochTable] = None
    if any(
        name in ("Ideal Static", "Ideal Greedy", "Oracle") for name in schemes
    ) or (profile_schemes and context.profiling_epoch_trace is None):
        table = make_table(context.trace)
    pa_table = table
    if profile_schemes and context.profiling_epoch_trace is not None:
        pa_table = make_table(context.profiling_epoch_trace)
    greedy: Dict[int, ScheduleResult] = {}

    def greedy_on(source: EpochTable) -> ScheduleResult:
        """The Ideal Greedy schedule, computed once per table."""
        if id(source) not in greedy:
            greedy[id(source)] = ideal_greedy(source, context.mode)
        return greedy[id(source)]

    def run_scheme(name: str) -> ScheduleResult:
        if name in statics:
            return run_static(
                context.machine, context.trace, statics[name], name
            )
        if name == "SparseAdapt":
            controller = SparseAdaptController(
                model=context.model,
                machine=context.machine,
                mode=context.mode,
                policy=context.policy,
                initial_config=statics["Baseline"],
                faults=context.faults,
                hardening=context.hardening,
            )
            result = controller.run(context.trace)
            result.scheme = name
            if context.faults is not None:
                result.fault_stats = dict(controller.last_run_stats)
            return result
        if name == "Ideal Static":
            return ideal_static(table, context.mode)
        if name == "Ideal Greedy":
            return greedy_on(table)
        if name == "Oracle":
            return oracle(table, context.mode)
        if name == "ProfileAdapt Naive":
            return profile_adapt(
                pa_table, context.mode, "naive", greedy=greedy_on(pa_table)
            )
        if name == "ProfileAdapt Ideal":
            return profile_adapt(
                pa_table, context.mode, "ideal", greedy=greedy_on(pa_table)
            )
        raise ConfigError(f"unknown scheme {name!r}")

    recorder = obs.get_recorder()
    results: Dict[str, ScheduleResult] = {}
    for name in schemes:
        with recorder.span(
            "harness.scheme", scheme=name, trace=context.trace.name
        ) as span:
            with obs_profile.span(f"scheme:{name.replace(' ', '_')}"):
                results[name] = run_scheme(name)
            if recorder.enabled:
                totals = results[name].totals()
                span.set(
                    gflops=totals.gflops,
                    gflops_per_watt=totals.gflops_per_watt,
                    reconfigurations=results[name].n_reconfigurations,
                )
    return results


def oracle_regret(
    schedule: ScheduleResult,
    table: EpochTable,
    mode: OptimizationMode,
    records: Optional[Sequence[Dict]] = None,
    top: int = 5,
) -> Dict:
    """Per-epoch regret of a schedule against the Oracle upper bound.

    Answers "how far from optimal was this run, and where" in the
    mode's additive cost proxy (energy for Energy-Efficient, time for
    Power-Performance — see :func:`repro.baselines.epoch_cost_proxy`).
    ``records``, when given, is a loaded trace of the *same* run: each
    worst-regret epoch is joined with the ``decision`` event of the
    preceding epoch (the decision that chose its configuration), so a
    rejected proposal that would have moved toward the Oracle's choice
    shows up next to the cost it incurred.

    The Oracle is optimal only over the table's sampled configuration
    set, so total regret can come out negative when the controller
    visits configurations outside the sample — that reads as "beat the
    sampled upper bound", not an error.
    """
    reference = oracle(table, mode)
    costs = per_epoch_costs(schedule, mode)
    ref_costs = per_epoch_costs(reference, mode)
    n = min(len(costs), len(ref_costs))
    if n == 0:
        raise ConfigError("cannot compute regret over an empty schedule")
    regret = costs[:n] - ref_costs[:n]

    decisions_by_epoch: Dict[int, Dict] = {}
    if records is not None:
        for record in records:
            if record.get("type") == "event" and record.get("name") == "decision":
                attrs = record.get("attrs", {}) or {}
                if attrs.get("epoch") is not None:
                    decisions_by_epoch[attrs["epoch"]] = attrs

    worst = []
    for epoch in sorted(
        range(n), key=lambda e: float(regret[e]), reverse=True
    )[:top]:
        entry = {
            "epoch": epoch,
            "regret": float(regret[epoch]),
            "cost": float(costs[epoch]),
            "oracle_cost": float(ref_costs[epoch]),
            "config": schedule.records[epoch].config.describe(),
            "oracle_config": reference.records[epoch].config.describe(),
        }
        # The decision at epoch e-1 picked epoch e's configuration.
        decision = decisions_by_epoch.get(epoch - 1)
        if decision is not None:
            rejected = decision.get("rejected", [])
            entry["rejected_proposals"] = {
                parameter: decision.get("proposed", {}).get(parameter)
                for parameter in rejected
            }
        worst.append(entry)

    total_cost = float(costs[:n].sum())
    oracle_cost = float(ref_costs[:n].sum())
    return {
        "mode": mode.value,
        "proxy": epoch_cost_proxy(mode),
        "n_epochs": n,
        "total_cost": total_cost,
        "oracle_cost": oracle_cost,
        "total_regret": total_cost - oracle_cost,
        "regret_pct": (
            (total_cost - oracle_cost) / oracle_cost * 100.0
            if oracle_cost > 0
            else 0.0
        ),
        "per_epoch": [float(r) for r in regret],
        "worst_epochs": worst,
    }


def gains_over(
    results: Dict[str, ScheduleResult],
    reference: str = "Baseline",
) -> Dict[str, Dict[str, float]]:
    """Per-scheme performance and efficiency gains over a reference."""
    if reference not in results:
        raise ConfigError(f"reference scheme {reference!r} not evaluated")
    totals = {name: result.totals() for name, result in results.items()}
    ref = totals[reference]
    out: Dict[str, Dict[str, float]] = {}
    for name, schedule in totals.items():
        out[name] = {
            "gflops": schedule.gflops,
            "gflops_per_watt": schedule.gflops_per_watt,
            "perf_gain": schedule.gflops / ref.gflops,
            "efficiency_gain": schedule.gflops_per_watt / ref.gflops_per_watt,
        }
    return out
