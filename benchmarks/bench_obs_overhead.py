"""Guard: disabled tracing must not slow the controller hot path.

The observability subsystem promises a no-op fast path: with no
recorder installed, `SparseAdaptController.run` must cost the same as
the pre-instrumentation seed loop. This benchmark reconstructs that
seed loop (the controller body with every `obs` touch removed) and
compares best-of-N wall times, failing if the instrumented-but-disabled
path is more than 5% slower. It also reports the enabled-tracing cost
for context (informational, not asserted).

Run with: ``pytest benchmarks/bench_obs_overhead.py --benchmark-only``
"""

from __future__ import annotations

from benchmarks.conftest import best_of, interleaved_best_of, run_once

from repro import obs
from repro.obs import profile as obs_profile
from repro.core.controller import (
    _HOST_DECISION_POWER_W,
    SparseAdaptController,
)
from repro.core.modes import OptimizationMode
from repro.core.schedule import EpochRecord, ScheduleResult
from repro.core.training import train_default_model
from repro.experiments.harness import build_trace
from repro.transmuter import params
from repro.transmuter.machine import TransmuterModel
from repro.transmuter import reconfig
from repro.transmuter.reconfig import (
    host_decision_overhead_s,
    reconfiguration_cost,
)

#: Maximum tolerated slowdown of the disabled-tracing path.
MAX_OVERHEAD = 0.05


def _seed_loop(controller: SparseAdaptController, trace) -> ScheduleResult:
    """The seed controller loop, byte-for-byte pre-observability."""
    schedule = ScheduleResult(scheme="sparseadapt")
    config = controller.initial_config
    pending_reconfig = None
    last_epoch_time = 0.0
    overhead = host_decision_overhead_s()
    for index, workload in enumerate(trace.epochs):
        result = controller.machine.simulate_epoch(workload, config)
        schedule.append(
            EpochRecord(
                index=index,
                config=config,
                result=result,
                reconfig=pending_reconfig,
            )
        )
        last_epoch_time = result.time_s
        dirty_hint = workload.stores * params.WORD_BYTES
        counters = result.counters
        predicted = controller.model.predict(counters, config)
        applied = controller.policy.filter(
            current=config,
            predicted=predicted,
            last_epoch_time_s=last_epoch_time,
            power=controller.machine.power,
            bandwidth_gbps=controller.bandwidth_gbps,
            dirty_bytes_hint=dirty_hint,
        )
        pending_reconfig = reconfiguration_cost(
            config,
            applied,
            controller.machine.power,
            controller.bandwidth_gbps,
            dirty_bytes_hint=dirty_hint,
        )
        if pending_reconfig.is_free:
            pending_reconfig = None
        config = applied
        schedule.overhead_time_s += overhead
        schedule.overhead_energy_j += overhead * _HOST_DECISION_POWER_W
    return schedule


def test_tracing_disabled_overhead(benchmark, emit):
    trace = build_trace("spmspv", "P1", scale=0.3)
    mode = OptimizationMode.ENERGY_EFFICIENT
    model = train_default_model(mode, kernel="spmspv")
    controller = SparseAdaptController(
        model=model, machine=TransmuterModel(), mode=mode
    )

    # Sanity: the replica and the instrumented loop agree exactly.
    assert (
        _seed_loop(controller, trace).summary()
        == controller.run(trace).summary()
    )

    # Interleave the two measurements: sequential best-of blocks let
    # machine drift between the blocks masquerade as overhead.
    seed_s, disabled_s = run_once(
        benchmark,
        lambda: interleaved_best_of(
            lambda: _seed_loop(controller, trace),
            lambda: controller.run(trace),
            repeats=15,
        ),
    )

    def _traced():
        with obs.recording(None):
            controller.run(trace)

    enabled_s = best_of(_traced)

    overhead = disabled_s / seed_s - 1.0
    emit(
        "tracing overhead guard (spmspv-P1, {} epochs)\n"
        "  seed loop:          {:8.3f} ms\n"
        "  instrumented (off): {:8.3f} ms  ({:+.2%})\n"
        "  instrumented (on):  {:8.3f} ms  ({:+.2%})".format(
            trace.n_epochs,
            seed_s * 1e3,
            disabled_s * 1e3,
            overhead,
            enabled_s * 1e3,
            enabled_s / seed_s - 1.0,
        )
    )
    assert overhead < MAX_OVERHEAD, (
        f"disabled tracing slowed the controller by {overhead:.2%} "
        f"(budget {MAX_OVERHEAD:.0%}); the no-op fast path regressed"
    )


#: Component spans a single controller epoch can open with profiling
#: on: kernel_sim + cache_model + power_model + forest_inference +
#: reconfig (the seed-loop comparison above already pays the disabled
#: cost on both sides, so this bounds it absolutely too).
SPANS_PER_EPOCH = 5


def test_profiling_disabled_span_cost(benchmark, emit):
    """The disabled profiler span must be nanoseconds, not microseconds.

    ``_seed_loop`` and ``controller.run`` both route through the
    instrumented callees, so the tracing guard above can no longer see
    a profiler regression — it would slow both sides equally. Bound it
    directly: the per-call cost of a disabled ``profile.span()`` times
    the spans one epoch opens must stay under ``MAX_OVERHEAD`` of the
    measured per-epoch simulation cost.
    """
    trace = build_trace("spmspv", "P1", scale=0.3)
    mode = OptimizationMode.ENERGY_EFFICIENT
    model = train_default_model(mode, kernel="spmspv")
    controller = SparseAdaptController(
        model=model, machine=TransmuterModel(), mode=mode
    )
    epoch_s = best_of(lambda: controller.run(trace)) / trace.n_epochs

    n = 20000
    span = obs_profile.span

    def _spin():
        for _ in range(n):
            with span("bench"):
                pass

    per_span_s = run_once(benchmark, lambda: best_of(_spin)) / n
    budget_s = MAX_OVERHEAD * epoch_s / SPANS_PER_EPOCH
    emit(
        "disabled profiler span cost\n"
        "  per span:        {:8.1f} ns\n"
        "  per-epoch budget: {:7.1f} ns ({} spans, {:.0%} of {:.1f} us "
        "epoch)".format(
            per_span_s * 1e9,
            budget_s * 1e9,
            SPANS_PER_EPOCH,
            MAX_OVERHEAD,
            epoch_s * 1e6,
        )
    )
    assert per_span_s < budget_s, (
        f"a disabled profile.span() costs {per_span_s * 1e9:.0f} ns; "
        f"{SPANS_PER_EPOCH} of them exceed {MAX_OVERHEAD:.0%} of the "
        f"{epoch_s * 1e6:.1f} us epoch cost"
    )


def test_profiling_byte_identical_results(benchmark, emit):
    """Profiling on vs off must not change a single modeled number."""
    trace = build_trace("spmspv", "P1", scale=0.3)
    mode = OptimizationMode.ENERGY_EFFICIENT
    model = train_default_model(mode, kernel="spmspv")
    controller = SparseAdaptController(
        model=model, machine=TransmuterModel(), mode=mode
    )

    baseline = controller.run(trace).summary()
    # Profile a fresh controller over an empty transition-cost memo, so
    # the run does the inference and reconfig work instead of answering
    # from the memos the first run filled.
    reconfig._COST_MEMO.clear()
    fresh = SparseAdaptController(
        model=model, machine=TransmuterModel(), mode=mode
    )
    with obs_profile.profiling() as prof:
        profiled = fresh.run(trace).summary()
    assert profiled == baseline, (
        "profiling changed the schedule: the profiler must only "
        "observe, never perturb"
    )
    data = prof.as_dict()
    names = {entry["path"][-1] for entry in data["nodes"]}
    assert {"kernel_sim", "forest_inference", "reconfig"} <= names

    off_s = best_of(lambda: controller.run(trace))

    def _profiled():
        with obs_profile.profiling():
            controller.run(trace)

    on_s = run_once(benchmark, lambda: best_of(_profiled))
    emit(
        "profiling enabled cost (informational)\n"
        "  profiling off: {:8.3f} ms\n"
        "  profiling on:  {:8.3f} ms  ({:+.2%})".format(
            off_s * 1e3, on_s * 1e3, on_s / off_s - 1.0
        )
    )
