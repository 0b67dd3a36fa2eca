"""Guard: suite-runner supervision must stay cheap per job.

The resilient runner wraps every campaign job in bookkeeping (obs
events, retry accounting, optional ledger appends, optional watchdog
thread). Campaign jobs are seconds-long evaluations, so the wrapper
must cost micro- not milliseconds; this benchmark times a campaign of
trivial jobs through :class:`repro.runner.SuiteRunner` against a bare
loop calling the same functions, and fails if supervision costs more
than ``MAX_OVERHEAD_S`` per job. The deadline-watchdog mode (one worker
thread per attempt) and the fsynced-ledger mode are reported for
context — they buy hang-resilience and resumability with real costs
that should stay visible, not asserted flat.

Run with: ``pytest benchmarks/bench_runner_overhead.py --benchmark-only``
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from benchmarks.conftest import best_of, run_once

from repro.runner import Job, RunLedger, SuiteRunner, SupervisorConfig

#: Trivial jobs per campaign; enough to average out setup noise.
N_JOBS = 200

#: Maximum tolerated supervision cost per job (no deadline, no ledger).
MAX_OVERHEAD_S = 0.005


def _jobs():
    return [
        Job(
            key=f"bench{index:04d}",
            label=f"bench/{index}",
            fn=lambda index=index: {"value": index},
            index=index,
        )
        for index in range(N_JOBS)
    ]


def _bare_loop() -> None:
    for job in _jobs():
        job.fn()


def _supervised(config: SupervisorConfig, ledger_dir=None) -> None:
    ledger = None
    if ledger_dir is not None:
        ledger = RunLedger(
            Path(ledger_dir) / "bench.jsonl", plan_key="bench"
        )
    SuiteRunner(config=config, ledger=ledger).run(_jobs(), name="bench")


def test_runner_overhead(benchmark, emit):
    config = SupervisorConfig(max_retries=0)
    bare = best_of(_bare_loop, repeats=5)
    supervised = best_of(lambda: _supervised(config), repeats=5)

    deadline_config = SupervisorConfig(deadline_s=30.0, max_retries=0)
    with_deadline = best_of(
        lambda: _supervised(deadline_config), repeats=3
    )

    def ledgered() -> None:
        with tempfile.TemporaryDirectory() as scratch:
            _supervised(config, ledger_dir=scratch)

    with_ledger = best_of(ledgered, repeats=3)

    per_job = (supervised - bare) / N_JOBS
    emit(
        "\n".join(
            [
                f"suite-runner supervision overhead ({N_JOBS} trivial jobs)",
                f"  bare loop:          {bare * 1e3:8.3f} ms",
                f"  supervised:         {supervised * 1e3:8.3f} ms"
                f"  ({per_job * 1e6:7.2f} us/job)",
                f"  + deadline watchdog:{with_deadline * 1e3:8.3f} ms"
                f"  ({(with_deadline - bare) / N_JOBS * 1e6:7.2f} us/job)",
                f"  + fsynced ledger:   {with_ledger * 1e3:8.3f} ms"
                f"  ({(with_ledger - bare) / N_JOBS * 1e6:7.2f} us/job)",
                f"  budget: {MAX_OVERHEAD_S * 1e6:.0f} us/job (plain mode)",
            ]
        )
    )
    assert per_job < MAX_OVERHEAD_S, (
        f"suite-runner supervision costs {per_job * 1e6:.1f} us per job "
        f"(budget {MAX_OVERHEAD_S * 1e6:.0f} us)"
    )
    run_once(benchmark, lambda: _supervised(config))


# ---------------------------------------------------------------------------
#: Sleep jobs of the scheduling-bound speedup measurement.
N_SLEEP_JOBS = 8
SLEEP_S = 0.25

#: Parallel fan-out of the speedup measurements.
N_WORKERS = 4

#: Required speedup of --workers 4 over --workers 1 on sleep jobs.
MIN_SLEEP_SPEEDUP = 2.0

#: Required speedup on the Table-5 plan — only asserted on hosts with
#: enough cores to make a compute-bound speedup physically possible.
MIN_PLAN_SPEEDUP = 2.0


def _sleep_portable_jobs():
    from repro.runner import PortableJob

    return [
        PortableJob(
            kind="sleep",
            key=f"sleep{index:02d}",
            label=f"sleep/{index}",
            index=index,
            payload={"seconds": SLEEP_S, "value": index},
        )
        for index in range(N_SLEEP_JOBS)
    ]


def _time_portable(workers: int) -> float:
    import time

    runner = SuiteRunner(
        config=SupervisorConfig(max_retries=0), workers=workers
    )
    start = time.perf_counter()
    report = runner.run_portable(_sleep_portable_jobs(), plan_key="bench")
    elapsed = time.perf_counter() - start
    assert report.counts() == {"ok": N_SLEEP_JOBS, "failed": 0}
    return elapsed


def _time_table5(workers: int) -> float:
    import time

    from repro.runner import run_plan, table5_plan

    plan = table5_plan(scale=0.15, schemes=("Baseline", "Best Avg"))
    start = time.perf_counter()
    report = run_plan(
        plan, config=SupervisorConfig(max_retries=0), workers=workers
    )
    elapsed = time.perf_counter() - start
    assert report.counts() == {"ok": 16, "failed": 0}
    return elapsed


def test_workers_speedup(benchmark, emit):
    """--workers N must actually buy wall-clock.

    Two measurements: (1) scheduling-bound sleep jobs, where the
    speedup depends only on the executor's fan-out working — asserted
    everywhere, including single-core CI runners; (2) the built-in
    Table-5 plan (statics-only so the benchmark stays seconds, not
    minutes), compute-bound — asserted only where >= ``N_WORKERS``
    cores exist for the workers to land on.
    """
    import os

    serial_sleep = _time_portable(1)
    parallel_sleep = _time_portable(N_WORKERS)
    sleep_speedup = serial_sleep / parallel_sleep

    serial_plan = _time_table5(1)
    parallel_plan = _time_table5(N_WORKERS)
    plan_speedup = serial_plan / parallel_plan

    cores = os.cpu_count() or 1
    emit(
        "\n".join(
            [
                f"parallel campaign speedup (--workers {N_WORKERS} "
                f"vs 1, {cores} cores)",
                f"  sleep jobs ({N_SLEEP_JOBS} x {SLEEP_S:.2f}s): "
                f"{serial_sleep:6.3f}s -> {parallel_sleep:6.3f}s "
                f"({sleep_speedup:4.2f}x, floor {MIN_SLEEP_SPEEDUP:.1f}x)",
                f"  table-5 plan (16 jobs):      "
                f"{serial_plan:6.3f}s -> {parallel_plan:6.3f}s "
                f"({plan_speedup:4.2f}x"
                + (
                    f", floor {MIN_PLAN_SPEEDUP:.1f}x)"
                    if cores >= N_WORKERS
                    else f", floor waived: {cores} core(s))"
                ),
            ]
        )
    )
    assert sleep_speedup >= MIN_SLEEP_SPEEDUP, (
        f"--workers {N_WORKERS} sped sleep jobs up only "
        f"{sleep_speedup:.2f}x (need >= {MIN_SLEEP_SPEEDUP:.1f}x)"
    )
    if cores >= N_WORKERS:
        assert plan_speedup >= MIN_PLAN_SPEEDUP, (
            f"--workers {N_WORKERS} sped the Table-5 plan up only "
            f"{plan_speedup:.2f}x (need >= {MIN_PLAN_SPEEDUP:.1f}x "
            f"on {cores} cores)"
        )
    run_once(benchmark, lambda: _time_portable(N_WORKERS))


# ---------------------------------------------------------------------------
#: Trivial jobs per store-fabric campaign.
N_STORE_JOBS = 50

#: Maximum tolerated fabric cost per job over the plain supervised
#: runner: lease claim + renewal thread + result publish + finalize
#: merge share. Campaign jobs are seconds-long; ~15 ms of fsync-bound
#: coordination per job is noise there but a regression here would
#: still catch an accidental O(N^2) rescan or a sync call in the loop.
MAX_STORE_OVERHEAD_S = 0.015


def test_store_fabric_overhead(benchmark, emit):
    """The lease-claim/publish/finalize fabric must stay milliseconds
    per job over the plain supervised runner on the same grid.

    Measured with an (empty-schedule) :class:`IOFaultInjector`
    installed: every durable write then routes through the active
    I/O shim, so this floor also guards the shim's own cost — a
    per-byte wrapper or a lock added to the hot path shows up here.
    """
    import tempfile as tf

    from repro.faults.io import IOFaultInjector, installed
    from repro.faults.spec import FaultSchedule
    from repro.runner import (
        ExperimentStore,
        PortableJob,
        run_store_worker,
    )

    jobs = [
        PortableJob(
            kind="sleep",
            key=f"store{index:03d}",
            label=f"store/{index}",
            index=index,
            payload={"seconds": 0.0, "value": index},
        )
        for index in range(N_STORE_JOBS)
    ]
    config = SupervisorConfig(max_retries=0)

    def plain() -> None:
        SuiteRunner(config=config).run_portable(jobs, name="bench")

    def fabric() -> None:
        with tf.TemporaryDirectory() as scratch:
            store = ExperimentStore.create(
                Path(scratch) / "store",
                jobs=jobs,
                name="bench",
                config=config,
            )
            with installed(IOFaultInjector(FaultSchedule())):
                summary = run_store_worker(store, poll_s=0.01)
            assert summary["complete"]

    plain_s = best_of(plain, repeats=3)
    fabric_s = best_of(fabric, repeats=3)
    per_job = (fabric_s - plain_s) / N_STORE_JOBS
    emit(
        "\n".join(
            [
                f"experiment-store fabric overhead ({N_STORE_JOBS} "
                f"trivial jobs, one worker, I/O shim installed)",
                f"  plain runner:  {plain_s * 1e3:8.3f} ms",
                f"  store fabric:  {fabric_s * 1e3:8.3f} ms"
                f"  ({per_job * 1e3:6.3f} ms/job)",
                f"  budget: {MAX_STORE_OVERHEAD_S * 1e3:.1f} ms/job "
                f"(claim + publish + finalize share)",
            ]
        )
    )
    assert per_job < MAX_STORE_OVERHEAD_S, (
        f"store fabric costs {per_job * 1e3:.2f} ms per job over the "
        f"plain runner (budget {MAX_STORE_OVERHEAD_S * 1e3:.1f} ms)"
    )
    run_once(benchmark, fabric)


# ---------------------------------------------------------------------------
#: Required steady-state speedup of the production path over the
#: scalar reference copies (``tests/scalar_reference.py``) on the
#: Table-5 campaign.
MIN_FASTPATH_SPEEDUP = 10.0

#: Table-heavy scheme set: every scheme that walks the epoch x config
#: table, where the vectorized grid and the transition-cost memos do
#: their work. (SparseAdapt's sequential controller loop is measured by
#: the equivalence suite instead; its training cost would swamp this
#: wall-clock comparison with work both legs share.)
FASTPATH_SCHEMES = (
    "Baseline",
    "Best Avg",
    "Max Cfg",
    "Ideal Static",
    "Ideal Greedy",
    "Oracle",
)


def _run_table5_campaign(fast: bool):
    from repro.runner import run_plan, table5_plan
    from tests.scalar_reference import code_path

    plan = table5_plan(scale=0.15, schemes=FASTPATH_SCHEMES)
    with code_path(fast):
        report = run_plan(plan, config=SupervisorConfig(max_retries=0))
    assert report.counts() == {"ok": 16, "failed": 0}
    return report


def _report_bytes(report) -> bytes:
    """Canonical bytes of a campaign report, wall-clock fields dropped."""
    import json

    rows = [
        {k: v for k, v in row.items() if k != "duration_s"}
        for row in report.rows
    ]
    return json.dumps(rows, sort_keys=True).encode()


def test_fastpath_speedup(benchmark, emit):
    """The fast path must buy >= 10x on the Table-5 campaign — and
    change nothing.

    Steady-state regime: traces and transition-cost memos warm, the
    repeated-evaluation shape of real campaigns (sweeps, compare runs,
    resume). The cold first pass is reported for honesty but not
    asserted — its scalar leg runs first and also synthesizes the
    traces, which the fast leg reuses. Byte-identical reports across the legs are the safety rail:
    a vectorization that drifts by one ulp fails here before it can
    skew a paper table.
    """
    import time

    start = time.perf_counter()
    report_cold_scalar = _run_table5_campaign(fast=False)
    cold_scalar_s = time.perf_counter() - start
    start = time.perf_counter()
    report_cold_fast = _run_table5_campaign(fast=True)
    cold_fast_s = time.perf_counter() - start

    from benchmarks.conftest import interleaved_best_of

    times = {}
    reports = {}

    def leg(fast: bool) -> None:
        start = time.perf_counter()
        reports[fast] = _run_table5_campaign(fast=fast)
        times[fast] = min(
            times.get(fast, float("inf")), time.perf_counter() - start
        )

    interleaved_best_of(lambda: leg(True), lambda: leg(False), repeats=3)
    fast_s, scalar_s = times[True], times[False]
    speedup = scalar_s / fast_s

    emit(
        "\n".join(
            [
                "fast-path speedup (table-5 campaign, 16 jobs, "
                f"{len(FASTPATH_SCHEMES)} table-heavy schemes)",
                f"  cold:   scalar {cold_scalar_s:6.3f}s   "
                f"fast {cold_fast_s:6.3f}s  "
                f"({cold_scalar_s / cold_fast_s:5.2f}x, scalar leg "
                f"includes trace synthesis, not asserted)",
                f"  steady: scalar {scalar_s:6.3f}s   "
                f"fast {fast_s:6.3f}s  ({speedup:5.2f}x, floor "
                f"{MIN_FASTPATH_SPEEDUP:.0f}x)",
                "  reports byte-identical across both legs and both "
                "regimes",
            ]
        )
    )
    reference = _report_bytes(report_cold_scalar)
    assert _report_bytes(report_cold_fast) == reference
    assert _report_bytes(reports[False]) == reference
    assert _report_bytes(reports[True]) == reference
    assert speedup >= MIN_FASTPATH_SPEEDUP, (
        f"fast path sped the table-5 campaign up only {speedup:.2f}x "
        f"(need >= {MIN_FASTPATH_SPEEDUP:.0f}x steady-state)"
    )
    run_once(benchmark, lambda: _run_table5_campaign(fast=True))
