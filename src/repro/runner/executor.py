"""The supervised campaign executor.

:class:`SuiteRunner` drives a list of :class:`Job`\\ s through one
shared supervision pipeline: per-job deadline watchdog, bounded retries
with exponential backoff for :class:`~repro.errors.RetryableError`
(including timeouts), quarantine with a structured
:class:`JobFailure` for everything else, durable ledger checkpoints
after every terminal row, and clean SIGINT checkpointing. A failed job
becomes a ``failed`` row in the :class:`SuiteReport` — the sweep always
finishes.

Parallel campaigns (``workers > 1``) run on local store workers: the
pending jobs are registered in a fresh
:class:`~repro.runner.store.ExperimentStore` at ``<ledger>.store/``, N
child processes each run :func:`~repro.runner.store.run_store_worker`
under the *same* supervision discipline, claiming jobs through lease
files and publishing each job's record group first-wins, and the parent
folds the published groups into the canonical ledger in plan order
(:meth:`~repro.runner.store.ExperimentStore.merge_into`) before
deleting the store. Because job identity is content-addressed, retry
jitter is seeded per job, and host-fault draws are stateless per
``(seed, spec, job, attempt)``, the merged ledger and report are
byte-identical to a serial run's — modulo wall-clock fields —
regardless of worker count or completion order. A store left behind by
a killed parent is folded in by ``--resume`` and removed by a fresh run.

Determinism contract: given the same plan, seeds, and code, the
report's :meth:`SuiteReport.stable_dict` is byte-identical whether the
campaign ran uninterrupted, was killed and resumed any number of times,
or ran under any ``--workers`` count. Everything wall-clock lives in
fields the stable view strips (``duration_s`` at the report and row
levels); everything else in a row is replayed from the ledger verbatim
on resume.

``repro suite-run`` fronts :func:`run_plan` (fault-rate sweeps are
specs it runs); ``repro run`` (with or without ``--trace-out``)
submits its single job through the same :class:`SuiteRunner`, so every
path in the repository shares one supervision/retry/ledger code path.
"""

from __future__ import annotations

import shutil
import signal
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from repro import obs
from repro.obs import profile as obs_profile
from repro.errors import (
    ConfigError,
    JobTimeoutError,
    ReproError,
    RetryableError,
)
from repro.faults.spec import HOST_FAULTS, FaultSchedule
from repro.runner.ledger import RunLedger, local_store_path, strip_volatile
from repro.runner.plan import CampaignPlan
from repro.runner.store import ExperimentStore, run_store_worker
from repro.runner.supervisor import (
    HostFaultInjector,
    SupervisorConfig,
    backoff_delay,
    call_with_deadline,
)
from repro.runner.worker import PortableJob, build_job, plan_portable_jobs

__all__ = [
    "Job",
    "JobFailure",
    "SuiteReport",
    "SuiteRunner",
    "CampaignInterrupted",
    "run_plan",
    "recover_local_store",
    "run_local_worker",
    "format_suite_table",
]

class CampaignInterrupted(KeyboardInterrupt):
    """SIGINT during a campaign, after the ledger was checkpointed.

    Subclasses :class:`KeyboardInterrupt` so an uncaught interrupt
    still behaves like one; the CLI catches it to print the resume
    hint and exit 130. In a parallel campaign the workers ignore
    SIGINT; the parent stops them, folds every group they published
    into the canonical ledger, and raises this once — one resume hint,
    not N.
    """

    def __init__(
        self, ledger_path: Optional[str], completed: int, total: int
    ) -> None:
        self.ledger_path = ledger_path
        self.completed = completed
        self.total = total
        if ledger_path:
            self.resume_hint = (
                f"checkpointed {completed}/{total} jobs to {ledger_path}; "
                f"rerun with --resume to continue"
            )
        else:
            self.resume_hint = (
                f"stopped after {completed}/{total} jobs "
                f"(no --ledger, so nothing to resume)"
            )
        super().__init__(self.resume_hint)


@dataclass(frozen=True)
class Job:
    """One supervised unit of work: a key, a label, and a callable.

    ``fn`` must return a JSON-native dict (that is what the ledger
    stores and the resume path replays). ``meta`` is merged into the
    report row so downstream tooling can group/filter without parsing
    labels.
    """

    key: str
    label: str
    fn: Callable[[], dict]
    index: int
    deadline_s: Optional[float] = None
    meta: Dict[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class JobFailure:
    """Structured record of a job that was quarantined."""

    kind: str  # "timeout" | "retryable" | "poisoned" | "oom"
    error: str

    def as_dict(self) -> dict:
        return {"kind": self.kind, "error": self.error}


@dataclass
class SuiteReport:
    """Aggregate result of one campaign: one row per job, in plan order."""

    name: str
    rows: List[dict] = field(default_factory=list)
    n_resumed: int = 0
    duration_s: float = 0.0
    ledger_path: Optional[str] = None
    #: True when ``max_jobs`` stopped the campaign before the plan's end.
    partial: bool = False

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {"ok": 0, "failed": 0}
        for row in self.rows:
            out[row["status"]] = out.get(row["status"], 0) + 1
        return out

    def failures(self) -> List[dict]:
        return [row for row in self.rows if row["status"] == "failed"]

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "counts": self.counts(),
            "rows": self.rows,
            "n_resumed": self.n_resumed,
            "duration_s": self.duration_s,
        }

    def stable_dict(self) -> dict:
        """The deterministic view: wall-clock and resume bookkeeping
        stripped, byte-identical across kill/resume cycles and worker
        counts."""
        payload = {
            "name": self.name,
            "counts": self.counts(),
            "rows": strip_volatile(self.rows),
        }
        return payload


class SuiteRunner:
    """Runs jobs under one supervision/ledger discipline.

    ``workers=1`` (default) executes sequentially in-process;
    ``workers=N`` runs portable jobs on N local store workers (only
    :meth:`run_portable` can parallelize — :meth:`run` takes live
    callables, which cannot cross a process boundary). What happened to
    each job is recorded in the ledger: start, retry and terminal rows,
    and a parallel campaign's merge record.
    """

    def __init__(
        self,
        config: Optional[SupervisorConfig] = None,
        ledger: Optional[RunLedger] = None,
        faults=None,
        workers: int = 1,
    ) -> None:
        if workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers!r}")
        self.config = config or SupervisorConfig()
        self.ledger = ledger
        self.workers = workers
        self.faults_schedule = faults
        self.host_faults = (
            HostFaultInjector(faults) if faults is not None else None
        )
        self._sleep = time.sleep  # patched in tests

    # ------------------------------------------------------------------
    def run(self, jobs: Sequence[Job], name: str = "campaign") -> SuiteReport:
        report = SuiteReport(
            name=name,
            ledger_path=str(self.ledger.path) if self.ledger else None,
        )
        started = time.perf_counter()
        rows: List[Optional[dict]] = [None] * len(jobs)
        completed = 0
        n_ok = 0
        n_failed = 0
        try:
            for position, job in enumerate(jobs):
                cached = (
                    self.ledger.completed.get(job.key)
                    if self.ledger is not None
                    else None
                )
                if cached is not None:
                    rows[position] = dict(cached["row"])
                    report.n_resumed += 1
                    completed += 1
                    if cached["row"].get("status") == "ok":
                        n_ok += 1
                    else:
                        n_failed += 1
                    continue
                if self.ledger is not None:
                    # Liveness for `repro top`: who is about to run what.
                    self.ledger.heartbeat(
                        done=n_ok,
                        failed=n_failed,
                        total=len(jobs),
                        job=job.label,
                    )
                row = self._run_one(job)
                rows[position] = row
                completed += 1
                if row.get("status") == "ok":
                    n_ok += 1
                else:
                    n_failed += 1
            if self.ledger is not None and jobs:
                self.ledger.heartbeat(
                    done=n_ok, failed=n_failed, total=len(jobs)
                )
        except KeyboardInterrupt:
            raise CampaignInterrupted(
                report.ledger_path, completed, len(jobs)
            ) from None
        finally:
            if self.ledger is not None:
                self.ledger.close()
        report.rows = [row for row in rows if row is not None]
        report.duration_s = round(time.perf_counter() - started, 6)
        return report

    # ------------------------------------------------------------------
    def run_portable(
        self,
        jobs: Sequence[PortableJob],
        name: str = "campaign",
        plan_key: Optional[str] = None,
    ) -> SuiteReport:
        """Run portable job descriptions, parallel when ``workers > 1``.

        The serial path rebuilds each description into a live
        :class:`Job` and delegates to :meth:`run`; the parallel path
        runs them on local store workers, whose supervision is
        :meth:`run_single` — so both paths share the retry/quarantine
        machinery exactly.
        """
        if self.workers <= 1 or len(jobs) <= 1:
            return self.run([build_job(job) for job in jobs], name=name)
        return self._run_on_store(jobs, name=name, plan_key=plan_key)

    # ------------------------------------------------------------------
    def _run_on_store(
        self,
        jobs: Sequence[PortableJob],
        name: str,
        plan_key: Optional[str] = None,
    ) -> SuiteReport:
        """Run the pending jobs on local store workers, then fold their
        published groups into the ledger in plan order."""
        started = time.perf_counter()
        ledger, tempdir = self.ledger, None
        if ledger is None:
            # The fold merges into a ledger; without a canonical one it
            # lives in a throwaway dir, store included: with nothing to
            # resume, a store whose fold failed is not kept either.
            tempdir = tempfile.mkdtemp(prefix="repro-workers-")
            ledger = RunLedger(
                Path(tempdir) / "campaign.jsonl",
                plan_key=plan_key or name,
                plan_name=name,
            )
        keys = [job.key for job in jobs]
        root = local_store_path(ledger.path)
        # A store already here belongs to an older run; callers resuming
        # a ledger fold it first (recover_local_store).
        shutil.rmtree(root, ignore_errors=True)
        pending = [job for job in jobs if job.key not in ledger.completed]
        interrupted, by_worker = False, []
        try:
            if pending:
                store = ExperimentStore.create(
                    root,
                    jobs=pending,
                    name=name,
                    config=self.config,
                    faults=_serial_faults(self.faults_schedule),
                )
                interrupted, by_worker = self._drain(
                    store, min(self.workers, len(pending))
                )
                stats = store.merge_into(ledger, keys)
                ledger.append_merge_record(
                    {
                        "workers": len(by_worker),
                        "merged_jobs": stats.merged_jobs,
                        "merged_records": stats.merged_records,
                        "by_worker": by_worker,
                    }
                )
                # Only a completed fold retires the store: one that
                # raised stays for `repro fsck` and --resume.
                shutil.rmtree(root, ignore_errors=True)
        finally:
            ledger.close()
            if tempdir is not None:
                shutil.rmtree(tempdir, ignore_errors=True)

        report = SuiteReport(
            name=name,
            ledger_path=str(self.ledger.path) if self.ledger else None,
            n_resumed=len(jobs) - len(pending),
        )
        for job in jobs:
            record = ledger.completed.get(job.key)
            if record is not None:
                report.rows.append(dict(record["row"]))
        report.duration_s = round(time.perf_counter() - started, 6)
        if interrupted:
            raise CampaignInterrupted(
                report.ledger_path, len(report.rows), len(jobs)
            )
        if len(report.rows) < len(jobs):
            deaths = "; ".join(
                f"worker {entry['worker']}: {entry['error']}"
                for entry in by_worker
                if "error" in entry
            )
            raise ReproError(
                f"{len(jobs) - len(report.rows)} job(s) lost to dead "
                f"workers ({deaths or 'no published result'}); "
                + (
                    f"ledger checkpointed at {report.ledger_path} — "
                    f"rerun with --resume"
                    if report.ledger_path
                    else "no ledger was armed; rerun the campaign"
                )
            )
        return report

    def _drain(self, store: ExperimentStore, n_workers: int):
        """Run ``n_workers`` store-worker processes until they return.

        Returns whether SIGINT stopped them, and each worker's entry
        for the merge record.
        """
        import concurrent.futures as cf

        profiler = obs_profile.get_profiler()
        payload = {"store": str(store.root), "profile": profiler.enabled}
        # Workers ignore SIGINT: the parent alone stops them, so an
        # interrupted campaign prints one resume hint, not N.
        pool = cf.ProcessPoolExecutor(
            max_workers=n_workers,
            initializer=signal.signal,
            initargs=(signal.SIGINT, signal.SIG_IGN),
        )
        futures: List[cf.Future] = []
        try:
            for rank in range(n_workers):
                try:
                    futures.append(pool.submit(run_local_worker, payload))
                except cf.BrokenExecutor as exc:
                    # A worker already started has died and broken the
                    # pool; this one never runs.
                    futures.append(cf.Future())
                    futures[-1].set_exception(exc)
            cf.wait(futures)
        except KeyboardInterrupt:
            # Published groups are durable and unpublished work re-runs
            # on resume, so stopping the workers hard is safe.
            for process in list((pool._processes or {}).values()):
                process.terminate()
            return True, [
                {"worker": rank, "interrupted": True}
                for rank in range(n_workers)
            ]
        finally:
            pool.shutdown(wait=True, cancel_futures=True)
        entries = []
        for rank, future in enumerate(futures):
            try:
                entry = {"worker": rank, **future.result()}
            except Exception as exc:  # noqa: BLE001
                # The process died (BrokenProcessPool, a storage fault,
                # ...); what it published is still folded.
                error = f"{type(exc).__name__}: {exc}"
                entry = {"worker": rank, "error": error}
            else:
                # Each worker profiled its own process; fold its span
                # tree into the campaign profile.
                profiler.merge(entry.pop("profile", None))
            entries.append(entry)
        return False, entries

    # ------------------------------------------------------------------
    def run_single(self, job: Job, ledger=None) -> dict:
        """Run one job under this runner's full supervision discipline
        (deadline, retries, host faults, quarantine) and return its
        terminal row.

        ``ledger`` optionally substitutes the checkpoint target for
        this job only — the experiment store passes a per-job group
        recorder here so a claimed job's records can be published
        first-wins as one atomic unit instead of streaming into the
        shared ledger. Any object with the ``job_started`` /
        ``job_retried`` / ``job_done`` / ``job_quarantined`` ledger
        methods works.
        """
        previous = self.ledger
        if ledger is not None:
            self.ledger = ledger
        try:
            return self._run_one(job)
        finally:
            self.ledger = previous

    # ------------------------------------------------------------------
    def _run_one(self, job: Job) -> dict:
        deadline = (
            job.deadline_s
            if job.deadline_s is not None
            else self.config.deadline_s
        )
        attempts = 0
        job_started = time.perf_counter()
        failure: Optional[JobFailure] = None
        result: Optional[dict] = None
        while True:
            attempts += 1
            if self.ledger is not None:
                self.ledger.job_started(job.key, job.index, attempts)
            fn = job.fn
            if self.host_faults:
                fn = self.host_faults.wrap(fn, job.index, attempts)
            try:
                result = call_with_deadline(fn, deadline, label=job.label)
                break
            except KeyboardInterrupt:
                raise
            except RetryableError as exc:
                kind = (
                    "timeout"
                    if isinstance(exc, JobTimeoutError)
                    else "retryable"
                )
                if attempts > self.config.max_retries:
                    failure = JobFailure(kind=kind, error=str(exc))
                    break
                delay = backoff_delay(self.config, job.index, attempts)
                if self.ledger is not None:
                    self.ledger.job_retried(
                        job.key, attempts, str(exc), delay
                    )
                if delay > 0:
                    self._sleep(delay)
            except MemoryError as exc:
                # Memory-pressure abort: retrying at the same scale
                # would just OOM again, so quarantine immediately with
                # its own taxonomy kind.
                failure = JobFailure(
                    kind="oom",
                    error=f"MemoryError: {exc}",
                )
                break
            except Exception as exc:  # noqa: BLE001 - poisoned input
                failure = JobFailure(
                    kind="poisoned",
                    error=f"{type(exc).__name__}: {exc}",
                )
                break

        duration = round(time.perf_counter() - job_started, 6)
        row: Dict[str, object] = {
            "index": job.index,
            "key": job.key,
            "label": job.label,
            **job.meta,
        }
        if failure is None:
            row.update(
                status="ok", attempts=attempts, result=result,
                duration_s=duration,
            )
            if self.ledger is not None:
                self.ledger.job_done(job.key, row)
        else:
            row.update(
                status="failed", attempts=attempts,
                failure=failure.as_dict(), duration_s=duration,
            )
            if self.ledger is not None:
                self.ledger.job_quarantined(job.key, row)
        return row


# ---------------------------------------------------------------------------
def run_local_worker(payload: dict) -> dict:
    """Process-pool entry point of ``workers > 1``: one store worker.

    ``payload`` names the store and whether the campaign is profiled;
    the return value is the worker's merge-record entry. Workers run
    untraced: N forked processes appending to the parent's sink would
    interleave records. A profiled campaign's worker runs a fresh
    profiler and returns its span tree for the parent to merge.
    """
    obs.install(None)
    profiler = obs_profile.Profiler() if payload["profile"] else None
    obs_profile.install(profiler)
    store = ExperimentStore.attach(payload["store"])
    # Short idle poll: local jobs are often sub-second, and the parent
    # waits on the slowest worker's last re-scan.
    summary = run_store_worker(store, poll_s=0.02, finalize=False)
    entry = {
        "jobs": summary["published"],
        "ok": summary["ok"],
        "failed": summary["failed"],
        "duration_s": summary["duration_s"],
    }
    if profiler is not None:
        profiler.stop()
        entry["profile"] = profiler.as_dict()
    return entry


def _serial_faults(
    faults: Optional[FaultSchedule],
) -> Optional[FaultSchedule]:
    """``faults`` as a serial run honours it: only host kinds fire.

    Store (``lease_lost``, ``clock_skew``) and storage (``io_*``) specs
    would make a ``--workers`` run differ from a serial one, so they
    are registered at rate 0. They keep their slots because host-fault
    draws are keyed by spec position.
    """
    if faults is None:
        return None
    return FaultSchedule(
        specs=tuple(
            spec if spec.kind in HOST_FAULTS else spec.scaled(0.0)
            for spec in faults.specs
        ),
        seed=faults.seed,
    )


def recover_local_store(ledger: RunLedger, key_order: Sequence[str]) -> None:
    """Fold the store a killed ``workers > 1`` parent left beside
    ``ledger`` — every group its workers published — then delete it.

    Only keys of ``key_order`` are folded. A store killed before its
    registration landed is deleted unread: nothing was published, and
    its jobs simply re-run. A damaged result group raises
    :class:`~repro.errors.StorageError` before anything is folded and
    leaves the store in place for ``repro fsck --repair``.
    """
    root = local_store_path(ledger.path)
    if not root.exists():
        return
    try:
        store = ExperimentStore.attach(root)
    except ConfigError:
        pass
    else:
        store.merge_into(ledger, key_order)
    shutil.rmtree(root, ignore_errors=True)


# ---------------------------------------------------------------------------
def run_plan(
    plan: CampaignPlan,
    config: Optional[SupervisorConfig] = None,
    ledger_path: Optional[str] = None,
    resume: bool = False,
    max_jobs: Optional[int] = None,
    workers: int = 1,
) -> SuiteReport:
    """Execute a campaign plan under full supervision.

    ``ledger_path`` arms checkpointing (required for ``resume``);
    ``max_jobs`` stops after that many *newly executed* jobs — a
    deterministic interruption point used by tests and CI — leaving
    the ledger resumable. ``workers`` runs pending jobs on that many
    local store workers; results are byte-identical to a serial run
    regardless of the count (resuming with a *different* worker count
    is fine for the same reason).
    """
    ledger: Optional[RunLedger] = None
    if ledger_path is not None:
        ledger = RunLedger(
            ledger_path,
            plan_key=plan.key(),
            plan_name=plan.name,
            resume=resume,
        )
        if resume:
            # Torn lines are skipped on load (the damaged jobs simply
            # re-run); `suite-report`, `top` and `fsck` count them.
            # A killed parallel run may have left its store behind: fold
            # every group it published so only unfinished jobs re-run.
            recover_local_store(ledger, [spec.key() for spec in plan.jobs])
        else:
            # Fresh campaign: a stale store beside the new ledger would
            # pollute a later resume with rows from an older run.
            shutil.rmtree(local_store_path(ledger.path), ignore_errors=True)
    runner = SuiteRunner(
        config=config, ledger=ledger, faults=plan.faults, workers=workers
    )
    jobs = plan_portable_jobs(plan)
    if max_jobs is not None:
        trimmed: List[PortableJob] = []
        fresh = 0
        for job in jobs:
            cached = ledger.completed.get(job.key) if ledger else None
            if cached is None:
                if fresh == max_jobs:
                    break
                fresh += 1
            trimmed.append(job)
        jobs = trimmed
    report = runner.run_portable(jobs, name=plan.name, plan_key=plan.key())
    report.partial = len(jobs) < len(plan.jobs)
    return report


def format_suite_table(report: SuiteReport) -> str:
    """Render a suite report as the ``repro suite-run`` table."""
    counts = report.counts()
    lines = [
        f"Campaign {report.name} — {len(report.rows)} jobs "
        f"({counts.get('ok', 0)} ok, {counts.get('failed', 0)} failed"
        + (f", {report.n_resumed} resumed from ledger" if report.n_resumed
           else "")
        + ")",
        "",
        f"{'job':<22} {'status':<8} {'att':>3} {'eff x':>8} {'perf x':>8}",
    ]
    for row in report.rows:
        if row["status"] == "ok":
            adaptive = (row.get("result") or {}).get("schemes", {}).get(
                "SparseAdapt"
            )
            eff = (
                f"{adaptive['efficiency_gain']:8.3f}" if adaptive else "     n/a"
            )
            perf = (
                f"{adaptive['perf_gain']:8.3f}" if adaptive else "     n/a"
            )
            lines.append(
                f"{row['label']:<22} {'ok':<8} {row['attempts']:>3d} "
                f"{eff} {perf}"
            )
        else:
            failure = row.get("failure", {})
            lines.append(
                f"{row['label']:<22} {'FAILED':<8} {row['attempts']:>3d} "
                f"  [{failure.get('kind')}] {failure.get('error')}"
            )
    return "\n".join(lines)
