"""Resilient suite runner: checkpointed, resumable, supervised campaigns.

The unit of scientific work in the paper is the full R01–R16 suite
sweep, not a single run — and a campaign of dozens of jobs must survive
a hung kernel, a poisoned input, or a Ctrl-C without losing everything.
This package is the host-side execution layer that guarantees it:

* :mod:`repro.runner.plan` — declarative campaign plans (JSON files or
  the built-in Table-5 plan) and content-addressed job keys;
* :mod:`repro.runner.ledger` — the durable, fsynced JSONL run ledger
  that makes any campaign resumable, plus the first-terminal-wins
  merge that folds published record groups into it;
* :mod:`repro.runner.supervisor` — per-job deadline watchdog, retry
  backoff, and the host-level (``job_hang``/``job_crash``/``job_oom``)
  fault injector;
* :mod:`repro.runner.worker` — portable job descriptions, the unit
  that crosses a process boundary;
* :mod:`repro.runner.executor` — the :class:`SuiteRunner` tying them
  together (serial, or ``workers=N`` local store workers), plus
  :func:`run_plan` behind ``repro suite-run``;
* :mod:`repro.runner.report` — post-hoc ledger summaries and diffs
  behind ``repro suite-report``;
* :mod:`repro.runner.lease` — atomic lease files (claim, renew,
  reclaim) for cooperating worker processes;
* :mod:`repro.runner.store` — the multi-host campaign fabric: a shared
  file-backed experiment store any number of independently-launched
  ``repro worker`` processes claim jobs from, behind
  ``repro suite-run --store`` and ``--workers N``;
* :mod:`repro.runner.fsck` — the ``repro fsck`` scanner/repairer for
  store trees and ledgers (torn records, trailer mismatches, orphan
  tmp files, dead leases, missing result groups).

``repro run`` (also when it records a trace with ``--trace-out``)
routes its work through the same :class:`SuiteRunner` as
``repro suite-run``, so supervision, retries, and ledgers behave
identically everywhere. See ``docs/robustness.md``.
"""

from repro._lazy import lazy_attributes
from repro.runner.executor import (
    CampaignInterrupted,
    Job,
    JobFailure,
    SuiteReport,
    SuiteRunner,
    format_suite_table,
    run_plan,
)
from repro.runner.lease import (
    DEFAULT_LEASE_TTL_S,
    Lease,
    LeaseManager,
    default_owner,
)
from repro.runner.ledger import (
    RunLedger,
    compact_ledger,
    list_shards,
    read_ledger_records,
    shard_path,
    verify_trailer,
)
from repro.runner.plan import CampaignPlan, JobSpec, job_key, table5_plan
from repro.runner.store import (
    ExperimentStore,
    build_schedule,
    predicted_cost,
    run_store_worker,
)
from repro.runner.supervisor import (
    HostFaultInjector,
    SupervisorConfig,
    call_with_deadline,
)
from repro.runner.worker import (
    PortableJob,
    build_job,
    plan_portable_jobs,
)

__all__ = [
    "CampaignInterrupted",
    "CampaignPlan",
    "DEFAULT_LEASE_TTL_S",
    "ExperimentStore",
    "Finding",
    "FsckReport",
    "HostFaultInjector",
    "Job",
    "JobFailure",
    "JobSpec",
    "Lease",
    "LeaseManager",
    "PortableJob",
    "RunLedger",
    "SuiteReport",
    "SuiteRunner",
    "SupervisorConfig",
    "build_job",
    "build_schedule",
    "call_with_deadline",
    "compact_ledger",
    "default_owner",
    "format_fsck_report",
    "format_suite_table",
    "job_key",
    "list_shards",
    "plan_portable_jobs",
    "predicted_cost",
    "read_ledger_records",
    "run_fsck",
    "run_plan",
    "run_store_worker",
    "shard_path",
    "table5_plan",
    "verify_trailer",
]

# The fsck scanner/repairer, which no job runs: imported on first use.
__getattr__ = lazy_attributes(
    __name__,
    globals(),
    {
        "fsck": "fsck",
        "Finding": "fsck.Finding",
        "FsckReport": "fsck.FsckReport",
        "format_fsck_report": "fsck.format_fsck_report",
        "run_fsck": "fsck.run_fsck",
    },
)
