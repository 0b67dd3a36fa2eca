"""The shared experiment store: multi-host campaign fabric.

A store is a directory any number of *independently launched* worker
processes — on any host sharing the path — cooperate through. The
content-addressed job grid is registered once
(:meth:`ExperimentStore.create`); workers attach
(:meth:`ExperimentStore.attach` or ``repro worker --store``), claim
open jobs one at a time via lease files
(:class:`~repro.runner.lease.LeaseManager`), execute them under the
standard supervision discipline
(:meth:`~repro.runner.executor.SuiteRunner.run_single`: deadline,
retries, host faults, quarantine), and publish each job's full ledger
record group *first-wins* into ``results/``. When every job is
terminal, any worker finalizes: the groups are merged into the
canonical ``ledger.jsonl`` in plan order with the existing
first-terminal-wins rule, so the store's ledger and report are
byte-identical (modulo wall-clock fields) to a clean single-worker
run's — no matter how many workers ran, died, or were restarted.

Store layout::

    store/
      store.json        registration: plan key, supervisor config,
                        fault schedule, claim-order schedule (by
                        predicted cost) — its existence IS the
                        registration; published atomically first-wins
      jobs.json         the portable job grid, in plan order
      plan.json         provenance (when registered from a CampaignPlan)
      ledger.jsonl      canonical ledger: header at registration,
                        terminal groups at finalize
      ledger.jsonl.w<k> per-attached-worker shard (liveness heartbeats +
                        a mirror of executed records, for `repro top`);
                        rank k claimed by O_EXCL creation, deleted at
                        finalize
      leases/<key>.json active claims (plus the `_finalize` lock)
      results/<key>.jsonl  one published record group per settled job

Correctness model — leases are an *optimization*, publishes are the
*backbone*: claims minimize duplicate work, but even if two workers
run the same job (an expired lease reclaimed while the original owner
limps on, clocks skewed between hosts), job execution is deterministic
per ``(seed, spec, job, attempt)``, and only the first published group
counts (``os.link`` semantics), so convergence cannot be violated —
the loser's output is discarded whole. A worker that dies mid-job
simply never publishes: its lease expires, a survivor reclaims, and
the retry/backoff/quarantine machinery replays identically.

Scheduling: jobs are claimed cheapest-predicted-cost first
(:func:`predicted_cost` — scale-dominated for evaluate jobs). Every
claimed job runs, so no job's row can depend on which worker ran what,
or how many workers there were.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.errors import ConfigError, ReproError, StorageError
from repro.faults import io as faults_io
from repro.faults.spec import IO_FAULTS, STORE_FAULTS, FaultSchedule
from repro.obs.sinks import encode_record, fsync_dir
from repro.runner.lease import (
    DEFAULT_LEASE_TTL_S,
    Lease,
    LeaseManager,
)
from repro.runner.ledger import (
    RunLedger,
    fold_records,
    list_shards,
    retry_record,
    seal,
    shard_path,
    start_record,
    terminal_record,
    unseal,
    well_formed,
)
from repro.runner.plan import CampaignPlan, job_key
from repro.runner.supervisor import HostFaultInjector, SupervisorConfig
from repro.runner.worker import PortableJob, build_job, plan_portable_jobs

__all__ = [
    "STORE_VERSION",
    "FINALIZE_KEY",
    "ExperimentStore",
    "predicted_cost",
    "build_schedule",
    "run_store_worker",
]

STORE_VERSION = 1

#: Lease key guarding the finalize merge (never a job key: job keys are
#: hex digests).
FINALIZE_KEY = "_finalize"

#: Upper bound on worker shard ranks a store will allocate.
MAX_WORKER_RANKS = 4096


# ---------------------------------------------------------------------------
# Scheduling
# ---------------------------------------------------------------------------
def predicted_cost(job: PortableJob) -> float:
    """Relative predicted wall-clock of one portable job.

    Evaluate jobs are dominated by trace scale (epochs simulated per
    scheme), multiplied by the scheme count and the oracle-table
    surcharge; sleep jobs cost their sleep; fail jobs are free. Units
    are arbitrary — only the *ordering* matters for claim priority.
    """
    if job.kind == "sleep":
        return float(job.payload.get("seconds", 0.0))
    if job.kind == "fail":
        return 0.0
    payload = job.payload
    scale = float(payload.get("scale", 0.3))
    schemes = payload.get("schemes") or ("Baseline", "SparseAdapt")
    surcharge = 3.0 if payload.get("regret") else 1.0
    return scale * len(tuple(schemes)) * surcharge


@dataclass(frozen=True)
class ScheduleEntry:
    """One claimable unit: key, plan index, predicted cost."""

    key: str
    index: int
    cost: float

    def as_dict(self) -> dict:
        return {"key": self.key, "index": self.index, "cost": self.cost}

    @staticmethod
    def from_dict(raw: dict) -> "ScheduleEntry":
        # Stores registered by older revisions may carry an ``after``
        # dependency key; it is ignored.
        return ScheduleEntry(
            key=str(raw["key"]),
            index=int(raw["index"]),
            cost=float(raw["cost"]),
        )


def build_schedule(jobs: Sequence[PortableJob]) -> List[ScheduleEntry]:
    """Claim order for a job grid: cheapest first, plan order on ties.

    Computed once at registration and stored in ``store.json`` so every
    worker — whatever code revision it runs — claims in the same order.
    """
    entries = [
        ScheduleEntry(
            key=job.key, index=job.index, cost=round(predicted_cost(job), 9)
        )
        for job in jobs
    ]
    entries.sort(key=lambda entry: (entry.cost, entry.index))
    return entries


# ---------------------------------------------------------------------------
# First-wins file publishing
# ---------------------------------------------------------------------------
#: Crashed-write residue: tmp siblings of atomic writes and publishes,
#: compaction scratch, lease renewal tmp files, reclaim tombstones.
_RESIDUE_RE = re.compile(
    r"\.(?:tmp\d+(?:-[0-9a-f]+)?|compact\d+|renew\d+|reclaim-\d+-[0-9a-f]+)$"
)



def _publish_file(path: Path, text: str) -> bool:
    """Publish ``text`` at ``path`` atomically, first writer wins.

    The content is written to a unique temporary sibling, fsynced, and
    hard-linked to the final name — ``os.link`` fails with ``EEXIST``
    if any other process published first, so the final path only ever
    holds one complete, durable version. Returns whether *we* won.
    """
    if path.exists():
        return False
    tmp = path.with_name(
        f"{path.name}.tmp{os.getpid()}-{os.urandom(4).hex()}"
    )
    shim = faults_io.get_shim()
    with tmp.open("w", encoding="utf-8") as handle:
        shim.write(handle, text, site="store.publish.write")
        handle.flush()
        shim.fsync(handle.fileno(), site="store.publish.fsync")
    try:
        shim.link(tmp, path, site="store.publish.link")
        won = True
    except FileExistsError:
        won = False
    finally:
        try:
            tmp.unlink()
        except OSError:  # pragma: no cover - best-effort cleanup
            pass
    if won:
        fsync_dir(path.parent)
    return won


@dataclass
class MergeStats:
    """What one :meth:`ExperimentStore.merge_into` pass did."""

    merged_jobs: int = 0
    merged_records: int = 0
    skipped_completed: int = 0


# ---------------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------------
class ExperimentStore:
    """A registered job grid plus its claim/result state on disk."""

    def __init__(
        self,
        root: Union[str, Path],
        meta: dict,
        jobs: Sequence[PortableJob],
    ) -> None:
        self.root = Path(root)
        self.meta = meta
        #: Jobs in plan order (the canonical merge/report order).
        self.job_list: List[PortableJob] = list(jobs)
        self.jobs: Dict[str, PortableJob] = {
            job.key: job for job in self.job_list
        }
        self.schedule: List[ScheduleEntry] = [
            ScheduleEntry.from_dict(raw)
            for raw in meta.get("schedule", [])
        ]

    # -- paths ------------------------------------------------------------
    @property
    def store_path(self) -> Path:
        return self.root / "store.json"

    @property
    def jobs_path(self) -> Path:
        return self.root / "jobs.json"

    @property
    def plan_path(self) -> Path:
        return self.root / "plan.json"

    @property
    def ledger_path(self) -> Path:
        return self.root / "ledger.jsonl"

    @property
    def leases_dir(self) -> Path:
        return self.root / "leases"

    @property
    def results_dir(self) -> Path:
        return self.root / "results"

    # -- registration metadata -------------------------------------------
    @property
    def plan_key(self) -> str:
        return str(self.meta["plan_key"])

    @property
    def plan_name(self) -> str:
        return str(self.meta.get("name", "campaign"))

    @property
    def n_jobs(self) -> int:
        return len(self.job_list)

    @property
    def config(self) -> SupervisorConfig:
        """The supervisor config every worker must use — stored at
        registration, because per-worker retry/deadline overrides would
        change attempt counts and break report byte-identity."""
        return SupervisorConfig(**self.meta.get("config", {}))

    @property
    def fault_schedule(self) -> Optional[FaultSchedule]:
        raw = self.meta.get("faults")
        return FaultSchedule.from_dict(raw) if raw is not None else None

    # -- create / attach --------------------------------------------------
    @classmethod
    def create(
        cls,
        root: Union[str, Path],
        plan: Optional[CampaignPlan] = None,
        jobs: Optional[Sequence[PortableJob]] = None,
        name: Optional[str] = None,
        config: Optional[SupervisorConfig] = None,
        faults: Optional[FaultSchedule] = None,
    ) -> "ExperimentStore":
        """Register a job grid in a fresh (or concurrently-registered)
        store directory.

        Exactly one of ``plan`` / ``jobs`` describes the grid. The
        registration itself is first-wins: ``jobs.json`` is published
        before ``store.json``, whose appearance is what makes the store
        attachable — losing the ``store.json`` race to a concurrent
        registrar of the *same* plan attaches to theirs; a different
        plan is a :class:`~repro.errors.ConfigError`.
        """
        if (plan is None) == (jobs is None):
            raise ConfigError(
                "register exactly one of plan= or jobs= in a store"
            )
        root = Path(root)
        if (root / "store.json").is_file():
            raise ConfigError(
                f"experiment store at {root} is already registered; "
                f"attach instead"
            )
        if plan is not None:
            portable = plan_portable_jobs(plan)
            plan_key = plan.key()
            plan_name = plan.name
            if faults is None:
                faults = plan.faults
        else:
            portable = list(jobs or ())
            plan_name = name or "campaign"
            plan_key = job_key(
                {
                    "type": "plan",
                    "name": plan_name,
                    "jobs": [job.as_dict() for job in portable],
                }
            )
        if not portable:
            raise ConfigError("cannot register an empty job grid")
        seen: Dict[str, PortableJob] = {}
        for job in portable:
            if job.key in seen:
                raise ConfigError(
                    f"duplicate job key {job.key} in store registration"
                )
            seen[job.key] = job
        config = config or SupervisorConfig()
        meta = {
            "version": STORE_VERSION,
            "name": plan_name,
            "plan_key": plan_key,
            "jobs": len(portable),
            "config": asdict(config),
            "faults": faults.as_dict() if faults is not None else None,
            "schedule": [
                entry.as_dict() for entry in build_schedule(portable)
            ],
        }
        root.mkdir(parents=True, exist_ok=True)
        (root / "leases").mkdir(exist_ok=True)
        (root / "results").mkdir(exist_ok=True)
        store = cls(root, meta, portable)
        _publish_file(
            store.jobs_path,
            json.dumps(
                [job.as_dict() for job in portable],
                indent=2,
                sort_keys=True,
            )
            + "\n",
        )
        if plan is not None:
            plan.save(store.plan_path)
        won = _publish_file(
            store.store_path,
            json.dumps(meta, indent=2, sort_keys=True) + "\n",
        )
        if not won:
            # A concurrent registrar beat us; their registration is the
            # store. Same plan -> attach; different plan -> error.
            attached = cls.attach(root)
            if attached.plan_key != plan_key:
                raise ConfigError(
                    f"store at {root} is registered to a different plan "
                    f"({attached.plan_name!r})"
                )
            return attached
        # Canonical ledger: header-only until finalize. The header
        # carries the grid size so `repro top` can total a dynamically
        # claimed campaign without double-counting worker heartbeats.
        try:
            RunLedger(
                store.ledger_path,
                plan_key=plan_key,
                plan_name=plan_name,
                exclusive=True,
                header_extra={"jobs": len(portable), "store": True},
            ).close()
        except ConfigError:
            pass  # a concurrent registrar created it
        return store

    @classmethod
    def attach(
        cls,
        root: Union[str, Path],
        wait_s: float = 0.0,
        poll_s: float = 0.2,
    ) -> "ExperimentStore":
        """Open a registered store; ``wait_s`` polls for a registration
        that is racing this attach (a coordinator still writing)."""
        root = Path(root)
        deadline = time.monotonic() + max(0.0, wait_s)
        while not (root / "store.json").is_file():
            if time.monotonic() >= deadline:
                raise ConfigError(
                    f"no experiment store at {root} (missing store.json)"
                )
            time.sleep(poll_s)
        try:
            meta = json.loads(
                (root / "store.json").read_text(encoding="utf-8")
            )
        except (OSError, ValueError) as exc:
            raise ConfigError(
                f"cannot read experiment store at {root}: {exc}"
            ) from exc
        if not isinstance(meta, dict) or "plan_key" not in meta:
            raise ConfigError(
                f"{root}/store.json is not a store registration"
            )
        if meta.get("version") != STORE_VERSION:
            raise ConfigError(
                f"unsupported store version {meta.get('version')!r} "
                f"at {root}"
            )
        try:
            raw_jobs = json.loads(
                (root / "jobs.json").read_text(encoding="utf-8")
            )
            jobs = [PortableJob.from_dict(raw) for raw in raw_jobs]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise ConfigError(
                f"cannot read job grid at {root}/jobs.json: {exc}"
            ) from exc
        return cls(root, meta, jobs)

    @classmethod
    def create_or_attach(
        cls,
        root: Union[str, Path],
        plan: Optional[CampaignPlan] = None,
        jobs: Optional[Sequence[PortableJob]] = None,
        name: Optional[str] = None,
        config: Optional[SupervisorConfig] = None,
        faults: Optional[FaultSchedule] = None,
    ) -> "ExperimentStore":
        """Register if fresh, attach (and verify the plan) otherwise."""
        root = Path(root)
        if not (root / "store.json").is_file():
            return cls.create(
                root,
                plan=plan,
                jobs=jobs,
                name=name,
                config=config,
                faults=faults,
            )
        store = cls.attach(root)
        if plan is not None:
            expected = plan.key()
        else:
            expected = job_key(
                {
                    "type": "plan",
                    "name": name or "campaign",
                    "jobs": [job.as_dict() for job in jobs or ()],
                }
            )
        if store.plan_key != expected:
            raise ConfigError(
                f"store at {root} is registered to a different plan "
                f"({store.plan_name!r}); point --store elsewhere"
            )
        return store

    # -- results ----------------------------------------------------------
    def result_path(self, key: str) -> Path:
        return self.results_dir / f"{key}.jsonl"

    def has_result(self, key: str) -> bool:
        return self.result_path(key).exists()

    def read_result(self, key: str) -> Optional[List[dict]]:
        """The published record group of one job, or None if open.

        Strict by design: a group that exists but is damaged — torn
        mid-record, missing its final newline, holding a record the
        ledger's read rule would skip, or failing its sha256 trailer —
        raises :class:`~repro.errors.StorageError` instead
        of returning a silently half-read group. ``repro fsck
        --repair`` quarantines such groups back to open. Groups
        published before trailers existed (no trailing ``trailer``
        record) are accepted unverified. The trailer is stripped from
        the returned records; callers only ever see job records.
        """
        path = self.result_path(key)
        try:
            raw = path.read_bytes()
        except OSError:
            return None
        if not raw.endswith(b"\n"):
            raise StorageError(
                f"result group {path} is torn (no trailing newline); "
                "run `repro fsck --repair` to quarantine it"
            )
        body, verdict = unseal(raw)
        if verdict is not None and not verdict["ok"]:
            raise StorageError(
                f"result group {path} fails its sha256 trailer; "
                "run `repro fsck --repair` to quarantine it"
            )
        records: List[dict] = []
        for line in body.splitlines():
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:
                raise StorageError(
                    f"result group {path} holds an undecodable record "
                    f"({exc}); run `repro fsck --repair` to quarantine it"
                ) from exc
            if not well_formed(record):
                raise StorageError(
                    f"result group {path} holds a malformed record; "
                    "run `repro fsck --repair` to quarantine it"
                )
            records.append(record)
        return records

    def terminal_row(self, key: str) -> Optional[dict]:
        terminal = fold_records(self.read_result(key) or ()).terminal
        return terminal[key]["row"] if key in terminal else None

    def publish(self, key: str, records: Sequence[dict]) -> bool:
        """Publish one job's whole record group, first writer wins.

        The group is sealed with a checksum trailer
        (:func:`~repro.runner.ledger.seal`) so :meth:`read_result` (and
        ``repro fsck``) can tell a torn or bit-rotted group from an
        intact one.
        """
        if not records:
            raise ReproError(f"refusing to publish empty group for {key}")
        body, trailer = seal(records)
        return _publish_file(
            self.result_path(key), body + encode_record(trailer) + "\n"
        )

    # -- progress ---------------------------------------------------------
    def open_entries(self) -> List[ScheduleEntry]:
        """Schedule entries without a published result, in claim order."""
        return [
            entry
            for entry in self.schedule
            if not self.has_result(entry.key)
        ]

    def is_complete(self) -> bool:
        return not self.open_entries()

    def leased_keys(self) -> List[str]:
        """Job keys currently under an (unexpired or not) lease file."""
        try:
            names = sorted(p.stem for p in self.leases_dir.glob("*.json"))
        except OSError:  # pragma: no cover - defensive
            return []
        return [name for name in names if name != FINALIZE_KEY]

    def status(self) -> dict:
        done = ok = failed = 0
        for job in self.job_list:
            row = self.terminal_row(job.key)
            if row is None:
                continue
            done += 1
            if row.get("status") == "ok":
                ok += 1
            else:
                failed += 1
        return {
            "name": self.plan_name,
            "plan_key": self.plan_key,
            "total": self.n_jobs,
            "done": done,
            "ok": ok,
            "failed": failed,
            "open": self.n_jobs - done,
            "leased": len(self.leased_keys()),
        }

    def report(self):
        """A :class:`~repro.runner.executor.SuiteReport` over every
        settled job, rows in plan order (partial while jobs are open)."""
        from repro.runner.executor import SuiteReport

        rows: List[dict] = []
        for job in self.job_list:
            row = self.terminal_row(job.key)
            if row is not None:
                rows.append(dict(row))
        report = SuiteReport(
            name=self.plan_name,
            rows=rows,
            ledger_path=str(self.ledger_path),
        )
        report.partial = len(rows) < self.n_jobs
        return report

    # -- tmp scavenging ---------------------------------------------------
    def scavenge_tmp(self, max_age_s: float = 60.0) -> List[Path]:
        """Remove crashed-write residue (``*.tmp<pid>`` siblings etc.).

        A process killed between creating its temporary sibling and
        the atomic rename/link leaves the tmp file behind forever.
        Residue older than ``max_age_s`` (so nothing mid-flight on a
        live worker is touched) is unlinked from the store root,
        ``results/``, and ``leases/``. Returns the removed paths;
        ``repro fsck`` reports the same residue as findings.
        """
        removed: List[Path] = []
        now = time.time()
        for directory in (self.root, self.results_dir, self.leases_dir):
            try:
                entries = list(directory.iterdir())
            except OSError:  # pragma: no cover - defensive
                continue
            for entry in entries:
                if not _RESIDUE_RE.search(entry.name):
                    continue
                try:
                    if now - entry.stat().st_mtime < max_age_s:
                        continue
                    entry.unlink()
                except OSError:  # pragma: no cover - racing writer
                    continue
                removed.append(entry)
        return removed

    # -- worker shard ranks ----------------------------------------------
    def allocate_worker_shard(self) -> RunLedger:
        """Claim the lowest free worker rank via exclusive ledger-shard
        creation; `repro top` aggregates the shards unchanged. A
        restarted worker takes a fresh rank — its dead predecessor's
        shard keeps showing (as DEAD) until finalize sweeps it."""
        for rank in range(MAX_WORKER_RANKS):
            try:
                return RunLedger(
                    shard_path(self.ledger_path, rank),
                    plan_key=self.plan_key,
                    plan_name=self.plan_name,
                    worker=rank,
                    exclusive=True,
                )
            except ConfigError:
                continue
        raise ReproError(  # pragma: no cover - 4096 attached workers
            f"no free worker rank in store {self.root}"
        )

    # -- finalize ---------------------------------------------------------
    def merge_into(
        self, ledger: RunLedger, key_order: Sequence[str]
    ) -> MergeStats:
        """Append the published groups of ``key_order`` to ``ledger``.

        Groups land whole, in ``key_order`` (the plan order; other keys
        are not merged), so the merged file's job structure is
        byte-identical to a serial run's whoever ran what, whenever.
        A group ends at its first terminal record (first wins); jobs
        the ledger already settled are skipped, which makes merging
        idempotent. A group without a terminal record (a job in flight
        when its worker stopped) is not appended: the key is only
        marked in flight, so the job re-runs fresh. Reads are strict:
        a damaged group raises :class:`~repro.errors.StorageError`
        before anything is appended.
        """
        groups = [(key, self.read_result(key)) for key in key_order]
        stats = MergeStats()
        for key, group in groups:
            if key in ledger.completed:
                stats.skipped_completed += 1
                continue
            if not group:
                continue
            terminal = fold_records(group).terminal.get(key)
            if terminal is None:
                if key not in ledger.in_flight:
                    ledger.in_flight.append(key)
                continue
            for record in group:
                ledger._append(record)
                stats.merged_records += 1
                if record is terminal:
                    break
            ledger.completed[key] = terminal
            stats.merged_jobs += 1
        return stats

    def finalize(
        self,
        owner: Optional[str] = None,
        lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
        scavenge_age_s: float = 60.0,
    ) -> bool:
        """Merge every published group into the canonical ledger.

        Lease-guarded (the ``_finalize`` key) so concurrent finishers
        don't interleave appends; idempotent — already-merged jobs are
        skipped by the first-terminal-wins merge, so a finalizer dying
        mid-merge just leaves the rest for the next survivor. Worker
        shards are swept afterwards, along with crashed-write tmp
        residue older than ``scavenge_age_s``. Returns True when this
        call held the merge lease (even if there was nothing left to
        merge).
        """
        if not self.is_complete():
            return False
        manager = LeaseManager(
            self.leases_dir, owner=owner, ttl_s=lease_ttl_s
        )
        lease = manager.try_claim(FINALIZE_KEY)
        if lease is None:
            existing = manager.read(FINALIZE_KEY)
            if existing is not None and manager.expired(existing):
                lease = manager.reclaim(FINALIZE_KEY)
            if lease is None:
                return False
        try:
            ledger = RunLedger(
                self.ledger_path,
                plan_key=self.plan_key,
                plan_name=self.plan_name,
                resume=True,
            )
            try:
                stats = self.merge_into(
                    ledger, [job.key for job in self.job_list]
                )
                if stats.merged_jobs:
                    ledger.append_merge_record(
                        {
                            "store": str(self.root),
                            "merged_jobs": stats.merged_jobs,
                            "merged_records": stats.merged_records,
                        }
                    )
            finally:
                ledger.close()
            for stray in list_shards(self.ledger_path):
                try:
                    stray.unlink()
                except OSError:  # pragma: no cover - best effort
                    pass
            self.scavenge_tmp(max_age_s=scavenge_age_s)
        finally:
            manager.release(lease)
        return True


# ---------------------------------------------------------------------------
# The worker loop
# ---------------------------------------------------------------------------
class _GroupLedger:
    """Duck-typed ledger capturing one claimed job's records as a
    publishable group, mirroring each into the worker's shard so
    ``repro top`` sees live per-worker progress."""

    def __init__(self, shard: Optional[RunLedger]) -> None:
        self.records: List[dict] = []
        self._shard = shard

    def job_started(self, key: str, index: int, attempt: int) -> None:
        self.records.append(start_record(key, index, attempt))
        if self._shard is not None:
            self._shard.job_started(key, index, attempt)

    def job_retried(
        self, key: str, attempt: int, error: str, backoff_s: float
    ) -> None:
        self.records.append(retry_record(key, attempt, error, backoff_s))
        if self._shard is not None:
            self._shard.job_retried(key, attempt, error, backoff_s)

    def job_done(self, key: str, row: dict) -> None:
        self.records.append(terminal_record("done", key, row))
        if self._shard is not None:
            self._shard.job_done(key, row)

    def job_quarantined(self, key: str, row: dict) -> None:
        self.records.append(terminal_record("quarantined", key, row))
        if self._shard is not None:
            self._shard.job_quarantined(key, row)


class _LeaseKeeper:
    """Daemon thread renewing one lease while its job runs.

    Each successful renewal also pulses a heartbeat into the worker's
    shard ledger — the renewal cadence IS the liveness signal
    ``repro top`` watches, so a wedged job still reads as alive while
    its lease holder breathes. A failed renewal (the lease was
    reclaimed or deleted) latches ``lost``; the worker must then
    discard the job's output instead of publishing.
    """

    def __init__(
        self,
        manager: LeaseManager,
        lease: Lease,
        shard: Optional[RunLedger],
        interval_s: float,
        progress: Callable[[], tuple],
    ) -> None:
        self.manager = manager
        self.lease = lease
        self.lost = threading.Event()
        self._shard = shard
        self._interval_s = max(0.02, interval_s)
        self._progress = progress
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name=f"lease-{lease.key[:8]}", daemon=True
        )

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)

    def _run(self) -> None:
        while not self._stop.wait(self._interval_s):
            renewed = self.manager.renew(self.lease)
            if renewed is None:
                self.lost.set()
                return
            self.lease = renewed
            if self._shard is not None:
                try:
                    done, failed, total, label = self._progress()
                    self._shard.heartbeat(
                        done=done, failed=failed, total=total, job=label
                    )
                except (OSError, ValueError):  # pragma: no cover
                    pass  # a swept shard never blocks renewal


def run_store_worker(
    store: ExperimentStore,
    owner: Optional[str] = None,
    lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
    poll_s: float = 0.25,
    max_jobs: Optional[int] = None,
    finalize: bool = True,
) -> dict:
    """Claim-execute-publish until the store converges (or ``max_jobs``).

    Any number of these loops may run concurrently against one store —
    separate processes, separate hosts. Each pass walks the open jobs
    in claim order: leased jobs are left to their owners unless the
    lease expired, and every
    claimed job runs under the store's registered supervisor config
    and fault schedule so its terminal row is byte-identical to what
    any other worker — or a serial run — would produce. When no open
    job is claimable the loop sleeps ``poll_s`` and re-scans; when the
    grid is fully terminal it (optionally) finalizes the canonical
    ledger and returns a summary dict.
    """
    if lease_ttl_s <= 0:
        raise ConfigError("lease ttl must be positive")
    if max_jobs is not None and max_jobs < 1:
        raise ConfigError(f"max_jobs must be >= 1, got {max_jobs!r}")
    from repro.runner.executor import SuiteRunner

    config = store.config
    faults = store.fault_schedule
    manager = LeaseManager(store.leases_dir, owner=owner, ttl_s=lease_ttl_s)
    store_faults = (
        HostFaultInjector(faults, kinds=STORE_FAULTS)
        if faults is not None
        else None
    )
    shard = store.allocate_worker_shard()
    runner = SuiteRunner(config=config, faults=faults)
    n_ok = n_failed = n_published = 0
    #: lease_lost fires at most once per (worker, job) so a rate-1.0
    #: spec cannot livelock the campaign — the re-claim runs clean.
    lease_lost_fired: set = set()
    started = time.perf_counter()
    stop = False
    # Registered io_* specs make this worker's durable writes go
    # through a seeded IOFaultInjector for the duration of the loop,
    # so disk chaos is part of the store's campaign description like
    # every other fault family. (Installed after shard allocation: the
    # worker's own bootstrap stays reliable; claims, appends, and
    # publishes get the chaos.)
    previous_shim: Optional[faults_io.IOShim] = None
    if faults is not None and any(
        spec.kind in IO_FAULTS for spec in faults.specs
    ):
        previous_shim = faults_io.install(faults_io.IOFaultInjector(faults))
    try:
        while not stop:
            progress = False
            open_entries = store.open_entries()
            if not open_entries:
                break
            for entry in open_entries:
                if max_jobs is not None and n_published >= max_jobs:
                    stop = True
                    break
                if store.has_result(entry.key):
                    continue  # published since the scan
                job = store.jobs[entry.key]
                # Fabric faults are drawn before the claim so clock
                # skew distorts the deadline this claim writes.
                base_skew = manager.skew_s
                drop_lease = False
                if store_faults:
                    for kind, seconds in store_faults.actions(
                        job.index, attempt=1
                    ):
                        if kind == "clock_skew":
                            manager.skew_s = base_skew + seconds
                        elif (
                            kind == "lease_lost"
                            and entry.key not in lease_lost_fired
                        ):
                            lease_lost_fired.add(entry.key)
                            drop_lease = True
                lease = manager.try_claim(entry.key)
                if lease is None:
                    existing = manager.read(entry.key)
                    if existing is not None and manager.expired(existing):
                        lease = manager.reclaim(entry.key)
                if lease is None:
                    manager.skew_s = base_skew
                    continue
                progress = True
                if drop_lease:
                    # Injected lease loss: the claim file vanishes as
                    # if an aggressive survivor reclaimed it mid-job.
                    try:
                        manager.path(entry.key).unlink()
                    except OSError:  # pragma: no cover - defensive
                        pass
                shard.heartbeat(
                    done=n_ok,
                    failed=n_failed,
                    total=store.n_jobs,
                    job=job.label,
                )
                group = _GroupLedger(shard)
                keeper = _LeaseKeeper(
                    manager,
                    lease,
                    shard,
                    interval_s=lease_ttl_s / 3.0,
                    progress=lambda label=job.label: (
                        n_ok,
                        n_failed,
                        store.n_jobs,
                        label,
                    ),
                )
                keeper.start()
                try:
                    row = runner.run_single(build_job(job), ledger=group)
                finally:
                    keeper.stop()
                    manager.skew_s = base_skew
                current = manager.read(entry.key)
                lost = keeper.lost.is_set() or (
                    current is None or current.token != lease.token
                )
                if lost:
                    # The lease was reclaimed (or injected away) while
                    # we ran: our output is presumed stale — discard it
                    # whole and let the present owner publish.
                    continue
                won = store.publish(entry.key, group.records)
                manager.release(keeper.lease)
                if not won:
                    continue
                n_published += 1
                if row.get("status") == "ok":
                    n_ok += 1
                else:
                    n_failed += 1
            if not progress and not stop:
                if store.is_complete():
                    break
                time.sleep(poll_s)
        # Final heartbeat: total == done marks this worker finished in
        # `repro top` (per-worker view), independent of the grid total.
        shard.heartbeat(done=n_ok, failed=n_failed, total=n_ok + n_failed)
    finally:
        shard.close()
        if previous_shim is not None:
            faults_io.install(previous_shim)
    complete = store.is_complete()
    finalized = False
    if finalize and complete:
        finalized = store.finalize(
            owner=manager.owner, lease_ttl_s=lease_ttl_s
        )
    return {
        "owner": manager.owner,
        "worker": shard.worker,
        "published": n_published,
        "ok": n_ok,
        "failed": n_failed,
        "complete": complete,
        "finalized": finalized,
        "duration_s": round(time.perf_counter() - started, 6),
    }
