"""The durable run ledger: what makes a campaign resumable.

A :class:`RunLedger` is an append-only JSONL file recording the life of
every job in a campaign: ``start`` when an attempt begins, ``retry``
when a retryable failure schedules another attempt, and a terminal
``done`` (with the full result row) or ``quarantined`` (with the
structured failure). Every append is flushed and fsynced, so the ledger
survives a killed process up to the last completed write; torn lines
(the one write a crash can interrupt — or, adversarially, any
mid-file corruption) are detected, skipped, and counted on load.

Resume semantics: jobs with a *terminal* row are finished — ``done``
rows are replayed into the aggregate report byte-for-byte, and
``quarantined`` rows are likewise trusted (re-running a job that
exhausted its retry budget would just hang/fail again). Jobs with only
``start``/``retry`` rows were in flight when the process died and are
re-run from scratch. Identity is the content-addressed job key
(:func:`repro.runner.plan.job_key`), so editing unrelated jobs in a
plan does not invalidate completed work.

Parallel work never writes the canonical ledger concurrently. Workers
publish whole per-job record groups into an experiment store
(:mod:`repro.runner.store`; for ``--workers N`` the store lives at
``<ledger>.store/``), and
:meth:`~repro.runner.store.ExperimentStore.merge_into` folds those
groups into the canonical ledger in plan order, first terminal record
wins — so the merged ledger is byte-identical to a serial run's
(modulo wall-clock fields) regardless of worker count or completion
order. Merging skips jobs the ledger already completed, which makes it
idempotent and order-insensitive. Each store worker also keeps a
``<ledger>.w<k>`` shard (heartbeats plus a mirror of its records) for
``repro top``.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import ConfigError
from repro.obs import profile as obs_profile
from repro.obs.sinks import encode_record, fsync_dir

_io_shim_module = None


def _io_shim():
    """The installed storage-fault shim (lazy import; avoids a cycle
    through ``repro.faults.__init__``)."""
    global _io_shim_module
    if _io_shim_module is None:
        from repro.faults import io as _faults_io

        _io_shim_module = _faults_io
    return _io_shim_module.get_shim()

__all__ = [
    "LEDGER_VERSION",
    "TERMINAL_TYPES",
    "VOLATILE_TYPES",
    "RunLedger",
    "shard_path",
    "list_shards",
    "local_store_path",
    "read_ledger_records",
    "strip_volatile",
    "compact_ledger",
    "verify_trailer",
]

LEDGER_VERSION = 1

#: Record types that finish a job; everything else is in-flight state.
TERMINAL_TYPES = ("done", "quarantined")

#: Volatile record types: provenance/progress only, never job state.
#: The byte-identical merge drops them and resume ignores them.
#: ``trailer`` is the checksum line :func:`compact_ledger` appends.
VOLATILE_TYPES = ("merge", "heartbeat", "trailer")

#: Row/report keys carrying wall-clock values: the stable report view
#: and ledger diffs strip them.
_VOLATILE_KEYS = ("duration_s",)

_SHARD_SUFFIX = re.compile(r"\.w(\d+)$")


def strip_volatile(value):
    """``value`` with every wall-clock field removed, at any depth."""
    if isinstance(value, dict):
        return {
            key: strip_volatile(nested)
            for key, nested in value.items()
            if key not in _VOLATILE_KEYS
        }
    if isinstance(value, list):
        return [strip_volatile(item) for item in value]
    return value


def shard_path(base: Union[str, Path], worker: int) -> Path:
    """The per-worker shard file of a canonical ledger path."""
    return Path(f"{base}.w{worker}")


def local_store_path(base: Union[str, Path]) -> Path:
    """The experiment store a ``--workers N`` campaign runs in, beside
    its canonical ledger."""
    return Path(f"{base}.store")


def list_shards(base: Union[str, Path]) -> List[Path]:
    """Existing ``<base>.w<k>`` shard files, ordered by worker rank."""
    base = Path(base)
    found: List[Tuple[int, Path]] = []
    if not base.parent.is_dir():
        return []
    prefix = base.name + ".w"
    for entry in base.parent.iterdir():
        if not entry.name.startswith(base.name):
            continue
        match = _SHARD_SUFFIX.search(entry.name)
        if match and entry.name == prefix + match.group(1):
            found.append((int(match.group(1)), entry))
    return [path for _, path in sorted(found)]


def read_ledger_records(
    path: Union[str, Path]
) -> Tuple[List[dict], int]:
    """Load every intact record of a ledger/shard file.

    Returns ``(records, n_skipped)``. Undecodable lines — the torn
    final write of a killed process, or adversarial mid-file damage —
    are skipped and counted instead of aborting the load: any record
    that *did* survive intact is still trusted, and a job whose
    terminal row was lost is simply re-run (safe by construction).
    Unreadable *files* (a directory, a permission wall) raise
    :class:`~repro.errors.ConfigError` so CLI callers get the one-line
    ``error:`` funnel instead of a traceback; invalid UTF-8 inside a
    line (a torn multi-byte character, binary garbage) degrades to a
    skipped line like any other damage.
    """
    records: List[dict] = []
    skipped = 0
    try:
        handle = Path(path).open("r", encoding="utf-8", errors="replace")
    except OSError as exc:
        raise ConfigError(f"cannot read ledger {path}: {exc}") from exc
    with handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                skipped += 1
                continue
            if not isinstance(record, dict) or "type" not in record:
                skipped += 1
                continue
            records.append(record)
    return records, skipped


class RunLedger:
    """Append-only, fsynced JSONL record of one campaign's progress."""

    def __init__(
        self,
        path: Union[str, Path],
        plan_key: str,
        plan_name: str = "campaign",
        resume: bool = False,
        worker: Optional[int] = None,
        exclusive: bool = False,
        header_extra: Optional[Dict[str, object]] = None,
    ) -> None:
        self.path = Path(path)
        self.plan_key = plan_key
        self.plan_name = plan_name
        #: Worker rank when this ledger is a store worker's shard.
        self.worker = worker
        #: Terminal rows by job key (``done`` and ``quarantined`` records).
        self.completed: Dict[str, dict] = {}
        #: Keys that have a ``start`` but no terminal row (were in flight).
        self.in_flight: List[str] = []
        #: Undecodable lines skipped on load (torn/damaged records).
        self.n_skipped: int = 0
        if exclusive:
            # Store workers race to claim a shard rank: the O_EXCL
            # create *is* the claim; an exists-check would only narrow
            # the window, not close it.
            if resume:
                raise ConfigError("exclusive ledger creation cannot resume")
            try:
                fd = os.open(
                    os.fspath(self.path),
                    os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_APPEND,
                    0o644,
                )
            except FileExistsError:
                raise ConfigError(
                    f"ledger {self.path} already exists"
                ) from None
            self._handle = os.fdopen(fd, "a", encoding="utf-8")
            exists = False
        else:
            exists = self.path.exists()
            if exists and not resume:
                raise ConfigError(
                    f"ledger {self.path} already exists; pass --resume to "
                    f"continue that campaign or point --ledger elsewhere"
                )
            if not exists and resume:
                raise ConfigError(
                    f"cannot resume: no ledger at {self.path}"
                )
            if exists:
                self._load()
            self._handle = self.path.open("a", encoding="utf-8")
        if not exists:
            header = {
                "type": "header",
                "version": LEDGER_VERSION,
                "plan_name": plan_name,
                "plan_key": plan_key,
            }
            if worker is not None:
                header["worker"] = worker
            if header_extra:
                header.update(header_extra)
            self._append(header)
            fsync_dir(self.path.parent)

    # ------------------------------------------------------------------
    def _load(self) -> None:
        records, self.n_skipped = read_ledger_records(self.path)
        header: Optional[dict] = None
        started: Dict[str, bool] = {}
        for record in records:
            kind = record.get("type")
            if kind == "header" and header is None:
                header = record
            elif kind == "start":
                started[record["key"]] = True
            elif kind in TERMINAL_TYPES:
                # First terminal record wins: a duplicated row (e.g. a
                # replayed merge) never flips an already-settled job.
                self.completed.setdefault(record["key"], record)
        if header is None:
            raise ConfigError(
                f"{self.path} is not a run ledger (missing header)"
            )
        if header.get("version") != LEDGER_VERSION:
            raise ConfigError(
                f"unsupported ledger version {header.get('version')!r} "
                f"in {self.path}"
            )
        if header.get("plan_key") != self.plan_key:
            raise ConfigError(
                f"ledger {self.path} belongs to a different plan "
                f"({header.get('plan_name')!r}); use a fresh ledger path"
            )
        self.in_flight = [
            key for key in started if key not in self.completed
        ]

    def _append(self, record: dict) -> None:
        """One durable line: write, flush, fsync.

        Routed through the storage-fault shim so disk chaos campaigns
        and the crash-point fuzzer can interpose on every durable
        append. Heartbeats stay unshimmed: they are volatile,
        flush-only, and emitted on renewal-thread timing, which would
        make crash-point operation counts nondeterministic.
        """
        with obs_profile.span("ledger_io"):
            shim = _io_shim()
            shim.write(
                self._handle,
                encode_record(record) + "\n",
                site="ledger.append.write",
            )
            self._handle.flush()
            shim.fsync(self._handle.fileno(), site="ledger.append.fsync")

    # ------------------------------------------------------------------
    def job_started(self, key: str, index: int, attempt: int) -> None:
        self._append(
            {"type": "start", "key": key, "index": index, "attempt": attempt}
        )

    def job_retried(
        self, key: str, attempt: int, error: str, backoff_s: float
    ) -> None:
        self._append(
            {
                "type": "retry",
                "key": key,
                "attempt": attempt,
                "error": error,
                "backoff_s": round(backoff_s, 6),
            }
        )

    def job_done(self, key: str, row: dict) -> None:
        record = {"type": "done", "key": key, "row": row}
        self._append(record)
        self.completed[key] = record

    def job_quarantined(self, key: str, row: dict) -> None:
        record = {"type": "quarantined", "key": key, "row": row}
        self._append(record)
        self.completed[key] = record

    def append_merge_record(self, record: dict) -> None:
        """Volatile merge provenance (worker stats); readers that only
        care about job state ignore it."""
        self._append({"type": "merge", **record})

    def heartbeat(
        self,
        done: int,
        failed: int,
        total: int,
        job: Optional[str] = None,
    ) -> None:
        """Volatile liveness record for ``repro top``: wall-clock
        timestamp, progress counters, and the label of the job being
        started. Carries the plan name and campaign (plan key) so
        monitors aggregating many ledgers on one host can attribute
        every pulse without re-reading headers. Flushed but *not*
        fsynced — losing the last heartbeat in a crash costs nothing,
        and long campaigns should not pay a second fsync per job for
        telemetry.
        """
        record: Dict[str, object] = {
            "type": "heartbeat",
            "ts": round(time.time(), 3),
            "plan": self.plan_name,
            "campaign": self.plan_key,
            "done": int(done),
            "failed": int(failed),
            "total": int(total),
        }
        if self.worker is not None:
            record["worker"] = self.worker
        if job is not None:
            record["job"] = job
        with obs_profile.span("ledger_io"):
            self._handle.write(encode_record(record) + "\n")
            self._handle.flush()

    # ------------------------------------------------------------------
    def close(self) -> None:
        if not self._handle.closed:
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._handle.close()

    def __enter__(self) -> "RunLedger":
        return self

    def __exit__(self, *exc_info) -> bool:
        self.close()
        return False


# ---------------------------------------------------------------------------
def compact_ledger(
    path: Union[str, Path], out: Optional[Union[str, Path]] = None
) -> dict:
    """Rewrite a ledger to terminal records only, plus a checksum trailer.

    Long-lived stores accumulate ``start``/``retry`` rows, heartbeats,
    and merge provenance that resume and reporting never need once
    every job is settled. Compaction keeps the header and the
    *first* terminal record per key (exactly the rows resume trusts
    and ``suite-report`` summarizes), in original first-appearance
    order, and appends a ``trailer`` record carrying the SHA-256 of
    every preceding byte so later readers can detect truncation or
    bit rot (:func:`verify_trailer`).

    Before committing, the compacted file is diffed against the
    original (stable terminal rows, :func:`repro.runner.report.diff_ledgers`)
    — report byte-identity is an invariant, not a hope. In-place by
    default; pass ``out`` to write elsewhere and keep the original.
    Returns a stats dict (records/bytes before and after, dropped
    record counts by type, the trailer checksum).
    """
    path = Path(path)
    out = path if out is None else Path(out)
    records, torn = read_ledger_records(path)
    header: Optional[dict] = None
    terminals: Dict[str, dict] = {}
    dropped: Dict[str, int] = {}
    for record in records:
        kind = str(record.get("type"))
        if kind == "header" and header is None:
            header = record
            continue
        if kind in TERMINAL_TYPES:
            key = record.get("key")
            if isinstance(key, str) and key not in terminals:
                terminals[key] = record
                continue
        dropped[kind] = dropped.get(kind, 0) + 1
    if header is None:
        raise ConfigError(f"{path} is not a run ledger (missing header)")
    lines = [encode_record(header)]
    lines.extend(encode_record(record) for record in terminals.values())
    body = "".join(line + "\n" for line in lines).encode("utf-8")
    digest = hashlib.sha256(body).hexdigest()
    trailer = {
        "type": "trailer",
        "records": len(lines),
        "sha256": digest,
    }
    bytes_before = path.stat().st_size
    tmp = out.with_name(f"{out.name}.compact{os.getpid()}")
    shim = _io_shim()
    try:
        with tmp.open("wb") as handle:
            shim.write(handle, body, site="ledger.compact.write")
            shim.write(
                handle,
                (encode_record(trailer) + "\n").encode("utf-8"),
                site="ledger.compact.write",
            )
            handle.flush()
            shim.fsync(handle.fileno(), site="ledger.compact.fsync")
        from repro.runner.report import diff_ledgers  # circular at module load

        diff = diff_ledgers(path, tmp)
        if not diff["identical"]:  # pragma: no cover - invariant guard
            raise ConfigError(
                f"compaction of {path} would change the report; aborting"
            )
        shim.replace(tmp, out, site="ledger.compact.replace")
        fsync_dir(out.parent)
    except BaseException:
        try:
            tmp.unlink()
        except OSError:  # pragma: no cover - best-effort cleanup
            pass
        raise
    return {
        "path": str(path),
        "out": str(out),
        "jobs": len(terminals),
        "records_before": len(records),
        "records_after": len(lines) + 1,
        "bytes_before": bytes_before,
        "bytes_after": out.stat().st_size,
        "torn_lines": torn,
        "dropped": dict(sorted(dropped.items())),
        "sha256": digest,
    }


def verify_trailer(path: Union[str, Path]) -> dict:
    """Check a compacted ledger against its checksum trailer.

    Returns ``{"present", "ok", "records", "sha256", "expected"}``:
    ``present`` is False when the final record is not a trailer (the
    ledger was never compacted, or was appended to since); ``ok`` is
    True only when the SHA-256 of every byte before the trailer line
    and the record count both match what the trailer promised.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read ledger {path}: {exc}") from exc
    lines = raw.splitlines(keepends=True)
    index = len(lines) - 1
    while index >= 0 and not lines[index].strip():
        index -= 1
    if index < 0:
        raise ConfigError(f"{path} is not a run ledger (missing header)")
    try:
        last = json.loads(lines[index])
    except (ValueError, UnicodeDecodeError):
        last = None
    if not isinstance(last, dict) or last.get("type") != "trailer":
        return {
            "present": False,
            "ok": False,
            "records": None,
            "sha256": None,
            "expected": None,
        }
    body = b"".join(lines[:index])
    digest = hashlib.sha256(body).hexdigest()
    n_records = sum(1 for line in lines[:index] if line.strip())
    expected = last.get("sha256")
    return {
        "present": True,
        "ok": digest == expected and n_records == last.get("records"),
        "records": n_records,
        "sha256": digest,
        "expected": expected,
    }
