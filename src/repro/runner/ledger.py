"""The durable run ledger: what makes a campaign resumable.

A :class:`RunLedger` is an append-only JSONL file recording the life of
every job in a campaign: ``start`` when an attempt begins, ``retry``
when a retryable failure schedules another attempt, and a terminal
``done`` (with the full result row) or ``quarantined`` (with the
structured failure). Every append is flushed and fsynced, so the ledger
survives a killed process up to the last completed write.

Every reader folds a ledger through :func:`fold_ledger`, which applies
the read rule stated in docs/robustness.md ("The run ledger and
``--resume``"). Compacted ledgers and store result groups share one
checksum trailer (:func:`seal` / :func:`unseal`).

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
import math
import os
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

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
    "LedgerState",
    "RunLedger",
    "shard_path",
    "list_shards",
    "local_store_path",
    "read_ledger_records",
    "well_formed",
    "fold_records",
    "fold_ledger",
    "start_record",
    "retry_record",
    "terminal_record",
    "seal",
    "unseal",
    "strip_volatile",
    "compact_ledger",
    "verify_trailer",
]

LEDGER_VERSION = 1

#: Record types that finish a job; everything else is in-flight state.
TERMINAL_TYPES = ("done", "quarantined")

#: Record types that must carry a string ``key``.
_KEYED_TYPES = ("start", "retry") + TERMINAL_TYPES

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


def _number(value: object) -> bool:
    """An int or float (not a bool) that is finite."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def _optional_dict(value: object) -> bool:
    return value is None or isinstance(value, dict)


def _fields_ok(
    record: dict, rules: Dict[str, Callable[[object], bool]]
) -> bool:
    """Each field in ``rules`` is absent or passes its check."""
    return all(
        name not in record or check(record[name])
        for name, check in rules.items()
    )


#: A ``merge`` record's per-worker entries, as ``suite-report`` prints
#: them.
_WORKER_ENTRY_FIELDS = {
    "jobs": _number,
    "ok": _number,
    "failed": _number,
    "duration_s": _number,
}


def _worker_entries(value: object) -> bool:
    return value is None or (
        isinstance(value, list)
        and all(
            isinstance(entry, dict)
            and _fields_ok(entry, _WORKER_ENTRY_FIELDS)
            for entry in value
        )
    )


def _string(value: object) -> bool:
    return isinstance(value, str)


def _count(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


#: The fields every terminal row carries (the executor writes them on
#: each job) and readers index directly.
_ROW_REQUIRED = {
    "status": _string,
    "label": _string,
    "attempts": _count,
}
#: The fields readers convert, in a terminal record's row and by record
#: type: each is absent or of the type its writer writes.
_ROW_FIELDS = {
    "duration_s": _number,
    "failure": _optional_dict,
}
_RECORD_FIELDS = {
    "heartbeat": {
        "done": _number,
        "failed": _number,
        "total": _number,
    },
    "merge": {"by_worker": _worker_entries},
}


def well_formed(record: object) -> bool:
    """The ledger's one validity rule (docs/robustness.md, "The run
    ledger and ``--resume``")."""
    if not isinstance(record, dict):
        return False
    kind = record.get("type")
    if not isinstance(kind, str):
        return False
    if kind in _KEYED_TYPES and not isinstance(record.get("key"), str):
        return False
    if kind in TERMINAL_TYPES:
        row = record.get("row")
        return (
            isinstance(row, dict)
            and all(
                name in row and check(row[name])
                for name, check in _ROW_REQUIRED.items()
            )
            and _fields_ok(row, _ROW_FIELDS)
        )
    return _fields_ok(record, _RECORD_FIELDS.get(kind, {}))


def read_ledger_records(
    path: Union[str, Path]
) -> Tuple[List[dict], int]:
    """Every well-formed record of a ledger/shard file, in file order.

    Returns ``(records, n_skipped)``: a line that does not decode to a
    well-formed record — a torn final write, mid-file damage, invalid
    UTF-8, or intact JSON that breaks the validity rule — is skipped
    and counted, never fatal. An unreadable *file* raises
    :class:`~repro.errors.ConfigError`.
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
            if well_formed(record):
                records.append(record)
            else:
                skipped += 1
    return records, skipped


@dataclass
class LedgerState:
    """A ledger or shard file folded by :func:`fold_ledger`."""

    #: The first header record (None for a headerless file).
    header: Optional[dict] = None
    #: The first terminal record per key, in first-appearance order.
    terminal: Dict[str, dict] = field(default_factory=dict)
    #: ``start`` and ``retry`` record counts per key.
    starts: Dict[str, int] = field(default_factory=dict)
    retries: Dict[str, int] = field(default_factory=dict)
    merges: List[dict] = field(default_factory=list)
    heartbeats: List[dict] = field(default_factory=list)
    #: Well-formed records by type.
    counts: Dict[str, int] = field(default_factory=dict)
    #: Damaged lines skipped on load.
    n_skipped: int = 0

    @property
    def in_flight(self) -> List[str]:
        """Keys started but never settled, in first-start order."""
        return [key for key in self.starts if key not in self.terminal]

    def stable_rows(self) -> Dict[str, dict]:
        """Terminal rows by key with wall-clock fields stripped."""
        return {
            key: strip_volatile(record["row"])
            for key, record in self.terminal.items()
        }


def fold_records(records: Sequence[dict], n_skipped: int = 0) -> LedgerState:
    """Fold well-formed records: first header and first terminal record
    per key win; everything else is counted or collected."""
    state = LedgerState(n_skipped=n_skipped)
    for record in records:
        kind = record["type"]
        state.counts[kind] = state.counts.get(kind, 0) + 1
        if kind == "header":
            if state.header is None:
                state.header = record
        elif kind in TERMINAL_TYPES:
            state.terminal.setdefault(record["key"], record)
        elif kind == "start":
            key = record["key"]
            state.starts[key] = state.starts.get(key, 0) + 1
        elif kind == "retry":
            key = record["key"]
            state.retries[key] = state.retries.get(key, 0) + 1
        elif kind == "merge":
            state.merges.append(record)
        elif kind == "heartbeat":
            state.heartbeats.append(record)
    return state


def fold_ledger(
    path: Union[str, Path], require_header: bool = True
) -> LedgerState:
    """Read a ledger or shard file once and fold it.

    Every reader of a ledger — resume, compaction, ``suite-report``,
    ``compare``, ``repro top``, ``repro fsck`` — goes through here, so
    they all agree on which jobs are settled and how many lines were
    damaged. Raises :class:`~repro.errors.ConfigError` for a missing
    or unreadable file and, with ``require_header``, a headerless one.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"no such ledger: {path}")
    state = fold_records(*read_ledger_records(path))
    if require_header and state.header is None:
        raise ConfigError(f"{path} is not a run ledger (missing header)")
    return state


# ---------------------------------------------------------------------------
# Record builders
# ---------------------------------------------------------------------------
def start_record(key: str, index: int, attempt: int) -> dict:
    return {"type": "start", "key": key, "index": index, "attempt": attempt}


def retry_record(
    key: str, attempt: int, error: str, backoff_s: float
) -> dict:
    return {
        "type": "retry",
        "key": key,
        "attempt": attempt,
        "error": error,
        "backoff_s": round(backoff_s, 6),
    }


def terminal_record(kind: str, key: str, row: dict) -> dict:
    return {"type": kind, "key": key, "row": row}


# ---------------------------------------------------------------------------
# Checksum trailer
# ---------------------------------------------------------------------------
def seal(records: Sequence[dict]) -> Tuple[str, dict]:
    """``(body, trailer)``: the records as JSONL text and the
    ``trailer`` record carrying the body's record count and SHA-256;
    the sealed file is ``body`` followed by the trailer's line."""
    body = "".join(encode_record(record) + "\n" for record in records)
    return body, {
        "type": "trailer",
        "records": len(records),
        "sha256": hashlib.sha256(body.encode("utf-8")).hexdigest(),
    }


def unseal(raw: bytes) -> Tuple[bytes, Optional[dict]]:
    """Split sealed bytes into ``(body, verdict)``.

    ``body`` is every byte before a final ``trailer`` line and
    ``verdict`` is ``{"ok", "records", "sha256", "expected"}`` — ``ok``
    only when the body's SHA-256 and non-blank line count match the
    trailer. Without a final trailer line, ``(raw, None)``.
    """
    lines = raw.splitlines(keepends=True)
    index = len(lines) - 1
    while index >= 0 and not lines[index].strip():
        index -= 1
    try:
        last = json.loads(lines[index]) if index >= 0 else None
    except ValueError:
        last = None
    if not isinstance(last, dict) or last.get("type") != "trailer":
        return raw, None
    body = b"".join(lines[:index])
    digest = hashlib.sha256(body).hexdigest()
    n_records = sum(1 for line in lines[:index] if line.strip())
    expected = last.get("sha256")
    return body, {
        "ok": digest == expected and n_records == last.get("records"),
        "records": n_records,
        "sha256": digest,
        "expected": expected,
    }


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
        state = fold_ledger(self.path)
        header = state.header
        self.completed = state.terminal
        self.in_flight = state.in_flight
        self.n_skipped = state.n_skipped
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
        self._append(start_record(key, index, attempt))

    def job_retried(
        self, key: str, attempt: int, error: str, backoff_s: float
    ) -> None:
        self._append(retry_record(key, attempt, error, backoff_s))

    def job_done(self, key: str, row: dict) -> None:
        record = terminal_record("done", key, row)
        self._append(record)
        self.completed[key] = record

    def job_quarantined(self, key: str, row: dict) -> None:
        record = terminal_record("quarantined", key, row)
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
    order, and seals them with a ``trailer`` record carrying the
    SHA-256 of every preceding byte so later readers can detect
    truncation or bit rot (:func:`verify_trailer`).

    Before committing, the compacted file is folded again and its
    stable terminal rows compared with the original's — report
    byte-identity is an invariant, not a hope. In-place by default;
    pass ``out`` to write elsewhere and keep the original. Returns a
    stats dict (records/bytes before and after, dropped record counts
    by type, the trailer checksum).
    """
    path = Path(path)
    out = path if out is None else Path(out)
    state = fold_ledger(path)
    kept = [state.header, *state.terminal.values()]
    dropped = dict(state.counts)
    for record in kept:
        dropped[record["type"]] -= 1
    body, trailer = seal(kept)
    bytes_before = path.stat().st_size
    tmp = out.with_name(f"{out.name}.compact{os.getpid()}")
    shim = _io_shim()
    try:
        with tmp.open("w", encoding="utf-8") as handle:
            shim.write(handle, body, site="ledger.compact.write")
            shim.write(
                handle,
                encode_record(trailer) + "\n",
                site="ledger.compact.write",
            )
            handle.flush()
            shim.fsync(handle.fileno(), site="ledger.compact.fsync")
        if fold_ledger(tmp).stable_rows() != state.stable_rows():
            raise ConfigError(  # pragma: no cover - invariant guard
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
        "jobs": len(state.terminal),
        "records_before": sum(state.counts.values()),
        "records_after": len(kept) + 1,
        "bytes_before": bytes_before,
        "bytes_after": out.stat().st_size,
        "torn_lines": state.n_skipped,
        "dropped": {
            kind: count for kind, count in sorted(dropped.items()) if count
        },
        "sha256": trailer["sha256"],
    }


def verify_trailer(path: Union[str, Path]) -> dict:
    """Check a compacted ledger against its checksum trailer.

    Returns ``{"present", "ok", "records", "sha256", "expected"}``:
    ``present`` is False when the final record is not a trailer (the
    ledger was never compacted, or was appended to since); otherwise
    the rest is :func:`unseal`'s verdict.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read ledger {path}: {exc}") from exc
    if not raw.strip():
        raise ConfigError(f"{path} is not a run ledger (missing header)")
    _, verdict = unseal(raw)
    if verdict is None:
        return {
            "present": False,
            "ok": False,
            "records": None,
            "sha256": None,
            "expected": None,
        }
    return {"present": True, **verdict}
