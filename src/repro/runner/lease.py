"""Lease files: single-owner job claims for the experiment store.

A lease is a small JSON file under the store's ``leases/`` directory
whose *existence* is the claim. The protocol leans entirely on two
POSIX guarantees that hold across processes and across hosts sharing
the directory (local disk or a coherent network filesystem):

* ``open(..., O_CREAT | O_EXCL)`` — at most one creator wins, so two
  workers can never claim the same job (:meth:`LeaseManager.try_claim`).
* ``os.rename`` of an existing file — at most one renamer wins, so two
  survivors can never both reclaim an expired lease
  (:meth:`LeaseManager.reclaim`).

Everything else is advisory. A lease carries its owner id, an opaque
per-claim ``token``, and an absolute wall-clock ``deadline``; the
owner renews the deadline periodically (verify-token-then-replace, so
a renewal can *detect* that the lease was reclaimed out from under it
and abandon the job) and any worker may reclaim a lease once ``now >=
deadline`` — expiry **exactly at** the deadline counts as expired.

Leases are an optimization, not the correctness backbone: the store
publishes results first-wins (``os.link``), and job execution is
deterministic, so the rare double-run after a clock-skewed reclaim
wastes cycles but cannot change the merged report. See
``docs/robustness.md`` ("multi-host campaigns") for the full protocol.

Stdlib-only by design — this module sits below the runner and must be
importable without the numeric stack.
"""

from __future__ import annotations

import json
import os
import socket
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple, Union

from repro.errors import ConfigError

__all__ = [
    "DEFAULT_LEASE_TTL_S",
    "Lease",
    "LeaseManager",
    "default_owner",
]

_io_shim_module = None


def _io_shim():
    """The installed storage-fault shim (lazy import: this module sits
    below the faults package and must stay stdlib-importable)."""
    global _io_shim_module
    if _io_shim_module is None:
        from repro.faults import io as _faults_io

        _io_shim_module = _faults_io
    return _io_shim_module.get_shim()

DEFAULT_LEASE_TTL_S = 30.0


def default_owner() -> str:
    """A human-legible owner id: ``<hostname>-<pid>``."""
    try:
        host = socket.gethostname() or "host"
    except OSError:  # pragma: no cover - defensive
        host = "host"
    return f"{host}-{os.getpid()}"


@dataclass(frozen=True)
class Lease:
    """One claim on one job key (a snapshot of the lease file)."""

    key: str
    owner: str
    token: str
    acquired: float
    deadline: float
    ttl_s: float
    renewals: int = 0

    def as_dict(self) -> dict:
        return {
            "key": self.key,
            "owner": self.owner,
            "token": self.token,
            "acquired": self.acquired,
            "deadline": self.deadline,
            "ttl_s": self.ttl_s,
            "renewals": self.renewals,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Lease":
        return cls(
            key=str(payload["key"]),
            owner=str(payload["owner"]),
            token=str(payload["token"]),
            acquired=float(payload["acquired"]),
            deadline=float(payload["deadline"]),
            ttl_s=float(payload["ttl_s"]),
            renewals=int(payload.get("renewals", 0)),
        )


class LeaseManager:
    """Claim, renew, release, and reclaim leases in one directory.

    ``clock`` is injectable for tests; ``skew_s`` shifts this manager's
    view of "now" to model a host whose wall clock disagrees with its
    peers (the ``clock_skew`` fault kind drives it at runtime). All
    deadlines are absolute wall-clock timestamps as written by the
    *claimant*, compared against the *observer's* clock — which is
    exactly why skew matters and why double-runs must stay harmless.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        owner: Optional[str] = None,
        ttl_s: float = DEFAULT_LEASE_TTL_S,
        clock: Callable[[], float] = time.time,
        skew_s: float = 0.0,
    ) -> None:
        if ttl_s <= 0:
            raise ConfigError(
                f"lease ttl must be positive, got {ttl_s!r}"
            )
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.owner = owner or default_owner()
        self.ttl_s = float(ttl_s)
        self._clock = clock
        self.skew_s = float(skew_s)
        #: Torn lease files by key: ``(file identity, first sighting)``.
        self._torn_seen: Dict[str, Tuple[Tuple[int, int], float]] = {}

    # -- clock ------------------------------------------------------------
    def now(self) -> float:
        """This manager's (possibly skewed) view of wall-clock time."""
        return self._clock() + self.skew_s

    # -- paths ------------------------------------------------------------
    def path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    # -- inspection -------------------------------------------------------
    def read(self, key: str) -> Optional[Lease]:
        """The current lease on ``key``, or None (missing/torn file)."""
        return self._read_path(self.path(key))

    def _read_path(self, path: Path) -> Optional[Lease]:
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            return None
        try:
            return Lease.from_dict(json.loads(text))
        except (ValueError, KeyError, TypeError):
            pass
        # A torn lease write (crash mid-write): claimed by an unknown
        # owner with no deadline to renew. It ages from the first time
        # this manager saw this very file torn, on this manager's
        # clock, so it turns reclaimable one TTL later rather than
        # living forever. The mtime only tells one torn file from the
        # next: it comes from the kernel's (or a file server's) clock.
        try:
            stat = path.stat()
        except OSError:
            return None
        identity = (stat.st_ino, stat.st_mtime_ns)
        seen = self._torn_seen.get(path.stem)
        if seen is None or seen[0] != identity:
            seen = self._torn_seen[path.stem] = (identity, self.now())
        return Lease(
            key=path.stem,
            owner="?torn",
            token="?torn",
            acquired=seen[1],
            deadline=seen[1] + self.ttl_s,
            ttl_s=self.ttl_s,
        )

    def expired(self, lease: Lease, now: Optional[float] = None) -> bool:
        """True once ``now >= deadline`` — expiry exactly *at* the
        deadline counts as expired."""
        if now is None:
            now = self.now()
        return now >= lease.deadline

    # -- claim ------------------------------------------------------------
    def try_claim(self, key: str) -> Optional[Lease]:
        """Atomically claim ``key``; None if someone already holds it.

        The claim is the ``O_CREAT | O_EXCL`` creation of the lease
        file — exactly one concurrent caller can succeed.
        """
        now = self.now()
        lease = Lease(
            key=key,
            owner=self.owner,
            token=os.urandom(8).hex(),
            acquired=now,
            deadline=now + self.ttl_s,
            ttl_s=self.ttl_s,
        )
        try:
            fd = os.open(
                os.fspath(self.path(key)),
                os.O_WRONLY | os.O_CREAT | os.O_EXCL,
                0o644,
            )
        except FileExistsError:
            return None
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            _io_shim().write(
                handle,
                json.dumps(lease.as_dict()),
                site="lease.claim.write",
            )
        return lease

    # -- renew ------------------------------------------------------------
    def renew(self, lease: Lease) -> Optional[Lease]:
        """Extend our lease's deadline; None if the lease was lost.

        Verify-then-replace: the file is re-read first, and the
        renewal proceeds only if it still carries our token. If a
        survivor reclaimed the lease (or deleted it) in the meantime,
        the token no longer matches and the caller must treat the job
        as no longer theirs — finish if it wants, but its output will
        only land if it wins the first-wins publish.
        """
        current = self.read(lease.key)
        if current is None or current.token != lease.token:
            return None
        renewed = replace(
            lease,
            deadline=self.now() + self.ttl_s,
            renewals=lease.renewals + 1,
        )
        path = self.path(lease.key)
        tmp = path.with_name(f"{path.name}.renew{os.getpid()}")
        shim = _io_shim()
        with tmp.open("w", encoding="utf-8") as handle:
            shim.write(
                handle,
                json.dumps(renewed.as_dict()),
                site="lease.renew.write",
            )
        shim.replace(tmp, path, site="lease.renew.replace")
        # Post-replace check: a reclaimer may have renamed the file
        # away between our read and our replace, in which case our
        # replace just resurrected a lease the reclaimer believes it
        # owns. Re-read and yield to any token that isn't ours.
        current = self.read(lease.key)
        if current is None or current.token != lease.token:
            return None
        return renewed

    # -- release ----------------------------------------------------------
    def release(self, lease: Lease) -> bool:
        """Drop our lease (no-op if it was already lost/reclaimed)."""
        current = self.read(lease.key)
        if current is None or current.token != lease.token:
            return False
        try:
            self.path(lease.key).unlink()
        except OSError:  # pragma: no cover - racing reclaim
            return False
        return True

    # -- reclaim ----------------------------------------------------------
    def reclaim(self, key: str) -> Optional[Lease]:
        """Take over an *expired* lease; None if we lost the race.

        Takeover is a rename of the existing lease file to a unique
        tombstone — ``os.rename`` guarantees a single winner among
        concurrent reclaimers — followed by a fresh :meth:`try_claim`.
        If the original owner renews between our rename and our claim
        it recreates the path first and our claim loses cleanly; if we
        claim first, the owner's next renewal sees a foreign token and
        abandons the job.
        """
        current = self.read(key)
        if current is None:
            # Nothing to reclaim; the job is simply open.
            return self.try_claim(key)
        if not self.expired(current):
            return None
        path = self.path(key)
        tomb = path.with_name(
            f"{path.name}.reclaim-{os.getpid()}-{os.urandom(4).hex()}"
        )
        try:
            _io_shim().rename(path, tomb, site="lease.reclaim.rename")
        except OSError:
            return None  # another reclaimer (or a release) beat us
        try:
            return self.try_claim(key)
        finally:
            try:
                tomb.unlink()
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
