"""``repro fsck``: scan and repair durable campaign state.

A store's correctness backbone is ``results/`` — every published group
carries a sha256 trailer, the canonical ledger is reconstructible from
``store.json`` plus the groups, and leases are advisory. That makes a
*self-healing* checker possible: anything damaged can either be
verified intact, rebuilt from the backbone, or quarantined back to
open so workers deterministically re-run it. Nothing is ever
half-read silently.

Two modes, chosen by the target path:

* **store mode** (a directory holding ``store.json``) — checks
  crashed-write tmp residue, every result group (parse + trailer +
  terminal record), every lease file (torn / dangling / expired /
  stale), the canonical ledger (header, torn lines, trailer), and the
  ledger↔results cross-reference (a terminal ledger row whose group
  vanished).
* **ledger mode** (a JSONL file) — header, torn lines, checksum
  trailer, and sibling tmp residue.

``repair=True`` applies the per-finding repair: residue and dead
leases are unlinked, damaged groups move to ``fsck-quarantine/`` (the
job reopens), damaged ledgers are rewritten through the existing
compaction path or rebuilt header-only from ``store.json``, and
missing groups are republished from the canonical ledger's terminal
row. Repair assumes a *quiesced* store — run it only when no worker
is active, exactly like fsck on an unmounted filesystem.

Exit-code contract (:meth:`FsckReport.exit_code`): 0 clean, 1
corruption found that repair cannot (or did not) fix, 3 repairable
damage found without ``--repair``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.errors import ConfigError, StorageError
from repro.runner.ledger import (
    LEDGER_VERSION,
    LedgerState,
    RunLedger,
    compact_ledger,
    fold_ledger,
    fold_records,
    verify_trailer,
)

__all__ = [
    "Finding",
    "FsckReport",
    "run_fsck",
    "format_fsck_report",
]

#: Where repair moves damaged artifacts inside a store.
QUARANTINE_DIR = "fsck-quarantine"


@dataclass
class Finding:
    """One piece of detected damage and what became of it."""

    kind: str
    path: str
    detail: str
    repairable: bool
    repaired: bool = False
    action: Optional[str] = None

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "path": self.path,
            "detail": self.detail,
            "repairable": self.repairable,
            "repaired": self.repaired,
            "action": self.action,
        }


@dataclass
class FsckReport:
    """Everything one scan (and optional repair pass) found."""

    target: str
    mode: str  # "store" | "ledger"
    repair: bool
    findings: List[Finding] = field(default_factory=list)
    checked: Dict[str, int] = field(default_factory=dict)

    def add(
        self,
        kind: str,
        path: Union[str, Path],
        detail: str,
        repairable: bool,
    ) -> Finding:
        finding = Finding(kind, str(path), detail, repairable)
        self.findings.append(finding)
        return finding

    @property
    def clean(self) -> bool:
        return not self.findings

    def unrepaired(self) -> List[Finding]:
        return [f for f in self.findings if not f.repaired]

    def exit_code(self) -> int:
        """The unified CLI contract: 0 clean / 1 corruption that repair
        cannot or did not fix / 3 repairable damage without --repair."""
        if not self.findings:
            return 0
        if self.repair:
            return 1 if any(
                not f.repaired for f in self.findings
            ) else 0
        if any(f.repairable for f in self.findings):
            return 3
        return 1

    def as_dict(self) -> dict:
        return {
            "target": self.target,
            "mode": self.mode,
            "repair": self.repair,
            "clean": self.clean,
            "exit_code": self.exit_code(),
            "checked": dict(sorted(self.checked.items())),
            "findings": [f.as_dict() for f in self.findings],
        }


# ---------------------------------------------------------------------------
# Repair plumbing
# ---------------------------------------------------------------------------
def _quarantine(root: Path, path: Path) -> Path:
    """Move a damaged artifact into ``<root>/fsck-quarantine/``."""
    pen = root / QUARANTINE_DIR
    pen.mkdir(exist_ok=True)
    dest = pen / path.name
    counter = 0
    while dest.exists():
        counter += 1
        dest = pen / f"{path.name}.{counter}"
    path.rename(dest)
    return dest


def _unlink(finding: Finding, path: Path) -> None:
    try:
        path.unlink()
    except OSError as exc:  # pragma: no cover - racing writer
        finding.action = f"unlink failed: {exc}"
        return
    finding.repaired = True
    finding.action = "unlinked"


# ---------------------------------------------------------------------------
# Ledger checks (shared by both modes)
# ---------------------------------------------------------------------------
def _scan_ledger_file(
    report: FsckReport,
    path: Path,
    expect_plan_key: Optional[str] = None,
) -> LedgerState:
    """Scan one ledger file and return its fold.

    Appends findings to ``report`` but performs no repair — the caller
    owns repair because the right fix differs by mode (a store can
    rebuild a headerless ledger from ``store.json``; a bare ledger
    cannot).
    """
    try:
        state = fold_ledger(path, require_header=False)
    except ConfigError as exc:
        report.add(
            "ledger_unreadable", path, str(exc), repairable=False
        )
        return LedgerState()
    report.checked["ledger_records"] = report.checked.get(
        "ledger_records", 0
    ) + sum(state.counts.values())
    header = state.header
    if header is None:
        report.add(
            "ledger_headerless",
            path,
            "no header record survives; resume would refuse this ledger",
            # A store can rebuild its canonical ledger header from
            # store.json; a bare ledger has no source of truth left.
            repairable=expect_plan_key is not None,
        )
        return state
    if header.get("version") != LEDGER_VERSION:
        report.add(
            "ledger_version",
            path,
            f"unsupported ledger version {header.get('version')!r}",
            repairable=False,
        )
    if (
        expect_plan_key is not None
        and header.get("plan_key") != expect_plan_key
    ):
        report.add(
            "ledger_foreign",
            path,
            "header plan_key does not match the store registration",
            repairable=False,
        )
    if state.n_skipped:
        report.add(
            "ledger_torn",
            path,
            f"{state.n_skipped} damaged line(s) skipped on load",
            repairable=True,
        )
    trailer = verify_trailer(path)
    if trailer["present"] and not trailer["ok"]:
        report.add(
            "ledger_trailer_mismatch",
            path,
            "checksum trailer does not match the preceding bytes",
            repairable=True,
        )
    return state


def _repair_ledger(
    report: FsckReport,
    path: Path,
    store=None,
) -> None:
    """Apply the ledger repairs recorded in ``report`` for ``path``."""
    mine = [
        f
        for f in report.findings
        if f.path == str(path) and not f.repaired
    ]
    headerless = [f for f in mine if f.kind == "ledger_headerless"]
    rewritable = [
        f
        for f in mine
        if f.kind in ("ledger_torn", "ledger_trailer_mismatch")
    ]
    if headerless and store is not None:
        # The canonical ledger is reconstructible: results/ holds every
        # settled group and finalize re-merges idempotently, so a
        # header-only rebuild loses nothing.
        damaged = _quarantine(store.root, path)
        RunLedger(
            path,
            plan_key=store.plan_key,
            plan_name=store.plan_name,
            exclusive=True,
            header_extra={"jobs": store.n_jobs, "store": True},
        ).close()
        for f in headerless:
            f.repaired = True
            f.action = f"quarantined to {damaged.name}; header rebuilt"
        for f in rewritable:
            # The damaged bytes went to quarantine with the old file.
            f.repaired = True
            f.action = "superseded by header rebuild"
        return
    if rewritable:
        try:
            stats = compact_ledger(path)
        except ConfigError as exc:
            for f in rewritable:
                f.action = f"compaction failed: {exc}"
            return
        for f in rewritable:
            f.repaired = True
            f.action = (
                f"compacted to {stats['records_after']} records "
                f"(sha256 {stats['sha256'][:12]}…)"
            )


# ---------------------------------------------------------------------------
# Residue (crashed-write tmp orphans)
# ---------------------------------------------------------------------------
def _scan_residue(
    report: FsckReport,
    directories: List[Path],
    prefix: Optional[str] = None,
) -> None:
    from repro.runner.store import _RESIDUE_RE

    for directory in directories:
        try:
            entries = sorted(directory.iterdir())
        except OSError:
            continue
        for entry in entries:
            if not _RESIDUE_RE.search(entry.name):
                continue
            if prefix is not None and not entry.name.startswith(prefix):
                continue  # unrelated residue is not ours to judge
            report.checked["tmp_orphans"] = (
                report.checked.get("tmp_orphans", 0) + 1
            )
            finding = report.add(
                "tmp_orphan",
                entry,
                "crashed-write residue (never committed)",
                repairable=True,
            )
            if report.repair:
                _unlink(finding, entry)


# ---------------------------------------------------------------------------
# Store mode
# ---------------------------------------------------------------------------
def _scan_store(report: FsckReport, root: Path) -> None:
    from repro.runner.lease import LeaseManager
    from repro.runner.store import FINALIZE_KEY, ExperimentStore

    try:
        store = ExperimentStore.attach(root)
    except ConfigError as exc:
        report.add("store_unreadable", root, str(exc), repairable=False)
        return

    _scan_residue(
        report, [store.root, store.results_dir, store.leases_dir]
    )

    # -- result groups ----------------------------------------------------
    try:
        group_files = sorted(store.results_dir.glob("*.jsonl"))
    except OSError:  # pragma: no cover - defensive
        group_files = []
    for path in group_files:
        key = path.name[: -len(".jsonl")]
        report.checked["groups"] = report.checked.get("groups", 0) + 1
        if key not in store.jobs:
            finding = report.add(
                "group_foreign",
                path,
                "result group for a job not in this store's grid",
                repairable=True,
            )
        else:
            try:
                records = store.read_result(key)
            except StorageError as exc:
                finding = report.add(
                    "group_corrupt", path, str(exc), repairable=True
                )
            else:
                if key in fold_records(records or ()).terminal:
                    continue
                finding = report.add(
                    "group_no_terminal",
                    path,
                    "group parses but holds no terminal record for "
                    "its own key",
                    repairable=True,
                )
        if report.repair:
            dest = _quarantine(store.root, path)
            finding.repaired = True
            finding.action = (
                f"quarantined to {dest.name}; job reopened"
            )

    # -- leases -----------------------------------------------------------
    manager = LeaseManager(store.leases_dir)
    now = manager.now()
    try:
        lease_files = sorted(store.leases_dir.glob("*.json"))
    except OSError:  # pragma: no cover - defensive
        lease_files = []
    for path in lease_files:
        report.checked["leases"] = report.checked.get("leases", 0) + 1
        lease = manager._read_path(path)
        if lease is None:
            continue  # vanished under us (racing release)
        if lease.owner == "?torn":
            finding = report.add(
                "lease_torn",
                path,
                "lease file is unparseable (crash mid-claim)",
                repairable=True,
            )
        elif path.stem != FINALIZE_KEY and store.has_result(path.stem):
            finding = report.add(
                "lease_dangling",
                path,
                f"job already published a result "
                f"(owner {lease.owner})",
                repairable=True,
            )
        elif now >= lease.deadline:
            finding = report.add(
                "lease_expired",
                path,
                f"deadline passed {now - lease.deadline:.1f}s ago "
                f"(owner {lease.owner})",
                repairable=True,
            )
        else:
            finding = report.add(
                "lease_stale",
                path,
                f"unexpired lease without a result (owner "
                f"{lease.owner}); repair assumes a quiesced store",
                repairable=True,
            )
        if report.repair:
            _unlink(finding, path)

    # -- canonical ledger -------------------------------------------------
    ledger_path = store.ledger_path
    if not ledger_path.exists():
        finding = report.add(
            "ledger_missing",
            ledger_path,
            "canonical ledger absent (crash between registration "
            "steps); rebuildable from store.json",
            repairable=True,
        )
        if report.repair:
            RunLedger(
                ledger_path,
                plan_key=store.plan_key,
                plan_name=store.plan_name,
                exclusive=True,
                header_extra={"jobs": store.n_jobs, "store": True},
            ).close()
            finding.repaired = True
            finding.action = "header rebuilt from store.json"
        terminals: Dict[str, dict] = {}
    else:
        terminals = _scan_ledger_file(
            report, ledger_path, expect_plan_key=store.plan_key
        ).terminal
        if report.repair:
            _repair_ledger(report, ledger_path, store=store)

    # -- ledger <-> results cross-reference -------------------------------
    for key, record in sorted(terminals.items()):
        if key not in store.jobs or store.has_result(key):
            continue
        finding = report.add(
            "result_missing",
            store.result_path(key),
            "ledger holds a terminal row but the result group is "
            "gone; republishable from the ledger",
            repairable=True,
        )
        if report.repair:
            if store.publish(key, [record]):
                finding.repaired = True
                finding.action = "republished from ledger terminal row"
            else:  # pragma: no cover - racing publisher
                finding.action = "a concurrent publisher beat us"


# ---------------------------------------------------------------------------
# Ledger mode
# ---------------------------------------------------------------------------
def _scan_bare_ledger(report: FsckReport, path: Path) -> None:
    _scan_residue(report, [path.parent], prefix=path.name)
    _scan_ledger_file(report, path)
    if report.repair:
        _repair_ledger(report, path, store=None)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------
def run_fsck(
    target: Union[str, Path], repair: bool = False
) -> FsckReport:
    """Scan (and with ``repair`` fix) a store directory or ledger file.

    Raises :class:`~repro.errors.ConfigError` when ``target`` is
    neither — CLI callers funnel that into the one-line ``error:``
    contract.
    """
    target = Path(target)
    if target.is_dir():
        if not (target / "store.json").is_file():
            raise ConfigError(
                f"{target} is not an experiment store "
                "(missing store.json)"
            )
        report = FsckReport(
            target=str(target), mode="store", repair=repair
        )
        _scan_store(report, target)
        return report
    if target.is_file():
        report = FsckReport(
            target=str(target), mode="ledger", repair=repair
        )
        _scan_bare_ledger(report, target)
        return report
    raise ConfigError(
        f"no store directory or ledger file at {target}"
    )


def format_fsck_report(report: FsckReport) -> str:
    """Human-readable fsck summary."""
    lines = [
        f"fsck {report.mode} {report.target}"
        + (" (repair)" if report.repair else ""),
    ]
    checked = ", ".join(
        f"{count} {name}"
        for name, count in sorted(report.checked.items())
    )
    lines.append(f"  checked: {checked or 'nothing'}")
    if report.clean:
        lines.append("  clean: no damage found")
        return "\n".join(lines)
    for finding in report.findings:
        status = (
            "repaired"
            if finding.repaired
            else ("repairable" if finding.repairable else "UNREPAIRABLE")
        )
        lines.append(
            f"  [{status}] {finding.kind}: {finding.path}"
        )
        lines.append(f"      {finding.detail}")
        if finding.action:
            lines.append(f"      -> {finding.action}")
    n_repaired = sum(1 for f in report.findings if f.repaired)
    lines.append(
        f"  {len(report.findings)} finding(s), {n_repaired} repaired"
        f" -> exit {report.exit_code()}"
    )
    if report.exit_code() == 3:
        lines.append("  run again with --repair to fix")
    return "\n".join(lines)
