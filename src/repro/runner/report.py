"""Post-hoc campaign analytics: summarize and diff run ledgers.

``repro suite-report`` answers the questions an operator has *after* a
campaign — how many jobs landed, what was retried, what got
quarantined and why, how the work spread across workers — without
re-running anything. Every number here comes from
:func:`repro.runner.ledger.fold_ledger`, the same fold resume uses, so
the report shows exactly the state a ``--resume`` would trust.

Diffing compares the *stable* view of two campaigns' terminal rows —
wall-clock fields stripped, keyed by content-addressed job key — so two
ledgers of the same plan produced at different worker counts or
kill/resume histories diff clean, and any real divergence (a changed
result, a job failing in one run only) is surfaced per job.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.runner.ledger import LedgerState, fold_ledger

__all__ = [
    "summarize_ledger",
    "diff_ledgers",
    "format_ledger_summary",
    "format_ledger_diff",
]


def _summarize(path: Union[str, Path], state: LedgerState) -> dict:
    counts = {"ok": 0, "failed": 0}
    quarantined: Dict[str, int] = {}
    total_attempts = 0
    total_duration = 0.0
    for record in state.terminal.values():
        row = record["row"]
        status = "ok" if row.get("status") == "ok" else "failed"
        counts[status] += 1
        total_attempts += int(row.get("attempts", 1))
        total_duration += float(row.get("duration_s", 0.0))
        if status == "failed":
            kind = (row.get("failure") or {}).get("kind", "unknown")
            quarantined[kind] = quarantined.get(kind, 0) + 1
    in_flight = sorted(state.in_flight)

    by_worker: List[dict] = []
    workers: Optional[int] = None
    for merge in state.merges:
        # Later merge records supersede earlier ones (a resumed parallel
        # campaign appends one per parallel pass).
        workers = merge.get("workers", workers)
        if merge.get("by_worker"):
            by_worker = list(merge["by_worker"])

    header = state.header
    return {
        "path": str(path),
        "plan_name": header.get("plan_name"),
        "plan_key": header.get("plan_key"),
        "worker": header.get("worker"),
        "jobs": {
            "total": len(state.terminal),
            "ok": counts["ok"],
            "failed": counts["failed"],
            "in_flight": len(in_flight),
        },
        "attempts": total_attempts,
        "retries": sum(state.retries.values()),
        "retried_jobs": len(state.retries),
        "quarantined": dict(sorted(quarantined.items())),
        "in_flight_keys": in_flight,
        "torn_lines": state.n_skipped,
        "duration_s": round(total_duration, 6),
        "workers": workers,
        "by_worker": by_worker,
    }


def summarize_ledger(path: Union[str, Path]) -> dict:
    """One campaign ledger (or worker shard) distilled to a dict.

    The summary covers job counts by terminal status, retry volume,
    quarantine taxonomy, jobs still in flight (started, never
    finished — what a resume would re-run), torn lines skipped, and —
    for parallel campaigns — the per-worker attribution recorded by the
    merge step.
    """
    return _summarize(path, fold_ledger(path))


def diff_ledgers(
    path_a: Union[str, Path], path_b: Union[str, Path]
) -> dict:
    """Compare two campaign ledgers' terminal rows, stable view only.

    Jobs are matched by content-addressed key; wall-clock fields are
    stripped before comparison, so two runs of the same plan diff empty
    regardless of worker count or kill/resume history. Returns per-job
    divergence lists (``only_a``/``only_b``/``changed``) plus the two
    summaries.
    """
    state_a = fold_ledger(path_a)
    state_b = fold_ledger(path_b)
    rows_a = state_a.stable_rows()
    rows_b = state_b.stable_rows()
    only_a = sorted(set(rows_a) - set(rows_b))
    only_b = sorted(set(rows_b) - set(rows_a))
    changed: List[dict] = []
    same = 0
    for key in sorted(set(rows_a) & set(rows_b)):
        if rows_a[key] == rows_b[key]:
            same += 1
            continue
        changed.append(
            {
                "key": key,
                "label": rows_a[key].get("label", key),
                "a": {
                    "status": rows_a[key].get("status"),
                    "attempts": rows_a[key].get("attempts"),
                    "failure": rows_a[key].get("failure"),
                },
                "b": {
                    "status": rows_b[key].get("status"),
                    "attempts": rows_b[key].get("attempts"),
                    "failure": rows_b[key].get("failure"),
                },
            }
        )

    def label_of(rows, key):
        return rows[key].get("label", key)

    return {
        "a": _summarize(path_a, state_a),
        "b": _summarize(path_b, state_b),
        "identical": not (only_a or only_b or changed),
        "same": same,
        "only_a": [
            {"key": key, "label": label_of(rows_a, key)} for key in only_a
        ],
        "only_b": [
            {"key": key, "label": label_of(rows_b, key)} for key in only_b
        ],
        "changed": changed,
    }


# ---------------------------------------------------------------------------
def format_ledger_summary(summary: dict) -> str:
    """Render one ledger summary as the ``repro suite-report`` text."""
    jobs = summary["jobs"]
    name = summary.get("plan_name") or "campaign"
    lines = [
        f"Ledger {summary['path']} — plan {name!r}"
        + (
            f" (worker shard {summary['worker']})"
            if summary.get("worker") is not None
            else ""
        ),
        f"  jobs      : {jobs['total']} terminal "
        f"({jobs['ok']} ok, {jobs['failed']} failed), "
        f"{jobs['in_flight']} in flight",
        f"  attempts  : {summary['attempts']} total, "
        f"{summary['retries']} retries across "
        f"{summary['retried_jobs']} job(s)",
    ]
    if summary["quarantined"]:
        kinds = ", ".join(
            f"{kind}={count}"
            for kind, count in summary["quarantined"].items()
        )
        lines.append(f"  quarantine: {kinds}")
    if summary["torn_lines"]:
        lines.append(
            f"  torn lines: {summary['torn_lines']} skipped on load"
        )
    lines.append(f"  job time  : {summary['duration_s']:.3f}s summed")
    if summary.get("workers"):
        lines.append(f"  workers   : {summary['workers']}")
        for entry in summary.get("by_worker", []):
            if "error" in entry:
                lines.append(
                    f"    w{entry.get('worker')}: "
                    f"DIED ({entry['error']})"
                )
            else:
                lines.append(
                    f"    w{entry.get('worker')}: "
                    f"{entry.get('jobs', 0)} jobs "
                    f"({entry.get('ok', 0)} ok, "
                    f"{entry.get('failed', 0)} failed) "
                    f"in {entry.get('duration_s', 0.0):.3f}s"
                    + (
                        " [interrupted]"
                        if entry.get("interrupted")
                        else ""
                    )
                )
    if summary["in_flight_keys"]:
        lines.append(
            "  resume would re-run: "
            + ", ".join(summary["in_flight_keys"])
        )
    return "\n".join(lines)


def format_ledger_diff(diff: dict) -> str:
    """Render a two-ledger diff as the ``repro suite-report --diff`` text."""
    a, b = diff["a"], diff["b"]
    lines = [
        f"Diff {a['path']} vs {b['path']}",
        f"  plans     : {a.get('plan_name')!r} vs {b.get('plan_name')!r}"
        + (
            ""
            if a.get("plan_key") == b.get("plan_key")
            else "  (DIFFERENT PLANS)"
        ),
        f"  identical : {diff['identical']} "
        f"({diff['same']} matching job(s))",
    ]
    for side, entries in (("only in a", diff["only_a"]),
                          ("only in b", diff["only_b"])):
        if entries:
            lines.append(
                f"  {side:<10}: "
                + ", ".join(entry["label"] for entry in entries)
            )
    for entry in diff["changed"]:
        lines.append(
            f"  changed   : {entry['label']} — "
            f"a={entry['a']['status']}/{entry['a']['attempts']}att "
            f"b={entry['b']['status']}/{entry['b']['attempts']}att"
        )
    return "\n".join(lines)
