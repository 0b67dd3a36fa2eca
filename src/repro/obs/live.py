"""Live campaign monitor: heartbeat aggregation, ETA, stragglers.

Runners append volatile ``heartbeat`` records to whichever ledger they
hold — the canonical file for a serial run, the private
``<ledger>.w<k>`` shard of each store worker (inside
``<ledger>.store/`` for a ``--workers`` campaign) — carrying
wall-clock timestamp, jobs done/failed so far, total, and the label of
the job being started. Heartbeats are the one record type every
results reader skips: the byte-identical merge drops them, resume
ignores them, and a torn heartbeat (they are flushed, not fsynced)
costs nothing.

:func:`read_live` folds the canonical ledger plus any live shards into
a :class:`CampaignStatus`: per-worker progress, heartbeat age, an EWMA
jobs/s rate, campaign ETA from the aggregate rate, and
straggler/dead-worker flags from heartbeat staleness. :func:`render_top`
draws the ``repro top`` terminal view and
:func:`export_campaign_metrics` publishes the same numbers as gauges in
a :class:`~repro.obs.metrics.MetricsRegistry`, so
``render_openmetrics()`` gives external scrapers the campaign's pulse.

Imports from :mod:`repro.runner` stay function-local: ``repro.obs`` is
the bottom layer and the runner imports it back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import ConfigError

__all__ = [
    "DEFAULT_STRAGGLER_AFTER_S",
    "DEAD_AFTER_FACTOR",
    "EWMA_ALPHA",
    "WorkerStatus",
    "CampaignStatus",
    "ewma_rate",
    "read_live",
    "render_top",
    "export_campaign_metrics",
]

#: A worker whose last heartbeat is older than this is a straggler.
DEFAULT_STRAGGLER_AFTER_S = 30.0

#: ... and older than ``factor * threshold`` is presumed dead.
DEAD_AFTER_FACTOR = 4.0

#: Smoothing factor for the per-worker jobs/s EWMA.
EWMA_ALPHA = 0.3


@dataclass
class WorkerStatus:
    """One runner's view: the serial runner (``worker=None``) or one
    parallel shard."""

    worker: Optional[int]
    done: int = 0
    failed: int = 0
    total: int = 0
    last_ts: Optional[float] = None
    last_job: Optional[str] = None
    rate_jobs_s: float = 0.0
    stale_s: float = 0.0
    finished: bool = False
    straggler: bool = False
    dead: bool = False

    @property
    def label(self) -> str:
        return "serial" if self.worker is None else f"w{self.worker}"


@dataclass
class CampaignStatus:
    """Aggregated live view of one campaign ledger."""

    ledger_path: str
    plan_name: str
    #: Campaign identity — the plan's content-addressed key, from the
    #: ledger header or (multi-campaign hosts) the heartbeats themselves.
    campaign: Optional[str] = None
    total: int = 0
    done: int = 0
    failed: int = 0
    quarantined: Dict[str, int] = field(default_factory=dict)
    workers: List[WorkerStatus] = field(default_factory=list)
    throughput_jobs_s: float = 0.0
    eta_s: float = float("nan")
    now: float = 0.0
    #: Damaged lines skipped while reading the canonical ledger.
    torn_lines: int = 0

    @property
    def remaining(self) -> int:
        return max(0, self.total - self.done - self.failed)

    @property
    def complete(self) -> bool:
        return self.total > 0 and self.remaining == 0

    @property
    def stragglers(self) -> List[WorkerStatus]:
        return [w for w in self.workers if w.straggler]

    def as_dict(self) -> dict:
        out = {
            "ledger": self.ledger_path,
            "plan_name": self.plan_name,
            "campaign": self.campaign,
            "total": self.total,
            "done": self.done,
            "failed": self.failed,
            "quarantined": dict(self.quarantined),
            "remaining": self.remaining,
            "complete": self.complete,
            "throughput_jobs_s": self.throughput_jobs_s,
            "eta_s": self.eta_s,
            "workers": [
                {
                    "worker": w.label,
                    "done": w.done,
                    "failed": w.failed,
                    "total": w.total,
                    "rate_jobs_s": w.rate_jobs_s,
                    "heartbeat_age_s": w.stale_s,
                    "job": w.last_job,
                    "finished": w.finished,
                    "straggler": w.straggler,
                    "dead": w.dead,
                }
                for w in self.workers
            ],
        }
        if self.torn_lines:
            out["torn_lines"] = self.torn_lines
        return out


# ---------------------------------------------------------------------------
def ewma_rate(
    samples: Sequence[Tuple[float, int]], alpha: float = EWMA_ALPHA
) -> float:
    """Exponentially weighted jobs/s over ``(ts, jobs_finished)``
    heartbeat samples. Intervals where the count did not advance still
    decay the estimate toward zero — a stalled worker's rate fades
    rather than freezing at its last good value."""
    rate: Optional[float] = None
    for (t0, n0), (t1, n1) in zip(samples, samples[1:]):
        dt = t1 - t0
        if dt <= 0:
            continue
        instantaneous = max(0, n1 - n0) / dt
        rate = (
            instantaneous
            if rate is None
            else alpha * instantaneous + (1.0 - alpha) * rate
        )
    return rate or 0.0


def _worker_from_heartbeats(
    worker: Optional[int], beats: List[dict], now: float
) -> WorkerStatus:
    status = WorkerStatus(worker=worker)
    samples: List[Tuple[float, int]] = []
    for beat in beats:
        ts = beat.get("ts")
        if not isinstance(ts, (int, float)):
            continue
        done = int(beat.get("done", 0))
        failed = int(beat.get("failed", 0))
        status.done = done
        status.failed = failed
        status.total = int(beat.get("total", status.total))
        status.last_ts = float(ts)
        status.last_job = beat.get("job")
        samples.append((float(ts), done + failed))
    status.rate_jobs_s = ewma_rate(samples)
    status.finished = (
        status.total > 0 and status.done + status.failed >= status.total
    )
    if status.last_ts is not None:
        status.stale_s = max(0.0, now - status.last_ts)
    return status


def read_live(
    ledger_path: Union[str, Path],
    now: Optional[float] = None,
    straggler_after_s: float = DEFAULT_STRAGGLER_AFTER_S,
) -> CampaignStatus:
    """Aggregate a campaign's canonical ledger plus live shards.

    The campaign total is taken from the runners themselves: the
    serial runner's heartbeats carry the full job count, a store
    ledger's header declares its grid size, and shards without either
    sum their heartbeat totals, on top of whatever the canonical ledger
    already holds as terminal rows (resumed work). A ``--workers``
    campaign's live view is that of its local store
    (``<ledger>.store/``), folded in. ``now`` is injectable for
    deterministic tests.
    """
    import time as _time

    from repro.runner.ledger import fold_ledger, list_shards, local_store_path

    ledger_path = Path(ledger_path)
    if not ledger_path.exists():
        raise ConfigError(f"no ledger at {ledger_path}")
    now = _time.time() if now is None else now

    state = fold_ledger(ledger_path)
    header = state.header
    plan_name = header.get("plan_name", "campaign")
    plan_key = header.get("plan_key")
    # Experiment-store ledgers declare the grid size up front: store
    # workers claim jobs dynamically, so their per-shard heartbeat
    # totals describe the whole grid (not a disjoint shard) and cannot
    # be summed for the campaign total.
    header_jobs = header.get("jobs")
    if not isinstance(header_jobs, int):
        header_jobs = None
    if plan_name == "campaign" or plan_key is None:
        # Older headers (or hand-rolled ledgers) may lack identity; the
        # heartbeats themselves carry it since they label multi-campaign
        # hosts.
        for record in state.heartbeats:
            if plan_name == "campaign" and record.get("plan"):
                plan_name = str(record["plan"])
            if plan_key is None and record.get("campaign"):
                plan_key = str(record["campaign"])
            if plan_name != "campaign" and plan_key is not None:
                break

    status = CampaignStatus(
        ledger_path=str(ledger_path),
        plan_name=plan_name,
        campaign=plan_key,
        now=now,
        torn_lines=state.n_skipped,
    )

    serial_beats = [
        beat for beat in state.heartbeats if beat.get("worker") is None
    ]

    def _count(terminal: Dict[str, dict]) -> Tuple[int, int]:
        """``(done, failed)`` over terminal records; failures are also
        tallied by kind into the campaign's quarantine taxonomy."""
        failed = 0
        for record in terminal.values():
            row = record["row"]
            if record["type"] == "quarantined" or row.get("status") in (
                "failed",
                "quarantined",
            ):
                failed += 1
                kind = str((row.get("failure") or {}).get("kind", "unknown"))
                status.quarantined[kind] = status.quarantined.get(kind, 0) + 1
        return len(terminal) - failed, failed

    # Canonical terminal rows: done/failed/quarantined jobs already
    # settled (serial progress, resumed work, merged shards).
    canonical_done, canonical_failed = _count(state.terminal)
    status.done = canonical_done
    status.failed = canonical_failed

    # Live shards: per-worker heartbeats plus any terminal rows a
    # worker fsynced that the parent has not merged yet.
    shard_total = 0
    for path in list_shards(ledger_path):
        try:
            shard = fold_ledger(path, require_header=False)
        except ConfigError:
            continue  # swept by a finishing worker
        shard_header = shard.header or {}
        if plan_key is not None and shard_header.get("plan_key") not in (
            None,
            plan_key,
        ):
            continue
        worker = shard_header.get("worker")
        if worker is None:
            worker = next(
                (
                    beat["worker"]
                    for beat in shard.heartbeats
                    if beat.get("worker") is not None
                ),
                None,
            )
        wstat = _worker_from_heartbeats(worker, shard.heartbeats, now)
        # Trust fsynced terminal rows over the (possibly older) last
        # heartbeat counters.
        n_done, n_failed = _count(shard.terminal)
        wstat.done = max(wstat.done, n_done)
        wstat.failed = max(wstat.failed, n_failed)
        wstat.finished = (
            wstat.total > 0 and wstat.done + wstat.failed >= wstat.total
        )
        status.workers.append(wstat)
        status.done += wstat.done
        status.failed += wstat.failed
        shard_total += wstat.total

    # A --workers campaign: its workers heartbeat inside its local
    # store, whose header sizes the grid of jobs still pending.
    store_ledger = local_store_path(ledger_path) / "ledger.jsonl"
    if store_ledger.exists():
        try:
            inner = read_live(store_ledger, now, straggler_after_s)
        except ConfigError:
            pass  # swept by the finishing campaign
        else:
            status.workers += inner.workers
            status.done += inner.done
            status.failed += inner.failed
            shard_total += inner.total
            for kind, count in inner.quarantined.items():
                status.quarantined[kind] = (
                    status.quarantined.get(kind, 0) + count
                )

    if serial_beats and not status.workers:
        wstat = _worker_from_heartbeats(None, serial_beats, now)
        # The canonical terminal rows ARE this runner's progress.
        wstat.done = max(wstat.done, canonical_done)
        wstat.failed = max(wstat.failed, canonical_failed)
        wstat.finished = (
            wstat.total > 0 and wstat.done + wstat.failed >= wstat.total
        )
        status.workers.append(wstat)
        status.total = wstat.total
        status.done = wstat.done
        status.failed = wstat.failed
    elif status.workers:
        status.total = len(state.terminal) + shard_total
    else:
        status.total = len(state.terminal)
    if header_jobs is not None:
        status.total = header_jobs

    status.workers.sort(
        key=lambda w: (w.worker is None, w.worker if w.worker is not None else -1)
    )

    # Staleness flags and the aggregate rate of workers still earning.
    aggregate = 0.0
    for wstat in status.workers:
        if not wstat.finished and wstat.last_ts is not None:
            wstat.straggler = wstat.stale_s > straggler_after_s
            wstat.dead = (
                wstat.stale_s > straggler_after_s * DEAD_AFTER_FACTOR
            )
        if not wstat.finished and not wstat.dead:
            aggregate += wstat.rate_jobs_s
    status.throughput_jobs_s = aggregate

    if status.remaining == 0:
        status.eta_s = 0.0
    elif aggregate > 0:
        status.eta_s = status.remaining / aggregate
    return status


# ---------------------------------------------------------------------------
def _bar(fraction: float, width: int = 24) -> str:
    filled = int(round(max(0.0, min(1.0, fraction)) * width))
    return "#" * filled + "." * (width - filled)


def _fmt_eta(eta_s: float) -> str:
    if math.isnan(eta_s):
        return "unknown"
    if eta_s >= 3600:
        return f"{eta_s / 3600:.1f}h"
    if eta_s >= 60:
        return f"{eta_s / 60:.1f}m"
    return f"{eta_s:.0f}s"


def render_top(status: CampaignStatus) -> str:
    """The ``repro top`` terminal snapshot."""
    frac = (
        (status.done + status.failed) / status.total
        if status.total
        else 0.0
    )
    lines = [
        "campaign {!r}{} — {}".format(
            status.plan_name,
            f" [{status.campaign}]" if status.campaign else "",
            status.ledger_path,
        ),
        "  progress  : {}/{} jobs ({} ok, {} failed) [{}] {:.0f}%".format(
            status.done + status.failed,
            status.total,
            status.done,
            status.failed,
            _bar(frac),
            frac * 100.0,
        ),
    ]
    if status.quarantined:
        kinds = ", ".join(
            f"{kind}={n}" for kind, n in sorted(status.quarantined.items())
        )
        lines.append(f"  quarantine: {kinds}")
    if status.torn_lines:
        lines.append(f"  torn lines: {status.torn_lines} skipped on load")
    lines.append(
        "  throughput: {:.2f} job/s — ETA {}".format(
            status.throughput_jobs_s,
            "done" if status.complete else _fmt_eta(status.eta_s),
        )
    )
    if status.workers:
        lines.append("  runners:")
        for w in status.workers:
            flag = ""
            if w.dead:
                flag = "  DEAD"
            elif w.straggler:
                flag = "  STRAGGLER"
            elif w.finished:
                flag = "  done"
            job = f"  [{w.last_job}]" if w.last_job and not w.finished else ""
            age = (
                f"hb {w.stale_s:.1f}s ago"
                if w.last_ts is not None
                else "no heartbeat"
            )
            lines.append(
                "    {:<7} {:>3}/{:<3} done  {:>6.2f} job/s  {:<16}{}{}".format(
                    w.label,
                    w.done + w.failed,
                    w.total,
                    w.rate_jobs_s,
                    age,
                    job,
                    flag,
                )
            )
    elif status.complete:
        lines.append("  runners: (campaign complete; shards merged)")
    else:
        lines.append("  runners: (no heartbeats yet)")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
def export_campaign_metrics(status: CampaignStatus, registry):
    """Publish the campaign status as gauges in ``registry`` (a
    :class:`~repro.obs.metrics.MetricsRegistry`) and return it, ready
    for ``render_openmetrics()``."""
    # Identity travels as labels on a constant info gauge (the
    # OpenMetrics convention) so scrapers on multi-campaign hosts can
    # join the unlabeled progress gauges to a plan/campaign pair.
    registry.gauge(
        "campaign.info", "Campaign identity (constant 1)"
    ).labels(
        plan=status.plan_name, campaign=status.campaign or "unknown"
    ).set(1.0)
    registry.gauge(
        "campaign.jobs.total", "Jobs in the campaign plan"
    ).set(status.total)
    registry.gauge(
        "campaign.jobs.done", "Jobs finished ok"
    ).set(status.done)
    registry.gauge(
        "campaign.jobs.failed", "Jobs failed or quarantined"
    ).set(status.failed)
    registry.gauge(
        "campaign.jobs.remaining", "Jobs not yet terminal"
    ).set(status.remaining)
    registry.gauge(
        "campaign.throughput.jobs_per_s",
        "Aggregate EWMA throughput of live runners",
    ).set(status.throughput_jobs_s)
    registry.gauge(
        "campaign.eta.s", "Estimated seconds to completion (NaN unknown)"
    ).set(status.eta_s)
    registry.gauge(
        "campaign.stragglers", "Runners past the straggler threshold"
    ).set(len(status.stragglers))
    done = registry.gauge(
        "campaign.worker.done", "Terminal jobs per runner"
    )
    rate = registry.gauge(
        "campaign.worker.rate_jobs_per_s", "Per-runner EWMA throughput"
    )
    age = registry.gauge(
        "campaign.worker.heartbeat_age_s", "Seconds since last heartbeat"
    )
    flag = registry.gauge(
        "campaign.worker.straggler", "1 when past the straggler threshold"
    )
    for w in status.workers:
        done.labels(worker=w.label).set(w.done + w.failed)
        rate.labels(worker=w.label).set(w.rate_jobs_s)
        age.labels(worker=w.label).set(w.stale_s)
        flag.labels(worker=w.label).set(1.0 if w.straggler else 0.0)
    return registry
