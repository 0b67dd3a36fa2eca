"""Job supervision: deadline watchdog, bounded retries, host faults.

The supervisor owns the *one attempt* mechanics the executor loops
over:

* :func:`call_with_deadline` runs a job callable on a watchdog — with a
  deadline the work happens in a daemon worker thread that is abandoned
  (and :class:`~repro.errors.JobTimeoutError` raised) if it overruns;
  without one the callable runs inline, so the default path adds no
  threading to a campaign.
* :func:`backoff_delay` computes the exponential backoff + jitter
  between retry attempts. The jitter stream is seeded per job, so two
  runs of the same campaign retry on the same cadence (sleep time never
  reaches a result, but determinism everywhere keeps ledgers
  comparable).
* :class:`HostFaultInjector` interprets the host-level fault kinds
  (``job_hang``, ``job_crash``, ``job_oom``) of a schedule per job
  *attempt*, the same seeded per-spec stream discipline as the
  epoch-level :class:`~repro.faults.injector.FaultInjector` — which
  ignores host kinds, exactly as this injector ignores hardware kinds.

Because every fire decision is stateless per ``(seed, spec, job,
attempt)``, the injector behaves identically whether a campaign runs
in one process or on N store workers — each worker derives
exactly the faults its jobs would have seen in a serial run, which is
what keeps parallel and resumed campaigns byte-identical.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.errors import FaultError, JobTimeoutError, RetryableError
from repro.faults.spec import HOST_FAULTS, FaultSchedule

__all__ = [
    "SupervisorConfig",
    "call_with_deadline",
    "backoff_delay",
    "HostFaultInjector",
]


@dataclass(frozen=True)
class SupervisorConfig:
    """Retry/deadline tunables shared by every job of a campaign."""

    #: Wall-clock budget per attempt; ``None`` disables the watchdog.
    deadline_s: Optional[float] = None
    #: Extra attempts after the first (total attempts = 1 + max_retries).
    max_retries: int = 2
    #: First backoff sleep; doubled (``backoff_factor``) per retry.
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    #: Uniform jitter fraction on top of the exponential term.
    backoff_jitter: float = 0.25
    #: Seeds the per-job jitter streams.
    seed: int = 0

    def __post_init__(self) -> None:
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise FaultError(
                f"deadline must be positive, got {self.deadline_s!r}"
            )
        if self.max_retries < 0:
            raise FaultError(
                f"max_retries must be non-negative, got {self.max_retries!r}"
            )
        if self.backoff_base_s < 0:
            raise FaultError("backoff base must be non-negative")


def call_with_deadline(
    fn: Callable[[], object],
    deadline_s: Optional[float],
    label: str = "job",
):
    """Run ``fn`` under a wall-clock deadline.

    With ``deadline_s=None`` the call is inline (zero overhead, no
    threads). Otherwise ``fn`` runs in a daemon worker thread; if it
    has not finished within the deadline the thread is *abandoned* —
    Python offers no safe preemption — and :class:`JobTimeoutError`
    raised. Abandoned workers hold no locks the runner cares about and
    die with the process; the job functions the runner schedules are
    pure compute over private state, which is what makes abandonment
    safe here.
    """
    if deadline_s is None:
        return fn()
    outcome: dict = {}

    def target() -> None:
        try:
            outcome["value"] = fn()
        except BaseException as exc:  # noqa: BLE001 - re-raised in caller
            outcome["error"] = exc

    worker = threading.Thread(
        target=target, name=f"job-{label}", daemon=True
    )
    worker.start()
    worker.join(deadline_s)
    if worker.is_alive():
        raise JobTimeoutError(
            f"{label} exceeded its {deadline_s:g}s deadline"
        )
    if "error" in outcome:
        raise outcome["error"]
    return outcome.get("value")


def backoff_delay(
    config: SupervisorConfig, job_index: int, attempt: int
) -> float:
    """Exponential backoff with deterministic per-job jitter.

    ``attempt`` counts the attempt that just failed (1-based), so the
    first retry sleeps ~``backoff_base_s`` and each further retry
    multiplies by ``backoff_factor``; jitter is drawn from a stream
    seeded by ``(config.seed, job_index)``.
    """
    base = config.backoff_base_s * config.backoff_factor ** (attempt - 1)
    if base <= 0:
        return 0.0
    rng = random.Random(config.seed * 1_000_003 + job_index * 7919 + attempt)
    return base * (1.0 + config.backoff_jitter * rng.random())


class HostFaultInjector:
    """Seeded per-attempt interpreter of the ``job_*`` host-fault specs.

    The spec's ``[start_epoch, end_epoch)`` window selects job
    *indices*; ``rate`` is the per-attempt fire probability (1.0 fires
    without consuming a draw, mirroring the epoch injector). Unlike the
    epoch injector's sequential streams, every fire decision draws from
    a *stateless* stream derived from ``[seed, spec, job, attempt]`` —
    a job's faults depend only on its identity, never on which other
    jobs ran before it, which is what keeps a killed-and-resumed
    campaign byte-identical to an uninterrupted one.
    """

    def __init__(
        self,
        schedule: FaultSchedule,
        kinds: Tuple[str, ...] = HOST_FAULTS,
    ) -> None:
        """``kinds`` selects which spec kinds this injector interprets
        — the executor uses the default ``job_*`` set, while the store
        worker builds a second injector over
        :data:`~repro.faults.spec.STORE_FAULTS` to reuse the same
        stateless draw discipline for lease faults."""
        if not isinstance(schedule, FaultSchedule):
            raise FaultError(
                f"expected a FaultSchedule, got {type(schedule).__name__}"
            )
        self.schedule = schedule
        self._specs = [
            (index, spec)
            for index, spec in enumerate(schedule.specs)
            if spec.kind in kinds
        ]
        #: ``(job_index, kind)`` of every fault fired, for reporting.
        self.injected: List[Tuple[int, str]] = []

    def __bool__(self) -> bool:
        return bool(self._specs)

    def actions(
        self, job_index: int, attempt: int = 1
    ) -> List[Tuple[str, float]]:
        """Faults firing on this attempt: ``(kind, hang_seconds)`` pairs.

        A retried job gets fresh fire decisions (a transient crash can
        clear on retry; a rate-1.0 hang never does).
        """
        import numpy as np

        fired: List[Tuple[str, float]] = []
        for index, spec in self._specs:
            if not spec.applies_to(job_index):
                continue
            if spec.rate < 1.0:
                stream = (
                    [spec.seed, job_index, attempt]
                    if spec.seed is not None
                    else [self.schedule.seed, index, job_index, attempt]
                )
                draw = float(np.random.default_rng(stream).random())
                if draw >= spec.rate:
                    continue
            seconds = float(spec.params.get("seconds", 30.0))
            fired.append((spec.kind, seconds))
            self.injected.append((job_index, spec.kind))
        return fired

    def wrap(
        self,
        fn: Callable[[], object],
        job_index: int,
        attempt: int = 1,
    ) -> Callable[[], object]:
        """``fn`` with this attempt's host faults applied around it."""
        fired = self.actions(job_index, attempt)
        if not fired:
            return fn

        def faulted() -> object:
            for kind, seconds in fired:
                if kind == "job_hang":
                    time.sleep(seconds)
                elif kind == "job_oom":
                    # Memory-pressure abort: not retryable — the same
                    # job at the same scale would just OOM again, so
                    # the executor quarantines it immediately.
                    raise MemoryError(
                        f"injected job_oom (job {job_index})"
                    )
                else:  # job_crash
                    raise RetryableError(
                        f"injected job_crash (job {job_index})"
                    )
            return fn()

        return faulted
