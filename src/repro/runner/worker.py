"""Portable job descriptions: the unit that crosses a process boundary.

Parallel campaigns cannot ship closures to child processes or other
hosts, so the unit a store registers and a worker claims is a
:class:`PortableJob`: a JSON-native description (kind + payload) that
each worker rebuilds into a live :class:`~repro.runner.executor.Job`
with :func:`build_job`. Three kinds exist:

* ``evaluate`` — the scientific workload: a
  :class:`~repro.runner.plan.JobSpec` dict, evaluated through the
  experiment harness exactly as a serial ``repro suite-run`` would;
* ``sleep`` — a deterministic timed job (tests and the workers-speedup
  benchmark use it to measure scheduling without compute noise);
* ``fail`` — a job that raises a chosen error (adversarial tests of
  the quarantine/retry taxonomy across process boundaries).

Workers execute the rebuilt jobs under the standard
:class:`~repro.runner.executor.SuiteRunner` supervision — see
:func:`repro.runner.store.run_store_worker`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.errors import ConfigError, RetryableError

__all__ = ["PortableJob", "build_job", "plan_portable_jobs"]

#: Portable job kinds the worker can rebuild.
PORTABLE_KINDS = ("evaluate", "sleep", "fail")


@dataclass(frozen=True)
class PortableJob:
    """A job description that survives pickling across processes."""

    kind: str
    key: str
    label: str
    index: int
    payload: Dict[str, object] = field(default_factory=dict)
    deadline_s: Optional[float] = None
    meta: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in PORTABLE_KINDS:
            raise ConfigError(
                f"unknown portable job kind {self.kind!r} "
                f"(expected one of {', '.join(PORTABLE_KINDS)})"
            )

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "key": self.key,
            "label": self.label,
            "index": self.index,
            "payload": dict(self.payload),
            "deadline_s": self.deadline_s,
            "meta": dict(self.meta),
        }

    @staticmethod
    def from_dict(raw: dict) -> "PortableJob":
        return PortableJob(
            kind=raw["kind"],
            key=raw["key"],
            label=raw["label"],
            index=raw["index"],
            payload=dict(raw.get("payload", {})),
            deadline_s=raw.get("deadline_s"),
            meta=dict(raw.get("meta", {})),
        )


# ---------------------------------------------------------------------------
def _evaluate_fn(payload: dict) -> Callable[[], dict]:
    """The job body of one plan entry: decode the :class:`JobSpec`
    payload (revalidated on the worker side) into its evaluation
    context, evaluate, and summarize each scheme as one row entry.
    Identical to what the serial runner executes."""

    def fn() -> dict:
        from repro.experiments.harness import (
            evaluate_schemes,
            gains_over,
            job_context,
            oracle_regret,
        )
        from repro.obs import profile as obs_profile
        from repro.runner.plan import JobSpec

        spec = JobSpec.from_dict(payload)
        # One root frame per evaluate job, so every instrumented
        # component below (trace building, schemes, kernel sim, ...)
        # nests under it in the campaign flamegraph.
        with obs_profile.span("evaluate_job"):
            context = job_context(spec)
            results = evaluate_schemes(context, spec.schemes)
            gains = gains_over(results)
            table = None
            if spec.regret:
                from repro.baselines import EpochTable

                with obs_profile.span("epoch_table"):
                    table = EpochTable(
                        context.machine,
                        context.trace,
                        n_samples=context.n_samples,
                        l1_type=context.l1_type,
                        seed=context.seed,
                        include=list(context.static_points().values()),
                    )
        schemes: Dict[str, dict] = {}
        for name, values in gains.items():
            schedule = results[name]
            entry = {
                metric: float(value) for metric, value in values.items()
            }
            total = schedule.totals()
            entry["time_s"] = float(total.time_s)
            entry["energy_j"] = float(total.energy_j)
            entry["edp_js"] = float(total.energy_j * total.time_s)
            entry["avg_power_w"] = float(total.average_power_w)
            entry["reconfigurations"] = int(schedule.n_reconfigurations)
            if schedule.fault_stats is not None:
                entry["fault_stats"] = dict(schedule.fault_stats)
            if table is not None:
                regret = oracle_regret(schedule, table, context.mode)
                entry["oracle_regret_pct"] = float(regret["regret_pct"])
            schemes[name] = entry
        return {"n_epochs": int(context.trace.n_epochs), "schemes": schemes}

    return fn


def _sleep_fn(payload: dict) -> Callable[[], dict]:
    seconds = float(payload.get("seconds", 0.0))
    value = payload.get("value", 0)

    def fn() -> dict:
        if seconds > 0:
            time.sleep(seconds)
        return {"value": value}

    return fn


def _fail_fn(payload: dict) -> Callable[[], dict]:
    message = str(payload.get("error", "injected failure"))
    retryable = bool(payload.get("retryable", False))
    #: Attempts that fail before the job starts succeeding (0 = always).
    fail_attempts = payload.get("fail_attempts")
    state = {"calls": 0}

    def fn() -> dict:
        state["calls"] += 1
        if fail_attempts is None or state["calls"] <= int(fail_attempts):
            if retryable:
                raise RetryableError(message)
            raise ValueError(message)
        return {"value": payload.get("value", 0)}

    return fn


_BUILDERS: Dict[str, Callable[[dict], Callable[[], dict]]] = {
    "evaluate": _evaluate_fn,
    "sleep": _sleep_fn,
    "fail": _fail_fn,
}


def build_job(portable: PortableJob):
    """Rebuild a live :class:`Job` from its portable description."""
    from repro.runner.executor import Job

    return Job(
        key=portable.key,
        label=portable.label,
        fn=_BUILDERS[portable.kind](dict(portable.payload)),
        index=portable.index,
        deadline_s=portable.deadline_s,
        meta=dict(portable.meta),
    )


def plan_portable_jobs(plan) -> List[PortableJob]:
    """Every job of a :class:`CampaignPlan` as portable descriptions."""
    return [
        PortableJob(
            kind="evaluate",
            key=spec.key(),
            label=spec.label(),
            index=index,
            payload=spec.as_dict(),
            deadline_s=spec.deadline_s,
            meta=_job_meta(spec),
        )
        for index, spec in enumerate(plan.jobs)
    ]


def _job_meta(spec) -> Dict[str, object]:
    """Ledger-row metadata for one plan entry. Spec-compiled jobs carry
    their candidate/workload/seed identity (``repro compare`` groups
    rows by these); plain plans keep the historical three keys so their
    ledger bytes are unchanged."""
    meta: Dict[str, object] = {
        "kernel": spec.kernel,
        "matrix": spec.matrix,
        "mode": spec.mode,
    }
    if spec.candidate is not None:
        meta["candidate"] = spec.candidate
        meta["workload"] = spec.workload or spec.matrix
        meta["seed"] = spec.seed
        meta["scheme"] = spec.candidate_scheme
    return meta
