"""Layer spans recorded from outside the program.

The benchmark never installs a ``repro.obs`` recorder: doing so turns
``fastpath.batch_active()`` off and bypasses the controller's decision
memo, so a traced run would time the scalar reference path instead of
the code users run. Instead :func:`install` replaces the public
functions of each layer *where their callers look them up* with thin
wrappers that time the call, and restores the originals afterwards.

Spans are aggregated in memory per name (calls, total time, self time).
A span's self time is its duration minus the time of the spans nested
directly inside it, so self times add up to the traced wall time with
nothing counted twice. Only the main thread is timed; the store's
lease-renewal thread calls straight through.
"""

from __future__ import annotations

import dataclasses
import functools
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple


class Tracer:
    """In-memory span aggregator with a per-name (calls, total, self)."""

    def __init__(self) -> None:
        self.stats: Dict[str, List[float]] = {}
        #: Outcome counters: ``name -> [attempts, successes]``.
        self.outcomes: Dict[str, List[int]] = {}
        self._stack: List[List[float]] = []
        self._main = threading.get_ident()

    def calls(self, name: str) -> int:
        return int(self.stats.get(name, (0,))[0])

    def _close(self, name: str, frame: List[float], elapsed: float) -> None:
        entry = self.stats.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += elapsed
        entry[2] += elapsed - frame[0]
        if self._stack:
            self._stack[-1][0] += elapsed

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own call into a layer."""
        frame = [0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            self._close(name, frame, elapsed)

    def wrap(
        self,
        name: str,
        fn: Callable,
        outcome: Optional[Callable[[object], bool]] = None,
        reaches: Optional[str] = None,
    ) -> Callable:
        """``fn`` timed as span ``name``.

        ``outcome(result)`` counts a success per call; ``reaches`` counts
        a success when the call did *not* reach span ``reaches`` (a cache
        hit that never got to the expensive layer below).
        """
        stack = self._stack
        close = self._close
        main = self._main

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != main:
                return fn(*args, **kwargs)
            before = self.calls(reaches) if reaches else 0
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                close(name, frame, elapsed)
            if outcome is not None or reaches:
                counts = self.outcomes.setdefault(name, [0, 0])
                counts[0] += 1
                if outcome is not None:
                    counts[1] += bool(outcome(result))
                else:
                    counts[1] += self.calls(reaches) == before
            return result

        return wrapper

    def dump(self) -> dict:
        return {"stats": self.stats, "outcomes": self.outcomes}


_INHERITED = object()


class _Patches:
    """Attribute replacements, undone in reverse order by :meth:`undo`.

    The raw attribute (a ``classmethod`` descriptor, not the bound
    method ``getattr`` returns) is what gets restored.
    """

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, vars(owner).get(attr, _INHERITED)))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            if value is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)


class _SleepTimer:
    """Stand-in for the ``time`` module inside ``repro.runner.store``:
    ``sleep`` (the worker's idle poll) is a span, the rest delegates."""

    def __init__(self, sleep: Callable) -> None:
        self.sleep = sleep

    def __getattr__(self, name):
        return getattr(time, name)


def _job_fn_wrapper(build_job: Callable, wrap_fn: Callable) -> Callable:
    """``build_job`` whose returned job runs ``wrap_fn(job.fn)``."""

    @functools.wraps(build_job)
    def wrapper(portable):
        job = build_job(portable)
        return dataclasses.replace(job, fn=wrap_fn(job.fn))

    return wrapper


class FirstResult:
    """Monotonic time at which the first job body of this process
    returned, i.e. the moment its first terminal row is written."""

    def __init__(self) -> None:
        self.at: Optional[float] = None

    def wrap(self, fn: Callable) -> Callable:
        def probed():
            result = fn()
            if self.at is None:
                self.at = time.monotonic()
            return result

        return probed


def install(
    tracer: Optional[Tracer], first: FirstResult
) -> Callable[[], None]:
    """Wrap every layer boundary; returns the function that unwraps.

    Without a tracer only the first-result probe is installed: one extra
    call per job, the whole footprint of an untraced run.
    """
    from repro.runner import executor, store

    patches = _Patches()
    if tracer is None:
        job_fn = first.wrap
    else:
        # The job body: everything of a job outside the spans below.
        def job_fn(fn):
            return tracer.wrap("harness.job", first.wrap(fn))

    for module in (executor, store):
        patches.set(
            module, "build_job", _job_fn_wrapper(module.build_job, job_fn)
        )
    if tracer is None:
        return patches.undo

    from repro.baselines import table as baselines_table
    from repro.core import controller as core_controller
    from repro.core import training as core_training
    from repro.core.controller import SparseAdaptController
    from repro.core.model import SparseAdaptModel
    from repro.experiments import harness
    from repro.runner.executor import SuiteRunner
    from repro.runner.lease import LeaseManager
    from repro.runner.ledger import RunLedger
    from repro.runner.store import ExperimentStore
    from repro.sparse import suite
    from repro.transmuter import reconfig

    wrap = tracer.wrap

    def patch(owner, attr: str, name: str, **kwargs) -> None:
        patches.set(owner, attr, wrap(name, getattr(owner, attr), **kwargs))

    # Inputs and trace synthesis.
    patch(suite, "load", "sparse.load")
    patch(harness, "build_trace", "kernels.build_trace", reaches="sparse.load")
    patch(harness, "trace_spmspm", "kernels.trace")
    patch(harness, "trace_spmspv", "kernels.trace")
    # Stock-model training: the Table-3 sweep, then the CART fit.
    patch(
        harness,
        "train_default_model",
        "ml.default_model",
        reaches="ml.train_model",
    )
    patch(core_training, "table3_phases", "dataset.sweep")
    patch(core_training, "build_training_set", "dataset.sweep")
    patch(core_training, "train_model", "ml.train_model")
    # Schemes.
    patch(harness, "evaluate_schemes", "harness.evaluate")
    patch(harness, "EpochTable", "baselines.table")
    patch(harness, "run_static", "baselines.static")
    for attr in ("ideal_static", "ideal_greedy", "oracle", "profile_adapt"):
        patch(harness, attr, "baselines.search")
    patch(SparseAdaptController, "run", "controller.run")
    patch(SparseAdaptModel, "predict", "controller.predict")
    for module in (baselines_table, core_controller, reconfig):
        patch(module, "reconfiguration_cost", "reconfig.cost")
    # Runner: supervision, the durable ledger, and the store fabric.
    patch(SuiteRunner, "run", "runner.supervise")
    patch(SuiteRunner, "run_single", "runner.supervise")
    for attr in (
        "__init__",
        "job_started",
        "job_retried",
        "job_done",
        "job_quarantined",
        "append_merge_record",
        "heartbeat",
        "close",
    ):
        patch(RunLedger, attr, "runner.ledger")
    for attr in ("try_claim", "reclaim"):
        patch(
            LeaseManager,
            attr,
            "runner.lease",
            outcome=lambda lease: lease is not None,
        )
    for attr in ("renew", "release", "read"):
        patch(LeaseManager, attr, "runner.lease")
    for attr in ("open_entries", "has_result", "terminal_row"):
        patch(ExperimentStore, attr, "runner.store.scan")
    patch(ExperimentStore, "publish", "runner.store.publish", outcome=bool)
    patch(ExperimentStore, "finalize", "runner.store.finalize")
    patches.set(
        store, "time", _SleepTimer(wrap("runner.store.idle", time.sleep))
    )
    return patches.undo


# ---------------------------------------------------------------------------
# Layer metrics
# ---------------------------------------------------------------------------
#: Per-layer self-time metrics: metric -> the span names it sums.
SELF_TIME_METRICS: Dict[str, Tuple[str, ...]] = {
    "sparse.load_s": ("sparse.load",),
    "kernels.trace_s": ("kernels.build_trace", "kernels.trace"),
    "dataset.sweep_s": ("dataset.sweep",),
    "ml.fit_s": ("ml.train_model", "ml.default_model"),
    "baselines.table_s": ("baselines.table",),
    "baselines.static_s": ("baselines.static",),
    "baselines.search_s": ("baselines.search",),
    "controller.run_s": ("controller.run",),
    "controller.predict_s": ("controller.predict",),
    "reconfig.cost_s": ("reconfig.cost",),
    "harness.evaluate_s": ("harness.evaluate", "harness.job"),
    "runner.supervise_s": ("runner.supervise",),
    "runner.ledger_s": ("runner.ledger",),
    "runner.store.scan_s": ("runner.store.scan",),
    "runner.lease_s": ("runner.lease",),
    "runner.store.publish_s": ("runner.store.publish",),
    "runner.store.finalize_s": ("runner.store.finalize",),
    "runner.store.idle_s": ("runner.store.idle",),
}

#: Call-count metrics: metric -> span name.
CALL_METRICS: Dict[str, str] = {
    "sparse.load_calls": "sparse.load",
    "kernels.trace_calls": "kernels.trace",
    "ml.fit_calls": "ml.train_model",
    "controller.predict_calls": "controller.predict",
    "reconfig.cost_calls": "reconfig.cost",
}

#: Ratio metrics: metric -> the span whose outcome counter it reads.
RATIO_METRICS: Dict[str, str] = {
    "kernels.trace_cache_hit_ratio": "kernels.build_trace",
    "training.cache_hit_ratio": "ml.default_model",
    "runner.lease.claim_ok_ratio": "runner.lease",
    "runner.store.publish_won_ratio": "runner.store.publish",
}


def merge_dumps(dumps: List[dict]) -> dict:
    """Sum several :meth:`Tracer.dump` results (processes or passes)."""
    stats: Dict[str, List[float]] = {}
    outcomes: Dict[str, List[int]] = {}
    for dump in dumps:
        for name, values in dump["stats"].items():
            entry = stats.setdefault(name, [0, 0.0, 0.0])
            for i, value in enumerate(values):
                entry[i] += value
        for name, values in dump["outcomes"].items():
            entry = outcomes.setdefault(name, [0, 0])
            for i, value in enumerate(values):
                entry[i] += value
    return {"stats": stats, "outcomes": outcomes}


def layer_metrics(merged: dict, n_campaigns: int) -> Dict[str, float]:
    """Per-campaign layer metrics from a merged dump of ``n_campaigns``
    traced campaigns (times and counts are averaged, ratios pooled)."""
    stats = merged["stats"]
    out: Dict[str, float] = {}
    for metric, names in SELF_TIME_METRICS.items():
        out[metric] = (
            sum(stats.get(name, (0, 0.0, 0.0))[2] for name in names)
            / n_campaigns
        )
    for metric, name in CALL_METRICS.items():
        out[metric] = stats.get(name, (0,))[0] / n_campaigns
    for metric, name in RATIO_METRICS.items():
        attempts, wins = merged["outcomes"].get(name, (0, 0))
        out[metric] = wins / attempts if attempts else 0.0
    return out


def ratio_bases(merged: dict) -> Dict[str, int]:
    """The attempt count behind each ratio metric."""
    return {
        metric: merged["outcomes"].get(name, (0, 0))[0]
        for metric, name in RATIO_METRICS.items()
    }


def total_self(merged: dict) -> float:
    return sum(values[2] for values in merged["stats"].values())
