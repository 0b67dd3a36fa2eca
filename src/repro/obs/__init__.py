"""Observability: structured tracing, metrics, trace reports.

``repro.obs`` sits below every other layer (stdlib-only, imports
nothing from the rest of the repository except the error types and
the lazy-import helper) and gives the runtime three capabilities:

* **Tracing** — :func:`recording` installs a :class:`TraceRecorder`
  whose :meth:`~repro.obs.trace.TraceRecorder.span` /
  :meth:`~repro.obs.trace.TraceRecorder.event` calls serialize to JSONL
  through a pluggable sink (ring buffer, file, null). Disabled tracing
  is a no-op fast path.
* **Metrics** — :mod:`repro.obs.metrics` holds the gauges the
  ``--metrics-out`` OpenMetrics exports are built from (read off a
  campaign ledger) and the bucket histogram behind trace-report's
  latency quantiles. There is no process-wide registry: what a run did
  is in its trace, what a campaign did is in its ledger.
* **Profiling** — :mod:`repro.obs.profile` attributes wall-clock to
  the instrumented components (kernel sim, forest inference, cache/
  power models, reconfig, ledger/sink I/O) via hierarchical spans;
  ``repro run/suite-run --profile`` and ``repro profile-report``.
* **Live campaigns** — :mod:`repro.obs.live` aggregates the runner's
  heartbeat records into progress/ETA/straggler status (``repro top``).
* **Reports** — :mod:`repro.obs.report` summarizes a recorded trace
  (epoch timeline, reconfiguration counts, policy verdicts,
  decision-latency histogram), backing the ``repro trace-report`` CLI
  command.
  :mod:`repro.obs.explain` renders the per-decision provenance records
  (``repro explain``) and :mod:`repro.obs.diff` aligns two traces
  epoch-by-epoch (``repro diff``).

Typical use::

    from repro import obs

    with obs.recording("run.jsonl"):
        runtime.spmspv(matrix, vector)

    print(obs.report.render(obs.report.summarize(obs.read_jsonl("run.jsonl"))))

See ``docs/observability.md`` for the trace schema and naming rules.
"""

from repro._lazy import lazy_attributes
from repro.obs import profile
from repro.obs.sinks import (
    FileSink,
    MemorySink,
    NullSink,
    TraceSink,
    atomic_writer,
    read_jsonl,
    write_atomic,
    write_jsonl,
)
from repro.obs.trace import (
    Span,
    TraceRecorder,
    get_recorder,
    install,
    recording,
)

__all__ = [
    "compare",
    "diff",
    "explain",
    "live",
    "metrics",
    "profile",
    "report",
    "TraceSink",
    "NullSink",
    "MemorySink",
    "FileSink",
    "atomic_writer",
    "read_jsonl",
    "write_atomic",
    "write_jsonl",
    "Span",
    "TraceRecorder",
    "get_recorder",
    "install",
    "recording",
]

# Tooling no job runs: imported on first use.
__getattr__ = lazy_attributes(
    __name__,
    globals(),
    {
        name: name
        for name in ("compare", "diff", "explain", "live", "metrics", "report")
    },
)
