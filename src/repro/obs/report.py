"""Trace analysis: summarize a recorded JSONL trace for humans.

``repro run --trace-out`` records a run; this module turns the
resulting record stream back into the views the paper's methodology
cares about:

* the per-epoch timeline (phase, configuration, modeled time/energy,
  reconfiguration markers);
* reconfiguration counts broken down by hardware parameter;
* policy verdicts counted by parameter, outcome and reason code;
* the host decision-latency histogram (counter read -> inference ->
  policy filter -> cost computation, per epoch);
* the top-k most expensive epochs by modeled time.

Everything operates on plain record dicts as produced by
:class:`~repro.obs.trace.TraceRecorder`, so traces survive process
boundaries and version drift degrades softly (missing attributes
render as blanks, never exceptions).
"""

from __future__ import annotations

import json
from collections import Counter as TallyCounter
from pathlib import Path
from typing import Dict, List, Sequence, Union

from repro.obs.metrics import Histogram
from repro.obs.sinks import read_jsonl
from repro.obs.trace import SCHEMA_VERSION

__all__ = [
    "SUPPORTED_SCHEMA_VERSIONS",
    "load_trace",
    "trace_schema_version",
    "check_schema",
    "summarize",
    "render",
    "ascii_histogram",
]

#: Trace schema versions this tooling knows how to read. Version 1
#: (PR 1, no header record) parses fine but lacks per-epoch config
#: values and provenance records.
SUPPORTED_SCHEMA_VERSIONS = (1, SCHEMA_VERSION)


def load_trace(path: Union[str, Path]) -> List[Dict]:
    """Load a JSONL trace recorded by ``repro run --trace-out``."""
    return read_jsonl(path)


def trace_schema_version(records: Sequence[Dict]) -> int:
    """Schema version stamped in the trace header (1 when absent)."""
    for record in records:
        if record.get("type") == "header" and record.get("name") == "trace":
            return int(_attrs(record).get("schema_version", 1))
    return 1


def check_schema(records: Sequence[Dict], origin: str = "trace") -> int:
    """Validate a loaded trace's schema version; returns the version.

    Raises :class:`ValueError` (the same class malformed JSONL raises,
    so CLI error paths stay uniform) when the trace is empty or was
    written by an unknown — presumably newer — schema.
    """
    if not records:
        raise ValueError(f"{origin} contains no records")
    version = trace_schema_version(records)
    if version not in SUPPORTED_SCHEMA_VERSIONS:
        supported = ", ".join(str(v) for v in SUPPORTED_SCHEMA_VERSIONS)
        raise ValueError(
            f"{origin} uses trace schema version {version}; this build "
            f"supports versions {supported}"
        )
    return version


def _attrs(record: Dict) -> Dict:
    return record.get("attrs", {}) or {}


def _named(records: Sequence[Dict], record_type: str, name: str) -> List[Dict]:
    return [
        r
        for r in records
        if r.get("type") == record_type and r.get("name") == name
    ]


def summarize(records: Sequence[Dict]) -> Dict:
    """Digest a record stream into a report-ready structure."""
    starts = _named(records, "event", "controller.start")
    run_info = dict(_attrs(starts[0])) if starts else {}

    epochs = []
    for span in _named(records, "span", "epoch"):
        attrs = _attrs(span)
        epochs.append(
            {
                "epoch": attrs.get("epoch"),
                "phase": attrs.get("phase", ""),
                "config": attrs.get("config", ""),
                "time_s": attrs.get("time_s"),
                "energy_j": attrs.get("energy_j"),
                "gflops": attrs.get("gflops"),
                "reconfig_time_s": attrs.get("reconfig_time_s", 0.0),
                "host_dur_s": span.get("dur_s"),
            }
        )
    epochs.sort(key=lambda e: (e["epoch"] is None, e["epoch"]))

    by_parameter: TallyCounter = TallyCounter()
    reconfigs = _named(records, "event", "reconfig")
    for event in reconfigs:
        for parameter in _attrs(event).get("changed", []):
            by_parameter[parameter] += 1

    decisions = _named(records, "event", "decision")
    latencies = [
        _attrs(d)["latency_s"]
        for d in decisions
        if _attrs(d).get("latency_s") is not None
    ]

    proposed = sum(len(_attrs(d).get("proposed", {})) for d in decisions)
    accepted = sum(len(_attrs(d).get("accepted", {})) for d in decisions)

    verdicts: TallyCounter = TallyCounter()
    for event in _named(records, "event", "provenance"):
        verdict = _attrs(event).get("verdict")
        if verdict:
            outcome = "accepted" if verdict.get("accepted") else "rejected"
            parameter, code = verdict.get("parameter"), verdict.get("code")
            verdicts[(str(parameter), outcome, str(code))] += 1

    offloads = [
        dict(_attrs(e)) for e in _named(records, "event", "runtime.offload")
    ]

    return {
        "n_records": len(records),
        "run": run_info,
        "epochs": epochs,
        "reconfigurations": {
            "total": len(reconfigs),
            "by_parameter": dict(
                sorted(by_parameter.items(), key=lambda kv: (-kv[1], kv[0]))
            ),
            "proposed_changes": proposed,
            "accepted_changes": accepted,
        },
        "policy_verdicts": [
            {"parameter": p, "verdict": v, "code": c, "count": n}
            for (p, v, c), n in sorted(verdicts.items())
        ],
        "decision_latencies_s": latencies,
        "offloads": offloads,
    }


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------
def ascii_histogram(
    values: Sequence[float],
    bins: int = 8,
    width: int = 40,
    unit_scale: float = 1e6,
    unit: str = "us",
) -> str:
    """Fixed-width text histogram of a value list (default: seconds→us)."""
    if not values:
        return "  (no samples)"
    scaled = [v * unit_scale for v in values]
    low, high = min(scaled), max(scaled)
    if high <= low:
        high = low + 1e-9
    step = (high - low) / bins
    counts = [0] * bins
    for value in scaled:
        index = min(int((value - low) / step), bins - 1)
        counts[index] += 1
    peak = max(counts)
    lines = []
    for i, count in enumerate(counts):
        lo, hi = low + i * step, low + (i + 1) * step
        bar = "#" * max(1 if count else 0, round(count / peak * width))
        lines.append(f"  [{lo:10.2f}, {hi:10.2f}) {unit} |{bar:<{width}} {count}")
    return "\n".join(lines)


def _fmt(value, spec: str = ".4g", fallback: str = "-") -> str:
    if value is None:
        return fallback
    try:
        return format(value, spec)
    except (TypeError, ValueError):
        return str(value)


def _fmt_us(seconds: float) -> str:
    """Microseconds with NaN spelled out (empty-histogram quantiles)."""
    if seconds != seconds:
        return "NaN"
    return f"{seconds * 1e6:.2f}"


def render(summary: Dict, top: int = 5, max_timeline_rows: int = 64) -> str:
    """Human-readable report of a summarized trace."""
    lines: List[str] = []
    run = summary.get("run", {})
    lines.append("=== trace report ===")
    lines.append(f"records: {summary.get('n_records', 0)}")
    if run:
        lines.append(
            "run: scheme={} trace={} mode={} policy={} epochs={}".format(
                run.get("scheme", "?"),
                run.get("trace", "?"),
                run.get("mode", "?"),
                run.get("policy", "?"),
                run.get("n_epochs", "?"),
            )
        )
        # The whole fault schedule (noise included), so the run can
        # be replayed from the trace alone.
        lines.append(f"determinism: faults={json.dumps(run.get('faults'))}")

    epochs = summary.get("epochs", [])
    lines.append("")
    lines.append(f"--- epoch timeline ({len(epochs)} epochs) ---")
    lines.append(
        f"{'epoch':>5} {'phase':<14} {'config':<40} "
        f"{'time_us':>10} {'gflops':>8}  reconfig"
    )
    shown = epochs
    truncated = 0
    if len(epochs) > max_timeline_rows:
        head = max_timeline_rows // 2
        shown = epochs[:head] + epochs[-(max_timeline_rows - head):]
        truncated = len(epochs) - len(shown)
    previous_index = None
    for epoch in shown:
        index = epoch["epoch"]
        if (
            truncated
            and previous_index is not None
            and index is not None
            and index != previous_index + 1
        ):
            lines.append(f"{'...':>5} ({truncated} epochs elided)")
        previous_index = index
        time_us = (
            _fmt(epoch["time_s"] * 1e6, ".2f")
            if epoch["time_s"] is not None
            else "-"
        )
        marker = ""
        if epoch.get("reconfig_time_s"):
            marker = f"* (+{epoch['reconfig_time_s'] * 1e6:.2f} us)"
        lines.append(
            f"{_fmt(index, 'd'):>5} {epoch['phase']:<14.14} "
            f"{epoch['config']:<40.40} {time_us:>10} "
            f"{_fmt(epoch['gflops'], '.3f'):>8}  {marker}"
        )

    reconfig = summary.get("reconfigurations", {})
    lines.append("")
    lines.append("--- reconfigurations by parameter ---")
    lines.append(
        "total transitions: {} (proposed parameter changes: {}, "
        "accepted: {})".format(
            reconfig.get("total", 0),
            reconfig.get("proposed_changes", 0),
            reconfig.get("accepted_changes", 0),
        )
    )
    by_parameter = reconfig.get("by_parameter", {})
    if by_parameter:
        peak = max(by_parameter.values())
        for parameter, count in by_parameter.items():
            bar = "#" * max(1, round(count / peak * 30))
            lines.append(f"  {parameter:<12} {count:>5} |{bar}")
    else:
        lines.append("  (none)")

    verdicts = summary.get("policy_verdicts", [])
    lines.append("")
    lines.append("--- policy verdicts ---")
    lines.append(f"  {'parameter':<12} {'verdict':<9} {'code':<16} count")
    for row in verdicts:
        lines.append(
            f"  {row['parameter']:<12} {row['verdict']:<9} "
            f"{row['code']:<16} {row['count']:>5}"
        )
    if not verdicts:
        lines.append("  (none)")

    latencies = summary.get("decision_latencies_s", [])
    lines.append("")
    lines.append(
        f"--- host decision latency ({len(latencies)} decisions) ---"
    )
    histogram = Histogram()
    for value in latencies:
        histogram.observe(value)
    # An empty histogram's quantiles are NaN; render them as such so
    # the quantile line is always present (and machine-greppable)
    # instead of silently disappearing for empty traces.
    p50, p90, p99 = histogram.quantiles((0.50, 0.90, 0.99))
    lines.append(
        "p50/p90/p99 (bucket-estimated): {} / {} / {} us".format(
            _fmt_us(p50), _fmt_us(p90), _fmt_us(p99)
        )
    )
    if latencies:
        lines.append(
            "min/max: {:.2f} / {:.2f} us".format(
                min(latencies) * 1e6, max(latencies) * 1e6
            )
        )
    lines.append(ascii_histogram(latencies))

    priced = [e for e in epochs if e.get("time_s") is not None]
    lines.append("")
    lines.append(f"--- top-{top} most expensive epochs (modeled time) ---")
    for epoch in sorted(priced, key=lambda e: -e["time_s"])[:top]:
        lines.append(
            "  epoch {:>4}  {:>10.2f} us  {:<14.14} {}".format(
                epoch["epoch"],
                epoch["time_s"] * 1e6,
                epoch["phase"],
                epoch["config"],
            )
        )
    if not priced:
        lines.append("  (no epoch spans found)")

    offloads = summary.get("offloads", [])
    if offloads:
        lines.append("")
        lines.append("--- kernel offloads ---")
        for off in offloads:
            lines.append(
                "  {} {} epochs={} gflops={} gflops/W={}".format(
                    off.get("kernel", "?"),
                    off.get("trace", ""),
                    off.get("n_epochs", "-"),
                    _fmt(off.get("gflops"), ".3f"),
                    _fmt(off.get("gflops_per_watt"), ".3f"),
                )
            )
    return "\n".join(lines)
