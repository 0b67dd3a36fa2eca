"""Cross-run trace comparison: align two traces epoch-by-epoch.

Two recorded runs of the same workload can disagree — different model,
different policy, telemetry noise, a code change. This module answers
*where* and *by how much*:

* the **first-divergence epoch**: the earliest epoch whose applied
  configuration differs between the runs;
* the **per-parameter divergence timeline**: which runtime parameters
  diverged at which epochs, and how often overall;
* the **counter deltas at the divergence point**: what the two
  controllers actually observed when their decisions split (taken from
  ``provenance`` records; a trace without them has no deltas);
* a **metric regression summary**: whole-run GFLOPS, GFLOPS/W and
  GFLOPS^3/W for both runs and the relative change, reconstructed from
  the per-epoch spans (host decision overhead is not in the trace, so
  totals are the modeled epoch+reconfiguration sums).

Everything operates on plain record dicts (stdlib only), mirroring
:mod:`repro.obs.report`. Per-epoch configuration values require trace
schema version 2 (``config_values`` on epoch spans); older traces are
rejected with a :class:`ValueError` naming the problem.
"""

from __future__ import annotations

import json
from collections import Counter as TallyCounter
from typing import Dict, List, Optional, Sequence

__all__ = ["diff_traces", "render_diff"]


def _attrs(record: Dict) -> Dict:
    return record.get("attrs", {}) or {}


def _epoch_spans(records: Sequence[Dict]) -> Dict[int, Dict]:
    """Epoch index -> span attrs, for spans that carry an epoch."""
    out: Dict[int, Dict] = {}
    for record in records:
        if record.get("type") == "span" and record.get("name") == "epoch":
            attrs = _attrs(record)
            epoch = attrs.get("epoch")
            if epoch is not None:
                out[int(epoch)] = attrs
    return out


def _run_info(records: Sequence[Dict]) -> Dict:
    for record in records:
        if (
            record.get("type") == "event"
            and record.get("name") == "controller.start"
        ):
            return dict(_attrs(record))
    return {}


def _epoch_counters(records: Sequence[Dict], epoch: int) -> Optional[Dict]:
    """Observed counter values at one epoch.

    The ``counters_observed`` payload of a ``provenance`` record: what
    the model actually consumed, including telemetry noise.
    """
    for record in records:
        if record.get("name") != "provenance":
            continue
        attrs = _attrs(record)
        if attrs.get("epoch") == epoch:
            observed = attrs.get("counters_observed")
            if isinstance(observed, dict):
                return observed
    return None


def _config_values(span_attrs: Dict, origin: str, epoch: int) -> Dict:
    values = span_attrs.get("config_values")
    if not isinstance(values, dict):
        raise ValueError(
            f"{origin} has no per-epoch configuration values at epoch "
            f"{epoch} (schema version 1 trace?); re-record it with this "
            f"build to diff configurations"
        )
    return values


def _totals(spans: Dict[int, Dict]) -> Dict[str, float]:
    """Whole-run metrics reconstructed from the epoch spans."""
    time_s = 0.0
    energy_j = 0.0
    flops = 0.0
    for attrs in spans.values():
        epoch_time = float(attrs.get("time_s") or 0.0)
        time_s += epoch_time + float(attrs.get("reconfig_time_s") or 0.0)
        energy_j += float(attrs.get("energy_j") or 0.0)
        flops += float(attrs.get("gflops") or 0.0) * 1e9 * epoch_time
    gflops = flops / time_s / 1e9 if time_s > 0 else 0.0
    watts = energy_j / time_s if time_s > 0 else 0.0
    return {
        "time_s": time_s,
        "energy_j": energy_j,
        "gflops": gflops,
        "gflops_per_watt": flops / energy_j / 1e9 if energy_j > 0 else 0.0,
        "gflops3_per_watt": gflops**3 / watts if watts > 0 else 0.0,
    }


def _relative_change(before: float, after: float) -> Optional[float]:
    if before == 0:
        return None
    return (after - before) / before * 100.0


def diff_traces(
    records_a: Sequence[Dict],
    records_b: Sequence[Dict],
    label_a: str = "A",
    label_b: str = "B",
) -> Dict:
    """Structured comparison of two recorded runs.

    Both traces must carry per-epoch ``config_values`` (schema
    version 2); epochs present in only one trace are reported via
    ``epoch_counts`` but not compared.
    """
    spans_a = _epoch_spans(records_a)
    spans_b = _epoch_spans(records_b)
    if not spans_a or not spans_b:
        which = label_a if not spans_a else label_b
        raise ValueError(f"{which} contains no epoch spans to compare")
    shared = sorted(set(spans_a) & set(spans_b))

    first_divergence: Optional[int] = None
    parameter_counts: TallyCounter = TallyCounter()
    timeline: List[Dict] = []
    for epoch in shared:
        values_a = _config_values(spans_a[epoch], label_a, epoch)
        values_b = _config_values(spans_b[epoch], label_b, epoch)
        divergent = {
            name: {"a": values_a[name], "b": values_b.get(name)}
            for name in values_a
            if values_a[name] != values_b.get(name)
        }
        if not divergent:
            continue
        if first_divergence is None:
            first_divergence = epoch
        parameter_counts.update(divergent.keys())
        timeline.append({"epoch": epoch, "params": divergent})

    counters_delta = None
    if first_divergence is not None:
        counters_a = _epoch_counters(records_a, first_divergence)
        counters_b = _epoch_counters(records_b, first_divergence)
        if counters_a and counters_b:
            counters_delta = {
                name: {
                    "a": counters_a[name],
                    "b": counters_b[name],
                    "delta": counters_b[name] - counters_a[name],
                }
                for name in sorted(set(counters_a) & set(counters_b))
            }

    totals_a = _totals(spans_a)
    totals_b = _totals(spans_b)
    return {
        "a": {
            "label": label_a,
            "n_epochs": len(spans_a),
            "run": _run_info(records_a),
        },
        "b": {
            "label": label_b,
            "n_epochs": len(spans_b),
            "run": _run_info(records_b),
        },
        "n_compared": len(shared),
        "epoch_counts_match": len(spans_a) == len(spans_b),
        "first_divergence_epoch": first_divergence,
        "divergence": {
            "n_divergent_epochs": len(timeline),
            "parameter_counts": dict(
                sorted(
                    parameter_counts.items(), key=lambda kv: (-kv[1], kv[0])
                )
            ),
            "timeline": timeline,
        },
        "counters_at_divergence": counters_delta,
        "metrics": {
            "a": totals_a,
            "b": totals_b,
            "regression_pct": {
                key: _relative_change(totals_a[key], totals_b[key])
                for key in ("gflops", "gflops_per_watt", "gflops3_per_watt")
            },
        },
    }


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------
def _fmt(value, spec: str = ".4g", fallback: str = "-") -> str:
    if value is None:
        return fallback
    try:
        return format(value, spec)
    except (TypeError, ValueError):
        return str(value)


def render_diff(diff: Dict, max_timeline_rows: int = 24) -> str:
    """Human-readable report of a :func:`diff_traces` result."""
    lines: List[str] = []
    a, b = diff["a"], diff["b"]
    lines.append("=== trace diff ===")
    for side in (a, b):
        run = side.get("run", {})
        lines.append(
            "{}: trace={} scheme={} policy={} epochs={} faults={}".format(
                side["label"],
                run.get("trace", "?"),
                run.get("scheme", "?"),
                run.get("policy", "?"),
                side["n_epochs"],
                json.dumps(run.get("faults")),
            )
        )
    if not diff["epoch_counts_match"]:
        lines.append(
            "warning: epoch counts differ; only the "
            f"{diff['n_compared']} shared epochs are compared"
        )

    lines.append("")
    first = diff["first_divergence_epoch"]
    divergence = diff["divergence"]
    if first is None:
        lines.append(
            f"configurations identical across all {diff['n_compared']} "
            "compared epochs"
        )
    else:
        lines.append(f"first divergence: epoch {first}")
        lines.append(
            "divergent epochs: {} of {}".format(
                divergence["n_divergent_epochs"], diff["n_compared"]
            )
        )
        lines.append("--- per-parameter divergence ---")
        counts = divergence["parameter_counts"]
        peak = max(counts.values())
        for parameter, count in counts.items():
            bar = "#" * max(1, round(count / peak * 30))
            lines.append(f"  {parameter:<12} {count:>5} epochs |{bar}")
        lines.append("--- divergence timeline ---")
        shown = divergence["timeline"][:max_timeline_rows]
        for entry in shown:
            changes = ", ".join(
                "{}: {} vs {}".format(name, pair["a"], pair["b"])
                for name, pair in sorted(entry["params"].items())
            )
            lines.append(f"  epoch {entry['epoch']:>4}  {changes}")
        elided = divergence["n_divergent_epochs"] - len(shown)
        if elided > 0:
            lines.append(f"  ... ({elided} divergent epochs elided)")

        counters = diff.get("counters_at_divergence")
        lines.append("")
        lines.append(
            f"--- counter deltas at divergence (epoch {first}) ---"
        )
        if counters:
            for name, entry in counters.items():
                if entry["delta"] == 0:
                    continue
                lines.append(
                    "  {:<24} {:>12} -> {:>12} (delta {:+.4g})".format(
                        name,
                        _fmt(entry["a"]),
                        _fmt(entry["b"]),
                        entry["delta"],
                    )
                )
        else:
            lines.append("  (no counter records at the divergence epoch)")

    lines.append("")
    lines.append("--- whole-run metrics (modeled, from epoch spans) ---")
    metrics = diff["metrics"]
    lines.append(
        f"{'metric':<18} {a['label']:>12} {b['label']:>12} {'change':>9}"
    )
    for key in ("gflops", "gflops_per_watt", "gflops3_per_watt"):
        change = metrics["regression_pct"][key]
        lines.append(
            "{:<18} {:>12} {:>12} {:>8}%".format(
                key,
                _fmt(metrics["a"][key]),
                _fmt(metrics["b"][key]),
                _fmt(change, "+.2f"),
            )
        )
    for key in ("time_s", "energy_j"):
        lines.append(
            "{:<18} {:>12} {:>12}".format(
                key, _fmt(metrics["a"][key]), _fmt(metrics["b"][key])
            )
        )
    return "\n".join(lines)
