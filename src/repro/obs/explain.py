"""Decision provenance: explain why a reconfiguration happened.

Answers, from a recorded trace alone, the question every bad
reconfiguration raises: *which counter crossed which threshold, and
why did the policy let the change through?* Input is the ``provenance``
records the controller emits (one per epoch and runtime parameter,
trace schema version 2); each carries the decision-tree path that
produced the proposal, the raw and noise-perturbed counter values the
model read, and the hysteresis policy's accept/reject verdict with its
cost-vs-budget numbers.

:func:`explain` returns the matching records structured per epoch;
:func:`render_explanation` turns them into the human-readable view the
``repro explain`` CLI verb prints::

    epoch 12 · l1_kb: 16 -> 64 (margin 0.83)
      [depth 0] l1_miss_rate = 0.3100 > threshold 0.2400 -> right
      [depth 1] dram_read_util = 0.8800 <= threshold 0.9100 -> left
      => leaf predicts 64 (41 training samples)
      verdict: ACCEPTED — applied l1_kb: cost 1.200e-06 s <= budget ...

Stdlib-only, like the rest of the trace tooling; traces without
provenance records (schema version 1, or recorded with tracing off)
are rejected with a :class:`ValueError` naming the problem.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "explain",
    "render_explanation",
    "render_divergence_explanation",
]


def _attrs(record: Dict) -> Dict:
    return record.get("attrs", {}) or {}


def _provenance_records(
    records: Sequence[Dict],
    epoch: Optional[int] = None,
    parameter: Optional[str] = None,
) -> List[Dict]:
    out = []
    for record in records:
        if record.get("type") != "event" or record.get("name") != "provenance":
            continue
        attrs = _attrs(record)
        if epoch is not None and attrs.get("epoch") != epoch:
            continue
        if parameter is not None and attrs.get("parameter") != parameter:
            continue
        out.append(attrs)
    out.sort(key=lambda a: (a.get("epoch", 0), a.get("parameter", "")))
    return out


def explain(
    records: Sequence[Dict],
    epoch: Optional[int] = None,
    parameter: Optional[str] = None,
) -> Dict:
    """Provenance records grouped by epoch, after optional filtering.

    With no ``epoch`` given, defaults to the epochs where the model
    proposed at least one change (the interesting ones); pass an
    explicit epoch to inspect a quiet one. Raises :class:`ValueError`
    when the trace carries no provenance at all, or nothing matches
    the filters.
    """
    everything = _provenance_records(records)
    if not everything:
        raise ValueError(
            "trace contains no provenance records (recorded by an older "
            "build, or with tracing disabled); re-record it with "
            "'repro trace' from this build"
        )
    selected = _provenance_records(records, epoch, parameter)
    if not selected:
        where = []
        if epoch is not None:
            where.append(f"epoch {epoch}")
        if parameter is not None:
            where.append(f"parameter {parameter!r}")
        raise ValueError(
            f"no provenance records match {' and '.join(where)}"
        )
    if epoch is None:
        proposing = sorted(
            {
                a["epoch"]
                for a in selected
                if a.get("predicted") != a.get("current")
            }
        )
        if proposing:
            selected = [a for a in selected if a["epoch"] in proposing]
    by_epoch: Dict[int, List[Dict]] = {}
    for attrs in selected:
        by_epoch.setdefault(attrs["epoch"], []).append(attrs)
    return {
        "n_provenance_records": len(everything),
        "epochs": by_epoch,
    }


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------
def _fmt_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def _render_record(attrs: Dict, lines: List[str]) -> None:
    current = attrs.get("current")
    predicted = attrs.get("predicted")
    margin = attrs.get("margin")
    head = "epoch {} · {}: ".format(
        attrs.get("epoch", "?"), attrs.get("parameter", "?")
    )
    if predicted == current:
        head += f"{_fmt_value(current)} (unchanged"
    else:
        head += f"{_fmt_value(current)} -> {_fmt_value(predicted)} (proposed"
    if margin is not None:
        head += f"; margin {margin:.2f}"
    head += ")"
    if attrs.get("kind") not in (None, "tree"):
        head += f" [{attrs['kind']}]"
    lines.append(head)

    path = attrs.get("path")
    if path:
        for step in path:
            went = "right" if step["direction"] == "gt" else "left"
            relation = ">" if step["direction"] == "gt" else "<="
            lines.append(
                "  [depth {}] {} = {} {} threshold {} -> {}".format(
                    step["depth"],
                    step["feature"],
                    _fmt_value(step["value"]),
                    relation,
                    _fmt_value(step["threshold"]),
                    went,
                )
            )
    else:
        lines.append("  (single-leaf tree: no split before the leaf)")
    leaf = attrs.get("leaf")
    if leaf:
        lines.append(
            "  => leaf predicts {} ({} training samples)".format(
                _fmt_value(leaf.get("prediction")), leaf.get("n_samples", "?")
            )
        )

    verdict = attrs.get("verdict")
    if verdict:
        status = "ACCEPTED" if verdict.get("accepted") else "REJECTED"
        lines.append(f"  verdict: {status} — {verdict.get('reason', '')}")
    elif predicted != current:
        lines.append("  verdict: (none recorded)")


def render_explanation(
    records: Sequence[Dict],
    epoch: Optional[int] = None,
    parameter: Optional[str] = None,
    show_counters: bool = False,
) -> str:
    """Human-readable provenance for the ``repro explain`` verb."""
    explanation = explain(records, epoch, parameter)
    lines: List[str] = ["=== decision provenance ==="]
    if epoch is None:
        lines.append(
            "showing epochs with proposed changes "
            "(pass --epoch N for any specific epoch)"
        )
    for index in sorted(explanation["epochs"]):
        group = explanation["epochs"][index]
        lines.append("")
        for attrs in group:
            _render_record(attrs, lines)
        if show_counters:
            observed = group[0].get("counters_observed") or {}
            raw = group[0].get("counters_raw") or {}
            if observed:
                lines.append("  observed counters (model input):")
                for name in sorted(observed):
                    note = ""
                    if name in raw and raw[name] != observed[name]:
                        note = f"  (raw {_fmt_value(raw[name])})"
                    lines.append(
                        f"    {name:<24} {_fmt_value(observed[name])}{note}"
                    )
    return "\n".join(lines)


def render_divergence_explanation(
    records_a: Sequence[Dict],
    records_b: Sequence[Dict],
    label_a: str = "A",
    label_b: str = "B",
    parameter: Optional[str] = None,
    show_counters: bool = False,
) -> Tuple[str, Optional[int]]:
    """Explain both runs' decisions at their first divergence epoch.

    Aligns the two traces with :func:`repro.obs.diff.diff_traces`,
    then renders each side's provenance at the earliest epoch whose
    applied configuration differs — the decision every "why did these
    two runs split?" investigation starts from. Returns the rendered
    text and the first-divergence epoch (``None`` when the runs are
    identical, which callers map to exit 0 instead of 3). Raises
    :class:`ValueError` like :func:`diff_traces` for traces without
    comparable epochs.
    """
    from repro.obs.diff import diff_traces

    diff = diff_traces(records_a, records_b, label_a=label_a, label_b=label_b)
    first = diff["first_divergence_epoch"]
    if first is None:
        return (
            "configurations identical across all "
            f"{diff['n_compared']} compared epochs; nothing to explain",
            None,
        )
    divergence = diff["divergence"]
    split = ", ".join(sorted(divergence["timeline"][0]["params"]))
    lines = [
        f"first divergence: epoch {first} ({split}); "
        f"{divergence['n_divergent_epochs']} of {diff['n_compared']} "
        "compared epochs differ"
    ]
    for label, records in ((label_a, records_a), (label_b, records_b)):
        lines.append("")
        lines.append(f"--- {label}: decisions at epoch {first} ---")
        try:
            lines.append(
                render_explanation(
                    records,
                    epoch=first,
                    parameter=parameter,
                    show_counters=show_counters,
                )
            )
        except ValueError as exc:
            # One side recorded without provenance: still report the
            # divergence itself rather than failing the whole verb.
            lines.append(f"(no matching provenance: {exc})")
    return "\n".join(lines), first
