"""Multi-candidate comparison: scrape, tabulate, gate, render.

The observability half of declarative experiments
(:mod:`repro.experiments.spec`): given the ledger a compiled spec ran
into, scrape the declared metric set out of every candidate x workload
x seed row into a canonical table, then render deterministic
side-by-side reports — per-workload tables, a win/loss matrix on the
primary metric, geomean deltas against the declared baseline
candidate, per-candidate health (failures, quarantine taxonomy) — plus
self-contained SVG grouped-bar figures per metric, and evaluate the
spec's regression gates (``candidate X within Y% of baseline on
metric Z``).

Everything here is pure and deterministic: the same terminal rows
produce byte-identical reports and figures regardless of worker count,
kill/resume history, or host (ledger paths never appear in the
output). Wall-clock metrics are the one exception and are flagged
``volatile``.

Legacy ledgers (plans written by hand rather than compiled from a
spec) are still comparable: rows without candidate metadata are
exploded one candidate per evaluated scheme, so ``repro compare`` on
yesterday's table-5 ledger shows Baseline vs Best Avg vs SparseAdapt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import ConfigError

__all__ = [
    "METRICS",
    "MetricDef",
    "scrape_rows",
    "ledger_terminal_rows",
    "build_comparison",
    "evaluate_gates",
    "render_comparison",
    "render_metric_svg",
    "write_figures",
    "drill_down",
]


@dataclass(frozen=True)
class MetricDef:
    """One comparable quantity and how to judge it."""

    name: str
    higher_is_better: bool
    description: str
    #: Wall-clock-derived: real but not run-to-run reproducible, so it
    #: is excluded from byte-identity guarantees and flagged in reports.
    volatile: bool = False

    @property
    def direction(self) -> str:
        return "higher" if self.higher_is_better else "lower"


#: Every metric a spec may declare, scraped from ledger result rows.
METRICS: Dict[str, MetricDef] = {
    metric.name: metric
    for metric in (
        MetricDef("gflops", True, "modeled throughput"),
        MetricDef("gflops_per_watt", True, "modeled energy efficiency"),
        MetricDef("perf_gain", True, "throughput gain over Baseline"),
        MetricDef(
            "efficiency_gain", True, "GFLOPS/W gain over Baseline"
        ),
        MetricDef("time_s", False, "modeled execution time"),
        MetricDef("energy_j", False, "modeled energy"),
        MetricDef("edp_js", False, "energy-delay product"),
        MetricDef("avg_power_w", False, "modeled average power"),
        MetricDef(
            "reconfigurations", False, "reconfiguration count"
        ),
        MetricDef(
            "oracle_regret_pct",
            False,
            "cost above the sampled Oracle schedule",
        ),
        MetricDef(
            "fault_detection_rate",
            True,
            "sanitizer flags per injected fault (one fault can flag "
            "several counters, so this can exceed 1; faulted runs only)",
        ),
        MetricDef(
            "wall_clock_s",
            False,
            "host wall-clock per job (volatile)",
            volatile=True,
        ),
    )
}


# ---------------------------------------------------------------------------
# Scraping
# ---------------------------------------------------------------------------
def ledger_terminal_rows(path: Union[str, Path]) -> Tuple[dict, List[dict]]:
    """A ledger's header and terminal rows, first-terminal-wins.

    Reads the way resume does (torn-line tolerant); rows come back in
    first-appearance order, which for a merged canonical ledger is plan
    order — the report ordering downstream relies on that.
    """
    from repro.runner.ledger import TERMINAL_TYPES, read_ledger_records

    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"no such ledger: {path}")
    records, _ = read_ledger_records(path)
    header: dict = {}
    rows: List[dict] = []
    seen: set = set()
    for record in records:
        kind = record.get("type")
        if kind == "header" and not header:
            header = dict(record)
        elif kind in TERMINAL_TYPES:
            key = record.get("key")
            if isinstance(key, str) and key not in seen:
                seen.add(key)
                rows.append(dict(record.get("row") or {}))
    if not header:
        raise ConfigError(f"{path} is not a run ledger (missing header)")
    return header, rows


def _metric_value(
    entry: dict, metric: str, row: dict
) -> Optional[float]:
    """One metric out of one scheme entry (or the row, for wall-clock)."""
    if metric == "wall_clock_s":
        value = row.get("duration_s")
        return float(value) if value is not None else None
    if metric == "fault_detection_rate":
        stats = entry.get("fault_stats")
        if not isinstance(stats, dict):
            return None
        injected = stats.get("n_faults_injected", 0)
        if not injected:
            return None
        return float(stats.get("n_faults_detected", 0)) / float(injected)
    value = entry.get(metric)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return float(value)


def scrape_rows(
    rows: Sequence[dict], metrics: Sequence[str]
) -> List[dict]:
    """Terminal ledger rows -> flat samples of the requested metrics.

    Spec-compiled rows carry ``candidate``/``workload``/``seed``/
    ``scheme`` metadata and yield one sample each; legacy rows yield
    one sample per evaluated scheme (candidate = scheme name, workload
    = job label). Failed rows become samples with no values so health
    accounting sees them.
    """
    for metric in metrics:
        if metric not in METRICS:
            raise ConfigError(
                f"unknown metric {metric!r} "
                f"(expected one of {', '.join(sorted(METRICS))})"
            )
    samples: List[dict] = []
    for row in rows:
        failure_kind = (row.get("failure") or {}).get("kind")
        if row.get("candidate") is not None:
            schemes = ((row["candidate"], row.get("scheme")),)
            workload = row.get("workload") or row.get("matrix") or "?"
            seed = int(row.get("seed") or 0)
        else:
            result_schemes = (row.get("result") or {}).get("schemes") or {}
            schemes = tuple(
                (name, name) for name in result_schemes
            ) or ((row.get("label", "?"), None),)
            workload = row.get("label") or "?"
            seed = 0
        for candidate, scheme in schemes:
            values: Dict[str, Optional[float]] = {}
            if row.get("status") == "ok":
                entries = (row.get("result") or {}).get("schemes") or {}
                entry = entries.get(scheme) if scheme else None
                for metric in metrics:
                    values[metric] = (
                        _metric_value(entry, metric, row)
                        if isinstance(entry, dict)
                        else None
                    )
            else:
                values = {metric: None for metric in metrics}
            samples.append(
                {
                    "candidate": candidate,
                    "workload": workload,
                    "seed": seed,
                    "status": row.get("status"),
                    "failure_kind": failure_kind,
                    "values": values,
                }
            )
    return samples


# ---------------------------------------------------------------------------
# Table building
# ---------------------------------------------------------------------------
def _ordered(declared: Optional[Sequence[str]], seen: List[str]) -> List[str]:
    """Declared order when given, else deterministic first-appearance
    order (ledger rows arrive in plan order, so this is stable)."""
    if declared:
        return list(declared)
    out: List[str] = []
    for name in seen:
        if name not in out:
            out.append(name)
    return out


def _geomean(ratios: List[float]) -> Optional[float]:
    if not ratios:
        return None
    return math.exp(sum(math.log(r) for r in ratios) / len(ratios))


def build_comparison(
    samples: Sequence[dict],
    metrics: Sequence[str],
    baseline: Optional[str] = None,
    candidates: Optional[Sequence[str]] = None,
    workloads: Optional[Sequence[str]] = None,
    name: str = "comparison",
) -> dict:
    """Samples -> the canonical comparison structure.

    ``cells[metric][workload][candidate]`` is the seed-averaged value
    (``None`` when every seed failed or the metric was absent);
    ``geomean[metric][candidate]`` the geometric-mean ratio against
    the baseline candidate across workloads where both sides have a
    positive value; ``wins`` the pairwise win counts on the primary
    metric (``metrics[0]``); ``health`` the per-candidate terminal
    status and quarantine taxonomy.
    """
    if not samples:
        raise ConfigError("nothing to compare: no samples scraped")
    metrics = list(metrics)
    candidate_order = _ordered(
        candidates, [sample["candidate"] for sample in samples]
    )
    workload_order = _ordered(
        workloads, [sample["workload"] for sample in samples]
    )
    if baseline is None:
        baseline = candidate_order[0]
    if baseline not in candidate_order:
        raise ConfigError(
            f"baseline {baseline!r} is not among the compared candidates "
            f"({', '.join(candidate_order)})"
        )

    # candidate -> workload -> metric -> list of per-seed values
    buckets: Dict[str, Dict[str, Dict[str, List[float]]]] = {}
    health: Dict[str, dict] = {
        candidate: {"ok": 0, "failed": 0, "quarantine": {}}
        for candidate in candidate_order
    }
    seeds: set = set()
    for sample in samples:
        candidate = sample["candidate"]
        if candidate not in health:  # undeclared candidate in ledger
            continue
        seeds.add(sample["seed"])
        if sample["status"] == "ok":
            health[candidate]["ok"] += 1
        else:
            health[candidate]["failed"] += 1
            kind = sample.get("failure_kind") or "unknown"
            taxonomy = health[candidate]["quarantine"]
            taxonomy[kind] = taxonomy.get(kind, 0) + 1
        per_workload = buckets.setdefault(candidate, {})
        per_metric = per_workload.setdefault(sample["workload"], {})
        for metric, value in sample["values"].items():
            if value is not None:
                per_metric.setdefault(metric, []).append(value)

    cells: Dict[str, Dict[str, Dict[str, Optional[float]]]] = {}
    for metric in metrics:
        cells[metric] = {}
        for workload in workload_order:
            cells[metric][workload] = {}
            for candidate in candidate_order:
                values = (
                    buckets.get(candidate, {})
                    .get(workload, {})
                    .get(metric, [])
                )
                cells[metric][workload][candidate] = (
                    sum(values) / len(values) if values else None
                )

    geomean: Dict[str, Dict[str, Optional[float]]] = {}
    for metric in metrics:
        geomean[metric] = {}
        for candidate in candidate_order:
            ratios: List[float] = []
            for workload in workload_order:
                ours = cells[metric][workload][candidate]
                base = cells[metric][workload][baseline]
                if ours and base and ours > 0 and base > 0:
                    ratios.append(ours / base)
            geomean[metric][candidate] = _geomean(ratios)

    primary = metrics[0]
    wins: Dict[str, Dict[str, int]] = {}
    direction = 1.0 if METRICS[primary].higher_is_better else -1.0
    for a in candidate_order:
        wins[a] = {}
        for b in candidate_order:
            if a == b:
                continue
            count = 0
            for workload in workload_order:
                va = cells[primary][workload][a]
                vb = cells[primary][workload][b]
                if va is None or vb is None:
                    continue
                if direction * (va - vb) > 0:
                    count += 1
            wins[a][b] = count

    return {
        "name": name,
        "baseline": baseline,
        "metrics": metrics,
        "primary_metric": primary,
        "candidates": candidate_order,
        "workloads": workload_order,
        "n_seeds": len(seeds),
        "cells": cells,
        "geomean": geomean,
        "wins": wins,
        "health": health,
    }


# ---------------------------------------------------------------------------
# Regression gates
# ---------------------------------------------------------------------------
def evaluate_gates(comparison: dict, gates: Sequence) -> List[dict]:
    """Check every gate against the comparison table.

    Each result carries the measured ratio against the reference, the
    signed margin in percent (negative = worse than the reference), and
    ``passed``. A gate whose data is missing (failed candidate, absent
    metric) fails with ``reason: "no data"`` — silence must not pass a
    regression check.
    """
    results: List[dict] = []
    for gate in gates:
        candidate = gate.candidate
        metric = gate.metric
        reference = gate.of if gate.of is not None else comparison["baseline"]
        scope = gate.workload
        entry = {
            "candidate": candidate,
            "metric": metric,
            "of": reference,
            "workload": scope,
            "within_pct": gate.within_pct,
            "ratio": None,
            "margin_pct": None,
            "passed": False,
            "reason": None,
        }
        if metric not in comparison["cells"] or candidate not in comparison[
            "candidates"
        ] or reference not in comparison["candidates"]:
            entry["reason"] = "no data"
            results.append(entry)
            continue
        if scope is not None:
            row = comparison["cells"][metric].get(scope, {})
            ours, base = row.get(candidate), row.get(reference)
        else:
            ours = comparison["geomean"][metric].get(candidate)
            base = comparison["geomean"][metric].get(reference)
        if not ours or not base or ours <= 0 or base <= 0:
            entry["reason"] = "no data"
            results.append(entry)
            continue
        ratio = ours / base
        higher = METRICS[metric].higher_is_better
        margin = (ratio - 1.0) * 100.0 if higher else (1.0 - ratio) * 100.0
        passed = margin >= -gate.within_pct
        entry.update(
            ratio=ratio,
            margin_pct=margin,
            passed=passed,
            reason=None if passed else "regression",
        )
        results.append(entry)
    return results


# ---------------------------------------------------------------------------
# Text rendering
# ---------------------------------------------------------------------------
def _fmt(value: Optional[float], spec: str = ".4g") -> str:
    if value is None:
        return "-"
    return format(value, spec)


def render_comparison(
    comparison: dict, gate_results: Optional[Sequence[dict]] = None
) -> str:
    """The deterministic ``repro compare`` text report."""
    candidates = comparison["candidates"]
    workloads = comparison["workloads"]
    baseline = comparison["baseline"]
    width = max([len(c) for c in candidates] + [10])
    wl_width = max([len(w) for w in workloads] + [len("geomean x"), 10])
    lines: List[str] = []
    lines.append(f"=== comparison: {comparison['name']} ===")
    lines.append(
        f"candidates: {', '.join(candidates)} (baseline: {baseline})"
    )
    lines.append(
        f"workloads : {', '.join(workloads)}"
        + (
            f"  x {comparison['n_seeds']} seed(s)"
            if comparison["n_seeds"] > 1
            else ""
        )
    )

    for metric in comparison["metrics"]:
        definition = METRICS[metric]
        note = " [volatile]" if definition.volatile else ""
        lines.append("")
        lines.append(
            f"--- {metric} ({definition.direction} is better)"
            f"{note} ---"
        )
        header = f"{'workload':<{wl_width}}"
        for candidate in candidates:
            header += f" {candidate:>{width}}"
        lines.append(header)
        for workload in workloads:
            line = f"{workload:<{wl_width}}"
            for candidate in candidates:
                value = comparison["cells"][metric][workload][candidate]
                line += f" {_fmt(value):>{width}}"
            lines.append(line)
        line = f"{'geomean x':<{wl_width}}"
        for candidate in candidates:
            ratio = comparison["geomean"][metric][candidate]
            line += f" {_fmt(ratio):>{width}}"
        lines.append(line)

    primary = comparison["primary_metric"]
    lines.append("")
    lines.append(
        f"--- win/loss matrix on {primary} "
        f"(row beats column on N of {len(workloads)} workloads) ---"
    )
    header = f"{'':<{width}}"
    for candidate in candidates:
        header += f" {candidate:>{width}}"
    lines.append(header)
    for a in candidates:
        line = f"{a:<{width}}"
        for b in candidates:
            cell = "." if a == b else str(comparison["wins"][a][b])
            line += f" {cell:>{width}}"
        lines.append(line)

    unhealthy = {
        candidate: health
        for candidate, health in comparison["health"].items()
        if health["failed"]
    }
    lines.append("")
    lines.append("--- health ---")
    if not unhealthy:
        total = sum(h["ok"] for h in comparison["health"].values())
        lines.append(f"all {total} job(s) ok")
    else:
        for candidate in candidates:
            health = comparison["health"][candidate]
            if not health["failed"]:
                continue
            kinds = ", ".join(
                f"{kind}={count}"
                for kind, count in sorted(health["quarantine"].items())
            )
            lines.append(
                f"{candidate}: {health['failed']} failed "
                f"({kinds}) / {health['ok']} ok"
            )

    if gate_results is not None:
        lines.append("")
        lines.append("--- gates ---")
        if not gate_results:
            lines.append("(none declared)")
        for result in gate_results:
            scope = (
                f" on {result['workload']}"
                if result["workload"]
                else " (geomean)"
            )
            verdict = "PASS" if result["passed"] else "FAIL"
            detail = (
                f"margin {_fmt(result['margin_pct'], '+.2f')}%"
                if result["margin_pct"] is not None
                else str(result["reason"])
            )
            within = result["within_pct"]
            relation = (
                f"beats {result['of']} by ≥ {_fmt(-within, 'g')}%"
                if within < 0
                else f"within {_fmt(within, 'g')}% of {result['of']}"
            )
            lines.append(
                f"[{verdict}] {result['candidate']} {relation} "
                f"on {result['metric']}{scope}: {detail}"
            )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# SVG figures
# ---------------------------------------------------------------------------
#: Fixed candidate palette (cycled); chosen to stay readable on white.
_PALETTE = (
    "#4878d0", "#ee854a", "#6acc64", "#d65f5f",
    "#956cb4", "#8c613c", "#dc7ec0", "#797979",
)


def render_metric_svg(comparison: dict, metric: str) -> str:
    """A self-contained grouped-bar SVG for one metric.

    Bars are grouped by workload, one bar per candidate, with a legend
    and the numeric value atop each bar. All coordinates are formatted
    to fixed precision so the same comparison always renders the same
    bytes.
    """
    if metric not in comparison["cells"]:
        raise ConfigError(
            f"metric {metric!r} is not in this comparison "
            f"({', '.join(comparison['metrics'])})"
        )
    candidates = comparison["candidates"]
    workloads = comparison["workloads"]
    cells = comparison["cells"][metric]
    peak = max(
        [
            value
            for workload in workloads
            for value in cells[workload].values()
            if value is not None
        ]
        or [1.0]
    )
    if peak <= 0:
        peak = 1.0

    bar_w = 26.0
    gap = 10.0
    group_w = bar_w * len(candidates) + gap * 2
    plot_h = 220.0
    margin_l, margin_t = 56.0, 34.0
    legend_h = 18.0 * len(candidates)
    width = margin_l + group_w * len(workloads) + 150.0
    height = margin_t + plot_h + 48.0 + max(0.0, legend_h - plot_h / 2)

    def x(coord: float) -> str:
        return f"{coord:.2f}"

    parts: List[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{x(width)}" height="{x(height)}" '
        f'viewBox="0 0 {x(width)} {x(height)}" '
        f'font-family="monospace" font-size="11">'
    )
    definition = METRICS[metric]
    parts.append(
        f'<text x="{x(margin_l)}" y="18" font-size="13">'
        f"{_escape(comparison['name'])}: {_escape(metric)} "
        f"({definition.direction} is better)</text>"
    )
    axis_y = margin_t + plot_h
    parts.append(
        f'<line x1="{x(margin_l)}" y1="{x(axis_y)}" '
        f'x2="{x(margin_l + group_w * len(workloads))}" y2="{x(axis_y)}" '
        f'stroke="#333" stroke-width="1"/>'
    )
    for index, workload in enumerate(workloads):
        base_x = margin_l + group_w * index + gap
        for c_index, candidate in enumerate(candidates):
            value = cells[workload][candidate]
            color = _PALETTE[c_index % len(_PALETTE)]
            bx = base_x + bar_w * c_index
            if value is None:
                parts.append(
                    f'<text x="{x(bx + bar_w / 2)}" y="{x(axis_y - 4)}" '
                    f'text-anchor="middle" fill="#999">x</text>'
                )
                continue
            bh = plot_h * (value / peak)
            parts.append(
                f'<rect x="{x(bx)}" y="{x(axis_y - bh)}" '
                f'width="{x(bar_w - 2)}" height="{x(bh)}" '
                f'fill="{color}"/>'
            )
            parts.append(
                f'<text x="{x(bx + bar_w / 2)}" '
                f'y="{x(axis_y - bh - 4)}" text-anchor="middle" '
                f'font-size="9">{_fmt(value, ".3g")}</text>'
            )
        parts.append(
            f'<text x="{x(base_x + (group_w - 2 * gap) / 2)}" '
            f'y="{x(axis_y + 16)}" text-anchor="middle">'
            f"{_escape(workload)}</text>"
        )
    legend_x = margin_l + group_w * len(workloads) + 12.0
    for c_index, candidate in enumerate(candidates):
        ly = margin_t + 18.0 * c_index
        color = _PALETTE[c_index % len(_PALETTE)]
        parts.append(
            f'<rect x="{x(legend_x)}" y="{x(ly)}" width="12" '
            f'height="12" fill="{color}"/>'
        )
        parts.append(
            f'<text x="{x(legend_x + 18)}" y="{x(ly + 10)}">'
            f"{_escape(candidate)}</text>"
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _escape(text: str) -> str:
    return (
        str(text)
        .replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
    )


def write_figures(
    comparison: dict, directory: Union[str, Path]
) -> List[Path]:
    """One SVG per (non-volatile data permitting) declared metric."""
    from repro.obs.sinks import write_atomic

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written: List[Path] = []
    for metric in comparison["metrics"]:
        path = directory / f"{metric}.svg"
        write_atomic(path, render_metric_svg(comparison, metric))
        written.append(path)
    return written


# ---------------------------------------------------------------------------
# First-divergence drill-down
# ---------------------------------------------------------------------------
def drill_down(
    spec,
    candidate: str,
    workload: str,
    seed: int = 0,
    reference: Optional[str] = None,
) -> dict:
    """Re-run two candidates on one workload with tracing and diff them.

    Both the candidate and the reference (default: the spec's baseline
    candidate) must be adaptive (scheme ``SparseAdapt``) — static
    schemes make no epoch decisions to diff. Each run is the candidate's
    job from :func:`~repro.experiments.spec.compile_plan` with its seed
    replaced; only its SparseAdapt scheme is recorded, in-memory, and
    the two recordings are compared with
    :func:`repro.obs.diff.diff_traces`, so the answer is the exact epoch
    where the two controllers' applied configurations first split, and
    what they observed there.
    """
    from repro import obs
    from repro.experiments.harness import evaluate_schemes, job_context
    from repro.experiments.spec import compile_plan
    from repro.obs.diff import diff_traces

    reference = reference if reference is not None else spec.baseline
    by_name = {entry.name: entry for entry in spec.candidates}
    for name in (reference, candidate):
        if name not in by_name:
            raise ConfigError(f"unknown candidate {name!r}")
        if by_name[name].scheme != "SparseAdapt":
            raise ConfigError(
                f"candidate {name!r} runs the static scheme "
                f"{by_name[name].scheme!r}; drill-down needs two adaptive "
                f"(SparseAdapt) candidates"
            )
    if workload not in spec.workload_names():
        raise ConfigError(f"unknown workload {workload!r}")
    jobs: Dict[tuple, object] = {}
    for job in compile_plan(spec).jobs:
        jobs.setdefault((job.candidate, job.workload), job)

    traces: List[List[dict]] = []
    for name in (reference, candidate):
        context = job_context(replace(jobs[name, workload], seed=seed))
        sink = obs.MemorySink()
        with obs.recording(sink):
            evaluate_schemes(context, ("SparseAdapt",))
        traces.append(sink.records())

    return diff_traces(
        traces[0],
        traces[1],
        label_a=reference,
        label_b=candidate,
    )
