"""Metric instruments for the two text exports the CLI writes.

* :class:`MetricsRegistry` holds named :class:`Gauge`\\ s and renders
  them as OpenMetrics text. ``suite-run --metrics-out`` and
  ``top --metrics-out`` build a fresh registry from a campaign ledger
  (:func:`repro.obs.live.export_campaign_metrics`) and write
  :meth:`MetricsRegistry.render_openmetrics`.
* :class:`Histogram` estimates quantiles from cumulative buckets; the
  decision-latency line of ``repro trace-report`` uses it.

There is no process-wide registry: what a run or a campaign did is in
its trace or its ledger, and these exports are derived from the ledger.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import ConfigError

__all__ = ["DEFAULT_BUCKETS", "Gauge", "Histogram", "MetricsRegistry"]

LabelPairs = Tuple[Tuple[str, str], ...]

#: Default histogram buckets, tuned for host-side decision latencies
#: (seconds): 1 us .. 1 s in 1-2.5-5 steps, plus the implicit +Inf.
DEFAULT_BUCKETS: Tuple[float, ...] = tuple(
    base * 10.0**exponent
    for exponent in range(-6, 0)
    for base in (1.0, 2.5, 5.0)
) + (1.0,)


def _format_labels(pairs: LabelPairs) -> str:
    parts = [f'{name}="{value}"' for name, value in pairs]
    return "{" + ",".join(parts) + "}" if parts else ""


class Gauge:
    """A settable value with labeled children.

    ``labels(**kv)`` returns a child keyed by the sorted label pairs,
    so the same labels always hit the same child.
    """

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.label_pairs: LabelPairs = ()
        self.value = 0.0
        self._hits = 0
        self._children: Dict[LabelPairs, "Gauge"] = {}
        self._lock = threading.Lock()

    def labels(self, **labels) -> "Gauge":
        """The child gauge for one label combination (cached)."""
        if not labels:
            return self
        key = tuple(sorted((str(k), str(v)) for k, v in labels.items()))
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = Gauge(self.name, self.help)
                child.label_pairs = key
                self._children[key] = child
            return child

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)
            self._hits += 1

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount
            self._hits += 1

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    def _series(self) -> Iterable["Gauge"]:
        """This gauge (if set, or if it has no children) followed by
        its children in sorted label order."""
        if self._hits > 0 or not self._children:
            yield self
        for key in sorted(self._children):
            yield self._children[key]


class Histogram:
    """Cumulative-bucket histogram of observed values."""

    def __init__(self, buckets: Optional[Tuple[float, ...]] = None) -> None:
        if buckets is None:
            buckets = DEFAULT_BUCKETS
        bounds = tuple(sorted(set(buckets)))
        if not bounds:
            raise ConfigError("histogram needs at least one bucket bound")
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # last = +Inf overflow
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile from the cumulative buckets.

        Uses Prometheus ``histogram_quantile`` semantics: find the
        bucket the target rank falls into and interpolate linearly
        inside it (the first bucket interpolates from 0, observations
        being non-negative latencies/sizes in practice). If the rank
        lands in the +Inf overflow bucket the highest finite bound is
        returned — the estimate saturates rather than extrapolates.
        Returns ``nan`` for an empty histogram.
        """
        if not 0.0 <= q <= 1.0:
            raise ConfigError("quantile must be within [0, 1]")
        if self.count == 0:
            return float("nan")
        rank = q * self.count
        running = 0
        for i, bucket_count in enumerate(self.bucket_counts[:-1]):
            previous = running
            running += bucket_count
            if running >= rank:
                lower = 0.0 if i == 0 else self.bounds[i - 1]
                upper = self.bounds[i]
                if bucket_count == 0:  # rank == previous == running == 0
                    return lower
                return lower + (upper - lower) * (rank - previous) / (
                    bucket_count
                )
        return self.bounds[-1]

    def quantiles(self, qs: Iterable[float]) -> List[float]:
        """Bucket-estimated quantiles for each ``q`` in ``qs``."""
        return [self.quantile(q) for q in qs]


class MetricsRegistry:
    """Named gauges, created on first use."""

    def __init__(self) -> None:
        self._gauges: Dict[str, Gauge] = {}
        self._lock = threading.Lock()

    def gauge(self, name: str, help: str = "") -> Gauge:
        with self._lock:
            gauge = self._gauges.get(name)
            if gauge is None:
                gauge = self._gauges[name] = Gauge(name, help)
            return gauge

    def render_openmetrics(self) -> str:
        """OpenMetrics text exposition (what external scrapers pull).

        Gauges are sorted by name and each gauge's series by label
        pairs, so two registries holding the same values render
        byte-identically whatever the order they were set in. Dots in
        names become underscores, NaN values render as ``NaN``, and
        the exposition ends with the mandatory ``# EOF`` terminator.
        """
        lines: List[str] = []
        with self._lock:
            gauges = dict(self._gauges)
        for name in sorted(gauges):
            gauge = gauges[name]
            om = name.replace(".", "_").replace("-", "_")
            lines.append(f"# TYPE {om} gauge")
            if gauge.help:
                lines.append(f"# HELP {om} {gauge.help}")
            for series in gauge._series():
                value = series.value
                rendered = "NaN" if value != value else f"{value:g}"
                labels = _format_labels(series.label_pairs)
                lines.append(f"{om}{labels} {rendered}")
        lines.append("# EOF")
        return "\n".join(lines) + "\n"
