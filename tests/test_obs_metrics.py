"""Tests for the metric instruments (repro.obs.metrics)."""

import math

import pytest

from repro.errors import ConfigError
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Histogram,
    MetricsRegistry,
)


@pytest.fixture()
def registry():
    return MetricsRegistry()


class TestGauge:
    def test_set_inc_dec(self, registry):
        gauge = registry.gauge("g")
        gauge.set(10.0)
        gauge.inc(5.0)
        gauge.dec(2.0)
        assert gauge.value == 13.0

    def test_get_or_create_returns_same_object(self, registry):
        assert registry.gauge("g") is registry.gauge("g")


class TestHistogram:
    def test_count_sum_and_buckets(self):
        histogram = Histogram(buckets=(1.0, 10.0, 100.0))
        for value in (0.5, 5.0, 50.0, 500.0):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.sum == pytest.approx(555.5)
        # One observation per bucket, the last in the +Inf overflow.
        assert histogram.bucket_counts == [1, 1, 1, 1]

    def test_boundary_value_lands_in_its_bucket(self):
        # Prometheus buckets are `le` (inclusive upper bounds).
        histogram = Histogram(buckets=(1.0, 10.0))
        histogram.observe(1.0)
        assert histogram.bucket_counts[0] == 1

    def test_default_buckets_span_microseconds_to_seconds(self):
        assert DEFAULT_BUCKETS[0] == pytest.approx(1e-6)
        assert DEFAULT_BUCKETS[-1] == pytest.approx(1.0)
        histogram = Histogram()
        assert histogram.bounds == DEFAULT_BUCKETS
        histogram.observe(3e-6)
        assert histogram.count == 1

    def test_empty_buckets_rejected(self):
        with pytest.raises(ConfigError):
            Histogram(buckets=())


class TestQuantiles:
    def test_interpolates_within_bucket(self):
        # 10 observations all in the (10, 20] bucket: the median rank
        # (5 of 10) sits halfway through it -> 15 by interpolation.
        histogram = Histogram(buckets=(10.0, 20.0))
        for _ in range(10):
            histogram.observe(15.0)
        assert histogram.quantile(0.5) == pytest.approx(15.0)
        assert histogram.quantile(1.0) == pytest.approx(20.0)

    def test_first_bucket_interpolates_from_zero(self):
        histogram = Histogram(buckets=(8.0, 16.0))
        for _ in range(4):
            histogram.observe(1.0)
        # rank 2 of 4, all in the first bucket: 8 * 2/4 = 4.
        assert histogram.quantile(0.5) == pytest.approx(4.0)

    def test_spread_across_buckets(self):
        histogram = Histogram(buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 3.0, 3.5):
            histogram.observe(value)
        # p75 -> rank 3 of 4, lands at the end of the (2, 4] bucket's
        # first of two observations: 2 + (4-2) * (3-2)/2 = 3.
        assert histogram.quantile(0.75) == pytest.approx(3.0)

    def test_overflow_rank_saturates_at_highest_bound(self):
        histogram = Histogram(buckets=(1.0, 10.0))
        histogram.observe(0.5)
        histogram.observe(100.0)  # +Inf overflow bucket
        assert histogram.quantile(0.99) == pytest.approx(10.0)

    def test_empty_histogram_is_nan(self):
        histogram = Histogram(buckets=(1.0,))
        assert math.isnan(histogram.quantile(0.5))

    def test_out_of_range_rejected(self):
        histogram = Histogram(buckets=(1.0,))
        histogram.observe(0.5)
        with pytest.raises(ConfigError):
            histogram.quantile(-0.1)
        with pytest.raises(ConfigError):
            histogram.quantile(1.1)

    def test_quantiles_batch(self):
        histogram = Histogram(buckets=(10.0, 20.0))
        for _ in range(10):
            histogram.observe(5.0)
        p50, p90 = histogram.quantiles((0.5, 0.9))
        assert p50 == pytest.approx(5.0)
        assert p90 == pytest.approx(9.0)

    def test_monotone_in_q(self):
        histogram = Histogram()
        for value in (1e-6, 5e-6, 2e-5, 1e-4, 3e-3, 0.5):
            histogram.observe(value)
        qs = [0.1, 0.25, 0.5, 0.75, 0.9, 0.99]
        estimates = histogram.quantiles(qs)
        assert estimates == sorted(estimates)


class TestLabels:
    def test_children_are_cached_and_independent(self, registry):
        gauge = registry.gauge("done")
        a = gauge.labels(worker="w0")
        b = gauge.labels(worker="w1")
        assert a is gauge.labels(worker="w0")
        a.set(3)
        b.set(1)
        assert a.value == 3.0
        assert b.value == 1.0
        assert gauge.value == 0.0  # parent untouched

    def test_label_order_does_not_matter(self, registry):
        gauge = registry.gauge("g")
        assert gauge.labels(a="1", b="2") is gauge.labels(b="2", a="1")

    def test_no_labels_returns_self(self, registry):
        gauge = registry.gauge("g")
        assert gauge.labels() is gauge


class TestRender:
    def test_labeled_series_render(self, registry):
        registry.gauge("c").labels(kernel="spmspv").set(1)
        text = registry.render_openmetrics()
        assert 'c{kernel="spmspv"} 1' in text
        # A labeled-only gauge renders no bare parent sample.
        assert "\nc 0\n" not in text

    def test_empty_registry_renders_empty(self, registry):
        # An empty exposition is the mandatory terminator alone.
        assert registry.render_openmetrics() == "# EOF\n"


class TestRenderDeterminism:
    @staticmethod
    def _populate(registry, order):
        """Create the same gauges/series, honouring ``order``."""
        for step in order:
            if step == "z":
                registry.gauge("z.last", "zed").set(3)
            elif step == "a":
                registry.gauge("a.first", "ay").set(1.0)
            elif step == "mid-b":
                registry.gauge("m.mid").labels(worker="w1", job="b").set(2)
            elif step == "mid-a":
                registry.gauge("m.mid").labels(job="a", worker="w0").set(1)

    def test_insertion_order_does_not_change_output(self):
        forward = MetricsRegistry()
        self._populate(forward, ["a", "mid-a", "mid-b", "z"])
        backward = MetricsRegistry()
        self._populate(backward, ["z", "mid-b", "mid-a", "a"])
        assert forward.render_openmetrics() == backward.render_openmetrics()

    def test_metrics_sorted_by_name(self, registry):
        registry.gauge("z.last").set(1)
        registry.gauge("a.first").set(1)
        text = registry.render_openmetrics()
        assert text.index("a_first") < text.index("z_last")

    def test_series_sorted_by_label_pairs(self, registry):
        gauge = registry.gauge("c")
        gauge.labels(worker="w1").set(1)
        gauge.labels(worker="w0").set(1)
        text = registry.render_openmetrics()
        assert text.index('worker="w0"') < text.index('worker="w1"')


class TestOpenMetrics:
    def test_gauge_samples_keep_bare_name(self, registry):
        registry.gauge("eta").set(2.5)
        assert "eta 2.5" in registry.render_openmetrics()

    def test_type_line_precedes_help_line(self, registry):
        registry.gauge("c", "counts things").set(1)
        text = registry.render_openmetrics()
        assert text.index("# TYPE c gauge") < text.index(
            "# HELP c counts things"
        )

    def test_nan_gauge_renders_literal_nan(self, registry):
        registry.gauge("eta").set(float("nan"))
        assert "eta NaN" in registry.render_openmetrics()

    def test_ends_with_eof_terminator(self, registry):
        assert registry.render_openmetrics() == "# EOF\n"
        registry.gauge("c").set(1)
        assert registry.render_openmetrics().endswith("# EOF\n")
