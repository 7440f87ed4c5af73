"""MetricsRegistry primitives: counters, gauges, histograms, callbacks."""

import pytest

from repro.telemetry import (
    DEFAULT_BUCKETS,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        registry = MetricsRegistry()
        counter = registry.counter("events_total")
        assert counter.value == 0
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        a = registry.counter("events_total")
        b = registry.counter("events_total")
        a.inc()
        assert b is a
        assert registry.value("events_total") == 1

    def test_labelled_children_are_independent(self):
        registry = MetricsRegistry()
        north = registry.counter("reads_total", zone="north")
        south = registry.counter("reads_total", zone="south")
        north.inc(3)
        south.inc(1)
        assert registry.value("reads_total", zone="north") == 3
        assert registry.value("reads_total", zone="south") == 1
        assert len(registry.get("reads_total")) == 2

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("thing")
        with pytest.raises(ValueError, match="is a counter"):
            registry.gauge("thing")


class TestGauge:
    def test_set_inc_dec(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        gauge.set(10)
        gauge.inc(2.5)
        gauge.dec()
        assert gauge.value == 11.5


class TestHistogram:
    def test_observe_assigns_inclusive_buckets(self):
        histogram = Histogram(buckets=(1.0, 5.0))
        for value in (0.5, 1.0, 3.0, 5.0, 100.0):
            histogram.observe(value)
        assert histogram.count == 5
        assert histogram.sum == pytest.approx(109.5)
        # le=1.0 catches 0.5 and the boundary value 1.0.
        assert histogram.bucket_counts() == [
            (1.0, 2),
            (5.0, 4),
            (float("inf"), 5),
        ]

    def test_default_buckets_are_sorted_seconds(self):
        assert tuple(sorted(DEFAULT_BUCKETS)) == DEFAULT_BUCKETS
        histogram = MetricsRegistry().histogram("t_seconds")
        assert histogram.bounds == DEFAULT_BUCKETS

    def test_rejects_empty_buckets(self):
        with pytest.raises(ValueError):
            Histogram(buckets=())

    def test_observe_column_is_observe_in_order(self):
        """Same buckets, same count and the very same float sum — the
        column adds left to right, as successive observes do, runs of
        equal values included."""
        values = [0.1, 0.7, 1.0, 0.1, 3.3, 1e-9, 5.0, 0.1, 7.25]
        values += [0.1] * 5 + [1.0] * 3 + [-0.0, 0.0, 0.0] + [0.3] * 7
        column, loop = Histogram(buckets=(1.0, 5.0)), Histogram((1.0, 5.0))
        for histogram in (column, loop):
            histogram.observe(0.3)
        column.observe_column(values)
        column.observe_column([])
        for value in values:
            loop.observe(value)
        assert column.bucket_counts() == loop.bucket_counts()
        assert (column.count, column.sum) == (loop.count, loop.sum)


class TestCallbacks:
    def test_callback_reads_at_collection_time(self):
        registry = MetricsRegistry()
        state = {"count": 0}
        registry.callback("live_total", lambda: state["count"])
        assert registry.value("live_total") == 0
        state["count"] = 7
        assert registry.value("live_total") == 7

    def test_callback_can_be_repointed(self):
        registry = MetricsRegistry()
        registry.callback("v", lambda: 1, kind="gauge")
        registry.callback("v", lambda: 2, kind="gauge")
        assert registry.value("v") == 2

    def test_callbacks_and_labels(self):
        registry = MetricsRegistry()
        registry.callback("acts_total", lambda: 5, component="A")
        registry.callback("acts_total", lambda: 9, component="B")
        snapshot = registry.snapshot()
        assert snapshot["acts_total"] == {
            (("component", "A"),): 5,
            (("component", "B"),): 9,
        }


class TestRegistrySurface:
    def test_families_sorted_and_contains(self):
        registry = MetricsRegistry()
        registry.counter("z_total")
        registry.gauge("a_depth")
        assert [f.name for f in registry.families()] == ["a_depth", "z_total"]
        assert "z_total" in registry
        assert "missing" not in registry
        assert len(registry) == 2

    def test_help_kept_from_first_non_empty(self):
        registry = MetricsRegistry()
        registry.counter("x_total")
        registry.counter("x_total", help="Late help still lands.")
        assert registry.get("x_total").help == "Late help still lands."
