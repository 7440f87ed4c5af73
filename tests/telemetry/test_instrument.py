"""The Instrumented mixin: declarative attach_metrics/stats."""

from repro.runtime.bus import EventBus
from repro.telemetry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    render_prometheus,
)
from repro.telemetry.instrument import Instrumented, MetricSpec


class Widget(Instrumented):
    metric_specs = (
        MetricSpec(
            "widget_events_total",
            "_events",
            stats_key="events",
        ),
        MetricSpec("widget_errors_total", "_errors"),  # metric-only
        MetricSpec(
            "widget_depth",
            "depth",
            kind="gauge",
            stats_key="depth",
        ),
    )

    def __init__(self):
        self._events = 0
        self._errors = 0
        self._items = []

    def depth(self) -> int:  # bound method source: called at collection
        return len(self._items)

    def _extra_stats(self):
        return {"mode": "test"}


class TestAttachMetrics:
    def test_callbacks_read_live_values(self):
        registry = MetricsRegistry()
        widget = Widget()
        widget.attach_metrics(registry)
        assert registry.value("widget_events_total") == 0
        widget._events += 3
        widget._items.append(object())
        assert registry.value("widget_events_total") == 3
        assert registry.value("widget_depth") == 1

    def test_labels_propagate(self):
        registry = MetricsRegistry()
        widget = Widget()
        widget.attach_metrics(registry, component="w1")
        widget._events += 1
        assert registry.value("widget_events_total", component="w1") == 1

    def test_kinds_are_declared(self):
        registry = MetricsRegistry()
        Widget().attach_metrics(registry)
        assert registry.get("widget_events_total").kind == "counter"
        assert registry.get("widget_depth").kind == "gauge"


class TestZeroCostContract:
    """Hot layers export their inline integers as pull-time callbacks:
    observing a publish costs the publisher nothing, the scraper pays."""

    def test_publishing_pushes_into_no_instrument(self, monkeypatch):
        pushes = []
        for instrument, method in (
            (Counter, "inc"),
            (Gauge, "set"),
            (Histogram, "observe"),
        ):
            monkeypatch.setattr(
                instrument,
                method,
                lambda self, *args, _name=method: pushes.append(_name),
            )
        registry = MetricsRegistry()
        bus = EventBus(metrics=registry)
        topic = ("source", "PresenceSensor", "presence")
        bus.subscribe(topic, lambda payload: None)
        for __ in range(500):
            bus.publish(topic, {"value": 1})
        assert pushes == []
        assert registry.value("bus_published_total") == 500
        assert "bus_published_total 500" in render_prometheus(registry)


class TestStats:
    def test_stats_keys_and_extra_stats(self):
        widget = Widget()
        widget._events = 2
        widget._errors = 9  # no stats_key: metric-only, not in stats()
        assert widget.stats() == {"events": 2, "depth": 0, "mode": "test"}


class TestDefaults:
    def test_base_class_is_inert(self):
        subsystem = Instrumented()
        subsystem.attach_metrics(MetricsRegistry())  # no specs: no-op
        assert subsystem.stats() == {}
