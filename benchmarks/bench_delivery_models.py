"""C3 — the three data-delivery models (§IV).

Same infrastructure, same data demand, three designs: event-driven push,
periodic gathering, and query-driven pull.  Reproduced shape (after the
WSN taxonomy the paper cites): event-driven cost tracks the *change*
rate, periodic cost tracks the *polling* rate times fleet size, and
query-driven pays only per consumer demand.
"""

import time

from repro.mapreduce.api import MapReduce
from repro.runtime.app import Application
from repro.runtime.component import Context
from repro.runtime.device import CallableDriver
from repro.sema.analyzer import analyze

EVENT_DESIGN = """\
device Sensor { source reading as Float; }
context Sink as Float {
    when provided reading from Sensor
    maybe publish;
}
"""

PERIODIC_DESIGN = """\
device Sensor { source reading as Float; }
context Sink as Float {
    when periodic reading from Sensor <1 min>
    always publish;
}
"""

QUERY_DESIGN = """\
device Sensor { source reading as Float; }
context Sink as Float {
    when required;
}
"""


class EventSink(Context):
    def __init__(self):
        super().__init__()
        self.count = 0

    def on_reading_from_sensor(self, event, discover):
        self.count += 1
        return None


class PeriodicSink(Context):
    def __init__(self):
        super().__init__()
        self.count = 0

    def on_periodic_reading(self, readings, discover):
        self.count += len(readings)
        return float(len(readings))


class QuerySink(Context):
    def when_required(self, discover):
        values = [
            proxy.reading() for proxy in discover.devices("Sensor")
        ]
        return sum(values) / len(values) if values else 0.0


def build(design_text, sink, sensors):
    app = Application(analyze(design_text))
    app.implement("Sink", sink)
    instances = []
    for index in range(sensors):
        instances.append(
            app.create_device(
                "Sensor",
                f"s{index}",
                CallableDriver(sources={"reading": lambda: 1.0}),
            )
        )
    app.start()
    return app, instances


def test_delivery_model_comparison(table, benchmark):
    sensors = 200
    simulated_hour = 3600
    change_events_per_sensor = 6  # sparse changes

    def run_comparison():
        rows = []

        # Event-driven: each sensor pushes only when its value changes.
        app, instances = build(EVENT_DESIGN, EventSink(), sensors)
        start = time.perf_counter()
        for instance in instances:
            for __ in range(change_events_per_sensor):
                instance.publish("reading", 1.0)
        event_elapsed = time.perf_counter() - start
        event_deliveries = app.implementation("Sink").count
        rows.append(
            ("event-driven", event_deliveries,
             f"{event_elapsed * 1e3:.1f} ms", "tracks change rate")
        )

        # Periodic: the runtime polls everything every minute.
        app, __ = build(PERIODIC_DESIGN, PeriodicSink(), sensors)
        start = time.perf_counter()
        app.advance(simulated_hour)
        periodic_elapsed = time.perf_counter() - start
        periodic_deliveries = app.implementation("Sink").count
        rows.append(
            ("periodic <1 min>", periodic_deliveries,
             f"{periodic_elapsed * 1e3:.1f} ms", "tracks poll rate x fleet")
        )

        # Query-driven: one consumer pull per simulated hour.
        app, __ = build(QUERY_DESIGN, QuerySink(), sensors)
        start = time.perf_counter()
        app.query_context("Sink")
        query_elapsed = time.perf_counter() - start
        rows.append(
            ("query-driven", sensors, f"{query_elapsed * 1e3:.1f} ms",
             "tracks consumer demand")
        )
        return rows, event_deliveries, periodic_deliveries

    rows, event_deliveries, periodic_deliveries = benchmark.pedantic(
        run_comparison, rounds=1, iterations=1
    )
    table(
        "C3: delivery models, 200 sensors, 1 simulated hour",
        ("model", "readings delivered", "wall time", "cost driver"),
        rows,
    )
    # Shape: periodic moved the most data (60 polls x 200 sensors);
    # event-driven moved only the changes; a single query moved one sweep.
    assert periodic_deliveries == 60 * sensors
    assert event_deliveries == change_events_per_sensor * sensors
    assert periodic_deliveries > event_deliveries > sensors / 2


# ---------------------------------------------------------------------------
# C3b — windowed aggregation: buffered vs streaming (incremental) windows.
# The paper's AverageOccupancy gathers every 10 minutes but publishes once
# per 24-hour window; buffering the window costs O(readings), the
# streaming fast path O(groups).
# ---------------------------------------------------------------------------

RAW_WINDOW_DESIGN = """\
device Sensor {{
    attribute zone as ZoneEnum;
    source free as Boolean;
}}
enumeration ZoneEnum {{ {zones} }}
context Sink as Integer {{
    when periodic free from Sensor <10 min>
    grouped by zone every <24 hr>
    always publish;
}}
"""

MR_WINDOW_DESIGN = """\
device Sensor {{
    attribute zone as ZoneEnum;
    source free as Boolean;
}}
enumeration ZoneEnum {{ {zones} }}
context Sink as Integer {{
    when periodic free from Sensor <10 min>
    grouped by zone every <24 hr>
    with map as Integer reduce as Integer
    always publish;
}}
"""


class RawWindowSink(Context):
    """Buffered raw readings: count free observations over the window."""

    def on_periodic_free(self, window_by_zone, discover):
        return sum(
            sum(1 for free in readings if free)
            for readings in window_by_zone.values()
        )


class MapReduceWindowSink(Context, MapReduce):
    """Same aggregate through map/combine/reduce; the window delivers
    one folded value per zone."""

    def map(self, zone, free, collector):
        if free:
            collector.emit_map(zone, 1)

    def combine(self, zone, counts, collector):
        collector.emit_combine(zone, sum(counts))

    def reduce(self, zone, counts, collector):
        collector.emit_reduce(zone, sum(counts))

    def on_periodic_free(self, free_by_zone, discover):
        return sum(free_by_zone.values())


def build_windowed(design_template, sink, sensors, zones):
    zone_names = [f"Z{i}" for i in range(zones)]
    design = design_template.format(zones=", ".join(zone_names))
    app = Application(analyze(design))
    app.implement("Sink", sink)
    published = []
    app.bus.subscribe(
        ("context", "Sink"), lambda event: published.append(event.value)
    )
    for index in range(sensors):
        app.create_device(
            "Sensor",
            f"s{index}",
            CallableDriver(sources={"free": lambda i=index: i % 3 == 0}),
            zone=zone_names[index % zones],
        )
    app.start()
    return app, published


def test_windowed_aggregation_models(table, benchmark):
    sensors, zones = 200, 8
    day = 24 * 3600
    sweeps = 144  # 24 hr / 10 min

    def run_comparison():
        rows = []
        results = {}
        for label, template, sink in (
            ("raw buffered", RAW_WINDOW_DESIGN, RawWindowSink()),
            ("mapreduce streaming", MR_WINDOW_DESIGN, MapReduceWindowSink()),
        ):
            app, published = build_windowed(template, sink, sensors, zones)
            app.bus.reset_stats()
            start = time.perf_counter()
            app.advance(day)
            elapsed = time.perf_counter() - start
            window = app.stats["windows"]["Sink"]
            results[label] = (published, window)
            rows.append(
                (
                    label,
                    window["mode"],
                    window["peak_buffered_values"],
                    published[0] if published else "-",
                    f"{elapsed * 1e3:.0f} ms",
                    app.bus.stats()["published"],
                )
            )
        return rows, results

    rows, results = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    table(
        f"C3b: 24-hr window over 10-min sweeps, {sensors} sensors, "
        f"{zones} zones",
        ("window mode", "accumulator", "peak buffered", "published total",
         "wall time", "bus publishes"),
        rows,
    )
    raw_published, raw_window = results["raw buffered"]
    streaming_published, streaming_window = results["mapreduce streaming"]
    # Identical published values across both pipelines.
    assert raw_published == streaming_published
    assert len(streaming_published) == 1  # one 24-hour publication
    # Peak window state: O(readings) raw, O(groups) streaming.
    assert raw_window["peak_buffered_values"] == sensors * sweeps
    assert streaming_window["peak_buffered_values"] == zones


def test_streaming_window_state_constant_in_fleet_size(table, benchmark):
    """Doubling the fleet must not grow streaming window state."""
    zones, day = 8, 24 * 3600

    def run_scaling():
        peaks = {}
        for sensors in (100, 400):
            app, __ = build_windowed(
                MR_WINDOW_DESIGN, MapReduceWindowSink(), sensors, zones
            )
            app.advance(day)
            peaks[sensors] = (
                app.stats["windows"]["Sink"]["peak_buffered_values"]
            )
        return peaks

    peaks = benchmark.pedantic(run_scaling, rounds=1, iterations=1)
    table(
        "C3b2: streaming window state vs fleet size (8 zones)",
        ("sensors", "peak buffered values"),
        [(sensors, peak) for sensors, peak in sorted(peaks.items())],
    )
    assert peaks[100] == peaks[400] == zones


def test_bench_event_dispatch(benchmark):
    app, instances = build(EVENT_DESIGN, EventSink(), 1)

    def push():
        instances[0].publish("reading", 2.0)

    benchmark(push)


def test_bench_periodic_sweep(benchmark):
    app, __ = build(PERIODIC_DESIGN, PeriodicSink(), 500)

    def sweep():
        app.advance(60)

    benchmark(sweep)


def test_bench_query_pull(benchmark):
    app, __ = build(QUERY_DESIGN, QuerySink(), 500)
    result = benchmark(app.query_context, "Sink")
    assert result == 1.0
