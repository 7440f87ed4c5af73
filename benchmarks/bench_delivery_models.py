"""C3 — the three data-delivery models (§IV).

Same infrastructure, same data demand, three designs: event-driven push,
periodic gathering, and query-driven pull.  Reproduced shape (after the
WSN taxonomy the paper cites): event-driven cost tracks the *change*
rate, periodic cost tracks the *polling* rate times fleet size, and
query-driven pays only per consumer demand.
"""

import time

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
