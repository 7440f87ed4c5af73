"""Periodic gathering: polling, grouping, MapReduce, windows, queries."""

from repro.runtime.app import Application
from repro.runtime.component import Context
from repro.runtime.device import CallableDriver
from repro.sema.analyzer import analyze

DESIGN = """\
device PresenceSensor {
    attribute parkingLot as LotEnum;
    source presence as Boolean;
}
enumeration LotEnum { A22, B16 }

context FreeCount as Integer {
    when periodic presence from PresenceSensor <10 min>
    grouped by parkingLot
    with map as Boolean reduce as Integer
    always publish;
}

context RawSweep as Integer {
    when periodic presence from PresenceSensor <10 min>
    always publish;
}

context Windowed as Integer {
    when periodic presence from PresenceSensor <10 min>
    grouped by parkingLot every <30 min>
    always publish;
}

context OnDemand as Integer {
    when periodic presence from PresenceSensor <10 min>
    grouped by parkingLot
    no publish;
    when required;
}
"""


class FreeCountImpl(Context):
    def __init__(self):
        super().__init__()
        self.deliveries = []

    def map(self, lot, presence, collector):
        if not presence:
            collector.emit_map(lot, True)

    def reduce(self, lot, values, collector):
        collector.emit_reduce(lot, len(values))

    def on_periodic_presence(self, by_lot, discover):
        self.deliveries.append(dict(by_lot))
        return sum(by_lot.values())


class RawSweepImpl(Context):
    def __init__(self):
        super().__init__()
        self.sweeps = []

    def on_periodic_presence(self, readings, discover):
        self.sweeps.append(readings)
        return len(readings)


class WindowedImpl(Context):
    def __init__(self):
        super().__init__()
        self.windows = []

    def on_periodic_presence(self, window_by_lot, discover):
        self.windows.append(window_by_lot)
        return sum(len(v) for v in window_by_lot.values())


class OnDemandImpl(Context):
    def __init__(self):
        super().__init__()
        self.state = 0

    def on_periodic_presence(self, by_lot, discover):
        self.state = sum(len(v) for v in by_lot.values())
        return None

    def when_required(self, discover):
        return self.state


def build():
    app = Application(analyze(DESIGN))
    app.implement("FreeCount", FreeCountImpl())
    app.implement("RawSweep", RawSweepImpl())
    app.implement("Windowed", WindowedImpl())
    app.implement("OnDemand", OnDemandImpl())
    occupancy = {}
    for lot, count in [("A22", 3), ("B16", 2)]:
        for index in range(count):
            sid = f"{lot}-{index}"
            occupancy[sid] = index == 0  # first space of each lot occupied
            app.create_device(
                "PresenceSensor",
                sid,
                CallableDriver(
                    sources={"presence": (lambda s=sid: occupancy[s])}
                ),
                parkingLot=lot,
            )
    app.start()
    return app, occupancy


class TestGroupedMapReduce:
    def test_figure_10_semantics(self):
        app, __ = build()
        app.advance(600)
        free_count = app.implementation("FreeCount")
        assert free_count.deliveries == [{"A22": 2, "B16": 1}]

    def test_period_respected(self):
        app, __ = build()
        app.advance(599)
        assert app.implementation("FreeCount").deliveries == []
        app.advance(1)
        assert len(app.implementation("FreeCount").deliveries) == 1
        app.advance(1200)
        assert len(app.implementation("FreeCount").deliveries) == 3

    def test_readings_reflect_current_state(self):
        app, occupancy = build()
        app.advance(600)
        for key in occupancy:
            occupancy[key] = True  # everything occupied now
        app.advance(600)
        assert app.implementation("FreeCount").deliveries[-1] == {}


class TestUngroupedSweep:
    def test_readings_are_gather_readings(self):
        app, __ = build()
        app.advance(600)
        (sweep,) = app.implementation("RawSweep").sweeps
        assert len(sweep) == 5
        assert {r.device.entity_id for r in sweep} == {
            "A22-0", "A22-1", "A22-2", "B16-0", "B16-1",
        }
        assert all(isinstance(r.value, bool) for r in sweep)


class TestWindowedAccumulation:
    def test_window_fires_once_per_three_periods(self):
        app, __ = build()
        app.advance(1800)
        windowed = app.implementation("Windowed")
        assert len(windowed.windows) == 1
        window = windowed.windows[0]
        # 3 deliveries x 3 sensors for A22, x 2 for B16
        assert len(window["A22"]) == 9
        assert len(window["B16"]) == 6

    def test_windows_do_not_overlap(self):
        app, __ = build()
        app.advance(3600)
        assert len(app.implementation("Windowed").windows) == 2


class TestQueryDriven:
    def test_when_required_served_and_checked(self):
        app, __ = build()
        app.advance(600)
        assert app.query_context("OnDemand") == 5

    def test_failed_sensor_skipped_in_sweep(self):
        app, __ = build()
        app.registry.get("A22-0").fail()
        app.advance(600)
        (sweep,) = app.implementation("RawSweep").sweeps
        assert len(sweep) == 4
        assert app.stats["gather_errors"] == 0  # hidden, not errored

    def test_runtime_bound_sensor_joins_next_sweep(self):
        app, __ = build()
        app.advance(600)
        app.create_device(
            "PresenceSensor",
            "A22-99",
            CallableDriver(sources={"presence": lambda: False}),
            parkingLot="A22",
        )
        app.advance(600)
        sweeps = app.implementation("RawSweep").sweeps
        assert len(sweeps[0]) == 5
        assert len(sweeps[1]) == 6
