"""Sweep engine: one registry-ordered loop, its compiled cut, metrics.

A sweep reads a device type as one column in registration order, so
every stateful side effect keeps its sequence; what the cut promises,
that it follows every membership change, and how the gather path
counts what a sweep lost are pinned here.
"""

import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    Application,
    CacheConfig,
    CallableDriver,
    Context,
    DeviceDriver,
    RuntimeConfig,
    SimulationClock,
    StalePolicy,
    SupervisionPolicy,
    analyze,
)
from repro.errors import DeliveryError, DeviceUnavailableError
from repro.runtime.device import batches
from repro.runtime.placement import NetworkConfig
from repro.simulation.network import HopProfile
from repro.telemetry import MetricsRegistry

DESIGN = """\
device PresenceSensor {
    attribute parkingLot as LotEnum;
    source presence as Boolean;
}
enumeration LotEnum { A22, B16, D6 }

context FreeCount as Integer {
    when periodic presence from PresenceSensor <10 min>
    grouped by parkingLot
    with map as Boolean reduce as Integer
    always publish;
}

context Windowed as Integer {
    when periodic presence from PresenceSensor <10 min>
    grouped by parkingLot every <30 min>
    always publish;
}
"""

LOTS = ("A22", "B16", "D6")


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


class WindowedImpl(Context):
    def __init__(self):
        super().__init__()
        self.windows = []

    def on_periodic_presence(self, window_by_lot, discover):
        self.windows.append(
            {lot: list(values) for lot, values in window_by_lot.items()}
        )
        return sum(len(v) for v in window_by_lot.values())


def build_app(sensors=6, **config_kwargs):
    """A grouped + windowed periodic app over an interleaved fleet.

    Sensors are registered round-robin across lots so shards interleave
    in registration order — the case where a naive shard-concatenation
    would reorder the payload.
    """
    app = Application(analyze(DESIGN), RuntimeConfig(**config_kwargs))
    free = app.implement("FreeCount", FreeCountImpl())
    windowed = app.implement("Windowed", WindowedImpl())
    for index in range(sensors):
        lot = LOTS[index % len(LOTS)]
        app.create_device(
            "PresenceSensor",
            f"s-{index}",
            CallableDriver(sources={"presence": lambda i=index: i % 2 == 0}),
            parkingLot=lot,
        )
    app.start()
    return app, free, windowed


class ColumnDriver(CallableDriver):
    """A :class:`CallableDriver` with the batch capability (its class
    overrides ``read_batch``), which is what makes a sweep columnar.
    The drivers sharing one ``columns`` list are one cohort: each batch
    read they are handed is noted there and declined, so its members
    are read one at a time."""

    def __init__(self, sources, columns):
        super().__init__(sources=sources)
        self.columns = columns

    def batch_key(self, source):
        return self.columns

    def read_batch(self, entity_ids, source):
        self.columns.append(list(entity_ids))
        return NotImplemented


class AnsweringDriver(CallableDriver):
    """Reads ``presence`` as ``True`` one at a time; a batch read
    answers the shared ``column`` as it is."""

    def __init__(self, column):
        super().__init__(sources={"presence": lambda: True})
        self.column = column

    def batch_key(self, source):
        return self.column

    def read_batch(self, entity_ids, source):
        return list(self.column)


class TestOneSweepLoop:
    """Scalar and columnar sweeps are one loop over one registry-ordered
    cut; what the cut promises is pinned here."""

    SENSORS = 7  # round-robin over three lots: shards of 3, 2 and 2

    def build(self, columnar=False):
        """An application over the sensors, read by one cohort of
        column drivers or one at a time; returns it, the entity ids in
        the order the drivers read them, and the batch reads asked."""
        app = Application(analyze(DESIGN))
        driver_reads = []
        columns = []
        for index in range(self.SENSORS):
            entity_id = f"s-{index}"
            sources = {
                "presence": lambda e=entity_id, i=index: (
                    driver_reads.append(e) or i % 3 == 0
                )
            }
            app.create_device(
                "PresenceSensor",
                entity_id,
                (
                    ColumnDriver(sources, columns)
                    if columnar
                    else CallableDriver(sources=sources)
                ),
                parkingLot=LOTS[index % len(LOTS)],
            )
        return app, driver_reads, columns

    @staticmethod
    def sweep(app):
        decl = app.design.contexts["FreeCount"].decl
        return app.sweeper.sweep(decl, decl.interactions[0])

    @pytest.mark.parametrize("columnar", [False, True])
    def test_results_come_back_in_registry_order(self, columnar):
        app, driver_reads, columns = self.build(columnar)
        instances, values, dropped, failed = self.sweep(app)
        expected = [f"s-{i}" for i in range(self.SENSORS)]
        # Two columns, aligned, both in registry order.
        assert [instance.entity_id for instance in instances] == expected
        assert values == [i % 3 == 0 for i in range(self.SENSORS)]
        assert (dropped, failed) == (0, 0)
        assert driver_reads == expected
        stats = app.sweeper.stats()
        assert stats["sweeps"] == 1
        assert stats["reads"] == self.SENSORS
        assert stats["columnar_sweeps"] == (1 if columnar else 0)
        # One read_batch over the whole type, across the lots.
        assert columns == ([expected] if columnar else [])

    def test_a_proved_column_names_its_class_for_the_encoder(self):
        """A clean column ``coerce_column`` returned as it is leaves
        its exact class on the engine (what a worker's delta encoder
        takes instead of scanning value types); any other sweep, none."""
        app = Application(analyze(DESIGN))
        column = [True, False, True]
        for index in range(len(column)):
            app.create_device(
                "PresenceSensor",
                f"s-{index}",
                AnsweringDriver(column),
                parkingLot=LOTS[index % len(LOTS)],
            )
        instances, values, __, ___ = self.sweep(app)
        assert values == column and app.sweeper._exact is bool
        column[1] = DeliveryError("dark")  # a failed first attempt
        instances, values, __, failed = self.sweep(app)
        assert (values, failed) == ([True, True], 1)
        assert app.sweeper._exact is None

    @pytest.mark.parametrize("columnar", [False, True])
    def test_the_cut_is_reused_until_the_membership_moves(self, columnar):
        """The instance column belongs to the memoized cut: the very
        same list comes back while the registry partition holds, and a
        bind, an unbind and a flipped ``failed`` flag each recompile
        it."""
        app, __, ___ = self.build(columnar)

        def ids():
            instances, values, __, ___ = self.sweep(app)
            assert len(values) == len(instances)
            return instances

        first = ids()
        assert ids() is first
        app.create_device(
            "PresenceSensor",
            "s-new",
            CallableDriver(sources={"presence": lambda: True}),
            parkingLot=LOTS[0],
        )
        bound = ids()
        assert bound is not first
        assert [i.entity_id for i in bound][-1] == "s-new"
        assert ids() is bound
        app.unbind_device("s-new")
        unbound = ids()
        assert unbound is not bound
        assert [i.entity_id for i in unbound] == [
            f"s-{i}" for i in range(self.SENSORS)
        ]
        assert ids() is unbound
        # A failed flag filters the member without a version bump, so
        # the partition is not memoizable while it is up.
        app.registry.get("s-2").fail()
        flagged = ids()
        assert "s-2" not in [i.entity_id for i in flagged]
        assert ids() is not flagged
        app.registry.get("s-2").recover()
        recovered = ids()
        assert len(recovered) == self.SENSORS
        assert ids() is recovered

    def test_the_drivers_decide_the_cut(self):
        """One batch-capable member makes the type's sweep columnar —
        still one serial loop, its one-member cohort demoted to the
        scalar read with the rest — and a driver swap re-decides it."""
        app, __, columns = self.build()

        def sweep():
            before = app.sweeper.stats()
            self.sweep(app)
            after = app.sweeper.stats()
            return tuple(
                after[key] - before[key]
                for key in ("columnar_sweeps", "batch_demoted")
            )

        assert sweep() == (0, 0)  # the reference cut
        scalar = app.registry.get("s-4").swap_driver(
            ColumnDriver({"presence": lambda: True}, columns)
        )
        assert sweep() == (1, self.SENSORS)
        app.registry.get("s-4").swap_driver(scalar)
        assert sweep() == (0, 0)
        assert columns == []  # below min_column: never a batch read

    def test_serial_scalar_reads_in_registration_order(self):
        """Shards interleave in registration order; the reference loop
        must still poll s-0, s-1, s-2, ... so sampler RNG draws and
        breaker probes keep their sequence."""
        app, driver_reads, __ = self.build()
        self.sweep(app)
        assert driver_reads == [f"s-{i}" for i in range(self.SENSORS)]


CHURN = analyze(
    """\
device Meter {
    attribute parkingLot as LotEnum;
    source level as Integer;
}
enumeration LotEnum { A22, B16, D6 }

context Levels as Integer {
    when periodic level from Meter <10 min>
    grouped by parkingLot
    always publish;
}

context Windowed as Integer {
    when periodic level from Meter <10 min>
    grouped by parkingLot every <20 min>
    always publish;
}

context Busiest as Integer {
    when periodic level from Meter <10 min>
    grouped by parkingLot
    with map as Integer reduce as Integer
    always publish;
}
"""
)


class Fleet:
    """What the meters of one application read: a pure function of
    (entity id, now) on that application's clock."""

    def __init__(self, clock):
        self.clock = clock

    def level(self, entity_id):
        stamp = f"{entity_id}@{self.clock.now()}"
        return zlib.crc32(stamp.encode()) % 100


class ScalarMeter(DeviceDriver):
    """Reads one entity at a time, 100 above what a batch meter reads:
    a member read through the wrong driver shows in the payload."""

    def __init__(self, fleet):
        self.fleet = fleet

    def read(self, source):
        return 100 + self.fleet.level(self.instance.entity_id)


class BatchMeter(ScalarMeter):
    """Reads columns; all batch meters of a fleet are one cohort."""

    def read(self, source):
        return self.fleet.level(self.instance.entity_id)

    def batch_key(self, source):
        return self.fleet

    def read_batch(self, entity_ids, source):
        return [self.fleet.level(entity_id) for entity_id in entity_ids]


class Recorder(Context):
    def __init__(self):
        super().__init__()
        self.deliveries = []

    def on_periodic_level(self, by_lot, discover):
        # Items, not a dict: the group order is part of the payload.
        self.deliveries.append(
            [(lot, list(values)) for lot, values in by_lot.items()]
        )
        return sum(len(values) for values in by_lot.values())


class Busiest(Context):
    def __init__(self):
        super().__init__()
        self.deliveries = []

    def map(self, lot, level, collector):
        collector.emit_map(lot, level)

    def reduce(self, lot, levels, collector):
        collector.emit_reduce(lot, max(levels))

    def on_periodic_level(self, by_lot, discover):
        self.deliveries.append(list(by_lot.items()))
        return max(by_lot.values(), default=0)


class TestChurnMatchesAFreshApplication:
    """Random scripts of binds and unbinds (under freed ids too),
    ``fail()`` / ``recover()``, a ``failed`` flag set by assignment and
    ``swap_driver`` over a fleet that mixes a batching and a scalar
    driver, with the read cache off and on.  After every step the
    memoized sweep column, cut, cohort plans and (with the cache) the
    column answers the second and third contexts over the source get
    must deliver what an application built from scratch with the live
    membership, in the same registration order, delivers — and the
    registry's sweep column is the very same list until something
    moves it."""

    POOL = 6
    PERIOD = 600

    steps = st.one_of(
        st.tuples(
            st.just("bind"),
            st.integers(0, POOL - 1),
            st.sampled_from(LOTS),
            st.booleans(),
        ),
        st.tuples(
            st.sampled_from(["unbind", "fail", "recover", "assign", "swap"]),
            st.integers(0, 30),
        ),
    )

    @staticmethod
    def meter(fleet, batching):
        return (BatchMeter if batching else ScalarMeter)(fleet)

    def build(self, members, start, cache):
        """An application over ``members`` — ``(entity id, lot,
        batching)`` in registration order — whose clock starts at
        ``start``; returns it, its fleet and its three recorders."""
        app = Application(
            CHURN,
            RuntimeConfig(
                clock=SimulationClock(start),
                cache=CacheConfig(enabled=cache),
            ),
        )
        recorders = [
            app.implement("Levels", Recorder()),
            app.implement("Windowed", Recorder()),
            app.implement("Busiest", Busiest()),
        ]
        fleet = Fleet(app.clock)
        for entity_id, lot, batching in members:
            app.create_device(
                "Meter", entity_id, self.meter(fleet, batching), parkingLot=lot
            )
        app.start()
        return app, fleet, recorders

    def apply(self, app, fleet, live, step):
        """Run one step on ``app``; returns whether it moved the swept
        membership."""
        if step[0] == "bind":
            __, index, lot, batching = step
            entity_id = f"m-{index}"
            if entity_id in app.registry:
                return False
            meter = self.meter(fleet, batching)
            live.append(
                app.create_device("Meter", entity_id, meter, parkingLot=lot)
            )
            return True
        if not live:
            return False
        kind, index = step
        instance = live[index % len(live)]
        was = instance.failed
        if kind == "unbind":
            app.unbind_device(instance.entity_id)
            live.remove(instance)
            return True
        if kind == "fail":
            instance.fail()
        elif kind == "recover":
            instance.recover()
        elif kind == "assign":
            instance.failed = True
        else:
            batching = not batches(instance.driver)
            instance.swap_driver(self.meter(fleet, batching))
        return instance.failed != was

    @settings(max_examples=60, deadline=None)
    @given(st.lists(steps, min_size=1, max_size=10))
    def test_every_step_delivers_what_a_fresh_application_does(
        self, script
    ):
        self.check(script, cache=False)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(steps, min_size=1, max_size=10))
    def test_every_step_delivers_it_with_the_read_cache_too(self, script):
        self.check(script, cache=True)

    def check(self, script, cache):
        app, fleet, recorders = self.build([], 0.0, cache)
        registry = app.registry
        live = []  # what is bound, in registration order
        for step in script:
            before = registry.sweep_column("Meter")
            moved = self.apply(app, fleet, live, step)
            column = registry.sweep_column("Meter")
            swept = [instance for instance in live if not instance.failed]
            assert column == swept
            # A failed member is filtered on every call, unmemoized.
            flagged = len(swept) != len(live)
            assert (column is before) == (not (moved or flagged))
            assert (registry.sweep_column("Meter") is column) == (
                not flagged
            )
            # Two sweeps, one window, all under this step's membership.
            start = app.clock.now()
            marks = [len(recorder.deliveries) for recorder in recorders]
            app.advance(2 * self.PERIOD)
            fresh, __, fresh_recorders = self.build(
                [
                    (
                        instance.entity_id,
                        instance.attributes["parkingLot"],
                        batches(instance.driver),
                    )
                    for instance in swept
                ],
                start,
                cache,
            )
            fresh.advance(2 * self.PERIOD)
            assert len(fresh_recorders[0].deliveries) == 2
            for recorder, mark, fresh_recorder in zip(
                recorders, marks, fresh_recorders
            ):
                assert recorder.deliveries[mark:] == fresh_recorder.deliveries
            if cache:
                # Levels' sweep read the column, the others' were hits.
                assert fresh.read_cache.stats()["hits"] == 4 * len(swept)


class TestGatherErrorSplit:
    def test_read_failures_count_separately(self):
        app, free, __ = build_app(
            supervision=SupervisionPolicy(
                failure_threshold=100, quarantine_after=None
            ),
            stale=StalePolicy("skip"),
        )
        app.registry.get("s-0").driver._sources["presence"] = _raise
        app.advance(600)
        assert app.stats["gather_read_failed"] > 0
        assert app.stats["gather_network_dropped"] == 0
        assert app.stats["gather_errors"] == (
            app.stats["gather_read_failed"]
        )
        assert app.metrics.value("app_gather_read_failed_total") == (
            app.stats["gather_read_failed"]
        )
        assert app.metrics.value("app_gather_errors_total") == (
            app.stats["gather_errors"]
        )

    def test_network_drops_count_separately(self):
        app, free, __ = build_app(
            network=NetworkConfig(
                hops={"link": HopProfile(loss=0.999)},
                seed=1,
                apply_to_reads=True,
            ),
        )
        app.advance(600)
        assert app.stats["gather_network_dropped"] > 0
        assert app.stats["gather_read_failed"] == 0
        assert app.metrics.value("app_gather_network_dropped_total") == (
            app.stats["gather_network_dropped"]
        )
        assert app.stats["gather_errors"] == (
            app.stats["gather_network_dropped"]
        )

    def test_fail_mode_still_propagates_through_the_engine(self):
        app, __, __ = build_app(
            supervision=SupervisionPolicy(failure_threshold=100),
            stale=StalePolicy("fail"),
        )
        app.registry.get("s-0").driver._sources["presence"] = _raise
        with pytest.raises(DeviceUnavailableError):
            app.advance(600)


def _raise():
    raise DeliveryError("sensor is dark")


class TestSweepMetrics:
    def test_engine_exports_histograms(self):
        metrics = MetricsRegistry()
        app, __, __ = build_app(metrics=metrics)
        app.advance(600)
        assert metrics.get("sweep_duration_seconds").kind == "histogram"
        duration = metrics.get("sweep_duration_seconds").samples()[0][1]
        assert duration.count == app.sweeper.stats()["sweeps"]
        assert metrics.get("sweep_batch_column_size").kind == "histogram"


class TestInstancesOfKeywordShim:
    """The health/failure filters are keyword-only; a positional one
    is Python's own ``TypeError``."""

    def test_positional_and_keyword_duplicate_raises(self):
        app, __, __ = build_app()
        with pytest.raises(TypeError, match="positional"):
            app.registry.instances_of(
                "PresenceSensor", True, include_failed=True
            )

    def test_too_many_positionals_raise(self):
        app, __, __ = build_app()
        with pytest.raises(TypeError, match="positional"):
            app.registry.instances_of("PresenceSensor", True)

    def test_attribute_filters_stay_keyword(self):
        app, __, __ = build_app()
        matches = app.registry.instances_of(
            "PresenceSensor", parkingLot="A22"
        )
        assert [m.entity_id for m in matches] == ["s-0", "s-3"]
