"""Sweep engine: mode selection, deterministic merge, equivalence.

The load-bearing invariant is that a threaded sweep is observationally
identical to the serial loop — same grouped payloads, same window
closures — for any worker count and batch size; the hypothesis property
here holds the SweepEngine to it.
"""

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    Application,
    CallableDriver,
    Context,
    RuntimeConfig,
    SimulationClock,
    StalePolicy,
    SupervisionPolicy,
    SweepConfig,
    SweepEngine,
    WallClock,
    analyze,
)
from repro.errors import DeliveryError, DeviceUnavailableError
from repro.runtime.registry import EntityRegistry
from repro.runtime.placement import NetworkConfig
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


def column_of(read_one):
    """A per-instance read as the column reader a sweep runs."""
    return lambda instances: [read_one(instance) for instance in instances]


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


def build_app(sweep=None, sensors=6, **config_kwargs):
    """A grouped + windowed periodic app over an interleaved fleet.

    Sensors are registered round-robin across lots so shards interleave
    in registration order — the case where a naive shard-concatenation
    merge would reorder the payload.
    """
    config = RuntimeConfig(
        sweep=sweep if sweep is not None else SweepConfig(),
        **config_kwargs,
    )
    app = Application(analyze(DESIGN), config)
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


class TestSweepConfig:
    def test_defaults(self):
        config = SweepConfig()
        assert config.mode == "auto"
        assert config.workers == 8
        assert config.batch_size == 16

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mode": "fibrous"},
            {"workers": 0},
            {"batch_size": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SweepConfig(**kwargs)

    def test_runtime_config_rejects_non_sweep_config(self):
        with pytest.raises(TypeError):
            RuntimeConfig(sweep="threaded")

    def test_runtime_config_carries_sweep(self):
        config = RuntimeConfig(sweep=SweepConfig(mode="serial"))
        assert config.sweep.mode == "serial"
        assert "SweepConfig" in config.describe()["sweep"]


class TestModeSelection:
    def test_auto_forces_serial_under_simulation_clock(self):
        engine = SweepEngine(EntityRegistry(), SimulationClock())
        assert engine.mode_for_clock() == "serial"

    def test_auto_selects_threaded_under_wall_clock(self):
        clock = WallClock()
        engine = SweepEngine(EntityRegistry(), clock)
        assert engine.mode_for_clock() == "threaded"
        clock.shutdown()

    def test_explicit_modes_override_the_clock(self):
        registry, clock = EntityRegistry(), SimulationClock()
        assert (
            SweepEngine(
                registry, clock, SweepConfig(mode="threaded")
            ).mode_for_clock()
            == "threaded"
        )
        wall = WallClock()
        assert (
            SweepEngine(
                registry, wall, SweepConfig(mode="serial")
            ).mode_for_clock()
            == "serial"
        )
        wall.shutdown()

    def test_simulation_app_sweeps_serially(self):
        """An app on a SimulationClock with the default (auto) config
        never touches the thread pool: replay stays deterministic."""
        app, free, __ = build_app()
        app.advance(3600)
        stats = app.sweeper.stats()
        assert stats["sweeps"] > 0
        assert stats["threaded_sweeps"] == 0
        assert stats["serial_sweeps"] == stats["sweeps"]
        assert free.deliveries  # the sweeps actually delivered

    def test_forced_threaded_app_uses_the_pool(self):
        app, free, __ = build_app(sweep=SweepConfig(mode="threaded"))
        app.advance(1800)
        stats = app.sweeper.stats()
        assert stats["threaded_sweeps"] == stats["sweeps"] > 0
        assert free.deliveries
        app.stop()  # shuts the pool down


class TestDeterministicMerge:
    def test_threaded_results_in_registry_order(self):
        app, __, __ = build_app(sweep=SweepConfig(mode="threaded"))
        seen = []
        lock = threading.Lock()

        def read_one(instance):
            with lock:
                seen.append(instance.entity_id)
            return instance.entity_id

        instances, results = app.sweeper.sweep(
            "PresenceSensor", column_of(read_one)
        )
        merged = [instance.entity_id for instance in instances]
        assert merged == [f"s-{i}" for i in range(6)]
        assert results == merged  # aligned with the instance column
        assert sorted(seen) == sorted(merged)
        app.stop()

    def test_iter_shards_positions_reconstruct_registry_order(self):
        app, __, __ = build_app()
        shards = app.registry.iter_shards("PresenceSensor")
        assert sorted(key for key, __, __ in shards) == sorted(LOTS)
        # Per shard, two aligned columns: positions and instances.
        flattened = sorted(
            (pos, inst.entity_id)
            for __, positions, members in shards
            for pos, inst in zip(positions, members, strict=True)
        )
        assert [entity for __, entity in flattened] == [
            f"s-{i}" for i in range(6)
        ]
        # Within a shard, members keep registration order.
        for __, positions, __ in shards:
            assert positions == sorted(positions)

    def test_shard_attribute_override_and_attribute_less_types(self):
        app, __, __ = build_app()
        shards = app.registry.iter_shards(
            "PresenceSensor", attribute="parkingLot"
        )
        assert {key for key, __, __ in shards} == set(LOTS)


class ColumnDriver(CallableDriver):
    """A :class:`CallableDriver` with the batch capability (its class
    overrides ``read_batch``), which is what makes a sweep columnar."""

    def read_batch(self, entity_ids, source):
        return NotImplemented


class TestOneSweepLoop:
    """Serial/threaded x scalar/columnar are one loop over differently
    cut task lists; what each cut promises is pinned here."""

    SENSORS = 7  # round-robin over three lots: shards of 3, 2 and 2

    def build(self, mode, batch_size=2, driver=CallableDriver):
        app = Application(
            analyze(DESIGN),
            RuntimeConfig(
                sweep=SweepConfig(mode=mode, workers=3, batch_size=batch_size)
            ),
        )
        driver_reads = []
        for index in range(self.SENSORS):
            entity_id = f"s-{index}"
            app.create_device(
                "PresenceSensor",
                entity_id,
                driver(
                    sources={
                        "presence": lambda e=entity_id: (
                            driver_reads.append(e) or True
                        )
                    }
                ),
                parkingLot=LOTS[index % len(LOTS)],
            )
        return app, driver_reads

    @pytest.mark.parametrize("mode", ["serial", "threaded"])
    @pytest.mark.parametrize("columnar", [False, True])
    def test_results_come_back_in_registry_order(self, mode, columnar):
        app, driver_reads = self.build(
            mode, driver=ColumnDriver if columnar else CallableDriver
        )
        columns = []
        lock = threading.Lock()

        def read_one(instance):
            return (instance.entity_id, instance.read("presence"))

        def read_column(instances):
            with lock:
                columns.append([i.entity_id for i in instances])
            return [read_one(instance) for instance in instances]

        instances, results = app.sweeper.sweep(
            "PresenceSensor",
            column_of(read_one),
            read_column,
        )
        expected = [f"s-{i}" for i in range(self.SENSORS)]
        # Two columns, aligned, both in registry order.
        assert [instance.entity_id for instance in instances] == expected
        assert results == [(entity_id, True) for entity_id in expected]
        assert sorted(driver_reads) == expected
        stats = app.sweeper.stats()
        assert stats["reads"] == self.SENSORS
        assert stats[f"{mode}_sweeps"] == 1
        assert stats["columnar_sweeps"] == (1 if columnar else 0)
        if columnar:
            # One read_column call per attribute shard, each shard's
            # members in registration order.
            assert sorted(columns) == [
                ["s-0", "s-3", "s-6"],
                ["s-1", "s-4"],
                ["s-2", "s-5"],
            ]
        if mode == "threaded":
            # Columnar: one pool task per shard.  Scalar: batch_size
            # slices that never span shards — ceil(3/2) + 1 + 1.
            assert stats["batches"] == (3 if columnar else 4)
        else:
            assert stats["batches"] == 0
        app.sweeper.close()

    @pytest.mark.parametrize("mode", ["serial", "threaded"])
    @pytest.mark.parametrize("columnar", [False, True])
    def test_the_cut_is_reused_until_the_membership_moves(
        self, mode, columnar
    ):
        """The instance column belongs to the memoized cut: the very
        same list comes back while the registry partition holds, and a
        bind, an unbind and a flipped ``failed`` flag each recompile
        it."""
        app, __ = self.build(
            mode, driver=ColumnDriver if columnar else CallableDriver
        )

        def ids():
            instances, results = app.sweeper.sweep(
                "PresenceSensor",
                lambda column: [i.entity_id for i in column],
            )
            assert results == [i.entity_id for i in instances]
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
        app.sweeper.close()

    def test_the_drivers_decide_the_cut(self):
        """One batch-capable member makes the type's sweep columnar —
        one task per shard — and a driver swap re-decides it."""
        app, __ = self.build("serial")
        columns = []

        def read_column(instances):
            columns.append([i.entity_id for i in instances])
            return [True] * len(instances)

        def sweep():
            del columns[:]
            app.sweeper.sweep("PresenceSensor", read_column)
            return len(columns), app.sweeper.stats()["columnar_sweeps"]

        assert sweep() == (1, 0)  # the reference cut
        scalar = app.registry.get("s-4").swap_driver(
            ColumnDriver(sources={"presence": lambda: True})
        )
        assert sweep() == (3, 1)
        app.registry.get("s-4").swap_driver(scalar)
        assert sweep() == (1, 1)

    def test_serial_scalar_reads_in_registration_order(self):
        """Shards interleave in registration order; the reference loop
        must still poll s-0, s-1, s-2, ... so sampler RNG draws and
        breaker probes keep their sequence."""
        app, driver_reads = self.build("serial")
        app.sweeper.sweep(
            "PresenceSensor",
            column_of(lambda instance: instance.read("presence")),
        )
        assert driver_reads == [f"s-{i}" for i in range(self.SENSORS)]

    def test_an_error_in_one_task_surfaces_after_the_rest_ran(self):
        app, __ = self.build("threaded", batch_size=1)
        ran = []
        lock = threading.Lock()

        def read_one(instance):
            with lock:
                ran.append(instance.entity_id)
            if instance.entity_id == "s-3":
                raise DeliveryError("boom")
            return True

        with pytest.raises(DeliveryError, match="boom"):
            app.sweeper.sweep("PresenceSensor", column_of(read_one))
        assert len(ran) == self.SENSORS  # every future was drained
        app.sweeper.close()


@settings(max_examples=12, deadline=None)
@given(
    workers=st.integers(min_value=1, max_value=12),
    batch_size=st.integers(min_value=1, max_value=24),
    sensors=st.integers(min_value=1, max_value=17),
)
def test_serial_and_threaded_sweeps_are_equivalent(
    workers, batch_size, sensors
):
    """Grouped payloads and window closures are identical between the
    serial loop and the thread-pool fan-out for any worker count and
    batch size — the merge-order guarantee, end to end."""
    serial_app, serial_free, serial_windowed = build_app(
        sweep=SweepConfig(mode="serial"), sensors=sensors
    )
    threaded_app, threaded_free, threaded_windowed = build_app(
        sweep=SweepConfig(
            mode="threaded", workers=workers, batch_size=batch_size
        ),
        sensors=sensors,
    )
    serial_app.advance(3600)
    threaded_app.advance(3600)
    assert serial_free.deliveries == threaded_free.deliveries
    assert serial_windowed.windows == threaded_windowed.windows
    assert serial_free.deliveries  # six sweeps happened
    threaded_app.stop()


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
            network=NetworkConfig(loss=0.999, seed=1, apply_to_reads=True),
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
    def test_engine_exports_histogram_gauge_and_shard_counters(self):
        metrics = MetricsRegistry()
        app, __, __ = build_app(metrics=metrics)
        app.advance(600)
        assert metrics.get("sweep_duration_seconds").kind == "histogram"
        duration = metrics.get("sweep_duration_seconds").samples()[0][1]
        assert duration.count == app.sweeper.stats()["sweeps"]
        assert metrics.value("sweep_in_flight_batches") == 0
        per_shard = {
            dict(labels)["shard"]: instrument.value
            for labels, instrument in metrics.get(
                "sweep_shard_reads_total"
            ).samples()
        }
        assert set(per_shard) == set(LOTS)
        assert sum(per_shard.values()) == app.sweeper.stats()["reads"]


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
