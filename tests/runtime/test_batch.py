"""Columnar batch reads: equivalence, demotion, metrics, cache interplay.

A sweep reads columns when the swept drivers implement ``read_batch``.
The load-bearing invariant is that this capability changes *how fast*
sweeps read, never *what* they deliver: for any fleet size, cohort
threshold and sweep mode, the grouped payloads and window closures are
identical to those of the same drivers with the capability taken away
(:class:`ScalarSubstrateDriver`) — the hypothesis property here holds
the whole gather pipeline to it.  A second family of tests pins the
demotion contract: entities that cannot batch (failed, quarantined,
unsupported drivers, undersized cohorts) fall back to the scalar path
with full supervision accounting, without poisoning the columns of
their healthy neighbours.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    Application,
    BatchConfig,
    CacheConfig,
    CallableDriver,
    Context,
    DeviceDriver,
    RuntimeConfig,
    SupervisionPolicy,
    SweepConfig,
    analyze,
)
from repro.faults.policy import QUARANTINED
from repro.simulation.sensors import FleetSubstrate, SubstrateDriver

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
PERIOD = 600.0


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


class ScalarSubstrateDriver(SubstrateDriver):
    """The same driver without the capability: one read at a time."""

    read_batch = DeviceDriver.read_batch


def build_app(
    batch=None, sensors=6, seed=7, driver=SubstrateDriver, **config_kwargs
):
    """A grouped + windowed periodic app over one shared substrate.

    Sensors register round-robin across lots so shards interleave in
    registration order, and every ``driver`` shares one
    :class:`FleetSubstrate` — the batch-eligible shape when the driver
    class reads columns.
    """
    config = RuntimeConfig(
        batch=batch if batch is not None else BatchConfig(),
        **config_kwargs,
    )
    app = Application(analyze(DESIGN), config)
    free = app.implement("FreeCount", FreeCountImpl())
    windowed = app.implement("Windowed", WindowedImpl())
    substrate = FleetSubstrate(
        app.clock, seed=seed, models={"presence": lambda draw: draw < 0.5}
    )
    for index in range(sensors):
        app.create_device(
            "PresenceSensor",
            f"s-{index}",
            driver(substrate, sources=("presence",)),
            parkingLot=LOTS[index % len(LOTS)],
        )
    app.start()
    return app, free, windowed, substrate


class TestBatchConfig:
    def test_defaults_are_off(self):
        """``enabled`` stays, off, only so configs passing it build."""
        config = BatchConfig()
        assert config.enabled is False
        assert config.min_column == 2

    @pytest.mark.parametrize("enabled", [False, True])
    def test_enabled_selects_nothing(self, enabled):
        """The drivers decide which path a sweep takes, whatever the
        flag says."""
        for driver, columnar in (
            (SubstrateDriver, True),
            (ScalarSubstrateDriver, False),
        ):
            app, __, __, substrate = build_app(
                batch=BatchConfig(enabled=enabled), driver=driver
            )
            app.advance(PERIOD)
            assert (substrate.batch_reads > 0) is columnar
            assert (substrate.scalar_reads > 0) is not columnar

    def test_min_column_validated(self):
        with pytest.raises(ValueError):
            BatchConfig(min_column=0)

    def test_frozen(self):
        with pytest.raises(Exception):
            BatchConfig().enabled = True

    def test_runtime_config_validates_type(self):
        with pytest.raises(TypeError):
            RuntimeConfig(batch=object())


class TestBatchEquivalence:
    """A batching driver == its scalar twin, payload for payload."""

    @settings(max_examples=12, deadline=None)
    @given(
        sensors=st.integers(min_value=1, max_value=12),
        min_column=st.integers(min_value=1, max_value=4),
        mode=st.sampled_from(["serial", "threaded"]),
        periods=st.integers(min_value=1, max_value=4),
    )
    def test_payloads_and_windows_identical(
        self, sensors, min_column, mode, periods
    ):
        sweep = SweepConfig(mode=mode, workers=3)
        baseline, base_free, base_windowed, __ = build_app(
            driver=ScalarSubstrateDriver,
            sensors=sensors,
            sweep=sweep,
        )
        batched, batch_free, batch_windowed, __ = build_app(
            batch=BatchConfig(min_column=min_column),
            sensors=sensors,
            sweep=sweep,
        )
        baseline.advance(PERIOD * periods)
        batched.advance(PERIOD * periods)
        assert batch_free.deliveries == base_free.deliveries
        assert batch_windowed.windows == base_windowed.windows

    def test_batch_reads_actually_happen(self):
        app, free, __, substrate = build_app(sensors=9)
        app.advance(PERIOD)
        stats = app.sweeper.stats()
        assert stats["columnar_sweeps"] >= 1
        assert stats["batch_reads"] >= 1
        assert substrate.batch_reads >= 1
        # Two sweeps per period (FreeCount + Windowed); the second one
        # rides the first one's tick memo, but both go columnar.
        assert free.deliveries

    def test_disabled_batch_never_touches_read_batch(self):
        """A driver class without ``read_batch`` is never asked for a
        column, and its type never takes the columnar path."""
        app, __, __, substrate = build_app(
            driver=ScalarSubstrateDriver, sensors=6
        )
        app.advance(PERIOD)
        assert substrate.batch_reads == 0
        assert app.sweeper.stats()["columnar_sweeps"] == 0
        assert substrate.scalar_reads > 0

    def test_one_round_trip_per_cohort_not_per_device(self):
        """What batching buys at scale: a sweep costs the gateway one
        round trip per lot cohort, not one per sensor — O(cohorts), so
        the ratio grows with the fleet."""
        sensors, sweeps = 900, 2  # FreeCount + Windowed, each period
        round_trips = {}
        for driver in (ScalarSubstrateDriver, SubstrateDriver):
            app, __, __, substrate = build_app(driver=driver, sensors=sensors)
            app.advance(PERIOD)
            round_trips[driver] = (
                substrate.scalar_reads,
                substrate.batch_reads,
            )
        assert round_trips[ScalarSubstrateDriver] == (sweeps * sensors, 0)
        assert round_trips[SubstrateDriver] == (0, sweeps * len(LOTS))


class TestDemotion:
    def test_small_cohorts_demote_to_scalar(self):
        app, free, __, substrate = build_app(
            batch=BatchConfig(min_column=10), sensors=6
        )
        app.advance(PERIOD)
        # Shards of 2 sensors never reach min_column=10: all scalar.
        assert substrate.batch_reads == 0
        assert app.sweeper.stats()["batch_demoted"] > 0
        assert free.deliveries

    def test_driver_without_batch_support_demotes(self):
        """Beside batching drivers, one without the capability demotes
        out of the columnar sweep; a type with none of them never forms
        a cohort, so nothing demotes."""
        stats = {}
        for mixed in (False, True):
            app = Application(analyze(DESIGN), RuntimeConfig())
            free = app.implement("FreeCount", FreeCountImpl())
            app.implement("Windowed", WindowedImpl())
            for index in range(4):
                app.create_device(
                    "PresenceSensor",
                    f"s-{index}",
                    CallableDriver(sources={"presence": lambda: True}),
                    parkingLot=LOTS[index % len(LOTS)],
                )
            if mixed:
                occupied = FleetSubstrate(
                    app.clock, models={"presence": lambda draw: True}
                )
                for index in range(4, 6):
                    app.create_device(
                        "PresenceSensor",
                        f"s-{index}",
                        occupied.driver("presence"),
                        parkingLot="A22",
                    )
            app.start()
            app.advance(PERIOD)
            stats[mixed] = app.sweeper.stats()
            assert free.deliveries and free.deliveries[0] == {}
        assert stats[False]["columnar_sweeps"] == 0
        assert stats[False]["batch_reads"] == 0
        assert stats[False]["batch_demoted"] == 0
        # Two sweeps a period, each one batch read and four demotions.
        assert stats[True]["columnar_sweeps"] == 2
        assert stats[True]["batch_reads"] == 2
        assert stats[True]["batch_demoted"] == 8

    def test_failed_device_demotes_without_poisoning_column(self):
        kwargs = dict(sensors=6, stale=None)
        baseline, base_free, __, __ = build_app(
            driver=ScalarSubstrateDriver, **kwargs
        )
        batched, batch_free, __, __ = build_app(**kwargs)
        for app in (baseline, batched):
            app.registry.get("s-0").fail()
        baseline.advance(PERIOD)
        batched.advance(PERIOD)
        # The failed entity drops out of both runs the same way (the
        # registry hides hard-failed instances from sweeps), and its
        # shard-mate — now a cohort of one — demotes to scalar without
        # touching the other shards' columns.
        assert batch_free.deliveries == base_free.deliveries
        assert batched.sweeper.stats()["batch_demoted"] >= 1
        assert batched.stats["gather_read_failed"] == 0

    def test_a_cohort_plan_never_outlives_the_membership_it_was_cut_for(
        self,
    ):
        """``failed`` flags move members in and out of a sweep shard
        without a registry version bump.  Two such memberships of the
        same length and first entity must not share a cohort plan — it
        would read an entity through another cohort's gateway."""
        batch_calls = []

        class RecordingSubstrate(FleetSubstrate):
            def read_column(self, source, entity_ids):
                batch_calls.append((self, list(entity_ids)))
                return super().read_column(source, entity_ids)

        app = Application(analyze(DESIGN), RuntimeConfig())
        free = app.implement("FreeCount", FreeCountImpl())
        app.implement("Windowed", WindowedImpl())
        gateways = [
            RecordingSubstrate(
                app.clock, seed=seed, models={"presence": lambda draw: False}
            )
            for seed in (1, 2)
        ]
        owner = {}
        for index in range(4):
            owner[f"s-{index}"] = gateways[index % 2]
            app.create_device(
                "PresenceSensor",
                f"s-{index}",
                owner[f"s-{index}"].driver("presence"),
                parkingLot="A22",
            )
        app.start()

        def fail_only(*entity_ids):
            for instance in app.registry.instances_of(
                "PresenceSensor", include_failed=True
            ):
                instance.failed = instance.entity_id in entity_ids

        # Sweep [s-0, s-2]: one gateway, one cohort of two.
        fail_only("s-1", "s-3")
        app.advance(PERIOD)
        assert batch_calls and all(
            call == (gateways[0], ["s-0", "s-2"]) for call in batch_calls
        )
        del batch_calls[:]
        demoted = app.sweeper.stats()["batch_demoted"]
        # Sweep [s-0, s-1]: same length, same first entity, same
        # registry version — two gateways, so two cohorts of one, both
        # below min_column and read one by one.
        fail_only("s-2", "s-3")
        app.advance(PERIOD)
        for gateway, entity_ids in batch_calls:
            assert all(owner[e] is gateway for e in entity_ids)
        assert batch_calls == []
        assert app.sweeper.stats()["batch_demoted"] > demoted
        assert free.deliveries[-1] == {"A22": 2}

    def test_quarantined_device_demotes_to_scalar_breaker_path(self):
        policy = SupervisionPolicy(
            failure_threshold=1, quarantine_after=1, jitter=0.0
        )
        kwargs = dict(sensors=6, supervision=policy)
        baseline, base_free, __, __ = build_app(
            driver=ScalarSubstrateDriver, **kwargs
        )
        batched, batch_free, __, batch_substrate = build_app(**kwargs)
        for app in (baseline, batched):
            supervisor = app.registry.get("s-0").supervisor
            supervisor.record_failure()
            assert supervisor.health == QUARANTINED
        baseline.advance(PERIOD)
        batched.advance(PERIOD)
        # The quarantined entity goes through the scalar path (where
        # the open breaker refuses the read — its half-open recovery
        # machinery stays in charge); its neighbours' columns match the
        # scalar run exactly.
        assert batch_free.deliveries == base_free.deliveries
        assert batched.sweeper.stats()["batch_demoted"] >= 1
        assert batch_substrate.batch_reads >= 1


class TestCacheInterplay:
    def test_fresh_cache_entries_skip_the_batch(self):
        app, free, __, substrate = build_app(
            sensors=6,
            cache=CacheConfig(enabled=True, ttl_seconds=3600.0),
        )
        app.advance(PERIOD)
        first_batches = substrate.batch_reads
        assert first_batches >= 1
        hits_before = app.read_cache.stats()["hits"]
        app.advance(PERIOD)
        # Second period: every entity is cache-fresh, so no new batch
        # reads are issued and the sweep is served as cache hits.
        assert substrate.batch_reads == first_batches
        assert app.read_cache.stats()["hits"] >= hits_before + 6
        assert len(free.deliveries) >= 1

    def test_batch_columns_populate_the_cache(self):
        app, __, __, substrate = build_app(
            sensors=6,
            cache=CacheConfig(enabled=True, ttl_seconds=3600.0),
        )
        app.advance(PERIOD)
        cache_stats = app.read_cache.stats()
        assert cache_stats["entries"] == 6
        # Each batched slot counted as a miss (the driver really ran).
        assert cache_stats["misses"] >= 6


class TestSubstrate:
    def test_scalar_and_column_agree(self):
        from repro.runtime.clock import SimulationClock

        clock = SimulationClock()
        substrate = FleetSubstrate(clock, seed=3)
        ids = [f"e-{i}" for i in range(8)]
        column = substrate.read_column("presence", ids)
        assert [substrate.value("presence", i) for i in ids] == column
        clock.advance(10.0)
        assert substrate.read_column("presence", ids) != column or True
        # Deterministic across substrates with the same seed and time.
        other = FleetSubstrate(SimulationClock(), seed=3)
        assert other.read_column("presence", ids) == column

    def test_driver_restricts_sources(self):
        from repro.errors import DeliveryError
        from repro.runtime.clock import SimulationClock

        substrate = FleetSubstrate(SimulationClock(), seed=1)
        driver = substrate.driver("presence")
        assert driver.batch_key("presence") is substrate
        assert driver.batch_key("other") is None
        with pytest.raises(DeliveryError):
            driver.read_batch(["x"], "other")

    def test_plain_driver_has_no_batch_key(self):
        driver = CallableDriver(sources={"presence": lambda: True})
        assert driver.batch_key("presence") is None
        assert driver.read_batch(["x"], "presence") is NotImplemented

    def test_substrate_driver_subclass_is_its_own_cohort(self):
        class GatewayDriver(SubstrateDriver):
            pass

        from repro.runtime.clock import SimulationClock

        substrate = FleetSubstrate(SimulationClock(), seed=1)
        a, b = substrate.driver(), GatewayDriver(substrate)
        assert a.batch_key("presence") is b.batch_key("presence")
