"""Process-sharded runtime: equivalence, routing, lifecycle, metrics.

The load-bearing invariant mirrors the batch/cache suites:
``ShardConfig(enabled=True)`` changes *where* sweeps run (worker
processes), never *what* they deliver — for any fleet size, worker
count and cache/batch combination, the context deliveries, window
closures and published values are identical to the single-process run.
A second family pins the cross-shard router: publishes, queries and
actions on remote entities behave exactly as local ones.
"""

import multiprocessing
import os
import signal
import threading
import weakref
from array import array

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api import (
    Application,
    CacheConfig,
    Context,
    RuntimeConfig,
    ShardBootstrap,
    ShardConfig,
    ShardContext,
    ShardError,
    ShardedRuntime,
    SimulatedFleetBootstrap,
    StalePolicy,
    analyze,
)
from repro.errors import BindingError, DeliveryError
from repro.runtime.device import DeviceDriver
from repro.runtime.shard.codec import _wire_send
from repro.runtime.shard.coordinator import ShardRouter
from repro.mapreduce.partition import shard_index
from repro.simulation.sensors import FleetSubstrate, SubstrateDriver

DESIGN = """\
device ShardPresence {
    attribute parkingLot as LotEnum;
    source presence as Boolean;
    action tag(label as String);
}
enumeration LotEnum { A22, B16, D6 }

context FreeCount as Integer {
    when periodic presence from ShardPresence <10 min>
    grouped by parkingLot
    with map as Boolean reduce as Integer
    always publish;
}

context Windowed as Integer {
    when periodic presence from ShardPresence <10 min>
    grouped by parkingLot every <30 min>
    always publish;
}

context Pushes as Integer {
    when provided presence from ShardPresence
    always publish;
}
"""

LOTS = ("A22", "B16", "D6")
PERIOD = 600.0


class FreeCountImpl(Context):
    """Non-associative reduce (``len``) — the hardest case for a
    sharded shuffle, exact only if raw map emissions are re-sequenced
    into the single-process order before one final reduce."""

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


class WhereMappedImpl(FreeCountImpl):
    """``FreeCount`` whose map emissions carry the pid of the process
    that mapped them; the handler keeps the pids and delivers the
    counts, so it publishes what :class:`FreeCountImpl` does."""

    def __init__(self):
        super().__init__()
        self.map_pids = set()

    def map(self, lot, presence, collector):
        if not presence:
            collector.emit_map(lot, os.getpid())

    def reduce(self, lot, pids, collector):
        collector.emit_reduce(lot, pids)

    def on_periodic_presence(self, by_lot, discover):
        counts = {}
        for lot, pids in by_lot.items():
            self.map_pids.update(pids)
            counts[lot] = len(pids)
        return super().on_periodic_presence(counts, discover)


class WindowedImpl(Context):
    def __init__(self):
        super().__init__()
        self.windows = []

    def on_periodic_presence(self, window_by_lot, discover):
        self.windows.append(
            {lot: list(values) for lot, values in window_by_lot.items()}
        )
        return sum(len(v) for v in window_by_lot.values())


class PushesImpl(Context):
    def __init__(self):
        super().__init__()
        self.events = []

    def on_presence(self, event, discover):
        self.events.append(
            (event.device.entity_id, event.value, event.timestamp)
        )
        return len(self.events)


class TaggingDriver(SubstrateDriver):
    def do_tag(self, label):
        if label == "boom":
            error = RuntimeError("action exploded")
            error.payload = lambda: None  # unpicklable across the pipe
            raise error
        return f"{self.instance.entity_id}:{label}"


class ScalarTaggingDriver(TaggingDriver):
    """The same driver without the capability: one read at a time."""

    read_batch = DeviceDriver.read_batch


# Per-process substrate, keyed by the application it serves, so
# ``bind_entity`` can build drivers inside an already-built worker.
_SUBSTRATES = weakref.WeakKeyDictionary()


class PresenceBootstrap(ShardBootstrap):
    """Test bootstrap over the shared-substrate presence fleet.

    Not a frozen dataclass on purpose: the fork start method inherits
    it, which is all these tests need, and plain attributes keep the
    parameter grid simple.
    """

    stale = None
    free_count = FreeCountImpl

    def __init__(
        self,
        sensors=9,
        seed=7,
        shard=None,
        cache=None,
        driver=ScalarTaggingDriver,
    ):
        self.sensors = sensors
        self.seed = seed
        self.shard = shard
        self.cache = cache
        self.driver = driver

    def fleet(self):
        return [f"s-{index:03d}" for index in range(self.sensors)]

    def build(self, ctx):
        config = RuntimeConfig(
            shard=self.shard if self.shard is not None else ShardConfig(),
            cache=self.cache if self.cache is not None else CacheConfig(),
            stale=self.stale,
        )
        app = Application(analyze(DESIGN), config)
        app.implement("FreeCount", self.free_count())
        app.implement("Windowed", WindowedImpl())
        app.implement("Pushes", PushesImpl())
        substrate = FleetSubstrate(
            app.clock,
            seed=self.seed,
            models={"presence": lambda draw: draw < 0.5},
        )
        for position, entity_id in enumerate(self.fleet()):
            if ctx.owns(entity_id):
                app.create_device(
                    "ShardPresence",
                    entity_id,
                    self.driver(substrate, sources=("presence",)),
                    parkingLot=LOTS[position % len(LOTS)],
                )
        _SUBSTRATES[app] = substrate
        return app

    def bind_entity(self, app, entity_id, position):
        substrate = _SUBSTRATES[app]
        app.create_device(
            "ShardPresence",
            entity_id,
            self.driver(substrate, sources=("presence",)),
            parkingLot=LOTS[position % len(LOTS)],
        )


class ReversedBootstrap(PresenceBootstrap):
    """Binds its owned entities in reverse ``fleet()`` order."""

    def build(self, ctx):
        # The application as the coordinator builds it: nothing bound.
        app = super().build(ShardContext(shards=ctx.shards, index=None))
        substrate = _SUBSTRATES[app]
        for position, entity_id in reversed(list(enumerate(self.fleet()))):
            if ctx.owns(entity_id):
                app.create_device(
                    "ShardPresence",
                    entity_id,
                    self.driver(substrate, sources=("presence",)),
                    parkingLot=LOTS[position % len(LOTS)],
                )
        return app


class CountingBootstrap(PresenceBootstrap):
    """Notes every ``fleet()`` call made outside its own build."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.calls = []
        self.building = self.built = False

    def fleet(self):
        if not self.building:
            self.calls.append("after build" if self.built else "before build")
        return super().fleet()

    def build(self, ctx):
        self.building = True
        try:
            return super().build(ctx)
        finally:
            self.building = False
            self.built = True


class StrayBootstrap(PresenceBootstrap):
    """Also binds one entity that is not in ``fleet()``."""

    def build(self, ctx):
        app = super().build(ctx)
        app.create_device(
            "ShardPresence",
            "stray",
            self.driver(_SUBSTRATES[app], sources=("presence",)),
            parkingLot=LOTS[0],
        )
        return app


def run_scenario(bootstrap, periods=4, publishes=(), queries=()):
    """Drive one runtime and capture every observable output."""
    runtime = ShardedRuntime(bootstrap)
    published = []
    for name in ("FreeCount", "Windowed", "Pushes"):
        runtime.app.bus.subscribe(
            ("context", name),
            lambda event, name=name: published.append(
                (name, event.value, event.timestamp)
            ),
        )
    runtime.start()
    try:
        runtime.advance(periods / 2 * PERIOD)
        for entity_id, value in publishes:
            runtime.publish(entity_id, "presence", value)
        runtime.advance(periods / 2 * PERIOD)
        reads = [
            runtime.query(entity_id, "presence") for entity_id in queries
        ]
        free = runtime.app.implementation("FreeCount")
        windowed = runtime.app.implementation("Windowed")
        pushes = runtime.app.implementation("Pushes")
        return {
            "published": published,
            "deliveries": free.deliveries,
            "windows": windowed.windows,
            "events": pushes.events,
            "reads": reads,
            "gather_errors": runtime.app.stats["gather_errors"],
        }
    finally:
        runtime.stop()


class TestShardConfig:
    def test_defaults_are_off(self):
        config = ShardConfig()
        assert config.enabled is False
        assert config.workers == 4
        assert config.start_method is None

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardConfig(workers=0)
        with pytest.raises(ValueError):
            ShardConfig(start_method="threads")

    def test_runtime_config_field(self):
        config = RuntimeConfig(shard=ShardConfig(enabled=True, workers=2))
        assert config.shard.workers == 2
        with pytest.raises(TypeError):
            RuntimeConfig(shard="sharded")
        assert "ShardConfig" in RuntimeConfig().describe()["shard"]


class TestShardContext:
    def test_partition_is_total_and_disjoint(self):
        fleet = [f"e-{i}" for i in range(50)]
        contexts = [ShardContext(shards=4, index=i) for i in range(4)]
        for entity_id in fleet:
            owners = [c.index for c in contexts if c.owns(entity_id)]
            assert owners == [shard_index(entity_id, 4)]

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.text(max_size=12), max_size=30),
        st.integers(min_value=1, max_value=5),
        st.data(),
    )
    def test_owns_each_is_owns_id_by_id(self, fleet, shards, data):
        index = data.draw(
            st.one_of(st.none(), st.integers(min_value=0, max_value=shards))
        )
        ctx = ShardContext(shards=shards, index=index)
        assert list(ctx.owns_each(fleet)) == list(map(ctx.owns, fleet))

    def test_coordinator_owns_nothing(self):
        ctx = ShardContext(shards=4, index=None)
        assert ctx.is_coordinator
        assert not ctx.owns("e-1")

    def test_single_shard_owns_everything(self):
        ctx = ShardContext(shards=1, index=0)
        assert all(ctx.owns(f"e-{i}") for i in range(20))


class TestEquivalence:
    """sharded-on == sharded-off, byte for byte."""

    @settings(max_examples=6, deadline=None)
    @given(
        sensors=st.integers(min_value=1, max_value=14),
        workers=st.integers(min_value=2, max_value=4),
        seed=st.integers(min_value=0, max_value=2**16),
        batch=st.booleans(),
        cache=st.booleans(),
    )
    def test_sweeps_windows_and_events_match(
        self, sensors, workers, seed, batch, cache
    ):
        def bootstrap(shard):
            return PresenceBootstrap(
                sensors=sensors,
                seed=seed,
                shard=shard,
                cache=CacheConfig(enabled=cache),
                driver=TaggingDriver if batch else ScalarTaggingDriver,
            )

        publishes = [(f"s-{sensors // 2:03d}", True)]
        queries = [f"s-{sensors - 1:03d}", "s-000"]
        single = run_scenario(
            bootstrap(ShardConfig(enabled=False)),
            publishes=publishes,
            queries=queries,
        )
        sharded = run_scenario(
            bootstrap(ShardConfig(enabled=True, workers=workers)),
            publishes=publishes,
            queries=queries,
        )
        assert sharded == single

    def test_workers_exceeding_fleet(self):
        single = run_scenario(
            PresenceBootstrap(sensors=2, shard=ShardConfig(enabled=False))
        )
        sharded = run_scenario(
            PresenceBootstrap(
                sensors=2, shard=ShardConfig(enabled=True, workers=4)
            )
        )
        assert sharded == single

    def test_spawn_start_method_smoke(self):
        """The picklable library bootstrap survives spawn workers."""
        baseline = SimulatedFleetBootstrap(
            count=8, seed=5, shard=ShardConfig(enabled=False)
        )
        spawned = SimulatedFleetBootstrap(
            count=8,
            seed=5,
            shard=ShardConfig(
                enabled=True, workers=2, start_method="spawn"
            ),
        )

        def zone_loads(bootstrap):
            runtime = ShardedRuntime(bootstrap)
            seen = []
            runtime.app.bus.subscribe(
                ("context", "ZoneLoad"),
                lambda event: seen.append((event.value, event.timestamp)),
            )
            runtime.start()
            try:
                runtime.advance(120.0)
            finally:
                runtime.stop()
            return seen

        assert zone_loads(spawned) == zone_loads(baseline)


class TestRouting:
    def test_cross_shard_publish_reaches_every_shard_owner(self):
        """Publishes route by entity hash and replay identically for
        entities living on every different shard."""
        sensors = 9
        fleet = [f"s-{index:03d}" for index in range(sensors)]
        workers = 3
        by_shard = {}
        for entity_id in fleet:
            by_shard.setdefault(shard_index(entity_id, workers), entity_id)
        assert len(by_shard) > 1  # the fleet really is spread out
        publishes = [(entity_id, True) for entity_id in by_shard.values()]
        single = run_scenario(
            PresenceBootstrap(
                sensors=sensors, shard=ShardConfig(enabled=False)
            ),
            publishes=publishes,
        )
        sharded = run_scenario(
            PresenceBootstrap(
                sensors=sensors,
                shard=ShardConfig(enabled=True, workers=workers),
            ),
            publishes=publishes,
        )
        assert sharded == single
        assert [e[0] for e in sharded["events"]] == list(by_shard.values())

    def test_act_routes_to_owning_shard(self):
        runtime = ShardedRuntime(
            PresenceBootstrap(
                sensors=6, shard=ShardConfig(enabled=True, workers=2)
            )
        )
        runtime.start()
        try:
            assert runtime.act("s-004", "tag", label="x") == "s-004:x"
        finally:
            runtime.stop()

    def test_unknown_entity_raises_through_router(self):
        runtime = ShardedRuntime(
            PresenceBootstrap(
                sensors=3, shard=ShardConfig(enabled=True, workers=2)
            )
        )
        runtime.start()
        try:
            with pytest.raises(BindingError):
                runtime.query("nope", "presence")
        finally:
            runtime.stop()


class TestLifecycle:
    def test_double_start_raises(self):
        runtime = ShardedRuntime(
            PresenceBootstrap(sensors=3, shard=ShardConfig(enabled=False))
        )
        runtime.start()
        try:
            with pytest.raises(ShardError):
                runtime.start()
        finally:
            runtime.stop()

    def test_disabled_mode_spawns_no_workers(self):
        before = multiprocessing.active_children()
        runtime = ShardedRuntime(
            PresenceBootstrap(sensors=3, shard=ShardConfig(enabled=False))
        )
        runtime.start()
        try:
            assert multiprocessing.active_children() == before
            assert len(runtime.router) == 0
            assert runtime.worker_stats() == []
        finally:
            runtime.stop()

    def test_stop_reaps_workers(self):
        runtime = ShardedRuntime(
            PresenceBootstrap(
                sensors=6, shard=ShardConfig(enabled=True, workers=2)
            )
        )
        runtime.start()
        children = [
            p
            for p in multiprocessing.active_children()
            if p.name.startswith("repro-shard-")
        ]
        assert len(children) == 2
        runtime.stop()
        assert not any(p.is_alive() for p in children)
        assert len(runtime.router) == 0

    def test_worker_stats_shape(self):
        runtime = ShardedRuntime(
            PresenceBootstrap(
                sensors=9, shard=ShardConfig(enabled=True, workers=3)
            )
        )
        runtime.start()
        try:
            stats = runtime.worker_stats()
            assert [s["shard"] for s in stats] == [0, 1, 2]
            assert sum(s["bound_entities"] for s in stats) == 9
        finally:
            runtime.stop()


class TestMetrics:
    def test_shard_metric_families_exported(self):
        runtime = ShardedRuntime(
            PresenceBootstrap(
                sensors=6, shard=ShardConfig(enabled=True, workers=2)
            )
        )
        runtime.start()
        try:
            runtime.advance(PERIOD)
            runtime.query("s-001", "presence")
            runtime.publish("s-002", "presence", True)
            rendered = runtime.app.metrics.render_prometheus()
            for family in (
                "shard_sweeps_total",
                "shard_merge_pairs_total",
                "shard_remote_reads_total",
                "shard_workers",
                "shard_commands_total",
                "shard_events_routed_total",
                "shard_publishes_forwarded_total",
                "shard_errors_total",
                "shard_wire_bytes_total",
                "shard_delta_rows_total",
                "shard_mirror_rebuilds_total",
            ):
                assert family in rendered
            stats = runtime.stats()
            assert stats["workers"] == 2
            assert stats["sweeps"] >= 2
            assert stats["remote_reads"] == 1
            assert stats["router"]["publishes_forwarded"] == 1
            assert stats["router"]["events_routed"] >= 1
            assert stats["router"]["errors"] == 0
            assert stats["router"]["wire_bytes"] > 0
            # The first sweep registers every reading, later sweeps
            # ship only changes.
            assert stats["delta_rows"] >= 6
            assert stats["quiescent_rows"] >= 0
        finally:
            runtime.stop()

    def test_worker_stats_report_each_workers_peak_rss(self):
        runtime = ShardedRuntime(
            PresenceBootstrap(
                sensors=6, shard=ShardConfig(enabled=True, workers=2)
            )
        )
        runtime.start()
        try:
            peaks = [s["peak_rss_mb"] for s in runtime.worker_stats()]
        finally:
            runtime.stop()
        # A worker is at least an interpreter with the runtime loaded.
        assert len(peaks) == 2 and all(10 < peak < 10_000 for peak in peaks)

    def test_peak_rss_is_none_without_the_resource_module(self, monkeypatch):
        from repro.runtime.shard import worker as module

        worker = module._ShardWorker(
            PresenceBootstrap(sensors=2), ShardContext(shards=1, index=0)
        )
        assert worker._cmd_stats()["value"]["peak_rss_mb"] > 10
        monkeypatch.setattr(module, "resource", None)
        assert worker._cmd_stats()["value"]["peak_rss_mb"] is None


class TestWireProtocol:
    """The delta protocol actually suppresses quiescent rows."""

    def test_delta_counts_quiescent_rows(self):
        runtime = ShardedRuntime(
            PresenceBootstrap(
                sensors=9,
                shard=ShardConfig(enabled=True, workers=3),
            )
        )
        runtime.start()
        try:
            runtime.advance(4 * PERIOD)
            stats = runtime.stats()
            # The grouped gather registers all 9 readings on sweep one;
            # the substrate keeps some sensors steady across the later
            # sweeps, so those rows cross as quiescent counts instead.
            assert stats["delta_rows"] >= 9
            assert stats["quiescent_rows"] > 0
        finally:
            runtime.stop()


class TestMirrorRebuilds:
    def test_only_a_membership_change_rebuilds_the_mirror(self):
        """A static fleet's steady sweeps fold into the grouped
        gather's mirror without re-sorting it; a rebind resets one
        shard's slice, and the next poll rebuilds it exactly once."""
        runtime = ShardedRuntime(
            PresenceBootstrap(
                sensors=6, shard=ShardConfig(enabled=True, workers=2)
            )
        )
        runtime.start()
        try:
            runtime.advance(PERIOD)
            assert runtime.stats()["mirror_rebuilds"] == 1  # the first
            runtime.advance(3 * PERIOD)
            assert runtime.stats()["mirror_rebuilds"] == 1
            runtime.rebind("s-006")
            assert runtime.stats()["mirror_rebuilds"] == 1
            runtime.advance(PERIOD)
            assert runtime.stats()["mirror_rebuilds"] == 2
            runtime.advance(2 * PERIOD)
            assert runtime.stats()["mirror_rebuilds"] == 2
        finally:
            runtime.stop()


class TestRepartitioning:
    """Dynamic rebind/unbind route to the owning worker and stay
    byte-identical to a single-process late bind/unbind."""

    def run_repartition(self, shard):
        runtime = ShardedRuntime(
            PresenceBootstrap(sensors=6, seed=11, shard=shard)
        )
        published = []
        for name in ("FreeCount", "Windowed", "Pushes"):
            runtime.app.bus.subscribe(
                ("context", name),
                lambda event, name=name: published.append(
                    (name, event.value, event.timestamp)
                ),
            )
        runtime.start()
        try:
            runtime.advance(2 * PERIOD)
            runtime.rebind("s-006")
            runtime.unbind("s-002")
            runtime.advance(2 * PERIOD)
            free = runtime.app.implementation("FreeCount")
            return {
                "published": published,
                "deliveries": free.deliveries,
                "read": runtime.query("s-006", "presence"),
                "tag": runtime.act("s-006", "tag", label="new"),
            }
        finally:
            runtime.stop()

    def test_rebind_unbind_identity(self):
        single = self.run_repartition(ShardConfig(enabled=False))
        sharded = self.run_repartition(
            ShardConfig(enabled=True, workers=3)
        )
        assert sharded == single
        assert sharded["tag"] == "s-006:new"

    def test_unbound_entity_routes_binding_error(self):
        runtime = ShardedRuntime(
            PresenceBootstrap(
                sensors=6, shard=ShardConfig(enabled=True, workers=2)
            )
        )
        runtime.start()
        try:
            runtime.unbind("s-001")
            with pytest.raises(BindingError):
                runtime.query("s-001", "presence")
        finally:
            runtime.stop()

    def test_default_bootstrap_refuses_dynamic_bind(self):
        class StaticBootstrap(PresenceBootstrap):
            bind_entity = ShardBootstrap.bind_entity

        runtime = ShardedRuntime(
            StaticBootstrap(sensors=3, shard=ShardConfig(enabled=False))
        )
        runtime.start()
        try:
            with pytest.raises(ShardError):
                runtime.rebind("s-003")
        finally:
            runtime.stop()


class EnvelopeBootstrap(PresenceBootstrap):
    """Workers publish outside any gather: from a job their own clock
    fires at t=900 (between the sweeps at 600 and 1200, so it runs
    inside whichever command next syncs the clock past it), and from an
    already-bound neighbour whenever an entity binds."""

    def build(self, ctx):
        app = super().build(ctx)
        if ctx.index is not None and len(app.registry):
            first = next(iter(app.registry))
            app.clock.schedule(
                900.0, lambda: first.publish("presence", True)
            )
        return app

    def bind_entity(self, app, entity_id, position):
        neighbour = next(iter(app.registry))
        neighbour.publish("presence", False)
        if entity_id == "s-refused":
            raise BindingError("refused after the neighbour published")
        super().bind_entity(app, entity_id, position)


class TestCommandEnvelope:
    """The worker drains recorded publishes into every reply and the
    coordinator replays every reply — each once, whatever the command."""

    def running(self, workers=2):
        runtime = ShardedRuntime(
            EnvelopeBootstrap(
                sensors=6, shard=ShardConfig(enabled=True, workers=workers)
            )
        )
        runtime.start()
        return runtime, runtime.app.implementation("Pushes").events

    def test_publish_raised_inside_a_sync_replays_once(self):
        runtime, events = self.running()
        try:
            runtime.advance(800.0)  # sweep at 600, sync to 800
            assert events == []
            routed = runtime.router.stats()["events_routed"]
            runtime.advance(200.0)  # no sweep: only the sync reaches 900
            assert runtime.router.stats()["events_routed"] == routed + 2
            # One per worker, each exactly once, stamped by the
            # coordinator clock the sync carried.
            assert sorted(events) == sorted(
                (shard_first, True, 1000.0)
                for shard_first in self.first_per_shard(runtime)
            )
            runtime.advance(1000.0)
            assert len(events) == 2  # nothing replays twice
        finally:
            runtime.stop()

    def test_publish_raised_inside_a_bind_replays_once(self):
        runtime, events = self.running()
        try:
            runtime.advance(100.0)
            runtime.rebind("s-006")
            owner = shard_index("s-006", 2)
            neighbour = self.first_per_shard(runtime)[owner]
            assert events == [(neighbour, False, 100.0)]
            runtime.advance(100.0)
            runtime.worker_stats()
            assert len(events) == 1
        finally:
            runtime.stop()

    def test_publish_before_a_failed_command_rides_the_next_reply(self):
        """An error reply carries no events; whatever the worker had
        recorded stays queued for the next reply — any reply, a stats
        one included — instead of being dropped."""
        runtime, events = self.running()
        try:
            runtime.advance(100.0)
            with pytest.raises(BindingError, match="refused"):
                runtime.rebind("s-refused")
            assert events == []
            runtime.worker_stats()
            owner = shard_index("s-refused", 2)
            neighbour = self.first_per_shard(runtime)[owner]
            assert events == [(neighbour, False, 100.0)]
        finally:
            runtime.stop()

    def test_a_fold_that_raises_still_replays_its_reply(self, monkeypatch):
        """A poll reply whose mirror fold raises carries events the
        worker already drained: they replay before the fold's failure
        raises, as every other shard's do."""
        runtime, events = self.running()
        try:
            runtime.advance(800.0)  # sweep at 600, sync to 800

            def broken(runtime, key, shard, reply):
                raise RuntimeError(f"fold of shard {shard} exploded")

            monkeypatch.setattr(ShardedRuntime, "_fold", broken)
            with pytest.raises(RuntimeError, match="fold of shard 0"):
                runtime.advance(400.0)  # the 1200 poll syncs past 900
            assert sorted(entity for entity, __, __ in events) == sorted(
                self.first_per_shard(runtime)
            )
        finally:
            runtime.stop()

    @staticmethod
    def first_per_shard(runtime):
        firsts = {}
        for entity_id in runtime.bootstrap.fleet():
            firsts.setdefault(shard_index(entity_id, 2), entity_id)
        return [firsts[shard] for shard in sorted(firsts)]


class DarkOnceDriver(TaggingDriver):
    """Fails its first read, then answers like its neighbours."""

    dark = True

    def read(self, source):
        if self.dark:
            self.dark = False
            raise DeliveryError("sensor is dark")
        return super().read(source)


class DarkSweepBootstrap(PresenceBootstrap):
    """``StalePolicy("fail")`` and one sensor of shard 0 behind a
    :class:`DarkOnceDriver`: the first sweep's poll fails on shard 0
    and succeeds everywhere else."""

    stale = StalePolicy("fail")

    def build(self, ctx):
        app = super().build(ctx)
        if ctx.index == 0:
            next(iter(app.registry)).swap_driver(
                DarkOnceDriver(_SUBSTRATES[app], sources=("presence",))
            )
        return app


class DarkLaterDriver(ScalarTaggingDriver):
    """Answers like its neighbours except for its ``dark_read``-th
    read, which fails."""

    dark_read = 4  # the second sweep's Windowed poll

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.reads = 0

    def read(self, source):
        self.reads += 1
        if self.reads == self.dark_read:
            raise DeliveryError("sensor is dark")
        return super().read(source)


class DarkLaterBootstrap(PresenceBootstrap):
    """``StalePolicy("fail")`` and the first sensor shard 0 of two
    owns behind a :class:`DarkLaterDriver`, in whichever process binds
    it: the second sweep's grouped poll fails there, after every shard
    registered its rows."""

    stale = StalePolicy("fail")

    def build(self, ctx):
        app = super().build(ctx)
        dark = next(
            entity_id
            for entity_id in self.fleet()
            if shard_index(entity_id, 2) == 0
        )
        if dark in app.registry:
            app.registry.get(dark).swap_driver(
                DarkLaterDriver(_SUBSTRATES[app], sources=("presence",))
            )
        return app


class TestRouterFailures:
    """Worker death and worker-side errors surface as typed ShardErrors
    naming the shard, and stop() still reaps the survivors."""

    def _running_runtime(self, workers=2):
        runtime = ShardedRuntime(
            PresenceBootstrap(
                sensors=6, shard=ShardConfig(enabled=True, workers=workers)
            )
        )
        runtime.start()
        return runtime

    def test_worker_death_mid_run_raises_shard_error(self):
        runtime = self._running_runtime()
        children = sorted(
            (
                p
                for p in multiprocessing.active_children()
                if p.name.startswith("repro-shard-")
            ),
            key=lambda p: p.name,
        )
        try:
            children[0].terminate()
            children[0].join(timeout=10)
            with pytest.raises(ShardError):
                runtime.advance(PERIOD)
        finally:
            runtime.stop()
        assert not any(p.is_alive() for p in children)

    def test_stop_after_crash_reaps_survivors(self):
        runtime = self._running_runtime(workers=3)
        children = [
            p
            for p in multiprocessing.active_children()
            if p.name.startswith("repro-shard-")
        ]
        assert len(children) == 3
        children[1].terminate()
        children[1].join(timeout=10)
        runtime.stop()
        assert not any(p.is_alive() for p in children)
        assert len(runtime.router) == 0

    def test_worker_killed_with_unread_command_raises_shard_error(self):
        """A worker that dies with the command still unread resets the
        socketpair: ``recv_bytes`` raises ``ConnectionResetError``, not
        ``EOFError`` — it must still surface as a typed ShardError."""
        runtime = self._running_runtime(workers=2)
        children = sorted(
            (
                p
                for p in multiprocessing.active_children()
                if p.name.startswith("repro-shard-")
            ),
            key=lambda p: p.name,
        )
        router = runtime.router
        try:
            os.kill(children[0].pid, signal.SIGSTOP)
            router._send_to(0, "stats", ())  # parked in the socket buffer
            os.kill(children[0].pid, signal.SIGKILL)
            children[0].join(timeout=10)
            assert not children[0].is_alive()
            with pytest.raises(ShardError) as excinfo:
                router._receive(0)
            assert excinfo.value.shard == 0
            assert router.stats()["errors"] == 1
        finally:
            runtime.stop()
        assert not any(p.is_alive() for p in children)
        assert not any(
            p.name.startswith("repro-shard-")
            for p in multiprocessing.active_children()
        )

    def test_worker_error_reply_names_shard(self):
        runtime = self._running_runtime(workers=2)
        try:
            with pytest.raises(ShardError) as excinfo:
                runtime.act("s-001", "tag", label="boom")
            # The unpicklable worker exception degrades to a ShardError
            # carrying its repr and the shard that raised it.
            assert excinfo.value.shard == shard_index("s-001", 2)
            assert "action exploded" in str(excinfo.value)
            # The worker survives the error and keeps serving.
            assert runtime.act("s-001", "tag", label="ok") == "s-001:ok"
        finally:
            runtime.stop()

    def test_failed_broadcast_leaves_no_reply_behind(self):
        """When one shard answers a broadcast with an error, the other
        shards' replies are still read: left in their pipes they would
        answer the *next* command, and every reply after would be one
        command late."""
        runtime = ShardedRuntime(
            DarkSweepBootstrap(
                sensors=6, shard=ShardConfig(enabled=True, workers=2)
            )
        )
        runtime.start()
        try:
            with pytest.raises(DeliveryError, match="sensor is dark"):
                runtime.advance(PERIOD)
            other = TestCommandEnvelope.first_per_shard(runtime)[1]
            assert runtime.query(other, "presence") in (True, False)
            stats = runtime.worker_stats()
            assert [shard["shard"] for shard in stats] == [0, 1]
            assert [shard["gather_read_failed"] for shard in stats] == [1, 0]
            free = runtime.app.implementation("FreeCount")
            delivered = len(free.deliveries)
            runtime.advance(PERIOD)  # the sensor is back: a clean sweep
            assert len(free.deliveries) > delivered
            assert set(free.deliveries[-1]) <= set(LOTS)
            assert runtime.router.stats()["errors"] == 1
        finally:
            runtime.stop()


    def test_a_failed_poll_keeps_the_other_shards_mirror_in_step(self):
        """A grouped poll that fails on shard 0 still folds shard 1's
        reply into the coordinator's mirror: shard 1's encoder moved on
        to that sweep, so a dropped reply would leave every row that
        changed in it stale for good.  Every payload after the failure
        is the single-process run's."""

        def run(shard):
            runtime = ShardedRuntime(
                DarkLaterBootstrap(sensors=12, seed=11, shard=shard)
            )
            published = []
            runtime.app.bus.subscribe(
                ("context", "Windowed"),
                lambda event: published.append(
                    (event.value, event.timestamp)
                ),
            )
            runtime.start()
            try:
                runtime.advance(PERIOD)
                with pytest.raises(DeliveryError, match="sensor is dark"):
                    runtime.advance(PERIOD)
                free = runtime.app.implementation("FreeCount")
                assert len(free.deliveries) == 2  # it was Windowed's poll
                runtime.advance(9 * PERIOD)
                windowed = runtime.app.implementation("Windowed")
                return windowed.windows, published
            finally:
                runtime.stop()

        single = run(ShardConfig(enabled=False))
        sharded = run(ShardConfig(enabled=True, workers=2))
        assert len(single[0]) == 3
        assert sharded == single

    def test_failed_send_leaves_no_reply_behind(self):
        """When the send to one shard of a broadcast fails, the shards
        already sent to still owe a reply: it is read before the
        failure raises, so the surviving shard's next command gets its
        own answer."""
        runtime = self._running_runtime(workers=2)
        router = runtime.router
        try:
            router._workers[1][1].close()  # shard 1's pipe end is gone
            with pytest.raises(ShardError) as excinfo:
                runtime.advance(PERIOD)  # the poll broadcast
            assert excinfo.value.shard == 1
            survivor = TestCommandEnvelope.first_per_shard(runtime)[0]
            assert runtime.query(survivor, "presence") in (True, False)
            assert runtime.act(survivor, "tag", label="ok") == (
                f"{survivor}:ok"
            )
            assert router.stats()["errors"] == 1
        finally:
            runtime.stop()
        assert not any(
            p.name.startswith("repro-shard-")
            for p in multiprocessing.active_children()
        )


class TestBroadcastOrder:
    """``ShardRouter.broadcast`` reads replies as the workers answer:
    a reply that is in hands its shard to ``on_reply`` while a slower
    shard still owes one, and the replies still come back in shard
    order."""

    def test_the_first_reply_in_is_folded_first(self):
        router = ShardRouter()
        pipes = [multiprocessing.Pipe() for __ in range(2)]
        router.attach([(None, ours) for ours, __ in pipes])
        theirs = [worker for __, worker in pipes]

        def answer(shard):
            _wire_send(theirs[shard], ("ok", {"shard": shard}))

        # Shard 1 has answered; shard 0 answers only once shard 1's
        # reply was handed on (or, if it never is, after a while).
        answer(1)
        late = threading.Timer(5.0, answer, (0,))
        late.start()
        seen = []

        def on_reply(shard, reply):
            seen.append(shard)
            if shard == 1:
                late.cancel()
                answer(0)

        try:
            replies = router.broadcast("stats", (), on_reply)
        finally:
            late.cancel()
            for ours, worker in pipes:
                ours.close()
                worker.close()
        assert seen == [1, 0]
        assert replies == [{"shard": 0}, {"shard": 1}]


@pytest.mark.skipif(os.name != "posix", reason="fork start method")
class TestShardScalingShape:
    """What the scaling claim stands on, as structure: each worker owns
    its share of the fleet and reads it itself, and the results are the
    single-process run's.  How much wall clock that buys is the e2e
    ``fleet_sharded`` workload's ``shard.speedup_vs_single``."""

    def test_workers_split_the_fleet_and_its_reads(self):
        def run(workers):
            runtime = ShardedRuntime(
                SimulatedFleetBootstrap(
                    count=400,
                    shard=ShardConfig(enabled=workers > 1, workers=workers),
                )
            )
            seen = []
            runtime.app.bus.subscribe(
                ("context", "ZoneLoad"),
                lambda event: seen.append((event.value, event.timestamp)),
            )
            runtime.start()
            try:
                runtime.advance(60.0)
                return seen, runtime.worker_stats()
            finally:
                runtime.stop()

        single, no_workers = run(1)
        sharded, workers = run(4)
        assert len(single) == 1 and sharded == single
        assert no_workers == []
        assert sum(w["bound_entities"] for w in workers) == 400
        for worker in workers:
            assert 75 <= worker["bound_entities"] <= 125  # about a quarter
            sweep = worker["sweep"]
            assert sweep["reads"] == worker["bound_entities"]
            assert sweep["batch_reads"] == 1  # one column per worker
            assert sweep["batch_demoted"] == 0

    def test_the_map_runs_in_the_workers(self):
        """Claim C2 as structure: a grouped ``with map … reduce``
        context maps in the worker processes, each its own shard, never
        in the coordinator, and publishes what the single-process run
        does."""

        class WhereMapped(PresenceBootstrap):
            free_count = WhereMappedImpl

        def run(sharded):
            runtime = ShardedRuntime(
                WhereMapped(
                    sensors=12, shard=ShardConfig(enabled=sharded, workers=2)
                )
            )
            published = []
            runtime.app.bus.subscribe(
                ("context", "FreeCount"),
                lambda event: published.append((event.value, event.timestamp)),
            )
            runtime.start()
            try:
                shards = {
                    child.pid
                    for child in multiprocessing.active_children()
                    if child.name.startswith("repro-shard-")
                }
                runtime.advance(3 * PERIOD)
                implementation = runtime.app.implementation("FreeCount")
                return published, implementation.map_pids, shards
            finally:
                runtime.stop()

        single, single_pids, no_shards = run(False)
        sharded, map_pids, shards = run(True)
        assert len(single) == 3 and sharded == single
        assert single_pids == {os.getpid()} and no_shards == set()
        assert len(shards) == 2 and map_pids == shards


class TestPollAllocation:
    """A steady-state worker poll is column-native: it allocates a
    handful of fleet-sized lists, not a container per reading, so the
    cyclic collector has nothing to chase."""

    @staticmethod
    def collections_during_one_poll(sensors):
        """Collector runs per generation over one steady-state
        ``_cmd_poll`` of an in-process worker (columnar reads, static
        fleet, grouped gather through the delta encoder)."""
        import gc

        from repro.runtime.shard.worker import _ShardWorker

        worker = _ShardWorker(
            PresenceBootstrap(sensors=sensors, driver=TaggingDriver),
            ShardContext(shards=1, index=0),
        )
        first = worker._cmd_poll("Windowed", 0)
        assert first["reset"] is True and "register" in first
        steady = worker._cmd_poll("Windowed", 0)
        assert steady["quiescent"] == sensors and "register" not in steady
        runs = [0, 0, 0]

        def count(phase, info):
            if phase == "start":
                runs[info["generation"]] += 1

        was_enabled = gc.isenabled()
        gc.enable()
        gc.collect()
        gc.callbacks.append(count)
        try:
            reply = worker._cmd_poll("Windowed", 0)
        finally:
            gc.callbacks.remove(count)
            if not was_enabled:
                gc.disable()
        assert reply["quiescent"] == sensors
        assert worker.app.sweeper.stats()["batch_reads"] == 3
        return runs

    def test_collections_do_not_grow_with_the_fleet(self):
        small = self.collections_during_one_poll(2_000)
        large = self.collections_during_one_poll(8_000)
        assert small[2] == 0 and large[2] == 0
        # Four times the readings, no more young collections: nothing
        # is allocated per reading.  (With four short-lived tuples per
        # reading this read 8 collections at 2 000 devices, 32 at 8 000.)
        assert large[0] <= small[0] <= 1


class TestWorkerBoot:
    """A worker's global positions come from one pass over ``fleet()``
    before its build, kept per registration ordinal."""

    @staticmethod
    def positions(worker):
        """Each bound entity id's global position, as the worker knows
        it."""
        return {
            instance.entity_id: worker.position_of(instance.entity_id)
            for instance in worker.app.registry
        }

    @pytest.mark.parametrize("shards", [1, 2, 3])
    def test_positions_are_the_owned_fleet_positions(self, shards):
        from repro.runtime.shard.worker import _ShardWorker

        bootstrap = PresenceBootstrap(sensors=30)
        seen = {}
        for index in range(shards):
            ctx = ShardContext(shards=shards, index=index)
            worker = _ShardWorker(bootstrap, ctx)
            positions = self.positions(worker)
            assert positions == {
                entity_id: position
                for position, entity_id in enumerate(bootstrap.fleet())
                if ctx.owns(entity_id)
            }
            seen.update(positions)
        assert sorted(seen.values()) == list(range(30))

    def test_a_rebind_keeps_its_assigned_position(self):
        from repro.runtime.shard.worker import _ShardWorker

        worker = _ShardWorker(
            PresenceBootstrap(sensors=6), ShardContext(shards=1, index=0)
        )
        worker._cmd_unbind("s-002")
        assert "s-002" not in self.positions(worker)
        worker._cmd_bind("s-002", 9)
        worker._cmd_bind("s-042", 7)
        assert self.positions(worker) == {
            "s-000": 0,
            "s-001": 1,
            "s-003": 3,
            "s-004": 4,
            "s-005": 5,
            "s-002": 9,
            "s-042": 7,
        }
        worker._cmd_poll("Windowed", 0)
        columns = worker.app.sweeper._cuts["ShardPresence"].keys
        assert type(columns.positions) is array
        assert list(columns.positions) == [0, 1, 3, 4, 5, 9, 7]

    def test_the_worker_enumerates_the_fleet_once_before_its_build(self):
        from repro.runtime.shard.worker import _ShardWorker

        bootstrap = CountingBootstrap(sensors=12)
        worker = _ShardWorker(bootstrap, ShardContext(shards=2, index=1))
        # The build's own enumeration is not the worker's.
        assert bootstrap.calls == ["before build"]
        assert self.positions(worker) == {
            entity_id: position
            for position, entity_id in enumerate(bootstrap.fleet())
            if ShardContext(shards=2, index=1).owns(entity_id)
        }

    @pytest.mark.parametrize("shards", [1, 2])
    def test_a_build_in_another_order_keeps_the_fleet_positions(self, shards):
        from repro.runtime.shard.worker import _ShardWorker

        bootstrap = ReversedBootstrap(sensors=20)
        for index in range(shards):
            ctx = ShardContext(shards=shards, index=index)
            worker = _ShardWorker(bootstrap, ctx)
            assert self.positions(worker) == {
                entity_id: position
                for position, entity_id in enumerate(bootstrap.fleet())
                if ctx.owns(entity_id)
            }

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_a_build_in_another_order_merges_as_a_single_process(
        self, workers
    ):
        """Workers that bind in reverse ``fleet()`` order deliver what
        a single process binding in ``fleet()`` order does: the merge
        order is the fleet's, whatever order a build binds in."""
        single = run_scenario(PresenceBootstrap(sensors=14))
        sharded = run_scenario(
            ReversedBootstrap(
                sensors=14, shard=ShardConfig(enabled=True, workers=workers)
            )
        )
        assert sharded == single


    def test_a_build_binding_outside_the_fleet_boots(self):
        """An entity the build binds outside ``fleet()`` has no
        position: the worker boots, and reading one raises."""
        from repro.runtime.shard.worker import _ShardWorker

        worker = _ShardWorker(
            StrayBootstrap(sensors=6), ShardContext(shards=1, index=0)
        )
        assert worker.position_of("s-004") == 4
        with pytest.raises(KeyError):
            worker.position_of("stray")
        with pytest.raises(KeyError):
            worker._cmd_poll("Windowed", 0)

    def test_churn_keeps_the_position_map_the_size_of_the_fleet(self):
        """Binds after the build are kept only while they are bound."""
        from repro.runtime.shard.worker import _ShardWorker

        worker = _ShardWorker(
            PresenceBootstrap(sensors=6), ShardContext(shards=1, index=0)
        )
        boot = len(worker._gpos.boot)
        for cycle in range(40):
            worker._cmd_bind(f"s-{100 + cycle}", 100 + cycle)
            if cycle % 2:
                worker._cmd_unbind(f"s-{100 + cycle}")
        assert len(worker._gpos.boot) == boot
        assert sorted(worker._gpos.late.values()) == list(range(100, 140, 2))
        worker._cmd_poll("Windowed", 0)
        columns = worker.app.sweeper._cuts["ShardPresence"].keys
        assert list(columns.positions) == [*range(6), *range(100, 140, 2)]


class DarkDriver(TaggingDriver):
    """Answers a :class:`DeliveryError` for the entities in ``dark``,
    read one at a time or in its slot of a column."""

    dark = set()

    def read(self, source):
        if self.instance.entity_id in self.dark:
            raise DeliveryError("sensor is dark")
        return super().read(source)

    def read_batch(self, entity_ids, source):
        column = super().read_batch(entity_ids, source)
        return [
            DeliveryError("sensor is dark") if entity_id in self.dark else v
            for entity_id, v in zip(entity_ids, column)
        ]


class TestChurnMatchesAFreshWorker:
    """Periods of binds (any free global position, ids freed before
    too), unbinds, ``fail()`` and ``recover()`` between the polls of
    an in-process worker with the read cache on, some periods with
    members whose reads fail (``dark``: the sweep loses them).  After
    every period the key columns of the worker's sweep cut — spliced
    across binds and unbinds by the registry's column edit — equal ones
    derived from scratch, and its poll replies, the grouped ones folded
    through a ``_Mirror``, deliver what a worker built afresh with the
    same membership, registration order and positions delivers."""

    ops = st.one_of(
        st.tuples(st.just("bind"), st.integers(0, 20)),
        st.tuples(
            st.sampled_from(["unbind", "fail", "recover", "dark"]),
            st.integers(0, 30),
        ),
    )

    @staticmethod
    def worker(sensors):
        from repro.runtime.shard.worker import _ShardWorker

        return _ShardWorker(
            PresenceBootstrap(
                sensors=sensors,
                cache=CacheConfig(enabled=True),
                driver=DarkDriver,
            ),
            ShardContext(shards=1, index=0),
        )

    @staticmethod
    def period(worker, now, mirror):
        """One coordinator period: the grouped poll, then the MapReduce
        poll over the same source (cache hits) and its map round."""
        from repro.mapreduce.engine import rank_groups

        worker.clock.run_until(now)
        mirror.apply(0, worker._cmd_poll("Windowed", 0))
        keys = worker._cmd_poll("FreeCount", 0)["keys"]
        mapped = worker._cmd_map("FreeCount", 0, rank_groups(keys.items()))
        return mirror.payload(), keys, mapped

    @staticmethod
    def memo(worker):
        """The key columns of the worker's sweep cut: the column, the
        positions, and per attribute the key column and the groups the
        polls derived — ``None`` when the cut has none (its column was
        only swept lossily, and a lossy sweep's keys are thrown away)."""
        memo = worker.app.sweeper._cuts["ShardPresence"].keys
        if memo is None:
            return None
        return (
            memo.column,
            memo.positions,
            {attribute: memo.keys(attribute) for attribute in memo._keys},
            {
                attribute: memo.groups(attribute)
                for attribute in memo._groups
            },
        )

    @classmethod
    def derived_afresh(cls, worker):
        """The same, derived from the memo's instance column as a first
        poll would."""
        from repro.runtime.grouping import KeyColumns

        memo = cls.memo(worker)
        if memo is None:
            return None  # nothing to compare
        instances, __, keys, groups = memo
        positions = array(
            "q",
            (worker.position_of(instance.entity_id) for instance in instances),
        )
        fresh = KeyColumns(instances, positions, {})
        return (
            instances,
            positions,
            {attribute: fresh.keys(attribute) for attribute in keys},
            {attribute: fresh.groups(attribute) for attribute in groups},
        )

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.lists(ops, max_size=4), min_size=1, max_size=6))
    # A lossy sweep's column is not the cut's: its keys are thrown away.
    @example([[], [("unbind", 0), ("dark", 2)]])
    def test_every_period_delivers_what_a_fresh_worker_does(self, script):
        from repro.runtime.shard.codec import _Mirror

        worker = self.worker(6)
        mirror = _Mirror(1, flat=False)
        # (entity id, global position) in registration order
        live = [(f"s-{index:03d}", index) for index in range(6)]
        now = 0.0
        for ops in script:
            for op in ops:
                if op[0] == "bind":
                    # s-NNN binds at position NNN: a free id, a free
                    # position.
                    entity_id = f"s-{op[1]:03d}"
                    if entity_id not in worker.app.registry:
                        worker._cmd_bind(entity_id, op[1])
                        live.append((entity_id, op[1]))
                    continue
                if not live:
                    continue
                entity_id = live[op[1] % len(live)][0]
                if op[0] == "unbind":
                    worker._cmd_unbind(entity_id)
                    del live[op[1] % len(live)]
                elif op[0] == "fail":
                    worker.app.registry.get(entity_id).fail()
                elif op[0] == "recover":
                    worker.app.registry.get(entity_id).recover()
                else:
                    DarkDriver.dark.add(entity_id)
            now += PERIOD
            try:
                delivered = self.period(worker, now, mirror)
                assert self.memo(worker) == self.derived_afresh(worker)
                fresh = self.worker(0)
                for entity_id, position in live:
                    fresh._cmd_bind(entity_id, position)
                    if worker.app.registry.get(entity_id).failed:
                        fresh.app.registry.get(entity_id).fail()
                assert delivered == self.period(
                    fresh, now, _Mirror(1, False)
                )
            finally:
                DarkDriver.dark.clear()
