"""The query-driven read fast path: ReadCache.

Covers the cache record itself (TTL freshness on the application
clock, single-flight coalescing, invalidation, generation) and
its wiring through the application (bind/unbind, actuation and publish
invalidation, reads under gathers and ``query_context`` pulls, metrics
and stats surfaces).  The off-by-default guarantee — no cache object,
one driver read per pull — is pinned explicitly, and so is the
contract that the cache memoizes device reads only: a cached
application activates, publishes and answers exactly as an uncached
one does.
"""

import threading
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api import ContextNotQueryableError
from repro.errors import DeliveryError
from repro.runtime.app import Application
from repro.runtime.cache import CACHE_AGE_BUCKETS, CacheConfig, ReadCache
from repro.runtime.clock import SimulationClock
from repro.runtime.component import Context, Controller
from repro.runtime.config import RuntimeConfig
from repro.runtime.device import CallableDriver
from repro.sema.analyzer import analyze
from repro.telemetry.registry import Histogram, MetricsRegistry

DESIGN = """\
device Sensor {
    attribute zone as ZoneEnum;
    source reading as Float;
    action Nudge;
}

enumeration ZoneEnum { NORTH, SOUTH }

context Snapshot as Float[] {
    when required;
}

context Sweep as Integer {
    when periodic reading from Sensor <1 min>
    always publish;
}

context Tally as Integer {
    when periodic reading from Sensor <1 min>
    no publish;
    when required;
}

context Count as Integer {
    when periodic reading from Sensor <1 min>
    always publish;
}

controller Panel {
    when provided Sweep
    do Nudge on Sensor;
    when provided Count
    do Nudge on Sensor;
}
"""


class SnapshotContext(Context):
    def when_required(self, discover):
        return [proxy.reading() for proxy in discover.devices("Sensor")]


class SweepContext(Context):
    def __init__(self):
        super().__init__()
        self.activations = 0

    def on_periodic_reading(self, readings, discover):
        self.activations += 1
        return len(readings)


class TallyContext(Context):
    """Counts its periods; a pull answers the count so far."""

    def __init__(self):
        super().__init__()
        self.count = 0

    def on_periodic_reading(self, readings, discover):
        self.count += 1

    def when_required(self, discover):
        return self.count


class CountContext(TallyContext):
    def on_periodic_reading(self, readings, discover):
        self.count += 1
        return self.count


class PanelController(Controller):
    """Shows what Sweep and Count publish, in delivery order."""

    def __init__(self):
        super().__init__()
        self.shown = []

    def on_sweep(self, value, discover):
        self.shown.append(("Sweep", value))

    def on_count(self, value, discover):
        self.shown.append(("Count", value))


class CountingSource:
    """A driver source with a call counter and settable value."""

    def __init__(self, value=1.0):
        self.value = value
        self.calls = 0

    def __call__(self):
        self.calls += 1
        return self.value


def build(cache=None, sensors=2):
    clock = SimulationClock()
    config = RuntimeConfig(
        clock=clock, cache=cache if cache is not None else CacheConfig()
    )
    app = Application(analyze(DESIGN), config)
    app.implement("Snapshot", SnapshotContext())
    sweep = SweepContext()
    app.implement("Sweep", sweep)
    app.implement("Tally", TallyContext())
    app.implement("Count", CountContext())
    app.implement("Panel", PanelController())
    sources = {}
    for i in range(sensors):
        source = CountingSource(value=float(i))
        sources[f"s-{i}"] = source
        app.create_device(
            "Sensor",
            f"s-{i}",
            CallableDriver(
                sources={"reading": source}, actions={"Nudge": lambda: None}
            ),
            zone="NORTH" if i % 2 == 0 else "SOUTH",
        )
    app.start()
    return app, clock, sources, sweep


ON = CacheConfig(enabled=True, ttl_seconds=10.0)


class TestCacheConfig:
    def test_defaults_are_disabled(self):
        config = CacheConfig()
        assert not config.enabled

    def test_negative_ttl_rejected(self):
        with pytest.raises(ValueError):
            CacheConfig(ttl_seconds=-1.0)

    def test_runtime_config_validates_type(self):
        with pytest.raises(TypeError):
            RuntimeConfig(cache="yes please")


class TestFreshness:
    def test_hit_within_ttl_miss_after(self):
        app, clock, sources, __ = build(ON)
        proxy = app.discover.device("s-0")
        assert proxy.reading() == 0.0
        assert proxy.reading() == 0.0
        assert sources["s-0"].calls == 1  # second pull was a hit
        clock.advance(ON.ttl_seconds + 0.1)
        assert proxy.reading() == 0.0
        assert sources["s-0"].calls == 2  # expired entry re-read
        stats = app.read_cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 2

    def test_zero_ttl_caches_within_one_instant(self):
        app, clock, sources, __ = build(
            CacheConfig(enabled=True, ttl_seconds=0.0)
        )
        proxy = app.discover.device("s-0")
        proxy.reading()
        proxy.reading()  # same simulated instant: still fresh
        assert sources["s-0"].calls == 1
        clock.advance(0.001)
        proxy.reading()
        assert sources["s-0"].calls == 2

    def test_peek_wraps_value_and_age(self):
        app, clock, __, __sweep = build(ON)
        cache = app.read_cache
        assert cache.peek("s-0", "reading") is None
        app.discover.device("s-0").reading()
        clock.advance(2.0)
        value, age = cache.peek("s-0", "reading")
        assert value == 0.0
        assert age == 2.0
        clock.advance(ON.ttl_seconds)
        assert cache.peek("s-0", "reading") is None

    def test_off_by_default_is_byte_identical(self):
        app, __, sources, __sweep = build()
        assert app.read_cache is None
        proxy = app.discover.device("s-0")
        proxy.reading()
        proxy.reading()
        assert sources["s-0"].calls == 2  # every read reaches the driver
        assert app.stats["read_cache"] is None


class TestSingleFlight:
    def test_concurrent_misses_share_one_read(self):
        clock = SimulationClock()
        cache = ReadCache(clock, CacheConfig(enabled=True, ttl_seconds=10.0))
        gate = threading.Event()
        calls = []

        class FakeInstance:
            entity_id = "s-0"

        def slow_read():
            calls.append(1)
            gate.wait(timeout=5.0)
            return 42.0

        results = []

        def puller():
            results.append(
                cache.get_or_read(FakeInstance(), "reading", slow_read)
            )

        threads = [threading.Thread(target=puller) for _ in range(4)]
        for thread in threads:
            thread.start()
        while cache.stats()["coalesced"] < 3:
            pass  # wait until the followers parked on the flight
        gate.set()
        for thread in threads:
            thread.join(timeout=5.0)
        assert results == [42.0] * 4
        assert len(calls) == 1
        stats = cache.stats()
        assert stats["misses"] == 1
        assert stats["coalesced"] == 3

    def test_leader_error_propagates_to_followers_and_caches_nothing(self):
        clock = SimulationClock()
        cache = ReadCache(clock, CacheConfig(enabled=True, ttl_seconds=10.0))
        gate = threading.Event()

        class FakeInstance:
            entity_id = "s-0"

        def failing_read():
            gate.wait(timeout=5.0)
            raise DeliveryError("sensor is dark")

        errors = []

        def puller():
            try:
                cache.get_or_read(FakeInstance(), "reading", failing_read)
            except DeliveryError as exc:
                errors.append(exc)

        threads = [threading.Thread(target=puller) for _ in range(3)]
        for thread in threads:
            thread.start()
        while cache.stats()["coalesced"] < 2:
            pass
        gate.set()
        for thread in threads:
            thread.join(timeout=5.0)
        assert len(errors) == 3
        assert len(cache) == 0  # the failure was not cached


class TestInvalidation:
    def test_actuation_invalidates_that_devices_sources(self):
        app, __, sources, __sweep = build(ON)
        proxies = {
            entity_id: app.discover.device(entity_id)
            for entity_id in sources
        }
        for proxy in proxies.values():
            proxy.reading()
        generation = app.read_cache.generation
        proxies["s-0"].nudge()
        assert app.read_cache.generation > generation
        proxies["s-0"].reading()
        proxies["s-1"].reading()
        assert sources["s-0"].calls == 2  # actuated: re-read
        assert sources["s-1"].calls == 1  # untouched: still cached

    def test_publish_invalidates_publisher_entry(self):
        app, __, sources, __sweep = build(ON)
        proxy = app.discover.device("s-0")
        proxy.reading()
        instance = app.registry.get("s-0")
        instance.publish("reading", 9.0)
        proxy.reading()
        assert sources["s-0"].calls == 2

    def test_unbind_invalidates(self):
        app, __, sources, __sweep = build(ON)
        app.discover.device("s-0").reading()
        assert len(app.read_cache) == 1
        app.unbind_device("s-0")
        assert len(app.read_cache) == 0

    def test_invalidate_bumps_generation_even_when_empty(self):
        cache = ReadCache(SimulationClock(), CacheConfig(enabled=True))
        generation = cache.generation
        assert cache.invalidate("ghost") == 0
        assert cache.generation == generation + 1

    def test_clear(self):
        app, __, sources, __sweep = build(ON)
        for entity_id in sources:
            app.discover.device(entity_id).reading()
        assert app.read_cache.clear() == len(sources)
        assert len(app.read_cache) == 0

    def test_an_invalidation_during_a_read_is_not_undone(self):
        cache = ReadCache(SimulationClock(), ON)
        instance = SimpleNamespace(entity_id="e1")

        def read():
            cache.invalidate("e1")  # e.g. an actuation while in flight
            return 5.0

        assert cache.get_or_read(instance, "s", read) == 5.0
        assert cache.peek("e1", "s") is None
        assert cache.get_or_read(instance, "s", lambda: 6.0) == 6.0
        assert cache.peek("e1", "s") == (6.0, 0.0)
        # A batch column read before the invalidation is not stored
        # either; its rows still count as driver reads.
        ids = [f"e{index}" for index in range(3)]
        since = cache.generation
        cache.invalidate("e1")
        cache.store_column(ids, "s", [1.0, 2.0, 3.0], since)
        assert [cache.peek(entity_id, "s") for entity_id in ids] == [None] * 3
        assert cache.stats()["misses"] == 2 + 3
        cache.store_column(ids, "s", [1.0, 2.0, 3.0], cache.generation)
        assert cache.peek("e2", "s") == (3.0, 0.0)


class TestContextReads:
    def test_a_pull_within_the_ttl_reads_no_driver_again(self):
        app, clock, sources, __sweep = build(ON)
        first = app.query_context("Snapshot")
        again = app.query_context("Snapshot")
        assert first == again
        assert sources["s-0"].calls == 1
        clock.advance(ON.ttl_seconds + 0.1)
        app.query_context("Snapshot")
        assert sources["s-0"].calls == 2

    def test_an_actuation_expires_what_a_pull_read(self):
        app, __, sources, __sweep = build(ON)
        app.query_context("Snapshot")
        app.discover.device("s-0").nudge()
        sources["s-0"].value = 5.0
        assert app.query_context("Snapshot")[0] == 5.0

    def test_a_gather_sees_a_changed_reading(self):
        app, clock, sources, sweep = build(ON)
        clock.advance(60.0)
        sources["s-0"].value = 7.0
        app.discover.device("s-0").nudge()  # invalidate the read cache
        clock.advance(60.0)
        assert sweep.activations == 2


class TestTypedQueryError:
    def test_non_queryable_context_raises_typed_error(self):
        app, __, __sources, __sweep = build()
        with pytest.raises(ContextNotQueryableError) as excinfo:
            app.query_context("Sweep")
        assert excinfo.value.context == "Sweep"
        assert "when required" in str(excinfo.value)

    def test_typed_error_is_a_delivery_error(self):
        # Existing broad handlers keep catching it.
        assert issubclass(ContextNotQueryableError, DeliveryError)

    def test_unknown_context_message_unchanged(self):
        app, __, __sources, __sweep = build()
        with pytest.raises(DeliveryError, match="unknown context"):
            app.query_context("Nope")


class TestCacheOnEqualsCacheOff:
    """While every state change flows through an actuation (which
    invalidates), a cached application delivers exactly what an
    uncached one does, with no more driver reads: every period
    activates the same contexts and publishes the same values, and
    every pull returns the same answer — the cache memoizes device
    reads, never a context's result."""

    SENSORS = 6

    @settings(max_examples=25, deadline=None)
    @given(
        ttl=st.sampled_from([0.0, 1.0, 10.0]),
        ops=st.lists(
            st.one_of(
                st.just(("query",)),
                st.tuples(st.just("act"), st.integers(0, SENSORS - 1)),
                st.tuples(st.just("advance"), st.floats(0.1, 120.0)),
            ),
            min_size=1,
            max_size=12,
        ),
    )
    # A constant sensor under an ``always publish`` counter: every
    # period activates it and shows the next count on the panel.
    @example(ttl=1.0, ops=[("advance", 60.0)] * 3)
    # A pull after a periodic delivery in the same instant as the
    # delivery, within the TTL of the pull before it, sees that
    # delivery.
    @example(
        ttl=1.0,
        ops=[("advance", 59.5), ("query",), ("advance", 0.5), ("query",)],
    )
    def test_queries_agree_under_actuation_and_time(self, ttl, ops):
        on = CacheConfig(enabled=True, ttl_seconds=ttl)
        cached, cached_clock, cached_sources, __ = build(on, self.SENSORS)
        plain, plain_clock, plain_sources, __ = build(None, self.SENSORS)
        cached_panel = cached.implementation("Panel")
        plain_panel = plain.implementation("Panel")
        for op in ops:
            if op[0] == "query":
                for name in ("Snapshot", "Tally"):
                    expected = plain.query_context(name)
                    assert cached.query_context(name) == expected
            elif op[0] == "act":
                entity_id = f"s-{op[1]}"
                for app, sources in (
                    (cached, cached_sources),
                    (plain, plain_sources),
                ):
                    sources[entity_id].value += 1.0
                    app.discover.device(entity_id).nudge()
            else:
                cached_clock.advance(op[1])
                plain_clock.advance(op[1])
            assert (
                cached.stats["context_activations"]
                == plain.stats["context_activations"]
            )
            assert cached_panel.shown == plain_panel.shown
        assert sum(s.calls for s in cached_sources.values()) <= sum(
            s.calls for s in plain_sources.values()
        )


class TestMetrics:
    def test_cache_metric_families_exported(self):
        app, __, __sources, __sweep = build(ON)
        proxy = app.discover.device("s-0")
        proxy.reading()
        proxy.reading()
        assert app.metrics.value("read_cache_hits_total") == 1
        assert app.metrics.value("read_cache_misses_total") == 1
        assert app.metrics.value("read_cache_entries") == 1
        proxy.nudge()
        assert app.metrics.value("read_cache_invalidations_total") == 1
        age_histogram = app.metrics.get("read_cache_age_seconds")
        assert age_histogram is not None

    def test_stats_view_matches_metrics(self):
        app, __, __sources, __sweep = build(ON)
        proxy = app.discover.device("s-0")
        proxy.reading()
        proxy.reading()
        stats = app.stats["read_cache"]
        assert stats["hits"] == app.metrics.value("read_cache_hits_total")
        assert stats["misses"] == app.metrics.value(
            "read_cache_misses_total"
        )
        assert stats["entries"] == 1
        assert "generation" in stats


class ReferenceCache:
    """The cache one row at a time, as a dict of ``(entity_id, source)
    -> (value, stamp)`` pairs — what the column operations must add up
    to."""

    def __init__(self, clock, config):
        self.clock = clock
        self.config = config
        self.entries = {}
        self.generation = self.hits = self.misses = self.invalidations = 0
        self.age = Histogram(CACHE_AGE_BUCKETS)

    def peek(self, entity_id, source):
        entry = self.entries.get((entity_id, source))
        if entry is None:
            return None
        age = self.clock.now() - entry[1]
        return None if age > self.config.ttl_seconds else (entry[0], age)

    def lookup(self, entity_id, source):
        fresh = self.peek(entity_id, source)
        if fresh is None:
            return None
        self.hits += 1
        self.age.observe(fresh[1])
        return (fresh[0],)

    def store(self, entity_id, source, value):
        self.misses += 1
        self.entries[(entity_id, source)] = (value, self.clock.now())

    def get_or_read(self, entity_id, source, value):
        found = self.lookup(entity_id, source)
        if found is not None:
            return found[0]
        self.store(entity_id, source, value)
        return value

    def clear(self):
        self.generation += 1
        self.invalidations += len(self.entries)
        self.entries.clear()

    def invalidate(self, entity_id, source=None):
        self.generation += 1
        doomed = [
            key
            for key in self.entries
            if key[0] == entity_id and source in (None, key[1])
        ]
        for key in doomed:
            del self.entries[key]
        self.invalidations += len(doomed)


ENTITIES = 6
SOURCES = ("level", "battery")
rows = st.lists(
    st.integers(min_value=0, max_value=ENTITIES - 1), unique=True
)
VALUES = [0, 1.5, None, float("nan")]
# The last element of a store or lookup step: whether it is handed the
# very ids list an earlier step with the same rows was, or an equal one.
steps = st.one_of(
    st.tuples(
        st.just("store"),
        rows,
        st.sampled_from(SOURCES),
        st.sampled_from(VALUES),
        st.booleans(),
    ),
    st.tuples(
        st.just("lookup"), rows, st.sampled_from(SOURCES), st.booleans()
    ),
    st.tuples(st.just("tick"), st.sampled_from([0.0, 0.4, 0.7, 1.0, 5.0])),
    st.tuples(
        st.just("invalidate"),
        st.integers(min_value=0, max_value=ENTITIES - 1),
        st.sampled_from(SOURCES + (None,)),
    ),
    st.tuples(
        st.just("get"),
        st.integers(min_value=0, max_value=ENTITIES - 1),
        st.sampled_from(SOURCES),
        st.sampled_from(VALUES),
    ),
    st.tuples(st.just("clear")),
)


class TestColumnOperationsAreTheirRows:
    """``lookup_column`` / ``store_column`` leave a cache in exactly
    the state the same rows leave it in one at a time — one row per
    call, and in the dict-of-tuples reference above — as far as
    anything outside the cache can tell: every value and age it would
    serve, its counters, generation and entry count, and the age
    histogram.  Interleaved with ``get_or_read`` and ``clear``, under
    a drawn TTL, and with ids lists handed over again (the very list or
    an equal one), which is when a column lookup may answer from the
    column the table last stored."""

    MISS = object()

    @staticmethod
    def observable(cache, age):
        stats = (
            (cache.hits, cache.misses, cache.invalidations, len(cache.entries))
            if isinstance(cache, ReferenceCache)
            else (
                cache.stats()["hits"],
                cache.stats()["misses"],
                cache.stats()["invalidations"],
                cache.entry_count(),
            )
        )
        served = [
            cache.peek(f"s-{index}", source)
            for index in range(ENTITIES)
            for source in SOURCES
        ]
        return (
            repr(served),  # repr: NaN values must agree too
            cache.generation,
            stats,
            age.bucket_counts(),
            age.count,
            age.sum,
        )

    @settings(max_examples=150, deadline=None)
    @given(
        ttl=st.sampled_from([0.0, 0.5, 1.0, 2.0]),
        script=st.lists(steps, max_size=14),
    )
    # An age of exactly the TTL is still fresh.
    @example(
        ttl=1.0,
        script=[
            ("store", [0], "level", 1.5, True),
            ("tick", 1.0),
            ("lookup", [0], "level", True),
        ],
    )
    # The column stored last, less an entry dropped since.
    @example(
        ttl=1.0,
        script=[
            ("store", [0, 1], "level", 1.5, True),
            ("invalidate", 1, None),
            ("lookup", [0, 1], "level", True),
        ],
    )
    def test_twin_caches_stay_equal(self, ttl, script):
        config = CacheConfig(enabled=True, ttl_seconds=ttl)
        fleet = [f"s-{index}" for index in range(ENTITIES)]
        held = {}  # rows -> the ids list steps over them reuse

        def ids_of(where, same):
            ids = [fleet[row] for row in where]
            return held.setdefault(tuple(where), ids) if same else ids

        clock = SimulationClock()
        registries = [MetricsRegistry(), MetricsRegistry()]
        column, scalar = (
            ReadCache(clock, config, metrics=metrics) for metrics in registries
        )
        reference = ReferenceCache(clock, config)
        ages = [
            metrics.histogram("read_cache_age_seconds")
            for metrics in registries
        ] + [reference.age]
        for step in script:
            kind = step[0]
            if kind == "store":
                __, where, source, value, same = step
                ids = ids_of(where, same)
                column.store_column(ids, source, [value] * len(where))
                for entity_id in ids:
                    scalar.store_column((entity_id,), source, (value,))
                    reference.store(entity_id, source, value)
            elif kind == "lookup":
                __, where, source, same = step
                ids = ids_of(where, same)
                found = column.lookup_column(ids, source, self.MISS)
                wrapped = [
                    None if value is self.MISS else (value,)
                    for value in found
                ]
                for rows in (
                    [scalar.lookup(entity_id, source) for entity_id in ids],
                    [reference.lookup(entity_id, source) for entity_id in ids],
                ):
                    assert repr(wrapped) == repr(rows)
            elif kind == "tick":
                clock.advance(step[1])
            elif kind == "get":
                __, row, source, value = step
                device = SimpleNamespace(entity_id=fleet[row])
                got = [
                    cache.get_or_read(device, source, lambda: value)
                    for cache in (column, scalar)
                ]
                got.append(
                    reference.get_or_read(device.entity_id, source, value)
                )
                assert len(set(map(repr, got))) == 1
            elif kind == "clear":
                for cache in (column, scalar, reference):
                    cache.clear()
            else:
                for cache in (column, scalar, reference):
                    cache.invalidate(fleet[step[1]], step[2])
            observed = [
                self.observable(cache, age)
                for cache, age in zip((column, scalar, reference), ages)
            ]
            assert observed[0] == observed[1] == observed[2]
