"""Freshness-aware read cache for query-driven delivery.

The paper's "delivering data" activity names three WSN delivery models
(Section III); periodic sweeps got their fast path in the streaming and
concurrent-sweep work, but the **query-driven** model still paid one
driver round-trip per read: every ``query_context`` pull, every
on-demand proxy read, every sweep re-polled the device even when the
same source had been read milliseconds earlier by another context.
When many orchestration apps observe one fleet — D-LITe choreographies
sharing device state, DiaSpec robotics deployments reusing sensor
streams — that is the dominant cost.

:class:`ReadCache` closes the gap.  It memoizes
:meth:`~repro.runtime.device.DeviceInstance.read` results per
``(entity_id, source)`` under a configurable freshness TTL measured on
the **application clock**, so :class:`~repro.runtime.clock.SimulationClock`
replays stay deterministic.  Three mechanisms keep cached values honest:

* **Freshness TTL** — a hit is served only while the entry is at most
  ``ttl_seconds`` old; after that the next read goes to the driver.
* **Single-flight coalescing** — when concurrent callers (threaded
  sweep workers, parallel query pulls) miss on the same key, exactly
  one performs the underlying driver read; the rest block on its result
  (or its exception) instead of issuing duplicate reads.
* **Invalidation hooks** — an actuation on a device drops every cached
  source of that device (the physical state its sources report may
  have changed); an event-driven publish drops the publisher's entry
  for that source and, when ``shard_attribute`` is configured, every
  cached entry of the same source in the publisher's attribute shard.
  Every invalidation bumps a monotonically increasing ``generation``
  that the application's context memoization checks, so actuations
  implicitly expire memoized context results too.

The cache is **off by default**: ``CacheConfig(enabled=False)`` leaves
``Application.read_cache`` as ``None`` and the device read path
byte-identical to the uncached runtime.

Observability follows the
:class:`~repro.telemetry.instrument.Instrumented` protocol: hit, miss,
coalesced and invalidation counters are pull-time callbacks, and
``attach_metrics`` additionally creates a cached-age histogram
(``read_cache_age_seconds``) observed on every hit.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from itertools import compress, count, repeat
from operator import attrgetter, ge, itemgetter, methodcaller, ne, not_, sub
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.runtime.configbase import ConfigBase
from repro.telemetry.instrument import Instrumented, MetricSpec

__all__ = ["CacheConfig", "ReadCache"]

# Cached-age buckets: a hot query path serves entries microseconds old;
# a slow periodic deployment may serve entries near a multi-minute TTL.
CACHE_AGE_BUCKETS = (
    0.001,
    0.01,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    15.0,
    60.0,
    300.0,
)

_CacheKey = Tuple[str, str]

# What a column operation reads for a key with no entry: a stamp no TTL
# reaches and a shard no real shard equals.
_NO_SHARD = object()
_ABSENT = (None, float("-inf"), _NO_SHARD)
_value_of, _stamp_of, _shard_of = map(itemgetter, range(3))
_attributes_of = attrgetter("attributes")


@dataclass(frozen=True)
class CacheConfig(ConfigBase):
    """How the query-driven read fast path behaves.

    * ``enabled`` — master switch; ``False`` (default) keeps the
      historical behaviour exactly (no cache object is even created).
    * ``ttl_seconds`` — freshness window for device reads, in
      application-clock seconds.  ``0`` caches only within a single
      simulated instant (still enough to collapse a burst of queries
      issued at one timestamp).
    * ``coalesce`` — single-flight concurrent misses on the same key
      through one underlying driver read.
    * ``invalidate_on_publish`` — an event-driven publish drops the
      publisher's cached entry for that source (the push supersedes
      it).
    * ``shard_attribute`` — attribute name defining invalidation
      shards; a publish then also drops same-source entries of every
      cached device whose attribute value matches the publisher's
      (e.g. one presence push invalidates the whole ``parkingLot``).
      ``None`` (default) keeps invalidation per-entity.
    * ``memoize_contexts`` — layer the context memoization pass on
      top: ``query_context`` results are reused within
      ``context_ttl_seconds`` (until any invalidation), and periodic
      gathers whose merged payload hash is unchanged skip the
      recompute-and-republish entirely.
    * ``context_ttl_seconds`` — freshness window for memoized context
      queries; ``None`` (default) reuses ``ttl_seconds``.
    """

    enabled: bool = False
    ttl_seconds: float = 1.0
    coalesce: bool = True
    invalidate_on_publish: bool = True
    shard_attribute: Optional[str] = None
    memoize_contexts: bool = True
    context_ttl_seconds: Optional[float] = None

    def __post_init__(self):
        if self.ttl_seconds < 0:
            raise ValueError("ttl_seconds must be >= 0")
        if (
            self.context_ttl_seconds is not None
            and self.context_ttl_seconds < 0
        ):
            raise ValueError("context_ttl_seconds must be >= 0 or None")

    @property
    def context_ttl(self) -> float:
        """Effective freshness window for memoized context results."""
        if self.context_ttl_seconds is not None:
            return self.context_ttl_seconds
        return self.ttl_seconds


class _Flight:
    """One in-progress underlying read that coalesced callers await."""

    __slots__ = ("event", "value", "error")

    def __init__(self):
        self.event = threading.Event()
        self.value: Any = None
        self.error: Optional[BaseException] = None


class ReadCache(Instrumented):
    """Freshness-aware, single-flight memo of device source reads.

    One cache serves a whole application: sweeps, proxy reads and
    ``query_context`` pulls share entries, which is exactly what makes
    the shared-sensor pattern cheap — the first reader pays the driver
    round-trip, everyone else within the freshness window rides it.

    All public methods are thread-safe; the underlying read runs
    outside the lock so slow drivers never serialize unrelated keys.
    """

    metric_specs = (
        MetricSpec(
            "read_cache_hits_total",
            "_hits",
            stats_key="hits",
            resettable=True,
            help="Device reads served from the freshness cache.",
        ),
        MetricSpec(
            "read_cache_misses_total",
            "_misses",
            stats_key="misses",
            resettable=True,
            help="Device reads that went to the driver (cold or stale "
            "entry).",
        ),
        MetricSpec(
            "read_cache_coalesced_total",
            "_coalesced",
            stats_key="coalesced",
            resettable=True,
            help="Concurrent reads that shared another caller's "
            "in-flight driver read (single-flight).",
        ),
        MetricSpec(
            "read_cache_invalidations_total",
            "_invalidations",
            stats_key="invalidations",
            resettable=True,
            help="Cached entries dropped by actuations, publishes or "
            "explicit invalidation.",
        ),
        MetricSpec(
            "read_cache_entries",
            "entry_count",
            kind="gauge",
            help="Entries currently cached (fresh or expired-in-place).",
        ),
    )

    def __init__(
        self, clock, config: Optional[CacheConfig] = None, metrics=None
    ):
        self.clock = clock
        self.config = config if config is not None else CacheConfig()
        self._lock = threading.Lock()
        # key -> (value, stamp, shard); expired entries stay in place
        # until overwritten or invalidated (freshness is checked on
        # every hit, so staleness can never be served).
        self._entries: Dict[_CacheKey, Tuple[Any, float, Any]] = {}
        self._by_entity: Dict[str, Set[_CacheKey]] = {}
        self._by_shard: Dict[Tuple[str, Any], Set[_CacheKey]] = {}
        self._flights: Dict[_CacheKey, _Flight] = {}
        self._generation = 0
        self._hits = 0
        self._misses = 0
        self._coalesced = 0
        self._invalidations = 0
        self._m_age = None
        if metrics is not None:
            self.attach_metrics(metrics)

    # -- observability -------------------------------------------------------

    def attach_metrics(self, metrics, **labels: Any) -> None:
        """Counters via the Instrumented protocol, plus the cached-age
        histogram observed on every hit."""
        super().attach_metrics(metrics, **labels)
        self._m_age = metrics.histogram(
            "read_cache_age_seconds",
            help="Age of cached readings at the moment they were "
            "served (application-clock seconds).",
            buckets=CACHE_AGE_BUCKETS,
            **labels,
        )

    def entry_count(self) -> int:
        return len(self._entries)

    # -- live retuning -------------------------------------------------------

    def reconfigure(self, config: CacheConfig) -> None:
        """Swap the cache section live.

        TTLs, coalescing and invalidation scope are read per call, so
        swapping the record is the whole job — existing entries keep
        their stamps and are re-judged against the new TTL on their
        next hit.  The cache cannot be disabled live (its existence is
        structural wiring); ``Application.apply_config`` enforces that
        before calling here.
        """
        if not config.enabled:
            raise ValueError(
                "a live ReadCache cannot be reconfigured to disabled"
            )
        self.config = config

    def _extra_stats(self) -> Dict[str, Any]:
        return {
            "entries": len(self._entries),
            "generation": self._generation,
            "ttl_seconds": self.config.ttl_seconds,
            "coalesce": self.config.coalesce,
        }

    @property
    def generation(self) -> int:
        """Monotonic invalidation counter.

        Consumers memoizing values *derived from* cached reads (the
        application's context memoization) record the generation at
        compute time and treat any later invalidation as expiry."""
        return self._generation

    # -- the fast path -------------------------------------------------------

    def get_or_read(self, instance, source: str, read_fn) -> Any:
        """Serve ``(instance, source)`` from cache or via ``read_fn``.

        ``read_fn`` is the full supervised read (retries, timeouts,
        breaker accounting); it runs at most once per miss no matter
        how many callers coalesce onto it.  A hit never touches the
        driver, the circuit breaker or the supervisor — cached
        freshness is served even while the breaker is open, and a hit
        neither probes nor heals a degraded entity.
        """
        key = (instance.entity_id, source)
        ttl = self.config.ttl_seconds
        flight: Optional[_Flight] = None
        wait_for: Optional[_Flight] = None
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                age = self.clock.now() - entry[1]
                if age <= ttl:
                    self._hits += 1
                    if self._m_age is not None:
                        self._m_age.observe(age)
                    return entry[0]
            if self.config.coalesce:
                wait_for = self._flights.get(key)
                if wait_for is None:
                    flight = _Flight()
                    self._flights[key] = flight
                    self._misses += 1
                else:
                    self._coalesced += 1
            else:
                self._misses += 1
        if wait_for is not None:
            wait_for.event.wait()
            if wait_for.error is not None:
                raise wait_for.error
            return wait_for.value
        try:
            value = read_fn()
        except BaseException as exc:
            # Failed reads cache nothing; followers see the same error
            # (one physical failure, one breaker tick, N callers told).
            if flight is not None:
                with self._lock:
                    self._flights.pop(key, None)
                flight.error = exc
                flight.event.set()
            raise
        self._store_column((instance,), (key[0],), source, (value,))
        if flight is not None:
            flight.value = value
            with self._lock:
                self._flights.pop(key, None)
            flight.event.set()
        return value

    def peek(self, entity_id: str, source: str):
        """The fresh cached value as ``(value, age)``, else ``None``
        (wrapped so a cached ``None`` reading is distinguishable)."""
        with self._lock:
            entry = self._entries.get((entity_id, source))
            if entry is None:
                return None
            age = self.clock.now() - entry[1]
            if age > self.config.ttl_seconds:
                return None
            return entry[0], age

    def lookup_column(self, entity_ids, source: str, miss: Any) -> List[Any]:
        """A *counting* peek over a column of entities: the fresh
        cached value of ``source`` per entity, ``miss`` where there is
        none.  Every fresh entry is recorded as a hit (with its age
        observed, in column order) exactly as :meth:`get_or_read` would
        record it — under one lock hold, with no step per entity.

        The columnar gather path uses this to pull cache-fresh entities
        out of a batch cohort before the batch read — those reads are
        served by the cache, so they must count as cache hits.
        """
        ttl = self.config.ttl_seconds
        with self._lock:
            now = self.clock.now()
            keys = zip(entity_ids, repeat(source))
            entries = list(map(self._entries.get, keys, repeat(_ABSENT)))
            ages = list(map(sub, repeat(now), map(_stamp_of, entries)))
            fresh = list(map(ge, repeat(ttl), ages))
            hits = sum(fresh)
            self._hits += hits
            if hits and self._m_age is not None:
                self._m_age.observe_column(list(compress(ages, fresh)))
        if not hits:
            return [miss] * len(entries)
        values = list(map(_value_of, entries))
        for row in compress(count(), map(not_, fresh)):
            values[row] = miss
        return values

    def lookup(self, entity_id: str, source: str):
        """One row of :meth:`lookup_column`: the fresh value wrapped as
        ``(value,)``, else ``None``."""
        (value,) = self.lookup_column((entity_id,), source, _ABSENT)
        return None if value is _ABSENT else (value,)

    def store_column(self, instances, entity_ids, source: str, values) -> None:
        """Populate the cache from a read that bypassed
        :meth:`get_or_read` — a driver-level batch column, given as the
        aligned ``instances``, ``entity_ids`` and ``values`` columns.

        Every row counts as a miss (the driver was genuinely
        consulted), so hit/miss arithmetic stays comparable between
        scalar and batch runs.
        """
        with self._lock:
            self._misses += len(values)
        self._store_column(instances, entity_ids, source, values)

    def store(self, instance, source: str, value: Any) -> None:
        """One row of :meth:`store_column`."""
        self.store_column((instance,), (instance.entity_id,), source, (value,))

    def _store_column(self, instances, entity_ids, source, values) -> None:
        attr = self.config.shard_attribute
        if attr is None:
            shards = [None] * len(values)
        else:
            shards = list(
                map(methodcaller("get", attr), map(_attributes_of, instances))
            )
        keys = list(zip(entity_ids, repeat(source)))
        with self._lock:
            entries = self._entries
            now = self.clock.now()
            was = list(map(_shard_of, map(entries.get, keys, repeat(_ABSENT))))
            entries.update(zip(keys, zip(values, repeat(now), shards)))
            # The entity and shard indexes move only for rows that are
            # new or whose shard attribute changed.
            for key, old, shard in compress(
                zip(keys, was, shards), map(ne, was, shards)
            ):
                if old is not _NO_SHARD and old is not None:
                    self._discard_from_shard(key, old)
                self._by_entity.setdefault(key[0], set()).add(key)
                if shard is not None:
                    self._by_shard.setdefault((key[1], shard), set()).add(key)

    # -- invalidation --------------------------------------------------------

    def invalidate(self, entity_id: str, source: Optional[str] = None) -> int:
        """Drop the entity's cached sources (or just ``source``).

        Called by :meth:`DeviceInstance.act` after any actuation that
        reached the driver, and on unbind.  Bumps the generation even
        when nothing was cached: the actuation changed the world, so
        derived memoizations must expire regardless.
        """
        with self._lock:
            self._generation += 1
            keys = self._by_entity.get(entity_id)
            if not keys:
                return 0
            doomed = [
                key for key in keys if source is None or key[1] == source
            ]
            for key in doomed:
                self._remove(key)
            self._invalidations += len(doomed)
            return len(doomed)

    def invalidate_shard(self, source: str, shard: Any) -> int:
        """Drop every cached entry of ``source`` in one attribute shard."""
        with self._lock:
            self._generation += 1
            keys = self._by_shard.get((source, shard))
            if not keys:
                return 0
            doomed = list(keys)
            for key in doomed:
                self._remove(key)
            self._invalidations += len(doomed)
            return len(doomed)

    def on_publish(self, instance, source: str) -> int:
        """Invalidate after an event-driven publish from ``instance``.

        The push supersedes whatever was cached for the publisher; with
        a ``shard_attribute`` configured the publish also invalidates
        the publisher's whole attribute shard (one sensor announcing a
        change is evidence the shard's state moved).
        """
        if not self.config.invalidate_on_publish:
            return 0
        removed = self.invalidate(instance.entity_id, source)
        attr = self.config.shard_attribute
        if attr is not None:
            shard = instance.attributes.get(attr)
            if shard is not None:
                removed += self.invalidate_shard(source, shard)
        return removed

    def apply_invalidations(self, items) -> int:
        """Apply a batch of routed invalidation records.

        The process-sharded runtime piggybacks coordinator-side
        invalidation decisions on the next worker command instead of a
        dedicated round-trip; each record is either ``("entity",
        entity_id, source_or_None)`` or ``("cohort", source,
        shard_value)`` (the ``shard_attribute`` cohort drop a publish
        triggers).  Returns the number of entries removed.
        """
        removed = 0
        for record in items:
            kind = record[0]
            if kind == "entity":
                removed += self.invalidate(record[1], record[2])
            elif kind == "cohort":
                removed += self.invalidate_shard(record[1], record[2])
            else:
                raise ValueError(f"unknown invalidation record kind: {kind!r}")
        return removed

    def clear(self) -> int:
        """Drop every entry (counts as one generation bump)."""
        with self._lock:
            removed = len(self._entries)
            self._entries.clear()
            self._by_entity.clear()
            self._by_shard.clear()
            self._generation += 1
            self._invalidations += removed
            return removed

    # -- internals -----------------------------------------------------------

    def _remove(self, key: _CacheKey) -> None:
        entry = self._entries.pop(key, None)
        entity_keys = self._by_entity.get(key[0])
        if entity_keys is not None:
            entity_keys.discard(key)
            if not entity_keys:
                del self._by_entity[key[0]]
        if entry is not None and entry[2] is not None:
            self._discard_from_shard(key, entry[2])

    def _discard_from_shard(self, key: _CacheKey, shard: Any) -> None:
        shard_keys = self._by_shard.get((key[1], shard))
        if shard_keys is not None:
            shard_keys.discard(key)
            if not shard_keys:
                del self._by_shard[(key[1], shard)]

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return (
            f"<ReadCache entries={len(self._entries)} "
            f"ttl={self.config.ttl_seconds}s hits={self._hits} "
            f"misses={self._misses}>"
        )
