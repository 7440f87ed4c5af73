"""Freshness-aware read cache for query-driven delivery.

The paper's "delivering data" activity names three WSN delivery models
(Section III); periodic sweeps got their fast path in the streaming and
columnar-read work, but the **query-driven** model still paid one
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
* **Single-flight coalescing** — when concurrent callers miss on the
  same key, exactly one performs the underlying driver read; the rest
  block on its result (or its exception) instead of issuing duplicate
  reads.  Sweeps run in one loop, but a
  :class:`~repro.runtime.clock.WallClock` runs every scheduled job —
  each periodic gather, each controller tick — on its own
  ``threading.Timer`` thread, so two jobs due together read side by
  side: that is why the cache keeps its lock.
* **Invalidation hooks** — an actuation on a device drops every cached
  source of that device (the physical state its sources report may
  have changed); an event-driven publish drops the publisher's entry
  for that source (the push supersedes it).  Every invalidation bumps
  a monotonically increasing ``generation``, so a read that an
  invalidation overtakes stores nothing.

The cache memoizes device reads only, never what a context computes
from them: every period still activates its context, and every
``query_context`` pull still calls ``when_required``.

A periodic gather asks and tells the cache a whole column at a time
(:meth:`ReadCache.lookup_column`, :meth:`ReadCache.store_column`), and
two column answers take no step per entity: a table whose newest entry
is past the TTL misses every row, and ids equal to those the table
last stored — asked again by a second context over the same source,
before anything was dropped — are served that store's values.  Either
counts hits and ages exactly as the rows one at a time would.

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
from operator import attrgetter, ge, not_, sub
from typing import Any, Dict, List, Optional, Tuple

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

# The stamp a column lookup reads for an entity with no entry: no TTL
# reaches it.
_NEVER = float("-inf")
_MISS = object()
_values_of = attrgetter("values")


@dataclass(frozen=True)
class CacheConfig(ConfigBase):
    """How the query-driven read fast path behaves.

    * ``enabled`` — master switch; ``False`` (default) keeps the
      historical behaviour exactly (no cache object is even created).
    * ``ttl_seconds`` — freshness window for device reads, in
      application-clock seconds.  ``0`` caches only within a single
      simulated instant (still enough to collapse a burst of queries
      issued at one timestamp).

    Concurrent misses on one key always share one driver read, and a
    publish always drops the publisher's entry for that source.
    """

    enabled: bool = False
    ttl_seconds: float = 1.0

    def __post_init__(self):
        if self.ttl_seconds < 0:
            raise ValueError("ttl_seconds must be >= 0")


class _Flight:
    """One in-progress underlying read that coalesced callers await."""

    __slots__ = ("event", "value", "error")

    def __init__(self):
        self.event = threading.Event()
        self.value: Any = None
        self.error: Optional[BaseException] = None


class _Table:
    """One source's entries, keyed by entity id: value and stamp.
    Expired entries stay until overwritten or invalidated.

    Two facts let a column lookup answer without a probe per entity:
    ``newest``, the stamp of its last store — the newest it holds, as
    the clock never runs backwards — and ``column``, the ``(ids,
    values)`` that store wrote, ``None`` once an invalidation dropped
    an entry since: while it is set, those ids hold those values,
    stamped ``newest``."""

    __slots__ = ("values", "stamps", "newest", "column")

    def __init__(self):
        self.values: Dict[str, Any] = {}
        self.stamps: Dict[str, float] = {}
        self.newest = _NEVER
        self.column: Optional[Tuple[List[str], List[Any]]] = None


class ReadCache(Instrumented):
    """Freshness-aware, single-flight memo of device source reads.

    One cache serves a whole application: sweeps, proxy reads and
    ``query_context`` pulls share entries, which is exactly what makes
    the shared-sensor pattern cheap — the first reader pays the driver
    round-trip, everyone else within the freshness window rides it.

    All public methods are thread-safe; the underlying read runs
    outside the lock so slow drivers never serialize unrelated keys.
    A read that an invalidation overtakes stores nothing: whatever it
    returned may predate what the invalidation announced.
    """

    metric_specs = (
        MetricSpec(
            "read_cache_hits_total",
            "_hits",
            stats_key="hits",
            help="Device reads served from the freshness cache.",
        ),
        MetricSpec(
            "read_cache_misses_total",
            "_misses",
            stats_key="misses",
            help="Device reads that went to the driver (cold or stale "
            "entry).",
        ),
        MetricSpec(
            "read_cache_coalesced_total",
            "_coalesced",
            stats_key="coalesced",
            help="Concurrent reads that shared another caller's "
            "in-flight driver read (single-flight).",
        ),
        MetricSpec(
            "read_cache_invalidations_total",
            "_invalidations",
            stats_key="invalidations",
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
        # source -> its entries; an invalidation walks these few tables.
        self._tables: Dict[str, _Table] = {}
        self._flights: Dict[Tuple[str, str], _Flight] = {}
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
        return sum(map(len, map(_values_of, self._tables.values())))

    def _extra_stats(self) -> Dict[str, Any]:
        return {
            "entries": self.entry_count(),
            "generation": self._generation,
            "ttl_seconds": self.config.ttl_seconds,
        }

    @property
    def generation(self) -> int:
        """Monotonic invalidation counter.

        A reader bypassing :meth:`get_or_read` records it before its
        read and hands it to :meth:`store_column`, which stores nothing
        if an invalidation came in between."""
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
        with self._lock:
            fresh = self._fresh(*key)
            if fresh is not None:
                self._hits += 1
                if self._m_age is not None:
                    self._m_age.observe(fresh[1])
                return fresh[0]
            since = self._generation
            wait_for = self._flights.get(key)
            if wait_for is None:
                flight = self._flights[key] = _Flight()
                self._misses += 1
            else:
                self._coalesced += 1
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
            with self._lock:
                self._flights.pop(key, None)
            flight.error = exc
            flight.event.set()
            raise
        self._store_column((key[0],), source, (value,), since)
        flight.value = value
        with self._lock:
            self._flights.pop(key, None)
        flight.event.set()
        return value

    def peek(self, entity_id: str, source: str):
        """The fresh cached value as ``(value, age)``, else ``None``
        (wrapped so a cached ``None`` reading is distinguishable)."""
        with self._lock:
            return self._fresh(entity_id, source)

    def lookup_column(self, entity_ids, source: str, miss: Any) -> List[Any]:
        """A *counting* peek over a column of entities: the fresh
        cached value of ``source`` per entity, ``miss`` where there is
        none.  Every fresh entry is recorded as a hit (with its age
        observed, in column order) exactly as :meth:`get_or_read` would
        record it — under one lock hold, with no step per entity.

        The columnar gather path uses this to pull cache-fresh entities
        out of a batch cohort before the batch read — those reads are
        served by the cache, so they must count as cache hits.  A table
        past its TTL, or the ids it last stored, answer with no probe
        per entity (see :class:`_Table`).
        """
        ttl = self.config.ttl_seconds
        with self._lock:
            table = self._tables.get(source)
            if table is None:
                return [miss] * len(entity_ids)
            now = self.clock.now()
            age = now - table.newest
            if age > ttl:
                return [miss] * len(entity_ids)
            column = table.column
            if column is not None and entity_ids == column[0]:
                self._hits += len(entity_ids)
                if self._m_age is not None:
                    self._m_age.observe_column([age] * len(entity_ids))
                return column[1][:]
            stamps = map(table.stamps.get, entity_ids, repeat(_NEVER))
            ages = list(map(sub, repeat(now), stamps))
            fresh = list(map(ge, repeat(ttl), ages))
            hits = fresh.count(True)
            if not hits:
                return [miss] * len(entity_ids)
            self._hits += hits
            everyone = hits == len(fresh)
            if self._m_age is not None:
                self._m_age.observe_column(
                    ages if everyone else list(compress(ages, fresh))
                )
            values = list(map(table.values.get, entity_ids))
        if not everyone:
            for row in compress(count(), map(not_, fresh)):
                values[row] = miss
        return values

    def lookup(self, entity_id: str, source: str):
        """One row of :meth:`lookup_column`: the fresh value wrapped as
        ``(value,)``, else ``None``."""
        (value,) = self.lookup_column((entity_id,), source, _MISS)
        return None if value is _MISS else (value,)

    def store_column(
        self, entity_ids, source: str, values, since=None
    ) -> None:
        """Populate the cache from a read that bypassed
        :meth:`get_or_read` — a driver-level batch column, given as the
        aligned ``entity_ids`` and ``values`` columns (each entity
        once).
        ``since`` is the :attr:`generation` read before the read began
        (``None``: just now); if an invalidation came in between, the
        column is not stored.

        Every row counts as a miss (the driver was genuinely
        consulted), so hit/miss arithmetic stays comparable between
        scalar and batch runs.
        """
        with self._lock:
            self._misses += len(values)
        self._store_column(entity_ids, source, values, since)

    def _store_column(self, entity_ids, source, values, since):
        with self._lock:
            if since is not None and since != self._generation:
                return
            table = self._tables.get(source)
            if table is None:
                table = self._tables[source] = _Table()
            now = self.clock.now()
            table.values.update(zip(entity_ids, values))
            table.stamps.update(zip(entity_ids, repeat(now)))
            table.newest = now
            table.column = list(entity_ids), list(values)

    # -- invalidation --------------------------------------------------------

    def invalidate(self, entity_id: str, source: Optional[str] = None) -> int:
        """Drop the entity's cached sources (or just ``source``).

        Called by :meth:`DeviceInstance.act` after any actuation that
        reached the driver, on unbind, and with ``source`` after an
        event-driven publish (the push supersedes the cached read).
        Bumps the generation even when nothing was cached: the world
        changed, so a read already in flight must not store.
        """
        with self._lock:
            self._generation += 1
            doomed = [
                table
                for name, table in self._tables.items()
                if source in (None, name) and entity_id in table.stamps
            ]
            for table in doomed:
                del table.values[entity_id], table.stamps[entity_id]
                table.column = None
            self._invalidations += len(doomed)
            return len(doomed)

    def clear(self) -> int:
        """Drop every entry (counts as one generation bump)."""
        with self._lock:
            removed = self.entry_count()
            self._tables.clear()
            self._generation += 1
            self._invalidations += removed
            return removed

    # -- internals -----------------------------------------------------------

    def _fresh(self, entity_id: str, source: str):
        """``(value, age)`` of a fresh entry, else ``None`` (under the
        lock)."""
        table = self._tables.get(source)
        if table is None or entity_id not in table.stamps:
            return None
        age = self.clock.now() - table.stamps[entity_id]
        if age > self.config.ttl_seconds:
            return None
        return table.values[entity_id], age

    def __len__(self) -> int:
        return self.entry_count()

    def __repr__(self) -> str:
        return (
            f"<ReadCache entries={self.entry_count()} "
            f"ttl={self.config.ttl_seconds}s hits={self._hits} "
            f"misses={self._misses}>"
        )
