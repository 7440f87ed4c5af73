"""Simulated device drivers.

Bridges between environments and the runtime's device model.  All drivers
honour the three delivery modes: readers serve query-driven and periodic
delivery, and the push-based drivers emit event-driven readings.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple
from zlib import crc32

from repro.errors import DeliveryError
from repro.runtime.clock import Clock
from repro.runtime.device import DeviceDriver


class EnvironmentDriver(DeviceDriver):
    """A driver whose sources and actions are closures over an environment.

    >>> driver = EnvironmentDriver(
    ...     sources={"presence": lambda: env.is_occupied("A22", 3)},
    ...     actions={"update": panel_update},
    ... )
    """

    def __init__(
        self,
        sources: Optional[Dict[str, Callable[[], Any]]] = None,
        actions: Optional[Dict[str, Callable[..., Any]]] = None,
    ):
        self._sources = dict(sources or {})
        self._actions = dict(actions or {})

    def read(self, source: str) -> Any:
        try:
            reader = self._sources[source]
        except KeyError:
            raise DeliveryError(
                f"simulated device has no source '{source}'"
            ) from None
        return reader()

    def invoke(self, action: str, **params: Any) -> Any:
        try:
            handler = self._actions[action]
        except KeyError:
            raise DeliveryError(
                f"simulated device has no action '{action}'"
            ) from None
        return handler(**params)


class ClockDeviceDriver(DeviceDriver):
    """The Clock *device* of Figure 5, driven by the simulation clock.

    Once started, pushes ``tickSecond`` / ``tickMinute`` / ``tickHour``
    events (whichever the device declaration includes) and serves them as
    query-driven readings too.
    """

    def __init__(self, tick_seconds: float = 1.0):
        self.tick_seconds = tick_seconds
        self._ticks = 0
        self._jobs = []

    def start(self, clock: Clock) -> "ClockDeviceDriver":
        """Begin pushing tick events on ``clock``."""
        if self.instance is None:
            raise DeliveryError(
                "bind the driver to a device instance before starting it"
            )
        declared = set(self.instance.info.sources)
        if "tickSecond" in declared:
            self._jobs.append(
                clock.schedule_periodic(self.tick_seconds, self._second)
            )
        if "tickMinute" in declared:
            self._jobs.append(clock.schedule_periodic(60.0, self._minute))
        if "tickHour" in declared:
            self._jobs.append(clock.schedule_periodic(3600.0, self._hour))
        self._clock = clock
        return self

    def stop(self) -> None:
        for job in self._jobs:
            job.cancel()
        self._jobs.clear()

    def _second(self) -> None:
        self._ticks += 1
        self.push("tickSecond", self._ticks)

    def _minute(self) -> None:
        self.push("tickMinute", int(self._clock.now() // 60))

    def _hour(self) -> None:
        self.push("tickHour", int(self._clock.now() // 3600))

    def read_tick_second(self) -> int:
        return self._ticks

    def read_tick_minute(self) -> int:
        return self._ticks // 60

    def read_tick_hour(self) -> int:
        return self._ticks // 3600


class FleetSubstrate:
    """Shared stochastic substrate behind a whole fleet of sensors.

    One substrate stands in for the physical environment a fleet of
    simulated sensors observes.  Values are a *pure function* of
    ``(seed, source, entity_id, clock.now())`` — a crc32 hash mapped
    through the source's model callable — so a scalar read and the same
    entity's slot in a batch column are guaranteed identical, whichever
    path served it.  That determinism is what lets the equivalence
    tests pin ``batch on == batch off`` byte-for-byte.

    ``models`` maps source name → callable taking a float in ``[0, 1)``
    (the hashed uniform draw) and returning the reading; sources
    without a model return the raw draw.

    The per-tick column memo keeps a vectorized sweep cheap: the first
    read of a (source, tick) hashes every requested entity once, and
    both later scalar reads and repeated batch reads in the same tick
    are dict lookups.
    """

    def __init__(
        self,
        clock: Clock,
        seed: int = 0,
        models: Optional[Dict[str, Callable[[float], Any]]] = None,
    ):
        self.clock = clock
        self.seed = seed
        self.models = dict(models or {})
        self.scalar_reads = 0
        self.batch_reads = 0
        self.batch_values = 0
        # (source, tick) -> {entity_id: value}; only the current tick's
        # columns are kept, so memory stays O(fleet), not O(history).
        self._columns: Dict[Tuple[str, float], Dict[str, Any]] = {}

    def _draw(self, source: str, entity_id: str, now: float) -> float:
        token = f"{self.seed}:{source}:{entity_id}:{now!r}".encode()
        return crc32(token) / 4294967296.0

    def _compute(self, source: str, entity_id: str, now: float) -> Any:
        draw = self._draw(source, entity_id, now)
        model = self.models.get(source)
        return draw if model is None else model(draw)

    def _column(self, source: str) -> Dict[str, Any]:
        now = self.clock.now()
        key = (source, now)
        column = self._columns.get(key)
        if column is None:
            # New tick: drop stale columns before starting this one.
            self._columns = {key: {}}
            column = self._columns[key]
        return column

    def value(self, source: str, entity_id: str) -> Any:
        """Scalar read — identical to the entity's batch-column slot."""
        self.scalar_reads += 1
        column = self._column(source)
        try:
            return column[entity_id]
        except KeyError:
            value = self._compute(source, entity_id, self.clock.now())
            column[entity_id] = value
            return value

    def read_column(
        self, source: str, entity_ids: Sequence[str]
    ) -> List[Any]:
        """One column of values aligned with ``entity_ids``.

        The hot loop hashes straight into the tick memo — amortizing
        the clock lookup, model resolution, and memo probe across the
        whole cohort is where the vectorization win comes from.
        """
        self.batch_reads += 1
        self.batch_values += len(entity_ids)
        now = self.clock.now()
        column = self._column(source)
        model = self.models.get(source)
        prefix = f"{self.seed}:{source}:"
        suffix = f":{now!r}"
        out = []
        append = out.append
        get = column.get
        for entity_id in entity_ids:
            value = get(entity_id, _UNSET)
            if value is _UNSET:
                draw = (
                    crc32(f"{prefix}{entity_id}{suffix}".encode())
                    / 4294967296.0
                )
                value = draw if model is None else model(draw)
                column[entity_id] = value
            append(value)
        return out

    def driver(self, *sources: str) -> "SubstrateDriver":
        """A per-instance driver bound to this substrate."""
        return SubstrateDriver(self, sources=sources or None)


_UNSET = object()


class GatewaySubstrate(FleetSubstrate):
    """A :class:`FleetSubstrate` with a modeled per-read service time.

    Stands in for a field gateway whose radio budget costs
    ``service_time`` seconds of wall time per device read (scalar or
    batched — batching amortizes round-trips, not radio time).  The
    sleep happens in whichever process issues the read, so a sharded
    runtime overlaps the modeled service time across worker processes
    exactly as real gateways serve their shards concurrently.  Values
    remain the byte-identical pure function of
    ``(seed, source, entity_id, now)`` from the base class.
    """

    def __init__(
        self,
        clock: Clock,
        seed: int = 0,
        models: Optional[Dict[str, Callable[[float], Any]]] = None,
        service_time: float = 0.0,
    ):
        super().__init__(clock, seed=seed, models=models)
        self.service_time = service_time

    def value(self, source: str, entity_id: str) -> Any:
        if self.service_time > 0.0:
            import time

            time.sleep(self.service_time)
        return super().value(source, entity_id)

    def read_column(
        self, source: str, entity_ids: Sequence[str]
    ) -> List[Any]:
        if self.service_time > 0.0 and entity_ids:
            import time

            time.sleep(self.service_time * len(entity_ids))
        return super().read_column(source, entity_ids)


class SubstrateDriver(DeviceDriver):
    """Per-instance driver over a shared :class:`FleetSubstrate`.

    Many instances each get their own driver (the runtime sets
    ``driver.instance`` at bind time), but all of them answer reads
    from the same substrate — which is exactly the shape
    :meth:`batch_key` expresses: every driver sharing a substrate
    returns *that substrate* as its cohort identity, so the sweep
    engine coalesces their reads into one :meth:`read_batch` column.
    """

    def __init__(
        self,
        substrate: FleetSubstrate,
        sources: Optional[Sequence[str]] = None,
    ):
        self.substrate = substrate
        self._sources = frozenset(sources) if sources is not None else None

    def _check_source(self, source: str) -> None:
        if self._sources is not None and source not in self._sources:
            raise DeliveryError(
                f"substrate driver has no source '{source}'"
            )

    def read(self, source: str) -> Any:
        self._check_source(source)
        if self.instance is None:
            raise DeliveryError(
                "bind the driver to a device instance before reading"
            )
        return self.substrate.value(source, self.instance.entity_id)

    def read_batch(self, entity_ids, source: str):
        self._check_source(source)
        return self.substrate.read_column(source, entity_ids)

    def batch_key(self, source: str):
        if self._sources is not None and source not in self._sources:
            return None
        return self.substrate


class ThresholdPushDriver(EnvironmentDriver):
    """Polls a reading and pushes an event when it crosses a threshold.

    Models event-driven sensors (door opened, tank above level): the
    driver samples ``probe`` every ``sample_seconds`` and pushes on each
    rising edge of ``predicate``.
    """

    def __init__(
        self,
        source: str,
        probe: Callable[[], Any],
        predicate: Callable[[Any], bool],
        sample_seconds: float = 1.0,
        **kwargs,
    ):
        super().__init__(sources={source: probe}, **kwargs)
        self.source = source
        self.probe = probe
        self.predicate = predicate
        self.sample_seconds = sample_seconds
        self._armed = True
        self._job = None

    def start(self, clock: Clock) -> "ThresholdPushDriver":
        if self._job is not None:
            raise DeliveryError("driver already started")
        self._job = clock.schedule_periodic(self.sample_seconds, self._sample)
        return self

    def stop(self) -> None:
        if self._job is not None:
            self._job.cancel()
            self._job = None

    def _sample(self) -> None:
        value = self.probe()
        if self.predicate(value):
            if self._armed:
                self._armed = False
                self.push(self.source, value)
        else:
            self._armed = True
