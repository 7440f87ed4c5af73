"""Runtime device instances and drivers.

A :class:`DeviceInstance` is one concrete entity bound to the environment:
a presence sensor in lot A22, the kitchen cooker.  Its behaviour comes
from a :class:`DeviceDriver` — "implementing a device driver" in the
paper's words (Section III) — which must support all **three data delivery
modes** so client applications are free to choose any of them:

* **query-driven**: the runtime calls :meth:`DeviceDriver.read`;
* **periodic**: the runtime polls :meth:`DeviceDriver.read` on a schedule;
* **event-driven**: the driver pushes via :meth:`DeviceInstance.publish`.

Attribute values (``parkingLot = "A22"``) are validated against the
design's declared attribute types at construction, reproducing the
registration step of entity binding; the record is then read-only,
and shared by every instance of the declaration with an equal one.
"""

from __future__ import annotations

import functools
import time
from collections.abc import Collection
from itertools import repeat
from operator import methodcaller
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from repro.errors import (
    ActuationError,
    BindingError,
    CircuitOpenError,
    DeliveryError,
    DeviceUnavailableError,
    ValueConformanceError,
)
from repro.naming import (
    camel_to_snake,
    driver_handler_name,
    driver_reader_name,
)
from repro.sema.symbols import DeviceInfo
from repro.typesys.values import check_value, checker, coerce_value, coercer


class DeviceDriver:
    """Base class for device behaviour.

    Subclasses implement sources as ``read_<source>()`` methods (snake
    case) and actions as ``do_<action>(**params)`` methods, or override
    :meth:`read` / :meth:`invoke` wholesale.  The driver gains access to
    its bound instance through ``self.instance`` (set at bind time), which
    it uses to push event-driven readings.
    """

    instance: Optional["DeviceInstance"] = None

    def read(self, source: str) -> Any:
        """Query-driven delivery: return the current value of ``source``."""
        method = getattr(self, driver_reader_name(source), None)
        if method is None:
            raise DeliveryError(
                f"{type(self).__name__} implements no reader for source "
                f"'{source}'"
            )
        return method()

    def invoke(self, action: str, **params: Any) -> Any:
        """Actuation: perform ``action`` with ``params``.

        Parameter names arrive in DiaSpec spelling (``questionId``) and are
        converted to the ``do_*`` method's snake_case spelling.
        """
        method = getattr(self, driver_handler_name(action), None)
        if method is None:
            raise ActuationError(
                f"{type(self).__name__} implements no handler for action "
                f"'{action}'"
            )
        return method(
            **{camel_to_snake(name): value for name, value in params.items()}
        )

    def read_batch(self, entity_ids, source: str):
        """Columnar batch read: one column of values for many entities.

        Drivers backed by a shared substrate (a vectorized simulation
        model, a fleet gateway that answers one RPC for a whole fleet)
        override this to return a sequence of raw values **aligned
        with** ``entity_ids`` (read it, never mutate it: the runtime
        reuses the column across sweeps).  A serial sweep then issues
        one batch read per cohort — the members whose drivers are of
        one class and share a :meth:`batch_key` — instead of one Python
        :meth:`read` per device, and it may hand the column to any
        member's driver.

        A batch read answers per member: a
        :class:`~repro.errors.DeliveryError` in place of a value says
        that member's read failed.  It counts as the member's first
        read attempt, and the member goes on as a scalar read that
        failed it would — the rest of its retry budget, then breaker,
        failure counter and stale policy — while the rest of the column
        is delivered.

        The default returns :data:`NotImplemented` — "this driver only
        reads one entity at a time" — and a driver class that does not
        override it never meets the columnar path (:func:`batches`).
        Raising, or returning :data:`NotImplemented`, ``None`` or a
        mis-sized column at runtime demotes the whole cohort to scalar
        reads with full per-entity supervision accounting.
        """
        return NotImplemented

    def batch_key(self, source: str):
        """Cohort identity for columnar reads.

        Instances whose drivers are of one class and return the *same
        object* (identity comparison) may be coalesced into one
        :meth:`read_batch` call — typically the shared substrate behind
        the per-instance drivers.
        ``None`` (the default for drivers that do not override
        :meth:`read_batch`) opts the instance out of batching entirely.

        The key is asked once per bound instance and source, and holds
        until :meth:`DeviceInstance.swap_driver` replaces the driver:
        membership changes carry it over instead of asking again.
        """
        return self if batches(self) else None

    def push(self, source: str, value: Any, index: Any = None) -> None:
        """Event-driven delivery: publish a reading through the instance."""
        if self.instance is None:
            raise DeliveryError("driver is not bound to a device instance")
        self.instance.publish(source, value, index=index)


def batches(driver: DeviceDriver) -> bool:
    """Can ``driver`` read a column?  Its class overrides
    :meth:`DeviceDriver.read_batch` — the one fact that decides whether
    a sweep forms batch cohorts at all."""
    return type(driver).read_batch is not DeviceDriver.read_batch


class CallableDriver(DeviceDriver):
    """Driver assembled from plain callables — convenient for tests.

    >>> driver = CallableDriver(
    ...     sources={"consumption": lambda: 1500.0},
    ...     actions={"Off": lambda: turn_off()},
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
            raise DeliveryError(f"no reader for source '{source}'") from None
        return reader()

    def invoke(self, action: str, **params: Any) -> Any:
        try:
            handler = self._actions[action]
        except KeyError:
            raise ActuationError(f"no handler for action '{action}'") from None
        return handler(**params)


class Wiring:
    """What every instance of one declaration bound in one application
    shares: the hook its publishes go to, the read cache, its four read
    counters, and who records its actuations (``actuated(instance,
    action, params)``, before the action runs).  An application keeps
    one per declaration (``app.wirings``); an unbound instance has
    :data:`DETACHED`."""

    __slots__ = (
        "publish_hook",
        "cache",
        "reads",
        "retries",
        "timeouts",
        "failures",
        "actuated",
    )

    def __init__(self, publish_hook=None, cache=None):
        self.publish_hook = publish_hook
        self.cache = cache
        self.reads = self.retries = self.timeouts = self.failures = None
        self.actuated = None

    def count_into(self, metrics, device_type: str) -> None:
        """Count reads in ``metrics``' counters of ``device_type``."""
        self.reads, self.retries, self.timeouts, self.failures = (
            metrics.counter(name, help=text, device_type=device_type)
            for name, text in (
                (
                    "device_reads_total",
                    "Query-driven/periodic reads attempted per device type.",
                ),
                (
                    "device_read_retries_total",
                    "Re-attempts after a failed or timed-out read.",
                ),
                (
                    "device_read_timeouts_total",
                    "Read attempts that exceeded their declared timeout.",
                ),
                (
                    "device_read_failures_total",
                    "Reads that failed after exhausting their retry budget.",
                ),
            )
        )


#: What an unbound instance is wired to: nothing.  Never changed.
DETACHED = Wiring()


class DeviceInstance:
    """One bound entity: identity + attributes + driver.

    Every entity in a typical IoT infrastructure "has a unique identity,
    as well as network, computing and storage capabilities" (Section I);
    here that is the ``entity_id``, the attribute record, and the driver.

    The attribute record is read-only and shared by every instance of
    the declaration with an equal record (:func:`attribute_record`);
    what an application wires in is one shared :class:`Wiring`.
    """

    __slots__ = (
        "info",
        "entity_id",
        "attributes",
        "driver",
        "supervisor",
        "plan",
        "_failed",
        "_wiring",
        "_cached_proxy",
        # The registry's registration ordinal (repro.runtime.registry).
        "_registration",
    )

    #: Driver swaps in this process: what voids cohort plans (a swap is
    #: rare, and an instance does not know which sweeps read it).
    driver_swaps = 0
    #: Writes of a ``failed`` flag in this process (:attr:`failed`):
    #: what tells a sweep that a flag moved after the registry filtered
    #: its members, and the registry that its last flag scan still holds.
    failed_flips = 0

    def __init__(
        self,
        info: DeviceInfo,
        entity_id: str,
        driver: DeviceDriver,
        attributes: Optional[Dict[str, Any]] = None,
    ):
        self.info = info
        self.entity_id = entity_id
        row = attributes or {}
        self.attributes = attribute_record(info, entity_id, row, row.values())
        self._failed = False
        self.driver = driver
        driver.instance = self
        self.detach()

    @classmethod
    def column(
        cls,
        info: DeviceInfo,
        entity_ids: Sequence[str],
        drivers: Sequence[DeviceDriver],
        columns: Mapping[str, Sequence[Any]],
    ) -> List["DeviceInstance"]:
        """One instance per entity id, as the constructor builds it from
        its driver and its row of ``columns`` (attribute -> values),
        except that no driver points at its instance yet: binding does
        (:meth:`~repro.runtime.app.Application.bind_column`), so a
        column that fails leaves its drivers as they were.  A row seen
        before maps to its record unchecked (:func:`attribute_record`);
        the first bad row raises what its own bind would."""
        for name, values in (("drivers", drivers), *columns.items()):
            if len(values) != len(entity_ids):
                raise BindingError(
                    f"column '{name}' holds {len(values)} values for "
                    f"{len(entity_ids)} {info.name} entities"
                )
        names = tuple(columns)
        rows = zip(*columns.values()) if names else repeat(())
        new = cls.__new__
        column = []
        for entity_id, driver, row in zip(entity_ids, drivers, rows):
            record = attribute_record(info, entity_id, names, row)
            instance = new(cls)
            instance.info = info
            instance.entity_id = entity_id
            instance.attributes = record
            instance._failed = False
            instance.driver = driver
            instance.detach()
            column.append(instance)
        return column

    # -- wiring -------------------------------------------------------------

    def wire(self, wiring: Wiring) -> None:
        """Point the instance at an application's shared wiring."""
        self._wiring = wiring
        self.plan = None

    def attach_supervisor(self, supervisor) -> None:
        """Put the instance under a :class:`DeviceSupervisor`'s care.

        The supervisor gates reads/actuations through its circuit
        breaker, overrides the design's retry/timeout declarations when
        its policy says so, and caches successful readings for
        stale-value degraded delivery.
        """
        self.supervisor = supervisor
        self.plan = None

    def detach(self) -> None:
        """Undo ``wire`` and ``attach_supervisor``: the instance reads
        and acts as one nothing was ever attached to."""
        self._wiring = DETACHED
        # Supervision handle (repro.faults): None means unsupervised —
        # the exact pre-supervision behaviour at zero added cost.
        self.supervisor = None
        self.plan = None
        # Drop the memoized device proxy (repro.runtime.proxies) so a
        # later rebind builds a fresh one instead of resurrecting the
        # detached wiring.
        self._cached_proxy = None

    def swap_driver(self, driver: DeviceDriver) -> DeviceDriver:
        """Put ``driver`` behind the instance — through here, never by
        assignment: the plan depends on its class, cohort plans on its
        ``batch_key`` (:attr:`driver_swaps`).  Returns the one it
        replaces."""
        previous, self.driver = self.driver, driver
        driver.instance = self
        self.plan = None
        DeviceInstance.driver_swaps += 1
        return previous

    def bind_plan(self) -> "_Plan":
        """Resolve ``self.plan``: what a read of each source and a call
        of each action come down to, shared by every instance of this
        declaration with this driver class and envelope (anything
        attached?).  Whatever changes one of those resets it to None."""
        enveloped = (
            self.supervisor is not None or self._wiring.cache is not None
        )
        key = (type(self.driver), enveloped)
        plans = self.info.__dict__.setdefault("_plans", {})
        plan = plans.get(key)
        if plan is None:
            plan = _Plan(_compile_reader, self.info, *key)
            plan.actors = _Plan(_compile_actor, self.info, key[0])
            # Wall-clock timer threads may bind concurrently: the first
            # one in wins.
            plan = plans.setdefault(key, plan)
        self.plan = plan
        return plan

    # -- the three delivery modes --------------------------------------------

    def read(self, source: str) -> Any:
        """Query-driven read, validated against the declared source type.

        Applies the source's declared error policy (``expect timeout ...
        retry N``): failed reads are retried up to N times, and a read
        exceeding the timeout (wall-clock) is treated as failed.

        With a read cache attached, a value fresher than the cache TTL
        is served without touching the driver or the supervision state;
        misses (and all reads when no cache is attached) take the path
        below unchanged.

        How much of this a source needs is resolved once, in the plan.
        """
        plan = self.plan
        if plan is None:
            plan = self.bind_plan()
        return plan[source](self)

    def _read_general(
        self, source: str, failed: Optional[DeliveryError] = None
    ) -> Any:
        """A read with everything that may apply to one.  Given the
        ``failed`` error of a first attempt a batch read made — gated
        and counted there — it goes on as :meth:`read` goes on after a
        failed first attempt: the rest of the retry budget, then the
        failure counter and the breaker."""
        cache = self._wiring.cache
        if cache is None:
            return self._read_fresh(source, failed)
        if self._failed:
            # A hard-failed device must not be masked by cached
            # freshness; the failure check stays authoritative.
            raise DeviceUnavailableError(
                f"device '{self.entity_id}' has failed and cannot be read",
                entity_id=self.entity_id,
            )
        return cache.get_or_read(
            self, source, functools.partial(self._read_fresh, source, failed)
        )

    def _read_fresh(
        self, source: str, failed: Optional[DeliveryError] = None
    ) -> Any:
        """The uncached supervised read (the historical ``read`` body;
        ``failed``: see :meth:`_read_general`)."""
        if self._failed:
            raise DeviceUnavailableError(
                f"device '{self.entity_id}' has failed and cannot be read",
                entity_id=self.entity_id,
            )
        source_info = self.info.source(source)
        supervisor = self.supervisor
        if supervisor is not None:
            if failed is None and not supervisor.allow():
                raise CircuitOpenError(
                    f"circuit breaker open for '{self.entity_id}'; read "
                    f"of '{source}' refused",
                    entity_id=self.entity_id,
                )
            attempts = 1 + supervisor.policy.retries_for(source_info)
            timeout = supervisor.policy.timeout_for(source_info)
        else:
            attempts = 1 + source_info.retries
            timeout = source_info.timeout_seconds
        last_error = failed
        wiring = self._wiring
        if failed is None and wiring.reads is not None:
            wiring.reads.inc()
        for attempt in range(failed is not None, attempts):
            if attempt and wiring.retries is not None:
                wiring.retries.inc()
            # A read is timed only when a timeout is in force: nothing
            # else looks at how long it took.
            started = 0.0 if timeout is None else time.perf_counter()
            try:
                value = self.driver.read(source)
            except DeliveryError as exc:
                last_error = exc
                continue
            if timeout is not None:
                # Chaos-injected latency is virtual (no sleeping): the
                # wrapper reports it and the timeout check honours it.
                elapsed = time.perf_counter() - started + getattr(
                    self.driver, "last_injected_latency", 0.0
                )
                if elapsed > timeout:
                    last_error = DeliveryError(
                        f"read of '{source}' on '{self.entity_id}' "
                        f"exceeded its {timeout}s timeout"
                    )
                    if wiring.timeouts is not None:
                        wiring.timeouts.inc()
                    continue
            value = coerce_value(source_info.dia_type, value)
            if supervisor is not None:
                supervisor.record_success(source, value)
            return value
        if wiring.failures is not None:
            wiring.failures.inc()
        if supervisor is not None:
            supervisor.record_failure()
            raise DeviceUnavailableError(
                f"read of '{source}' on '{self.entity_id}' failed after "
                f"{attempts} attempt(s): {last_error}",
                entity_id=self.entity_id,
            ) from last_error
        raise last_error  # type: ignore[misc]

    def publish(self, source: str, value: Any, index: Any = None) -> None:
        """Event-driven push from the driver into the application."""
        if self._failed:
            return
        source_info = self.info.source(source)
        value = coerce_value(source_info.dia_type, value)
        if source_info.is_indexed and index is not None:
            check_value(source_info.index_type, index)
        hook = self._wiring.publish_hook
        if hook is not None:
            hook(self, source, value, index)

    def act(self, action: str, **params: Any) -> Any:
        """Issue an action, validating parameters against the declaration."""
        wiring = self._wiring
        if wiring.actuated is not None:
            wiring.actuated(self, action, params)
        if self._failed:
            raise ActuationError(
                f"device '{self.entity_id}' has failed and cannot act"
            )
        plan = self.plan
        if plan is None:
            plan = self.bind_plan()
        declared, checks, call = plan.actors[action]
        if params.keys() != checks.keys():
            raise ActuationError(
                f"action '{action}' on '{self.entity_id}' expects parameters "
                f"{declared}, got {sorted(params)}"
            )
        for name, value in params.items():
            checks[name](value)
        supervisor = self.supervisor
        if supervisor is not None and not supervisor.allow():
            raise CircuitOpenError(
                f"circuit breaker open for '{self.entity_id}'; action "
                f"'{action}' refused",
                entity_id=self.entity_id,
            )
        try:
            result = call(self.driver, params)
        except (ActuationError, DeliveryError):
            if supervisor is not None:
                supervisor.record_failure()
            raise
        finally:
            # Actuation reached the driver: the physical state this
            # device's sources report may have changed, so cached
            # readings (even from a failed actuation, which may have
            # had partial effect) are no longer trustworthy.
            if wiring.cache is not None:
                wiring.cache.invalidate(self.entity_id)
        if supervisor is not None:
            supervisor.record_success()
        return result

    # -- failure injection ----------------------------------------------------

    @property
    def failed(self) -> bool:
        """Is the device hard-failed?  Every write, by :meth:`fail`,
        :meth:`recover` or assignment, counts in :attr:`failed_flips`,
        so a flag that moves while a sweep runs, or between two sweeps
        of one registry version, is seen.  The runtime's own per-member
        reads load ``_failed``: the property costs a frame a member."""
        return self._failed

    @failed.setter
    def failed(self, value: bool) -> None:
        self._failed = value
        DeviceInstance.failed_flips += 1

    def fail(self) -> None:
        """Mark the device as failed (Section VI: device-failure
        dimension)."""
        self.failed = True

    def recover(self) -> None:
        self.failed = False

    def __repr__(self) -> str:
        attrs = ", ".join(f"{k}={v!r}" for k, v in self.attributes.items())
        return f"<{self.info.name} {self.entity_id} {attrs}>"


class AttributeRecord(dict):
    """An instance's attribute record: a dict nothing may change.  The
    registry indexes instances by their records at registration, so a
    record changed afterwards would give discovery two answers."""

    __slots__ = ()

    def _read_only(self, *args: Any, **kwargs: Any) -> None:
        raise TypeError("attribute records are read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        return AttributeRecord, (dict(self),)


#: Distinct records shared per declaration.  Past it a record is its
#: instance's own, at a plain dict's cost: a declaration whose records
#: are all distinct (a location per panel) gains nothing from sharing.
SHARED_RECORDS = 1024


def attribute_record(
    info: DeviceInfo,
    entity_id: str,
    names: Collection[str],
    values: Collection[Any],
) -> AttributeRecord:
    """The attribute record of ``entity_id`` from its row, ``names``
    and aligned ``values``: the values checked against ``info``'s
    declared types and canonicalized (e.g. dicts become immutable
    StructureValue records, so records are hashable and indexable), in
    declaration order.  Equal records of one declaration are one shared
    object (up to :data:`SHARED_RECORDS` of them); a record holding an
    unhashable value is its own.

    A row that made a shared record maps to it unchecked after that
    (no dict built), keyed by its names, values *and classes*, so
    ``1``, ``True`` and ``1.0`` are each checked."""
    checked = info.__dict__.setdefault("_checked", {})
    key = (*names, *values, *map(type, values))
    try:
        record = checked.get(key)
    except TypeError:  # an unhashable value: checked on its own
        record = key = None
    if record is not None:
        return record
    attributes = dict(zip(names, values))
    types = info.attribute_types
    if attributes.keys() != types.keys():
        missing = types.keys() - attributes.keys()
        if missing:
            raise BindingError(
                f"device '{entity_id}' of type {info.name}: attribute(s) "
                f"{sorted(missing)} must be set at registration"
            )
        raise BindingError(
            f"device '{entity_id}' of type {info.name}: unknown "
            f"attribute(s) {sorted(attributes.keys() - types.keys())}"
        )
    try:
        values = tuple(
            check_value(dia_type, attributes[name])
            for name, dia_type in types.items()
        )
    except ValueConformanceError as error:
        raise ValueConformanceError(
            f"device '{entity_id}' of type {info.name}: {error}"
        ) from None
    records = info.__dict__.setdefault("_records", {})
    try:
        record = records.get(values)
    except TypeError:  # an unhashable value
        return AttributeRecord(zip(types, values))
    if record is None:
        record = AttributeRecord(zip(types, values))
        if len(records) >= SHARED_RECORDS:
            return record
        record = records.setdefault(values, record)
    if key is not None and len(checked) < SHARED_RECORDS:
        checked[key] = record
    return record


class _Plan(dict):
    """``source -> reader(instance)``, each entry compiled on first
    use; ``actors`` is the same for ``action -> (declared, checks,
    call)``.  Holds no instance: drivers are reached by method name."""

    def __init__(self, compile: Callable[..., Any], *key: Any):
        self.compile, self.key = compile, key

    def __missing__(self, name: str) -> Any:
        compiled = self[name] = self.compile(*self.key, name)
        return compiled


def _compile_reader(info, driver_class, enveloped, source):
    """With nothing to apply — no cache, supervisor, declared timeout
    or retries — and a ``read_<source>`` method under the stock
    :meth:`DeviceDriver.read`, one function; else the general body (a
    driver overriding ``read`` wholesale simply opts out)."""
    source_info = info.sources.get(source)
    method = driver_reader_name(source)
    if (
        enveloped
        or source_info is None  # the general body says so, in its turn
        or source_info.retries
        or source_info.timeout_seconds is not None
        or driver_class.read is not DeviceDriver.read
        or not hasattr(driver_class, method)
    ):
        return functools.partial(DeviceInstance._read_general, source=source)
    coerce = coercer(source_info.dia_type)
    call = methodcaller(method)

    def read(instance: DeviceInstance) -> Any:
        # _read_fresh, for the one attempt nobody times or supervises.
        if instance._failed:
            return instance._read_fresh(source)  # raises
        wiring = instance._wiring
        if wiring.reads is not None:
            wiring.reads.inc()
        try:
            value = call(instance.driver)
        except DeliveryError:
            if wiring.failures is not None:
                wiring.failures.inc()
            raise
        return coerce(value)

    return read


def _compile_actor(info, driver_class, action):
    """``(declared names, name -> its compiled check, call(driver,
    params))``: under the stock :meth:`DeviceDriver.invoke` the
    ``do_<action>`` method is called with the parameters as given, or
    renamed to snake case where a name needs it; else ``invoke``."""
    params = info.action(action).params
    handler = driver_handler_name(action)
    checks = {name: checker(dia_type) for name, dia_type in params}
    snake = {name: camel_to_snake(name) for name in checks}
    renames = snake != dict(zip(snake, snake))
    direct = driver_class.invoke is DeviceDriver.invoke and hasattr(
        driver_class, handler
    )

    def call(driver, given):
        if not direct:
            return driver.invoke(action, **given)
        if renames:
            given = {snake[name]: value for name, value in given.items()}
        return getattr(driver, handler)(**given)

    return list(checks), checks, call
