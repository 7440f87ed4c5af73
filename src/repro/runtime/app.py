"""Application assembly and execution.

:class:`Application` turns an analyzed design plus component
implementations and bound devices into a running orchestrating
application.  It is the Python counterpart of the runtime system the
paper's generated frameworks call into: components are "called as
required by the runtime system" (Section V) — inversion of control.

Wiring follows the design exactly:

* every ``when provided <source> from <device>`` becomes a bus
  subscription on that device type's source events;
* every ``when periodic ... <period>`` becomes a scheduled gathering job
  that polls all bound instances, groups, optionally MapReduces, and
  optionally window-accumulates before invoking the callback;
* every ``when provided <context>`` becomes a subscription on the
  provider's published values;
* publish disciplines (``always``/``maybe``/``no``) are enforced, and all
  published values are checked against the context's declared type.

Dispatch is synchronous and deterministic: subscriptions are installed in
SCC layer order, so a published value reaches same-layer subscribers in
declaration order and flows monotonically toward controllers.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from repro.errors import (
    BindingError,
    ComponentError,
    ContextNotQueryableError,
    DeliveryError,
    PlacementError,
    RuntimeOrchestrationError,
    TuningError,
)
from repro.lang.ast_nodes import (
    Publish,
    WhenPeriodic,
    WhenProvidedContext,
    WhenProvidedSource,
    WhenRequired,
)
from repro.mapreduce.api import MapReduce
from repro.naming import (
    camel_to_snake,
    event_handler_name,
    periodic_handler_name,
)
from repro.mapreduce.engine import MapReduceEngine, map_partition
from repro.runtime.bus import EventBus
from repro.runtime.cache import ReadCache
from repro.runtime.clock import Clock, SimulationClock
from repro.runtime.config import RuntimeConfig
from repro.runtime.component import (
    Component,
    Context,
    ContextEvent,
    Controller,
    GatherReading,
    Publishable as PublishableWrapper,
    SourceEvent,
)
from repro.faults.supervisor import SupervisionManager
from repro.runtime.device import DeviceDriver, DeviceInstance, Wiring
from repro.runtime.discovery import Discover
from repro.runtime.grouping import WindowAccumulator, group_readings
from repro.runtime.placement import PlacementExecutor, Tier
from repro.runtime.plan import DeliveryPlanner
from repro.runtime.proxies import make_proxy
from repro.runtime.qos import QoSMonitor
from repro.runtime.registry import EntityRegistry
from repro.runtime.sweep import SweepEngine
from repro.sema.analyzer import AnalyzedSpec
from repro.telemetry import MetricsRegistry
from repro.typesys.values import check_value

# Sentinel distinguishing "isolated component failed" from a None result.
_FAILED = object()


class Application:
    """A running (or runnable) orchestrating application.

    Typical use::

        config = RuntimeConfig(error_policy="isolate")
        app = Application(analyze(DESIGN), config)
        app.implement("Alert", AlertImpl)
        app.implement("Notify", NotifyImpl)
        app.create_device("Clock", "clock-1", clock_driver)
        app.start()
        app.advance(60)        # drive virtual time
    """

    def __init__(
        self,
        design: AnalyzedSpec,
        config: Optional[RuntimeConfig] = None,
    ):
        if config is None:
            config = RuntimeConfig()
        self.config = config
        self.design = design
        self.name = config.name
        # A NetworkConfig builds a fresh stateful topology per
        # application, or nothing when it declares no hops.
        self.network = (
            config.network.build() if config.network is not None else None
        )
        self.error_policy = config.error_policy
        self._component_errors: List[ComponentError] = []
        self._error_listeners: List[Callable[[str, Exception], None]] = []
        self.clock: Clock = (
            config.clock if config.clock is not None else SimulationClock()
        )
        # One registry captures every layer's counters; the per-layer
        # stats()/last_stats surfaces remain as views over the same
        # numbers.  Pass a shared registry to aggregate several
        # applications into one scrape.
        self.metrics: MetricsRegistry = (
            config.metrics if config.metrics is not None else MetricsRegistry()
        )
        self.bus = EventBus(metrics=self.metrics)
        self.registry = EntityRegistry(metrics=self.metrics)
        if self.network is not None:
            # Network delivery counters join app.metrics like every
            # other layer (per-hop series too, for a topology).
            self.network.attach_metrics(self.metrics)
        self.mapreduce = MapReduceEngine(metrics=self.metrics)
        self.qos = QoSMonitor(metrics=self.metrics)
        # Fault-tolerance layer: per-entity breakers/health plus the
        # degraded-delivery policy gathers apply when a source is dark.
        self.supervision = SupervisionManager(
            self.clock,
            default_policy=config.supervision,
            overrides=config.supervision_overrides,
            seed=config.supervision_seed,
        )
        self.supervision.attach_metrics(self.metrics)
        self.registry.attach_health(self.supervision.health_of)
        # Query-driven fast path: one freshness-aware read cache shared
        # by sweeps, proxy reads and query_context pulls.  ``None`` when
        # disabled — the device read path is then byte-identical to the
        # uncached runtime.
        self.read_cache: Optional[ReadCache] = (
            ReadCache(self.clock, config.cache, metrics=self.metrics)
            if config.cache.enabled
            else None
        )
        # Every device publish goes out through a precompiled dispatch
        # table (repro.runtime.plan).
        self.planner = DeliveryPlanner(design, self.bus, metrics=self.metrics)
        # Sharded runtime hook: when set, periodic gathers delegate
        # payload collection (poll + group + mapreduce) to the shard
        # coordinator instead of sweeping the local registry.  ``None``
        # keeps the local single-process path byte-identical.
        self._gather_delegate: Optional[Callable[[str, Any, Any], Any]] = None
        # Placement tier (repro.runtime.placement): edge-local
        # map+combine for grouped MapReduce gathers plus WAN byte
        # accounting, built exactly when the design places a context
        # ``at edge``.  ``None`` keeps every gather cloud-only.
        self.placement: Optional[PlacementExecutor] = (
            PlacementExecutor(
                config.placement, self.network, metrics=self.metrics
            )
            if any(
                info.decl.placement == Tier.EDGE.value
                for info in design.contexts.values()
            )
            else None
        )
        # The read path of every periodic gather: each device type read
        # as one registry-ordered column (repro.runtime.sweep); a shard
        # coordinator only books its workers' losses on it.
        self.sweeper = SweepEngine(
            self.registry,
            config,
            network=self.network,
            placement=self.placement,
            cache=self.read_cache,
            supervision=self.supervision,
            metrics=self.metrics,
        )
        self.discover = Discover(design, self.registry, self.query_context)
        # What every bound instance of a declaration shares: the one
        # publish hook, the read cache, the declaration's read counters
        # (resolved at its first bind) and the actuation recorder.
        self.wirings: Dict[str, Wiring] = {
            name: Wiring(self.on_device_publish, self.read_cache)
            for name in design.devices
        }
        self.started = False
        self._implementations: Dict[str, Component] = {}
        self._jobs: List[Any] = []
        self._subscriptions: List[Any] = []
        self._accumulators: Dict[str, WindowAccumulator] = {}
        self._gather_sweeps = 0
        self._context_activations: Dict[str, int] = {}
        self._controller_activations: Dict[str, int] = {}
        self.metrics.callback(
            "app_gather_sweeps_total",
            lambda: self._gather_sweeps,
            help="Periodic gathering sweeps executed.",
        )
        self.metrics.callback(
            "app_component_errors_total",
            lambda: len(self._component_errors),
            help="Component failures contained under error_policy="
            "'isolate'.",
        )

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------

    def implement(
        self, name: str, implementation: Union[Component, type]
    ) -> Component:
        """Install the implementation of a declared context or controller."""
        if isinstance(implementation, type):
            implementation = implementation()
        kind = self.design.symbols.kind_of(name)
        if kind == "context" and not isinstance(implementation, Context):
            raise BindingError(
                f"implementation of context '{name}' must subclass Context"
            )
        if kind == "controller" and not isinstance(implementation, Controller):
            raise BindingError(
                f"implementation of controller '{name}' must subclass "
                "Controller"
            )
        if kind not in ("context", "controller"):
            raise BindingError(
                f"'{name}' is not a context or controller of this design"
            )
        if self.started:
            raise BindingError(
                "implementations must be installed before start()"
            )
        self._implementations[name] = implementation
        return implementation

    def bind_column(
        self,
        device_type: str,
        entity_ids: Sequence[str],
        drivers: Sequence[DeviceDriver],
        **attribute_columns: Sequence[Any],
    ) -> List[DeviceInstance]:
        """Construct and bind one ``device_type`` instance per entity
        id, all or none: ``drivers`` and each attribute column
        (attribute -> values) are aligned with ``entity_ids``
        (:meth:`DeviceInstance.column`)."""
        info = self._device_info(device_type)
        return self.bind_instances(
            DeviceInstance.column(info, entity_ids, drivers, attribute_columns)
        )

    def bind_instances(
        self, instances: Sequence[DeviceInstance]
    ) -> Sequence[DeviceInstance]:
        """The one bind path: bind constructed instances (any time,
        including at runtime) as one column, in order, all or none —
        every check runs before the registry stores any of them
        (:meth:`EntityRegistry.register_column`).  Then each is wired
        and supervised, and its driver pointed at it."""
        devices = self.design.devices
        for instance in instances:
            if instance.info.name not in devices:
                self._device_info(instance.info.name)  # raises
        self.registry.register_column(instances)
        wirings = self.wirings
        supervise = self.supervision.supervise
        for instance in instances:
            instance.driver.instance = instance
            wiring = wirings[instance.info.name]
            if wiring.reads is None:
                wiring.count_into(self.metrics, instance.info.name)
            instance.wire(wiring)
            supervisor = supervise(instance)
            if supervisor is not None:
                instance.attach_supervisor(supervisor)
        return instances

    def bind_device(self, instance: DeviceInstance) -> DeviceInstance:
        """Bind one constructed instance: a column of one."""
        return self.bind_instances((instance,))[0]

    def create_device(
        self,
        device_type: str,
        entity_id: str,
        driver: DeviceDriver,
        **attributes: Any,
    ) -> DeviceInstance:
        """Construct and bind one device instance: a column of one."""
        info = self._device_info(device_type)
        instance = DeviceInstance(info, entity_id, driver, attributes)
        return self.bind_instances((instance,))[0]

    def _device_info(self, device_type: str):
        try:
            return self.design.devices[device_type]
        except KeyError:
            raise BindingError(
                f"device type '{device_type}' is not part of this design"
            ) from None

    def unbind_device(self, entity_id: str) -> DeviceInstance:
        instance = self.registry.unregister(entity_id)
        instance.detach()
        self.supervision.release(entity_id)
        if self.read_cache is not None:
            self.read_cache.invalidate(entity_id)
        return instance

    def assign_edge_node(self, entity_id: str, node_id: str) -> None:
        """Pin an entity to an edge node (descriptor ``placement:``).

        Explicit assignments win over attribute-based node ownership;
        requires a placement tier, i.e. a context declared ``at edge``."""
        if self.placement is None:
            raise PlacementError(
                "no context of this design is declared 'at edge', so "
                f"there is no edge node to pin '{entity_id}' to",
                entity_id=entity_id,
                node=node_id,
            )
        self.placement.assign(entity_id, node_id)

    def implementation(self, name: str) -> Component:
        try:
            return self._implementations[name]
        except KeyError:
            raise BindingError(f"'{name}' has no implementation") from None

    def attach_gather_delegate(
        self, delegate: Optional[Callable[[str, Any, Any], Any]]
    ) -> None:
        """Replace periodic payload collection (sharded-runtime hook).

        ``delegate(name, interaction, implementation)`` must return exactly
        what :meth:`_collect_payload` would — the pre-window payload in
        registry order — while windowing, delivery and publishing stay
        here on the calling application.  Pass ``None`` to restore
        local collection."""
        self._gather_delegate = delegate

    # ------------------------------------------------------------------
    # Life-cycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Validate implementations, wire subscriptions and jobs, and run."""
        if self.started:
            raise RuntimeOrchestrationError("application already started")
        self._validate_implementations()
        for name, implementation in self._implementations.items():
            implementation.bind(name, self.discover, self.clock)
        for name, info in self.design.contexts.items():
            if info.decl.deadline is not None:
                self.qos.register(name, info.decl.deadline.seconds)
        for name, info in self.design.controllers.items():
            if info.decl.deadline is not None:
                self.qos.register(name, info.decl.deadline.seconds)
        for context_name in self.design.graph.context_order():
            self._wire_context(context_name)
        for controller_name in sorted(self.design.controllers):
            self._wire_controller(controller_name)
        self.started = True
        for implementation in self._implementations.values():
            implementation.on_start()

    def stop(self) -> None:
        if not self.started:
            return
        for job in self._jobs:
            job.cancel()
        self._jobs.clear()
        for subscription in self._subscriptions:
            subscription.unsubscribe()
        self._subscriptions.clear()
        for implementation in self._implementations.values():
            implementation.on_stop()
        self.started = False

    def advance(self, seconds: float) -> int:
        """Drive a simulation clock forward (convenience for tests/benches)."""
        if not isinstance(self.clock, SimulationClock):
            raise RuntimeOrchestrationError(
                "advance() requires a SimulationClock"
            )
        return self.clock.advance(seconds)

    # Config sections that may change on a running application: the
    # two a tuning controller turns.  Everything else is structural
    # wiring resolved at construction (clock, metrics registry, network
    # model, read cache, placement/shard/planner objects, window
    # accumulators, error and stale policies) and must be identical in
    # any config handed to ``apply_config``.
    _LIVE_FIELDS = frozenset({"batch", "supervision"})

    def apply_config(self, config: RuntimeConfig) -> None:
        """Atomically adopt the live-tunable sections of ``config``.

        The swap is a handful of attribute rebinds executed
        synchronously between clock jobs — whoever re-tunes live runs
        as its own scheduled job or between ``advance`` calls — so a
        running gather can never observe a torn config: every sweep
        executes wholly under the config that was live when it began.

        Live sections: ``batch`` (``min_column``) and the
        ``supervision`` policy (retuned across every live breaker).
        Changing any structural field, or any field of a sharded
        application (its workers keep the config their bootstrap
        built), raises :class:`~repro.errors.TuningError`.
        """
        old = self.config
        if old.shard.enabled:
            raise TuningError(
                "a sharded application cannot be retuned live: its "
                "workers keep the config their bootstrap built"
            )
        for f in dataclasses.fields(RuntimeConfig):
            if f.name in self._LIVE_FIELDS:
                continue
            before = getattr(old, f.name)
            after = getattr(config, f.name)
            if before is not after and before != after:
                raise TuningError(
                    f"config field '{f.name}' is structural wiring and "
                    "cannot change on a running application"
                )
        if old.supervised() != config.supervised():
            raise TuningError("supervision cannot be enabled or disabled live")
        self.config = config
        self.sweeper.config = config
        self.supervision.reconfigure(config.supervision)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def stats(self) -> Dict[str, Any]:
        # Each subsystem entry is its Instrumented ``stats()`` snapshot,
        # so this view composes generically as layers are added.
        return {
            "bus": self.bus.stats(),
            "registry": self.registry.stats(),
            "mapreduce": self.mapreduce.stats(),
            "windows": {
                name: accumulator.stats()
                for name, accumulator in self._accumulators.items()
            },
            "gather_sweeps": self._gather_sweeps,
            "gather_errors": self.sweeper.errors,
            "gather_network_dropped": self.sweeper.network_dropped,
            "gather_read_failed": self.sweeper.read_failed,
            "sweep": self.sweeper.stats(),
            "read_cache": (
                self.read_cache.stats()
                if self.read_cache is not None
                else None
            ),
            "plan": self.planner.stats(),
            "placement": (
                self.placement.stats() if self.placement is not None else None
            ),
            "network": (
                self.network.stats() if self.network is not None else None
            ),
            "context_activations": dict(self._context_activations),
            "controller_activations": dict(self._controller_activations),
            "bound_entities": len(self.registry),
            "qos": self.qos.stats(),
            "supervision": self.supervision.stats(),
            "component_errors": [
                (record.component, type(record.error).__name__)
                for record in self._component_errors
            ],
        }

    @property
    def component_errors(self) -> List[ComponentError]:
        """:class:`ComponentError` records captured under 'isolate'.

        Each record carries the component name, the exception, and the
        originating ``entity_id`` when the failure identified one (typed
        device errors do)."""
        return list(self._component_errors)

    def query_context(self, context_name: str) -> Any:
        """Query-driven pull of a ``when required`` context (checked).

        Each pull calls ``when_required``; with the read cache enabled
        only the device reads it makes may be served from the cache."""
        info = self.design.contexts.get(context_name)
        if info is None:
            raise DeliveryError(f"unknown context '{context_name}'")
        if not info.is_queryable:
            raise ContextNotQueryableError(
                f"context '{context_name}' does not declare 'when required'",
                context=context_name,
            )
        value = self.implementation(context_name).when_required(self.discover)
        return check_value(info.result_type, value)

    # ------------------------------------------------------------------
    # Internal wiring
    # ------------------------------------------------------------------

    def _validate_implementations(self) -> None:
        for name, info in self.design.contexts.items():
            implementation = self._implementations.get(name)
            if implementation is None:
                raise BindingError(f"context '{name}' has no implementation")
            self._validate_context_impl(name, info, implementation)
        for name in self.design.controllers:
            implementation = self._implementations.get(name)
            if implementation is None:
                raise BindingError(
                    f"controller '{name}' has no implementation"
                )
            self._validate_controller_impl(name, implementation)

    def _validate_context_impl(self, name, info, implementation) -> None:
        for interaction in info.decl.interactions:
            if isinstance(interaction, WhenProvidedSource):
                if implementation.find_event_handler(
                    interaction.source, interaction.device
                ) is None:
                    callback = event_handler_name(
                        interaction.source, interaction.device
                    )
                    raise BindingError(
                        f"context '{name}' lacks callback '{callback}'"
                    )
            elif isinstance(interaction, WhenPeriodic):
                if implementation.find_periodic_handler(
                    interaction.source, interaction.device
                ) is None:
                    callback = periodic_handler_name(
                        interaction.source, interaction.device
                    )
                    raise BindingError(
                        f"context '{name}' lacks callback '{callback}'"
                    )
                if interaction.group and interaction.group.uses_mapreduce:
                    if not isinstance(implementation, MapReduce) and not (
                        callable(getattr(implementation, "map", None))
                        and callable(getattr(implementation, "reduce", None))
                    ):
                        raise BindingError(
                            f"context '{name}' declares 'with map ... "
                            "reduce ...' and must implement the MapReduce "
                            "interface (map/reduce methods)"
                        )
            elif isinstance(interaction, WhenProvidedContext):
                if implementation.find_context_handler(
                    interaction.context
                ) is None:
                    raise BindingError(
                        f"context '{name}' lacks callback "
                        f"'on_{camel_to_snake(interaction.context)}'"
                    )
            elif isinstance(interaction, WhenRequired):
                if type(implementation).when_required is Context.when_required:
                    raise BindingError(
                        f"context '{name}' declares 'when required' but "
                        "does not implement when_required()"
                    )

    def _validate_controller_impl(self, name, implementation) -> None:
        decl = self.design.controllers[name].decl
        for reaction in decl.reactions:
            if implementation.find_context_handler(reaction.context) is None:
                raise BindingError(
                    f"controller '{name}' lacks callback "
                    f"'on_{camel_to_snake(reaction.context)}'"
                )

    def _qos_wrap(self, name: str, handler):
        """Instrument a callback when its component declares a deadline."""
        if handler is not None and name in self.qos:
            return self.qos.wrap(name, handler)
        return handler

    def _wire_context(self, name: str) -> None:
        info = self.design.contexts[name]
        implementation = self._implementations[name]
        self.metrics.callback(
            "context_activations_total",
            lambda: self._context_activations.get(name, 0),
            help="Context callback activations.",
            component=name,
        )
        for interaction in info.decl.interactions:
            if isinstance(interaction, WhenProvidedSource):
                handler = self._qos_wrap(
                    name,
                    implementation.find_event_handler(
                        interaction.source, interaction.device
                    ),
                )
                callback = functools.partial(
                    self._on_source_event, name, interaction, handler
                )
                self._subscribe_source(
                    interaction.device, interaction.source, callback
                )
            elif isinstance(interaction, WhenPeriodic):
                self._wire_periodic(name, info, interaction, implementation)
            elif isinstance(interaction, WhenProvidedContext):
                handler = self._qos_wrap(
                    name,
                    implementation.find_context_handler(interaction.context),
                )
                callback = functools.partial(
                    self._on_context_event, name, interaction, handler
                )
                self._subscriptions.append(
                    self.bus.subscribe(
                        ("context", interaction.context), callback
                    )
                )

    def _wire_periodic(self, name, info, interaction, implementation) -> None:
        handler = self._qos_wrap(
            name,
            implementation.find_periodic_handler(
                interaction.source, interaction.device
            ),
        )
        accumulator = None
        group = interaction.group
        if group is not None and group.window is not None:
            if group.uses_mapreduce:
                # Each sweep's reduced value folds into one partial
                # aggregate per group through the job's combine/reduce,
                # so window state is O(groups) instead of
                # O(deliveries x groups).
                accumulator = WindowAccumulator.incremental_for_job(
                    interaction.period.seconds,
                    group.window.seconds,
                    implementation,
                )
            else:
                accumulator = WindowAccumulator.for_design(
                    interaction.period.seconds, group.window.seconds
                )
            accumulator.attach_metrics(self.metrics, context=name)
            self._accumulators[name] = accumulator
        job = self.clock.schedule_periodic(
            interaction.period.seconds,
            functools.partial(
                self._gather,
                name,
                interaction,
                implementation,
                handler,
                accumulator,
            ),
        )
        self._jobs.append(job)

    def _wire_controller(self, name: str) -> None:
        implementation = self._implementations[name]
        decl = self.design.controllers[name].decl
        self.metrics.callback(
            "controller_activations_total",
            lambda: self._controller_activations.get(name, 0),
            help="Controller callback activations.",
            component=name,
        )
        for reaction in decl.reactions:
            handler = self._qos_wrap(
                name, implementation.find_context_handler(reaction.context)
            )
            callback = functools.partial(
                self._on_controller_event, name, handler
            )
            self._subscriptions.append(
                self.bus.subscribe(("context", reaction.context), callback)
            )

    def _subscribe_source(
        self, device_type: str, source: str, callback: Callable
    ) -> None:
        self._subscriptions.append(
            self.bus.subscribe(("source", device_type, source), callback)
        )

    # ------------------------------------------------------------------
    # Internal dispatch
    # ------------------------------------------------------------------

    def on_device_publish(self, instance, source, value, index) -> None:
        """Deliver one device publish: network model, cache
        invalidation, then plan dispatch.

        ``instance`` is a bound :class:`DeviceInstance` — or, on a shard
        coordinator replaying a worker's recorded publish, its stand-in
        for an instance living in that worker (same ``info`` /
        ``entity_id`` / ``attributes``, reads and actions routed)."""
        if self.network is None:
            self._deliver_source_event(instance, source, value, index)
            return
        self.network.transmit(
            self.clock,
            functools.partial(
                self._deliver_source_event, instance, source, value, index
            ),
        )

    def _deliver_source_event(self, instance, source, value, index) -> None:
        if self.read_cache is not None:
            # The push supersedes the publisher's cached read.
            self.read_cache.invalidate(instance.entity_id, source)
        event = SourceEvent(
            device=make_proxy(instance),
            source=source,
            value=value,
            index=index,
            timestamp=self.clock.now(),
        )
        # One publish goes out under ``source_topics``: the ancestor
        # walk and the per-topic subscriber resolution collapse into
        # one flat dispatch table.
        plan = self.planner.source_plan(instance.info.name, source)
        self.bus.dispatch_compiled(plan.targets, len(plan.topics), event)

    def on_component_error(
        self, listener: Callable[[str, Exception], None]
    ) -> None:
        """Register a callback invoked when an isolated component fails.

        Only meaningful under ``error_policy='isolate'``; with the default
        ``'raise'`` policy the exception propagates to the event source.
        """
        self._error_listeners.append(listener)

    def _run_component(self, name: str, call: Callable) -> Any:
        """Invoke a component callback under the application's error
        policy.

        ``'raise'`` (default) propagates exceptions to whoever triggered
        the dispatch — loud and precise, right for development.
        ``'isolate'`` contains the failure: it is recorded, listeners are
        notified, and the rest of the application keeps running — the
        per-component supervision of the paper's error-handling dimension
        [14].  Returns ``_FAILED`` when an isolated call failed.
        """
        if self.error_policy == "raise":
            return call()
        try:
            return call()
        except Exception as exc:  # noqa: BLE001 - supervision boundary
            self._component_errors.append(
                ComponentError(name, exc, getattr(exc, "entity_id", None))
            )
            for listener in list(self._error_listeners):
                listener(name, exc)
            return _FAILED

    def _on_source_event(self, name, interaction, handler, event) -> None:
        self._context_activations[name] = (
            self._context_activations.get(name, 0) + 1
        )
        result = self._run_component(
            name, lambda: handler(event, self.discover)
        )
        if result is not _FAILED:
            self._publish_context(name, interaction.publish, result)

    def _on_context_event(self, name, interaction, handler, event) -> None:
        self._context_activations[name] = (
            self._context_activations.get(name, 0) + 1
        )
        result = self._run_component(
            name, lambda: handler(event.value, self.discover)
        )
        if result is not _FAILED:
            self._publish_context(name, interaction.publish, result)

    def _on_controller_event(self, name, handler, event) -> None:
        self._controller_activations[name] = (
            self._controller_activations.get(name, 0) + 1
        )
        self._run_component(name, lambda: handler(event.value, self.discover))

    def _gather(
        self, name, interaction, implementation, handler, accumulator
    ) -> None:
        """One periodic sweep: poll, group, mapreduce, window, deliver.

        Polling is :meth:`SweepEngine.sweep` (sampler, column reader,
        outcome fold with loss counters and the stale policy) — this
        application's, or its shard workers' behind the delegate."""
        self._gather_sweeps += 1
        collect = self._gather_delegate or self._collect_payload
        payload = collect(name, interaction, implementation)
        if accumulator is not None:
            payload = accumulator.add(payload)
            if payload is None:
                return
        self._context_activations[name] = (
            self._context_activations.get(name, 0) + 1
        )
        result = self._run_component(
            name, lambda: handler(payload, self.discover)
        )
        if result is not _FAILED:
            self._publish_context(name, interaction.publish, result)

    def _collect_payload(self, name, interaction, implementation) -> Any:
        """One sweep's pre-window payload: poll, fold, group, mapreduce.

        Split from :meth:`_gather` so a sharded runtime can substitute
        collection (:meth:`attach_gather_delegate`) — each worker
        sweeps its own registry shard — while windowing and delivery
        stay with the caller."""
        decl = self.design.contexts[name].decl
        sweeper = self.sweeper
        instances, values, __, ___ = sweeper.sweep(decl, interaction)
        group = interaction.group
        if group is not None:
            columns = sweeper.key_columns(interaction.device, instances)
        placement = self.placement
        if placement is not None:
            if placement.splits(decl, interaction):
                # Edge split: map + map-side combine run per edge node,
                # only per-group partials transit the WAN hop, and the
                # engine's coordinator-side final reduce merges them.
                return placement.run_edge(
                    self.mapreduce,
                    implementation,
                    instances,
                    values,
                    columns,
                    group.attribute,
                )
            placement.account_cloud(zip(instances, values))
        if group is None:
            return [
                GatherReading(make_proxy(instance), value)
                for instance, value in zip(instances, values)
            ]
        keys = columns.keys(group.attribute)
        table, order = columns.groups(group.attribute)
        if group.uses_mapreduce:
            # The whole sweep is one partition, mapped untagged.
            pairs, mapped = map_partition(implementation, keys, values, order)
            return self.mapreduce.merge_partials(implementation, pairs, mapped)
        return group_readings(keys, table, values)

    def _publish_context(self, name: str, discipline: Publish, result) -> None:
        if isinstance(result, PublishableWrapper):
            result = result.value
        if discipline is Publish.NO:
            return
        if result is None:
            if discipline is Publish.ALWAYS:
                raise RuntimeOrchestrationError(
                    f"context '{name}' declares 'always publish' but its "
                    "callback returned None"
                )
            return
        info = self.design.contexts[name]
        checked = check_value(info.result_type, result)
        self.bus.publish(
            ("context", name),
            ContextEvent(name, checked, self.clock.now()),
        )
