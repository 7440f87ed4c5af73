"""The supported public API surface of :mod:`repro`.

This module is the **stable import surface** of the library: everything
an application, example, or generated framework needs is re-exported
here, and these names follow deprecation policy (one release of
``DeprecationWarning`` before any breaking change)::

    from repro.api import Application, RuntimeConfig, analyze

    design = analyze(DESIGN_SOURCE)
    app = Application(design, RuntimeConfig(error_policy="isolate"))

Deep-module imports (``from repro.runtime.app import Application``,
``from repro.faults.supervisor import ...``) keep working but are
**unstable**: internal modules may move, split, or change signature
between releases without deprecation cover.  New code should import
from :mod:`repro.api` (or the package roots it aggregates).

The surface, by concern:

* **Design analysis** — :func:`analyze`, :class:`AnalyzedSpec`;
* **Assembly & configuration** — :class:`Application`,
  :class:`RuntimeConfig`, :class:`CacheConfig`, :class:`BatchConfig`;
* **Time** — :class:`Clock`, :class:`SimulationClock`,
  :class:`WallClock`;
* **Components** — :class:`Context`, :class:`Controller`,
  :class:`Publishable`, :class:`MapReduce`, and the event records
  (:class:`SourceEvent`, :class:`ContextEvent`,
  :class:`GatherReading`);
* **Devices** — :class:`DeviceDriver`, :class:`CallableDriver`,
  :class:`DeviceInstance`;
* **Fault tolerance** — :class:`SupervisionPolicy`,
  :class:`StalePolicy`, :class:`FaultPlan`, :class:`ChaosInjector`;
* **Query-driven caching** — :class:`ReadCache` (usually reached via
  ``CacheConfig`` on the runtime config) and the typed
  :class:`ContextNotQueryableError`;
* **Batch hot path** — columnar reads are taken wherever a driver
  implements :meth:`DeviceDriver.read_batch`, and every publish goes
  through a precompiled :class:`DeliveryPlanner` table;
  :class:`BatchConfig` holds the one setting (``min_column``);
* **Process sharding** — :class:`ShardConfig` (usually reached via
  ``shard=`` on the runtime config), :class:`ShardContext`,
  :class:`ShardBootstrap`, :class:`ShardedRuntime`,
  :class:`SimulatedFleetBootstrap`, and the typed :class:`ShardError`;
  the worker processes are also where a grouped ``with map … reduce``
  context maps in parallel, one shard each;
* **Network & placement** — :class:`NetworkConfig` (the frozen network
  section of the runtime config), the topology it builds
  (:class:`TopologyModel` of :class:`HopProfile` hops; a single link
  is one hop), and the edge/cloud continuum
  (:class:`PlacementConfig`, :class:`Tier`, :class:`EdgeNode`,
  :class:`EntityPlacement`, and the typed :class:`PlacementError`);
* **Observability** — :class:`MetricsRegistry`, :class:`Tracer`;
* **Adaptive tuning** — :class:`ConfigBase` (the shared
  replace/validate protocol every config section follows),
  :class:`Knob` and :class:`KnobRegistry` (named live tunables with
  safe ranges; ``KnobRegistry.for_config`` is the standard catalog),
  :class:`TuningController` (the drift-gated hill climb its owner
  builds beside a started application), and the typed
  :class:`TuningError`;
* **Deployment descriptors** — :class:`DeploymentDescriptor`,
  :class:`DriverCatalog`, :func:`load_descriptor`,
  :func:`apply_descriptor`.
"""

from __future__ import annotations

from repro.errors import (
    ContextNotQueryableError,
    PlacementError,
    ShardError,
    TuningError,
)
from repro.faults.chaos import ChaosInjector, FaultEvent, FaultPlan
from repro.faults.policy import StalePolicy, SupervisionPolicy
from repro.mapreduce.api import MapReduce
from repro.runtime.app import Application
from repro.runtime.cache import CacheConfig, ReadCache
from repro.runtime.clock import Clock, SimulationClock, WallClock
from repro.runtime.configbase import ConfigBase
from repro.runtime.component import (
    Context,
    ContextEvent,
    Controller,
    GatherReading,
    Publishable,
    SourceEvent,
)
from repro.runtime.config import RuntimeConfig
from repro.runtime.descriptor import (
    DeploymentDescriptor,
    DriverCatalog,
    apply_descriptor,
    load_descriptor,
)
from repro.runtime.device import CallableDriver, DeviceDriver, DeviceInstance
from repro.runtime.placement import (
    EdgeNode,
    EntityPlacement,
    NetworkConfig,
    PlacementConfig,
    Tier,
)
from repro.runtime.plan import BatchConfig, DeliveryPlanner
from repro.runtime.shard import (
    ShardBootstrap,
    ShardConfig,
    ShardContext,
    ShardedRuntime,
)
from repro.runtime.sweep import SweepEngine
from repro.runtime.tracing import Tracer
from repro.simulation.fleet import SimulatedFleetBootstrap
from repro.simulation.network import HopProfile, TopologyModel
from repro.sema.analyzer import AnalyzedSpec, analyze
from repro.telemetry import MetricsRegistry
from repro.tuning import Knob, KnobRegistry, TuningController

__all__ = [
    "AnalyzedSpec",
    "Application",
    "BatchConfig",
    "CacheConfig",
    "CallableDriver",
    "ChaosInjector",
    "Clock",
    "ConfigBase",
    "Context",
    "ContextEvent",
    "ContextNotQueryableError",
    "Controller",
    "DeliveryPlanner",
    "DeploymentDescriptor",
    "DeviceDriver",
    "DeviceInstance",
    "DriverCatalog",
    "EdgeNode",
    "EntityPlacement",
    "FaultEvent",
    "FaultPlan",
    "GatherReading",
    "HopProfile",
    "Knob",
    "KnobRegistry",
    "MapReduce",
    "MetricsRegistry",
    "NetworkConfig",
    "PlacementConfig",
    "PlacementError",
    "Publishable",
    "ReadCache",
    "RuntimeConfig",
    "ShardBootstrap",
    "ShardConfig",
    "ShardContext",
    "ShardError",
    "ShardedRuntime",
    "SimulatedFleetBootstrap",
    "SimulationClock",
    "SourceEvent",
    "StalePolicy",
    "SupervisionPolicy",
    "SweepEngine",
    "Tier",
    "TopologyModel",
    "Tracer",
    "TuningController",
    "TuningError",
    "WallClock",
    "analyze",
    "apply_descriptor",
    "load_descriptor",
]
