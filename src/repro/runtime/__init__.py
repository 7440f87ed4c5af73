"""Inversion-of-control runtime for orchestrating applications.

The runtime is what the generated programming frameworks of the paper run
on: it binds entity instances (Section IV, *binding entities*), delivers
data through the three models — event-driven, periodic, query-driven
(*delivering data*), partitions and optionally MapReduces gathered data
(*processing data*), and issues actions through discovered proxies
(*actuating entities*).

The central class is :class:`~repro.runtime.app.Application`: give it an
analyzed design, device instances and context/controller implementations,
then ``start()`` it and drive the clock.
"""

from repro.runtime.app import Application
from repro.runtime.binding import BindingTime, Deployment
from repro.runtime.bus import EventBus
from repro.runtime.descriptor import (
    DeploymentDescriptor,
    DriverCatalog,
    apply_descriptor,
    load_descriptor,
)
from repro.runtime.qos import QoSMonitor
from repro.runtime.tracing import Tracer
from repro.runtime.clock import Clock, ScheduledJob, SimulationClock, WallClock
from repro.runtime.component import (
    Context,
    ContextEvent,
    Controller,
    GatherReading,
    Publishable,
    SourceEvent,
)
from repro.runtime.device import CallableDriver, DeviceDriver, DeviceInstance
from repro.runtime.discovery import Discover
from repro.runtime.proxies import DeviceProxy, ProxySet
from repro.runtime.registry import EntityRegistry
from repro.runtime.sweep import SweepEngine

__all__ = [
    "Application",
    "BindingTime",
    "CallableDriver",
    "Clock",
    "Context",
    "ContextEvent",
    "Controller",
    "GatherReading",
    "Publishable",
    "Deployment",
    "DeploymentDescriptor",
    "DeviceDriver",
    "DriverCatalog",
    "QoSMonitor",
    "Tracer",
    "apply_descriptor",
    "load_descriptor",
    "DeviceInstance",
    "DeviceProxy",
    "Discover",
    "EntityRegistry",
    "EventBus",
    "ProxySet",
    "ScheduledJob",
    "SimulationClock",
    "SourceEvent",
    "SweepEngine",
    "WallClock",
]
