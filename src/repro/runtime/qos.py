"""Quality-of-service monitoring.

The paper's conclusion asks "what non-functional dimensions should be
added to the design declarations", naming quality of service (citing its
FASE'11 predecessor [15]).  This module provides the runtime half of the
reproduction's ``expect deadline <...>`` design clause: the application
wraps every declared-deadline component callback in a
:class:`QoSMonitor` probe that records activation durations and counts
deadline violations.

Durations are *wall-clock* (``time.perf_counter``): deadlines bound real
computation, which exists even when the application's data clock is
virtual.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.telemetry.instrument import Instrumented


@dataclass
class ComponentQoS:
    """Per-component activation accounting."""

    deadline_seconds: Optional[float] = None
    activations: int = 0
    violations: int = 0
    total_seconds: float = 0.0
    worst_seconds: float = 0.0
    violation_log: List[float] = field(default_factory=list)

    def record(self, elapsed: float) -> bool:
        """Record one activation; returns True if it violated the deadline."""
        self.activations += 1
        self.total_seconds += elapsed
        if elapsed > self.worst_seconds:
            self.worst_seconds = elapsed
        if (
            self.deadline_seconds is not None
            and elapsed > self.deadline_seconds
        ):
            self.violations += 1
            self.violation_log.append(elapsed)
            return True
        return False

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.activations if self.activations else 0.0


class QoSMonitor(Instrumented):
    """Tracks activation timing for all deadline-bearing components.

    The observable surface is dynamic (one instrument set per
    registered component), so :meth:`attach_metrics` is overridden
    rather than spec-declared; the :class:`Instrumented` ``stats()``
    protocol is kept via ``_extra_stats`` so ``Application.stats`` can
    compose the monitor like every other subsystem.
    """

    def __init__(self, metrics=None):
        self._components: Dict[str, ComponentQoS] = {}
        self._listeners: List[Callable[[str, float], None]] = []
        self._metrics = None
        self._histograms: Dict[str, Any] = {}
        if metrics is not None:
            self.attach_metrics(metrics)

    def attach_metrics(self, metrics, **labels: Any) -> None:
        """Export per-component QoS accounting through a telemetry
        registry: activation/violation counters as pull-time callbacks
        over the :class:`ComponentQoS` records, plus a push histogram of
        activation durations (the only new cost, and only on
        deadline-bearing callbacks)."""
        self._metrics = metrics
        for name in self._components:
            self._register_metrics(name)

    def _register_metrics(self, name: str) -> None:
        record = self._components[name]
        metrics = self._metrics
        metrics.callback(
            "qos_activations_total",
            lambda: record.activations,
            help="Activations of deadline-bearing components.",
            component=name,
        )
        metrics.callback(
            "qos_violations_total",
            lambda: record.violations,
            help="Activations that exceeded their declared deadline.",
            component=name,
        )
        if record.deadline_seconds is not None:
            metrics.callback(
                "qos_deadline_seconds",
                lambda: record.deadline_seconds,
                kind="gauge",
                help="Declared deadline per component.",
                component=name,
            )
        self._histograms[name] = metrics.histogram(
            "qos_activation_seconds",
            help="Wall-clock activation durations of deadline-bearing "
            "components.",
            component=name,
        )

    def register(self, name: str, deadline_seconds: Optional[float]) -> None:
        self._components[name] = ComponentQoS(deadline_seconds)
        if self._metrics is not None:
            self._register_metrics(name)

    def wrap(self, name: str, handler: Callable) -> Callable:
        """Wrap a component callback with timing instrumentation."""
        record = self._components[name]
        histogram = self._histograms.get(name)

        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return handler(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                if histogram is not None:
                    histogram.observe(elapsed)
                if record.record(elapsed):
                    for listener in list(self._listeners):
                        listener(name, elapsed)

        return timed

    def on_violation(self, listener: Callable[[str, float], None]) -> None:
        """Register a callback invoked on every deadline violation."""
        self._listeners.append(listener)

    def component(self, name: str) -> ComponentQoS:
        return self._components[name]

    def __contains__(self, name: str) -> bool:
        return name in self._components

    def _extra_stats(self) -> Dict[str, Dict[str, float]]:
        return {
            name: {
                "deadline": record.deadline_seconds,
                "activations": record.activations,
                "violations": record.violations,
                "mean_seconds": record.mean_seconds,
                "worst_seconds": record.worst_seconds,
            }
            for name, record in self._components.items()
        }
