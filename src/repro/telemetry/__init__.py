"""Unified telemetry: one metrics registry, pluggable exporters.

The paper's conclusion asks which non-functional dimensions (QoS,
performance) the design language should surface; this package is the
runtime's answer.  Every hot layer — bus, entity registry, window
accumulators, MapReduce engine, device reads, QoS probes — feeds one
:class:`MetricsRegistry` (exposed as ``app.metrics``), and two
exporters read it out:

* :func:`render_prometheus` — Prometheus text format, for scrapers and
  the ``repro metrics`` CLI command;
* :func:`render_chrome_trace` — Chrome Trace Event JSON fed from the
  existing :class:`~repro.runtime.tracing.Tracer`, for timeline
  inspection in ``chrome://tracing``.

The pre-existing ad-hoc surfaces (``bus.stats()``,
``engine.last_stats``, ``app.stats``) remain as thin views over the
same numbers.
"""

from repro.telemetry.registry import (
    DEFAULT_BUCKETS,
    CallbackValue,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
)
from repro.telemetry.instrument import Instrumented, MetricSpec
from repro.telemetry.prometheus import render_prometheus
from repro.telemetry.chrometrace import (
    chrome_trace_events,
    parse_chrome_trace,
    render_chrome_trace,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "CallbackValue",
    "Counter",
    "Gauge",
    "Histogram",
    "Instrumented",
    "MetricFamily",
    "MetricSpec",
    "MetricsRegistry",
    "chrome_trace_events",
    "parse_chrome_trace",
    "render_chrome_trace",
    "render_prometheus",
]
