"""Uniform observability protocol for runtime subsystems.

Before this module existed, every instrumented layer (event bus, entity
registry, QoS monitor, window accumulators, MapReduce engine) hand-wrote
the same two members: an ``attach_metrics(registry)`` that registered
pull-time callbacks and a ``stats()`` snapshot dict.  The
:class:`Instrumented` mixin factors the pattern out: a subclass declares
its observable surface once, as a tuple of :class:`MetricSpec` records,
and inherits both members.  Counters never reset: an exported
``counter`` family only goes up.

A spec names the telemetry family, the attribute (plain integer,
property, or zero-argument method) that backs it, and optionally the key
under which the same number appears in the legacy ``stats()`` view —
keeping the documented stats/metric correspondence a single source of
truth instead of two parallel hand-written lists.

Subsystems whose observable surface is dynamic (the QoS monitor
registers per-component instruments as components appear) override
``attach_metrics`` but still inherit the ``stats()`` protocol, so
``Application.stats`` can compose every subsystem generically.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, ClassVar, Dict, Optional, Tuple

__all__ = ["Instrumented", "MetricSpec"]


@dataclass(frozen=True)
class MetricSpec:
    """One observable value of an :class:`Instrumented` subsystem.

    ``source`` is resolved with ``getattr`` at collection time: a plain
    attribute or property yields its value directly; a bound method is
    called.  ``stats_key`` publishes the same number in ``stats()``.
    """

    metric: str
    source: str
    kind: str = "counter"
    help: str = ""
    stats_key: Optional[str] = None


def _read_source(subsystem: Any, source: str) -> Any:
    value = getattr(subsystem, source)
    return value() if callable(value) else value


class Instrumented:
    """Mixin: declarative ``attach_metrics`` / ``stats``."""

    metric_specs: ClassVar[Tuple[MetricSpec, ...]] = ()

    def attach_metrics(self, metrics, **labels: Any) -> None:
        """Register every declared metric as a pull-time callback.

        Callbacks read the backing attributes at collection time, so the
        subsystem's hot paths pay nothing for being observable (the
        zero-overhead rule of ``docs/observability.md``).
        """
        for spec in self.metric_specs:
            metrics.callback(
                spec.metric,
                functools.partial(_read_source, self, spec.source),
                kind=spec.kind,
                help=spec.help,
                **labels,
            )

    def stats(self) -> Dict[str, Any]:
        """Snapshot of the declared counters (the legacy stats view)."""
        snapshot = {
            spec.stats_key: _read_source(self, spec.source)
            for spec in self.metric_specs
            if spec.stats_key is not None
        }
        snapshot.update(self._extra_stats())
        return snapshot

    def _extra_stats(self) -> Dict[str, Any]:
        """Subclass hook for stats-only entries with no metric family."""
        return {}
