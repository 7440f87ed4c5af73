"""Precompiled delivery plans and the batch hot-path configuration.

Every published source event would otherwise re-walk the publisher's
ancestor chain (``(type_name, source)`` topics) and re-resolve each
topic's subscriber snapshot through the bus — work whose *result* is
fixed by the analyzed design and the current subscription set.  This
module compiles it into a flat dispatch table, the ahead-of-time move
of the DiaSpec compiler line: the declared design already fixes who
receives what, so the runtime can resolve it once and replay it.

:class:`DeliveryPlanner` caches one :class:`SourcePlan` per
``(device_type, source)`` — the topic tuple of the ancestor walk plus
the flattened subscriber list across those topics, in exact publish
order.  Staleness is detected by a monotonic counter instead of
listeners: the bus bumps its ``epoch`` on every subscribe/unsubscribe,
so a plan is valid iff the counter still matches the value captured at
compile time (the same generation-counter discipline the read cache
uses for context memoization).  Bindings do not enter into it: who
receives a publish depends on the design and the subscriptions only.
A hit is a dict lookup plus one integer compare.

Every application publishes through plans; :class:`BatchConfig` holds
the one setting of the columnar read path, whose use the drivers decide
(:func:`~repro.runtime.device.batches`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Tuple

from repro.runtime.configbase import ConfigBase
from repro.telemetry.instrument import Instrumented, MetricSpec

__all__ = [
    "BatchConfig",
    "DeliveryPlanner",
    "SourcePlan",
    "source_topics",
]

# Column-size buckets: cohorts below min_column never batch, city-scale
# shards batch thousands of reads per column.
BATCH_COLUMN_BUCKETS = (2, 4, 8, 16, 32, 64, 128, 256, 1024, 4096, 16384)


@dataclass(frozen=True)
class BatchConfig(ConfigBase):
    """The columnar read path of periodic sweeps.

    A swept device type whose drivers implement
    :meth:`~repro.runtime.device.DeviceDriver.read_batch` is read with
    one driver-level batch read per (shard, source) cohort instead of
    one Python read per device; entities that cannot batch (no driver
    support, degraded/quarantined health, failed flag) are demoted to
    the scalar path with full supervision accounting.  Types without
    such a driver never form a cohort.

    * ``min_column`` — smallest cohort worth a batch read; smaller
      cohorts take the scalar path (a column of one would only add
      overhead).
    * ``enabled`` — selects nothing: the drivers decide.  It is kept so
      configurations that still pass it keep building.
    """

    enabled: bool = False
    min_column: int = 2

    def __post_init__(self):
        if self.min_column < 1:
            raise ValueError("min_column must be >= 1")


def source_topics(design, device_type: str, source: str) -> tuple:
    """The ``("source", type, source)`` topics one publish of
    ``device_type`` goes out under: its own type and every ancestor
    that declares the source, so supertype subscriptions see subtype
    instances (taxonomy reuse, Section III)."""
    devices = design.devices
    return tuple(
        ("source", type_name, source)
        for type_name in (device_type, *devices[device_type].ancestors)
        if source in devices[type_name].sources
    )


class SourcePlan:
    """Compiled dispatch for one ``(device_type, source)`` publish.

    ``topics`` is the memoized ancestor-walk topic tuple; ``targets``
    the flattened tuple of bus subscriptions across those topics in
    publish order.  ``epoch`` is the bus counter captured at compile
    time — the plan is valid while it still matches.
    """

    __slots__ = ("device_type", "source", "topics", "targets", "epoch")

    def __init__(self, device_type, source, topics, targets, epoch):
        self.device_type = device_type
        self.source = source
        self.topics = topics
        self.targets = targets
        self.epoch = epoch

    def __repr__(self) -> str:
        return (
            f"<SourcePlan {self.device_type}.{self.source} "
            f"topics={len(self.topics)} targets={len(self.targets)}>"
        )


class DeliveryPlanner(Instrumented):
    """Flat dispatch tables for the publish hot path.

    One planner serves a whole application.  Compilation is lazy — the
    first publish of a ``(device_type, source)`` pays the ancestor walk
    exactly once — and every subsequent publish is a plan hit until a
    subscription change bumps the bus epoch.
    """

    metric_specs = (
        MetricSpec(
            "plan_compiles_total",
            "_compiles",
            stats_key="compiles",
            help="Dispatch plans compiled.",
        ),
        MetricSpec(
            "plan_invalidations_total",
            "_invalidations",
            stats_key="invalidations",
            help="Cached plans discarded after subscription churn.",
        ),
        MetricSpec(
            "plan_hits_total",
            "_hits",
            stats_key="hits",
            help="Publishes served from a compiled plan.",
        ),
        MetricSpec(
            "plan_entries",
            "entry_count",
            kind="gauge",
            help="Dispatch plans currently compiled.",
        ),
    )

    def __init__(self, design, bus, metrics=None):
        self.design = design
        self.bus = bus
        self._plans: Dict[Tuple[str, str], SourcePlan] = {}
        self._compiles = 0
        self._invalidations = 0
        self._hits = 0
        if metrics is not None:
            self.attach_metrics(metrics)

    def entry_count(self) -> int:
        return len(self._plans)

    def _extra_stats(self) -> Dict[str, Any]:
        return {"plans": len(self._plans)}

    def source_plan(self, device_type: str, source: str) -> SourcePlan:
        """The compiled dispatch for one publish (compiling on miss)."""
        key = (device_type, source)
        plan = self._plans.get(key)
        if plan is not None:
            if plan.epoch == self.bus.epoch:
                self._hits += 1
                return plan
            self._invalidations += 1
        return self._compile_source(key)

    def _compile_source(self, key: Tuple[str, str]) -> SourcePlan:
        device_type, source = key
        topics = source_topics(self.design, device_type, source)
        targets = tuple(
            subscription
            for topic in topics
            for subscription in self.bus.snapshot(topic)
        )
        plan = SourcePlan(device_type, source, topics, targets, self.bus.epoch)
        self._plans[key] = plan
        self._compiles += 1
        return plan

    def clear(self) -> None:
        """Drop every compiled plan (counts each as an invalidation)."""
        self._invalidations += len(self._plans)
        self._plans.clear()

    def __repr__(self) -> str:
        return f"<DeliveryPlanner plans={len(self._plans)} hits={self._hits}>"


# Sentinel marking an entity without the grouping attribute in a
# membership table; group_readings_planned turns it into the same
# BindingError group_readings raises.
_MISSING = object()


def missing() -> object:
    """The sentinel a membership table handed to
    :func:`~repro.runtime.grouping.group_readings_planned` stores for
    entities lacking the grouping attribute."""
    return _MISSING
