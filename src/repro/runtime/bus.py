"""Synchronous topic-based publish/subscribe bus.

The bus is the delivery backbone of the runtime: device sources publish
readings, contexts publish refined values, and subscribers (contexts,
controllers) are invoked synchronously in subscription order — which the
application sets up in SCC layer order, making whole-application dispatch
deterministic.

Topics are plain hashable tuples; the conventions used by the runtime:

* ``("source", device_type, source_name)`` — a reading from any instance
  of ``device_type`` (subtype instances publish under every ancestor type
  as well, so subscriptions against a supertype see them);
* ``("context", context_name)`` — a context's published value.

Publishing is the hottest path of a periodic deployment (every sweep of
every sensor funnels through it), so the per-topic subscriber snapshot is
cached: it is rebuilt only when a subscription was added or removed since
the last publish on that topic, not copied on every publish.

Delivery counters are plain integers bumped inline; when a
:class:`~repro.telemetry.MetricsRegistry` is attached (the application
always attaches its own), they are exported as pull-time callback
metrics — the publish path itself pays nothing for telemetry, which
``tests/telemetry/test_instrument.py::TestZeroCostContract`` enforces.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

from repro.telemetry.instrument import Instrumented, MetricSpec

Subscriber = Callable[[Any], None]


@dataclass(order=True)
class _Subscription:
    order: int
    topic: Hashable = field(compare=False)
    callback: Subscriber = field(compare=False)
    active: bool = field(compare=False, default=True)
    bus: Optional["EventBus"] = field(compare=False, default=None, repr=False)

    def unsubscribe(self) -> None:
        if self.active:
            self.active = False
            if self.bus is not None:
                self.bus._invalidate(self.topic)


class EventBus(Instrumented):
    """Deterministic synchronous pub/sub.

    The delivery counters are plain inline integers exported through the
    shared :class:`Instrumented` protocol as pull-time callbacks, so
    attaching telemetry adds zero work per publish.
    """

    metric_specs = (
        MetricSpec(
            "bus_published_total",
            "_published",
            stats_key="published",
            help="Events published on the bus.",
        ),
        MetricSpec(
            "bus_delivered_total",
            "_delivered",
            stats_key="delivered",
            help="Subscriber deliveries performed by the bus.",
        ),
        MetricSpec(
            "bus_snapshot_rebuilds_total",
            "_snapshot_rebuilds",
            help="Per-topic subscriber snapshots rebuilt after churn.",
        ),
        MetricSpec(
            "bus_topics",
            "_topic_count",
            kind="gauge",
            help="Topics with at least one subscription ever made.",
        ),
        MetricSpec(
            "bus_subscriptions",
            "_active_subscription_count",
            kind="gauge",
            help="Currently active subscriptions.",
        ),
    )

    def __init__(self, metrics=None):
        self._topics: Dict[Hashable, List[_Subscription]] = {}
        # Per-topic immutable snapshot of active subscriptions, rebuilt
        # lazily after a subscribe/unsubscribe touched the topic.
        self._snapshots: Dict[Hashable, Tuple[_Subscription, ...]] = {}
        self._counter = itertools.count()
        self._delivered = 0
        self._published = 0
        self._snapshot_rebuilds = 0
        self._epoch = 0
        if metrics is not None:
            self.attach_metrics(metrics)

    @property
    def epoch(self) -> int:
        """Monotonic subscription-change counter.

        Bumped on every subscribe and unsubscribe; consumers caching
        values derived from the subscription set (the delivery planner's
        compiled dispatch tables) capture the epoch at compile time and
        treat any later change as expiry."""
        return self._epoch

    def _topic_count(self) -> int:
        return len(self._topics)

    def _active_subscription_count(self) -> int:
        return sum(
            1
            for subscriptions in self._topics.values()
            for s in subscriptions
            if s.active
        )

    def subscribe(self, topic: Hashable, callback: Subscriber) -> _Subscription:
        """Register ``callback`` for ``topic``; returns an unsubscribe handle."""
        subscription = _Subscription(
            next(self._counter), topic, callback, bus=self
        )
        self._topics.setdefault(topic, []).append(subscription)
        self._snapshots.pop(topic, None)
        self._epoch += 1
        return subscription

    def publish(self, topic: Hashable, payload: Any) -> int:
        """Deliver ``payload`` to current subscribers; returns delivery count.

        Subscribers added *during* delivery do not receive this event
        (snapshot semantics), keeping runtime entity binding race-free.
        """
        snapshot = self._snapshots.get(topic)
        if snapshot is None:
            snapshot = self._rebuild_snapshot(topic)
        return self.dispatch_compiled(snapshot, 1, payload)

    def _rebuild_snapshot(
        self, topic: Hashable
    ) -> Tuple[_Subscription, ...]:
        """Compact the topic's subscription list and cache the snapshot."""
        self._snapshot_rebuilds += 1
        subscriptions = self._topics.get(topic)
        if not subscriptions:
            snapshot: Tuple[_Subscription, ...] = ()
        else:
            if any(not s.active for s in subscriptions):
                subscriptions = [s for s in subscriptions if s.active]
                self._topics[topic] = subscriptions
            snapshot = tuple(subscriptions)
        self._snapshots[topic] = snapshot
        return snapshot

    def _invalidate(self, topic: Hashable) -> None:
        self._snapshots.pop(topic, None)
        self._epoch += 1

    def snapshot(self, topic: Hashable) -> Tuple[_Subscription, ...]:
        """The topic's current active-subscription snapshot (cached).

        This is the same tuple :meth:`publish` iterates, exposed so the
        delivery planner can flatten several topics' subscribers into
        one compiled dispatch table."""
        snapshot = self._snapshots.get(topic)
        if snapshot is None:
            snapshot = self._rebuild_snapshot(topic)
        return snapshot

    def dispatch_compiled(
        self, targets, topic_count: int, payload: Any
    ) -> int:
        """Deliver ``payload`` through a precompiled dispatch table.

        ``targets`` is a flat sequence of subscriptions (what a plan
        stores, or one topic's snapshot) standing in for ``topic_count``
        individual topic publishes; counters advance exactly as if each
        topic had been published separately, so bus stats stay truthful
        whichever path delivered the event.  Every delivery passes
        here — the one place an observer needs to wrap."""
        self._published += topic_count
        delivered = 0
        for subscription in targets:
            # A subscription cancelled mid-delivery stays in this (stale)
            # snapshot but must not fire.
            if subscription.active:
                subscription.callback(payload)
                delivered += 1
        self._delivered += delivered
        return delivered

    def subscriber_count(self, topic: Hashable) -> int:
        return sum(1 for s in self._topics.get(topic, ()) if s.active)
