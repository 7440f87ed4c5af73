"""Precompiled delivery plans: dispatch identity, invalidation.

Plans must be an invisible optimization: every publish goes through
one, and the exact same subscribers receive the exact same events as
a per-topic walk of ``source_topics`` would deliver (including the
taxonomy rule — subtype publishes reaching supertype subscriptions),
with the bus counters advancing identically; a subscription change
must expire the affected plans via the bus epoch, never serve a stale
dispatch table — and a binding change, which cannot change who
receives a publish, must not expire them.
"""

import pytest

from repro.api import (
    Application,
    CallableDriver,
    Context,
    Controller,
    RuntimeConfig,
    analyze,
)
from repro.errors import BindingError
from repro.runtime.component import SourceEvent
from repro.runtime.grouping import group_readings, group_readings_planned
from repro.runtime.plan import DeliveryPlanner, missing, source_topics
from repro.runtime.proxies import ProxySet, make_proxy

DESIGN = """\
device MotionSensor {
    attribute zone as String;
    source presence as Boolean;
}
device FancyMotionSensor extends MotionSensor {
    source battery as Float;
}

context Watcher as Integer {
    when provided presence from MotionSensor
    always publish;
}

controller Alarm {
    when provided Watcher do Ring on Bell;
}

device Bell { action Ring; }
"""


class WatcherImpl(Context):
    def __init__(self):
        super().__init__()
        self.events = []

    def on_presence_from_motion_sensor(self, event, discover):
        self.events.append((event.device.entity_id, event.value))
        return len(self.events)


class AlarmImpl(Controller):
    def __init__(self):
        super().__init__()
        self.values = []

    def on_watcher(self, value, discover):
        self.values.append(value)


def build_app(fancy=True):
    app = Application(analyze(DESIGN), RuntimeConfig())
    watcher = app.implement("Watcher", WatcherImpl())
    app.implement("Alarm", AlarmImpl())
    device_type = "FancyMotionSensor" if fancy else "MotionSensor"
    instance = app.create_device(
        device_type,
        "m-1",
        CallableDriver(sources={"presence": lambda: True}),
        zone="hall",
    )
    app.start()
    return app, watcher, instance


def walk_publish(app, instance, source, value):
    """What a publish delivers without a plan: one bus publish per
    topic of the ancestor walk."""
    event = SourceEvent(
        device=make_proxy(instance),
        source=source,
        value=value,
        index=None,
        timestamp=app.clock.now(),
    )
    for topic in source_topics(app.design, instance.info.name, source):
        app.bus.publish(topic, event)


class TestCompiledDispatch:
    def test_subtype_publish_reaches_supertype_subscription(self):
        app, watcher, instance = build_app(fancy=True)
        instance.publish("presence", True)
        assert watcher.events == [("m-1", True)]

    def test_plans_on_equals_plans_off(self):
        plain_app, plain_watcher, plain_instance = build_app()
        plan_app, plan_watcher, plan_instance = build_app()
        for value in (True, False):
            walk_publish(plain_app, plain_instance, "presence", value)
            plan_instance.publish("presence", value)
        assert plan_watcher.events == plain_watcher.events
        assert plain_app.planner.stats()["compiles"] == 0
        # Bus accounting stays truthful through the compiled path: the
        # same number of per-topic publishes and deliveries.
        assert (
            plan_app.bus.stats()["published"]
            == plain_app.bus.stats()["published"]
        )
        assert (
            plan_app.bus.stats()["delivered"]
            == plain_app.bus.stats()["delivered"]
        )

    def test_compile_once_then_hits(self):
        app, __, instance = build_app()
        for __unused in range(200):
            instance.publish("presence", True)
        stats = app.planner.stats()
        assert stats["compiles"] == 1
        assert stats["hits"] == 199
        assert stats["invalidations"] == 0

    def test_subscription_change_invalidates(self):
        app, watcher, instance = build_app()
        instance.publish("presence", True)
        seen = []
        app.bus.subscribe(
            ("source", "MotionSensor", "presence"),
            lambda event: seen.append(event.value),
        )
        instance.publish("presence", False)
        # The late subscriber is picked up — the old plan expired on the
        # bus epoch bump instead of serving its stale target list.
        assert seen == [False]
        assert len(watcher.events) == 2
        assert app.planner.stats()["invalidations"] >= 1

    def test_binding_change_keeps_the_plan(self):
        app, watcher, instance = build_app()
        instance.publish("presence", True)
        plan = app.planner.source_plan("FancyMotionSensor", "presence")
        other = app.create_device(
            "MotionSensor",
            "m-2",
            CallableDriver(sources={"presence": lambda: False}),
            zone="yard",
        )
        other.publish("presence", False)
        assert watcher.events[-1] == ("m-2", False)
        # The plan compiled before the bind is still the one a publish
        # of its key replays, and it delivers as before.
        hits = app.planner.stats()["hits"]
        instance.publish("presence", True)
        assert app.planner.stats()["hits"] == hits + 1
        assert app.planner.stats()["invalidations"] == 0
        assert app.planner.source_plan("FancyMotionSensor", "presence") is plan
        assert watcher.events == [
            ("m-1", True),
            ("m-2", False),
            ("m-1", True),
        ]

    def test_unsubscribed_callback_stops_firing(self):
        app, watcher, instance = build_app()
        instance.publish("presence", True)
        app.stop()
        instance.publish("presence", False)
        assert watcher.events == [("m-1", True)]

    def test_every_application_has_a_planner(self):
        app, __, __unused = build_app()
        assert isinstance(app.planner, DeliveryPlanner)
        assert app.stats["plan"] == app.planner.stats()


class TestTopicMemo:
    def test_subtype_only_source_does_not_walk_to_ancestor(self):
        app, __, __unused = build_app()
        plan = app.planner.source_plan("FancyMotionSensor", "battery")
        assert plan.topics == (("source", "FancyMotionSensor", "battery"),)


class TestMembership:
    """``group_readings_planned`` over a hand-built membership table."""

    def test_membership_matches_group_readings(self):
        app, __, __unused = build_app()
        app.create_device(
            "MotionSensor",
            "m-2",
            CallableDriver(sources={"presence": lambda: False}),
            zone="yard",
        )
        membership = {
            instance.entity_id: instance.attributes["zone"]
            for instance in app.registry.instances_of("MotionSensor")
        }
        readings = [
            (instance, idx)
            for idx, instance in enumerate(app.registry)
            if instance.info.name.endswith("MotionSensor")
        ]
        assert group_readings_planned(
            readings, membership, "zone"
        ) == group_readings(readings, "zone")

    def test_missing_attribute_raises_binding_error(self):
        app, __, instance = build_app()
        with pytest.raises(BindingError):
            group_readings_planned(
                [(instance, 1.0)], {"m-1": missing()}, "nonsense"
            )

    def test_clear_counts_invalidations(self):
        app, __, instance = build_app()
        instance.publish("presence", True)
        app.planner.source_plan("FancyMotionSensor", "battery")
        entries = app.planner.entry_count()
        assert entries >= 2
        app.planner.clear()
        assert app.planner.entry_count() == 0
        assert app.planner.stats()["invalidations"] >= entries


class TestProxyCache:
    def test_make_proxy_memoized_per_instance(self):
        app, __, instance = build_app()
        assert make_proxy(instance) is make_proxy(instance)

    def test_proxy_set_reuses_cached_proxies(self):
        app, __, instance = build_app()
        proxy = make_proxy(instance)
        proxy_set = ProxySet("MotionSensor", map(make_proxy, [instance]))
        assert proxy_set[0] is proxy

    def test_unbind_clears_cached_proxy(self):
        app, __, instance = build_app()
        make_proxy(instance)
        app.unbind_device("m-1")
        assert getattr(instance, "_cached_proxy", None) is None

    def test_delivered_events_reuse_one_proxy(self):
        app, watcher, instance = build_app()
        proxy = make_proxy(instance)
        instance.publish("presence", True)
        assert watcher.events and make_proxy(instance) is proxy


class TestPlannerStandalone:
    def test_repr_and_stats_shape(self):
        app, __, instance = build_app()
        instance.publish("presence", True)
        planner = app.planner
        assert "DeliveryPlanner" in repr(planner)
        stats = planner.stats()
        assert {"compiles", "hits", "invalidations", "plans"} <= set(stats)

    def test_planner_without_metrics(self):
        app, __, __unused = build_app()
        planner = DeliveryPlanner(app.design, app.bus)
        plan = planner.source_plan("FancyMotionSensor", "presence")
        assert plan.topics == (
            ("source", "FancyMotionSensor", "presence"),
            ("source", "MotionSensor", "presence"),
        )
        assert planner.source_plan("FancyMotionSensor", "presence") is plan
