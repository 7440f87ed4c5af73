"""The synchronous pub/sub bus."""

from repro.runtime.bus import EventBus


class TestSubscribePublish:
    def test_delivery(self):
        bus = EventBus()
        got = []
        bus.subscribe("t", got.append)
        assert bus.publish("t", 42) == 1
        assert got == [42]

    def test_no_subscribers(self):
        bus = EventBus()
        assert bus.publish("t", 1) == 0

    def test_topic_isolation(self):
        bus = EventBus()
        a, b = [], []
        bus.subscribe("a", a.append)
        bus.subscribe("b", b.append)
        bus.publish("a", 1)
        assert a == [1] and b == []

    def test_tuple_topics(self):
        bus = EventBus()
        got = []
        bus.subscribe(("source", "Clock", "tickSecond"), got.append)
        bus.publish(("source", "Clock", "tickSecond"), 7)
        bus.publish(("source", "Clock", "tickMinute"), 8)
        assert got == [7]

    def test_delivery_in_subscription_order(self):
        bus = EventBus()
        order = []
        bus.subscribe("t", lambda __: order.append("first"))
        bus.subscribe("t", lambda __: order.append("second"))
        bus.publish("t", None)
        assert order == ["first", "second"]


class TestUnsubscribe:
    def test_unsubscribe_stops_delivery(self):
        bus = EventBus()
        got = []
        handle = bus.subscribe("t", got.append)
        handle.unsubscribe()
        bus.publish("t", 1)
        assert got == []

    def test_subscriber_count(self):
        bus = EventBus()
        first = bus.subscribe("t", lambda __: None)
        bus.subscribe("t", lambda __: None)
        assert bus.subscriber_count("t") == 2
        first.unsubscribe()
        assert bus.subscriber_count("t") == 1

    def test_unsubscribe_during_delivery_takes_effect_next_publish(self):
        bus = EventBus()
        got = []
        handle = bus.subscribe("t", lambda v: (got.append(v),
                                               handle.unsubscribe()))
        bus.publish("t", 1)
        bus.publish("t", 2)
        assert got == [1]


class TestSnapshotSemantics:
    def test_subscriber_added_during_delivery_misses_current_event(self):
        bus = EventBus()
        late = []

        def add_late(value):
            bus.subscribe("t", late.append)

        bus.subscribe("t", add_late)
        bus.publish("t", 1)
        assert late == []
        bus.publish("t", 2)
        assert late == [2]


class TestStats:
    def test_counters(self):
        bus = EventBus()
        bus.subscribe("t", lambda __: None)
        bus.subscribe("t", lambda __: None)
        bus.publish("t", 1)
        bus.publish("u", 1)
        assert bus.stats() == {"published": 2, "delivered": 2}

    def test_stats_is_a_snapshot(self):
        bus = EventBus()
        snapshot = bus.stats()
        bus.publish("t", 1)
        assert snapshot == {"published": 0, "delivered": 0}
