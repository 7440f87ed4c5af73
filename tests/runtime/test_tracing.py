"""The execution tracer."""

import functools

import pytest

from repro.apps.cooker import build_cooker_app
from repro.runtime.component import SourceEvent
from repro.runtime.device import DeviceInstance
from repro.runtime.plan import source_topics
from repro.runtime.proxies import make_proxy
from repro.runtime.tracing import TraceEntry, Tracer


@pytest.fixture
def traced_app():
    app = build_cooker_app(threshold_seconds=3, renotify_seconds=60)
    tracer = Tracer(app.application).attach()
    return app, tracer


class TestRecording:
    def test_source_events_recorded(self, traced_app):
        app, tracer = traced_app
        app.advance(2)
        sources = tracer.of_kind("source")
        assert len(sources) == 2
        assert sources[0].subject == "wall-clock"
        assert sources[0].detail == "tickSecond"

    def test_context_publications_recorded(self, traced_app):
        app, tracer = traced_app
        app.environment.set_cooker(True)
        app.advance(3)
        contexts = tracer.of_kind("context")
        assert [entry.subject for entry in contexts] == ["Alert"]
        assert contexts[0].value == 3

    def test_actions_recorded(self, traced_app):
        app, tracer = traced_app
        app.environment.set_cooker(True)
        app.advance(3)
        actions = tracer.of_kind("action")
        assert actions
        assert actions[0].subject == "tv-living-room"
        assert actions[0].detail == "askQuestion"

    def test_ordering_follows_the_chain(self, traced_app):
        app, tracer = traced_app
        app.environment.set_cooker(True)
        app.advance(3)
        kinds = [entry.kind for entry in tracer.entries[-3:]]
        assert kinds == ["source", "context", "action"]

    def test_tracing_does_not_change_behaviour(self):
        def run(traced):
            app = build_cooker_app(threshold_seconds=3)
            if traced:
                Tracer(app.application).attach()
            app.environment.set_cooker(True)
            app.advance(10)
            return app.application.stats["context_activations"]

        assert run(False) == run(True)

    def test_trace_is_the_same_with_delivery_plans_compiled(self):
        """Device publishes go out through compiled plans; the timeline
        is the one the same publishes record as per-topic publishes of
        the ancestor walk, entry for entry."""

        def walk(application, instance, source, value, index):
            event = SourceEvent(
                device=make_proxy(instance),
                source=source,
                value=value,
                index=index,
                timestamp=application.clock.now(),
            )
            design, device_type = application.design, instance.info.name
            for topic in source_topics(design, device_type, source):
                application.bus.publish(topic, event)

        def run(plans):
            app = build_cooker_app(threshold_seconds=3)
            application = app.application
            tracer = Tracer(application).attach()
            if not plans:
                for instance in application.registry:
                    instance.attach(functools.partial(walk, application))
            app.environment.set_cooker(True)
            app.advance(5)
            assert (application.planner.stats()["compiles"] > 0) is plans
            return tracer.entries

        plain = run(False)
        assert len([e for e in plain if e.kind == "source"]) == 5
        assert run(True) == plain


class TestQueries:
    def test_between(self, traced_app):
        app, tracer = traced_app
        app.advance(5)
        window = tracer.between(2.0, 4.0)
        assert {entry.timestamp for entry in window} == {2.0, 3.0}

    def test_find_with_predicate(self, traced_app):
        app, tracer = traced_app
        app.advance(5)
        late = tracer.find(
            kind="source", predicate=lambda e: e.value >= 4
        )
        assert [entry.value for entry in late] == [4, 5]

    def test_find_by_subject(self, traced_app):
        app, tracer = traced_app
        app.advance(3)
        assert len(tracer.find(subject="wall-clock")) == 3


class TestRendering:
    def test_render_lines(self, traced_app):
        app, tracer = traced_app
        app.environment.set_cooker(True)
        app.advance(3)
        text = tracer.render()
        assert "source   wall-clock.tickSecond" in text
        assert "context  Alert published 3" in text
        assert "action   askQuestion on tv-living-room" in text

    def test_render_limit(self, traced_app):
        app, tracer = traced_app
        app.advance(10)
        assert len(tracer.render(limit=2).splitlines()) == 2

    def test_timestamp_format(self):
        entry = TraceEntry(3723.5, "context", "X", "", 1)
        assert entry.render().startswith("001:02:03.500")


class TestLifecycle:
    def test_capacity_bound(self):
        app = build_cooker_app(threshold_seconds=10 ** 6)
        tracer = Tracer(app.application, capacity=5).attach()
        app.advance(20)
        assert len(tracer) == 5
        assert tracer.dropped == 15
        assert "dropped" in tracer.render()

    def test_detach_stops_recording(self, traced_app):
        app, tracer = traced_app
        app.advance(2)
        tracer.detach()
        app.advance(5)
        assert len(tracer.of_kind("source")) == 2

    def test_detach_restores_act(self, traced_app):
        app, tracer = traced_app
        instance = app.application.registry.get("tv-living-room")
        tracer.detach()
        assert instance.act.__func__ is DeviceInstance.act
        # Nothing of the tracer was ever on the instance: it records
        # through the wiring the application's instances share.
        assert not hasattr(instance, "__dict__")
        instance.act("askQuestion", question="untraced?", questionId="q8")
        assert not tracer.of_kind("action")

    def test_an_unbound_instance_is_released_and_traced_again_on_rebind(
        self, traced_app
    ):
        app, tracer = traced_app
        application = app.application
        instance = application.unbind_device("tv-living-room")
        instance.act("askQuestion", question="unbound?", questionId="q8")
        assert not tracer.of_kind("action")
        application.bind_device(instance)
        instance.act("askQuestion", question="again?", questionId="q9")
        assert [e.value["questionId"] for e in tracer.of_kind("action")] == [
            "q9"
        ]
        tracer.detach()
        instance.act("askQuestion", question="detached?", questionId="q10")
        assert len(tracer.of_kind("action")) == 1

    def test_double_attach_rejected(self, traced_app):
        __, tracer = traced_app
        with pytest.raises(RuntimeError):
            tracer.attach()

    def test_a_second_tracer_waits_for_the_first_to_detach(self, traced_app):
        app, tracer = traced_app
        second = Tracer(app.application)
        with pytest.raises(RuntimeError, match="another tracer"):
            second.attach()
        tracer.detach()
        second.attach()
        app.application.registry.get("tv-living-room").act(
            "askQuestion", question="second?", questionId="q8"
        )
        assert len(second.of_kind("action")) == 1
        assert not tracer.of_kind("action")

    def test_runtime_bound_devices_are_traced(self, traced_app):
        app, tracer = traced_app
        from repro.runtime.device import CallableDriver

        hits = []
        app.application.create_device(
            "Cooker", "cooker-2",
            CallableDriver(sources={"consumption": lambda: 0.0},
                           actions={"Off": lambda: hits.append(1)}),
        )
        app.application.registry.get("cooker-2").act("Off")
        assert tracer.find(subject="cooker-2", kind="action")

    def test_clear(self, traced_app):
        app, tracer = traced_app
        app.advance(3)
        tracer.clear()
        assert len(tracer) == 0

    def test_invalid_capacity(self, traced_app):
        app, __ = traced_app
        with pytest.raises(ValueError):
            Tracer(app.application, capacity=0)
