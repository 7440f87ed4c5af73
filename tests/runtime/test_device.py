"""Device instances, drivers and the three delivery modes."""

import copy
import operator
import pickle
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    ActuationError,
    BindingError,
    DeliveryError,
    ValueConformanceError,
)
from repro.faults.policy import SupervisionPolicy
from repro.faults.supervisor import SupervisionManager
from repro.runtime.app import Application
from repro.runtime.cache import CacheConfig, ReadCache
from repro.runtime.clock import SimulationClock
from repro.runtime.device import (
    SHARED_RECORDS,
    AttributeRecord,
    CallableDriver,
    DeviceDriver,
    DeviceInstance,
)
from repro.sema.analyzer import analyze
from repro.telemetry import MetricsRegistry

DESIGN = """\
device PresenceSensor {
    attribute parkingLot as LotEnum;
    source presence as Boolean;
}
device Prompter {
    source answer as String indexed by questionId as String;
    action askQuestion(question as String);
}
device Cooker {
    source consumption as Float;
    action Off;
}
enumeration LotEnum { A22, B16 }
"""


@pytest.fixture
def design():
    return analyze(DESIGN)


def sensor(design, value=True, **attrs):
    attrs = attrs or {"parkingLot": "A22"}
    return DeviceInstance(
        design.devices["PresenceSensor"],
        "s1",
        CallableDriver(sources={"presence": lambda: value}),
        attrs,
    )


class TestAttributeRegistration:
    def test_attributes_required(self, design):
        with pytest.raises(BindingError, match="must be set"):
            DeviceInstance(
                design.devices["PresenceSensor"], "s1", CallableDriver(), {}
            )

    def test_unknown_attribute_rejected(self, design):
        with pytest.raises(BindingError, match="unknown"):
            DeviceInstance(
                design.devices["PresenceSensor"],
                "s1",
                CallableDriver(),
                {"parkingLot": "A22", "floor": 2},
            )

    def test_attribute_value_type_checked(self, design):
        with pytest.raises(ValueConformanceError):
            sensor(design, parkingLot="Z99")

    def test_device_without_attributes(self, design):
        DeviceInstance(
            design.devices["Cooker"],
            "c1",
            CallableDriver(sources={"consumption": lambda: 0.0}),
        )


class TestQueryDelivery:
    def test_read_returns_driver_value(self, design):
        assert sensor(design, value=True).read("presence") is True

    def test_read_checks_type(self, design):
        bad = DeviceInstance(
            design.devices["PresenceSensor"],
            "s1",
            CallableDriver(sources={"presence": lambda: "yes"}),
            {"parkingLot": "A22"},
        )
        with pytest.raises(ValueConformanceError):
            bad.read("presence")

    def test_read_widens_int_to_float(self, design):
        cooker = DeviceInstance(
            design.devices["Cooker"],
            "c1",
            CallableDriver(sources={"consumption": lambda: 1500}),
        )
        value = cooker.read("consumption")
        assert value == 1500.0 and isinstance(value, float)

    def test_read_unknown_source(self, design):
        with pytest.raises(Exception):
            sensor(design).read("humidity")


class TestEventDelivery:
    def test_publish_reaches_hook(self, design):
        instance = sensor(design)
        got = []
        instance.attach(lambda *args: got.append(args))
        instance.publish("presence", False)
        ((published_instance, source, value, index),) = got
        assert published_instance is instance
        assert (source, value, index) == ("presence", False, None)

    def test_publish_without_hook_is_silent(self, design):
        sensor(design).publish("presence", True)

    def test_publish_type_checked(self, design):
        instance = sensor(design)
        with pytest.raises(ValueConformanceError):
            instance.publish("presence", "maybe")

    def test_indexed_publish_checks_index_type(self, design):
        prompter = DeviceInstance(
            design.devices["Prompter"], "p1", CallableDriver()
        )
        with pytest.raises(ValueConformanceError):
            prompter.publish("answer", "yes", index=42)

    def test_driver_push_helper(self, design):
        class Driver(DeviceDriver):
            def trigger(self):
                self.push("presence", True)

        driver = Driver()
        instance = DeviceInstance(
            design.devices["PresenceSensor"], "s1", driver,
            {"parkingLot": "A22"},
        )
        got = []
        instance.attach(lambda *args: got.append(args))
        driver.trigger()
        assert len(got) == 1

    def test_unbound_driver_push_rejected(self):
        with pytest.raises(DeliveryError, match="not bound"):
            DeviceDriver().push("x", 1)


class TestActuation:
    def test_action_dispatch(self, design):
        asked = []
        prompter = DeviceInstance(
            design.devices["Prompter"],
            "p1",
            CallableDriver(
                actions={"askQuestion": lambda question: asked.append(question)}
            ),
        )
        # CallableDriver receives raw DiaSpec parameter names.
        prompter.act("askQuestion", question="hello?")
        assert asked == ["hello?"]

    def test_missing_parameter_rejected(self, design):
        prompter = DeviceInstance(
            design.devices["Prompter"], "p1", CallableDriver()
        )
        with pytest.raises(ActuationError, match="expects parameters"):
            prompter.act("askQuestion")

    def test_extra_parameter_rejected(self, design):
        prompter = DeviceInstance(
            design.devices["Prompter"], "p1", CallableDriver()
        )
        with pytest.raises(ActuationError):
            prompter.act("askQuestion", question="q", volume=10)

    def test_parameter_type_checked(self, design):
        prompter = DeviceInstance(
            design.devices["Prompter"], "p1", CallableDriver()
        )
        with pytest.raises(ValueConformanceError):
            prompter.act("askQuestion", question=42)

    def test_snake_case_method_drivers(self, design):
        class Driver(DeviceDriver):
            def __init__(self):
                self.questions = []

            def do_ask_question(self, question):
                self.questions.append(question)

        driver = Driver()
        prompter = DeviceInstance(
            design.devices["Prompter"], "p1", driver
        )
        prompter.act("askQuestion", question="hi")
        assert driver.questions == ["hi"]

    def test_missing_action_handler(self, design):
        cooker = DeviceInstance(
            design.devices["Cooker"], "c1", DeviceDriver()
        )
        with pytest.raises(ActuationError, match="no handler"):
            cooker.act("Off")


class TestFailureState:
    def test_failed_device_refuses_reads(self, design):
        instance = sensor(design)
        instance.fail()
        with pytest.raises(DeliveryError, match="failed"):
            instance.read("presence")

    def test_failed_device_drops_pushes(self, design):
        instance = sensor(design)
        got = []
        instance.attach(lambda *args: got.append(args))
        instance.fail()
        instance.publish("presence", True)
        assert got == []

    def test_failed_device_refuses_actions(self, design):
        cooker = DeviceInstance(
            design.devices["Cooker"], "c1",
            CallableDriver(actions={"Off": lambda: None}),
        )
        cooker.fail()
        with pytest.raises(ActuationError):
            cooker.act("Off")

    def test_recovery_restores_service(self, design):
        instance = sensor(design)
        instance.fail()
        instance.recover()
        assert instance.read("presence") is True


PLAN_DESIGN = analyze("""\
device Meter {
    source level as Float;
    source count as Integer expect timeout <60 s> retry 1;
    action setRate(newRate as Integer);
    action Reset;
}
""")
READ_COUNTERS = (
    "device_reads_total",
    "device_read_retries_total",
    "device_read_timeouts_total",
    "device_read_failures_total",
)


class Feed:
    """What a driver answers, call after call: the drawn responses in
    a cycle (``DeliveryError``/``ActuationError`` instances raise)."""

    def __init__(self, responses):
        self.responses = responses
        self.calls = []

    def __call__(self, *args, **kwargs):
        self.calls.append((args, kwargs))
        response = self.responses[(len(self.calls) - 1) % len(self.responses)]
        if isinstance(response, Exception):
            raise response
        return response


def method_driver(feed):
    class Methods(DeviceDriver):
        def read_level(self):
            return feed("level")

        def read_count(self):
            return feed("count")

    return Methods()


def shadowed_method_driver(feed):
    """The class has the readers; the instance overrides them."""
    driver = method_driver(lambda source: pytest.fail("shadowed"))
    driver.read_level = lambda: feed("level")
    driver.read_count = lambda: feed("count")
    return driver


def instance_attribute_driver(feed):
    driver = DeviceDriver()
    driver.read_level = lambda: feed("level")
    driver.read_count = lambda: feed("count")
    return driver


def callable_driver(feed):
    return CallableDriver(
        sources={
            "level": lambda: feed("level"),
            "count": lambda: feed("count"),
        }
    )


def wholesale_driver(feed):
    class Wholesale(DeviceDriver):
        # Never reached: ``read`` is overridden wholesale.
        read_level = read_count = None

        def read(self, source):
            return feed(source)

    return Wholesale()


def late_driver(feed):
    """Reports a virtual delay beyond any declared timeout, the way a
    chaos-wrapped driver does."""
    driver = method_driver(feed)
    driver.last_injected_latency = 3600.0
    return driver


def no_reader_driver(feed):
    return DeviceDriver()


DRIVER_SHAPES = (
    method_driver,
    shadowed_method_driver,
    instance_attribute_driver,
    callable_driver,
    wholesale_driver,
    late_driver,
    no_reader_driver,
)
_response = st.sampled_from(
    [1.5, 3, True, "high", None, DeliveryError("boom")]
)
_step = st.one_of(
    st.tuples(st.just("read"), st.sampled_from(["level", "count", "ghost"])),
    st.tuples(
        st.sampled_from(
            [
                "fail",
                "recover",
                "attach_metrics",
                "attach_supervisor",
                "attach_cache",
                "uncache",
                "detach",
                "tick",
            ]
        ),
        st.none(),
    ),
    st.tuples(st.just("swap"), st.sampled_from(DRIVER_SHAPES)),
)


class Twin:
    """One of two identically wired instances the same script runs on:
    one reads through its plan, the other through the general body."""

    def __init__(self, shape, responses):
        self.feed = Feed(responses)
        self.clock = SimulationClock()
        self.metrics = MetricsRegistry()
        self.manager = SupervisionManager(
            self.clock, default_policy=SupervisionPolicy()
        )
        self.cache = ReadCache(self.clock, CacheConfig(enabled=True))
        self.instance = DeviceInstance(
            PLAN_DESIGN.devices["Meter"], "m1", shape(self.feed)
        )

    def apply(self, step, argument):
        instance = self.instance
        if step == "swap":
            instance.swap_driver(argument(self.feed))
        elif step == "attach_metrics":
            instance.attach_metrics(self.metrics)
        elif step == "attach_supervisor":
            instance.attach_supervisor(self.manager.supervise(instance))
        elif step == "attach_cache":
            instance.attach_cache(self.cache)
        elif step == "uncache":
            instance.attach_cache(None)
        elif step == "tick":
            self.clock.advance(2.0)  # past the cache TTL
        else:
            getattr(instance, step)()

    def counters(self):
        families = self.metrics.snapshot()
        return [sum(families.get(name, {}).values()) for name in READ_COUNTERS]


def outcome_of(call):
    try:
        return ("value", repr(call()))
    except Exception as exc:  # compared, not swallowed
        return (type(exc), str(exc))


class TestReadPlan:
    """The plan is an optimisation of the general body, never a second
    semantics."""

    @settings(max_examples=200, deadline=None)
    @given(
        shape=st.sampled_from(DRIVER_SHAPES),
        responses=st.lists(_response, min_size=1, max_size=5),
        wiring=st.sets(
            st.sampled_from(
                ["attach_metrics", "attach_supervisor", "attach_cache"]
            )
        ),
        script=st.lists(_step, max_size=14),
    )
    def test_compiled_reads_are_the_general_body(
        self, shape, responses, wiring, script
    ):
        compiled = Twin(shape, responses)
        general = Twin(shape, responses)
        for step in sorted(wiring):
            compiled.apply(step, None)
            general.apply(step, None)
        for step, argument in script:
            if step != "read":
                compiled.apply(step, argument)
                general.apply(step, argument)
                continue
            assert outcome_of(
                lambda: compiled.instance.read(argument)
            ) == outcome_of(
                lambda: general.instance._read_general(argument)
            )
            assert compiled.counters() == general.counters()
            assert compiled.feed.calls == general.feed.calls

    def test_the_plain_plan_is_chosen_and_shared(self):
        meters = [
            DeviceInstance(
                PLAN_DESIGN.devices["Meter"],
                f"m{number}",
                method_driver(Feed([2])),
            )
            for number in range(3)
        ]
        assert [meter.read("level") for meter in meters] == [2.0] * 3
        # Each ``method_driver`` call makes its own class: three plans.
        assert len({id(meter.plan) for meter in meters}) == 3
        twins = [
            DeviceInstance(
                PLAN_DESIGN.devices["Meter"], f"t{number}", DeviceDriver()
            )
            for number in range(3)
        ]
        for twin in twins:
            with pytest.raises(DeliveryError, match="no reader"):
                twin.read("level")
        assert len({id(twin.plan) for twin in twins}) == 1
        # Undeclared timeout, stock ``read``, a class-level reader: the
        # plain function; a declared ``expect`` keeps the general body.
        plan = meters[0].plan
        assert plan["level"].__name__ == "read"
        assert plan["count"].func is DeviceInstance._read_general

    def test_concurrent_first_reads_share_one_plan(self):
        """Threaded sweeps bind plans from pool threads: the table on
        the declaration is shared state, and the first bind must win."""

        class Steady(DeviceDriver):
            def read_level(self):
                return 1.0

        info = analyze("device Meter { source level as Float; }").devices[
            "Meter"
        ]
        workers = 8
        meters = [
            DeviceInstance(info, f"m{number}", Steady())
            for number in range(workers * 16)
        ]
        barrier = threading.Barrier(workers)

        def first_reads(chunk):
            barrier.wait(timeout=10)
            return [meter.read("level") for meter in chunk]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(workers) as pool:
                columns = list(
                    pool.map(
                        first_reads,
                        [meters[n::workers] for n in range(workers)],
                        timeout=30,
                    )
                )
        finally:
            sys.setswitchinterval(interval)
        assert columns == [[1.0] * 16] * workers
        assert len({id(meter.plan) for meter in meters}) == 1
        assert len(vars(info)["_plans"]) == 1

    @pytest.mark.parametrize(
        "event",
        ["attach_supervisor", "attach_cache", "detach", "swap_driver"],
    )
    def test_what_changes_the_answers_drops_the_plan(self, event):
        twin = Twin(method_driver, [2])
        instance = twin.instance
        instance.read("level")
        assert instance.plan is not None
        if event == "swap_driver":
            instance.swap_driver(wholesale_driver(twin.feed))
        else:
            twin.apply(event, None)
        assert instance.plan is None

    def test_detach_undoes_every_attach(self):
        twin = Twin(method_driver, [2])
        for step in ("attach_metrics", "attach_supervisor", "attach_cache"):
            twin.apply(step, None)
        twin.instance.attach(lambda *args: pytest.fail("detached"))
        twin.instance.read("level")
        assert twin.counters() == [1, 0, 0, 0]
        twin.instance.detach()
        assert twin.instance.supervisor is None
        twin.instance.read("level")
        twin.instance.publish("level", 1.0)
        assert twin.counters() == [1, 0, 0, 0]
        assert twin.cache.stats()["misses"] == 1


class SetRate(DeviceDriver):
    """``do_*`` methods, reached directly under the stock ``invoke``."""

    def __init__(self, feed):
        self.feed = feed

    def do_set_rate(self, new_rate):
        return self.feed(new_rate=new_rate)

    def do_reset(self):
        return self.feed()


class SetRateThroughInvoke(SetRate):
    """The same driver, but ``invoke`` overridden: the general path."""

    def invoke(self, action, **params):
        return DeviceDriver.invoke(self, action, **params)


_params = st.sampled_from(
    [
        {"newRate": 3},
        {"new_rate": 3},
        {},
        {"newRate": 3, "boost": 1},
        {"newRate": "fast"},
        {"newRate": True},
    ]
)
_act_step = st.one_of(
    st.tuples(st.sampled_from(["setRate", "Reset", "Ghost"]), _params),
    st.tuples(
        st.sampled_from(["fail", "recover", "attach_supervisor", "detach"]),
        st.none(),
    ),
)


class TestActPlan:
    @settings(max_examples=100, deadline=None)
    @given(
        responses=st.lists(
            st.sampled_from([None, "ok", ActuationError("jammed")]),
            min_size=1,
            max_size=4,
        ),
        supervised=st.booleans(),
        script=st.lists(_act_step, max_size=12),
    )
    def test_direct_dispatch_is_invoke(self, responses, supervised, script):
        direct = Twin(SetRate, responses)
        general = Twin(SetRateThroughInvoke, responses)
        twins = (direct, general)
        if supervised:
            for twin in twins:
                twin.apply("attach_supervisor", None)
        for step, params in script:
            if params is None:
                for twin in twins:
                    twin.apply(step, None)
                continue
            first, second = (
                outcome_of(lambda: twin.instance.act(step, **params))
                for twin in twins
            )
            assert first == second
            # camelCase parameters reach ``do_*`` in snake case.
            assert direct.feed.calls == general.feed.calls
            assert all(
                kwargs in ({}, {"new_rate": 3})
                for __, kwargs in direct.feed.calls
            )
            for twin in twins:
                supervisor = twin.instance.supervisor
                if supervisor is not None:
                    breaker = supervisor.breaker
                    assert (breaker.state, breaker._failures) == (
                        general.instance.supervisor.breaker.state,
                        general.instance.supervisor.breaker._failures,
                    )

    def test_an_actuation_error_under_supervision_counts_a_failure(self):
        twin = Twin(SetRate, [ActuationError("jammed")])
        twin.apply("attach_supervisor", None)
        with pytest.raises(ActuationError, match="jammed"):
            twin.instance.act("setRate", newRate=3)
        assert twin.instance.supervisor.breaker._failures == 1


def bind_sensors(app, count):
    return [
        app.create_device(
            "PresenceSensor",
            f"s{index}",
            CallableDriver(sources={"presence": lambda: True}),
            parkingLot="A22",
        )
        for index in range(count)
    ]


def counter_row(instance):
    wiring = instance._wiring
    return (wiring.reads, wiring.retries, wiring.timeouts, wiring.failures)


def reads_counted(app):
    return app.metrics.value(
        "device_reads_total", device_type="PresenceSensor"
    )


class TestBindRow:
    """What a declaration fixes is resolved once per declaration (and
    metrics registry), not once per bind."""

    def test_a_thousand_binds_resolve_the_counters_once(
        self, design, monkeypatch
    ):
        app = Application(design)
        asked = []
        counter = MetricsRegistry.counter

        def counting(registry, name, *args, **labels):
            asked.append(name)
            return counter(registry, name, *args, **labels)

        monkeypatch.setattr(MetricsRegistry, "counter", counting)
        instances = bind_sensors(app, 1000)
        assert sorted(asked) == sorted(READ_COUNTERS)
        rows = {tuple(map(id, counter_row(i))) for i in instances}
        assert len(rows) == 1
        instances[0].read("presence")
        instances[-1].read("presence")
        assert reads_counted(app) == 2

    def test_a_second_application_keeps_its_own_counters(self, design):
        first, second = Application(design), Application(design)
        (one,) = bind_sensors(first, 1)
        (two,) = bind_sensors(second, 1)
        assert not set(map(id, counter_row(one))) & set(
            map(id, counter_row(two))
        )
        two.read("presence")
        assert (reads_counted(first), reads_counted(second)) == (0, 1)

    def test_detach_then_rebind_restores_the_counters(self, design):
        app = Application(design)
        (instance,) = bind_sensors(app, 1)
        row = counter_row(instance)
        app.unbind_device("s0")
        assert counter_row(instance) == (None, None, None, None)
        app.bind_device(instance)
        assert all(map(operator.is_, counter_row(instance), row))
        instance.read("presence")
        assert reads_counted(app) == 1

    @pytest.mark.parametrize(
        "attributes, error, text",
        [
            (
                {},
                BindingError,
                "device 's1' of type PresenceSensor: attribute(s) "
                "['parkingLot'] must be set at registration",
            ),
            (
                {"floor": 2},
                BindingError,
                "device 's1' of type PresenceSensor: attribute(s) "
                "['parkingLot'] must be set at registration",
            ),
            (
                {"parkingLot": "A22", "floor": 2},
                BindingError,
                "device 's1' of type PresenceSensor: unknown "
                "attribute(s) ['floor']",
            ),
            (
                {"parkingLot": "Z99"},
                ValueConformanceError,
                "'Z99' is not a member of enumeration LotEnum",
            ),
        ],
    )
    def test_a_bad_record_raises_the_same_text_on_both_paths(
        self, design, attributes, error, text
    ):
        app = Application(design)
        with pytest.raises(error) as direct:
            DeviceInstance(
                design.devices["PresenceSensor"],
                "s1",
                CallableDriver(),
                attributes,
            )
        with pytest.raises(error) as created:
            app.create_device(
                "PresenceSensor", "s1", CallableDriver(), **attributes
            )
        assert str(direct.value) == str(created.value) == text
        assert len(app.registry) == 0


def lot_sensor(design, entity_id, lot, info=None):
    return DeviceInstance(
        info or design.devices["PresenceSensor"],
        entity_id,
        CallableDriver(),
        {"parkingLot": lot},
    )


class TestAttributeRecords:
    """An attribute record is checked once, read-only, and shared by
    every instance of the declaration with an equal record."""

    def test_equal_records_of_one_declaration_are_one_object(self, design):
        first, second, other = (
            lot_sensor(design, f"s{n}", lot)
            for n, lot in enumerate(["A22", "A22", "B16"])
        )
        assert first.attributes is second.attributes
        assert first.attributes is not other.attributes
        assert first.attributes == {"parkingLot": "A22"}
        # Another declaration (a second analysis) keeps its own.
        again = lot_sensor(
            design, "s3", "A22", analyze(DESIGN).devices["PresenceSensor"]
        )
        assert again.attributes == first.attributes
        assert again.attributes is not first.attributes

    def test_a_record_is_read_only(self, design):
        record = lot_sensor(design, "s1", "A22").attributes
        for mutate in (
            lambda: record.__setitem__("parkingLot", "B16"),
            lambda: record.__delitem__("parkingLot"),
            lambda: record.update(parkingLot="B16"),
            lambda: record.setdefault("floor", 2),
            lambda: record.pop("parkingLot"),
            lambda: record.popitem(),
            lambda: record.clear(),
            lambda: record.__ior__({"parkingLot": "B16"}),
        ):
            with pytest.raises(TypeError, match="read-only"):
                mutate()
        assert record == {"parkingLot": "A22"}

    def test_a_record_copies_and_pickles_as_a_record(self, design):
        record = lot_sensor(design, "s1", "A22").attributes
        for twin in (
            copy.copy(record),
            copy.deepcopy(record),
            pickle.loads(pickle.dumps(record)),
        ):
            assert type(twin) is AttributeRecord
            assert twin == record

    def test_records_follow_the_declaration_order(self):
        info = analyze(
            "device Meter { attribute b as Integer; attribute a as Integer;"
            " source level as Float; }"
        ).devices["Meter"]
        one = DeviceInstance(info, "m1", CallableDriver(), {"a": 1, "b": 2})
        two = DeviceInstance(info, "m2", CallableDriver(), {"b": 2, "a": 1})
        assert list(one.attributes) == ["b", "a"]
        assert one.attributes is two.attributes

    def test_an_unhashable_record_is_its_own(self):
        info = analyze(
            "device Tagged { attribute tags as String[];"
            " source level as Float; }"
        ).devices["Tagged"]
        one, two = (
            DeviceInstance(info, f"t{n}", CallableDriver(), {"tags": ["a"]})
            for n in range(2)
        )
        assert one.attributes == two.attributes
        assert one.attributes is not two.attributes
        with pytest.raises(TypeError, match="read-only"):
            one.attributes["tags"] = ["b"]

    def test_past_the_shared_records_a_record_is_its_own(self):
        info = analyze(
            "device Meter { attribute serial as Integer;"
            " source level as Float; }"
        ).devices["Meter"]

        def meter(serial):
            return DeviceInstance(
                info, f"m{serial}", CallableDriver(), {"serial": serial}
            )

        for serial in range(SHARED_RECORDS):
            meter(serial)
        assert meter(0).attributes is meter(0).attributes
        late = meter(SHARED_RECORDS), meter(SHARED_RECORDS)
        assert late[0].attributes == late[1].attributes
        assert late[0].attributes is not late[1].attributes
