"""Start-up validation: missing implementations, wrong base classes,
missing callbacks, MapReduce conformance."""

import pytest

from repro.errors import BindingError
from repro.runtime.app import Application
from repro.runtime.component import Context, Controller
from repro.runtime.device import CallableDriver
from repro.sema.analyzer import analyze

DESIGN = """\
device Sensor {
    attribute zone as ZoneEnum;
    source reading as Float;
}
device Siren { action sound(level as Integer); }
enumeration ZoneEnum { NORTH }

context Grouped as Float {
    when periodic reading from Sensor <1 min>
    grouped by zone
    with map as Float reduce as Float
    always publish;
}

context Queryable as Float {
    when required;
}

controller K {
    when provided Grouped
    do sound on Siren;
}
"""


class GoodGrouped(Context):
    def map(self, key, value, collector):
        collector.emit_map(key, value)

    def reduce(self, key, values, collector):
        collector.emit_reduce(key, sum(values))

    def on_periodic_reading(self, by_zone, discover):
        return sum(by_zone.values())


class GoodQueryable(Context):
    def when_required(self, discover):
        return 1.0


class GoodController(Controller):
    def on_grouped(self, value, discover):
        pass


def app_with(**overrides):
    app = Application(analyze(DESIGN))
    implementations = {
        "Grouped": GoodGrouped(),
        "Queryable": GoodQueryable(),
        "K": GoodController(),
    }
    implementations.update(overrides)
    for name, impl in implementations.items():
        if impl is not None:
            app.implement(name, impl)
    return app


class TestMissingPieces:
    def test_missing_context_impl(self):
        app = app_with(Grouped=None)
        with pytest.raises(BindingError, match="Grouped.*no implementation"):
            app.start()

    def test_missing_controller_impl(self):
        app = app_with(K=None)
        with pytest.raises(BindingError, match="'K' has no implementation"):
            app.start()

    def test_missing_periodic_callback(self):
        class NoCallback(Context):
            def map(self, k, v, c):
                pass

            def reduce(self, k, vs, c):
                pass

        app = app_with(Grouped=NoCallback())
        with pytest.raises(BindingError, match="on_periodic_reading"):
            app.start()

    def test_missing_mapreduce_methods(self):
        class NoMapReduce(Context):
            def on_periodic_reading(self, by_zone, discover):
                return 0.0

        app = app_with(Grouped=NoMapReduce())
        with pytest.raises(BindingError, match="MapReduce"):
            app.start()

    def test_missing_when_required(self):
        class NotQueryable(Context):
            pass

        app = app_with(Queryable=NotQueryable())
        with pytest.raises(BindingError, match="when_required"):
            app.start()

    def test_missing_controller_callback(self):
        class Deaf(Controller):
            pass

        app = app_with(K=Deaf())
        with pytest.raises(BindingError, match="on_grouped"):
            app.start()


class TestKindMismatches:
    def test_context_impl_must_subclass_context(self):
        app = Application(analyze(DESIGN))
        with pytest.raises(BindingError, match="subclass Context"):
            app.implement("Grouped", GoodController())

    def test_controller_impl_must_subclass_controller(self):
        app = Application(analyze(DESIGN))
        with pytest.raises(BindingError, match="subclass Controller"):
            app.implement("K", GoodQueryable())

    def test_unknown_component_name(self):
        app = Application(analyze(DESIGN))
        with pytest.raises(BindingError, match="not a context"):
            app.implement("Ghost", GoodQueryable())

    def test_implement_accepts_class_and_instantiates(self):
        app = Application(analyze(DESIGN))
        impl = app.implement("Queryable", GoodQueryable)
        assert isinstance(impl, GoodQueryable)

    def test_implement_after_start_rejected(self):
        app = app_with()
        app.start()
        with pytest.raises(BindingError, match="before start"):
            app.implement("Queryable", GoodQueryable())


class TestDeviceBinding:
    def test_unknown_device_type_rejected(self):
        app = app_with()
        with pytest.raises(BindingError, match="not part of this design"):
            app.create_device("Toaster", "t1", CallableDriver())

    def test_unbind_device(self):
        app = app_with()
        app.create_device(
            "Sensor", "s1",
            CallableDriver(sources={"reading": lambda: 1.0}), zone="NORTH",
        )
        app.unbind_device("s1")
        assert len(app.registry) == 0

    def test_an_unbound_instance_no_longer_counts_into_the_app(self):
        """``detach`` is the inverse of every ``attach*``: a read on an
        unbound instance is no business of the application's."""
        app = app_with()
        sensor = app.create_device(
            "Sensor", "s1",
            CallableDriver(sources={"reading": lambda: 1.0}), zone="NORTH",
        )

        def reads():
            family = app.metrics.snapshot()["device_reads_total"]
            return sum(family.values())

        assert sensor.read("reading") == 1.0
        assert reads() == 1
        assert app.unbind_device("s1") is sensor
        assert sensor.supervisor is None
        assert sensor.read("reading") == 1.0
        assert reads() == 1

    def test_implementation_lookup(self):
        app = app_with()
        assert isinstance(app.implementation("Grouped"), GoodGrouped)
        with pytest.raises(BindingError):
            app.implementation("Ghost")
