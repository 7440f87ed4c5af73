"""Binding times: configuration / deployment / launch / runtime (§IV)."""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BindingError, ValueConformanceError
from repro.faults.policy import SupervisionPolicy
from repro.runtime import device as device_module
from repro.runtime.app import Application
from repro.runtime.binding import BindingTime, Deployment
from repro.runtime.component import Context
from repro.runtime.config import RuntimeConfig
from repro.runtime.device import SHARED_RECORDS, CallableDriver, DeviceInstance
from repro.sema.analyzer import analyze

DESIGN = """\
device Sensor { source reading as Float; }
context Sweep as Integer {
    when periodic reading from Sensor <1 min>
    always publish;
}
"""


class SweepImpl(Context):
    def __init__(self):
        super().__init__()
        self.sizes = []

    def on_periodic_reading(self, readings, discover):
        self.sizes.append(len(readings))
        return len(readings)


def make_sensor(design, entity_id):
    return DeviceInstance(
        design.devices["Sensor"],
        entity_id,
        CallableDriver(sources={"reading": lambda: 1.0}),
    )


@pytest.fixture
def setup():
    design = analyze(DESIGN)
    app = Application(design)
    app.implement("Sweep", SweepImpl())
    return design, app, Deployment(app)


class TestStagingPhases:
    def test_configuration_binds_immediately(self, setup):
        design, app, deployment = setup
        deployment.stage(make_sensor(design, "c1"),
                         BindingTime.CONFIGURATION)
        assert len(app.registry) == 1

    def test_deployment_binds_on_deploy(self, setup):
        design, app, deployment = setup
        deployment.stage(make_sensor(design, "d1"), BindingTime.DEPLOYMENT)
        assert len(app.registry) == 0
        assert deployment.deploy() == 1
        assert len(app.registry) == 1

    def test_launch_binds_then_starts(self, setup):
        design, app, deployment = setup
        deployment.stage(make_sensor(design, "l1"), BindingTime.LAUNCH)
        deployment.deploy()
        deployment.launch()
        assert app.started
        assert len(app.registry) == 1

    def test_launch_requires_deploy_first(self, setup):
        design, app, deployment = setup
        deployment.stage(make_sensor(design, "d1"), BindingTime.DEPLOYMENT)
        with pytest.raises(BindingError, match="deploy"):
            deployment.launch()

    def test_runtime_binding_joins_running_app(self, setup):
        design, app, deployment = setup
        deployment.stage(make_sensor(design, "d1"), BindingTime.DEPLOYMENT)
        deployment.stage(make_sensor(design, "r1"), BindingTime.RUNTIME)
        deployment.deploy()
        deployment.launch()
        app.advance(60)
        assert deployment.bind_runtime() == 1
        app.advance(60)
        sweep = app.implementation("Sweep")
        assert sweep.sizes == [1, 2]

    def test_runtime_binding_requires_started_app(self, setup):
        design, app, deployment = setup
        deployment.stage(make_sensor(design, "r1"), BindingTime.RUNTIME)
        with pytest.raises(BindingError, match="started"):
            deployment.bind_runtime()

    def test_phase_tracking(self, setup):
        design, app, deployment = setup
        assert deployment.phase is BindingTime.CONFIGURATION
        deployment.deploy()
        assert deployment.phase is BindingTime.DEPLOYMENT
        deployment.launch()
        assert deployment.phase is BindingTime.RUNTIME

    def test_staged_count(self, setup):
        design, app, deployment = setup
        deployment.stage(make_sensor(design, "r1"), BindingTime.RUNTIME)
        deployment.stage(make_sensor(design, "r2"), BindingTime.RUNTIME)
        assert deployment.staged_count(BindingTime.RUNTIME) == 2
        deployment.launch()
        deployment.bind_runtime()
        assert deployment.staged_count(BindingTime.RUNTIME) == 0

    def test_a_failed_stage_binds_none_and_stays_staged(self, setup):
        """A stage binds as one column: a collision on the second of
        three binds none of them and leaves all three staged, and
        deploy() binds all three once the conflict is gone."""
        design, app, deployment = setup
        app.bind_device(make_sensor(design, "d2"))
        for entity_id in ("d1", "d2", "d3"):
            deployment.stage(
                make_sensor(design, entity_id), BindingTime.DEPLOYMENT
            )
        with pytest.raises(BindingError, match="already registered"):
            deployment.deploy()
        assert deployment.staged_count(BindingTime.DEPLOYMENT) == 3
        assert app.registry.entity_ids() == ["d2"]
        app.unbind_device("d2")
        assert deployment.deploy() == 3
        assert app.registry.entity_ids() == ["d1", "d2", "d3"]
        assert deployment.staged_count(BindingTime.DEPLOYMENT) == 0


# -- a column bind is a device-by-device bind ---------------------------

COLUMN_DESIGN = """\
device Meter {
    attribute zone as ZoneEnum;
    source reading as Integer;
}
device Probe extends Meter {
    attribute level as Integer;
    attribute lit as Boolean;
    attribute weight as Float;
}
device Tagged extends Meter {
    attribute tags as String[];
}
enumeration ZoneEnum { Z0, Z1, Z2 }

context ByZone as Integer {
    when periodic reading from Meter <1 min>
    grouped by zone
    always publish;
}

context WeightSum as Integer {
    when periodic reading from Probe <1 min>
    grouped by weight
    with map as Integer reduce as Integer
    always publish;
}
"""

ATTRIBUTES = {
    "Probe": ("zone", "level", "lit", "weight"),
    "Tagged": ("zone", "tags"),
}


class ByZoneImpl(Context):
    def __init__(self):
        super().__init__()
        self.deliveries = []

    def on_periodic_reading(self, by_zone, discover):
        self.deliveries.append(sorted(by_zone.items()))
        return len(by_zone)


class WeightSumImpl(Context):
    def __init__(self):
        super().__init__()
        self.deliveries = []

    def map(self, key, value, collector):
        collector.emit_map(key, value)

    def reduce(self, key, values, collector):
        collector.emit_reduce(key, sum(values))

    def on_periodic_reading(self, by_weight, discover):
        self.deliveries.append(
            [(key, type(key), value) for key, value in by_weight.items()]
        )
        return sum(by_weight.values())


def column_app():
    """An application over a design of its own: the declarations'
    shared records and check memos start empty."""
    app = Application(analyze(COLUMN_DESIGN))
    app.implement("ByZone", ByZoneImpl())
    app.implement("WeightSum", WeightSumImpl())
    return app


def reading_driver(number):
    return CallableDriver(sources={"reading": lambda: number})


# Values equal across classes (1, True, 1.0) share no check: True is no
# Integer, 1 no Boolean, True no Float, while 1 and 1.0 both are.  An
# array's record is never shared, so it is checked row by row.
probe_rows = st.fixed_dictionaries(
    {
        "zone": st.sampled_from(["Z0", "Z1", "Z2"]),
        "level": st.sampled_from([0, 1, 2]),
        "lit": st.booleans(),
        "weight": st.sampled_from([1, 1.0, 2, 2.5]),
    }
)
tagged_rows = st.fixed_dictionaries(
    {
        "zone": st.sampled_from(["Z0", "Z1"]),
        "tags": st.sampled_from([(), ("a",), ["a"], ("a", "b")]),
    }
)
bad_values = st.sampled_from(
    [
        ("Probe", "level", True),
        ("Probe", "level", 1.0),
        ("Probe", "lit", 1),
        ("Probe", "weight", True),
        ("Probe", "zone", "Z9"),
        ("Tagged", "tags", "a"),
    ]
)


def entity_ids(device_type, rows):
    return [f"{device_type}-{index}" for index in range(len(rows))]


def bind_by_device(app, columns):
    for device_type, rows in columns:
        for entity_id, row in zip(entity_ids(device_type, rows), rows):
            app.create_device(
                device_type, entity_id, reading_driver(len(app.registry)), **row
            )


def bind_by_column(app, columns):
    for device_type, rows in columns:
        app.bind_column(
            device_type,
            entity_ids(device_type, rows),
            [
                reading_driver(len(app.registry) + index)
                for index in range(len(rows))
            ],
            **{
                name: [row[name] for row in rows]
                for name in ATTRIBUTES[device_type]
            },
        )


def typed(value):
    return (type(value), value)


def registry_view(app):
    """Everything the registry holds, by entity id and with the class
    of every value and index key."""
    registry = app.registry
    instances = list(registry)
    return {
        "by_id": [instance.entity_id for instance in instances],
        "ordinals": [instance._registration for instance in instances],
        "records": [
            [typed(value) for value in instance.attributes.values()]
            for instance in instances
        ],
        # Which instances hold one shared record object.
        "shared": [
            [other.attributes is instance.attributes for other in instances]
            for instance in instances
        ],
        "by_type": {
            name: [instance.entity_id for instance in members]
            for name, members in registry._by_type.items()
        },
        "by_attribute": {
            key: [
                (typed(value), [member.entity_id for member in members])
                for value, members in values.items()
            ]
            for key, values in registry._by_attribute.items()
        },
        "distinct": {
            (name, attribute): registry.distinct_values(name, attribute)
            for name, attributes in ATTRIBUTES.items()
            for attribute in attributes
        },
        "sweep": [
            instance.entity_id for instance in registry.sweep_column("Meter")
        ],
        "registrations": registry.stats()["registrations"],
    }


def delivered(app):
    """Two periods of both contexts, and the sweep's key columns."""
    app.start()
    app.advance(60)
    app.advance(60)
    column = app.registry.sweep_column("Meter")
    keys = app.sweeper.key_columns("Meter", column)
    table, order = keys.groups("zone")
    return (
        app.implementation("ByZone").deliveries,
        app.implementation("WeightSum").deliveries,
        [typed(key) for key in keys.keys("zone")],
        {key: list(rows) for key, rows in table.items()},
        list(order),
    )


class TestColumnEqualsDeviceByDevice:
    @settings(max_examples=60, deadline=None)
    @given(
        probes=st.lists(probe_rows, max_size=10),
        tagged=st.lists(tagged_rows, max_size=4),
        shared=st.sampled_from([1, 2, 4, SHARED_RECORDS]),
    )
    def test_the_registry_and_the_deliveries_agree(
        self, probes, tagged, shared
    ):
        columns = [("Probe", probes), ("Tagged", tagged)]
        with mock.patch.object(device_module, "SHARED_RECORDS", shared):
            by_device, by_column = column_app(), column_app()
            bind_by_device(by_device, columns)
            bind_by_column(by_column, columns)
        view = registry_view(by_device)
        assert registry_view(by_column) == view
        assert view["registrations"] == len(probes) + len(tagged)
        # One version bump per bind, one per (non-empty) column.
        assert by_column.registry.version == bool(probes) + bool(tagged)
        assert delivered(by_column) == delivered(by_device)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.sampled_from(["Probe", "Tagged"]), max_size=8))
    def test_a_mixed_stage_binds_as_its_instances_one_by_one(self, types):
        """A stage may mix declarations: it registers in stage order,
        one run of a declaration after the other."""
        rows = {
            "Probe": {"zone": "Z1", "level": 1, "lit": True, "weight": 2.5},
            "Tagged": {"zone": "Z0", "tags": ("a",)},
        }
        apps = column_app(), column_app()
        deployment = Deployment(apps[1])
        for index, device_type in enumerate(types):
            for app, bind in zip(apps, (apps[0].bind_device, deployment.stage)):
                bind(
                    DeviceInstance(
                        app.design.devices[device_type],
                        f"{device_type}-{index}",
                        reading_driver(index),
                        rows[device_type],
                    )
                )
        assert deployment.deploy() == len(types)
        assert registry_view(apps[1]) == registry_view(apps[0])

    @settings(max_examples=80, deadline=None)
    @given(
        probes=st.lists(probe_rows, min_size=1, max_size=6),
        tagged=st.lists(tagged_rows, min_size=1, max_size=3),
        bad=bad_values,
        data=st.data(),
    )
    def test_a_bad_value_raises_the_same_error_naming_the_same_entity(
        self, probes, tagged, bad, data
    ):
        """Each row is checked by the classes of its values, so a bad
        value equal to a good one seen before (``True`` after ``1``)
        still raises — on both paths, naming its own entity."""
        device_type, name, value = bad
        columns = {"Probe": probes, "Tagged": tagged}
        # Every good row is seen before the bad copy of one of them.
        rows = columns[device_type] = columns[device_type] * 2
        copied = data.draw(st.integers(0, len(rows) // 2 - 1))
        rows[len(rows) // 2 + copied] = {**rows[copied], name: value}
        raised = []
        for bind in (bind_by_device, bind_by_column):
            with pytest.raises((ValueConformanceError, BindingError)) as error:
                bind(column_app(), list(columns.items()))
            raised.append((error.type, str(error.value)))
        assert raised[0] == raised[1]
        bad_id = entity_ids(device_type, rows)[len(rows) // 2 + copied]
        assert f"'{bad_id}'" in raised[0][1]


# -- a failed column binds nothing ----------------------------------------


def bind_state(app, drivers):
    registry = app.registry
    return (
        list(registry._by_id),
        {name: list(members) for name, members in registry._by_type.items()},
        {
            key: {value: list(members) for value, members in values.items()}
            for key, values in registry._by_attribute.items()
        },
        registry.version,
        registry.stats()["registrations"],
        dict(app.supervision._supervisors),
        [driver.instance for driver in drivers],
    )


class TestAFailedColumnBindsNothing:
    ROW = {"zone": "Z0", "level": 1, "lit": True, "weight": 1.0}

    def column(self, app, entity_ids, drivers, device_type="Probe", **bad):
        """Bind ``ROW`` per entity, with the first row's ``bad`` values."""
        rows = [dict(self.ROW) for __ in entity_ids]
        rows[0].update(bad)
        return app.bind_column(
            device_type,
            entity_ids,
            drivers,
            **{name: [row[name] for row in rows] for name in self.ROW},
        )

    @pytest.fixture
    def app(self):
        app = Application(
            analyze(COLUMN_DESIGN),
            RuntimeConfig(supervision=SupervisionPolicy()),
        )
        self.column(app, ["p0"], [reading_driver(0)])
        return app

    @pytest.mark.parametrize(
        "entity_ids, device_type, bad, error",
        [
            (["p1", "p2", "p3"], "Probe", {"zone": "Z9"}, "Z9"),
            (["p1", "p2", "p1"], "Probe", {}, "'p1' is already registered"),
            (["p1", "p0", "p2"], "Probe", {}, "'p0' is already registered"),
            (["p1", "p2", "p3"], "Sonar", {}, "'Sonar' is not part"),
        ],
        ids=["bad-value", "duplicate-in-column", "already-bound", "type"],
    )
    def test_each_failure_leaves_everything_as_it_was(
        self, app, entity_ids, device_type, bad, error
    ):
        drivers = [reading_driver(1) for __ in entity_ids]
        before = bind_state(app, drivers)
        with pytest.raises((BindingError, ValueConformanceError), match=error):
            self.column(app, entity_ids, drivers, device_type, **bad)
        assert bind_state(app, drivers) == before
        assert all(driver.instance is None for driver in drivers)

    def test_a_bound_column_points_each_driver_at_its_instance(self, app):
        drivers = [reading_driver(1) for __ in range(3)]
        instances = self.column(app, ["p1", "p2", "p3"], drivers)
        assert [driver.instance for driver in drivers] == instances
        assert [instance._registration for instance in instances] == [2, 3, 4]
        assert all(instance.supervisor for instance in instances)
