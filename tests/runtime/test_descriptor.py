"""Deployment descriptors: declarative entity binding."""

import json

import pytest

from repro.errors import BindingError
from repro.runtime.app import Application
from repro.runtime.binding import BindingTime
from repro.runtime.component import Context
from repro.runtime.descriptor import (
    DriverCatalog,
    apply_descriptor,
    load_descriptor,
)
from repro.runtime.device import CallableDriver
from repro.sema.analyzer import analyze

DESIGN = """\
device Sensor {
    attribute zone as ZoneEnum;
    source reading as Float;
}
enumeration ZoneEnum { NORTH, SOUTH }
context Sweep as Integer {
    when periodic reading from Sensor <1 min>
    always publish;
}
"""

DESCRIPTOR = {
    "name": "pilot",
    "entities": [
        {"type": "Sensor", "id": "s1",
         "attributes": {"zone": "NORTH"},
         "driver": "constant", "config": {"value": 1.0}},
        {"type": "Sensor", "id": "s2",
         "attributes": {"zone": "SOUTH"},
         "driver": "constant", "config": {"value": 2.0},
         "binding": "runtime"},
    ],
}


# The same design with one context placed at the edge, which is what
# gives an application a placement tier to pin entities in.
EDGE_DESIGN = DESIGN + """\
context ZoneSum as Integer at edge {
    when periodic reading from Sensor <1 min>
    grouped by zone
    with map as Float reduce as Float
    always publish;
}
"""


class SweepImpl(Context):
    def on_periodic_reading(self, readings, discover):
        return len(readings)


class ZoneSumImpl(Context):
    def map(self, zone, reading, collector):
        collector.emit_map(zone, reading)

    def reduce(self, zone, values, collector):
        collector.emit_reduce(zone, sum(values))

    def on_periodic_reading(self, by_zone, discover):
        return len(by_zone)


@pytest.fixture
def catalog():
    catalog = DriverCatalog()
    catalog.register(
        "constant",
        lambda value: CallableDriver(sources={"reading": lambda: value}),
    )
    return catalog


@pytest.fixture
def app():
    application = Application(analyze(DESIGN))
    application.implement("Sweep", SweepImpl())
    return application


class TestLoadDescriptor:
    def test_from_dict(self):
        descriptor = load_descriptor(DESCRIPTOR)
        assert descriptor.name == "pilot"
        assert descriptor.entity_count == 2

    def test_from_json_text(self):
        descriptor = load_descriptor(json.dumps(DESCRIPTOR))
        assert descriptor.entities[0].entity_id == "s1"

    def test_binding_times_parsed(self):
        descriptor = load_descriptor(DESCRIPTOR)
        assert descriptor.entities[0].binding is BindingTime.DEPLOYMENT
        assert descriptor.entities[1].binding is BindingTime.RUNTIME
        assert len(descriptor.by_binding(BindingTime.RUNTIME)) == 1

    def test_invalid_json(self):
        with pytest.raises(BindingError, match="JSON"):
            load_descriptor("{not json")

    def test_missing_entities(self):
        with pytest.raises(BindingError, match="entities"):
            load_descriptor({"name": "x"})

    def test_missing_required_field(self):
        with pytest.raises(BindingError, match="missing 'driver'"):
            load_descriptor({"entities": [{"type": "Sensor", "id": "x"}]})

    def test_duplicate_ids(self):
        with pytest.raises(BindingError, match="duplicate"):
            load_descriptor({
                "entities": [
                    {"type": "Sensor", "id": "x", "driver": "d"},
                    {"type": "Sensor", "id": "x", "driver": "d"},
                ]
            })

    def test_unknown_binding_time(self):
        with pytest.raises(BindingError, match="binding time"):
            load_descriptor({
                "entities": [
                    {"type": "Sensor", "id": "x", "driver": "d",
                     "binding": "someday"},
                ]
            })


class TestDriverCatalog:
    def test_register_and_create(self, catalog):
        driver = catalog.create("constant", value=5.0)
        assert driver.read("reading") == 5.0

    def test_duplicate_registration(self, catalog):
        with pytest.raises(BindingError):
            catalog.register("constant", lambda: None)

    def test_unknown_driver(self, catalog):
        with pytest.raises(BindingError, match="catalog"):
            catalog.create("ghost")

    def test_names(self, catalog):
        assert catalog.names() == ["constant"]
        assert "constant" in catalog


class TestApplyDescriptor:
    def test_staged_then_bound(self, app, catalog):
        deployment = apply_descriptor(
            app, load_descriptor(DESCRIPTOR), catalog
        )
        deployment.deploy()
        deployment.launch()
        assert app.registry.entity_ids() == ["s1"]
        deployment.bind_runtime()
        assert app.registry.entity_ids() == ["s1", "s2"]

    def test_bound_entities_serve_readings(self, app, catalog):
        deployment = apply_descriptor(
            app, load_descriptor(DESCRIPTOR), catalog
        )
        deployment.deploy()
        deployment.launch()
        deployment.bind_runtime()
        assert app.registry.get("s2").read("reading") == 2.0

    def test_unknown_device_type_fails_atomically(self, app, catalog):
        bad = {
            "entities": [
                {"type": "Toaster", "id": "t1", "driver": "constant"},
            ]
        }
        with pytest.raises(BindingError, match="Toaster"):
            apply_descriptor(app, load_descriptor(bad), catalog)
        assert len(app.registry) == 0

    def test_unknown_driver_fails_atomically(self, app, catalog):
        bad = {
            "entities": [
                {"type": "Sensor", "id": "s9",
                 "attributes": {"zone": "NORTH"}, "driver": "ghost"},
            ]
        }
        with pytest.raises(BindingError, match="ghost"):
            apply_descriptor(app, load_descriptor(bad), catalog)

    def test_an_already_bound_id_fails_atomically(self, app, catalog):
        app.create_device(
            "Sensor", "taken", CallableDriver(), zone="NORTH"
        )
        bad = {
            "entities": [
                {"type": "Sensor", "id": "c1",
                 "attributes": {"zone": "NORTH"},
                 "driver": "constant", "config": {"value": 1.0},
                 "binding": "configuration"},
                {"type": "Sensor", "id": "taken",
                 "attributes": {"zone": "SOUTH"},
                 "driver": "constant", "config": {"value": 2.0},
                 "binding": "configuration"},
            ]
        }
        with pytest.raises(BindingError, match="'taken' is already"):
            apply_descriptor(app, load_descriptor(bad), catalog)
        assert app.registry.entity_ids() == ["taken"]

    def test_attribute_validation_applies(self, app, catalog):
        bad = {
            "entities": [
                {"type": "Sensor", "id": "s9",
                 "attributes": {"zone": "WEST"},
                 "driver": "constant", "config": {"value": 0.0}},
            ]
        }
        with pytest.raises(Exception, match="ZoneEnum|WEST"):
            apply_descriptor(app, load_descriptor(bad), catalog)


TOPOLOGY_DESCRIPTOR = {
    "name": "fog-pilot",
    "topology": {
        "seed": 7,
        "edge_attribute": "zone",
        "hops": {
            "access": {"latency": 0.002},
            "wan": {"latency": 0.08, "bandwidth": 1000000.0},
        },
        "edge_nodes": [
            {"id": "cab-north", "values": ["NORTH"]},
            {"id": "cab-south", "values": ["SOUTH"]},
        ],
    },
    "entities": [
        {"type": "Sensor", "id": "s1",
         "attributes": {"zone": "NORTH"},
         "driver": "constant", "config": {"value": 1.0},
         "placement": {"tier": "edge", "node": "cab-north"}},
        {"type": "Sensor", "id": "s2",
         "attributes": {"zone": "SOUTH"},
         "driver": "constant", "config": {"value": 2.0}},
    ],
}


class TestTopologySection:
    def test_topology_parses(self):
        descriptor = load_descriptor(TOPOLOGY_DESCRIPTOR)
        topology = descriptor.topology
        assert [name for name, __ in topology.hops] == ["access", "wan"]
        assert topology.hops[1][1].bandwidth == 1000000.0
        assert [n.node_id for n in topology.edge_nodes] == [
            "cab-north", "cab-south",
        ]
        assert topology.seed == 7

    def test_round_trips_through_json(self):
        once = load_descriptor(TOPOLOGY_DESCRIPTOR)
        again = load_descriptor(json.dumps(TOPOLOGY_DESCRIPTOR))
        assert again == once

    def test_builds_runtime_configs(self):
        descriptor = load_descriptor(TOPOLOGY_DESCRIPTOR)
        network = descriptor.network_config()
        assert network.seed == 7
        assert network.hop_names() == ("access", "wan")
        placement = descriptor.placement_config()
        assert placement.edge_attribute == "zone"
        assert len(placement.edge_nodes) == 2

    def test_no_topology_builds_nothing(self):
        descriptor = load_descriptor(DESCRIPTOR)
        assert descriptor.topology is None
        assert descriptor.network_config() is None
        assert descriptor.placement_config() is None

    def test_placement_records_parsed(self):
        descriptor = load_descriptor(TOPOLOGY_DESCRIPTOR)
        placed, unplaced = descriptor.entities
        assert placed.placement.node == "cab-north"
        assert placed.placement.tier.value == "edge"
        assert unplaced.placement is None

    def test_unknown_tier_rejected(self):
        from repro.errors import PlacementError

        bad = {"entities": [
            {"type": "Sensor", "id": "x", "driver": "d",
             "placement": {"tier": "orbit"}},
        ]}
        with pytest.raises(PlacementError, match="orbit"):
            load_descriptor(bad)

    def test_undeclared_node_rejected(self):
        from repro.errors import PlacementError

        bad = dict(TOPOLOGY_DESCRIPTOR)
        bad["entities"] = [
            {"type": "Sensor", "id": "x", "driver": "d",
             "placement": {"tier": "edge", "node": "cab-ghost"}},
        ]
        with pytest.raises(PlacementError, match="cab-ghost") as excinfo:
            load_descriptor(bad)
        assert excinfo.value.node == "cab-ghost"

    def test_malformed_hop_profile_rejected(self):
        with pytest.raises(BindingError, match="wan"):
            load_descriptor({
                "topology": {"hops": {"wan": {"speed": 3}}},
                "entities": [],
            })

    def test_apply_assigns_edge_nodes(self, catalog):
        from repro.runtime.config import RuntimeConfig

        descriptor = load_descriptor(TOPOLOGY_DESCRIPTOR)
        config = RuntimeConfig(
            network=descriptor.network_config(),
            placement=descriptor.placement_config(),
        )
        application = Application(analyze(EDGE_DESIGN), config)
        application.implement("Sweep", SweepImpl())
        application.implement("ZoneSum", ZoneSumImpl())
        deployment = apply_descriptor(application, descriptor, catalog)
        deployment.deploy()
        deployment.launch()
        # The explicit assignment from the descriptor wins over
        # attribute ownership.
        instance = application.registry.get("s1")
        assert (
            application.placement.node_for(instance, "zone") == "cab-north"
        )
        # A design with no ``at edge`` context has no tier: the pins
        # are skipped and the entities still bind.
        cloud = Application(analyze(DESIGN), config)
        cloud.implement("Sweep", SweepImpl())
        apply_descriptor(cloud, descriptor, catalog).deploy()
        assert cloud.placement is None
        assert "s1" in cloud.registry


class TestShardSection:
    """``topology.shard`` → an enabled ShardConfig."""

    def test_shard_section_parses(self):
        descriptor = load_descriptor(
            {
                "topology": {
                    "shard": {"workers": 3, "start_method": "spawn"}
                },
                "entities": [],
            }
        )
        shard = descriptor.shard_config()
        assert shard.enabled is True
        assert shard.workers == 3
        assert shard.start_method == "spawn"

    def test_shard_section_defaults_enabled(self):
        descriptor = load_descriptor(
            {"topology": {"shard": {}}, "entities": []}
        )
        assert descriptor.shard_config().enabled is True

    def test_no_shard_section_builds_nothing(self):
        assert load_descriptor({"entities": []}).shard_config() is None
        assert (
            load_descriptor(
                {"topology": {}, "entities": []}
            ).shard_config()
            is None
        )

    def test_overrides_win(self):
        descriptor = load_descriptor(
            {"topology": {"shard": {"workers": 2}}, "entities": []}
        )
        assert descriptor.shard_config(workers=8).workers == 8

    def test_unknown_shard_field_rejected(self):
        with pytest.raises(BindingError, match="pipes"):
            load_descriptor(
                {"topology": {"shard": {"pipes": 2}}, "entities": []}
            )

    def test_invalid_shard_value_fails_at_load(self):
        with pytest.raises(BindingError, match="workers must be"):
            load_descriptor(
                {"topology": {"shard": {"workers": 0}}, "entities": []}
            )
        # The wire format is no longer a choice: a descriptor that still
        # names one is rejected like any other unknown field.
        with pytest.raises(
            BindingError, match=r"unknown fields \['wire_format'\]"
        ):
            load_descriptor(
                {
                    "topology": {"shard": {"wire_format": "columnar"}},
                    "entities": [],
                }
            )
