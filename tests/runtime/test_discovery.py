"""The discover façade: device accessors and context queries."""

import functools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import DiscoveryError
from repro.faults.policy import HEALTHY, QUARANTINED
from repro.runtime.device import CallableDriver, DeviceInstance
from repro.runtime.discovery import Discover
from repro.runtime.registry import EntityRegistry
from repro.sema.analyzer import analyze

DESIGN = """\
device DisplayPanel { action update(status as String); }
device ParkingEntrancePanel extends DisplayPanel {
    attribute location as LotEnum;
}
device PresenceSensor {
    attribute parkingLot as LotEnum;
    source presence as Boolean;
}
enumeration LotEnum { A22, B16 }
context Usage as Float { when required; }
"""


@pytest.fixture
def design():
    return analyze(DESIGN)


@pytest.fixture
def registry():
    return EntityRegistry()


@pytest.fixture
def discover(design, registry):
    return Discover(design, registry, context_query=lambda name: 0.5)


def bind_panel(design, registry, entity_id, lot):
    registry.register(
        DeviceInstance(
            design.devices["ParkingEntrancePanel"],
            entity_id,
            CallableDriver(actions={"update": lambda status: None}),
            {"location": lot},
        )
    )


class TestDeviceDiscovery:
    def test_devices_by_name(self, design, registry, discover):
        bind_panel(design, registry, "p1", "A22")
        assert len(discover.devices("ParkingEntrancePanel")) == 1

    def test_snake_case_accessor(self, design, registry, discover):
        bind_panel(design, registry, "p1", "A22")
        panels = discover.parking_entrance_panels()
        assert panels.entity_ids() == ["p1"]

    def test_accessor_with_attribute_filter(self, design, registry, discover):
        bind_panel(design, registry, "p1", "A22")
        bind_panel(design, registry, "p2", "B16")
        assert discover.devices(
            "ParkingEntrancePanel", location="B16"
        ).entity_ids() == ["p2"]

    def test_both_filter_spellings_at_both_entry_points(self, design,
                                                        registry, discover):
        """``parkingLot`` as declared and ``parking_lot`` in snake case
        select the same entities through ``devices(**filters)`` and
        through ``where(**filters)`` — each used to accept only one."""
        for entity_id, lot in (("s1", "A22"), ("s2", "B16"), ("s3", "A22")):
            registry.register(
                DeviceInstance(
                    design.devices["PresenceSensor"],
                    entity_id,
                    CallableDriver(sources={"presence": lambda: True}),
                    {"parkingLot": lot},
                )
            )
        for spelling in ("parkingLot", "parking_lot"):
            narrowed = discover.devices("PresenceSensor", **{spelling: "A22"})
            assert narrowed.entity_ids() == ["s1", "s3"]
            everything = discover.presence_sensors()
            assert everything.where(**{spelling: "A22"}).entity_ids() == [
                "s1", "s3"
            ]
        assert discover.presence_sensors().where_parking_lot(
            "B16"
        ).entity_ids() == ["s2"]

    def test_unknown_filter_name_raises(self, design, registry, discover):
        bind_panel(design, registry, "p1", "A22")
        with pytest.raises(DiscoveryError) as error:
            discover.devices("PresenceSensor", lot="A22")
        assert "PresenceSensor" in str(error.value)
        assert "parkingLot" in str(error.value)
        # No entity bound: the declaration is still at hand.
        with pytest.raises(DiscoveryError, match="'lot'"):
            discover.presence_sensors().where(lot="A22")

    def test_subtype_attributes_filter_a_supertype_lookup(self, design,
                                                          registry, discover):
        bind_panel(design, registry, "p1", "A22")
        bind_panel(design, registry, "p2", "B16")
        assert discover.devices(
            "DisplayPanel", location="B16"
        ).entity_ids() == ["p2"]
        assert discover.display_panels().where(
            location="A22"
        ).entity_ids() == ["p1"]

    def test_supertype_accessor_sees_subtypes(self, design, registry,
                                              discover):
        bind_panel(design, registry, "p1", "A22")
        assert len(discover.display_panels()) == 1

    def test_unknown_device_type(self, discover):
        with pytest.raises(DiscoveryError):
            discover.devices("Toaster")

    def test_unknown_accessor(self, discover):
        with pytest.raises(AttributeError):
            discover.toasters()

    def test_device_by_entity_id(self, design, registry, discover):
        bind_panel(design, registry, "p1", "A22")
        assert discover.device("p1").entity_id == "p1"

    def test_runtime_binding_is_visible_immediately(self, design, registry,
                                                    discover):
        assert len(discover.parking_entrance_panels()) == 0
        bind_panel(design, registry, "p1", "A22")
        assert len(discover.parking_entrance_panels()) == 1


LAZY_DESIGN = analyze("""\
device Panel {
    attribute panelZone as ZoneEnum;
    action update(status as String);
}
device EntrancePanel extends Panel { attribute accessTags as String[]; }
enumeration ZoneEnum { north, south }
""")
SNAKE = {"panelZone": "panel_zone", "accessTags": "access_tags"}
# ``accessTags`` values are lists: the registry cannot index them and
# serves such a filter by scanning.
_value = st.sampled_from(["north", "south", ["a"], ["b"]])
# One filter call: declared name -> (value, spelt in snake case?).
_filters = st.dictionaries(
    st.sampled_from(sorted(SNAKE)), st.tuples(_value, st.booleans())
)
_entity = st.tuples(
    st.sampled_from(["Panel", "EntrancePanel"]),
    st.sampled_from(["north", "south"]),
    st.sampled_from([["a"], ["b"]]),
    st.sampled_from(["ok", "failed", "quarantined"]),
)


class TestLazyDiscovery:
    """A discovered set is a registry query until it is first used."""

    @given(
        entities=st.lists(_entity, max_size=8),
        device_type=st.sampled_from(["Panel", "EntrancePanel"]),
        calls=st.tuples(_filters, _filters, _filters),
        unknown_at=st.sampled_from([None, 0, 1, 2]),
        late=_entity,
    )
    def test_lazy_chain_is_the_eager_lookup_filtered_by_hand(
        self, entities, device_type, calls, unknown_at, late
    ):
        registry = EntityRegistry()
        quarantined = set()
        registry.attach_health(
            lambda entity_id: QUARANTINED
            if entity_id in quarantined
            else HEALTHY
        )

        def bind(entity_id, kind, zone, tags, state):
            attributes = {"panelZone": zone}
            if kind == "EntrancePanel":
                attributes["accessTags"] = tags
            instance = registry.register(
                DeviceInstance(
                    LAZY_DESIGN.devices[kind],
                    entity_id,
                    CallableDriver(),
                    attributes,
                )
            )
            instance.failed = state == "failed"
            if state == "quarantined":
                quarantined.add(entity_id)

        def by_hand():
            return [
                instance.entity_id
                for instance in registry.instances_of(device_type)
                if all(
                    instance.attributes.get(name) == value
                    for filters in calls
                    for name, (value, _) in filters.items()
                )
            ]

        for number, entity in enumerate(entities):
            bind(f"e{number}", *entity)
        discover = Discover(LAZY_DESIGN, registry)
        found = None
        for number, filters in enumerate(calls):
            spelt = {
                SNAKE[name] if snake else name: value
                for name, (value, snake) in filters.items()
            }
            narrow = (
                found.where
                if number
                else functools.partial(discover.devices, device_type)
            )
            if number == unknown_at:
                # An unknown name raises at the call that introduces it.
                with pytest.raises(DiscoveryError, match="bogus"):
                    narrow(bogus="north", **spelt)
                return
            found = narrow(**spelt)

        # A binding change before the set is first used is seen ...
        bind("late", *late)
        if entities:
            registry.unregister("e0")
        expected = by_hand()
        assert found.entity_ids() == expected
        # ... one after is not: the set froze when it was looked at.
        bind("later", *late)
        registry.unregister("late")
        assert found.entity_ids() == expected
        assert found.where(**spelt).entity_ids() == expected


class TestContextQueries:
    def test_queryable_context(self, discover):
        assert discover.context_value("Usage") == 0.5

    def test_unknown_context(self, discover):
        with pytest.raises(DiscoveryError):
            discover.context_value("Ghost")

    def test_unqueryable_context_rejected(self, design, registry):
        design2 = analyze(
            "device S { source s as Float; }\n"
            "context C as Float { when provided s from S always publish; }"
        )
        discover = Discover(design2, registry, context_query=lambda n: 1.0)
        with pytest.raises(DiscoveryError, match="when required"):
            discover.context_value("C")

    def test_disconnected_discover_rejects_queries(self, design, registry):
        discover = Discover(design, registry)
        with pytest.raises(DiscoveryError, match="not connected"):
            discover.context_value("Usage")
