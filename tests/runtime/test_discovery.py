"""The discover façade: device accessors and context queries."""

import functools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import DiscoveryError
from repro.faults.policy import HEALTHY, QUARANTINED
from repro.runtime.device import CallableDriver, DeviceInstance
from repro.runtime.discovery import Discover
from repro.runtime.proxies import ProxySet, make_proxy
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
        distinct=st.tuples(st.sampled_from(sorted(SNAKE)), st.booleans()),
    )
    def test_lazy_chain_is_the_eager_lookup_filtered_by_hand(
        self, entities, device_type, calls, unknown_at, late, distinct
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

        def members_by_hand():
            return [
                instance
                for instance in registry.instances_of(device_type)
                if all(
                    instance.attributes.get(name) == value
                    for filters in calls
                    for name, (value, _) in filters.items()
                )
            ]

        def by_hand():
            return [instance.entity_id for instance in members_by_hand()]

        attribute, snake = distinct
        spelling = SNAKE[attribute] if snake else attribute

        def distinct_by_hand():
            """Ordered-unique ``[proxy.<attribute> for proxy in set]``
            (members of a supertype set may not declare it)."""
            values = []
            for instance in members_by_hand():
                value = instance.attributes.get(attribute)
                if value is not None and value not in values:
                    values.append(value)
            return values

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
        values = distinct_by_hand()
        with pytest.raises(DiscoveryError, match="bogus"):
            found.distinct("bogus")
        # Index-answered or read off the members, it is the eager
        # answer, before the set is first used and after.
        assert found.distinct(spelling) == values
        by_hand_set = ProxySet(
            device_type, map(make_proxy, members_by_hand())
        )
        if values or not expected:
            assert by_hand_set.distinct(spelling) == values
        else:
            # A hand-built set knows the attributes its members declare.
            with pytest.raises(DiscoveryError, match=spelling):
                by_hand_set.distinct(spelling)
        assert found.entity_ids() == expected
        assert found.distinct(spelling) == values
        # ... one after is not: the set froze when it was looked at.
        bind("later", *late)
        registry.unregister("late")
        assert found.entity_ids() == expected
        assert found.where(**spelt).entity_ids() == expected
        assert found.distinct(spelling) == values
        # A new query sees the new bindings.
        fresh = discover.devices(device_type)
        for filters in calls:
            fresh = fresh.where(
                **{name: value for name, (value, __) in filters.items()}
            )
        assert fresh.distinct(attribute) == distinct_by_hand()


class TestDistinct:
    """``discover.devices(T).distinct(a)``: which values are deployed,
    from the registry's attribute index."""

    def bind(self, registry, entity_id, zone, kind="Panel", tags=None):
        attributes = {"panelZone": zone}
        if kind == "EntrancePanel":
            attributes["accessTags"] = tags
        return registry.register(
            DeviceInstance(
                LAZY_DESIGN.devices[kind],
                entity_id,
                CallableDriver(),
                attributes,
            )
        )

    def test_the_index_answers_without_a_walk_or_a_proxy(self, monkeypatch):
        registry = EntityRegistry()
        panels = [
            self.bind(registry, f"p{number}", zone)
            for number, zone in enumerate(["south", "north", "south"])
        ]
        monkeypatch.setattr(
            registry,
            "instances_of",
            lambda *args, **filters: pytest.fail("walked the members"),
        )
        found = Discover(LAZY_DESIGN, registry).devices("Panel")
        assert found.distinct("panel_zone") == ["south", "north"]
        assert found._frozen is None
        assert not any(panel._cached_proxy for panel in panels)

    def test_values_come_in_the_order_of_their_first_visible_member(self):
        registry = EntityRegistry()
        quarantined = set()
        registry.attach_health(
            lambda entity_id: QUARANTINED
            if entity_id in quarantined
            else HEALTHY
        )
        first = self.bind(registry, "p0", "south")
        self.bind(registry, "p1", "north")
        self.bind(registry, "p2", "south")
        discover = Discover(LAZY_DESIGN, registry)

        def zones():
            found = discover.devices("Panel")
            values = found.distinct("panelZone")
            # ... which is what looking at every member says.
            assert values == list(
                dict.fromkeys(proxy.panel_zone for proxy in found)
            )
            return values

        assert zones() == ["south", "north"]
        first.fail()  # south is now first seen at p2, after north
        assert zones() == ["north", "south"]
        quarantined.add("p2")  # every south panel is dark: not deployed
        assert zones() == ["north"]
        first.recover()
        registry.unregister("p0")
        quarantined.clear()
        assert zones() == ["north", "south"]
        registry.unregister("p2")
        assert zones() == ["north"]
        self.bind(registry, "p3", "south")
        assert zones() == ["north", "south"]

    def test_what_the_index_does_not_hold_falls_back_to_the_members(self):
        registry = EntityRegistry()
        self.bind(registry, "p0", "south")
        self.bind(registry, "e0", "north", "EntrancePanel", ["a"])
        self.bind(registry, "e1", "north", "EntrancePanel", ["b"])
        self.bind(registry, "e2", "south", "EntrancePanel", ["a"])
        discover = Discover(LAZY_DESIGN, registry)
        # Unhashable values are not indexed ...
        entrances = discover.devices("EntrancePanel")
        assert entrances.distinct("accessTags") == [["a"], ["b"]]
        # ... a plain Panel declares no accessTags and carries none ...
        assert discover.devices("Panel").distinct("access_tags") == [
            ["a"],
            ["b"],
        ]
        # ... and a filtered query is served by its (smaller) members.
        north = discover.devices("Panel", panelZone="north")
        assert north.distinct("accessTags") == [["a"], ["b"]]
        assert north.distinct("panelZone") == ["north"]
        assert entrances.distinct("panelZone") == ["north", "south"]


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
