"""Entity registry: registration, type/attribute queries, listeners."""

import pytest

from repro.errors import BindingError
from repro.runtime.device import CallableDriver, DeviceInstance
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
"""


@pytest.fixture
def design():
    return analyze(DESIGN)


@pytest.fixture
def registry():
    return EntityRegistry()


def panel(design, entity_id, lot):
    return DeviceInstance(
        design.devices["ParkingEntrancePanel"],
        entity_id,
        CallableDriver(actions={"update": lambda status: None}),
        {"location": lot},
    )


def sensor(design, entity_id, lot, value=False):
    return DeviceInstance(
        design.devices["PresenceSensor"],
        entity_id,
        CallableDriver(sources={"presence": lambda: value}),
        {"parkingLot": lot},
    )


class TestRegistration:
    def test_register_and_get(self, design, registry):
        instance = registry.register(sensor(design, "s1", "A22"))
        assert registry.get("s1") is instance
        assert len(registry) == 1

    def test_duplicate_id_rejected(self, design, registry):
        registry.register(sensor(design, "s1", "A22"))
        with pytest.raises(BindingError, match="already"):
            registry.register(sensor(design, "s1", "B16"))

    def test_unregister(self, design, registry):
        registry.register(sensor(design, "s1", "A22"))
        registry.unregister("s1")
        assert len(registry) == 0
        assert registry.instances_of("PresenceSensor") == []

    def test_unregister_unknown(self, registry):
        with pytest.raises(BindingError):
            registry.unregister("ghost")

    def test_get_unknown(self, registry):
        with pytest.raises(BindingError):
            registry.get("ghost")

    def test_entity_ids_sorted(self, design, registry):
        registry.register(sensor(design, "s2", "A22"))
        registry.register(sensor(design, "s1", "A22"))
        assert registry.entity_ids() == ["s1", "s2"]

    def test_clear(self, design, registry):
        registry.register(sensor(design, "s1", "A22"))
        registry.register(sensor(design, "s2", "B16"))
        registry.clear()
        assert len(registry) == 0


class TestTypeQueries:
    def test_instances_of_exact_type(self, design, registry):
        registry.register(sensor(design, "s1", "A22"))
        assert len(registry.instances_of("PresenceSensor")) == 1

    def test_subtype_matches_supertype_query(self, design, registry):
        registry.register(panel(design, "p1", "A22"))
        assert len(registry.instances_of("DisplayPanel")) == 1
        assert len(registry.instances_of("ParkingEntrancePanel")) == 1

    def test_supertype_does_not_match_subtype_query(self, design, registry):
        base = DeviceInstance(
            design.devices["DisplayPanel"],
            "p0",
            CallableDriver(actions={"update": lambda status: None}),
        )
        registry.register(base)
        assert registry.instances_of("ParkingEntrancePanel") == []

    def test_attribute_filter(self, design, registry):
        registry.register(panel(design, "p1", "A22"))
        registry.register(panel(design, "p2", "B16"))
        matches = registry.instances_of(
            "ParkingEntrancePanel", location="B16"
        )
        assert [m.entity_id for m in matches] == ["p2"]

    def test_failed_devices_hidden_by_default(self, design, registry):
        instance = registry.register(sensor(design, "s1", "A22"))
        instance.fail()
        assert registry.instances_of("PresenceSensor") == []
        assert (
            len(registry.instances_of("PresenceSensor", include_failed=True))
            == 1
        )

    def test_unregister_removes_from_supertype_index(self, design, registry):
        registry.register(panel(design, "p1", "A22"))
        registry.unregister("p1")
        assert registry.instances_of("DisplayPanel") == []


class TestUnhashableAttributes:
    """`_index_key` skips unhashable values; discovery must still work
    through the linear type-bucket fallback (regression)."""

    DESIGN = """\
device Tagged {
    attribute tags as String[];
    source x as Float;
}
"""

    @pytest.fixture
    def tagged_design(self):
        return analyze(self.DESIGN)

    def tagged(self, design, entity_id, tags):
        return DeviceInstance(
            design.devices["Tagged"],
            entity_id,
            CallableDriver(sources={"x": lambda: 1.0}),
            {"tags": tags},
        )

    def test_registration_skips_unhashable_index(self, tagged_design):
        registry = EntityRegistry()
        registry.register(self.tagged(tagged_design, "t1", ["a", "b"]))
        assert len(registry) == 1

    def test_discoverable_without_filters(self, tagged_design):
        registry = EntityRegistry()
        registry.register(self.tagged(tagged_design, "t1", ["a", "b"]))
        assert [
            i.entity_id for i in registry.instances_of("Tagged")
        ] == ["t1"]

    def test_unhashable_filter_uses_linear_fallback(self, tagged_design):
        registry = EntityRegistry()
        registry.register(self.tagged(tagged_design, "t1", ["a", "b"]))
        registry.register(self.tagged(tagged_design, "t2", ["c"]))
        matches = registry.instances_of("Tagged", tags=["a", "b"])
        assert [i.entity_id for i in matches] == ["t1"]
        assert registry.instances_of("Tagged", tags=["zzz"]) == []

    def test_unregister_with_unhashable_attributes(self, tagged_design):
        registry = EntityRegistry()
        registry.register(self.tagged(tagged_design, "t1", ["a"]))
        registry.unregister("t1")
        assert registry.instances_of("Tagged") == []


class TestListeners:
    def test_register_event(self, design, registry):
        events = []
        registry.add_listener(lambda kind, inst: events.append((kind,
                                                                inst.entity_id)))
        registry.register(sensor(design, "s1", "A22"))
        registry.unregister("s1")
        assert events == [("register", "s1"), ("unregister", "s1")]

    def test_listener_removal(self, design, registry):
        events = []
        remove = registry.add_listener(lambda *a: events.append(a))
        remove()
        registry.register(sensor(design, "s1", "A22"))
        assert events == []
        remove()  # second removal is a no-op
