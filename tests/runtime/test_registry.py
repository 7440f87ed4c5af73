"""Entity registry: registration, type/attribute queries, listeners."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import BindingError
from repro.runtime.device import CallableDriver, DeviceInstance
from repro.runtime.registry import EntityRegistry, splice_column
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

    def test_a_flag_assigned_between_sweeps_leaves_the_sweep_column(
        self, design, registry
    ):
        """``failed = True`` moves no registry version, yet the next
        sweep column leaves the member out, and ``failed = False``
        brings it back — also after the column of that version was
        memoized."""
        first = registry.register(sensor(design, "s1", "A22"))
        second = registry.register(sensor(design, "s2", "B16"))
        column = registry.sweep_column("PresenceSensor")
        assert column == [first, second]
        assert registry.sweep_column("PresenceSensor") is column
        version = registry.version
        second.failed = True
        assert registry.version == version
        assert registry.sweep_column("PresenceSensor") == [first]
        second.failed = False
        assert registry.sweep_column("PresenceSensor") == [first, second]

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


class TestChurnMatchesAListReference:
    """Register, unregister, and register again under a freed id — the
    same instance or a new one — over subtypes and unhashable
    attributes, with members failing and recovering: the type lists,
    the attribute buckets, ``instances_of`` and the sweep column stay
    what one registration-ordered list of the live instances says they
    are.  And ``sweep_edit`` applied to the previous sweep column gives
    the new one — also when an instance left and came back between the
    two copies (``bounce``: its ordinal moved, so the edit must bisect
    by the one it departed with)."""

    DESIGN = """\
device Node { source x as Float; }
device Meter extends Node {
    attribute lot as String;
    attribute floor as Integer;
}
device Tagged extends Node {
    attribute tags as String[];
    attribute lot as String;
}
device Level extends Node { attribute floor as Integer; }
"""
    TYPES = ("Node", "Meter", "Tagged", "Level")

    steps = st.one_of(
        st.tuples(
            st.just("meter"),
            st.sampled_from(["A", "B"]),
            st.sampled_from([0, 1]),
        ),
        st.tuples(st.just("tagged"), st.sampled_from(["A", "C"])),
        st.tuples(st.just("unbind"), st.integers(0, 30)),
        st.tuples(st.just("again"), st.integers(0, 30)),
        st.tuples(st.just("replace"), st.integers(0, 30)),
        st.tuples(st.just("fail"), st.integers(0, 30)),
        st.tuples(st.just("recover"), st.integers(0, 30)),
        st.tuples(st.just("bounce"), st.integers(0, 30), st.integers(0, 30)),
    )

    @staticmethod
    def buckets(live):
        expected = {}
        for instance in live:
            for type_name in (instance.info.name, *instance.info.ancestors):
                for attribute, value in instance.attributes.items():
                    values = expected.setdefault((type_name, attribute), {})
                    try:
                        values.setdefault(value, []).append(instance)
                    except TypeError:
                        pass  # unhashable: not indexed
        return {key: values for key, values in expected.items() if values}

    @settings(max_examples=150, deadline=None)
    @given(st.lists(steps, max_size=16))
    # The second bounced member sits past the first, re-registered one:
    # bisected by current ordinals, it would not be found.
    @example(
        [
            ("meter", "A", 0),
            ("meter", "A", 0),
            ("meter", "A", 0),
            ("bounce", 1, 1),
        ]
    )
    def test_lists_match_the_reference(self, script):
        design = analyze(self.DESIGN)
        registry = EntityRegistry()
        live, gone = [], []

        def make(type_name, entity_id, attributes):
            return DeviceInstance(
                design.devices[type_name],
                entity_id,
                CallableDriver(sources={"x": lambda: 1.0}),
                attributes,
            )

        columns = {}  # device type -> (its last sweep column, memoized)
        for index, step in enumerate(script):
            kind = step[0]
            departed = []
            if kind == "meter":
                instance = make(
                    "Meter", f"n-{index}", {"lot": step[1], "floor": step[2]}
                )
            elif kind == "tagged":
                instance = make(
                    "Tagged", f"n-{index}", {"tags": ["t"], "lot": step[1]}
                )
            elif kind == "unbind" and live:
                instance = live.pop(step[1] % len(live))
                assert registry.unregister(instance.entity_id) is instance
                gone.append(instance)
                departed.append(instance)
                instance = None
            elif kind == "bounce" and live:
                # Out, another one out, and the first back in.
                instance = live.pop(step[1] % len(live))
                registry.unregister(instance.entity_id)
                departed.append(instance)
                if live:
                    other = live.pop(step[2] % len(live))
                    registry.unregister(other.entity_id)
                    gone.append(other)
                    departed.append(other)
            elif kind == "again" and gone:
                instance = gone.pop(step[1] % len(gone))
            elif kind == "replace" and gone:
                old = gone.pop(step[1] % len(gone))
                instance = make(
                    old.info.name, old.entity_id, dict(old.attributes)
                )
            elif kind == "fail" and live:
                live[step[1] % len(live)].fail()
                instance = None
            elif kind == "recover" and live:
                live[step[1] % len(live)].recover()
                instance = None
            else:
                instance = None
            if instance is not None:
                registry.register(instance)
                live.append(instance)
            for device_type in self.TYPES:
                members = [
                    instance
                    for instance in live
                    if instance.info.is_subtype_of(device_type)
                ]
                assert registry._by_type.get(device_type, []) == members
                swept = [member for member in members if not member.failed]
                assert registry.instances_of(device_type) == swept
                column = registry.sweep_column(device_type)
                assert column == swept
                memoized = swept == members
                previous, was_memoized = columns.get(device_type, (None, 0))
                columns[device_type] = column, memoized
                edit = registry.sweep_edit(device_type, previous)
                if edit is not None:
                    removed, start = edit
                    assert removed == sorted(set(removed))
                    assert start == len(previous) - len(removed)
                    assert (
                        splice_column(previous, removed, column[start:])
                        == column
                    )
                else:
                    left = sum(
                        instance.info.is_subtype_of(device_type)
                        for instance in departed
                    )
                    assert not (
                        was_memoized
                        and memoized
                        and column is not previous
                        and left <= len(previous)
                    )
            indexed = {
                key: {value: found for value, found in values.items() if found}
                for key, values in registry._by_attribute.items()
            }
            assert {
                key: values for key, values in indexed.items() if values
            } == self.buckets(live)
