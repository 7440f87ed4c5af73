"""Grouping and windowed accumulation, with property-based invariants."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import BindingError
from repro.runtime.device import CallableDriver, DeviceInstance
from repro.runtime.grouping import (
    KeyColumns,
    WindowAccumulator,
    group_key_column,
    group_readings,
)
from repro.sema.analyzer import analyze

DESIGN = """\
device PresenceSensor {
    attribute parkingLot as LotEnum;
    source presence as Boolean;
}
device Plain { source x as Float; }
enumeration LotEnum { A22, B16, D6 }
"""


@pytest.fixture(scope="module")
def design():
    return analyze(DESIGN)


def sensor(design, entity_id, lot):
    return DeviceInstance(
        design.devices["PresenceSensor"],
        entity_id,
        CallableDriver(sources={"presence": lambda: True}),
        {"parkingLot": lot},
    )


def group(readings, attribute):
    """Group ``(instance, value)`` readings as a gather does: by the key
    column and group table of the instance column."""
    instances = [instance for instance, __ in readings]
    columns = KeyColumns(instances, range(len(instances)), {})
    return group_readings(
        columns.keys(attribute),
        columns.groups(attribute)[0],
        [value for __, value in readings],
    )


class TestGroupReadings:
    def test_partition_by_attribute(self, design):
        readings = [
            (sensor(design, "s1", "A22"), True),
            (sensor(design, "s2", "B16"), False),
            (sensor(design, "s3", "A22"), False),
        ]
        grouped = group(readings, "parkingLot")
        assert grouped == {"A22": [True, False], "B16": [False]}

    def test_group_key_order_is_first_encounter(self, design):
        readings = [
            (sensor(design, "s1", "B16"), True),
            (sensor(design, "s2", "A22"), True),
        ]
        assert list(group(readings, "parkingLot")) == ["B16", "A22"]

    def test_empty_readings(self):
        assert group([], "parkingLot") == {}

    def test_missing_attribute_rejected(self, design):
        plain = DeviceInstance(
            design.devices["Plain"],
            "p1",
            CallableDriver(sources={"x": lambda: 0.0}),
        )
        with pytest.raises(BindingError, match="no attribute"):
            group([(plain, 0.0)], "parkingLot")

    def test_key_column_is_the_keys_and_names_the_entity_without_one(
        self, design
    ):
        fleet = [sensor(design, "s1", "B16"), sensor(design, "s2", "A22")]
        assert group_key_column(fleet, "parkingLot") == ["B16", "A22"]
        assert group_key_column([], "parkingLot") == []
        plain = DeviceInstance(
            design.devices["Plain"],
            "p1",
            CallableDriver(sources={"x": lambda: 0.0}),
        )
        with pytest.raises(BindingError, match="'p1' has no attribute"):
            group_key_column([*fleet, plain], "parkingLot")


class TestWindowAccumulator:
    def test_flattening_accumulation(self):
        window = WindowAccumulator(deliveries_per_window=2)
        assert window.add({"A": [True], "B": [False]}) is None
        result = window.add({"A": [False]})
        assert result == {"A": [True, False], "B": [False]}

    def test_window_resets_after_completion(self):
        window = WindowAccumulator(deliveries_per_window=1)
        assert window.add({"A": [1]}) == {"A": [1]}
        assert window.add({"A": [2]}) == {"A": [2]}

    def test_pending_counter(self):
        window = WindowAccumulator(deliveries_per_window=3)
        window.add({})
        assert window.pending_deliveries == 1
        window.add({})
        window.add({})
        assert window.pending_deliveries == 0

    def test_for_design_rounding(self):
        window = WindowAccumulator.for_design(600.0, 86400.0)
        assert window.deliveries_per_window == 144

    def test_zero_window_rejected(self):
        with pytest.raises(ValueError):
            WindowAccumulator(0)

    def test_groups_appearing_mid_window(self):
        window = WindowAccumulator(deliveries_per_window=2)
        window.add({"A": [1]})
        result = window.add({"A": [2], "B": [9]})
        assert result == {"A": [1, 2], "B": [9]}


# ---------------------------------------------------------------------------
# Property-based invariants
# ---------------------------------------------------------------------------

reading_lists = st.lists(
    st.tuples(st.sampled_from(["A22", "B16", "D6"]), st.booleans()),
    max_size=60,
)


@given(reading_lists)
def test_grouping_preserves_every_reading(design_readings):
    design = analyze(DESIGN)
    readings = [
        (
            DeviceInstance(
                design.devices["PresenceSensor"],
                f"s{i}",
                CallableDriver(sources={"presence": lambda: True}),
                {"parkingLot": lot},
            ),
            value,
        )
        for i, (lot, value) in enumerate(design_readings)
    ]
    grouped = group(readings, "parkingLot")
    total = sum(len(values) for values in grouped.values())
    assert total == len(readings)
    for lot, values in grouped.items():
        expected = [v for l, v in design_readings if l == lot]
        assert values == expected


@given(
    st.lists(
        st.dictionaries(
            st.sampled_from("ABC"), st.lists(st.integers(), max_size=4),
            max_size=3,
        ),
        min_size=1,
        max_size=12,
    ),
    st.integers(min_value=1, max_value=4),
)
def test_window_never_loses_values(deliveries, per_window):
    window = WindowAccumulator(per_window)
    released = {}
    for delivery in deliveries:
        result = window.add(delivery)
        if result is not None:
            for key, values in result.items():
                released.setdefault(key, []).extend(values)
    # everything released + still buffered == everything added
    buffered = window._buffer
    for key in set(released) | set(buffered):
        total = released.get(key, []) + buffered.get(key, [])
        expected = [
            value
            for delivery in deliveries
            for value in delivery.get(key, [])
        ]
        assert total == expected
