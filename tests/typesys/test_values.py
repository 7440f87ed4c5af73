"""Runtime value conformance, including property-based checks."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ValueConformanceError
from repro.typesys.core import (
    ArrayType,
    BOOLEAN,
    EnumerationType,
    FLOAT,
    INTEGER,
    STRING,
    StructureType,
)
from repro.typesys.values import (
    StructureValue,
    check_value,
    coerce_column,
    coerce_value,
)

LOTS = EnumerationType("LotEnum", ("A22", "B16", "D6"))
AVAILABILITY = StructureType(
    "Availability", (("parkingLot", LOTS), ("count", INTEGER))
)


class TestPrimitiveChecks:
    def test_integer_accepts_int(self):
        assert check_value(INTEGER, 5) == 5

    def test_integer_rejects_bool(self):
        with pytest.raises(ValueConformanceError):
            check_value(INTEGER, True)

    def test_integer_rejects_float(self):
        with pytest.raises(ValueConformanceError):
            check_value(INTEGER, 5.0)

    def test_float_accepts_int_and_float(self):
        assert check_value(FLOAT, 2) == 2
        assert check_value(FLOAT, 2.5) == 2.5

    def test_float_rejects_bool(self):
        with pytest.raises(ValueConformanceError):
            check_value(FLOAT, True)

    def test_boolean_strictness(self):
        assert check_value(BOOLEAN, False) is False
        with pytest.raises(ValueConformanceError):
            check_value(BOOLEAN, 1)

    def test_string(self):
        assert check_value(STRING, "hi") == "hi"
        with pytest.raises(ValueConformanceError):
            check_value(STRING, b"hi")


class TestEnumerationChecks:
    def test_member_passes(self):
        assert check_value(LOTS, "A22") == "A22"

    def test_non_member_rejected(self):
        with pytest.raises(ValueConformanceError, match="LotEnum"):
            check_value(LOTS, "Z99")


class TestStructureChecks:
    def test_mapping_promoted_to_structure_value(self):
        value = check_value(AVAILABILITY, {"parkingLot": "A22", "count": 3})
        assert isinstance(value, StructureValue)
        assert value.parkingLot == "A22"
        assert value.count == 3

    def test_structure_value_passes_through(self):
        original = StructureValue(AVAILABILITY, parkingLot="B16", count=0)
        assert check_value(AVAILABILITY, original) is original

    def test_missing_field_rejected(self):
        with pytest.raises(ValueConformanceError, match="missing"):
            check_value(AVAILABILITY, {"parkingLot": "A22"})

    def test_extra_field_rejected(self):
        with pytest.raises(ValueConformanceError, match="unknown"):
            check_value(
                AVAILABILITY,
                {"parkingLot": "A22", "count": 1, "bogus": 2},
            )

    def test_field_type_enforced(self):
        with pytest.raises(ValueConformanceError):
            check_value(AVAILABILITY, {"parkingLot": "A22", "count": "3"})

    def test_as_dict_object_promoted(self):
        class Record:
            def as_dict(self):
                return {"parkingLot": "D6", "count": 7}

        value = check_value(AVAILABILITY, Record())
        assert value.count == 7

    def test_non_structure_rejected(self):
        with pytest.raises(ValueConformanceError):
            check_value(AVAILABILITY, 42)


class TestArrayChecks:
    def test_list_of_scalars(self):
        assert check_value(ArrayType(INTEGER), [1, 2, 3]) == [1, 2, 3]

    def test_tuple_accepted(self):
        assert check_value(ArrayType(INTEGER), (1, 2)) == [1, 2]

    def test_element_violation_rejected(self):
        with pytest.raises(ValueConformanceError):
            check_value(ArrayType(INTEGER), [1, "2"])

    def test_array_of_structures(self):
        values = check_value(
            ArrayType(AVAILABILITY),
            [{"parkingLot": "A22", "count": 1}],
        )
        assert values[0].parkingLot == "A22"

    def test_scalar_rejected_for_array(self):
        with pytest.raises(ValueConformanceError):
            check_value(ArrayType(INTEGER), 1)


class TestCoercion:
    def test_int_widens_to_float(self):
        assert coerce_value(FLOAT, 3) == 3.0
        assert isinstance(coerce_value(FLOAT, 3), float)

    def test_bool_does_not_widen(self):
        with pytest.raises(ValueConformanceError):
            coerce_value(FLOAT, True)


class TestStructureValueSemantics:
    def test_immutability(self):
        value = StructureValue(AVAILABILITY, parkingLot="A22", count=1)
        with pytest.raises(AttributeError):
            value.count = 2

    def test_equality_and_hash(self):
        a = StructureValue(AVAILABILITY, parkingLot="A22", count=1)
        b = StructureValue(AVAILABILITY, parkingLot="A22", count=1)
        c = StructureValue(AVAILABILITY, parkingLot="A22", count=2)
        assert a == b
        assert hash(a) == hash(b)
        assert a != c

    def test_repr_mentions_fields(self):
        value = StructureValue(AVAILABILITY, parkingLot="A22", count=1)
        assert "parkingLot" in repr(value)

    def test_as_dict(self):
        value = StructureValue(AVAILABILITY, parkingLot="A22", count=1)
        assert value.as_dict() == {"parkingLot": "A22", "count": 1}


# ---------------------------------------------------------------------------
# Property-based conformance
# ---------------------------------------------------------------------------


@given(st.integers())
def test_any_int_is_integer(value):
    assert check_value(INTEGER, value) == value


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_any_float_is_float(value):
    assert check_value(FLOAT, value) == value


@given(st.lists(st.booleans()))
def test_boolean_arrays(values):
    assert check_value(ArrayType(BOOLEAN), values) == values


@given(
    st.lists(
        st.one_of(st.integers(), st.text(), st.booleans(), st.none()),
        min_size=1,
    )
)
def test_mixed_garbage_never_passes_string_silently(values):
    """Every element either passes as String or raises — no silent drops."""
    array_type = ArrayType(STRING)
    if all(isinstance(v, str) for v in values):
        assert check_value(array_type, values) == values
    else:
        with pytest.raises(ValueConformanceError):
            check_value(array_type, values)


class _Level(int):
    """An ``int`` subclass: conforms to Integer, but only the per-value
    rule may say so."""


_COLUMN_TYPES = (
    BOOLEAN,
    INTEGER,
    FLOAT,
    STRING,
    LOTS,
    AVAILABILITY,
    ArrayType(INTEGER),
)

_COLUMN_ITEMS = st.one_of(
    st.booleans(),
    st.integers(min_value=-5, max_value=5),
    st.floats(allow_nan=False, width=16),
    st.sampled_from(["A22", "D6", "nowhere", ""]),
    st.none(),
    st.builds(_Level, st.integers(min_value=0, max_value=3)),
    st.just({"parkingLot": "A22", "count": 1}),
    st.just({"parkingLot": "A22"}),
    st.lists(st.integers(min_value=0, max_value=3), max_size=2),
)


def _outcome(coerce):
    """What a coercion produced, down to value types and the error
    message."""
    try:
        values = coerce()
    except ValueConformanceError as error:
        return ("raised", str(error))
    return ("ok", [(type(value), value) for value in values])


@given(
    st.sampled_from(_COLUMN_TYPES),
    st.one_of(
        # Mostly-uniform columns (the fast path and its near misses) ...
        st.sampled_from(
            [st.booleans(), st.integers(), st.floats(), st.text()]
        ).flatmap(
            lambda items: st.tuples(
                st.lists(items, max_size=6),
                st.lists(_COLUMN_ITEMS, max_size=1),
                st.lists(items, max_size=2),
            ).map(lambda parts: parts[0] + parts[1] + parts[2])
        ),
        # ... and arbitrary mixtures.
        st.lists(_COLUMN_ITEMS, max_size=6),
    ),
)
def test_coerce_column_is_coerce_value_per_value(dia_type, column):
    """Column coercion is the per-value rule proved in one pass: same
    values, same value types, same error for the same first offender."""
    per_value = _outcome(
        lambda: [coerce_value(dia_type, value) for value in column]
    )
    assert _outcome(lambda: coerce_column(dia_type, list(column))) == per_value


def test_coerce_column_returns_an_exact_column_as_it_is():
    for dia_type, column in (
        (BOOLEAN, [True, False]),
        (INTEGER, [1, 2, 3]),
        (FLOAT, [0.5, 1.5]),
        (STRING, ["a", ""]),
        (INTEGER, []),
    ):
        assert coerce_column(dia_type, column) is column
    # Near misses take the per-value rule: widening, and the strictness
    # about bool that ``isinstance`` alone would lose.
    widened = coerce_column(FLOAT, [1, 2.5])
    assert widened == [1.0, 2.5] and type(widened[0]) is float
    assert coerce_column(INTEGER, [_Level(2), 1]) == [2, 1]
    with pytest.raises(ValueConformanceError, match="True is not an Integer"):
        coerce_column(INTEGER, [1, True])
    with pytest.raises(ValueConformanceError, match="None is not a String"):
        coerce_column(STRING, ["a", None])
