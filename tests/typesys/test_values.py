"""Runtime value conformance, including property-based checks."""

import collections.abc
import pickle
import typing

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
    PrimitiveType,
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


# ---------------------------------------------------------------------------
# The compiled checks against the interpreter they replaced
# ---------------------------------------------------------------------------


def _reference_record(structure_type, field_values):
    """``StructureValue(structure_type, **field_values)``, interpreted."""
    declared = set(structure_type.field_names)
    supplied = set(field_values)
    if declared != supplied:
        missing = sorted(declared - supplied)
        extra = sorted(supplied - declared)
        parts = []
        if missing:
            parts.append(f"missing fields {missing}")
        if extra:
            parts.append(f"unknown fields {extra}")
        raise ValueConformanceError(
            f"structure {structure_type.name}: " + ", ".join(parts)
        )
    checked = {}
    for name, dia_type in structure_type.fields:
        checked[name] = reference_check_value(dia_type, field_values[name])
    record = object.__new__(StructureValue)
    object.__setattr__(record, "_type", structure_type)
    object.__setattr__(record, "_values", checked)
    return record


def _reference_primitive(dia_type, value):
    name = dia_type.name
    if name == "Boolean":
        if not isinstance(value, bool):
            raise ValueConformanceError(f"{value!r} is not a Boolean")
        return
    if name == "Integer":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueConformanceError(f"{value!r} is not an Integer")
        return
    if name == "Float":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueConformanceError(f"{value!r} is not a Float")
        return
    if name == "String":
        if not isinstance(value, str):
            raise ValueConformanceError(f"{value!r} is not a String")
        return
    raise ValueConformanceError(f"unknown primitive {name}")


def reference_check_value(dia_type, value):
    """``check_value`` as an interpreter over the declared type, asked
    afresh for every value: what each compiled check must equal."""
    if isinstance(dia_type, PrimitiveType):
        _reference_primitive(dia_type, value)
        return value
    if isinstance(dia_type, EnumerationType):
        if value not in dia_type:
            raise ValueConformanceError(
                f"{value!r} is not a member of enumeration {dia_type.name}"
            )
        return value
    if isinstance(dia_type, StructureType):
        if (
            isinstance(value, StructureValue)
            and value.structure_type == dia_type
        ):
            return value
        if isinstance(value, typing.Mapping):
            return _reference_record(dia_type, dict(**value))
        as_dict = getattr(value, "as_dict", None)
        if callable(as_dict):
            return _reference_record(dia_type, dict(**as_dict()))
        raise ValueConformanceError(
            f"{value!r} is not a value of structure {dia_type.name}"
        )
    if isinstance(dia_type, ArrayType):
        if not isinstance(value, (list, tuple)):
            raise ValueConformanceError(
                f"{value!r} is not an array of {dia_type.element.name}"
            )
        return [reference_check_value(dia_type.element, v) for v in value]
    raise ValueConformanceError(f"unsupported type {dia_type!r}")


def reference_coerce_value(dia_type, value):
    """``coerce_value`` over :func:`reference_check_value`."""
    if isinstance(dia_type, PrimitiveType):
        name = dia_type.name
        exact = dict(Boolean=bool, Integer=int, Float=float, String=str)
        if type(value) is exact.get(name):
            return value
        if name == "Float":
            if isinstance(value, bool):
                raise ValueConformanceError("Boolean is not a Float")
            if isinstance(value, int):
                return float(value)
    return reference_check_value(dia_type, value)


CITY_LOTS = EnumerationType(
    "CityLotEnum", tuple(f"L{index:03d}" for index in range(200))
)


class _Text(str):
    """A ``str`` subclass: equal to a member, but not exactly a str."""


class _Fields(collections.abc.Mapping):
    """A mapping that is not a dict."""

    def __init__(self, fields):
        self._fields = dict(fields)

    def __getitem__(self, name):
        return self._fields[name]

    def __iter__(self):
        return iter(self._fields)

    def __len__(self):
        return len(self._fields)


class _Generated:
    """The shape of a generated structure class: slots and
    ``as_dict()``."""

    __slots__ = ("_fields",)

    def __init__(self, fields):
        self._fields = dict(fields)

    def as_dict(self):
        return dict(self._fields)


_FIELD_NAMES = ("parkingLot", "count", "level", "spots", "ok")

_TYPES = st.recursive(
    st.sampled_from([BOOLEAN, INTEGER, FLOAT, STRING, LOTS, CITY_LOTS]),
    lambda inner: st.one_of(
        inner.map(ArrayType),
        st.lists(
            st.tuples(st.sampled_from(_FIELD_NAMES), inner),
            min_size=1,
            max_size=3,
            unique_by=lambda field: field[0],
        ).map(lambda fields: StructureType("Record", tuple(fields))),
    ),
    max_leaves=5,
)

_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=3),
    st.floats(allow_nan=False, width=16),
    st.builds(_Level, st.integers(min_value=0, max_value=3)),
    st.sampled_from(["A22", "L007", "nowhere", b"A22"]),
    st.builds(_Text, st.sampled_from(["A22", "L199", "Z"])),
    st.just([1]),
    st.just(("A22",)),
    st.just({1: 2}),
)


def _values_of(dia_type):
    """Values for ``dia_type``: conforming ones and near misses, down
    to nested fields and elements."""
    return st.one_of(_conforming(dia_type), _near_misses(dia_type), _JUNK)


def _conforming(dia_type):
    if isinstance(dia_type, PrimitiveType):
        return {
            "Boolean": st.booleans(),
            "Integer": st.integers(),
            "Float": st.one_of(st.floats(allow_nan=False), st.integers()),
            "String": st.text(max_size=3),
        }[dia_type.name]
    if isinstance(dia_type, EnumerationType):
        return st.sampled_from(dia_type.members)
    if isinstance(dia_type, ArrayType):
        return st.lists(_values_of(dia_type.element), max_size=3)
    return st.fixed_dictionaries(
        {name: _values_of(field) for name, field in dia_type.fields}
    )


def _near_misses(dia_type):
    if not isinstance(dia_type, StructureType):
        if isinstance(dia_type, ArrayType):
            return st.tuples(_values_of(dia_type.element))
        return _JUNK
    fields = _conforming(dia_type)
    equal_but_distinct = StructureType(dia_type.name, dia_type.fields)
    return st.one_of(
        fields.map(lambda f: dict(list(f.items())[1:])),
        fields.map(lambda f: {**f, "bogus": 1}),
        fields.map(_Fields),
        fields.map(_Generated),
        fields.map(lambda f: _record_or(equal_but_distinct, f)),
        fields.map(lambda f: _record_or(dia_type, f)),
        fields.map(lambda f: _record_or(AVAILABILITY, f)),
    )


def _record_or(structure_type, fields):
    """A record of ``structure_type`` from ``fields``, or the fields
    when they do not make one."""
    try:
        return reference_check_value(structure_type, fields)
    except (ValueConformanceError, TypeError):
        return fields


def _shape(value):
    """``value`` down to classes, equality and, for a record, which
    type object it is of."""
    if isinstance(value, StructureValue):
        return (
            StructureValue,
            id(value._type),
            {k: _shape(v) for k, v in value._values.items()},
        )
    if isinstance(value, list):
        return (list, [_shape(item) for item in value])
    return (type(value), value if value == value else "nan")


def _same(compiled, reference):
    """Run both; the same value, or the same exception and message."""
    try:
        expected = ("ok", reference())
    except Exception as error:  # any exception: the same one must follow
        expected = ("raised", type(error), str(error))
    try:
        got = ("ok", compiled())
    except Exception as error:
        got = ("raised", type(error), str(error))
    if expected[0] == "ok" and got[0] == "ok":
        assert _shape(got[1]) == _shape(expected[1])
    else:
        assert got == expected


@given(_TYPES.flatmap(lambda t: st.tuples(st.just(t), _values_of(t))))
def test_compiled_checks_match_the_reference(drawn):
    dia_type, value = drawn
    _same(
        lambda: check_value(dia_type, value),
        lambda: reference_check_value(dia_type, value),
    )
    _same(
        lambda: coerce_value(dia_type, value),
        lambda: reference_coerce_value(dia_type, value),
    )


def test_the_reference_is_met_on_the_corners():
    record = reference_check_value(
        AVAILABILITY, {"parkingLot": "A22", "count": 1}
    )
    twin = StructureType(AVAILABILITY.name, AVAILABILITY.fields)
    for dia_type, value in (
        (INTEGER, True),
        (FLOAT, 1),
        (FLOAT, True),
        (LOTS, [1]),
        (LOTS, _Text("A22")),
        (CITY_LOTS, "L199"),
        (CITY_LOTS, 7),
        (AVAILABILITY, {"parkingLot": "A22"}),
        (AVAILABILITY, {"parkingLot": "A22", "count": 1, "x": 0}),
        (AVAILABILITY, {1: 2}),
        (StructureType("One", (("count", INTEGER),)), {1: 2}),
        (AVAILABILITY, _Fields({"parkingLot": "D6", "count": 2})),
        (AVAILABILITY, _Generated({"parkingLot": "D6", "count": 2})),
        (twin, record),
        (ArrayType(AVAILABILITY), ({"parkingLot": "B16", "count": 0},)),
    ):
        _same(
            lambda: check_value(dia_type, value),
            lambda: reference_check_value(dia_type, value),
        )
        _same(
            lambda: coerce_value(dia_type, value),
            lambda: reference_coerce_value(dia_type, value),
        )
    # A record of an equal type passes as it is, as it always did.
    assert check_value(twin, record) is record


def test_a_checked_record_and_its_type_pickle_unchanged():
    structure_type = StructureType(
        "Usage", (("parkingLot", CITY_LOTS), ("levels", ArrayType(FLOAT)))
    )
    fresh = StructureType(structure_type.name, structure_type.fields)
    before = repr(structure_type), hash(structure_type)
    record = check_value(
        structure_type, {"parkingLot": "L001", "levels": [0.5, 1.0]}
    )
    assert (repr(structure_type), hash(structure_type)) == before
    assert structure_type == fresh
    # The compiled check stays behind: the pickle is a never-checked
    # type's.
    assert pickle.dumps(structure_type) == pickle.dumps(fresh)
    restored = pickle.loads(pickle.dumps(record))
    assert restored == record
    assert restored.structure_type == structure_type
    assert restored.as_dict() == {"parkingLot": "L001", "levels": [0.5, 1.0]}
    assert check_value(restored.structure_type, restored) is restored
