"""Runtime value conformance for DiaSpec types.

The generated frameworks of the paper are statically typed (Java).  In the
Python host we enforce the same guarantees dynamically: every value that
crosses a component boundary (a source reading, a published context value,
an action argument) is checked against its declared type before delivery.
"""

from __future__ import annotations

from typing import Any, List, Mapping

from repro.errors import DeliveryError, ValueConformanceError
from repro.typesys.core import (
    ArrayType,
    DiaType,
    EnumerationType,
    PrimitiveType,
    StructureType,
)


class StructureValue:
    """A runtime instance of a declared ``structure`` type.

    Behaves like a lightweight record: fields are attributes, equality is
    structural, and construction validates field values against the
    structure's declared field types.

    >>> availability = StructureValue(availability_type, parkingLot="A22", count=3)
    >>> availability.count
    3
    """

    __slots__ = ("_type", "_values")

    def __init__(self, structure_type: StructureType, **field_values: Any):
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
            checked[name] = check_value(dia_type, field_values[name])
        object.__setattr__(self, "_type", structure_type)
        object.__setattr__(self, "_values", checked)

    @property
    def structure_type(self) -> StructureType:
        return self._type

    def __getattr__(self, name: str) -> Any:
        try:
            return self._values[name]
        except KeyError:
            raise AttributeError(name) from None

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("StructureValue instances are immutable")

    def as_dict(self) -> Mapping[str, Any]:
        return dict(self._values)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, StructureValue)
            and self._type == other._type
            and self._values == other._values
        )

    def __hash__(self) -> int:
        return hash((self._type.name, tuple(sorted(self._values.items()))))

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in self._values.items())
        return f"{self._type.name}({fields})"


def check_value(dia_type: DiaType, value: Any) -> Any:
    """Validate ``value`` against ``dia_type`` and return it unchanged.

    Raises :class:`ValueConformanceError` on mismatch.  Lists and tuples are
    both accepted for array types; tuples are returned as-is (no copying).
    """
    if isinstance(dia_type, PrimitiveType):
        _check_primitive(dia_type, value)
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
        if isinstance(value, Mapping):
            return StructureValue(dia_type, **value)
        as_dict = getattr(value, "as_dict", None)
        if callable(as_dict):
            # Generated structure classes expose their fields via as_dict().
            return StructureValue(dia_type, **as_dict())
        raise ValueConformanceError(
            f"{value!r} is not a value of structure {dia_type.name}"
        )
    if isinstance(dia_type, ArrayType):
        if not isinstance(value, (list, tuple)):
            raise ValueConformanceError(
                f"{value!r} is not an array of {dia_type.element.name}"
            )
        return [check_value(dia_type.element, item) for item in value]
    raise ValueConformanceError(f"unsupported type {dia_type!r}")


# The Python class whose exact instances conform to a primitive as they
# are.  ``type(True) is bool``, so an exact ``int`` is never a Boolean;
# an ``int`` in a Float position is not exactly ``float`` and widens.
_EXACT_CLASS = {"Boolean": bool, "Integer": int, "Float": float, "String": str}


def exact_class(dia_type: DiaType) -> Any:
    """The class whose exact instances :func:`coerce_value` returns as
    they are for ``dia_type``; ``None`` when every value is checked."""
    if isinstance(dia_type, PrimitiveType):
        return _EXACT_CLASS.get(dia_type.name)
    return None


def coerce_value(dia_type: DiaType, value: Any) -> Any:
    """Like :func:`check_value`, but applies safe numeric widening.

    ``Integer`` readings are widened to float for a ``Float`` position;
    mappings are promoted to structure values.  Used at the device boundary
    where drivers may produce plain Python data.

    A value that is *exactly* the primitive's Python class
    (``_EXACT_CLASS``) can neither fail nor widen and is returned as it
    is; anything else — an ``int`` for a Float, a ``bool`` for an
    Integer, a subclass, ``None``, every non-primitive type — is checked
    in full.
    """
    if isinstance(dia_type, PrimitiveType):
        name = dia_type.name
        if type(value) is _EXACT_CLASS.get(name):
            return value
        if name == "Float":
            if isinstance(value, bool):
                raise ValueConformanceError("Boolean is not a Float")
            if isinstance(value, int):
                return float(value)
    return check_value(dia_type, value)


def coerce_column(dia_type: DiaType, values: List[Any]) -> List[Any]:
    """:func:`coerce_value` over a whole column of readings.

    This is the per-value rule proved in one pass, not a second rule:
    when every value is exactly the primitive's ``_EXACT_CLASS`` the
    column is returned **as is** (the same list — callers must own it).
    Anything else runs :func:`coerce_value` per value, so results and
    :class:`ValueConformanceError` messages are those of the scalar
    path — except a :class:`DeliveryError`, which a batch read answers
    for a member it could not read: it stays in place, in a new list.
    """
    exact = exact_class(dia_type)
    if exact is not None and set(map(type, values)) <= {exact}:
        return values
    return [
        value
        if isinstance(value, DeliveryError)
        else coerce_value(dia_type, value)
        for value in values
    ]


def _check_primitive(dia_type: PrimitiveType, value: Any) -> None:
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
