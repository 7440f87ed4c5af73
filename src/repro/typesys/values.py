"""Runtime value conformance for DiaSpec types.

The generated frameworks of the paper are statically typed (Java).  In the
Python host we enforce the same guarantees dynamically: every value that
crosses a component boundary (a source reading, a published context value,
an action argument) is checked against its declared type before delivery.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any, Callable, Dict, List

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
        _set_values(self, _compiled(structure_type).fields(field_values))
        _set_type(self, structure_type)

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

    def as_dict(self) -> Dict[str, Any]:
        return dict(self._values)

    def __reduce__(self):
        # Fields checked once are restored as they are; the slots' own
        # restore would meet __getattr__ before _values is set.
        return _restore, (self._type, self._values)

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


_set_type = StructureValue._type.__set__
_set_values = StructureValue._values.__set__


def _restore(structure_type: StructureType, values: Dict[str, Any]) -> Any:
    """A record of fields already checked."""
    record = StructureValue.__new__(StructureValue)
    _set_values(record, values)
    _set_type(record, structure_type)
    return record


def check_value(dia_type: DiaType, value: Any) -> Any:
    """Validate ``value`` against ``dia_type`` and return it, or its
    canonical form: a mapping or a generated structure object becomes a
    :class:`StructureValue`, an array a new list (tuples included).

    Raises :class:`ValueConformanceError` on mismatch.
    """
    return _compiled(dia_type).check(value)


def checker(dia_type: DiaType) -> Callable[[Any], Any]:
    """:func:`check_value` for ``dia_type``, as one function."""
    return _compiled(dia_type).check


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
    return _compiled(dia_type).coerce(value)


def coercer(dia_type: DiaType) -> Callable[[Any], Any]:
    """:func:`coerce_value` for ``dia_type``, as one function."""
    return _compiled(dia_type).coerce


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
    coerce = coercer(dia_type)
    return [
        value if isinstance(value, DeliveryError) else coerce(value)
        for value in values
    ]


# ----------------------------------------------------------------------
# One compiled check per type object
# ----------------------------------------------------------------------


class _Compiled:
    """What conformance to one type comes down to, built once from the
    type and hung on it (``_compiled``, which
    :meth:`~repro.typesys.core.DiaType.__getstate__` leaves out of a
    pickle): ``check`` and ``coerce`` are :func:`check_value` and
    :func:`coerce_value` for the type, and a structure's
    ``fields(given)`` checks a dict of field values into a record's."""

    __slots__ = ("check", "coerce", "fields")

    def __init__(self, check, coerce=None, fields=None):
        self.check = check
        self.coerce = check if coerce is None else coerce
        self.fields = fields


def _compiled(dia_type: DiaType) -> _Compiled:
    try:
        return dia_type._compiled
    except AttributeError:
        pass
    if isinstance(dia_type, PrimitiveType):
        compiled = _primitive(dia_type)
    elif isinstance(dia_type, EnumerationType):
        compiled = _enumeration(dia_type)
    elif isinstance(dia_type, StructureType):
        compiled = _structure(dia_type)
    elif isinstance(dia_type, ArrayType):
        compiled = _array(dia_type)
    else:

        def unsupported(value: Any) -> Any:
            raise ValueConformanceError(f"unsupported type {dia_type!r}")

        return _Compiled(unsupported)
    # Built twice by two threads at once, the second simply wins.
    object.__setattr__(dia_type, "_compiled", compiled)
    return compiled


def _primitive(dia_type: PrimitiveType) -> _Compiled:
    """The exact class passes as it is; anything else takes the rule
    (:func:`_check_primitive`) and its message."""
    exact = _EXACT_CLASS.get(dia_type.name)

    def check(value: Any) -> Any:
        if type(value) is not exact:
            _check_primitive(dia_type, value)
        return value

    if exact is not float:
        return _Compiled(check)

    def coerce(value: Any) -> Any:
        if type(value) is float:
            return value
        if isinstance(value, bool):
            raise ValueConformanceError("Boolean is not a Float")
        if isinstance(value, int):
            return float(value)
        _check_primitive(dia_type, value)
        return value

    return _Compiled(check, coerce)


def _enumeration(dia_type: EnumerationType) -> _Compiled:
    """A ``str`` is a member by set lookup; any other value by the
    type's own rule (``value in dia_type``: equality, as a tuple scan,
    so an unhashable value is simply no member)."""
    members = frozenset(dia_type.members)

    def check(value: Any) -> Any:
        if value in members if type(value) is str else value in dia_type:
            return value
        raise ValueConformanceError(
            f"{value!r} is not a member of enumeration {dia_type.name}"
        )

    return _Compiled(check)


def _structure(dia_type: StructureType) -> _Compiled:
    """Field names and one check per field, resolved once.  A plain
    dict (or a generated class's ``as_dict()``) naming exactly the
    declared fields is checked field by field into a new record; a
    :class:`StructureValue` of this type passes as it is; any other
    value takes the constructor's path, and its errors."""
    names = frozenset(dia_type.field_names)
    checks = tuple((name, checker(field)) for name, field in dia_type.fields)

    def fields(given: Dict[str, Any]) -> Dict[str, Any]:
        if given.keys() != names:
            supplied = set(given)
            missing = sorted(names - supplied)
            extra = sorted(supplied - names)
            parts = [f"missing fields {missing}"] if missing else []
            if extra:
                parts.append(f"unknown fields {extra}")
            raise ValueConformanceError(
                f"structure {dia_type.name}: " + ", ".join(parts)
            )
        return {name: check(given[name]) for name, check in checks}

    def build(given: Any) -> StructureValue:
        if type(given) is dict and given.keys() == names:
            return _restore(dia_type, fields(given))
        return StructureValue(dia_type, **given)

    def check(value: Any) -> Any:
        if type(value) is dict:
            return build(value)
        if isinstance(value, StructureValue) and (
            value._type is dia_type or value._type == dia_type
        ):
            return value
        if isinstance(value, Mapping):
            return StructureValue(dia_type, **value)
        as_dict = getattr(value, "as_dict", None)
        if callable(as_dict):
            # Generated structure classes expose their fields this way.
            return build(as_dict())
        raise ValueConformanceError(
            f"{value!r} is not a value of structure {dia_type.name}"
        )

    return _Compiled(check, fields=fields)


def _array(dia_type: ArrayType) -> _Compiled:
    element = checker(dia_type.element)

    def check(value: Any) -> Any:
        if isinstance(value, (list, tuple)):
            return list(map(element, value))
        raise ValueConformanceError(
            f"{value!r} is not an array of {dia_type.element.name}"
        )

    return _Compiled(check)


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
