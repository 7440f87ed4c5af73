"""Core model of DiaSpec types.

DiaSpec has four primitive types (``Integer``, ``Float``, ``Boolean``,
``String``), user-declared ``enumeration`` and ``structure`` types, and
array types written ``T[]`` (e.g. the ``Availability[]`` result type of the
``ParkingAvailability`` context in Figure 8 of the paper).

Type objects are immutable and compare structurally, so two independently
parsed designs that declare the same types produce equal type objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.errors import DuplicateDeclarationError, UnknownNameError


class DiaType:
    """Base class of every DiaSpec type."""

    name: str

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name

    def __getstate__(self) -> Dict[str, Any]:
        # The conformance check repro.typesys.values compiles from a
        # type is hung on it: rebuilt where it is needed, never pickled.
        state = dict(self.__dict__)
        state.pop("_compiled", None)
        return state


@dataclass(frozen=True)
class PrimitiveType(DiaType):
    """One of the four built-in scalar types."""

    name: str


INTEGER = PrimitiveType("Integer")
FLOAT = PrimitiveType("Float")
BOOLEAN = PrimitiveType("Boolean")
STRING = PrimitiveType("String")

PRIMITIVES: Dict[str, PrimitiveType] = {
    t.name: t for t in (INTEGER, FLOAT, BOOLEAN, STRING)
}


@dataclass(frozen=True)
class EnumerationType(DiaType):
    """A declared ``enumeration``, e.g. ``ParkingLotEnum { A22, B16, D6 }``.

    Runtime values of an enumeration type are its member names (strings),
    mirroring how deployed infrastructures register attribute values.
    """

    name: str
    members: Tuple[str, ...]

    def __post_init__(self):
        seen = set()
        for member in self.members:
            if member in seen:
                raise DuplicateDeclarationError(
                    f"duplicate member '{member}'", declaration=self.name
                )
            seen.add(member)

    def __contains__(self, value: object) -> bool:
        return value in self.members


@dataclass(frozen=True)
class StructureType(DiaType):
    """A declared ``structure``, e.g. ``Availability { parkingLot …; count …; }``.

    Fields are ordered, as in the paper's declarations.
    """

    name: str
    fields: Tuple[Tuple[str, "DiaType"], ...]

    def __post_init__(self):
        seen = set()
        for field_name, __ in self.fields:
            if field_name in seen:
                raise DuplicateDeclarationError(
                    f"duplicate field '{field_name}'", declaration=self.name
                )
            seen.add(field_name)

    def field_type(self, field_name: str) -> "DiaType":
        for name, dia_type in self.fields:
            if name == field_name:
                return dia_type
        raise UnknownNameError(
            f"no field '{field_name}'", declaration=self.name
        )

    @property
    def field_names(self) -> Tuple[str, ...]:
        return tuple(name for name, __ in self.fields)


@dataclass(frozen=True)
class ArrayType(DiaType):
    """An array type ``T[]``; element may itself be any non-array type."""

    element: DiaType
    name: str = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "name", f"{self.element.name}[]")


class TypeEnvironment:
    """Registry of the named types visible to a design.

    Primitives are always present; ``enumeration`` and ``structure``
    declarations add names as the analyzer processes a design.
    """

    def __init__(self):
        self._types: Dict[str, DiaType] = dict(PRIMITIVES)

    def declare(self, dia_type: DiaType) -> None:
        """Register a named type, rejecting redeclarations."""
        if dia_type.name in self._types:
            raise DuplicateDeclarationError(
                f"type '{dia_type.name}' is already declared"
            )
        self._types[dia_type.name] = dia_type

    def lookup(self, name: str) -> DiaType:
        """Resolve a type name, handling the ``T[]`` array suffix."""
        if name.endswith("[]"):
            return ArrayType(self.lookup(name[:-2]))
        try:
            return self._types[name]
        except KeyError:
            raise UnknownNameError(f"unknown type '{name}'") from None

    def get(self, name: str) -> Optional[DiaType]:
        try:
            return self.lookup(name)
        except UnknownNameError:
            return None

    def __contains__(self, name: str) -> bool:
        return self.get(name) is not None

    def names(self) -> Tuple[str, ...]:
        return tuple(sorted(self._types))


def parse_type_name(name: str) -> Tuple[str, int]:
    """Split a written type into its base name and array depth.

    ``"Availability[]"`` → ``("Availability", 1)``.
    """
    depth = 0
    while name.endswith("[]"):
        name = name[:-2]
        depth += 1
    return name, depth
