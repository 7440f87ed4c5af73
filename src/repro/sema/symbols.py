"""Resolved symbol information for DiaSpec declarations.

The raw AST references everything by name; the symbol table resolves those
names once, flattens device inheritance (Figure 6: ``ParkingEntrancePanel
extends DisplayPanel``), and attaches :class:`~repro.typesys.core.DiaType`
objects to every typed position.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Optional, Tuple

from repro.errors import UnknownNameError
from repro.lang.ast_nodes import ContextDecl, ControllerDecl, DeviceDecl
from repro.typesys.core import DiaType


@dataclass(frozen=True)
class SourceInfo:
    """A resolved device source facet.

    ``timeout``/``retries`` carry the source's ``expect`` error policy;
    the runtime applies them on every read.
    """

    name: str
    dia_type: DiaType
    declared_by: str
    index_name: Optional[str] = None
    index_type: Optional[DiaType] = None
    timeout_seconds: Optional[float] = None
    retries: int = 0

    @property
    def is_indexed(self) -> bool:
        return self.index_name is not None


@dataclass(frozen=True)
class ActionInfo:
    """A resolved device action facet."""

    name: str
    params: Tuple[Tuple[str, DiaType], ...]
    declared_by: str


@dataclass(frozen=True)
class AttributeInfo:
    """A resolved device attribute facet."""

    name: str
    dia_type: DiaType
    declared_by: str


@dataclass
class DeviceInfo:
    """A device with inheritance flattened.

    ``attributes``/``sources``/``actions`` include every facet inherited
    from ancestors; ``ancestors`` is ordered nearest-first; ``subtypes``
    lists direct subtypes (used by discovery: a request for ``DisplayPanel``
    entities matches ``ParkingEntrancePanel`` instances too).
    """

    name: str
    decl: DeviceDecl
    ancestors: Tuple[str, ...] = ()
    attributes: Dict[str, AttributeInfo] = field(default_factory=dict)
    sources: Dict[str, SourceInfo] = field(default_factory=dict)
    actions: Dict[str, ActionInfo] = field(default_factory=dict)
    subtypes: Tuple[str, ...] = ()

    def source(self, name: str) -> SourceInfo:
        try:
            return self.sources[name]
        except KeyError:
            raise UnknownNameError(
                f"device has no source '{name}'", declaration=self.name
            ) from None

    def action(self, name: str) -> ActionInfo:
        try:
            return self.actions[name]
        except KeyError:
            raise UnknownNameError(
                f"device has no action '{name}'", declaration=self.name
            ) from None

    def attribute(self, name: str) -> AttributeInfo:
        try:
            return self.attributes[name]
        except KeyError:
            raise UnknownNameError(
                f"device has no attribute '{name}'", declaration=self.name
            ) from None

    def is_subtype_of(self, other: str) -> bool:
        return self.name == other or other in self.ancestors

    @cached_property
    def lineage(self) -> Tuple[str, ...]:
        """The type's own name, then its ancestors nearest-first: every
        type an instance of it is discovered as."""
        return (self.name, *self.ancestors)

    @cached_property
    def attribute_types(self) -> Dict[str, DiaType]:
        """``attribute -> declared type``, built once: the table every
        bind checks its attribute record against."""
        return {name: info.dia_type for name, info in self.attributes.items()}


@dataclass
class ContextInfo:
    """A context with its resolved result type and publication profile."""

    name: str
    decl: ContextDecl
    result_type: DiaType

    @property
    def is_queryable(self) -> bool:
        return self.decl.is_queryable

    @property
    def ever_publishes(self) -> bool:
        from repro.lang.ast_nodes import Publish, WhenRequired

        return any(
            not isinstance(interaction, WhenRequired)
            and interaction.publish is not Publish.NO
            for interaction in self.decl.interactions
        )


@dataclass
class ControllerInfo:
    """A controller declaration (no result type: controllers never publish)."""

    name: str
    decl: ControllerDecl


@dataclass
class SymbolTable:
    """All resolved declarations of a design, by kind then name."""

    devices: Dict[str, DeviceInfo] = field(default_factory=dict)
    contexts: Dict[str, ContextInfo] = field(default_factory=dict)
    controllers: Dict[str, ControllerInfo] = field(default_factory=dict)

    def device(self, name: str) -> DeviceInfo:
        try:
            return self.devices[name]
        except KeyError:
            raise UnknownNameError(f"unknown device '{name}'") from None

    def context(self, name: str) -> ContextInfo:
        try:
            return self.contexts[name]
        except KeyError:
            raise UnknownNameError(f"unknown context '{name}'") from None

    def controller(self, name: str) -> ControllerInfo:
        try:
            return self.controllers[name]
        except KeyError:
            raise UnknownNameError(f"unknown controller '{name}'") from None

    def kind_of(self, name: str) -> Optional[str]:
        """Return 'device', 'context' or 'controller', or None."""
        if name in self.devices:
            return "device"
        if name in self.contexts:
            return "context"
        if name in self.controllers:
            return "controller"
        return None
