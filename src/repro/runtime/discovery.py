"""The ``discover`` object handed to context and controller callbacks.

Entity discovery is invoked "in the implementation of the context and
controller components, as opposed to statically in the design"
(Section IV.1) — this is runtime binding.  A :class:`Discover` instance
exposes:

* per-device-type accessors returning :class:`~repro.runtime.proxies.ProxySet`
  objects — ``discover.parking_entrance_panels()`` in snake case, or
  ``discover.devices("ParkingEntrancePanel")`` by DiaSpec name;
* query-driven pulls of other contexts — ``discover.context_value(name)``
  — allowed only for contexts that declare ``when required``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.errors import DiscoveryError
from repro.naming import proxy_set_method_name
from repro.runtime.proxies import (
    ProxySet,
    filter_names,
    make_proxy,
    resolve_filters,
)
from repro.runtime.registry import EntityRegistry
from repro.sema.analyzer import AnalyzedSpec


class Discover:
    """Discovery façade scoped to one application."""

    def __init__(
        self,
        design: AnalyzedSpec,
        registry: EntityRegistry,
        context_query: Optional[Callable[[str], Any]] = None,
    ):
        self._design = design
        self._registry = registry
        self._context_query = context_query
        self._accessors: Dict[str, str] = {
            proxy_set_method_name(name): name
            for name in design.devices
        }
        # device type -> filter_names table, built on first discovery.
        self._filter_names: Dict[str, Dict[str, str]] = {}

    def _names_for(self, device_type: str) -> Dict[str, str]:
        """Filter spellings for ``device_type``: its own attributes and
        those of its subtypes, whose instances the lookup also returns."""
        names = self._filter_names.get(device_type)
        if names is None:
            devices = self._design.devices
            family = [devices[device_type]]
            for info in family:  # grows as it is walked: all descendants
                family.extend(devices[name] for name in info.subtypes)
            names = self._filter_names[device_type] = filter_names(family)
        return names

    def devices(self, device_type: str, **attribute_filters: Any) -> ProxySet:
        """All bound instances of ``device_type`` (or its subtypes),
        optionally narrowed by attribute values — as of the moment the
        returned set is first used; until then ``.where()`` narrows the
        same registry query.

        Filter names are resolved once, against the declaration: the
        declared spelling (``parkingLot="A22"``) and its snake-case form
        (``parking_lot="A22"``) both work here and in
        :meth:`ProxySet.where`; any other name raises
        :class:`DiscoveryError`."""
        if device_type not in self._design.devices:
            raise DiscoveryError(
                f"'{device_type}' is not a device of this design"
            )
        names = self._names_for(device_type)
        return ProxySet.discovered(
            self._registry,
            device_type,
            names,
            resolve_filters(device_type, names, attribute_filters),
        )

    def device(self, entity_id: str):
        """A proxy for one specific entity id."""
        return make_proxy(self._registry.get(entity_id))

    def context_value(self, context_name: str) -> Any:
        """Query-driven pull of a ``when required`` context's value."""
        if self._context_query is None:
            raise DiscoveryError(
                "this discover object is not connected to a running "
                "application; context queries are unavailable"
            )
        if context_name not in self._design.contexts:
            raise DiscoveryError(
                f"'{context_name}' is not a context of this design"
            )
        if not self._design.contexts[context_name].is_queryable:
            raise DiscoveryError(
                f"context '{context_name}' does not declare 'when required' "
                "and cannot be queried"
            )
        return self._context_query(context_name)

    def __getattr__(self, name: str) -> Any:
        accessors = object.__getattribute__(self, "_accessors")
        if name in accessors:
            device_type = accessors[name]
            return lambda **filters: self.devices(device_type, **filters)
        raise AttributeError(f"no device accessor '{name}' in this design")

    def __repr__(self) -> str:
        return f"<discover over {len(self._registry)} bound entities>"
