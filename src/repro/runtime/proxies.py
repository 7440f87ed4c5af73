"""Device proxies: how application code touches entities.

Figure 11 of the paper shows a controller displaying availability with::

    discover.parkingEntrancePanels().whereLocation(lot).update(status)

— "a set of proxies for invoking remote devices without the need for
managing distributed systems details".  :class:`DeviceProxy` wraps one
instance; :class:`ProxySet` is an immutable collection with chainable
attribute filters (``where_location(...)``) and broadcast actions.

Proxy methods are resolved dynamically from the device declaration:
sources become query methods (``proxy.consumption()``), actions become
action methods (``panel.update(status="FULL: 0")``), attributes become
read-only properties (``sensor.parking_lot``).
"""

from __future__ import annotations

from collections import namedtuple
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import ActuationError, DiscoveryError
from repro.naming import action_method_name, camel_to_snake, query_method_name
from repro.runtime.device import DeviceInstance


#: A declaration's proxy method names, each mapped to the facet it
#: reaches: built once per declaration, shared by its proxies.
Facets = namedtuple("Facets", ("sources", "actions", "attributes"))


def facets_of(info) -> Facets:
    """The :class:`Facets` of declaration ``info``."""
    facets = info.__dict__.get("_facets")
    if facets is None:
        facets = info._facets = Facets(
            {query_method_name(name): name for name in info.sources},
            {action_method_name(name): name for name in info.actions},
            {camel_to_snake(name): name for name in info.attributes},
        )
    return facets


class DeviceProxy:
    """A typed handle on a single bound device instance."""

    __slots__ = ("_instance", "_facets")

    def __init__(self, instance: DeviceInstance):
        object.__setattr__(self, "_instance", instance)
        object.__setattr__(self, "_facets", facets_of(instance.info))

    @property
    def entity_id(self) -> str:
        return self._instance.entity_id

    @property
    def device_type(self) -> str:
        return self._instance.info.name

    @property
    def attributes(self) -> Dict[str, Any]:
        return dict(self._instance.attributes)

    @property
    def instance(self) -> DeviceInstance:
        """Escape hatch for tooling; applications should not need it."""
        return self._instance

    def query(self, source: str) -> Any:
        """Query-driven delivery of one source reading."""
        return self._instance.read(source)

    def act(self, action: str, **params: Any) -> Any:
        return self._instance.act(action, **params)

    def __getattr__(self, name: str) -> Any:
        sources, actions, attributes = object.__getattribute__(self, "_facets")
        if name in sources:
            source = sources[name]
            return lambda: self._instance.read(source)
        if name in actions:
            action = actions[name]
            return lambda **params: self._instance.act(action, **params)
        if name in attributes:
            return self._instance.attributes[attributes[name]]
        raise AttributeError(
            f"device {self.device_type} has no facet '{name}'"
        )

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("device proxies are read-only handles")

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DeviceProxy)
            and other._instance is self._instance
        )

    def __hash__(self) -> int:
        return hash(id(self._instance))

    def __repr__(self) -> str:
        return f"<proxy {self.device_type} {self.entity_id}>"


def filter_names(infos: Iterable[Any]) -> Dict[str, str]:
    """Every spelling a discovery filter may use — the declared name
    (``parkingLot``) and its snake-case form (``parking_lot``) of each
    attribute the declarations ``infos`` carry — mapped to the declared
    name, which is what instances are keyed by."""
    declared = [name for info in infos for name in info.attributes]
    names = {camel_to_snake(name): name for name in declared}
    names.update((name, name) for name in declared)
    return names


def resolve_filters(
    device_type: str, names: Dict[str, str], filters: Dict[str, Any]
) -> Dict[str, Any]:
    """Discovery filters keyed by declared attribute name.  A name that
    is no spelling of a declared attribute could only ever select
    nothing: :class:`DiscoveryError`."""
    try:
        return {names[name]: value for name, value in filters.items()}
    except KeyError as unknown:
        declared = sorted(set(names.values()))
        raise DiscoveryError(
            f"device '{device_type}' has no attribute {unknown} to filter "
            f"by (attributes: {', '.join(declared) or 'none'})"
        ) from None


class ProxySet:
    """An immutable, order-preserving set of device proxies.

    Filters return new sets; calling an action method broadcasts to every
    member and returns the per-entity results.  ``names`` is the
    :func:`filter_names` table of the declaration the set was discovered
    against; a set built by hand derives it from its members.

    A set that :meth:`discovered` built is a registry query until its
    members are first looked at (iterated, counted, indexed, acted on):
    that look runs the query and freezes the result, so the set is a
    snapshot of the moment it was first used.
    """

    def __init__(
        self,
        device_type: str,
        proxies: Iterable[DeviceProxy],
        names: Optional[Dict[str, str]] = None,
    ):
        self._device_type = device_type
        self._frozen: Optional[Tuple[DeviceProxy, ...]] = tuple(proxies)
        self._query: Optional[Tuple[Any, Dict[str, Any]]] = None
        self._names = names

    @classmethod
    def discovered(
        cls,
        registry,
        device_type: str,
        names: Dict[str, str],
        filters: Dict[str, Any],
    ) -> "ProxySet":
        """The bound ``device_type`` instances matching ``filters``
        (keyed by declared attribute name), looked up at first use."""
        found = cls(device_type, (), names)
        found._frozen = None
        found._query = (registry, filters)
        return found

    @property
    def _proxies(self) -> Tuple[DeviceProxy, ...]:
        proxies = self._frozen
        if proxies is None:
            registry, filters = self._query
            found = registry.instances_of(self._device_type, **filters)
            proxies = self._frozen = tuple(map(make_proxy, found))
        return proxies

    # -- collection protocol --------------------------------------------------

    def __iter__(self) -> Iterator[DeviceProxy]:
        return iter(self._proxies)

    def __len__(self) -> int:
        return len(self._proxies)

    def __bool__(self) -> bool:
        return bool(self._proxies)

    def __getitem__(self, index: int) -> DeviceProxy:
        return self._proxies[index]

    @property
    def device_type(self) -> str:
        return self._device_type

    def entity_ids(self) -> List[str]:
        return [proxy.entity_id for proxy in self._proxies]

    # -- selection -------------------------------------------------------------

    def where(self, **attribute_filters: Any) -> "ProxySet":
        """Keep proxies whose attributes match all given values.

        Attribute names may be spelt as declared (``parkingLot``) or in
        snake case (``parking_lot``); a name the declaration does not
        know raises :class:`DiscoveryError`.  An empty hand-built set
        has no declaration to check against and stays empty.

        On a discovered set nobody has looked at yet this narrows the
        query, which the registry then answers from its attribute index
        instead of a scan over every member."""
        names = self._filter_names()
        if names is None:
            return self
        wanted = resolve_filters(self._device_type, names, attribute_filters)
        if self._frozen is None:
            registry, filters = self._query
            if any(
                filters.get(name, value) != value
                for name, value in wanted.items()
            ):
                return ProxySet(self._device_type, (), names)
            return ProxySet.discovered(
                registry, self._device_type, names, {**filters, **wanted}
            )
        kept = [
            proxy
            for proxy in self._proxies
            if all(
                proxy._instance.attributes.get(name) == value
                for name, value in wanted.items()
            )
        ]
        return ProxySet(self._device_type, kept, names)

    def _filter_names(self) -> Optional[Dict[str, str]]:
        """The :func:`filter_names` table; a hand-built set derives it
        from its members, and has none while it is empty."""
        if self._names is None and self._proxies:
            self._names = filter_names(
                proxy._instance.info for proxy in self._proxies
            )
        return self._names

    def distinct(self, attribute: str) -> List[Any]:
        """The values ``attribute`` (spelt as for :meth:`where`) takes
        over the members, each once, in member order: the ordered-unique
        ``[proxy.<attribute> for proxy in self]``, skipping members of
        a supertype set that do not declare it.

        On an unfiltered discovered set nobody has looked at yet the
        registry answers from its attribute index — "which lots are
        deployed?" costs one step per lot and builds no proxy."""
        names = self._filter_names()
        if names is None:
            return []
        (name,) = resolve_filters(self._device_type, names, {attribute: 0})
        if self._frozen is None and not self._query[1]:
            found = self._query[0].distinct_values(self._device_type, name)
            if found is not None:
                return found
        records = [proxy._instance.attributes for proxy in self._proxies]
        values = [record[name] for record in records if name in record]
        try:
            return list(dict.fromkeys(values))
        except TypeError:  # array-typed values are unhashable
            return [v for i, v in enumerate(values) if v not in values[:i]]

    def one(self) -> DeviceProxy:
        """Exactly one match, or :class:`DiscoveryError`."""
        if len(self._proxies) != 1:
            raise DiscoveryError(
                f"expected exactly one {self._device_type}, found "
                f"{len(self._proxies)}"
            )
        return self._proxies[0]

    def first(self) -> DeviceProxy:
        if not self._proxies:
            raise DiscoveryError(f"no {self._device_type} entity is bound")
        return self._proxies[0]

    # -- dynamic filter / broadcast methods --------------------------------------

    def __getattr__(self, name: str) -> Any:
        if name.startswith("where_"):
            attribute = name[len("where_") :]
            return lambda value: self.where(**{attribute: value})
        if self._proxies:
            sample = self._proxies[0]
            if name in sample._facets.actions:
                def broadcast(**params: Any) -> Dict[str, Any]:
                    return {
                        proxy.entity_id: proxy.act(
                            proxy._facets.actions[name], **params
                        )
                        for proxy in self._proxies
                    }

                return broadcast
            if name in sample._facets.sources:
                def gather() -> Dict[str, Any]:
                    return {
                        proxy.entity_id: proxy.query(
                            proxy._facets.sources[name]
                        )
                        for proxy in self._proxies
                    }

                return gather
        raise AttributeError(
            f"proxy set of {self._device_type} has no method '{name}' "
            "(empty sets only support filtering)"
        )

    def act(self, action: str, **params: Any) -> Dict[str, Any]:
        """Broadcast an action by its DiaSpec name."""
        if not self._proxies:
            raise ActuationError(
                f"no {self._device_type} entity to receive '{action}'"
            )
        return {
            proxy.entity_id: proxy.act(action, **params)
            for proxy in self._proxies
        }

    def __repr__(self) -> str:
        return f"<proxies {self._device_type} x{len(self._proxies)}>"


def make_proxy(instance: DeviceInstance) -> DeviceProxy:
    """Proxy for ``instance``, cached on the instance.

    Proxies are immutable views (facet tables derive from the device
    *declaration*; attribute reads go through to the live instance), so
    one proxy per instance is safe and saves rebuilding the facet tables
    on every event and every gathering sweep.
    """
    proxy = getattr(instance, "_cached_proxy", None)
    if proxy is None:
        proxy = DeviceProxy(instance)
        instance._cached_proxy = proxy
    return proxy
