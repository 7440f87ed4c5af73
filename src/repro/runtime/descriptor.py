"""Declarative deployment descriptors.

Entity binding starts with registration: "when sensors are deployed in a
house or in a parking lot, each sensor needs to be registered and
attribute values defined" (§IV).  A deployment descriptor is that
registration record in data form — a JSON-compatible structure listing
every entity with its type, identity, attribute values, driver, and
binding time — so a deployment can be versioned, validated, and applied
to an application without code.

::

    {
      "name": "downtown-pilot",
      "entities": [
        {"type": "PresenceSensor", "id": "s-A22-0",
         "attributes": {"parkingLot": "A22"},
         "driver": "presence", "config": {"lot": "A22", "space": 0},
         "binding": "deployment"}
      ]
    }

Driver names resolve through a :class:`DriverCatalog` of factories, the
code-side counterpart of the descriptor.

A descriptor may also carry the *where* of a deployment: a ``topology``
section describing the device→edge→cloud path and the edge nodes of the
site, and a per-entity ``placement`` record pinning an entity to a tier
and node::

    {
      "name": "downtown-pilot",
      "topology": {
        "seed": 7,
        "edge_attribute": "parkingLot",
        "hops": {"access": {"latency": 0.002},
                 "wan": {"latency": 0.08, "bandwidth": 1000000.0}},
        "edge_nodes": [{"id": "cab-A22", "values": ["A22"]}]
      },
      "entities": [
        {"type": "PresenceSensor", "id": "s-A22-0", "driver": "presence",
         "attributes": {"parkingLot": "A22"},
         "placement": {"tier": "edge", "node": "cab-A22"}}
      ]
    }

:meth:`DeploymentDescriptor.network_config` and
:meth:`DeploymentDescriptor.placement_config` turn the topology section
into the frozen config objects :class:`repro.runtime.config.RuntimeConfig`
expects, so one JSON file describes both the fleet and the continuum it
runs on.

A ``shard`` entry inside ``topology`` declares that the site runs the
process-sharded runtime::

    "topology": {
      "shard": {"workers": 4, "start_method": "spawn"}
    }

:meth:`DeploymentDescriptor.shard_config` turns it into an enabled
:class:`~repro.runtime.shard.ShardConfig` (``None`` when the section is
absent), so case-study apps can opt a deployment into sharding from the
descriptor alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.errors import BindingError, PlacementError
from repro.runtime.binding import BindingTime, Deployment
from repro.runtime.device import DeviceDriver, DeviceInstance
from repro.runtime.placement import (
    EdgeNode,
    EntityPlacement,
    NetworkConfig,
    PlacementConfig,
)
from repro.runtime.shard import ShardConfig
from repro.simulation.network import HopProfile


class DriverCatalog:
    """Named driver factories referenced by descriptors."""

    def __init__(self):
        self._factories: Dict[str, Callable[..., DeviceDriver]] = {}

    def register(
        self, name: str, factory: Callable[..., DeviceDriver]
    ) -> None:
        if name in self._factories:
            raise BindingError(f"driver '{name}' is already registered")
        self._factories[name] = factory

    def create(self, name: str, **config: Any) -> DeviceDriver:
        try:
            factory = self._factories[name]
        except KeyError:
            raise BindingError(
                f"no driver factory named '{name}' in the catalog"
            ) from None
        return factory(**config)

    def names(self) -> List[str]:
        return sorted(self._factories)

    def __contains__(self, name: str) -> bool:
        return name in self._factories


@dataclass(frozen=True)
class EntityRecord:
    """One entity entry of a descriptor."""

    device_type: str
    entity_id: str
    driver: str
    attributes: Dict[str, Any] = field(default_factory=dict)
    config: Dict[str, Any] = field(default_factory=dict)
    binding: BindingTime = BindingTime.DEPLOYMENT
    placement: Optional[EntityPlacement] = None


@dataclass(frozen=True)
class TopologySection:
    """The parsed ``topology`` section of a descriptor."""

    hops: Tuple[Tuple[str, HopProfile], ...] = ()
    edge_nodes: Tuple[EdgeNode, ...] = ()
    edge_attribute: Optional[str] = None
    seed: int = 0
    shard: Optional[Tuple[Tuple[str, Any], ...]] = None

    def network_config(self, **overrides: Any) -> NetworkConfig:
        """Build the :class:`NetworkConfig` this topology describes."""
        settings: Dict[str, Any] = {"hops": self.hops, "seed": self.seed}
        settings.update(overrides)
        return NetworkConfig(**settings)

    def placement_config(self, **overrides: Any) -> PlacementConfig:
        """Build the :class:`PlacementConfig` locating this site's edge
        nodes (the tier itself exists when the design places a context
        ``at edge``)."""
        settings: Dict[str, Any] = {
            "edge_nodes": self.edge_nodes,
            "edge_attribute": self.edge_attribute,
        }
        settings.update(overrides)
        return PlacementConfig(**settings)

    def shard_config(self, **overrides: Any) -> Optional[ShardConfig]:
        """Build an enabled :class:`ShardConfig` for this site.

        ``None`` when the descriptor declares no ``shard`` section — the
        deployment runs single-process.
        """
        if self.shard is None:
            return None
        settings: Dict[str, Any] = {"enabled": True}
        settings.update(self.shard)
        settings.update(overrides)
        return ShardConfig(**settings)


@dataclass(frozen=True)
class DeploymentDescriptor:
    """A parsed, structurally valid deployment description."""

    name: str
    entities: tuple
    topology: Optional[TopologySection] = None

    @property
    def entity_count(self) -> int:
        return len(self.entities)

    def by_binding(self, when: BindingTime) -> List[EntityRecord]:
        return [e for e in self.entities if e.binding is when]

    def network_config(self, **overrides: Any) -> Optional[NetworkConfig]:
        if self.topology is None:
            return None
        return self.topology.network_config(**overrides)

    def placement_config(self, **overrides: Any) -> Optional[PlacementConfig]:
        if self.topology is None:
            return None
        return self.topology.placement_config(**overrides)

    def shard_config(self, **overrides: Any) -> Optional[ShardConfig]:
        if self.topology is None:
            return None
        return self.topology.shard_config(**overrides)


_HOP_FIELDS = ("latency", "jitter", "loss", "bandwidth")
_SHARD_FIELDS = tuple(f.name for f in fields(ShardConfig))


def _parse_shard(raw: Any) -> Tuple[Tuple[str, Any], ...]:
    if not isinstance(raw, dict):
        raise BindingError("topology 'shard' must be a JSON object")
    unknown = sorted(set(raw) - set(_SHARD_FIELDS))
    if unknown:
        raise BindingError(
            f"topology shard: unknown fields {unknown} "
            f"(expected any of: {', '.join(_SHARD_FIELDS)})"
        )
    # Fail at load time, not first use: the section must describe a
    # valid ShardConfig (an enabled one unless it says otherwise).
    try:
        ShardConfig(**{"enabled": True, **raw})
    except (TypeError, ValueError) as exc:
        raise BindingError(f"topology shard: {exc}") from None
    return tuple(sorted(raw.items()))


def _parse_topology(raw: Any) -> TopologySection:
    if not isinstance(raw, dict):
        raise BindingError("'topology' must be a JSON object")
    raw_hops = raw.get("hops", {})
    if not isinstance(raw_hops, dict):
        raise BindingError("topology 'hops' must be an object of profiles")
    hops = []
    for hop_name, settings in raw_hops.items():
        where = f"topology hop '{hop_name}'"
        if not isinstance(settings, dict):
            raise BindingError(f"{where}: profile must be an object")
        unknown = sorted(set(settings) - set(_HOP_FIELDS))
        if unknown:
            raise BindingError(
                f"{where}: unknown profile fields {unknown} "
                f"(expected any of: {', '.join(_HOP_FIELDS)})"
            )
        try:
            profile = HopProfile(**settings)
        except (TypeError, ValueError) as exc:
            raise BindingError(f"{where}: {exc}") from None
        hops.append((hop_name, profile))

    raw_nodes = raw.get("edge_nodes", [])
    if not isinstance(raw_nodes, list):
        raise BindingError("topology 'edge_nodes' must be a list")
    nodes = []
    for index, entry in enumerate(raw_nodes):
        where = f"topology edge_nodes[{index}]"
        if not isinstance(entry, dict) or "id" not in entry:
            raise BindingError(f"{where}: entries must be objects with 'id'")
        values = entry.get("values", ())
        if not isinstance(values, (list, tuple)):
            raise BindingError(f"{where}: 'values' must be a list")
        nodes.append(EdgeNode(entry["id"], tuple(values)))

    edge_attribute = raw.get("edge_attribute")
    if edge_attribute is not None and not isinstance(edge_attribute, str):
        raise BindingError("topology 'edge_attribute' must be a string")
    seed = raw.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise BindingError("topology 'seed' must be an integer")
    shard = None
    if "shard" in raw:
        shard = _parse_shard(raw["shard"])
    return TopologySection(
        hops=tuple(hops),
        edge_nodes=tuple(nodes),
        edge_attribute=edge_attribute,
        seed=seed,
        shard=shard,
    )


def _parse_placement(
    where: str, raw: Any, entity_id: str, node_ids: set
) -> EntityPlacement:
    if not isinstance(raw, dict):
        raise BindingError(f"{where}: 'placement' must be an object")
    unknown = sorted(set(raw) - {"tier", "node"})
    if unknown:
        raise BindingError(
            f"{where}: unknown placement fields {unknown} "
            "(expected 'tier' and/or 'node')"
        )
    node = raw.get("node")
    if node is not None and not isinstance(node, str):
        raise BindingError(f"{where}: placement 'node' must be a string")
    if node is not None and node_ids and node not in node_ids:
        raise PlacementError(
            f"{where}: placement node '{node}' is not a declared edge "
            f"node (declared: {', '.join(sorted(node_ids))})",
            entity_id=entity_id,
            node=node,
        )
    # Tier.parse raises a typed PlacementError on unknown tier names.
    return EntityPlacement(tier=raw.get("tier", "device"), node=node)


def load_descriptor(
    source: Union[str, Dict[str, Any]]
) -> DeploymentDescriptor:
    """Parse a descriptor from a JSON string or an already-loaded dict."""
    if isinstance(source, str):
        try:
            data = json.loads(source)
        except json.JSONDecodeError as exc:
            raise BindingError(f"descriptor is not valid JSON: {exc}")
    else:
        data = source
    if not isinstance(data, dict):
        raise BindingError("descriptor must be a JSON object")
    raw_entities = data.get("entities")
    if not isinstance(raw_entities, list):
        raise BindingError("descriptor needs an 'entities' list")

    topology = None
    if "topology" in data:
        topology = _parse_topology(data["topology"])
    node_ids = (
        {node.node_id for node in topology.edge_nodes} if topology else set()
    )

    entities = []
    seen_ids = set()
    for index, raw in enumerate(raw_entities):
        where = f"entities[{index}]"
        if not isinstance(raw, dict):
            raise BindingError(f"{where}: entries must be objects")
        for required in ("type", "id", "driver"):
            if required not in raw:
                raise BindingError(f"{where}: missing '{required}'")
        entity_id = raw["id"]
        if entity_id in seen_ids:
            raise BindingError(f"{where}: duplicate entity id '{entity_id}'")
        seen_ids.add(entity_id)
        binding_name = raw.get("binding", "deployment")
        try:
            binding = BindingTime(binding_name)
        except ValueError:
            valid = ", ".join(t.value for t in BindingTime)
            raise BindingError(
                f"{where}: unknown binding time '{binding_name}' "
                f"(expected one of: {valid})"
            ) from None
        placement = None
        if "placement" in raw:
            placement = _parse_placement(
                where, raw["placement"], entity_id, node_ids
            )
        entities.append(
            EntityRecord(
                device_type=raw["type"],
                entity_id=entity_id,
                driver=raw["driver"],
                attributes=dict(raw.get("attributes", {})),
                config=dict(raw.get("config", {})),
                binding=binding,
                placement=placement,
            )
        )
    return DeploymentDescriptor(
        name=data.get("name", "deployment"),
        entities=tuple(entities),
        topology=topology,
    )


def apply_descriptor(
    application,
    descriptor: DeploymentDescriptor,
    catalog: DriverCatalog,
) -> Deployment:
    """Stage every descriptor entity into a :class:`Deployment`.

    Device types, attribute names/values, driver names and entity ids
    are validated against the design, the catalog and the bound
    registry before anything binds, so a bad descriptor fails
    atomically.  Per-entity edge-node pins apply when the application
    has a placement tier (a context declared ``at edge``); otherwise
    there is no node to pin to and they are skipped.
    """
    instances = []
    for record in descriptor.entities:
        if record.entity_id in application.registry:
            raise BindingError(
                f"entity id '{record.entity_id}' is already registered"
            )
        if record.device_type not in application.design.devices:
            raise BindingError(
                f"entity '{record.entity_id}': device type "
                f"'{record.device_type}' is not in the design"
            )
        if record.driver not in catalog:
            raise BindingError(
                f"entity '{record.entity_id}': unknown driver "
                f"'{record.driver}'"
            )
        driver = catalog.create(record.driver, **record.config)
        instance = DeviceInstance(
            application.design.devices[record.device_type],
            record.entity_id,
            driver,
            record.attributes,
        )
        instances.append((record, instance))

    # Configuration-time entities bind now, as one column, and every
    # later stage binds as one column of its own.
    deployment, now = Deployment(application), BindingTime.CONFIGURATION
    application.bind_instances(
        [instance for record, instance in instances if record.binding is now]
    )
    for record, instance in instances:
        if record.binding is not now:
            deployment.stage(instance, record.binding)
    if getattr(application, "placement", None) is not None:
        for record, _ in instances:
            if record.placement is not None and record.placement.node:
                application.assign_edge_node(
                    record.entity_id, record.placement.node
                )
    return deployment
