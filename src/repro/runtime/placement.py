"""Edge/cloud placement tier: the fog continuum.

The paper's large-scale story (Section VI) assumes sensor readings cross
a wide-area network before they are aggregated.  The placement tier
lets a deployment put the map and map-side combine of a ``grouped by …
with map … reduce …`` context *at the edge* — one :class:`EdgeNode` per
shard-attribute value (a parking lot, a building, a cell) — so only
per-group partial aggregates transit the simulated edge→cloud WAN hop
while raw readings stop at the access network:

* :class:`Tier` — the continuum: ``DEVICE`` / ``EDGE`` / ``CLOUD``.
* :class:`EdgeNode` — one edge execution site and the shard-attribute
  values it owns.
* :class:`NetworkConfig` — frozen description of the simulated network;
  builds a :class:`~repro.simulation.network.TopologyModel` per
  application.
* :class:`PlacementConfig` — the frozen deployment settings of the
  tier on :class:`~repro.runtime.config.RuntimeConfig` (which attribute
  names an entity's edge node, which nodes exist).  Whether there is a
  tier is a fact of the design: an application builds one exactly when
  some context is declared ``at edge``.
* :class:`PlacementExecutor` — the runtime half: partitions a sweep's
  readings across edge nodes, runs map + combine per node with the
  sharded runtime's ``(rank, position, emission)`` tags, ships the
  surviving partials over the WAN hop with byte accounting, and hands
  them to :meth:`MapReduceEngine.merge_partials` for the cloud-side
  final reduce.

Determinism contract: with every hop at zero loss, edge-placed
execution produces **byte-identical** context payloads to the cloud-only
path when the job has no combiner, and associative-identical payloads
with one — exactly the guarantee the process-sharded runtime makes,
because both reuse the same tag protocol and the same final reduce.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import count
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.errors import PlacementError
from repro.mapreduce.engine import map_partition, sequence_partials
from repro.mapreduce.partition import extend_each
from repro.runtime.configbase import ConfigBase
from repro.simulation.network import TopologyModel, hop_items
from repro.telemetry.instrument import Instrumented, MetricSpec

__all__ = [
    "EdgeNode",
    "EntityPlacement",
    "NetworkConfig",
    "PlacementConfig",
    "PlacementExecutor",
    "Tier",
    "payload_nbytes",
]

# Hop names of the two-level continuum.  A topology may declare any
# hops; these are the two the placement tier routes reads (access) and
# partials (wan) over.
ACCESS_HOP = "access"
WAN_HOP = "wan"


class Tier(enum.Enum):
    """Where on the device/edge/cloud continuum a computation runs."""

    DEVICE = "device"
    EDGE = "edge"
    CLOUD = "cloud"

    @classmethod
    def parse(cls, value: Any) -> "Tier":
        """Coerce a tier name (or Tier) with a typed placement error."""
        if isinstance(value, cls):
            return value
        try:
            return cls(value)
        except ValueError:
            names = ", ".join(tier.value for tier in cls)
            raise PlacementError(
                f"unknown placement tier {value!r} (expected one of "
                f"{names})"
            ) from None


def payload_nbytes(value: Any) -> int:
    """Modeled wire size of a payload: bytes of its canonical repr.

    Deliberately representation-level, not serialization-level — the
    simulation compares traffic *shapes* (raw readings vs partial
    aggregates), and ``repr`` is already the runtime's canonical content
    form (trace output)."""
    return len(repr(value).encode("utf-8"))


@dataclass(frozen=True)
class EdgeNode:
    """One edge execution site and the shard-attribute values it owns.

    ``values`` are entity attribute values (e.g. ``parkingLot`` names)
    whose readings aggregate at this node.  A placement with no declared
    nodes creates one implicit node per distinct attribute value.
    """

    node_id: str
    values: Tuple[Any, ...] = ()

    def __post_init__(self):
        if not self.node_id:
            raise PlacementError("an EdgeNode needs a non-empty node_id")
        object.__setattr__(self, "values", tuple(self.values))


@dataclass(frozen=True)
class EntityPlacement:
    """Per-entity placement from a deployment descriptor.

    ``tier`` is where the entity itself lives (devices are
    ``Tier.DEVICE``); ``node`` names the :class:`EdgeNode` that fronts
    it, overriding attribute-based node assignment.
    """

    tier: Tier = Tier.DEVICE
    node: Optional[str] = None

    def __post_init__(self):
        object.__setattr__(self, "tier", Tier.parse(self.tier))


@dataclass(frozen=True)
class NetworkConfig(ConfigBase):
    """Frozen description of the simulated network: a chain of named
    hops (conventionally ``access`` + ``wan``).  A single link is one
    hop, ``NetworkConfig(hops={"link": HopProfile(latency=…)})``.
    ``apply_to_reads`` extends loss to polled gather reads.

    The config is immutable deployment data; :meth:`build` constructs a
    fresh stateful model (RNG streams, counters) per application, so
    two apps never share delivery state by accident.
    """

    seed: int = 0
    apply_to_reads: bool = False
    hops: Any = ()

    def __post_init__(self):
        object.__setattr__(self, "hops", hop_items(self.hops))

    def hop_names(self) -> Tuple[str, ...]:
        return tuple(name for name, __ in self.hops)

    def build(self) -> Optional[TopologyModel]:
        """A fresh stateful topology, or ``None`` when there are no
        hops."""
        if not self.hops:
            return None
        return TopologyModel(self.hops, seed=self.seed)


@dataclass(frozen=True)
class PlacementConfig(ConfigBase):
    """Where the edge nodes of the placement tier are.

    * ``edge_attribute`` — entity attribute naming each entity's edge
      node; ``None`` falls back to the interaction's ``grouped by``
      attribute (the natural edge boundary of the paper's parking
      fleet).
    * ``edge_nodes`` — explicit :class:`EdgeNode` declarations; empty
      means one implicit node per distinct attribute value.

    A context runs at the edge only when the design annotates it
    ``at edge``, and an application builds its tier exactly when some
    context is; every other context runs in the cloud.  Reads cross
    the topology's ``access`` hop and partials its ``wan`` hop
    (:data:`ACCESS_HOP` / :data:`WAN_HOP`).
    """

    edge_attribute: Optional[str] = None
    edge_nodes: Tuple[EdgeNode, ...] = ()

    def __post_init__(self):
        nodes = tuple(self.edge_nodes)
        seen_ids: set = set()
        seen_values: set = set()
        for node in nodes:
            if not isinstance(node, EdgeNode):
                raise TypeError("edge_nodes must be EdgeNode records")
            if node.node_id in seen_ids:
                raise PlacementError(
                    f"duplicate edge node '{node.node_id}'",
                    node=node.node_id,
                )
            seen_ids.add(node.node_id)
            for value in node.values:
                if value in seen_values:
                    raise PlacementError(
                        f"attribute value {value!r} is owned by more "
                        "than one edge node",
                        node=node.node_id,
                    )
                seen_values.add(value)
        object.__setattr__(self, "edge_nodes", nodes)


class PlacementExecutor(Instrumented):
    """Runtime half of the placement tier, one per application.

    Owns the entity→node assignment state and the WAN-side accounting;
    the application calls :meth:`run_edge` for edge-placed MapReduce
    gathers and :meth:`account_cloud` for everything else, so
    ``placement_bytes_wan_total`` compares the two execution shapes
    directly.
    """

    metric_specs = (
        MetricSpec(
            "placement_edge_sweeps_total",
            "_edge_sweeps",
            stats_key="edge_sweeps",
            help="Periodic gathers executed with the edge split.",
        ),
        MetricSpec(
            "placement_partials_sent_total",
            "_partials_sent",
            stats_key="partials_sent",
            help="Per-group partial aggregates shipped edge->cloud.",
        ),
        MetricSpec(
            "placement_partials_dropped_total",
            "_partials_dropped",
            stats_key="partials_dropped",
            help="Partial aggregates lost on the WAN hop.",
        ),
        MetricSpec(
            "placement_raw_readings_total",
            "_raw_sent",
            stats_key="raw_readings",
            help="Raw readings shipped over the WAN by cloud-placed "
            "gathers.",
        ),
        MetricSpec(
            "placement_bytes_wan_total",
            "_wan_bytes",
            stats_key="wan_bytes",
            help="Modeled gather bytes crossing the edge->cloud hop "
            "(raw readings or partials, by placement).",
        ),
        MetricSpec(
            "placement_edge_nodes",
            "_last_nodes",
            kind="gauge",
            stats_key="edge_nodes",
            help="Edge nodes that participated in the last edge sweep.",
        ),
    )

    def __init__(
        self,
        config: PlacementConfig,
        network: Optional[TopologyModel] = None,
        metrics=None,
    ):
        self.config = config
        self.topology = network
        self._has_access = (
            self.topology is not None and ACCESS_HOP in self.topology.hop_names
        )
        self._has_wan = (
            self.topology is not None and WAN_HOP in self.topology.hop_names
        )
        self._owner: Dict[Any, str] = {
            value: node.node_id
            for node in config.edge_nodes
            for value in node.values
        }
        self._node_ids = {node.node_id for node in config.edge_nodes}
        self._assignments: Dict[str, str] = {}
        self._edge_sweeps = 0
        self._partials_sent = 0
        self._partials_dropped = 0
        self._raw_sent = 0
        self._wan_bytes = 0
        self._last_nodes = 0
        if metrics is not None:
            self.attach_metrics(metrics)

    # -- assignment -----------------------------------------------------

    def assign(self, entity_id: str, node_id: str) -> None:
        """Pin an entity to an edge node (descriptor ``placement:``).

        Explicit assignments win over attribute-based ownership.  When
        the config declares edge nodes, the node must be one of them.
        """
        if self._node_ids and node_id not in self._node_ids:
            raise PlacementError(
                f"entity '{entity_id}' is placed on unknown edge node "
                f"'{node_id}'",
                entity_id=entity_id,
                node=node_id,
            )
        self._assignments[entity_id] = node_id

    def node_for(self, instance, fallback_attribute: str) -> str:
        """The edge node owning one entity's readings."""
        node = self._assignments.get(instance.entity_id)
        if node is not None:
            return node
        attribute = self.config.edge_attribute or fallback_attribute
        try:
            value = instance.attributes[attribute]
        except KeyError:
            raise PlacementError(
                f"entity '{instance.entity_id}' has no attribute "
                f"'{attribute}' to place it on an edge node",
                entity_id=instance.entity_id,
            ) from None
        owner = self._owner.get(value)
        if owner is not None:
            return owner
        if self._owner:
            raise PlacementError(
                f"attribute value {value!r} of entity "
                f"'{instance.entity_id}' is owned by no declared edge "
                "node",
                entity_id=instance.entity_id,
            )
        return str(value)

    # -- placement resolution -------------------------------------------

    def tier_for(self, decl) -> Tier:
        """Effective tier of a context declaration."""
        annotation = getattr(decl, "placement", None)
        if annotation:
            return Tier.parse(annotation)
        return Tier.CLOUD

    def splits(self, decl, interaction) -> bool:
        """Whether this periodic interaction runs the edge split."""
        group = getattr(interaction, "group", None)
        return (
            group is not None
            and group.uses_mapreduce
            and self.tier_for(decl) is Tier.EDGE
        )

    # -- WAN accounting --------------------------------------------------

    def account_cloud(self, readings: Iterable[Tuple[Any, Any]]) -> None:
        """Account a cloud-placed gather: raw readings cross the WAN."""
        topology = self.topology
        for __, value in readings:
            nbytes = payload_nbytes(value)
            self._raw_sent += 1
            self._wan_bytes += nbytes
            if topology is not None:
                topology.account(None, nbytes)

    def _account_access(self, nbytes: int) -> None:
        if self._has_access:
            self.topology.account((ACCESS_HOP,), nbytes)

    def _send_wan(self, nbytes: int) -> bool:
        self._wan_bytes += nbytes
        if self._has_wan:
            return self.topology.send(WAN_HOP, nbytes)
        return True

    def note_edge_sweep(self, node_count: int) -> None:
        """Record one edge-split sweep driven elsewhere (shard
        coordinator: one edge node per worker shard)."""
        self._edge_sweeps += 1
        self._last_nodes = node_count

    def deliver_partials(self, tagged_pairs):
        """Ship tagged partials edge->cloud; returns the survivors.

        One WAN message per partial pair — loss on the WAN drops whole
        partial aggregates, never raw readings (they stopped at the
        access network)."""
        survivors = []
        for tag, key, value in tagged_pairs:
            self._partials_sent += 1
            if self._send_wan(payload_nbytes((key, value))):
                survivors.append((tag, key, value))
            else:
                self._partials_dropped += 1
        return survivors

    # -- the edge split --------------------------------------------------

    def run_edge(self, engine, job, instances, values, columns, attribute):
        """Edge-placed MapReduce over one sweep's aligned ``instances``
        and ``values`` columns, grouped by ``attribute`` through their
        :class:`~repro.runtime.grouping.KeyColumns`.

        Reproduces the sharded runtime's discipline with edge nodes in
        place of shards: each node maps its rows in the sweep's
        ``(group rank, position)`` order through
        :func:`~repro.mapreduce.engine.map_partition`, tagged, and the
        partials that survive the WAN merge through the engine's
        coordinator-side final reduce.  The node is asked per entity
        (:meth:`assign` moves one without a membership change).
        """
        self._edge_sweeps += 1
        keys = columns.keys(attribute)
        nodes = []
        for instance, value in zip(instances, values):
            self._account_access(payload_nbytes(value))
            nodes.append(self.node_for(instance, attribute))
        table, order = columns.groups(attribute)
        rows: Dict[str, List[int]] = {
            node: [] for node in dict.fromkeys(nodes)
        }
        extend_each(map(nodes.__getitem__, order), rows, order)
        self._last_nodes = len(rows)
        ranks = dict(zip(table, count()))
        tagged = []
        mapped = 0
        for node in sorted(rows):
            pairs, emitted = map_partition(
                job, keys, values, rows[node], ranks, columns.positions
            )
            mapped += emitted
            tagged.extend(self.deliver_partials(pairs))
        return engine.merge_partials(job, sequence_partials(tagged), mapped)
