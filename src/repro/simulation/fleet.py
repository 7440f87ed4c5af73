"""A spawn-safe simulated sensor fleet for the process-sharded runtime.

:class:`SimulatedFleetBootstrap` is the ready-made
:class:`~repro.runtime.shard.ShardBootstrap` the shard-scaling
benchmark, the spawn smoke test and the examples build from: a
zoned ``ShardSensor`` fleet over one
:class:`~repro.simulation.sensors.GatewaySubstrate` per process with a
grouped-MapReduce ``ZoneLoad`` context.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Optional, Sequence, TYPE_CHECKING

from repro.runtime.shard import ShardBootstrap, ShardConfig, ShardContext

if TYPE_CHECKING:  # pragma: no cover - hints only
    from repro.runtime.app import Application

__all__ = ["SimulatedFleetBootstrap"]

_FLEET_DESIGN = """\
device ShardSensor {
    attribute zone as ZoneEnum;
    source level as Integer;
}
enumeration ZoneEnum { Z0, Z1, Z2, Z3 }

context ZoneLoad as Integer {
    when periodic level from ShardSensor <1 min>
    grouped by zone
    with map as Integer reduce as Integer
    always publish;
}
"""

_ZONES = ("Z0", "Z1", "Z2", "Z3")

# app -> the GatewaySubstrate its bootstrap built, so bind_entity can
# attach late entities to the same per-process substrate without
# stashing live (unpicklable) objects on the frozen bootstrap record.
_SUBSTRATES: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


class _ZoneLoadJob:
    """Associative sum-per-zone MapReduce (exact under sharding).

    The combiner keeps the cross-process shuffle O(zones): each worker
    ships one partial sum per zone instead of one pair per device."""

    def map(self, zone, level, collector):
        collector.emit_map(zone, level)

    def combine(self, zone, values, collector):
        collector.emit_combine(zone, sum(values))

    def reduce(self, zone, values, collector):
        collector.emit_reduce(zone, sum(values))


def _level_model(draw: float) -> int:
    return int(draw * 100.0)


@dataclass(frozen=True)
class SimulatedFleetBootstrap(ShardBootstrap):
    """A ready-made picklable bootstrap over a simulated sensor fleet.

    Builds a ``count``-device fleet of ``ShardSensor`` entities (zoned
    round-robin) over one :class:`~repro.simulation.sensors.
    GatewaySubstrate` per process, with a periodic grouped-MapReduce
    ``ZoneLoad`` context.  ``service_time`` models per-device gateway
    read latency — the quantity the shard-scaling benchmark overlaps
    across worker processes.  Module-level and frozen, so it survives
    ``spawn`` pickling; the shard-scaling benchmark and the spawn smoke
    test both build from it.
    """

    count: int = 1000
    seed: int = 0
    service_time: float = 0.0
    shard: Optional[ShardConfig] = None
    cache: bool = False

    def fleet(self) -> Sequence[str]:
        return [f"shard-sensor-{index:06d}" for index in range(self.count)]

    def build(self, ctx: ShardContext) -> "Application":
        from repro.api import Application, RuntimeConfig, analyze
        from repro.runtime.cache import CacheConfig
        from repro.runtime.component import Context
        from repro.simulation.sensors import GatewaySubstrate

        class ZoneLoadImpl(Context, _ZoneLoadJob):
            def on_periodic_level(self, by_zone, discover):
                return sum(by_zone.values())

        config = RuntimeConfig(
            shard=self.shard if self.shard is not None else ShardConfig(),
            cache=CacheConfig(enabled=self.cache),
        )
        app = Application(analyze(_FLEET_DESIGN), config)
        app.implement("ZoneLoad", ZoneLoadImpl())
        substrate = GatewaySubstrate(
            app.clock,
            seed=self.seed,
            models={"level": _level_model},
            service_time=self.service_time,
        )
        _SUBSTRATES[app] = substrate
        owned = [
            (entity_id, _ZONES[position % len(_ZONES)])
            for position, entity_id in enumerate(self.fleet())
            if ctx.owns(entity_id)
        ]
        app.bind_column(
            "ShardSensor",
            [entity_id for entity_id, __ in owned],
            [substrate.driver("level") for __ in owned],
            zone=[zone for __, zone in owned],
        )
        return app

    def bind_entity(
        self, app: "Application", entity_id: str, position: int
    ) -> None:
        substrate = _SUBSTRATES[app]
        app.create_device(
            "ShardSensor",
            entity_id,
            substrate.driver("level"),
            zone=_ZONES[position % len(_ZONES)],
        )
