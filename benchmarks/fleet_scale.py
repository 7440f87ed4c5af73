"""The fleet-scale benchmark bootstrap (million-device hot path).

Used by ``bench_fleet_scale.py``; not part of the library.  Module-level
and frozen so worker processes can unpickle it by import path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.api import (
    Application,
    Context,
    RuntimeConfig,
    ShardBootstrap,
    ShardConfig,
    ShardContext,
    analyze,
)
from repro.simulation.sensors import FleetSubstrate

_FLEET_SCALE_DESIGN = """\
device FleetSensor {
    attribute zone as FleetZone;
    source level as Integer;
}
enumeration FleetZone { Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7 }

context ZoneLevels as Integer {
    when periodic level from FleetSensor <1 min>
    grouped by zone
    always publish;
}
"""

_FLEET_SCALE_ZONES = ("Z0", "Z1", "Z2", "Z3", "Z4", "Z5", "Z6", "Z7")


def _make_activity_model(activity: float):
    def model(draw: float) -> int:
        return 1 if draw < activity else 0

    return model


@dataclass(frozen=True)
class FleetScaleBootstrap(ShardBootstrap):
    """The million-device benchmark fleet: a plain grouped gather over
    a mostly-quiescent activity signal.

    Each ``FleetSensor`` reports a 0/1 ``level`` (active with
    probability ``activity`` per tick, deterministic in ``(seed,
    entity, time)``), grouped by one of eight zones — the payload shape
    where the delta wire protocol pays: between sweeps only the ~2 ·
    ``activity`` fraction of devices that flipped cross the pipe, the
    rest collapse into the quiescent count, and the columnar batch path
    plus memoized cohort plans keep the worker-side sweep cost flat.
    """

    count: int = 10_000
    seed: int = 0
    activity: float = 0.02
    shard: Optional[ShardConfig] = None

    def fleet(self) -> Sequence[str]:
        return [f"fleet-sensor-{index:07d}" for index in range(self.count)]

    def build(self, ctx: ShardContext) -> Application:
        class ZoneLevelsImpl(Context):
            def on_periodic_level(self, by_zone, discover):
                return sum(sum(levels) for levels in by_zone.values())

        config = RuntimeConfig(
            shard=self.shard if self.shard is not None else ShardConfig()
        )
        app = Application(analyze(_FLEET_SCALE_DESIGN), config)
        app.implement("ZoneLevels", ZoneLevelsImpl())
        substrate = FleetSubstrate(
            app.clock,
            seed=self.seed,
            models={"level": _make_activity_model(self.activity)},
        )
        zones = len(_FLEET_SCALE_ZONES)
        for position, entity_id in enumerate(self.fleet()):
            if ctx.owns(entity_id):
                app.create_device(
                    "FleetSensor",
                    entity_id,
                    substrate.driver("level"),
                    zone=_FLEET_SCALE_ZONES[position % zones],
                )
        return app
