"""The benchmark-owned sensor fleet behind ``fleet_sharded`` and
``fleet_churn``.

A fleet design of one ``FleetSensor`` type in eight zones, compiled with
``compile_design`` and implemented by subclassing the generated abstract
classes; a picklable :class:`FleetBootstrap` that the sharded runtime
rebuilds in every process; and a driver whose reading is a pure function
of ``(seed, entity_id, now)`` — which is what lets the harness re-derive
every published value without running the runtime a second time
(:func:`expected_totals`).

Two per cent of the devices are active on any tick, so about four per
cent of the rows change between two sweeps: the payload shape the delta
wire protocol was built for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple
from zlib import crc32

from repro.api import (
    BatchConfig,
    CacheConfig,
    RuntimeConfig,
    ShardBootstrap,
    ShardConfig,
    ShardedRuntime,
)
from repro.codegen import compile_design

ZONES = ("Z0", "Z1", "Z2", "Z3", "Z4", "Z5", "Z6", "Z7")
# The published ZoneLevels value weighs each zone differently, so a
# reading delivered under the wrong group key changes the total.
ZONE_WEIGHT = {zone: index + 1 for index, zone in enumerate(ZONES)}
ACTIVE_BELOW = int(0.02 * 2**32)
PERIOD_SECONDS = 60.0

_DEVICE = """\
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

_ZONE_LOAD = """
context ZoneLoad as Integer {
    when periodic level from FleetSensor <1 min>
    grouped by zone
    with map as Integer reduce as Integer
    always publish;
}
"""


def design_text(two_contexts: bool) -> str:
    """The fleet's DiaSpec text; ``fleet_churn`` adds the MapReduce
    context over the same source and period."""
    return _DEVICE + (_ZONE_LOAD if two_contexts else "")


def entity_name(index: int) -> str:
    return f"fleet-sensor-{index:07d}"


def zone_of(entity_id: str) -> str:
    return ZONES[crc32(entity_id.encode()) & 7]


def level_of(seed: int, entity_id: str, now: float) -> int:
    """The reading of ``entity_id`` at ``now``: 0 when quiescent, else
    1..100."""
    draw = crc32(f"{seed}:{entity_id}:{now!r}".encode())
    return 1 + draw % 100 if draw < ACTIVE_BELOW else 0


def expected_totals(
    seed: int, entity_ids: Iterable[str], now: float
) -> Tuple[int, int]:
    """What ``ZoneLevels`` and ``ZoneLoad`` must publish at ``now`` over
    the given live membership, derived from the inputs alone."""
    per_zone: Dict[str, int] = dict.fromkeys(ZONES, 0)
    suffix = f":{now!r}"
    prefix = f"{seed}:"
    for entity_id in entity_ids:
        draw = crc32(f"{prefix}{entity_id}{suffix}".encode())
        if draw < ACTIVE_BELOW:
            per_zone[zone_of(entity_id)] += 1 + draw % 100
    weighted = sum(
        ZONE_WEIGHT[zone] * total for zone, total in per_zone.items()
    )
    return weighted, max(per_zone.values())


class FleetSubstrate:
    """The simulated field one process's sensors observe (the load
    generator: its cost is reported as ``driver.*``, never optimised)."""

    def __init__(self, clock, seed: int):
        self.clock = clock
        self.seed = seed

    def value(self, entity_id: str) -> int:
        return level_of(self.seed, entity_id, self.clock.now())

    def column(self, entity_ids: Sequence[str]) -> List[int]:
        prefix = f"{self.seed}:"
        suffix = f":{self.clock.now()!r}"
        below = ACTIVE_BELOW
        out = []
        append = out.append
        for entity_id in entity_ids:
            draw = crc32(f"{prefix}{entity_id}{suffix}".encode())
            append(1 + draw % 100 if draw < below else 0)
        return out


class FleetDriverBehaviour:
    """Scalar and columnar reads over a shared :class:`FleetSubstrate`.

    Mixed into the generated ``AbstractFleetSensorDriver`` per process
    (the generated module does not exist at import time); kept at
    module level so the traced run can wrap it by dotted name."""

    def __init__(self, substrate: FleetSubstrate):
        self.substrate = substrate

    def read(self, source: str) -> int:
        return self.substrate.value(self.instance.entity_id)

    def read_batch(self, entity_ids, source: str) -> List[int]:
        return self.substrate.column(entity_ids)

    def batch_key(self, source: str):
        return self.substrate


@dataclass(frozen=True)
class FleetBootstrap(ShardBootstrap):
    """Plain-data recipe every process builds its slice of the fleet
    from.  ``workers == 0`` is the single-process baseline."""

    count: int
    seed: int
    workers: int
    two_contexts: bool = False

    def shard_config(self) -> ShardConfig:
        return ShardConfig(
            enabled=self.workers > 0, workers=max(1, self.workers)
        )

    def fleet(self) -> List[str]:
        return [entity_name(index) for index in range(self.count)]

    def build(self, ctx):
        generated = compile_design(design_text(self.two_contexts), "Fleet")
        config = RuntimeConfig(
            name="Fleet",
            shard=self.shard_config(),
            batch=BatchConfig(enabled=True),
            cache=CacheConfig(enabled=self.two_contexts),
        )
        framework = generated.FleetFramework(config=config)
        app = framework.application
        substrate = FleetSubstrate(app.clock, self.seed)
        driver_class = type(
            "FleetSensorDriver",
            (FleetDriverBehaviour, generated.AbstractFleetSensorDriver),
            {},
        )

        class ZoneLevels(generated.AbstractZoneLevels):
            def __init__(self):
                super().__init__()
                self.published: List[int] = []
                # bind_entity finds the process's substrate and driver
                # class here; the frozen bootstrap cannot hold them.
                self.substrate = substrate
                self.driver_class = driver_class

            def on_periodic_level(self, level_by_zone, discover):
                total = 0
                for zone, levels in level_by_zone.items():
                    total += ZONE_WEIGHT[zone] * sum(levels)
                self.published.append(total)
                return total

        framework.implement_zone_levels(ZoneLevels())
        if self.two_contexts:

            class ZoneLoad(generated.AbstractZoneLoad):
                def __init__(self):
                    super().__init__()
                    self.published: List[int] = []

                def map(self, key, value, collector):
                    if value:
                        collector.emit_map(key, value)

                def combine(self, key, values, collector):
                    collector.emit_combine(key, sum(values))

                def reduce(self, key, values, collector):
                    collector.emit_reduce(key, sum(values))

                def on_periodic_level(self, level_by_zone, discover):
                    busiest = max(level_by_zone.values(), default=0)
                    self.published.append(busiest)
                    return busiest

            framework.implement_zone_load(ZoneLoad())
        for entity_id in self.fleet():
            if ctx.owns(entity_id):
                framework.create_fleet_sensor(
                    entity_id, driver_class(substrate), zone_of(entity_id)
                )
        return app

    def bind_entity(self, app, entity_id: str, position: int) -> None:
        levels = app.implementation("ZoneLevels")
        app.create_device(
            "FleetSensor",
            entity_id,
            levels.driver_class(levels.substrate),
            zone=zone_of(entity_id),
        )


def start_fleet(bootstrap: FleetBootstrap) -> ShardedRuntime:
    runtime = ShardedRuntime(bootstrap, shard=bootstrap.shard_config())
    runtime.start()
    return runtime
