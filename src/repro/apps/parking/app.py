"""Assembly of the parking management application at any scale."""

from __future__ import annotations

import json
import weakref
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.apps.parking.design import PAPER_ENTRANCES, get_design
from repro.apps.parking.devices import (
    DisplayPanelDriver,
    MessengerDriver,
    PresenceSensorDriver,
    deploy_sensors,
    seat_of,
    sensor_id,
)
from repro.apps.parking.logic import default_implementations
from repro.api import (
    Application,
    DriverCatalog,
    RuntimeConfig,
    ShardBootstrap,
    ShardConfig,
    ShardedRuntime,
    SimulationClock,
    load_descriptor,
)
from repro.simulation.environment import ParkingLotEnvironment

PAPER_CAPACITIES: Dict[str, int] = {"A22": 40, "B16": 30, "D6": 50}


@dataclass
class ParkingApp:
    """A runnable parking-management deployment with its handles."""

    application: Application
    environment: ParkingLotEnvironment
    sensors: List = field(default_factory=list)
    entrance_panels: Dict[str, DisplayPanelDriver] = field(
        default_factory=dict
    )
    city_panels: Dict[str, DisplayPanelDriver] = field(default_factory=dict)
    messenger: MessengerDriver = None
    implementations: Dict[str, object] = field(default_factory=dict)

    def advance(self, seconds: float) -> int:
        return self.application.advance(seconds)

    @property
    def sensor_count(self) -> int:
        return len(self.sensors)


def build_parking_app(
    capacities: Optional[Dict[str, int]] = None,
    entrances: Sequence[str] = PAPER_ENTRANCES,
    clock: Optional[SimulationClock] = None,
    availability_period: str = "10 min",
    usage_period: str = "1 hr",
    occupancy_window: str = "24 hr",
    environment_step_seconds: float = 60.0,
    seed: int = 0,
    start: bool = True,
    extra_lots: Sequence[str] = (),
    config: Optional[RuntimeConfig] = None,
) -> ParkingApp:
    """Build (and by default start) the parking management application.

    ``capacities`` maps lot names to space counts; the paper's three lots
    are the default, and benchmarks pass hundreds of lots with thousands
    of sensors — the same design and implementations serve both, which is
    the continuum claim (Figure 1).

    ``config`` carries runtime policy (supervision, stale delivery,
    error policy...); its clock and name are overridden by this
    function's own arguments so existing callers keep their semantics.
    """
    capacities = dict(capacities or PAPER_CAPACITIES)
    clock = clock or (config.clock if config else None) or SimulationClock()
    # ``extra_lots`` enter the design's enumeration (declared vocabulary)
    # without deploying sensors — they can be commissioned at runtime.
    design = get_design(
        lots=tuple(sorted(set(capacities) | set(extra_lots))),
        entrances=tuple(entrances),
        availability_period=availability_period,
        usage_period=usage_period,
        occupancy_window=occupancy_window,
    )
    environment = ParkingLotEnvironment(
        capacities, step_seconds=environment_step_seconds, seed=seed
    )
    base = config if config is not None else RuntimeConfig()
    config = base.replace(
        clock=clock,
        name=base.name if base.name != "app" else "ParkingManagement",
    )
    application = Application(design, config)

    implementations = default_implementations()
    for name, implementation in implementations.items():
        application.implement(name, implementation)

    sensors = deploy_sensors(application, environment)
    lots = sorted(capacities)
    entrance_panels = {lot: DisplayPanelDriver() for lot in lots}
    application.bind_column(
        "ParkingEntrancePanel",
        [f"panel-{lot}" for lot in lots],
        list(entrance_panels.values()),
        location=lots,
    )
    city_panels = {entrance: DisplayPanelDriver() for entrance in entrances}
    application.bind_column(
        "CityEntrancePanel",
        [f"city-panel-{entrance}" for entrance in entrances],
        list(city_panels.values()),
        location=list(entrances),
    )
    messenger = MessengerDriver()
    application.create_device("Messenger", "ops-messenger", messenger)

    environment.attach(clock)
    if start:
        application.start()
    return ParkingApp(
        application=application,
        environment=environment,
        sensors=sensors,
        entrance_panels=entrance_panels,
        city_panels=city_panels,
        messenger=messenger,
        implementations=implementations,
    )


# -- descriptor-driven sharded deployment ------------------------------------

# Per-process parking environment, keyed by the application it serves;
# dynamic rebinds need it to construct drivers inside a built worker.
_ENVIRONMENTS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def parking_catalog(environment: ParkingLotEnvironment) -> DriverCatalog:
    """The descriptor-side driver catalog of the parking application."""
    catalog = DriverCatalog()
    catalog.register(
        "presence",
        lambda lot, space: PresenceSensorDriver(environment, lot, space),
    )
    catalog.register("panel", DisplayPanelDriver)
    catalog.register("messenger", MessengerDriver)
    return catalog


def parking_descriptor(
    capacities: Optional[Dict[str, int]] = None,
    entrances: Sequence[str] = PAPER_ENTRANCES,
    shard: Optional[Dict[str, Any]] = None,
    name: str = "parking-city",
) -> Dict[str, Any]:
    """A JSON-compatible deployment descriptor for the parking fleet.

    One presence sensor per space, one entrance panel per lot, one city
    panel per entrance, one messenger.  ``shard`` (a dict of
    :class:`~repro.runtime.shard.ShardConfig` fields, e.g.
    ``{"workers": 4}``) becomes the descriptor's ``topology.shard``
    section — the switch that makes :func:`build_sharded_parking_app`
    run the deployment process-sharded.
    """
    capacities = dict(capacities or PAPER_CAPACITIES)
    entities: List[Dict[str, Any]] = [
        {
            "type": "PresenceSensor",
            "id": sensor_id(lot, space),
            "driver": "presence",
            "attributes": {"parkingLot": lot},
            "config": {"lot": lot, "space": space},
        }
        for lot, capacity in sorted(capacities.items())
        for space in range(capacity)
    ]
    for lot in sorted(capacities):
        entities.append(
            {
                "type": "ParkingEntrancePanel",
                "id": f"panel-{lot}",
                "driver": "panel",
                "attributes": {"location": lot},
            }
        )
    for entrance in entrances:
        entities.append(
            {
                "type": "CityEntrancePanel",
                "id": f"city-panel-{entrance}",
                "driver": "panel",
                "attributes": {"location": entrance},
            }
        )
    entities.append(
        {"type": "Messenger", "id": "ops-messenger", "driver": "messenger"}
    )
    descriptor: Dict[str, Any] = {"name": name, "entities": entities}
    if shard is not None:
        descriptor["topology"] = {"shard": dict(shard)}
    return descriptor


@dataclass(frozen=True)
class ShardedParkingBootstrap(ShardBootstrap):
    """Picklable recipe building the parking app from a descriptor.

    Plain data (the descriptor's JSON text plus deterministic build
    parameters), so it pickles into spawned workers.  Every process
    rebuilds the same :class:`ParkingLotEnvironment` from
    ``(capacities, seed)`` and binds its slice of the sensor fleet;
    actuators (panels, messenger) bind where the context
    implementations actually fire — the coordinator, or the single
    process of an unsharded run.
    """

    descriptor_json: str
    capacities: Tuple[Tuple[str, int], ...]
    seed: int = 0
    availability_period: str = "10 min"
    usage_period: str = "1 hr"
    occupancy_window: str = "24 hr"
    environment_step_seconds: float = 60.0

    def fleet(self) -> List[str]:
        descriptor = load_descriptor(self.descriptor_json)
        return [
            record.entity_id
            for record in descriptor.entities
            if record.device_type == "PresenceSensor"
        ]

    def build(self, ctx) -> Application:
        descriptor = load_descriptor(self.descriptor_json)
        shard = descriptor.shard_config() or ShardConfig()
        capacities = dict(self.capacities)
        design = get_design(
            lots=tuple(sorted(capacities)),
            entrances=tuple(
                record.attributes["location"]
                for record in descriptor.entities
                if record.device_type == "CityEntrancePanel"
            ),
            availability_period=self.availability_period,
            usage_period=self.usage_period,
            occupancy_window=self.occupancy_window,
        )
        config = RuntimeConfig(
            clock=SimulationClock(),
            shard=shard,
            name=descriptor.name,
        )
        app = Application(design, config)
        for name, implementation in default_implementations().items():
            app.implement(name, implementation)
        environment = ParkingLotEnvironment(
            capacities,
            step_seconds=self.environment_step_seconds,
            seed=self.seed,
        )
        catalog = parking_catalog(environment)
        # The coordinator binds the whole registration record, not just
        # its (empty) shard: context implementations discover the fleet
        # at runtime (``discover.devices("PresenceSensor")``), and the
        # environment replica keeps any coordinator-side read identical
        # to the owning worker's.  Sweeps still run on the workers —
        # the gather delegate bypasses the coordinator's own read path.
        coordinator = ctx.index is None
        columns: Dict[Tuple[str, Tuple[str, ...]], List[Any]] = {}
        for record in descriptor.entities:
            if record.device_type == "PresenceSensor":
                if not (coordinator or ctx.owns(record.entity_id)):
                    continue
            elif not (coordinator or ctx.shards == 1):
                continue
            key = record.device_type, tuple(record.attributes)
            columns.setdefault(key, []).append(record)
        # One column per device type (and set of attribute names given),
        # in descriptor order.
        for (device_type, names), records in columns.items():
            app.bind_column(
                device_type,
                [record.entity_id for record in records],
                [
                    catalog.create(record.driver, **record.config)
                    for record in records
                ],
                **{
                    name: [record.attributes[name] for record in records]
                    for name in names
                },
            )
        environment.attach(app.clock)
        _ENVIRONMENTS[app] = environment
        return app

    def bind_entity(self, app: Application, entity_id: str, position: int):
        """Dynamic re-partitioning: bind one more sensor in-process.

        Sensor ids encode their probe — ``sensor-<lot>-<space>`` — so
        the driver rebuilds from the id against the process-local
        environment (the lot must be a declared one)."""
        environment = _ENVIRONMENTS[app]
        lot, space = seat_of(entity_id)
        driver = PresenceSensorDriver(environment, lot, space)
        app.create_device("PresenceSensor", entity_id, driver, parkingLot=lot)


def build_sharded_parking_app(
    descriptor_source: Union[str, Dict[str, Any]],
    seed: int = 0,
    start: bool = True,
) -> ShardedRuntime:
    """Build the parking deployment a descriptor describes, sharded when
    its topology says so.

    The descriptor's ``topology.shard`` section (see
    :func:`parking_descriptor`) selects the process-sharded runtime and
    its wire settings; without one the returned
    :class:`~repro.runtime.shard.ShardedRuntime` degrades to the
    single-process application, byte-identical to
    :func:`build_parking_app` with default config.
    """
    if isinstance(descriptor_source, str):
        descriptor_json = descriptor_source
    else:
        descriptor_json = json.dumps(descriptor_source)
    descriptor = load_descriptor(descriptor_json)
    capacities: Dict[str, int] = {}
    for record in descriptor.entities:
        if record.device_type == "PresenceSensor":
            lot = record.config["lot"]
            capacities[lot] = max(
                capacities.get(lot, 0), record.config["space"] + 1
            )
    bootstrap = ShardedParkingBootstrap(
        descriptor_json=descriptor_json,
        capacities=tuple(sorted(capacities.items())),
        seed=seed,
    )
    runtime = ShardedRuntime(
        bootstrap, shard=descriptor.shard_config() or ShardConfig()
    )
    if start:
        runtime.start()
    return runtime


__all__ = [
    "PAPER_CAPACITIES",
    "ParkingApp",
    "PresenceSensorDriver",
    "ShardedParkingBootstrap",
    "build_parking_app",
    "build_sharded_parking_app",
    "parking_catalog",
    "parking_descriptor",
]
