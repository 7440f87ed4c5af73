"""``SweepEngine.sweep`` on its own: a registry and the runtime config
are all it needs — no ``Application``, no bus, no components.  That it
can be built this way is what lets the single-process gather and the
shard worker's poll be the same call."""

import functools

import pytest

from repro.errors import DeliveryError
from repro.faults.policy import StalePolicy, SupervisionPolicy
from repro.faults.supervisor import SupervisionManager
from repro.runtime.cache import CacheConfig, ReadCache
from repro.runtime.clock import SimulationClock
from repro.runtime.config import RuntimeConfig
from repro.runtime.device import (
    CallableDriver,
    DeviceDriver,
    DeviceInstance,
    Wiring,
)
from repro.runtime.placement import NetworkConfig
from repro.runtime.registry import EntityRegistry
from repro.runtime.sweep import SweepEngine
from repro.sema.analyzer import analyze
from repro.simulation.network import HopProfile
from repro.telemetry import MetricsRegistry

DESIGN = analyze(
    """\
device Sensor {
    source reading as Float;
}

context Level as Float {
    when periodic reading from Sensor <1 min>
    always publish;
}
"""
)
DECL = DESIGN.contexts["Level"].decl
(INTERACTION,) = DECL.interactions
FLEET = ("s-0", "s-1", "s-2", "s-3")


class Bank:
    """What every :class:`BankDriver` of one fleet reads from (and
    shares as its batch cohort): entity id -> reading, ``dark`` ids
    fail, ``short`` makes batch reads come back one value short, and
    reading an entity of ``trips`` runs what it maps to (a peer's
    ``fail``, say)."""

    def __init__(self):
        self.readings = {
            entity_id: float(position)
            for position, entity_id in enumerate(FLEET)
        }
        self.dark = set()
        self.short = False
        self.batch_calls = 0
        self.trips = {}

    def trip(self, entity_id):
        trip = self.trips.pop(entity_id, None)
        if trip is not None:
            trip()


class BankDriver(DeviceDriver):
    def __init__(self, bank):
        self.bank = bank

    def read(self, source):
        entity_id = self.instance.entity_id
        self.bank.trip(entity_id)
        if entity_id in self.bank.dark:
            raise DeliveryError(f"{entity_id} is dark")
        return self.bank.readings[entity_id]

    def batch_key(self, source):
        return self.bank

    def read_batch(self, entity_ids, source):
        self.bank.batch_calls += 1
        for entity_id in entity_ids:
            self.bank.trip(entity_id)
        column = [self.bank.readings[entity_id] for entity_id in entity_ids]
        return column[:-1] if self.bank.short else column


class ScalarBankDriver(BankDriver):
    """The same driver without the capability: one read at a time."""

    read_batch = DeviceDriver.read_batch


def build(config=RuntimeConfig(), driver=ScalarBankDriver):
    """A sweep engine over a four-sensor fleet, wired by hand."""
    clock = SimulationClock()
    registry = EntityRegistry()
    supervision = SupervisionManager(clock, default_policy=config.supervision)
    bank = Bank()
    for entity_id in FLEET:
        instance = DeviceInstance(
            DESIGN.devices["Sensor"], entity_id, driver(bank), {}
        )
        registry.register(instance)
        supervisor = supervision.supervise(instance)
        if supervisor is not None:
            instance.attach_supervisor(supervisor)
    sweeper = SweepEngine(
        registry,
        config,
        network=(
            config.network.build() if config.network is not None else None
        ),
        supervision=supervision,
    )
    return sweeper, bank


def ids(instances):
    return [instance.entity_id for instance in instances]


def test_a_clean_sweep_returns_the_engine_columns():
    sweeper, __ = build()
    instances, values, dropped, failed = sweeper.sweep(DECL, INTERACTION)
    assert ids(instances) == list(FLEET)
    assert values == [0.0, 1.0, 2.0, 3.0]
    assert (dropped, failed, sweeper.errors) == (0, 0, 0)
    # The instance column is the sweep cut's own, sweep after sweep.
    assert sweeper.sweep(DECL, INTERACTION)[0] is instances


def test_reads_the_network_drops_leave_the_columns():
    network = NetworkConfig(
        hops={"link": HopProfile(loss=0.5)}, seed=11, apply_to_reads=True
    )
    sweeper, __ = build(RuntimeConfig(network=network))
    twin = network.build()  # same seed, same draws
    survivors = [
        position for position in range(len(FLEET)) if twin.sample_read_ok()
    ]
    assert 0 < len(survivors) < len(FLEET)
    instances, values, dropped, failed = sweeper.sweep(DECL, INTERACTION)
    assert ids(instances) == [FLEET[position] for position in survivors]
    assert values == [float(position) for position in survivors]
    assert (dropped, failed) == (len(FLEET) - len(survivors), 0)
    assert sweeper.network_dropped == dropped


@pytest.mark.parametrize(
    "mode, entities, readings",
    [
        ("skip", ["s-0", "s-2", "s-3"], [0.0, 2.0, 3.0]),
        # Served from the last good value, in its registry position.
        ("last_known", ["s-0", "s-1", "s-2", "s-3"], [0.0, 1.0, 2.0, 3.0]),
    ],
)
def test_a_failed_read_follows_the_stale_policy(mode, entities, readings):
    sweeper, bank = build(
        RuntimeConfig(
            supervision=SupervisionPolicy(max_retries=0),
            stale=StalePolicy(mode),
        )
    )
    sweeper.sweep(DECL, INTERACTION)  # every sensor has a last value
    bank.dark.add("s-1")
    instances, values, dropped, failed = sweeper.sweep(DECL, INTERACTION)
    assert ids(instances) == entities
    assert values == readings
    assert (dropped, failed) == (0, 1)
    assert sweeper.read_failed == sweeper.errors == 1
    assert sweeper.supervision.stats()["stale_serves"] == (
        1 if mode == "last_known" else 0
    )


def test_a_mis_shaped_batch_column_demotes_its_cohort_whole():
    sweeper, bank = build(driver=BankDriver)
    clean = sweeper.sweep(DECL, INTERACTION)
    assert clean[1] == [0.0, 1.0, 2.0, 3.0]
    assert (bank.batch_calls, sweeper.stats()["batch_demoted"]) == (1, 0)
    bank.short = True
    instances, values, dropped, failed = sweeper.sweep(DECL, INTERACTION)
    # Asked once more, declined, and read one by one instead: the same
    # columns as the batch read would have produced.
    assert bank.batch_calls == 2
    assert sweeper.stats()["batch_demoted"] == len(FLEET)
    assert instances is clean[0]
    assert values == clean[1]
    assert (dropped, failed) == (0, 0)
    # One cohort plan for the one column of the cut, replayed since.
    assert (sweeper._plan_compiles, sweeper._plan_hits) == (1, 1)


def test_a_swapped_driver_leaves_its_batch_cohort():
    """The cohort plan grouped every sensor behind the bank; a driver
    swapped in later is read, not the bank — also when the same sweep
    recompiles its plans for a membership change."""
    sweeper, bank = build(driver=BankDriver)
    registry = sweeper.registry
    assert sweeper.sweep(DECL, INTERACTION)[1] == [0.0, 1.0, 2.0, 3.0]
    registry.get("s-3").swap_driver(
        CallableDriver(sources={"reading": lambda: 77.0})
    )
    assert sweeper.sweep(DECL, INTERACTION)[1] == [0.0, 1.0, 2.0, 77.0]
    registry.get("s-1").swap_driver(
        CallableDriver(sources={"reading": lambda: 55.0})
    )
    bank.readings["s-4"] = 4.0
    registry.register(
        DeviceInstance(DESIGN.devices["Sensor"], "s-4", BankDriver(bank), {})
    )
    instances, values, __, ___ = sweeper.sweep(DECL, INTERACTION)
    assert ids(instances) == [*FLEET, "s-4"]
    assert values == [0.0, 55.0, 2.0, 77.0, 4.0]


ZONED = analyze(
    """\
device Probe {
    attribute zone as String;
    source reading as Float;
}
device FastProbe extends Probe { }

context Levels as Float {
    when periodic reading from Probe <1 min>
    always publish;
}
"""
)
ZONED_DECL = ZONED.contexts["Levels"].decl
(ZONED_INTERACTION,) = ZONED_DECL.interactions


class Zoned:
    """A sweep engine over probes sharded by zone — a serial sweep
    reads them in one task, in registration order — read from one bank,
    wired as an application wires them: one :class:`Wiring` per
    declaration, with read counters and, if asked, a read cache with a
    30 s TTL."""

    def __init__(self, driver, cache=False):
        config = RuntimeConfig()
        self.driver = driver
        self.clock = SimulationClock()
        self.registry = EntityRegistry()
        self.metrics = MetricsRegistry()
        self.cache = (
            ReadCache(self.clock, CacheConfig(enabled=True, ttl_seconds=30))
            if cache
            else None
        )
        self.bank = Bank()
        self.sweeper = SweepEngine(self.registry, config, cache=self.cache)
        self.wirings = {}

    def bind(self, entity_id, zone, device="Probe", counted=True):
        self.bank.readings[entity_id] = float(len(self.bank.readings))
        instance = DeviceInstance(
            ZONED.devices[device],
            entity_id,
            self.driver(self.bank),
            {"zone": zone},
        )
        self.registry.register(instance)
        wiring = self.wirings.get((device, counted))
        if wiring is None:
            wiring = self.wirings[device, counted] = Wiring(cache=self.cache)
            if counted:
                wiring.count_into(self.metrics, device)
        instance.wire(wiring)
        return instance

    def sweep(self):
        return self.sweeper.sweep(ZONED_DECL, ZONED_INTERACTION)

    def reads(self):
        return self.metrics.snapshot()["device_reads_total"]


def readings(swept):
    """A sweep's result with entity ids for instances."""
    instances, values, dropped, failed = swept
    return ids(instances), values, dropped, failed


def twins(cache=False):
    """The same zoned fleet read by a batching driver and by its scalar
    twin: p-0 … p-5, alternately in zones Z0 and Z1."""
    pair = Zoned(BankDriver, cache), Zoned(ScalarBankDriver, cache)
    for twin in pair:
        for index in range(6):
            twin.bind(f"p-{index}", ("Z0", "Z1")[index % 2])
    return pair


def test_a_peer_failed_mid_sweep_demotes_as_on_the_scalar_path():
    """Reading p-0 fails p-3: the batch read during which that flag
    moved is void, and the column reads one by one, where p-3's read
    fails exactly as the scalar sweep reads it after p-0 — whereas a
    flag set directly between sweeps is the registry's to filter."""
    columnar, scalar = twins()
    for twin in (columnar, scalar):
        twin.bank.trips["p-0"] = twin.registry.get("p-3").fail
    swept = readings(columnar.sweep())
    assert swept == readings(scalar.sweep())
    assert swept == (
        ["p-0", "p-1", "p-2", "p-4", "p-5"],
        [4.0, 5.0, 6.0, 8.0, 9.0],
        0,
        1,
    )
    assert columnar.sweeper.read_failed == 1
    stats = columnar.sweeper.stats()
    assert (stats["batch_reads"], stats["batch_demoted"]) == (0, 6)
    for twin in (columnar, scalar):
        twin.registry.get("p-3").recover()
        twin.registry.get("p-1").failed = True
    swept = readings(columnar.sweep())
    assert swept == readings(scalar.sweep())
    assert swept[0] == ["p-0", "p-2", "p-3", "p-4", "p-5"]
    assert swept[2:] == (0, 0)
    assert columnar.sweeper.stats()["batch_demoted"] == 6


def test_a_peer_failed_mid_sweep_by_assignment_demotes_as_by_fail():
    """A ``failed`` flag assigned while a batch read runs is a flip
    like ``fail()``: the read is void, and the sweep, its counters and
    the demotions come out as when the read called ``fail()``."""

    def assign(instance):
        instance.failed = True

    outcomes = []
    for trip in (DeviceInstance.fail, assign):
        columnar, scalar = twins()
        for twin in (columnar, scalar):
            victim = twin.registry.get("p-3")
            twin.bank.trips["p-0"] = functools.partial(trip, victim)
        swept = readings(columnar.sweep())
        assert swept == readings(scalar.sweep())
        stats = columnar.sweeper.stats()
        outcomes.append(
            (
                swept,
                columnar.sweeper.read_failed,
                stats["batch_reads"],
                stats["batch_demoted"],
            )
        )
    assert outcomes[1] == outcomes[0]
    assert outcomes[0][1:] == (1, 0, 6)


def test_read_counters_tally_as_on_the_scalar_path():
    """``device_reads_total{device_type}`` after every step of a script
    that moves what the cohort plans hold — a member without read
    counters among them, a thinned cohort, and a cohort of two device
    types — equals the scalar sweep's."""
    columnar, scalar = twins(cache=True)

    def step(act):
        batch_reads = columnar.sweeper.stats()["batch_reads"]
        for twin in (columnar, scalar):
            twin.clock.advance(60.0)  # every cached reading is stale
            act(twin)
            twin.sweep()
        assert columnar.reads() == scalar.reads()
        # the column's cohort was batch-read
        stats = columnar.sweeper.stats()
        assert stats["batch_reads"] == batch_reads + 1

    step(lambda twin: None)
    step(lambda twin: (twin.bind("p-6", "Z0"), twin.bind("p-7", "Z1")))
    step(lambda twin: twin.registry.unregister("p-1").detach())
    step(lambda twin: twin.bind("p-9", "Z0", counted=False))
    step(lambda twin: twin.bind("p-10", "Z1"))
    step(
        lambda twin: twin.registry.get("p-6").swap_driver(
            CallableDriver(sources={"reading": lambda: 66.0})
        )
    )
    # p-0 cache-fresh: the cohort reads without it
    hits = columnar.cache.stats()["hits"]
    step(lambda twin: twin.registry.get("p-0").read("reading"))
    assert columnar.cache.stats()["hits"] == hits + 1
    step(lambda twin: twin.bind("p-8", "Z1", device="FastProbe"))
    assert len(columnar.reads()) == 2
    assert all(columnar.reads().values())
