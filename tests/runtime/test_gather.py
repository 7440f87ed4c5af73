"""``Gatherer.sweep`` on its own: a registry, a sweep engine and the
runtime config are all it needs — no ``Application``, no bus, no
components.  That it can be built this way is what lets the
single-process gather and the shard worker's poll be the same call."""

import pytest

from repro.errors import DeliveryError
from repro.faults.policy import StalePolicy, SupervisionPolicy
from repro.faults.supervisor import SupervisionManager
from repro.runtime.cache import CacheConfig, ReadCache
from repro.runtime.clock import SimulationClock
from repro.runtime.config import RuntimeConfig
from repro.runtime.device import CallableDriver, DeviceDriver, DeviceInstance
from repro.runtime.gather import Gatherer
from repro.runtime.placement import NetworkConfig
from repro.runtime.registry import EntityRegistry
from repro.runtime.sweep import SweepEngine
from repro.sema.analyzer import analyze
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
    reading an entity of ``trips`` fails the instance it maps to."""

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
        victim = self.trips.pop(entity_id, None)
        if victim is not None:
            victim.fail()


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
    """A gatherer over a four-sensor fleet, wired by hand."""
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
    gatherer = Gatherer(
        SweepEngine(registry, clock, config.sweep),
        config,
        network=(
            config.network.build() if config.network is not None else None
        ),
        supervision=supervision,
    )
    return gatherer, bank


def ids(instances):
    return [instance.entity_id for instance in instances]


def test_a_clean_sweep_returns_the_engine_columns():
    gatherer, __ = build()
    instances, values, dropped, failed = gatherer.sweep(DECL, INTERACTION)
    assert ids(instances) == list(FLEET)
    assert values == [0.0, 1.0, 2.0, 3.0]
    assert (dropped, failed, gatherer.errors) == (0, 0, 0)
    # The instance column is the sweep cut's own, sweep after sweep.
    assert gatherer.sweep(DECL, INTERACTION)[0] is instances


def test_reads_the_network_drops_leave_the_columns():
    network = NetworkConfig(loss=0.5, seed=11, apply_to_reads=True)
    gatherer, __ = build(RuntimeConfig(network=network))
    twin = network.build()  # same seed, same draws
    survivors = [
        position for position in range(len(FLEET)) if twin.sample_read_ok()
    ]
    assert 0 < len(survivors) < len(FLEET)
    instances, values, dropped, failed = gatherer.sweep(DECL, INTERACTION)
    assert ids(instances) == [FLEET[position] for position in survivors]
    assert values == [float(position) for position in survivors]
    assert (dropped, failed) == (len(FLEET) - len(survivors), 0)
    assert gatherer.network_dropped == dropped


@pytest.mark.parametrize(
    "mode, entities, readings",
    [
        ("skip", ["s-0", "s-2", "s-3"], [0.0, 2.0, 3.0]),
        # Served from the last good value, in its registry position.
        ("last_known", ["s-0", "s-1", "s-2", "s-3"], [0.0, 1.0, 2.0, 3.0]),
    ],
)
def test_a_failed_read_follows_the_stale_policy(mode, entities, readings):
    gatherer, bank = build(
        RuntimeConfig(
            supervision=SupervisionPolicy(max_retries=0),
            stale=StalePolicy(mode),
        )
    )
    gatherer.sweep(DECL, INTERACTION)  # every sensor has a last value
    bank.dark.add("s-1")
    instances, values, dropped, failed = gatherer.sweep(DECL, INTERACTION)
    assert ids(instances) == entities
    assert values == readings
    assert (dropped, failed) == (0, 1)
    assert gatherer.read_failed == gatherer.errors == 1
    assert gatherer.supervision.stats()["stale_serves"] == (
        1 if mode == "last_known" else 0
    )


def test_a_mis_shaped_batch_column_demotes_its_cohort_whole():
    gatherer, bank = build(driver=BankDriver)
    sweeper = gatherer.sweeper
    clean = gatherer.sweep(DECL, INTERACTION)
    assert clean[1] == [0.0, 1.0, 2.0, 3.0]
    assert (bank.batch_calls, sweeper.stats()["batch_demoted"]) == (1, 0)
    bank.short = True
    instances, values, dropped, failed = gatherer.sweep(DECL, INTERACTION)
    # Asked once more, declined, and read one by one instead: the same
    # columns as the batch read would have produced.
    assert bank.batch_calls == 2
    assert sweeper.stats()["batch_demoted"] == len(FLEET)
    assert instances is clean[0]
    assert values == clean[1]
    assert (dropped, failed) == (0, 0)
    # One cohort plan for the one column of the cut, replayed since.
    assert (gatherer._plan_compiles, gatherer._plan_hits) == (1, 1)


def test_a_swapped_driver_leaves_its_batch_cohort():
    """The cohort plan grouped every sensor behind the bank; a driver
    swapped in later is read, not the bank — also when the same sweep
    recompiles its plans for a membership change."""
    gatherer, bank = build(driver=BankDriver)
    registry = gatherer.sweeper.registry
    assert gatherer.sweep(DECL, INTERACTION)[1] == [0.0, 1.0, 2.0, 3.0]
    registry.get("s-3").swap_driver(
        CallableDriver(sources={"reading": lambda: 77.0})
    )
    assert gatherer.sweep(DECL, INTERACTION)[1] == [0.0, 1.0, 2.0, 77.0]
    registry.get("s-1").swap_driver(
        CallableDriver(sources={"reading": lambda: 55.0})
    )
    bank.readings["s-4"] = 4.0
    registry.register(
        DeviceInstance(DESIGN.devices["Sensor"], "s-4", BankDriver(bank), {})
    )
    instances, values, __, ___ = gatherer.sweep(DECL, INTERACTION)
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
    """A gatherer over probes sharded by zone — one sweep task per
    zone, in the order each zone was first bound — read from one bank,
    with read counters and, if asked, a read cache with a 30 s TTL."""

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
        self.gatherer = Gatherer(
            SweepEngine(self.registry, self.clock, config.sweep),
            config,
            cache=self.cache,
        )

    def bind(self, entity_id, zone, device="Probe"):
        self.bank.readings[entity_id] = float(len(self.bank.readings))
        instance = DeviceInstance(
            ZONED.devices[device],
            entity_id,
            self.driver(self.bank),
            {"zone": zone},
        )
        self.registry.register(instance)
        instance.attach_metrics(self.metrics)
        if self.cache is not None:
            instance.attach_cache(self.cache)
        return instance

    def sweep(self):
        return self.gatherer.sweep(ZONED_DECL, ZONED_INTERACTION)

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
    """Reading p-0 (zone Z0, the first task) fails p-3 (zone Z1, a
    later task): p-3 leaves Z1's batch read for a scalar read that
    fails, exactly as the scalar sweep reads it after p-0 — whereas a
    flag set directly between sweeps is the registry's to filter."""
    columnar, scalar = twins()
    for twin in (columnar, scalar):
        twin.bank.trips["p-0"] = twin.registry.get("p-3")
    swept = readings(columnar.sweep())
    assert swept == readings(scalar.sweep())
    assert swept == (
        ["p-0", "p-1", "p-2", "p-4", "p-5"],
        [4.0, 5.0, 6.0, 8.0, 9.0],
        0,
        1,
    )
    assert columnar.gatherer.read_failed == 1
    stats = columnar.gatherer.sweeper.stats()
    assert (stats["batch_reads"], stats["batch_demoted"]) == (2, 1)
    for twin in (columnar, scalar):
        twin.registry.get("p-3").recover()
        twin.registry.get("p-1").failed = True
    swept = readings(columnar.sweep())
    assert swept == readings(scalar.sweep())
    assert swept[0] == ["p-0", "p-2", "p-3", "p-4", "p-5"]
    assert swept[2:] == (0, 0)
    assert columnar.gatherer.sweeper.stats()["batch_demoted"] == 1


def test_read_counters_tally_as_on_the_scalar_path():
    """``device_reads_total{device_type}`` after every step of a script
    that moves what the cohort plans hold — and a thinned cohort, and a
    cohort of two device types — equals the scalar sweep's."""
    columnar, scalar = twins(cache=True)

    def step(act):
        batch_reads = columnar.gatherer.sweeper.stats()["batch_reads"]
        for twin in (columnar, scalar):
            twin.clock.advance(60.0)  # every cached reading is stale
            act(twin)
            twin.sweep()
        assert columnar.reads() == scalar.reads()
        # each zone's cohort was batch-read
        stats = columnar.gatherer.sweeper.stats()
        assert stats["batch_reads"] == batch_reads + 2

    step(lambda twin: None)
    step(lambda twin: (twin.bind("p-6", "Z0"), twin.bind("p-7", "Z1")))
    step(lambda twin: twin.registry.unregister("p-1").detach())
    step(
        lambda twin: twin.registry.get("p-6").swap_driver(
            CallableDriver(sources={"reading": lambda: 66.0})
        )
    )
    # p-0 cache-fresh: Z0's cohort reads as p-2 and p-4
    hits = columnar.cache.stats()["hits"]
    step(lambda twin: twin.registry.get("p-0").read("reading"))
    assert columnar.cache.stats()["hits"] == hits + 1
    step(lambda twin: twin.bind("p-8", "Z1", device="FastProbe"))
    assert len(columnar.reads()) == 2
    assert all(columnar.reads().values())
