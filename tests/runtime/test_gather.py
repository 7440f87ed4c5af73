"""``Gatherer.sweep`` on its own: a registry, a sweep engine and the
runtime config are all it needs — no ``Application``, no bus, no
components.  That it can be built this way is what lets the
single-process gather and the shard worker's poll be the same call."""

import pytest

from repro.errors import DeliveryError
from repro.faults.policy import StalePolicy, SupervisionPolicy
from repro.faults.supervisor import SupervisionManager
from repro.runtime.clock import SimulationClock
from repro.runtime.config import RuntimeConfig
from repro.runtime.device import CallableDriver, DeviceDriver, DeviceInstance
from repro.runtime.gather import Gatherer
from repro.runtime.placement import NetworkConfig
from repro.runtime.plan import BatchConfig
from repro.runtime.registry import EntityRegistry
from repro.runtime.sweep import SweepEngine
from repro.sema.analyzer import analyze

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
    fail, and ``short`` makes batch reads come back one value short."""

    def __init__(self):
        self.readings = {
            entity_id: float(position)
            for position, entity_id in enumerate(FLEET)
        }
        self.dark = set()
        self.short = False
        self.batch_calls = 0


class BankDriver(DeviceDriver):
    def __init__(self, bank):
        self.bank = bank

    def read(self, source):
        entity_id = self.instance.entity_id
        if entity_id in self.bank.dark:
            raise DeliveryError(f"{entity_id} is dark")
        return self.bank.readings[entity_id]

    def batch_key(self, source):
        return self.bank

    def read_batch(self, entity_ids, source):
        self.bank.batch_calls += 1
        column = [self.bank.readings[entity_id] for entity_id in entity_ids]
        return column[:-1] if self.bank.short else column


def build(config=RuntimeConfig()):
    """A gatherer over a four-sensor fleet, wired by hand."""
    clock = SimulationClock()
    registry = EntityRegistry()
    supervision = SupervisionManager(clock, default_policy=config.supervision)
    bank = Bank()
    for entity_id in FLEET:
        instance = DeviceInstance(
            DESIGN.devices["Sensor"], entity_id, BankDriver(bank), {}
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
    gatherer, bank = build(RuntimeConfig(batch=BatchConfig(enabled=True)))
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
    gatherer, bank = build(RuntimeConfig(batch=BatchConfig(enabled=True)))
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
