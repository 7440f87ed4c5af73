"""Chaos injection on the columnar batch read path.

A fault plan delivers the same thing whether the fleet reads in
columns or one entity at a time: a batch read answers per member, so a
dark member's column entry is the error its scalar read would raise,
and that member goes on exactly as a scalar read that failed its first
attempt.  Each plan here runs over a batch-capable fleet and over its
scalar twin (the same driver with ``read_batch`` reset to
:meth:`DeviceDriver.read_batch`), and the twins must agree on every
payload, the quarantined set, the injected failures and the breaker
trips.  The wrapper claims the batch capability only where the wrapped
driver has it, and a wrapped member is read through its own cohort.
"""

import pytest

from repro.apps.parking.devices import PresenceSensorDriver
from repro.faults.chaos import (
    ChaosBatchDriver,
    ChaosInjector,
    FaultPlan,
    run_parking_chaos,
)
from repro.faults.policy import QUARANTINED, SupervisionPolicy
from repro.runtime.app import Application
from repro.runtime.plan import BatchConfig
from repro.runtime.cache import CacheConfig
from repro.runtime.config import RuntimeConfig
from repro.runtime.component import Context
from repro.runtime.clock import SimulationClock
from repro.runtime.device import CallableDriver, DeviceDriver, batches
from repro.sema.analyzer import analyze
from repro.simulation.sensors import FleetSubstrate, SubstrateDriver

DESIGN = """\
device PresenceSensor {
    source presence as Boolean;
}

context Count as Integer {
    when periodic presence from PresenceSensor <1 min>
    always publish;
}
"""
SENSORS = 6


class CountImpl(Context):
    def __init__(self):
        super().__init__()
        self.sizes = []
        self.payloads = []

    def on_periodic_presence(self, readings, discover):
        self.sizes.append(len(readings))
        self.payloads.append(
            [(reading.device.entity_id, reading.value) for reading in readings]
        )
        return len(readings)


class ScalarSubstrateDriver(SubstrateDriver):
    """The same driver without the capability: one read at a time."""

    read_batch = DeviceDriver.read_batch


def build_app(
    sensors=SENSORS,
    supervised=True,
    driver=SubstrateDriver,
    cache=None,
    retries=0,
    min_column=2,
):
    clock = SimulationClock()
    config = RuntimeConfig(
        clock=clock,
        batch=BatchConfig(min_column=min_column),
        supervision=SupervisionPolicy(
            max_retries=retries, failure_threshold=3, jitter=0.0
        )
        if supervised
        else None,
        cache=cache if cache is not None else CacheConfig(),
    )
    app = Application(analyze(DESIGN), config)
    count = app.implement("Count", CountImpl())
    substrate = FleetSubstrate(
        clock, seed=7, models={"presence": lambda draw: draw < 0.5}
    )
    for index in range(sensors):
        app.create_device(
            "PresenceSensor",
            f"s-{index}",
            driver(substrate, sources=("presence",)),
        )
    app.start()
    return app, count


def run_twins(plan, seconds, cache=None, retries=0):
    """Run ``plan`` for ``seconds`` over the batching fleet and over
    its scalar twin; returns what each delivered and counted.  Every
    cohort batch-reads, a lone wrapped member too (``min_column=1``),
    so a dark member is answered for by a column."""
    runs = []
    for driver in (SubstrateDriver, ScalarSubstrateDriver):
        app, count = build_app(
            driver=driver, cache=cache, retries=retries, min_column=1
        )
        injector = ChaosInjector(app, plan).attach()
        app.advance(seconds)
        supervision = app.supervision
        cached = app.read_cache.stats() if app.read_cache else {}
        runs.append(
            {
                "cache": {key: cached.get(key) for key in ("hits", "misses")},
                "payloads": count.payloads,
                "quarantined": sorted(
                    f"s-{index}"
                    for index in range(SENSORS)
                    if supervision.health_of(f"s-{index}") == QUARANTINED
                ),
                "injected_failures": injector.injected_failures,
                "injected_latency_reads": injector.injected_latency_reads,
                "breaker_opens": supervision.stats()["breaker_opens"],
                "read_counters": {
                    name: app.metrics.value(name, device_type="PresenceSensor")
                    for name in (
                        "device_reads_total",
                        "device_read_retries_total",
                        "device_read_failures_total",
                    )
                },
                "batch_reads": app.metrics.value("sweep_batch_reads_total"),
            }
        )
    return runs


class TestChaosBatchKey:
    def test_wrapped_cohort_still_batches(self):
        app, count = build_app()
        plan = FaultPlan(seed=1).outage(
            "PresenceSensor", start=10_000_000.0, duration=60.0
        )
        ChaosInjector(app, plan).attach()
        assert type(app.registry.get("s-0").driver) is ChaosBatchDriver
        app.advance(180.0)
        assert count.sizes == [6, 6, 6]
        assert app.metrics.value("sweep_batch_reads_total") == 3
        assert app.metrics.value("sweep_batch_demoted_total") == 0

    def test_unbatchable_inner_driver_stays_scalar(self):
        app = Application(
            analyze(DESIGN),
            RuntimeConfig(clock=SimulationClock()),
        )
        count = app.implement("Count", CountImpl())
        instances = [
            app.create_device(
                "PresenceSensor",
                f"s-{index}",
                CallableDriver(sources={"presence": lambda: True}),
            )
            for index in range(3)
        ]
        app.start()
        plan = FaultPlan(seed=1).outage(
            "PresenceSensor", start=10_000_000.0, duration=60.0
        )
        ChaosInjector(app, plan).attach()
        # The wrapper keeps the inner driver's opt-out...
        for instance in instances:
            assert not batches(instance.driver)
            assert instance.driver.batch_key("presence") is None
        # ...so the wrapped type keeps the reference cut: one task in
        # registration order, no cohort plan, no demotion.
        app.advance(120.0)
        assert count.sizes == [3, 3]
        stats = app.sweeper.stats()
        assert (stats["sweeps"], stats["columnar_sweeps"]) == (2, 0)
        assert stats["batch_demoted"] == 0
        assert app.metrics.value("cohort_plan_compiles_total") == 0

    @pytest.mark.parametrize("target", ["s-0", "s-3"])
    def test_a_wrapped_member_is_read_through_its_own_driver(self, target):
        """Wrapped or not, every member shares the substrate's
        ``batch_key``; the wrapper's class keeps a dark member out of
        its neighbours' cohort, so its outage is seen wherever it sits
        in the column (not only when it is the first member)."""
        app, count = build_app()
        plan = FaultPlan(seed=1).outage(
            entity_ids=[target], start=0.0, duration=600.0
        )
        injector = ChaosInjector(app, plan).attach()
        app.advance(240.0)
        assert count.sizes == [5, 5, 5, 5]
        # three failed reads trip the breaker; its half-open probe fails
        assert injector.injected_failures == 4
        assert app.supervision.stats()["breaker_opens"] == 2
        assert all(
            target not in dict(payload) for payload in count.payloads
        )


PLANS = {
    "outage": lambda plan, target: plan.outage(
        entity_ids=[target], start=0.0, duration=600.0
    ),
    "flap": lambda plan, target: plan.flap(
        entity_ids=[target], start=0.0, duration=1200.0, flap_period=240.0
    ),
    "latency": lambda plan, target: plan.latency(
        entity_ids=[target], start=0.0, duration=600.0, latency_seconds=3.0
    ),
}


class TestOneFaultSemantics:
    """The batching fleet and its scalar twin under one plan: the same
    payload every sweep, the same quarantined set, the same injected
    failures and breaker trips."""

    @pytest.mark.parametrize("target", ["s-0", "s-2", "s-5"])
    @pytest.mark.parametrize("kind", sorted(PLANS))
    def test_the_twins_deliver_the_same(self, kind, target):
        plan = PLANS[kind](FaultPlan(seed=1), target)
        batched, scalar = run_twins(plan, 1500.0)
        assert batched["batch_reads"] > 0 and scalar["batch_reads"] == 0
        del batched["batch_reads"], scalar["batch_reads"]
        assert batched == scalar
        assert len(batched["payloads"]) == 25
        if kind == "latency":
            # Nothing is timed: the straggler is delivered every sweep.
            assert batched["injected_latency_reads"] == 9
            assert batched["injected_failures"] == 0
        else:
            assert batched["injected_failures"] > 0
            assert batched["breaker_opens"] > 0

    def test_a_failed_member_spends_the_rest_of_its_retry_budget(self):
        """The batch read was the first of three attempts: the two
        retries go to the member's own driver, as the scalar twin's
        do, flap phase by flap phase."""
        plan = PLANS["flap"](FaultPlan(seed=1), "s-2")
        batched, scalar = run_twins(plan, 1500.0, retries=2)
        del batched["batch_reads"], scalar["batch_reads"]
        assert batched == scalar
        counters = batched["read_counters"]
        assert counters["device_read_retries_total"] == 2 * (
            counters["device_read_failures_total"]
        )
        assert batched["injected_failures"] == 3 * (
            counters["device_read_failures_total"]
        )

    @pytest.mark.parametrize("ttl", [30.0, 90.0])
    def test_the_twins_agree_through_a_read_cache(self, ttl):
        """A member its batch read failed stores nothing from the
        column; its own read goes on through the cache, so hits and
        misses count as the scalar twin's do (a 90 s TTL serves every
        other sweep from the cache)."""
        plan = PLANS["flap"](FaultPlan(seed=1), "s-2")
        batched, scalar = run_twins(
            plan, 1500.0, CacheConfig(enabled=True, ttl_seconds=ttl)
        )
        assert batched["batch_reads"] > 0
        del batched["batch_reads"], scalar["batch_reads"]
        assert batched == scalar
        assert batched["cache"]["misses"] > 0
        assert (batched["cache"]["hits"] > 0) == (ttl > 60.0)
        assert batched["injected_failures"] > 0

    def test_a_fleet_wide_outage_quarantines_the_same_entities(self):
        plan = FaultPlan(seed=3).outage(
            "PresenceSensor", start=0.0, duration=3000.0, fraction=0.5
        )
        batched, scalar = run_twins(plan, 1500.0)
        del batched["batch_reads"], scalar["batch_reads"]
        assert batched == scalar
        assert len(batched["quarantined"]) == 3


def test_the_parking_chaos_report_is_the_scalar_report(monkeypatch):
    """``repro chaos`` reads the parking sensors in columns; the same
    run with ``PresenceSensorDriver`` reading one sensor at a time
    reports the same, field for field."""
    batch_reads = []
    read_batch = PresenceSensorDriver.read_batch

    def counting(self, entity_ids, source):
        batch_reads.append(len(entity_ids))
        return read_batch(self, entity_ids, source)

    monkeypatch.setattr(PresenceSensorDriver, "read_batch", counting)
    batched = run_parking_chaos(seed=7)
    assert batch_reads
    monkeypatch.setattr(
        PresenceSensorDriver, "read_batch", DeviceDriver.read_batch
    )
    assert run_parking_chaos(seed=7) == batched
    assert batched["injected_read_failures"] > 0 and batched["recovered"]
