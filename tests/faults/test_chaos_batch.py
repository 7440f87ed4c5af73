"""Chaos injection on the columnar batch read path.

Before the batch path learned about chaos, wrapping a driver silently
opted its whole cohort out of injection (``ChaosDriver`` had no
``batch_key``), so fault plans never exercised batched deployments.
These tests pin the repaired contract: an inactive plan stays invisible
to batching, a latency fault is *absorbed* by the cohort (the
masked-straggler pathology the tuning benchmark trades against), and an
outage on any member fails the one batch RPC and demotes the cohort to
scalar reads with full per-entity supervision accounting.  The wrapper
claims the batch capability only where the wrapped driver has it.
"""

from repro.faults.chaos import ChaosBatchDriver, ChaosInjector, FaultPlan
from repro.faults.policy import SupervisionPolicy
from repro.runtime.app import Application
from repro.runtime.config import RuntimeConfig
from repro.runtime.component import Context
from repro.runtime.clock import SimulationClock
from repro.runtime.device import CallableDriver, batches
from repro.sema.analyzer import analyze
from repro.simulation.sensors import FleetSubstrate

DESIGN = """\
device PresenceSensor {
    source presence as Boolean;
}

context Count as Integer {
    when periodic presence from PresenceSensor <1 min>
    always publish;
}
"""


class CountImpl(Context):
    def __init__(self):
        super().__init__()
        self.sizes = []

    def on_periodic_presence(self, readings, discover):
        self.sizes.append(len(readings))
        return len(readings)


def build_app(sensors=6, supervised=True):
    clock = SimulationClock()
    config = RuntimeConfig(
        clock=clock,
        supervision=SupervisionPolicy(
            max_retries=0, failure_threshold=3, jitter=0.0
        )
        if supervised
        else None,
    )
    app = Application(analyze(DESIGN), config)
    count = app.implement("Count", CountImpl())
    substrate = FleetSubstrate(
        clock, seed=7, models={"presence": lambda draw: draw < 0.5}
    )
    for index in range(sensors):
        app.create_device(
            "PresenceSensor", f"s-{index}", substrate.driver("presence")
        )
    app.start()
    return app, count


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


class TestLatencyIsAbsorbed:
    def test_batch_inherits_worst_member_latency(self):
        app, count = build_app()
        plan = FaultPlan(seed=1).latency(
            entity_ids=["s-0", "s-3"],
            start=0.0,
            duration=120.0,
            latency_seconds=3.0,
        )
        injector = ChaosInjector(app, plan).attach()
        app.advance(60.0)
        # The cohort batched (no demotion) despite the straggler...
        assert count.sizes == [6]
        assert app.metrics.value("sweep_batch_reads_total") == 1
        assert app.metrics.value("sweep_batch_demoted_total") == 0
        # ...and the batch carries the worst member's injected delay.
        wrapped = app.registry.get("s-0").driver
        assert wrapped.last_injected_batch_latency == 3.0
        assert injector.injected_latency_reads == 1
        # No breaker saw anything: the straggler is masked.
        assert app.supervision.stats()["breaker_opens"] == 0


class TestOutageDemotesTheCohort:
    def test_any_down_member_fails_the_batch_rpc(self):
        app, count = build_app()
        plan = FaultPlan(seed=1).outage(
            entity_ids=["s-0"], start=0.0, duration=90.0
        )
        injector = ChaosInjector(app, plan).attach()
        app.advance(60.0)
        # Sweep 1: the batch RPC fails, the cohort demotes to scalar
        # reads, and only the dark entity is lost from the payload.
        assert count.sizes == [5]
        assert app.metrics.value("sweep_batch_reads_total") == 0
        assert app.metrics.value("sweep_batch_demoted_total") == 6
        assert injector.injected_failures >= 2  # batch probe + scalar
        app.advance(60.0)
        # Sweep 2 (fault over): the cohort batches whole again.
        assert count.sizes == [5, 6]
        assert app.metrics.value("sweep_batch_reads_total") == 1
