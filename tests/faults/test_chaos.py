"""Deterministic chaos: seeded fault plans and their no-op property.

Two guarantees are pinned here.  First, a (seed, plan, fleet) triple
replays bit for bit — same entities killed, same recovery report.
Second, an injector whose plan never activates during the run is
*observationally invisible*: the wrapped drivers change nothing, so the
JSON-dumped run snapshot is byte-identical to a run with no injector.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DeviceUnavailableError
from repro.faults.chaos import (
    ChaosInjector,
    FaultEvent,
    FaultPlan,
    run_parking_chaos,
)
from repro.faults.policy import StalePolicy, SupervisionPolicy
from repro.runtime.app import Application
from repro.runtime.clock import SimulationClock
from repro.runtime.component import Context
from repro.runtime.config import RuntimeConfig
from repro.runtime.device import (
    CallableDriver,
    DeviceDriver,
    DeviceInstance,
)
from repro.sema.analyzer import analyze


class TestFaultEventValidation:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="fault kind"):
            FaultEvent("gremlins", 0.0, 60.0, device_type="Sensor")

    def test_rejects_nonpositive_duration(self):
        with pytest.raises(ValueError, match="duration"):
            FaultEvent("outage", 0.0, 0.0, device_type="Sensor")

    def test_rejects_untargeted_event(self):
        with pytest.raises(ValueError, match="target"):
            FaultEvent("outage", 0.0, 60.0)

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError, match="fraction"):
            FaultEvent("outage", 0.0, 60.0, device_type="S", fraction=0.0)

    def test_flap_alternates_starting_down(self):
        event = FaultEvent(
            "flap", 100.0, 400.0, device_type="S", flap_period=100.0
        )
        assert event.active_at(100.0)      # first half-period: down
        assert not event.active_at(250.0)  # second: up
        assert event.active_at(350.0)      # third: down again
        assert not event.active_at(500.0)  # event over
        assert not event.active_at(50.0)   # not yet started


DESIGN = """\
device Sensor {
    source reading as Float;
}

context Sweep as Integer {
    when periodic reading from Sensor <1 min>
    always publish;
}
"""


class CountingSweep(Context):
    def __init__(self):
        super().__init__()
        self.cohorts = []

    def on_periodic_reading(self, readings, discover):
        self.cohorts.append(len(readings))
        return len(readings)


def build_small_app():
    clock = SimulationClock()
    app = Application(
        analyze(DESIGN),
        RuntimeConfig(
            clock=clock,
            supervision=SupervisionPolicy(
                max_retries=0,
                failure_threshold=1,
                backoff_base_seconds=120.0,
                jitter=0.0,
            ),
            stale=StalePolicy("last_known"),
        ),
    )
    sweep = CountingSweep()
    app.implement("Sweep", sweep)
    for index in range(4):
        app.create_device(
            "Sensor",
            f"sensor-{index}",
            CallableDriver(sources={"reading": lambda i=index: float(i)}),
        )
    app.start()
    return app, sweep


def snapshot(app, sweep) -> str:
    """A canonical JSON dump of everything observable about a run."""
    return json.dumps(
        {
            "bus": app.bus.stats(),
            "activations": app.stats["context_activations"],
            "gather_errors": app.stats["gather_errors"],
            "gather_sweeps": app.stats["gather_sweeps"],
            "supervision": app.supervision.stats(),
            "cohorts": sweep.cohorts,
        },
        sort_keys=True,
        default=str,
    )


class TestInjectorMechanics:
    def test_attach_wraps_and_detach_restores(self):
        app, __ = build_small_app()
        originals = {
            i.entity_id: i.driver
            for i in app.registry.instances_of("Sensor")
        }
        plan = FaultPlan(seed=1).outage(
            "Sensor", start=0.0, duration=60.0, fraction=0.5
        )
        injector = ChaosInjector(app, plan).attach()
        assert len(injector.targeted_entities) == 2
        for entity_id in injector.targeted_entities:
            assert app.registry.get(entity_id).driver is not (
                originals[entity_id]
            )
        injector.detach()
        for entity_id, driver in originals.items():
            assert app.registry.get(entity_id).driver is driver

    def test_outage_raises_device_unavailable(self):
        app, __ = build_small_app()
        plan = FaultPlan(seed=1).outage(
            "Sensor", start=0.0, duration=60.0,
            entity_ids=["sensor-0"],
        )
        ChaosInjector(app, plan).attach()
        with pytest.raises(DeviceUnavailableError):
            app.registry.get("sensor-0").driver.read("reading")

    def test_a_plan_installed_after_a_first_read_is_seen(self, monkeypatch):
        """The injector swaps the driver of an instance that has already
        resolved how it reads (unsupervised, a ``read_<source>`` method:
        the plain plan) through the one entry point that drops that
        resolution; the swap must reach the next read, and ``detach``
        must give the inner driver's behaviour back."""
        swaps = []
        swap_driver = DeviceInstance.swap_driver

        def counting_swap(instance, driver):
            swaps.append(type(driver).__name__)
            return swap_driver(instance, driver)

        class Steady(DeviceDriver):
            def read_reading(self):
                return 4.0

        app = Application(analyze(DESIGN))
        app.implement("Sweep", CountingSweep())
        sensor = app.create_device("Sensor", "sensor-0", Steady())
        assert sensor.read("reading") == 4.0
        monkeypatch.setattr(DeviceInstance, "swap_driver", counting_swap)
        plan = FaultPlan(seed=1).outage(
            "Sensor", start=0.0, duration=60.0, entity_ids=["sensor-0"]
        )
        injector = ChaosInjector(app, plan).attach()
        with pytest.raises(DeviceUnavailableError, match="chaos outage"):
            sensor.read("reading")
        assert injector.injected_failures == 1
        injector.detach()
        assert sensor.read("reading") == 4.0
        assert injector.injected_failures == 1
        assert swaps == ["ChaosDriver", "Steady"]

    def test_same_seed_targets_same_entities(self):
        app_a, __ = build_small_app()
        app_b, __ = build_small_app()

        def targets(app, seed):
            plan = FaultPlan(seed=seed).outage(
                "Sensor", start=0.0, duration=60.0, fraction=0.5
            )
            return ChaosInjector(app, plan).attach().targeted_entities

        assert targets(app_a, 3) == targets(app_b, 3)


class TestParkingChaosDeterminism:
    def test_same_seed_same_report(self):
        kwargs = dict(
            seed=11,
            duration_seconds=1800.0,
            kill_fraction=0.1,
            fault_start=300.0,
            fault_duration=600.0,
        )
        first = json.dumps(run_parking_chaos(**kwargs), sort_keys=True)
        second = json.dumps(run_parking_chaos(**kwargs), sort_keys=True)
        assert first == second

    def test_different_seeds_kill_different_sensors(self):
        kwargs = dict(
            duration_seconds=600.0, kill_fraction=0.1,
            fault_start=60.0, fault_duration=120.0,
        )
        a = run_parking_chaos(seed=1, **kwargs)
        b = run_parking_chaos(seed=2, **kwargs)
        assert a["killed_entities"] != b["killed_entities"]

    def test_thirty_percent_kill_fully_recovers(self):
        """The acceptance scenario: 30% of the sensors die for 30
        minutes, yet every availability period still publishes and the
        fleet ends the run healthy."""
        report = run_parking_chaos(seed=7)
        assert report["sensors_killed"] == 36  # 30% of 120
        assert report["injected_read_failures"] > 0
        assert report["missed_publishes"] == 0
        assert all(
            updates == report["expected_sweeps"]
            for updates in report["panel_updates"].values()
        )
        assert report["unrecovered_failures"] == 0
        assert report["recovered"] is True
        assert report["supervision"]["stale_serves"] > 0


class TestInactivePlanIsInvisible:
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        fraction=st.floats(min_value=0.25, max_value=1.0),
        kind=st.sampled_from(["outage", "latency", "flap"]),
    )
    def test_byte_identical_to_no_injector(self, seed, fraction, kind):
        """A plan whose events all lie outside the run window wraps the
        drivers but never fires: the run must be byte-identical to one
        with no injector at all."""
        baseline_app, baseline_sweep = build_small_app()
        baseline_app.advance(300)
        baseline = snapshot(baseline_app, baseline_sweep)

        chaotic_app, chaotic_sweep = build_small_app()
        plan = FaultPlan(seed=seed)
        plan.add(
            FaultEvent(
                kind,
                start=1_000_000.0,
                duration=60.0,
                device_type="Sensor",
                fraction=fraction,
                latency_seconds=5.0,
            )
        )
        injector = ChaosInjector(chaotic_app, plan).attach()
        assert injector.targeted_entities  # drivers really are wrapped
        chaotic_app.advance(300)
        assert snapshot(chaotic_app, chaotic_sweep) == baseline
        assert injector.injected_failures == 0
