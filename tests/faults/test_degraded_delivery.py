"""Degraded delivery and health-aware discovery under supervision.

The scenarios the redesign promises: a supervised fleet keeps its
periodic gathers (and their ``grouped by ... every`` windows) closing
with full cohorts while sensors are dark, and chronically failing
entities drop out of ``instances_of`` until a probe succeeds.
"""

import pytest

from repro.errors import DeliveryError, DeviceUnavailableError
from repro.faults.policy import StalePolicy, SupervisionPolicy
from repro.runtime.app import Application
from repro.runtime.clock import SimulationClock
from repro.runtime.component import Context
from repro.runtime.config import RuntimeConfig
from repro.runtime.device import DeviceDriver
from repro.runtime.sweep import _DROPPED, _Lost
from repro.sema.analyzer import analyze

DESIGN = """\
device Sensor {
    attribute zone as ZoneEnum;
    source reading as Float;
}

enumeration ZoneEnum { NORTH, SOUTH }

context ZoneSweep as Integer {
    when periodic reading from Sensor <1 min>
    grouped by zone
    always publish;
}

context ZoneWindow as Integer {
    when periodic reading from Sensor <1 min>
    grouped by zone every <3 min>
    always publish;
}
"""


class FlakySensor(DeviceDriver):
    """Constant-value sensor with a kill switch."""

    def __init__(self, value: float):
        self.value = value
        self.down = False

    def read(self, source: str) -> float:
        if self.down:
            raise DeliveryError("sensor is dark")
        return self.value


class GroupRecorder(Context):
    """Records every grouped delivery it receives."""

    def __init__(self):
        super().__init__()
        self.deliveries = []

    def on_periodic_reading(self, by_zone, discover):
        self.deliveries.append(
            {zone: list(values) for zone, values in by_zone.items()}
        )
        return sum(len(values) for values in by_zone.values())


POLICY = SupervisionPolicy(
    max_retries=0,
    failure_threshold=1,
    backoff_base_seconds=600.0,
    jitter=0.0,
    quarantine_after=None,
)


def build(policy=POLICY, stale=StalePolicy("last_known")):
    clock = SimulationClock()
    app = Application(
        analyze(DESIGN),
        RuntimeConfig(clock=clock, supervision=policy, stale=stale),
    )
    sweeps, windows = GroupRecorder(), GroupRecorder()
    app.implement("ZoneSweep", sweeps)
    app.implement("ZoneWindow", windows)
    drivers = {}
    for zone, entity_id, value in (
        ("NORTH", "n-0", 1.0),
        ("NORTH", "n-1", 2.0),
        ("SOUTH", "s-0", 3.0),
        ("SOUTH", "s-1", 4.0),
    ):
        drivers[entity_id] = FlakySensor(value)
        app.create_device("Sensor", entity_id, drivers[entity_id], zone=zone)
    app.start()
    return app, drivers, sweeps, windows


class TestStaleServingIntoSweeps:
    def test_last_known_keeps_the_cohort_full(self):
        app, drivers, sweeps, __ = build()
        app.advance(60)  # one clean sweep caches every value
        drivers["n-0"].down = True
        app.advance(120)
        # Every sweep still sees both NORTH sensors: the dark one is
        # served from its last known value.
        for delivery in sweeps.deliveries:
            assert sorted(delivery) == ["NORTH", "SOUTH"]
            assert sorted(delivery["NORTH"]) == [1.0, 2.0]
        assert app.supervision.stats()["stale_serves"] > 0
        assert app.stats["gather_errors"] > 0

    def test_skip_mode_shrinks_the_cohort(self):
        app, drivers, sweeps, __ = build(stale=StalePolicy("skip"))
        app.advance(60)
        drivers["n-0"].down = True
        app.advance(60)
        assert sweeps.deliveries[-1]["NORTH"] == [2.0]
        assert app.supervision.stats()["stale_serves"] == 0

    def test_fail_mode_propagates(self):
        app, drivers, __, __ = build(stale=StalePolicy("fail"))
        app.advance(60)
        drivers["n-0"].down = True
        with pytest.raises(DeviceUnavailableError):
            app.advance(60)

    def test_max_age_expires_the_cache(self):
        app, drivers, sweeps, __ = build(
            stale=StalePolicy("last_known", max_age_seconds=90.0)
        )
        app.advance(60)
        drivers["n-0"].down = True
        app.advance(180)
        # The cached value aged past 90s, so later sweeps drop to skip
        # behaviour for that entity.
        assert sweeps.deliveries[-1]["NORTH"] == [2.0]


class TestFoldReadOutcomes:
    """``SweepEngine._fold_read_outcomes`` on the outcome column of one
    sweep: the identity on a sweep that lost nothing, one rebuild of
    both columns otherwise."""

    def sweep(self, stale):
        app, __, __, __ = build(stale=stale)
        app.advance(60)  # one clean sweep: every entity has a last value
        instances = list(app.registry.instances_of("Sensor"))
        return app, instances, [10.0, 20.0, 30.0, 40.0]

    def fold(self, app, instances, outcomes):
        return app.sweeper._fold_read_outcomes(instances, outcomes, "reading")

    def lost_counters(self, app):
        return (
            app.stats["gather_network_dropped"],
            app.stats["gather_read_failed"],
            app.supervision.stats()["stale_serves"],
        )

    def test_nothing_lost_returns_the_very_columns(self):
        app, instances, outcomes = self.sweep(StalePolicy("last_known"))
        before = self.lost_counters(app)
        kept, values, *lost = self.fold(app, instances, outcomes)
        assert kept is instances and values is outcomes
        assert lost == [0, 0]
        assert self.lost_counters(app) == before

    def test_dropped_reads_leave_the_columns(self):
        app, instances, outcomes = self.sweep(StalePolicy("last_known"))
        outcomes[0] = outcomes[2] = _DROPPED
        kept, values, *lost = self.fold(app, instances, outcomes)
        # A network drop is not a failure: never served stale.
        assert [i.entity_id for i in kept] == ["n-1", "s-1"]
        assert values == [20.0, 40.0]
        assert lost == [2, 0]
        assert self.lost_counters(app) == (2, 0, 0)
        assert len(instances) == len(outcomes) == 4  # inputs untouched

    @pytest.mark.parametrize(
        "mode, entities, readings, stale_serves",
        [
            ("skip", ["n-0", "s-0", "s-1"], [10.0, 30.0, 40.0], 0),
            # The failed read is served from the last good value (2.0),
            # in its registry position.
            (
                "last_known",
                ["n-0", "n-1", "s-0", "s-1"],
                [10.0, 2.0, 30.0, 40.0],
                1,
            ),
        ],
    )
    def test_failed_reads_follow_the_stale_policy(
        self, mode, entities, readings, stale_serves
    ):
        app, instances, outcomes = self.sweep(StalePolicy(mode))
        outcomes[1] = _Lost(DeliveryError("sensor is dark"))
        kept, values, *lost = self.fold(app, instances, outcomes)
        assert [i.entity_id for i in kept] == entities
        assert values == readings
        assert lost == [0, 1]
        assert self.lost_counters(app) == (0, 1, stale_serves)

    def test_fail_mode_raises_the_read_error(self):
        app, instances, outcomes = self.sweep(StalePolicy("fail"))
        error = DeliveryError("sensor is dark")
        outcomes[0] = _DROPPED
        outcomes[2] = _Lost(error)
        with pytest.raises(DeliveryError) as raised:
            self.fold(app, instances, outcomes)
        assert raised.value is error
        # Counted up to and including the read that raised.
        assert self.lost_counters(app) == (1, 1, 0)


class TestStaleServingIntoWindows:
    def test_window_closes_with_full_cohort(self):
        app, drivers, __, windows = build()
        app.advance(180)  # first 3-sweep window, all healthy
        assert len(windows.deliveries) == 1
        drivers["n-0"].down = True
        app.advance(180)  # second window rides on stale values
        assert len(windows.deliveries) == 2
        degraded_window = windows.deliveries[-1]
        # 2 sensors x 3 sweeps per zone, dark sensor included: the
        # accumulated window is indistinguishable in shape from a
        # healthy one.
        assert sorted(degraded_window) == ["NORTH", "SOUTH"]
        assert sorted(degraded_window["NORTH"]) == [1.0, 1.0, 1.0,
                                                    2.0, 2.0, 2.0]
        assert sorted(degraded_window["SOUTH"]) == [3.0, 3.0, 3.0,
                                                    4.0, 4.0, 4.0]


QUARANTINE_POLICY = SupervisionPolicy(
    max_retries=0,
    failure_threshold=1,
    backoff_base_seconds=120.0,
    jitter=0.0,
    quarantine_after=1,
)


class TestQuarantineAndDiscovery:
    def test_quarantined_entity_leaves_discovery(self):
        app, drivers, __, __ = build(policy=QUARANTINE_POLICY)
        drivers["n-0"].down = True
        app.advance(60)  # first failed sweep trips and quarantines
        assert app.supervision.health_of("n-0") == "quarantined"
        visible = {
            i.entity_id for i in app.registry.instances_of("Sensor")
        }
        assert visible == {"n-1", "s-0", "s-1"}

    def test_health_filters(self):
        app, drivers, __, __ = build(policy=QUARANTINE_POLICY)
        drivers["n-0"].down = True
        app.advance(60)
        registry = app.registry
        quarantined = registry.instances_of(
            "Sensor", health="quarantined", include_quarantined=True
        )
        assert [i.entity_id for i in quarantined] == ["n-0"]
        healthy = registry.instances_of("Sensor", health="healthy")
        assert {i.entity_id for i in healthy} == {"n-1", "s-0", "s-1"}
        everyone = registry.instances_of("Sensor", include_quarantined=True)
        assert len(everyone) == 4

    def test_probe_success_restores_the_entity(self):
        app, drivers, __, __ = build(policy=QUARANTINE_POLICY)
        drivers["n-0"].down = True
        app.advance(60)
        assert app.supervision.health_of("n-0") == "quarantined"
        drivers["n-0"].down = False
        # The gather keeps probing quarantined entities; once the 120s
        # open window elapses the next sweep's read is the probe.
        app.advance(180)
        assert app.supervision.health_of("n-0") == "healthy"
        visible = {
            i.entity_id for i in app.registry.instances_of("Sensor")
        }
        assert "n-0" in visible
        stats = app.supervision.stats()
        assert stats["quarantines"] == 1
        assert stats["recoveries"] == 1

    def test_breaker_transitions_reach_app_metrics(self):
        app, drivers, __, __ = build(policy=QUARANTINE_POLICY)
        drivers["n-0"].down = True
        app.advance(60)
        drivers["n-0"].down = False
        app.advance(180)
        metrics = app.metrics
        assert metrics.value("supervision_breaker_opens_total") == 1
        assert metrics.value("supervision_breaker_half_opens_total") == 1
        assert metrics.value("supervision_breaker_closes_total") == 1
        assert metrics.value("supervision_quarantined_entities") == 0
