"""F4/F8/F10/F11: the parking management application end to end."""

import pytest

from repro import naming
from repro.apps.cooker import build_cooker_app
from repro.apps.parking import (
    ParkingAvailabilityContext,
    build_parking_app,
)
from repro.runtime import device, proxies
from repro.sema.symbols import DeviceInfo


@pytest.fixture
def app():
    return build_parking_app(
        capacities={"A22": 10, "B16": 5, "D6": 8}, seed=11
    )


class TestParkingAvailability:
    """Figure 10: MapReduce counts free spaces per lot every 10 minutes."""

    def test_counts_match_environment(self, app):
        app.advance(600)
        for lot, panel in app.entrance_panels.items():
            free = app.environment.free_count(lot)
            assert panel.status in (f"FREE: {free}", "FULL")

    def test_panels_update_each_period(self, app):
        app.advance(3600)
        for panel in app.entrance_panels.values():
            assert len(panel.history) == 6

    def test_full_lot_displays_full(self):
        # Freeze the environment (huge step) so the forced state holds
        # through the first gathering sweep.
        app = build_parking_app(
            capacities={"A22": 3}, seed=1,
            environment_step_seconds=10_000.0,
        )
        for space in range(3):
            app.environment.force("A22", space, True)
        app.advance(600)
        assert app.entrance_panels["A22"].status == "FULL"

    def test_mapreduce_context_standalone(self):
        """The Figure 10 phases, called directly."""
        from repro.mapreduce.api import MapCollector, ReduceCollector

        context = ParkingAvailabilityContext()
        collector = MapCollector()
        context.map("A22", False, collector)
        context.map("A22", True, collector)
        assert collector.pairs == [("A22", 1)]
        reducer = ReduceCollector()
        context.reduce("A22", [1, 1, 1], reducer)
        assert reducer.pairs == [("A22", 3)]

    def test_mapreduce_combine_standalone(self):
        """The combiner is a mini-reduce: partial sums per map chunk."""
        from repro.mapreduce.api import CombineCollector, ReduceCollector

        context = ParkingAvailabilityContext()
        combiner = CombineCollector()
        context.combine("A22", [1, 1], combiner)
        assert combiner.pairs == [("A22", 2)]
        reducer = ReduceCollector()
        context.reduce("A22", [2, 1], reducer)
        assert reducer.pairs == [("A22", 3)]


class TestParkingSuggestion:
    def test_city_panels_show_ranked_lots(self, app):
        app.advance(600)
        for panel in app.city_panels.values():
            assert panel.status.startswith("Parking: ")

    def test_suggestions_prefer_free_lots(self):
        app = build_parking_app(
            capacities={"A22": 10, "B16": 10}, seed=2
        )
        for space in range(10):
            app.environment.force("B16", space, True)
        app.advance(600)
        status = next(iter(app.city_panels.values())).status
        assert status.split()[1] == "A22"

    def test_usage_patterns_feed_suggestions(self, app):
        app.advance(2 * 3600)
        patterns = app.application.query_context("ParkingUsagePattern")
        assert {p.parkingLot for p in patterns} == {"A22", "B16", "D6"}
        assert all(p.level in ("HIGH", "MODERATE", "LOW") for p in patterns)


class TestAverageOccupancy:
    def test_daily_report_after_window(self):
        app = build_parking_app(
            capacities={"A22": 6, "B16": 4},
            occupancy_window="1 hr",
            seed=3,
        )
        app.advance(3600)
        assert len(app.messenger.messages) == 1
        message = app.messenger.messages[0]
        assert message.startswith("24h occupancy:")
        assert "A22=" in message and "B16=" in message

    def test_no_report_before_window(self, app):
        app.advance(12 * 3600)
        assert app.messenger.messages == []

    def test_occupancy_values_bounded(self):
        app = build_parking_app(
            capacities={"A22": 6}, occupancy_window="1 hr", seed=4
        )
        app.advance(2 * 3600)
        for message in app.messenger.messages:
            percent = float(message.split("=")[1].rstrip("%"))
            assert 0.0 <= percent <= 100.0


class TestScaleContinuum:
    """Figure 1: the same design runs at any infrastructure size."""

    def test_paper_scale(self):
        app = build_parking_app(seed=5)
        assert app.sensor_count == 120

    def test_city_scale(self):
        capacities = {f"LOT_{i:03d}": 20 for i in range(50)}
        app = build_parking_app(capacities=capacities, seed=6)
        assert app.sensor_count == 1000
        app.advance(600)
        assert all(
            panel.history for panel in app.entrance_panels.values()
        )


class TestDefaultPathSteadyState:
    """What one more delivery costs once names and proxies are resolved,
    as counts: the design fixes every name, so none is re-derived; the
    registry index answers ``discover...where(location=lot)`` and
    "which lots are deployed?"; how an entity reads and acts was
    resolved when it first did."""

    @pytest.fixture
    def regex_runs(self, monkeypatch):
        """The names ``repro.naming`` ran its regex over, in order."""
        pattern = naming._CAMEL_BOUNDARY
        names = []

        class Counting:
            def sub(self, replacement, name):
                names.append(name)
                return pattern.sub(replacement, name)

        monkeypatch.setattr(naming, "_CAMEL_BOUNDARY", Counting())
        return names

    @pytest.fixture
    def resolutions(self, monkeypatch):
        """Every per-reading question the plan answers ahead of time,
        as it is asked again: ``(what, name)`` pairs."""
        asked = []

        def counting(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                asked.append((name, args[-1]))
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counting(DeviceInfo, "source")
        counting(device._Plan, "__missing__")
        counting(device.DeviceInstance, "bind_plan")
        # Whichever modules bound the name at import.
        for module in (naming, device, proxies):
            if hasattr(module, "query_method_name"):
                counting(module, "query_method_name")
        return asked

    def test_parking_delivery(self, regex_runs, resolutions, monkeypatch):
        app = build_parking_app(seed=5)
        app.advance(1200)  # two warm-up deliveries
        panel_proxies = []
        make_proxy = proxies.make_proxy

        def counting_make_proxy(instance):
            if instance.info.name == "ParkingEntrancePanel":
                panel_proxies.append(instance.entity_id)
            return make_proxy(instance)

        monkeypatch.setattr(proxies, "make_proxy", counting_make_proxy)
        registry = app.application.registry
        index_hits = registry.stats()["index_hits"]
        lookups = []
        instances_of = registry.instances_of

        def recording_instances_of(device_type, **filters):
            lookups.append((device_type, filters))
            return instances_of(device_type, **filters)

        monkeypatch.setattr(registry, "instances_of", recording_instances_of)
        regex_runs.clear()
        resolutions.clear()
        app.advance(600)
        lots = sorted(app.entrance_panels)
        assert all(
            len(panel.history) == 3 for panel in app.entrance_panels.values()
        )
        assert regex_runs == []
        # One indexed look-up enumerates the deployed lots, and one per
        # lot refreshed touches only the panel it actuates.
        assert registry.stats()["index_hits"] == index_hits + 1 + len(lots)
        assert sorted(panel_proxies) == [f"panel-{lot}" for lot in lots]
        # 360 readings and 5 actuations re-derived nothing ...
        assert resolutions == []
        # ... the handler learnt the lots from the index, not from the
        # sensors: no walk over them, no proxy for any of them ...
        assert "PresenceSensor" not in {kind for kind, __ in lookups}
        sensors = instances_of("PresenceSensor")
        assert len(sensors) == app.sensor_count
        assert not any(one._cached_proxy for one in sensors)
        # ... and 120 sensors of one declaration and one driver class
        # share one plan (a closure per instance is 9 MiB on 10 000).
        assert len({id(one.plan) for one in sensors}) == 1
        assert len(vars(sensors[0].info)["_plans"]) == 1

    def test_cooker_tick(self, regex_runs, resolutions):
        app = build_cooker_app(threshold_seconds=1)
        app.environment.set_cooker(True)
        app.advance(2)
        regex_runs.clear()
        resolutions.clear()
        app.advance(1)
        assert app.application.stats["context_activations"]["Alert"] == 3
        assert regex_runs == []
        # One tickSecond: the event is typed against its declaration;
        # the query and the actuation it causes compile nothing.
        assert resolutions == [("source", "tickSecond")]


class TestDeploymentDetails:
    def test_sensor_attributes_registered(self, app):
        sensor = app.application.registry.get("sensor-A22-0000")
        assert sensor.attributes == {"parkingLot": "A22"}

    def test_panel_discovery_by_location(self, app):
        panels = app.application.discover.parking_entrance_panels()
        assert len(panels) == 3
        assert len(panels.where_location("B16")) == 1

    def test_supertype_discovery_spans_panel_kinds(self, app):
        panels = app.application.discover.display_panels()
        assert len(panels) == 3 + 2  # entrance + city panels

    def test_design_warnings_empty(self, app):
        assert app.application.design.report.warnings == []


class TestDescriptorShardedDeployment:
    """The descriptor's ``topology.shard`` section runs the same
    deployment process-sharded, byte-identical to single-process."""

    CAPACITIES = {"A22": 6, "B16": 5}

    def run_deployment(self, shard):
        from repro.apps.parking.app import (
            build_sharded_parking_app,
            parking_descriptor,
        )

        descriptor = parking_descriptor(
            capacities=self.CAPACITIES, shard=shard
        )
        runtime = build_sharded_parking_app(descriptor, seed=3)
        published = []
        for name in runtime.app.design.contexts:
            runtime.app.bus.subscribe(
                ("context", name),
                lambda event, name=name: published.append(
                    (name, repr(event.value))
                ),
            )
        try:
            runtime.advance(1800.0)
            panel = runtime.app.registry.get("panel-A22").driver
            return {
                "published": published,
                "panel": list(panel.history),
                "read": runtime.query("sensor-A22-0000", "presence"),
            }
        finally:
            runtime.stop()

    def test_sharded_matches_single_process(self):
        single = self.run_deployment(None)
        sharded = self.run_deployment({"workers": 2})
        assert sharded == single
        assert single["panel"]  # the run actually drove the panels

    def test_one_worker_matches_single_process(self):
        """One worker binds the panels too, which are not in the
        fleet."""
        single = self.run_deployment(None)
        assert self.run_deployment({"workers": 1}) == single

    def test_descriptor_without_shard_stays_single_process(self):
        from repro.apps.parking.app import (
            build_sharded_parking_app,
            parking_descriptor,
        )

        runtime = build_sharded_parking_app(
            parking_descriptor(capacities=self.CAPACITIES)
        )
        try:
            assert runtime.sharded is False
            assert runtime.worker_stats() == []
        finally:
            runtime.stop()
