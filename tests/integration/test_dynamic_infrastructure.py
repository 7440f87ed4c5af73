"""Dynamic infrastructure scenarios across the bundled applications."""

from repro.apps.avionics import AltimeterDriver, build_avionics_app
from repro.apps.parking import (
    DisplayPanelDriver,
    PresenceSensorDriver,
    build_parking_app,
)


class TestAvionicsSensorRedundancy:
    """Replicated sensors vote by averaging; losing one degrades
    gracefully (the dependability posture of the avionics case study)."""

    def test_triplex_altimeters_agree(self):
        app = build_avionics_app()
        # Add two more altimeters reading the same environment.
        for index in (2, 3):
            app.application.create_device(
                "Altimeter", f"alt-{index}",
                AltimeterDriver(app.environment),
            )
        app.command(altitude=1400.0)
        app.advance(300)
        assert abs(app.environment.altitude - 1400.0) < 40.0

    def test_altimeter_failure_is_masked(self):
        app = build_avionics_app()
        for index in (2, 3):
            app.application.create_device(
                "Altimeter", f"alt-{index}",
                AltimeterDriver(app.environment),
            )
        app.application.registry.get("alt-2").fail()
        app.command(altitude=1300.0)
        app.advance(300)
        # Two healthy altimeters keep the loop closed.
        assert abs(app.environment.altitude - 1300.0) < 40.0

    def test_all_sensors_lost_holds_last_command(self):
        app = build_avionics_app()
        app.command(altitude=1200.0)
        app.advance(240)
        app.application.registry.get("alt-1").fail()
        before = app.environment.altitude
        app.advance(60)
        # The hold context publishes a neutral command on empty sweeps;
        # the aircraft drifts but does not diverge wildly in a minute.
        assert abs(app.environment.altitude - before) < 100.0


class TestParkingRuntimeExpansion:
    """A new lot comes online while the city application is running —
    runtime entity binding at application scale (§IV.1)."""

    def test_new_lot_joins_availability_reports(self):
        app = build_parking_app(
            capacities={"A22": 10, "B16": 10}, seed=41,
            environment_step_seconds=100_000.0,  # freeze churn
            extra_lots=("D6",),  # declared in the vocabulary, not deployed
        )
        app.advance(600)
        assert "D6" not in app.entrance_panels

        # Commission lot D6 at runtime: environment capacity, sensors,
        # panel.  (The design's enumeration already contains D6 —
        # deployments grow within the declared vocabulary.)
        application = app.application
        app.environment.lots["D6"] = 5
        app.environment._occupied["D6"] = [False] * 5
        app.environment.pressure["D6"] = 1.0
        application.bind_column(
            "PresenceSensor",
            [f"sensor-D6-{space:04d}" for space in range(5)],
            [PresenceSensorDriver(app.environment, "D6", space)
             for space in range(5)],
            parkingLot=["D6"] * 5,
        )
        panel = DisplayPanelDriver()
        application.create_device(
            "ParkingEntrancePanel", "panel-D6", panel, location="D6"
        )

        app.advance(600)
        assert panel.status == "FREE: 5"
        # The suggestion panels now rank three lots.
        city_status = next(iter(app.city_panels.values())).status
        assert "D6" in city_status

    def test_decommissioned_lot_disappears(self):
        app = build_parking_app(
            capacities={"A22": 5, "B16": 5}, seed=42,
            environment_step_seconds=100_000.0,
        )
        app.advance(600)
        for space in range(5):
            app.application.unbind_device(f"sensor-B16-{space:04d}")
        app.advance(600)
        # B16 contributed no readings this sweep: its panel keeps the
        # stale status but availability no longer reports it.
        availability = app.implementations["ParkingAvailability"]
        del availability
        city_status = next(iter(app.city_panels.values())).status
        assert "B16" not in city_status
