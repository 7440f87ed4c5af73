"""C6: the dependability dimension — applications under failures and
lossy networks (the paper's §VI future-work directions, built out)."""

from repro.apps.parking import build_parking_app
from repro.runtime.clock import SimulationClock
from repro.simulation.faults import FaultInjector


class TestParkingUnderSensorFailures:
    def test_pipeline_survives_failures(self):
        app = build_parking_app(
            capacities={"A22": 30, "B16": 30}, seed=21
        )
        injector = FaultInjector(
            app.application.registry,
            app.application.clock,
            mtbf_seconds=3600.0,
            mttr_seconds=1800.0,
            device_type="PresenceSensor",
            seed=22,
        ).start()
        app.advance(12 * 3600)
        # panels kept updating every period despite failures
        for panel in app.entrance_panels.values():
            assert len(panel.history) == 72
        assert injector.failures > 0

    def test_counts_degrade_gracefully(self):
        """With half the sensors down, reported free counts can only be
        lower or equal — failed sensors are masked, never misread."""
        app = build_parking_app(
            capacities={"A22": 20}, seed=23,
            environment_step_seconds=100_000.0,
        )
        app.advance(600)
        baseline = int(app.entrance_panels["A22"].status.split(": ")[1])
        for index in range(0, 20, 2):
            app.application.registry.get(f"sensor-A22-{index:04d}").fail()
        app.advance(600)
        degraded_status = app.entrance_panels["A22"].status
        degraded = (
            0
            if degraded_status == "FULL"
            else int(degraded_status.split(": ")[1])
        )
        assert degraded <= baseline

    def test_availability_ratio_tracks_mtbf(self):
        """Shorter MTBF → more downtime (ablation of the failure model)."""
        def downtime(mtbf):
            clock = SimulationClock()
            app = build_parking_app(
                capacities={"A22": 40}, clock=clock, seed=24
            )
            injector = FaultInjector(
                app.application.registry,
                clock,
                mtbf_seconds=mtbf,
                mttr_seconds=600.0,
                device_type="PresenceSensor",
                seed=25,
            ).start()
            app.advance(24 * 3600)
            return injector.total_downtime

        assert downtime(1800.0) > downtime(36000.0)


class TestCookerOverLossyNetwork:
    def test_event_chain_with_latency(self):
        from repro.apps.cooker.design import get_design
        from repro.apps.cooker.devices import CookerDriver, TVPrompterDriver
        from repro.apps.cooker.logic import (
            AlertContext,
            NotifyController,
            RemoteTurnOffContext,
            TurnOffController,
        )
        from repro.runtime.app import Application
        from repro.runtime.config import RuntimeConfig
        from repro.runtime.placement import NetworkConfig
        from repro.simulation.environment import HomeEnvironment
        from repro.simulation.network import HopProfile
        from repro.simulation.sensors import ClockDeviceDriver

        clock = SimulationClock()
        link = NetworkConfig(hops={"link": HopProfile(latency=2.0)}, seed=1)
        app = Application(
            get_design(), RuntimeConfig(clock=clock, network=link)
        )
        app.implement("Alert", AlertContext(threshold_seconds=10))
        app.implement("Notify", NotifyController())
        app.implement("RemoteTurnOff", RemoteTurnOffContext())
        app.implement("TurnOff", TurnOffController())
        environment = HomeEnvironment()
        prompter = TVPrompterDriver()
        clock_driver = ClockDeviceDriver()
        app.create_device("Cooker", "c", CookerDriver(environment))
        app.create_device("TVPrompter", "tv", prompter)
        app.create_device("Clock", "clk", clock_driver)
        environment.set_cooker(True)
        clock_driver.start(clock)
        app.start()
        clock.advance(15)
        assert prompter.displayed  # alert got through, delayed
        prompter.answer("yes")
        assert environment.cooker_on  # answer still in flight
        clock.advance(2.0)
        assert not environment.cooker_on

    def test_periodic_gathering_immune_to_event_loss(self):
        from repro.runtime.config import RuntimeConfig
        from repro.runtime.placement import NetworkConfig
        from repro.simulation.network import HopProfile

        link = NetworkConfig(hops={"link": HopProfile(loss=0.9)}, seed=2)
        app = build_parking_app(
            capacities={"A22": 10},
            seed=26,
            config=RuntimeConfig(network=link),
        )
        app.advance(600)
        assert app.entrance_panels["A22"].history  # polling, not events
