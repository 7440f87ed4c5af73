"""Assembly of the cooker monitoring application."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.apps.cooker.design import DESIGN_SOURCE, get_design
from repro.apps.cooker.devices import CookerDriver, TVPrompterDriver
from repro.apps.cooker.logic import (
    AlertContext,
    NotifyController,
    RemoteTurnOffContext,
    TurnOffController,
)
from repro.api import Application, RuntimeConfig, SimulationClock
from repro.simulation.environment import HomeEnvironment
from repro.simulation.sensors import ClockDeviceDriver


@dataclass
class CookerApp:
    """A runnable cooker-monitoring deployment with its handles."""

    application: Application
    environment: HomeEnvironment
    cooker_driver: CookerDriver
    prompter_driver: TVPrompterDriver
    clock_driver: ClockDeviceDriver
    alert: AlertContext
    notify: NotifyController
    remote_turn_off: RemoteTurnOffContext
    turn_off: TurnOffController

    def advance(self, seconds: float) -> int:
        return self.application.advance(seconds)

    @property
    def cooker_on(self) -> bool:
        return self.environment.consumption() > 0


def build_cooker_app(
    clock: Optional[SimulationClock] = None,
    environment: Optional[HomeEnvironment] = None,
    threshold_seconds: int = 1200,
    renotify_seconds: int = 600,
    start: bool = True,
    config: Optional[RuntimeConfig] = None,
) -> CookerApp:
    """Build (and by default start) the cooker monitoring application.

    The home environment is attached to the same clock, so advancing the
    application advances the simulated home too.

    ``config`` carries runtime policy (batching, supervision, error
    policy...); as in :func:`~repro.apps.parking.build_parking_app`,
    the ``clock`` argument wins over ``config.clock`` and a config left
    at the default name runs as ``CookerMonitoring``.
    """
    clock = clock or (config.clock if config else None) or SimulationClock()
    environment = environment or HomeEnvironment(step_seconds=60.0)
    base = config if config is not None else RuntimeConfig()
    config = base.replace(
        clock=clock,
        name=base.name if base.name != "app" else "CookerMonitoring",
    )
    application = Application(get_design(), config)

    alert = AlertContext(threshold_seconds, renotify_seconds)
    notify = NotifyController()
    remote = RemoteTurnOffContext()
    turn_off = TurnOffController()
    application.implement("Alert", alert)
    application.implement("Notify", notify)
    application.implement("RemoteTurnOff", remote)
    application.implement("TurnOff", turn_off)

    cooker_driver = CookerDriver(environment)
    prompter_driver = TVPrompterDriver()
    clock_driver = ClockDeviceDriver()
    application.create_device("Cooker", "cooker-kitchen", cooker_driver)
    application.create_device("TVPrompter", "tv-living-room", prompter_driver)
    application.create_device("Clock", "wall-clock", clock_driver)

    environment.attach(clock)
    clock_driver.start(clock)
    if start:
        application.start()
    return CookerApp(
        application=application,
        environment=environment,
        cooker_driver=cooker_driver,
        prompter_driver=prompter_driver,
        clock_driver=clock_driver,
        alert=alert,
        notify=notify,
        remote_turn_off=remote,
        turn_off=turn_off,
    )


__all__ = ["CookerApp", "DESIGN_SOURCE", "build_cooker_app"]
