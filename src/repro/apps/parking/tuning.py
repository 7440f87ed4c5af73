"""The parking study under the adaptive tuning controller.

A reference scenario, not runtime machinery: it wires the parking
application, a connection-flap fault plan and the
:class:`~repro.tuning.TuningController` together and reports what the
controller did.  ``repro tune`` prints the report.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from repro.apps.parking.app import build_parking_app
from repro.faults.chaos import ChaosInjector, FaultPlan
from repro.faults.policy import StalePolicy, SupervisionPolicy
from repro.runtime.clock import SimulationClock
from repro.runtime.config import RuntimeConfig
from repro.tuning import TuningController

__all__ = ["run_parking_tuning"]


def run_parking_tuning(
    seed: int = 7,
    duration_seconds: float = 21600.0,
    interval_seconds: float = 600.0,
    flap_fraction: float = 0.5,
    flap_start: float = 1800.0,
    flap_period: float = 300.0,
    knobs: Tuple[str, ...] = (
        "supervision.failure_threshold",
        "supervision.backoff_base_seconds",
    ),
) -> Dict[str, Any]:
    """Run the parking study with the adaptive controller closed over a
    connection-flap plan, and report the tuning trajectory.

    Half the presence sensors flap down/up every ``flap_period`` seconds
    from ``flap_start`` to the end of the run.  The controller minimises
    the number of reads that reach flapping hardware (the injector's
    failure counter — each one is a wasted RPC against a dark device),
    which it can only do by retuning the supervision policy live: trip
    breakers sooner (``failure_threshold`` down) and probe less eagerly
    (``backoff_base_seconds`` up).  The whole loop runs on a
    :class:`~repro.runtime.clock.SimulationClock`, so the report is a
    deterministic function of the arguments; ``repro tune`` prints it.
    """
    clock = SimulationClock()
    config = RuntimeConfig(
        clock=clock,
        name="ParkingTuning",
        supervision=SupervisionPolicy(
            failure_threshold=5,
            backoff_base_seconds=60.0,
            backoff_max_seconds=3600.0,
            jitter=0.0,
            quarantine_after=None,
        ),
        supervision_seed=seed,
        stale=StalePolicy("last_known"),
    )
    parking = build_parking_app(
        clock=clock,
        availability_period="1 min",
        seed=seed,
        start=False,
        config=config,
    )
    app = parking.application

    flap_duration = duration_seconds - flap_start
    plan = FaultPlan(seed=seed).flap(
        "PresenceSensor",
        start=flap_start,
        duration=flap_duration,
        flap_period=flap_period,
        fraction=flap_fraction,
    )
    injector = ChaosInjector(app, plan).attach()
    app.start()
    controller = TuningController(
        app,
        knobs=knobs,
        # Cumulative cost: every read the flapping hardware still
        # receives.
        objective=lambda: float(injector.injected_failures),
        interval_seconds=interval_seconds,
    )
    controller.start()
    app.advance(duration_seconds)

    tuning = controller.report()
    report: Dict[str, Any] = {
        "seed": seed,
        "duration_seconds": duration_seconds,
        "flap_window": [flap_start, flap_start + flap_duration],
        "flap_period_seconds": flap_period,
        "sensors_total": parking.sensor_count,
        "sensors_flapping": len(injector.targeted_entities),
        "injected_read_failures": injector.injected_failures,
        "gather_errors": app.stats["gather_errors"],
        "tuning": tuning,
        "adjusted": bool(tuning["stats"]["adjustments"]),
    }
    controller.stop()
    injector.detach()
    app.stop()
    return report
