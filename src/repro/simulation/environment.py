"""Simulated physical environments.

Each environment owns a piece of simulated world state and a ``step()``
method the simulation clock calls periodically.  Device drivers
(:mod:`repro.simulation.sensors`) read from and actuate on environments,
closing the Sense-Compute-Control loop entirely in simulation.
"""

from __future__ import annotations

import math
import random
from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

from repro.runtime.clock import Clock
from repro.simulation.traces import daily_demand


class Environment:
    """Base class: periodic world-state evolution driven by a clock."""

    def __init__(self, step_seconds: float = 60.0):
        if step_seconds <= 0:
            raise ValueError("step_seconds must be > 0")
        self.step_seconds = step_seconds
        self._job = None
        self._clock: Optional[Clock] = None
        self.steps = 0

    def attach(self, clock: Clock) -> "Environment":
        """Start evolving on ``clock``; idempotent per clock."""
        if self._job is not None:
            raise RuntimeError("environment already attached to a clock")
        self._clock = clock
        self._job = clock.schedule_periodic(self.step_seconds, self._tick)
        return self

    def detach(self) -> None:
        if self._job is not None:
            self._job.cancel()
            self._job = None
            self._clock = None

    def _tick(self) -> None:
        self.steps += 1
        self.step(self.now)

    @property
    def now(self) -> float:
        return self._clock.now() if self._clock is not None else 0.0

    def step(self, now: float) -> None:
        """Advance world state to time ``now``; override in subclasses."""


class ParkingLotEnvironment(Environment):
    """A city's parking infrastructure: lots of spaces filling and emptying.

    Occupancy follows the daily demand curve with exponential stays, as in
    :func:`repro.simulation.traces.occupancy_trace`, but kept live so
    sensors can be polled at any moment.  Lots can be given different
    pressure factors (downtown vs. peripheral).
    """

    def __init__(
        self,
        lots: Dict[str, int],
        step_seconds: float = 60.0,
        mean_stay_seconds: float = 3600.0,
        pressure: Optional[Dict[str, float]] = None,
        seed: int = 0,
    ):
        super().__init__(step_seconds)
        if not lots:
            raise ValueError("at least one parking lot is required")
        self.lots = dict(lots)
        self.mean_stay_seconds = mean_stay_seconds
        self.pressure = {lot: 1.0 for lot in lots}
        if pressure:
            self.pressure.update(pressure)
        self._rng = random.Random(seed)
        self._occupied: Dict[str, List[bool]] = {
            lot: [False] * capacity for lot, capacity in self.lots.items()
        }

    def step(self, now: float) -> None:
        departure_probability = 1 - math.exp(
            -self.step_seconds / self.mean_stay_seconds
        )
        for lot, spaces in self._occupied.items():
            for index, taken in enumerate(spaces):
                if taken and self._rng.random() < departure_probability:
                    spaces[index] = False
            target = min(1.0, daily_demand(now) * self.pressure[lot])
            desired = int(target * len(spaces))
            free = [i for i, taken in enumerate(spaces) if not taken]
            arrivals = max(0, desired - (len(spaces) - len(free)))
            for index in self._rng.sample(free, min(arrivals, len(free))):
                spaces[index] = True

    # -- sensing / acting -----------------------------------------------------

    def is_occupied(self, lot: str, space: int) -> bool:
        return self._occupied[lot][space]

    def occupied_runs(
        self, runs: Sequence[Tuple[str, int, int]]
    ) -> List[bool]:
        """:meth:`is_occupied` over ``(lot, start, stop)`` runs of
        spaces, concatenated in order: one slice per run."""
        occupied = self._occupied
        return list(
            chain.from_iterable(
                occupied[lot][start:stop] for lot, start, stop in runs
            )
        )

    def occupancy(self, lot: str) -> float:
        spaces = self._occupied[lot]
        return sum(spaces) / len(spaces)

    def free_count(self, lot: str) -> int:
        spaces = self._occupied[lot]
        return len(spaces) - sum(spaces)

    def force(self, lot: str, space: int, occupied: bool) -> None:
        """Pin a space's state (used by tests for determinism)."""
        self._occupied[lot][space] = occupied


class HomeEnvironment(Environment):
    """A senior's home: cooker use, room presence, door state.

    The daily routine is a schedule of (start_hour, end_hour, room,
    cooking) entries; the cooker drains ``cooker_power`` watts while
    cooking (and can be forced on/off by actuators, which is how the
    cooker-monitoring scenario injects the 'left on' hazard).
    """

    DEFAULT_ROUTINE = (
        (7.0, 8.0, "kitchen", True),
        (8.0, 12.0, "living_room", False),
        (12.0, 13.0, "kitchen", True),
        (13.0, 19.0, "living_room", False),
        (19.0, 20.0, "kitchen", True),
        (20.0, 23.0, "bedroom", False),
        (23.0, 24.0, "bedroom", False),
    )

    def __init__(
        self,
        routine: Sequence = DEFAULT_ROUTINE,
        cooker_power: float = 1500.0,
        step_seconds: float = 60.0,
        seed: int = 0,
    ):
        super().__init__(step_seconds)
        self.routine = tuple(routine)
        self.cooker_power = cooker_power
        self._rng = random.Random(seed)
        self.cooker_on = False
        self.cooker_override: Optional[bool] = None
        self.room_override: Optional[str] = None
        self.current_room = "bedroom"

    def step(self, now: float) -> None:
        hour = (now % 86400.0) / 3600.0
        room = "bedroom"
        cooking = False
        for start, end, where, cooks in self.routine:
            if start <= hour < end:
                room, cooking = where, cooks
                break
        self.current_room = self.room_override or room
        if self.cooker_override is None:
            self.cooker_on = cooking
        else:
            self.cooker_on = self.cooker_override

    # -- sensing / acting -----------------------------------------------------

    def consumption(self) -> float:
        return self.cooker_power if self.cooker_on else 0.0

    def presence(self, room: str) -> bool:
        return self.current_room == room

    def set_cooker(self, on: bool) -> None:
        """Actuate the cooker; holds until released."""
        self.cooker_override = on
        self.cooker_on = on

    def release_cooker(self) -> None:
        """Return the cooker to routine control."""
        self.cooker_override = None

    def force_room(self, room: Optional[str]) -> None:
        """Pin the resident's location (None releases to routine).

        Takes effect from the next environment step; used to script
        scenarios such as night wandering.
        """
        self.room_override = room
        if room is not None:
            self.current_room = room


class FlightEnvironment(Environment):
    """Point-mass longitudinal flight dynamics for the avionics case study.

    State: altitude (m), vertical speed (m/s), airspeed (m/s), heading
    (deg).  Actuator inputs: ``elevator`` in [-1, 1] commands vertical
    acceleration, ``throttle`` in [0, 1] commands airspeed toward
    ``max_airspeed``, ``aileron`` in [-1, 1] commands turn rate.  The
    physics is deliberately simple — enough to make a closed-loop
    autopilot's behaviour observable.
    """

    def __init__(
        self,
        altitude: float = 1000.0,
        airspeed: float = 120.0,
        heading: float = 0.0,
        max_airspeed: float = 250.0,
        step_seconds: float = 1.0,
        turbulence: float = 0.0,
        seed: int = 0,
    ):
        super().__init__(step_seconds)
        self.altitude = altitude
        self.vertical_speed = 0.0
        self.airspeed = airspeed
        self.heading = heading
        self.max_airspeed = max_airspeed
        self.turbulence = turbulence
        self._rng = random.Random(seed)
        # actuator state
        self.elevator = 0.0
        self.throttle = 0.5
        self.aileron = 0.0

    MAX_VERTICAL_ACCEL = 3.0    # m/s^2 at full elevator
    MAX_TURN_RATE = 3.0         # deg/s at full aileron
    AIRSPEED_TAU = 20.0         # s, first-order throttle response

    def step(self, now: float) -> None:
        dt = self.step_seconds
        gust = (
            self._rng.uniform(-self.turbulence, self.turbulence)
            if self.turbulence
            else 0.0
        )
        self.vertical_speed += (
            self.elevator * self.MAX_VERTICAL_ACCEL + gust
        ) * dt
        # aerodynamic damping keeps the model stable
        self.vertical_speed *= max(0.0, 1.0 - 0.05 * dt)
        self.altitude = max(0.0, self.altitude + self.vertical_speed * dt)
        target_speed = self.throttle * self.max_airspeed
        self.airspeed += (target_speed - self.airspeed) * min(
            1.0, dt / self.AIRSPEED_TAU
        )
        self.heading = (
            self.heading + self.aileron * self.MAX_TURN_RATE * dt
        ) % 360.0

    # -- acting -----------------------------------------------------------------

    def set_elevator(self, value: float) -> None:
        self.elevator = max(-1.0, min(1.0, value))

    def set_throttle(self, value: float) -> None:
        self.throttle = max(0.0, min(1.0, value))

    def set_aileron(self, value: float) -> None:
        self.aileron = max(-1.0, min(1.0, value))
