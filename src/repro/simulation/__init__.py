"""Simulated infrastructures standing in for physical deployments.

The paper's applications run on real homes, parking lots, and aircraft;
this package provides their synthetic equivalents (per the reproduction's
substitution rule): stochastic environments advanced by the simulation
clock, device drivers that sense/actuate those environments, workload
trace generators, a network model (``repro.simulation.network``: named
hops with latency / jitter / loss), and failure injection for the
dependability dimension the paper sketches in its conclusion.
"""

from repro.simulation.environment import (
    Environment,
    FlightEnvironment,
    HomeEnvironment,
    ParkingLotEnvironment,
)
from repro.simulation.faults import FaultInjector
from repro.simulation.sensors import (
    ClockDeviceDriver,
    EnvironmentDriver,
    ThresholdPushDriver,
)
from repro.simulation.traces import (
    bernoulli_field,
    daily_demand,
    occupancy_trace,
    poisson_arrivals,
)

__all__ = [
    "ClockDeviceDriver",
    "Environment",
    "EnvironmentDriver",
    "FaultInjector",
    "FlightEnvironment",
    "HomeEnvironment",
    "ParkingLotEnvironment",
    "ThresholdPushDriver",
    "bernoulli_field",
    "daily_demand",
    "occupancy_trace",
    "poisson_arrivals",
]
