"""Sweep concurrency: serial loop vs bounded thread-pool fan-out.

Reproduced shape: with per-read latency that models a real transport
(>= 1 ms per sensor poll), sweep wall time grows linearly with fleet
size in the serial loop and divides by the worker count in threaded
mode.  The headline assertion is the PR's acceptance bar: 8 workers
sweep the parking fleet at least 3x faster than the serial loop, while
both modes return byte-identical result streams.
"""

import time

from repro.apps.parking import build_parking_app
from repro.runtime.sweep import SweepConfig, SweepEngine

READ_LATENCY = 0.0015  # seconds; models a LAN round-trip per sensor
FLEET = {"A22": 32, "B16": 24, "D6": 24}  # 80 presence sensors
ROUNDS = 3


def build_fleet():
    app = build_parking_app(capacities=FLEET, seed=7)
    return app.application


def slow_read(instance):
    """A supervised-read stand-in: sleep releases the GIL, as a socket
    recv would, so the fan-out can actually overlap reads."""
    time.sleep(READ_LATENCY)
    return instance.entity_id


def timed_sweeps(application, config):
    engine = SweepEngine(application.registry, application.clock, config)
    try:
        best = float("inf")
        payload = None
        for _ in range(ROUNDS):
            started = time.perf_counter()
            __, payload = engine.sweep("PresenceSensor", slow_read)
            best = min(best, time.perf_counter() - started)
        return best, payload
    finally:
        engine.close()


def test_threaded_sweep_beats_serial(table, benchmark):
    application = build_fleet()

    def run_series():
        rows = []
        serial_s, serial_payload = timed_sweeps(
            application, SweepConfig(mode="serial")
        )
        rows.append(("serial", 1, f"{serial_s * 1000:.1f}", "1.0x"))
        speedups = {}
        for workers in (2, 4, 8):
            threaded_s, payload = timed_sweeps(
                application,
                SweepConfig(
                    mode="threaded", workers=workers, batch_size=8
                ),
            )
            assert payload == serial_payload  # identical merge order
            speedups[workers] = serial_s / threaded_s
            rows.append(
                (
                    "threaded",
                    workers,
                    f"{threaded_s * 1000:.1f}",
                    f"{speedups[workers]:.1f}x",
                )
            )
        return rows, speedups

    rows, speedups = benchmark.pedantic(run_series, rounds=1, iterations=1)
    table(
        "Sweep concurrency: 80-sensor parking fleet, "
        f"{READ_LATENCY * 1000:.1f} ms per read",
        ("mode", "workers", "sweep ms", "speedup"),
        rows,
    )
    # Acceptance bar: 8 workers hide at least 3x of the serial latency,
    # and adding workers never makes the sweep slower than 2 workers.
    assert speedups[8] >= 3.0
    assert speedups[8] >= speedups[2] * 0.9


def test_auto_mode_stays_serial_under_simulation(table, benchmark):
    """The determinism guarantee costs nothing: auto mode on a
    simulation clock is the plain loop, with no pool ever created."""
    application = build_fleet()

    def run_auto():
        engine = SweepEngine(
            application.registry, application.clock, SweepConfig()
        )
        started = time.perf_counter()
        __, results = engine.sweep("PresenceSensor", lambda i: i.entity_id)
        elapsed = time.perf_counter() - started
        stats = engine.stats()
        engine.close()
        return elapsed, len(results), stats

    elapsed, read_count, stats = benchmark.pedantic(
        run_auto, rounds=1, iterations=1
    )
    table(
        "Auto mode under SimulationClock (no per-read latency)",
        ("effective mode", "reads", "sweep ms"),
        (("serial", read_count, f"{elapsed * 1000:.2f}"),),
    )
    assert stats["serial_sweeps"] == 1
    assert stats["threaded_sweeps"] == 0
    assert read_count == sum(FLEET.values())
