"""Fleet scale: the million-device shard hot path.

Reproduced shape: the paper's large-scale orchestration claim pushed to
fleet size — one declared design, a million bound devices, and the
sweep/publish pipeline surviving the jump through the PR's three
mechanisms working together:

* **delta wire protocol** — workers track per-position payload digests,
  so steady-state sweep replies carry only the changed rows plus one
  quiescent count instead of a million pickled tuples;
* **persistent columnar cohorts + partition memo** — the per-sweep
  Python cost (cohort formation, shard partitioning) is compiled once
  per registry version instead of re-derived per sweep;
* **overlapped gateway time** — each worker process sleeps only its
  shard's modeled service time, concurrently.

Two headline gates (the PR acceptance bar, run by the CI
``fleet-smoke`` job):

* 4 shard workers sweep the 1M-device fleet at least **3x** faster
  than the single process;
* the delta block protocol costs at most **2.0 bytes per device per
  sweep** over the worker pipes across the benchmark's four sweeps
  (the first registers the whole fleet; the rest ship only changes).
  The row-tuple format it replaced cost 9.70.

Published context values must be identical sharded and single-process
— the wire format is an encoding, never a semantics change.
"""

import json
import os
import time

from benchmarks.fleet_scale import FleetScaleBootstrap
from repro.api import ShardConfig, ShardedRuntime

DEVICES = 1_000_000
SERVICE_TIME = 50e-6  # modeled gateway time per device read
ACTIVITY = 0.02  # P(device active) per tick: ~4% of rows flip per sweep
PERIOD = 60.0  # the bootstrap's ZoneLevels period
SEED = 11
BYTE_SWEEPS = 4
MIN_SPEEDUP_AT_4 = 3.0
MAX_BYTES_PER_DEVICE_SWEEP = 2.0
ARTIFACT = os.environ.get("FLEET_SCALE_JSON")


def _runtime(shard, service_time):
    bootstrap = FleetScaleBootstrap(
        count=DEVICES,
        seed=SEED,
        service_time=service_time,
        activity=ACTIVITY,
        shard=shard,
    )
    runtime = ShardedRuntime(bootstrap)
    published = []
    runtime.app.bus.subscribe(
        ("context", "ZoneLevels"),
        lambda event: published.append((event.value, event.timestamp)),
    )
    return runtime.start(), published


def timed_serial():
    """Wall time of one single-process sweep (modeled gateway time paid
    serially across the whole fleet)."""
    runtime, published = _runtime(ShardConfig(enabled=False), SERVICE_TIME)
    try:
        started = time.perf_counter()
        runtime.advance(PERIOD)
        return time.perf_counter() - started, published
    finally:
        runtime.stop()


def timed_sharded(workers):
    """Best-of-two sharded sweeps: the first pays the delta
    registration epoch, the second is the steady state this benchmark
    claims."""
    runtime, published = _runtime(
        ShardConfig(enabled=True, workers=workers), SERVICE_TIME
    )
    try:
        best = float("inf")
        for __ in range(2):
            started = time.perf_counter()
            runtime.advance(PERIOD)
            best = min(best, time.perf_counter() - started)
        return best, published
    finally:
        runtime.stop()


def wire_bytes():
    """Bytes over the worker pipes for BYTE_SWEEPS sweeps at zero
    service time (byte counts are independent of modeled latency)."""
    runtime, published = _runtime(ShardConfig(enabled=True, workers=4), 0.0)
    try:
        runtime.advance(BYTE_SWEEPS * PERIOD)
        stats = runtime.stats()
        return {
            "bytes": stats["router"]["wire_bytes"],
            "delta_rows": stats["delta_rows"],
            "quiescent_rows": stats["quiescent_rows"],
            "published": published,
        }
    finally:
        runtime.stop()


def test_fleet_scale_delta_wire_path(table, benchmark):
    def run_series():
        delta = wire_bytes()
        serial_s, serial_values = timed_serial()
        sharded_s, sharded_values = timed_sharded(4)
        assert sharded_values[: len(serial_values)] == serial_values
        assert delta["published"][: len(serial_values)] == serial_values
        speedup = serial_s / sharded_s
        return {
            "serial_s": serial_s,
            "sharded_s": sharded_s,
            "speedup": speedup,
            "delta_bytes": delta["bytes"],
            "bytes_per_device_sweep": delta["bytes"]
            / (DEVICES * BYTE_SWEEPS),
            "delta_rows": delta["delta_rows"],
            "quiescent_rows": delta["quiescent_rows"],
        }

    result = benchmark.pedantic(run_series, rounds=1, iterations=1)
    table(
        f"Fleet scale: {DEVICES} devices, 4 workers, "
        f"{SERVICE_TIME * 1e6:.0f} us modeled gateway time per read",
        ("measure", "value"),
        [
            ("serial sweep", f"{result['serial_s']:.1f} s"),
            ("sharded sweep", f"{result['sharded_s']:.1f} s"),
            ("speedup", f"{result['speedup']:.2f}x"),
            (
                "delta wire",
                f"{result['delta_bytes'] / 1e6:.1f} MB / {BYTE_SWEEPS} sweeps",
            ),
            (
                "per device-sweep",
                f"{result['bytes_per_device_sweep']:.2f} B",
            ),
            ("delta rows", result["delta_rows"]),
            ("quiescent rows", result["quiescent_rows"]),
        ],
    )
    if ARTIFACT:
        with open(ARTIFACT, "w") as handle:
            json.dump(
                {
                    "devices": DEVICES,
                    "service_time_s": SERVICE_TIME,
                    "activity": ACTIVITY,
                    "speedup_at_4": round(result["speedup"], 2),
                    "delta_bytes": result["delta_bytes"],
                    "bytes_per_device_sweep": round(
                        result["bytes_per_device_sweep"], 2
                    ),
                    "delta_rows": result["delta_rows"],
                    "quiescent_rows": result["quiescent_rows"],
                },
                handle,
                indent=2,
                sort_keys=True,
            )
            handle.write("\n")
    assert result["speedup"] >= MIN_SPEEDUP_AT_4, (
        f"4-worker fleet sweep speedup {result['speedup']:.2f}x fell "
        f"below the {MIN_SPEEDUP_AT_4:.1f}x acceptance bar"
    )
    assert result["bytes_per_device_sweep"] <= MAX_BYTES_PER_DEVICE_SWEEP, (
        f"delta wire cost {result['bytes_per_device_sweep']:.2f} B per "
        f"device-sweep exceeds the {MAX_BYTES_PER_DEVICE_SWEEP:.1f} B "
        "acceptance bar"
    )
