"""Perf snapshots: record a benchmark run, diff later runs against it.

The benchmarks in this directory assert *shapes* (who wins, by how
much at minimum).  This script adds a second, longitudinal gate: the
first accepted run of the hot-path benchmarks is checked in as a
snapshot (``BENCH_<nnn>.json`` at the repo root), and CI re-runs the
scenarios and diffs against it.  Structural facts (round-trip counts,
plan compile/hit counts) must match exactly — they are deterministic.
Timing ratios are machine-dependent, so they only gate with a generous
relative tolerance: a new run may not fall below
``snapshot * (1 - tolerance)``.  Getting *faster* never fails.

Usage::

    PYTHONPATH=src python benchmarks/perf_snapshot.py --write BENCH_006.json
    PYTHONPATH=src python benchmarks/perf_snapshot.py --check BENCH_006.json

``--check`` may repeat: the scenarios run once and every snapshot diffs
against that run.  A snapshot only gates the sections it records
(absent sections are skipped), so era-scoped snapshots compose —
``BENCH_006.json`` covers the batch/cache/plan sections,
``BENCH_007.json`` covers ``shard_scaling``, ``BENCH_008.json`` covers
``placement``, ``BENCH_009.json`` covers ``tuning`` and
``BENCH_012.json`` covers ``fleet`` (``BENCH_010.json`` is the same
section from when a row-tuple wire format still existed to compare
against; it stays as history and is no longer checked)::

    python benchmarks/perf_snapshot.py \\
        --check BENCH_006.json --check BENCH_007.json

``--section`` (repeatable) restricts a ``--write`` run to named
sections, which is how the era-scoped snapshots are produced::

    python benchmarks/perf_snapshot.py \\
        --section shard_scaling --write BENCH_007.json

Exit status 0 on a clean diff, 1 with a line per violation otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys

from bench_batch_read import (
    FLEET,
    READ_LATENCY,
    BatchConfig,
    SweepConfig,
    build_app,
    timed_period,
)
from bench_query_cache import (
    CacheConfig,
    build_app as build_cache_app,
    timed_bursts,
)

from repro.api import Application, Context, RuntimeConfig, analyze
from repro.runtime.device import CallableDriver

SNAPSHOT_VERSION = 1
DEFAULT_TOLERANCE = 0.5  # a run may lose half the recorded speedup
TEN_K_FLEET = {"A22": 3400, "B16": 3300, "D6": 3300}
PLAN_PUBLISHES = 200
# Fleet wire gate: pickled bytes per device per sweep over the worker
# pipes at activity=0.02 (BENCH_010 recorded 1.38; the row-tuple
# format the delta blocks replaced cost 9.70).
MAX_BYTES_PER_DEVICE_SWEEP = 2.0

PLAN_DESIGN = analyze(
    """
    device MotionSensor { source presence as Boolean; }

    context Watcher as Integer {
        when provided presence from MotionSensor
        always publish;
    }
    """
)


class _Watcher(Context):
    def on_presence_from_motion_sensor(self, event, discover):
        return 1


def measure_batch_read() -> dict:
    """The 80-sensor gateway scenario: wall-time speedups."""
    timings = {}
    trips = {}
    payloads = {}
    modes = (
        ("scalar", BatchConfig(), None),
        ("batch_serial", BatchConfig(enabled=True), None),
        (
            "batch_threaded",
            BatchConfig(enabled=True),
            SweepConfig(mode="threaded", workers=4),
        ),
    )
    for label, batch, sweep in modes:
        app, free, gateway = build_app(batch, slow=True, sweep=sweep)
        timings[label] = timed_period(app)
        trips[label] = gateway.round_trips
        payloads[label] = free.deliveries
    if payloads["batch_serial"] != payloads["scalar"]:
        raise AssertionError("batch serial payloads diverged from scalar")
    if payloads["batch_threaded"] != payloads["scalar"]:
        raise AssertionError("batch threaded payloads diverged from scalar")
    return {
        "fleet": sum(FLEET.values()),
        "read_latency_s": READ_LATENCY,
        "scalar_round_trips": trips["scalar"],
        "batch_round_trips": trips["batch_serial"],
        "speedup_serial": round(
            timings["scalar"] / timings["batch_serial"], 2
        ),
        "speedup_threaded": round(
            timings["scalar"] / timings["batch_threaded"], 2
        ),
    }


def measure_scale_10k() -> dict:
    """10k devices on a zero-latency gateway: the driver round-trip
    count with and without batching (deterministic structure, not a
    timing)."""
    trips = {}
    payloads = {}
    for label, batch in (
        ("scalar", BatchConfig()),
        ("batch", BatchConfig(enabled=True)),
    ):
        app, free, gateway = build_app(
            batch, slow=False, fleet=TEN_K_FLEET
        )
        timed_period(app)
        trips[label] = gateway.round_trips
        payloads[label] = free.deliveries
    if payloads["batch"] != payloads["scalar"]:
        raise AssertionError("10k batch payloads diverged from scalar")
    return {
        "devices": sum(TEN_K_FLEET.values()),
        "scalar_round_trips": trips["scalar"],
        "batch_round_trips": trips["batch"],
        "round_trip_ratio": round(trips["scalar"] / trips["batch"], 1),
    }


def measure_delivery_plans() -> dict:
    """Compiled dispatch reuse over an event-driven publish stream."""
    app = Application(
        PLAN_DESIGN, RuntimeConfig(batch=BatchConfig(enabled=True))
    )
    app.implement("Watcher", _Watcher())
    instance = app.create_device(
        "MotionSensor",
        "m-1",
        CallableDriver(sources={"presence": lambda: True}),
    )
    app.start()
    for __ in range(PLAN_PUBLISHES):
        instance.publish("presence", True)
    stats = app.planner.stats()
    return {
        "publishes": PLAN_PUBLISHES,
        "compiles": stats["compiles"],
        "hits": stats["hits"],
        "invalidations": stats["invalidations"],
    }


def measure_shard_scaling() -> dict:
    """Process-sharded sweeps over a 20k-device modeled-latency fleet.

    A scaled-down sibling of ``bench_shard_scaling.py`` (the 100k run
    lives in the CI ``shard-smoke`` job): structural facts — fleet
    size, worker count, identical deliveries — gate exactly, and the
    4-worker wall-time speedup gates as a ratio.
    """
    import time as _time

    from repro.api import (
        ShardConfig,
        ShardedRuntime,
        SimulatedFleetBootstrap,
    )

    devices = 20_000
    service_time = 30e-6

    def timed(workers):
        bootstrap = SimulatedFleetBootstrap(
            count=devices,
            seed=11,
            service_time=service_time,
            batch=True,
            shard=ShardConfig(enabled=workers > 1, workers=workers),
        )
        runtime = ShardedRuntime(bootstrap)
        published = []
        runtime.app.bus.subscribe(
            ("context", "ZoneLoad"),
            lambda event: published.append((event.value, event.timestamp)),
        )
        runtime.start()
        try:
            best = float("inf")
            for __ in range(2):
                started = _time.perf_counter()
                runtime.advance(60.0)
                best = min(best, _time.perf_counter() - started)
            return best, published
        finally:
            runtime.stop()

    serial_s, serial_values = timed(1)
    sharded_s, sharded_values = timed(4)
    if sharded_values != serial_values:
        raise AssertionError("sharded deliveries diverged from single")
    return {
        "devices": devices,
        "workers": 4,
        "sweeps_identical": True,
        "speedup": round(serial_s / sharded_s, 2),
    }


def measure_query_cache() -> dict:
    """The PR-5 read-cache scenario, kept in the trajectory."""
    uncached_app, __, __states = build_cache_app(CacheConfig(), slow=True)
    uncached_s, uncached_payload = timed_bursts(uncached_app)
    cached_app, __, __states = build_cache_app(
        CacheConfig(enabled=True, ttl_seconds=60.0), slow=True
    )
    cached_s, cached_payload = timed_bursts(cached_app)
    if cached_payload != uncached_payload:
        raise AssertionError("cached payloads diverged from uncached")
    return {"speedup": round(uncached_s / cached_s, 2)}


def measure_placement() -> dict:
    """The placement-tier scenario: WAN byte cut, fully deterministic.

    The modeled network makes every number structural — bytes shipped,
    partials sent, the byte-cut ratio and both modeled p99 uplink
    latencies repeat exactly run to run — so the whole section gates
    exactly.
    """
    from bench_placement import DEVICES, EDGE_NODES, run_mode

    cloud = run_mode(edge=False)
    edge = run_mode(edge=True)
    if edge["deliveries"] != cloud["deliveries"]:
        raise AssertionError("edge deliveries diverged from cloud-only")
    return {
        "devices": DEVICES,
        "edge_nodes": EDGE_NODES,
        "cloud_wan_bytes": cloud["wan_bytes"],
        "edge_wan_bytes": edge["wan_bytes"],
        "byte_cut": round(cloud["wan_bytes"] / edge["wan_bytes"], 2),
        "edge_beats_cloud_p99": (
            edge["p99_uplink_s"] < cloud["p99_uplink_s"]
        ),
    }


def measure_adaptive_tuning() -> dict:
    """The self-tuning loop under the flapping fault schedule.

    The cost model is analytic and the controller deterministic
    (``epsilon=0``), so every number — p99s, adjustment counts,
    rollbacks — is structural and the whole section gates exactly.
    """
    from bench_adaptive import (
        ADAPTIVE_THRESHOLD,
        DEVICES,
        FIXED_MIN_COLUMNS,
        FIXED_THRESHOLDS,
        SWEEPS,
        run_config,
    )

    fixed = [
        run_config(min_column, threshold)
        for min_column in FIXED_MIN_COLUMNS
        for threshold in FIXED_THRESHOLDS
    ]
    adaptive = run_config(2, ADAPTIVE_THRESHOLD, adaptive=True)
    for run in fixed + [adaptive]:
        if run["full_payloads"] != SWEEPS:
            raise AssertionError(
                "a run dropped payload members despite stale delivery"
            )
    stats = adaptive["tuning"]["stats"]
    best_fixed_p99 = min(run["p99_ms"] for run in fixed)
    return {
        "devices": DEVICES,
        "sweeps": SWEEPS,
        "adaptive_p99_ms": adaptive["p99_ms"],
        "adaptive_mean_ms": adaptive["mean_ms"],
        "best_fixed_p99_ms": best_fixed_p99,
        "adaptive_beats_all_fixed": (
            adaptive["p99_ms"] < best_fixed_p99
        ),
        "adjustments_up": stats["adjustments"].get(
            "batch.min_column:up", 0
        ),
        "adjustments_down": stats["adjustments"].get(
            "batch.min_column:down", 0
        ),
        "rollbacks": stats["rollbacks"],
    }


def measure_fleet() -> dict:
    """The fleet-scale wire path, scaled to 100k devices.

    A scaled-down sibling of ``bench_fleet_scale.py`` (the 1M run
    lives in the CI ``fleet-smoke`` job).  Shard assignment is stable
    crc32 and the activity signal is deterministic in the seed, so the
    pickled byte count, delta-row and quiescent-row counts gate
    exactly, and the bytes each device costs per sweep gate against
    an absolute ceiling; only the 4-worker wall-time speedup is
    machine-dependent and gates as a ratio.
    """
    import time as _time

    from fleet_scale import FleetScaleBootstrap

    from repro.api import ShardConfig, ShardedRuntime

    devices = 100_000
    service_time = 50e-6
    sweeps = 4

    def runtime_for(shard, service):
        bootstrap = FleetScaleBootstrap(
            count=devices,
            seed=11,
            service_time=service,
            activity=0.02,
            shard=shard,
        )
        runtime = ShardedRuntime(bootstrap)
        published = []
        runtime.app.bus.subscribe(
            ("context", "ZoneLevels"),
            lambda event: published.append((event.value, event.timestamp)),
        )
        return runtime.start(), published

    runtime, delta_published = runtime_for(
        ShardConfig(enabled=True, workers=4), 0.0
    )
    try:
        runtime.advance(sweeps * 60.0)
        stats = runtime.stats()
    finally:
        runtime.stop()
    delta_bytes = stats["router"]["wire_bytes"]
    bytes_per_device_sweep = delta_bytes / (devices * sweeps)
    if bytes_per_device_sweep > MAX_BYTES_PER_DEVICE_SWEEP:
        raise AssertionError(
            f"wire cost {bytes_per_device_sweep:.2f} B per device-sweep "
            f"exceeds the {MAX_BYTES_PER_DEVICE_SWEEP} B ceiling"
        )

    runtime, serial_published = runtime_for(
        ShardConfig(enabled=False), service_time
    )
    try:
        started = _time.perf_counter()
        runtime.advance(60.0)
        serial_s = _time.perf_counter() - started
    finally:
        runtime.stop()
    runtime, sharded_published = runtime_for(
        ShardConfig(enabled=True, workers=4), service_time
    )
    try:
        sharded_s = float("inf")
        for __ in range(2):
            started = _time.perf_counter()
            runtime.advance(60.0)
            sharded_s = min(sharded_s, _time.perf_counter() - started)
    finally:
        runtime.stop()
    if sharded_published[: len(serial_published)] != serial_published:
        raise AssertionError("sharded deliveries diverged from single")
    if delta_published[: len(serial_published)] != serial_published:
        raise AssertionError("zero-latency deliveries diverged from single")
    return {
        "devices": devices,
        "workers": 4,
        "sweeps": sweeps,
        "deliveries_identical": True,
        "delta_bytes": delta_bytes,
        "bytes_per_device_sweep": round(bytes_per_device_sweep, 2),
        "delta_rows": stats["delta_rows"],
        "quiescent_rows": stats["quiescent_rows"],
        "speedup": round(serial_s / sharded_s, 2),
    }


SECTIONS = {
    "batch_read": measure_batch_read,
    "scale_10k": measure_scale_10k,
    "delivery_plans": measure_delivery_plans,
    "query_cache": measure_query_cache,
    "shard_scaling": measure_shard_scaling,
    "placement": measure_placement,
    "tuning": measure_adaptive_tuning,
    "fleet": measure_fleet,
}


def measure(sections=None) -> dict:
    names = sections if sections else list(SECTIONS)
    current = {"version": SNAPSHOT_VERSION}
    for name in names:
        current[name] = SECTIONS[name]()
    return current


# Per-section gate kinds: exact fields are deterministic structure,
# ratio fields gate with the relative tolerance.
EXACT = {
    "batch_read": ("fleet", "scalar_round_trips", "batch_round_trips"),
    "scale_10k": (
        "devices",
        "scalar_round_trips",
        "batch_round_trips",
        "round_trip_ratio",
    ),
    "delivery_plans": ("publishes", "compiles", "hits", "invalidations"),
    "shard_scaling": ("devices", "workers", "sweeps_identical"),
    "placement": (
        "devices",
        "edge_nodes",
        "cloud_wan_bytes",
        "edge_wan_bytes",
        "byte_cut",
        "edge_beats_cloud_p99",
    ),
    "tuning": (
        "devices",
        "sweeps",
        "adaptive_p99_ms",
        "adaptive_mean_ms",
        "best_fixed_p99_ms",
        "adaptive_beats_all_fixed",
        "adjustments_up",
        "adjustments_down",
        "rollbacks",
    ),
    "fleet": (
        "devices",
        "workers",
        "sweeps",
        "deliveries_identical",
        "delta_bytes",
        "bytes_per_device_sweep",
        "delta_rows",
        "quiescent_rows",
    ),
}
RATIOS = {
    "batch_read": ("speedup_serial", "speedup_threaded"),
    "query_cache": ("speedup",),
    "shard_scaling": ("speedup",),
    "fleet": ("speedup",),
}


def diff(snapshot: dict, current: dict, tolerance: float) -> list:
    """Violations of ``current`` against ``snapshot`` (empty = clean).

    Sections absent from the snapshot are skipped: each era-scoped
    snapshot gates only what it recorded.
    """
    problems = []
    for section, keys in EXACT.items():
        if section not in snapshot:
            continue
        recorded = snapshot.get(section, {})
        observed = current.get(section, {})
        for key in keys:
            if observed.get(key) != recorded.get(key):
                problems.append(
                    f"{section}.{key}: snapshot {recorded.get(key)!r}, "
                    f"got {observed.get(key)!r} (must match exactly)"
                )
    for section, keys in RATIOS.items():
        if section not in snapshot:
            continue
        recorded = snapshot.get(section, {})
        observed = current.get(section, {})
        for key in keys:
            was = recorded.get(key)
            now = observed.get(key)
            if was is None or now is None:
                problems.append(
                    f"{section}.{key}: missing from snapshot or run"
                )
                continue
            floor = was * (1.0 - tolerance)
            if now < floor:
                problems.append(
                    f"{section}.{key}: {now:.2f}x fell below "
                    f"{floor:.2f}x (snapshot {was:.2f}x, "
                    f"tolerance {tolerance:.0%})"
                )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--write", metavar="PATH", help="run and record a snapshot"
    )
    group.add_argument(
        "--check",
        metavar="PATH",
        action="append",
        help="run and diff against a snapshot (repeatable; the "
        "scenarios run once)",
    )
    parser.add_argument(
        "--section",
        metavar="NAME",
        action="append",
        choices=sorted(SECTIONS),
        help="measure only the named section(s); with --write, the "
        "snapshot records only those (repeatable)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="allowed relative speedup loss (default %(default)s)",
    )
    args = parser.parse_args(argv)

    current = measure(args.section)
    if args.write:
        with open(args.write, "w") as handle:
            json.dump(current, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"snapshot written to {args.write}:")
        print(json.dumps(current, indent=2, sort_keys=True))
        return 0

    print(f"current run: {json.dumps(current, sort_keys=True)}")
    problems = []
    for path in args.check:
        with open(path) as handle:
            snapshot = json.load(handle)
        print(f"snapshot {path}: {json.dumps(snapshot, sort_keys=True)}")
        problems.extend(
            f"{path}: {problem}"
            for problem in diff(snapshot, current, args.tolerance)
        )
    if problems:
        for problem in problems:
            print(f"REGRESSION: {problem}", file=sys.stderr)
        return 1
    print("snapshot diff clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
