"""Fleet scale: the million-device shard hot path.

Reproduced shape: the paper's large-scale orchestration claim pushed to
fleet size — one declared design, a million bound devices, and the
sweep/publish pipeline surviving the jump through three mechanisms
working together:

* **delta wire protocol** — workers track per-position payload digests,
  so steady-state sweep replies carry only the changed rows plus one
  quiescent count instead of a million pickled tuples;
* **persistent columnar cohorts + partition memo** — the per-sweep
  Python cost (cohort formation, shard partitioning) is compiled once
  per registry version instead of re-derived per sweep;
* **process shards** — each worker sweeps only the entities it owns.

This is the repository's only million-device artifact (the e2e
``fleet_sharded`` workload runs 200k).  What it asserts is structure,
not speed: the delta protocol costs at most **2.0 pickled bytes per
device per sweep** over the worker pipes across four sweeps (the first
registers the whole fleet; the rest ship only changes), the row counts
are the exact function of ``(seed, activity)`` they should be, and the
published context values are identical sharded and single-process — the
wire format is an encoding, never a semantics change.  Sweep wall times
are printed for the record; whether sharding pays on the wall clock is
``fleet_sharded``'s ``shard.speedup_vs_single``.
"""

import time

from benchmarks.fleet_scale import FleetScaleBootstrap
from repro.api import ShardConfig, ShardedRuntime

DEVICES = 1_000_000
WORKERS = 4
ACTIVITY = 0.02  # P(device active) per tick: ~4% of rows flip per sweep
PERIOD = 60.0  # the bootstrap's ZoneLevels period
SEED = 11
SWEEPS = 4
MAX_BYTES_PER_DEVICE_SWEEP = 2.0
# Deterministic in (SEED, ACTIVITY, DEVICES): the first sweep registers
# every row, later sweeps ship only the rows whose level flipped.
DELTA_ROWS = 1_119_292
QUIESCENT_ROWS = 2_880_708


def sweep(shard, sweeps):
    """Per-sweep wall times, published values, runtime stats and each
    worker's stats."""
    runtime = ShardedRuntime(
        FleetScaleBootstrap(
            count=DEVICES, seed=SEED, activity=ACTIVITY, shard=shard
        )
    )
    published = []
    runtime.app.bus.subscribe(
        ("context", "ZoneLevels"),
        lambda event: published.append((event.value, event.timestamp)),
    )
    runtime.start()
    try:
        seconds = []
        for __ in range(sweeps):
            started = time.perf_counter()
            runtime.advance(PERIOD)
            seconds.append(time.perf_counter() - started)
        return seconds, published, runtime.stats(), runtime.worker_stats()
    finally:
        runtime.stop()


def worker_peak(worker):
    """A worker's peak RSS, and that over its bound devices: for the
    record (the interpreter and the loaded code included), never
    asserted."""
    peak = worker["peak_rss_mb"]
    per_device = peak * 2**20 / worker["bound_entities"]
    return (
        f"worker {worker['shard']} peak RSS",
        f"{peak:.0f} MiB = {per_device:.0f} B per bound device",
    )


def test_fleet_scale_delta_wire_path(table, benchmark):
    def run_series():
        sharded = sweep(ShardConfig(enabled=True, workers=WORKERS), SWEEPS)
        single = sweep(ShardConfig(enabled=False), 2)
        return sharded, single

    sharded, single = benchmark.pedantic(run_series, rounds=1, iterations=1)
    sharded_s, sharded_values, stats, workers = sharded
    single_s, single_values, __, __ = single
    wire_bytes = stats["router"]["wire_bytes"]
    bytes_per_device_sweep = wire_bytes / (DEVICES * SWEEPS)
    table(
        f"Fleet scale: {DEVICES} devices, {WORKERS} workers, "
        f"{SWEEPS} sweeps",
        ("measure", "value"),
        [
            ("single-process first sweep", f"{single_s[0]:.1f} s"),
            ("single-process steady sweep", f"{single_s[1]:.1f} s"),
            ("sharded first sweep (registers)", f"{sharded_s[0]:.1f} s"),
            ("sharded steady sweep", f"{min(sharded_s[1:]):.1f} s"),
            ("delta wire", f"{wire_bytes / 1e6:.1f} MB / {SWEEPS} sweeps"),
            ("per device-sweep", f"{bytes_per_device_sweep:.2f} B"),
            ("delta rows", stats["delta_rows"]),
            ("quiescent rows", stats["quiescent_rows"]),
            *map(worker_peak, workers),
        ],
    )
    assert len(sharded_values) == SWEEPS
    assert sharded_values[: len(single_values)] == single_values
    assert stats["delta_rows"] == DELTA_ROWS
    assert stats["quiescent_rows"] == QUIESCENT_ROWS
    assert DELTA_ROWS + QUIESCENT_ROWS == DEVICES * SWEEPS
    assert bytes_per_device_sweep <= MAX_BYTES_PER_DEVICE_SWEEP, (
        f"delta wire cost {bytes_per_device_sweep:.2f} B per "
        f"device-sweep exceeds the {MAX_BYTES_PER_DEVICE_SWEEP:.1f} B "
        "acceptance bar"
    )
