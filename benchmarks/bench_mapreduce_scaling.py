"""C2 — `grouped by` exposes parallelism (§IV.2, DiaSwarm).

Reproduced shape: a design's grouped ``with map … reduce`` context,
written once, runs unchanged on a single process and on a sharded
runtime of 1 and 2 worker processes, and publishes the same values on
each, while on the sharded runtime its map phase really executes in
the worker processes — one per shard, never the coordinator — the
partitioned backend the design-level ``grouped by`` hands its
parallelism to.  The map is deliberately heavy (a 300-term sine series
per reading) and each emission carries the pid of the process that
computed it.

The job has a combiner, so each worker ships one partial per zone
across the pipe instead of one pair per reading; the coordinator's
``app.mapreduce.last_stats`` gives both counts (``mapped`` /
``shuffled``) and the table prints them.  The wall time per period is
printed for the record, not asserted: on a two-core box the best case
is under 2x and a single shot cannot resolve it.
"""

import math
import multiprocessing
import os
import statistics
import time
import weakref

from repro.api import (
    Application,
    Context,
    RuntimeConfig,
    ShardBootstrap,
    ShardConfig,
    ShardedRuntime,
    analyze,
)
from repro.simulation.sensors import GatewaySubstrate

DESIGN = """\
device SpectrumSensor {
    attribute zone as ZoneEnum;
    source level as Integer;
}
enumeration ZoneEnum { Z0, Z1, Z2, Z3 }

context ZoneSpectrum as Integer {
    when periodic level from SpectrumSensor <1 min>
    grouped by zone
    with map as Integer reduce as Integer
    always publish;
}
"""

ZONES = ("Z0", "Z1", "Z2", "Z3")
READINGS = 4000
PERIODS = 3
PERIOD = 60.0

_SUBSTRATES = weakref.WeakKeyDictionary()


class ZoneSpectrum(Context):
    """Compute-heavy per-reading work (per-sensor signal analysis).

    A map emission is ``(level, pid)``: the reading's series, scaled to
    an integer so the sums are exact in any partitioning, and the pid
    that computed it.  The combine folds a partition's emissions of a
    zone into one ``(total, count, pids)`` partial; the handler, on the
    coordinator, keeps the pids and publishes the totals."""

    WORK = 300

    def __init__(self):
        super().__init__()
        self.map_pids = set()
        self.zones = []

    def map(self, zone, level, collector):
        acc = 0.0
        for i in range(1, self.WORK):
            acc += math.sin(i * (level + 1) / 100.0) / i
        collector.emit_map(zone, (round(acc * 1e6), os.getpid()))

    def combine(self, zone, values, collector):
        levels = [level for level, __ in values]
        pids = {pid for __, pid in values}
        collector.emit_combine(zone, (sum(levels), len(levels), pids))

    def reduce(self, zone, partials, collector):
        total = sum(partial[0] for partial in partials)
        count = sum(partial[1] for partial in partials)
        pids = set().union(*(partial[2] for partial in partials))
        collector.emit_reduce(zone, (total, count, pids))

    def on_periodic_level(self, by_zone, discover):
        totals = {}
        for zone, (total, count, pids) in by_zone.items():
            totals[zone] = (total, count)
            self.map_pids |= pids
        self.zones.append(totals)
        return sum(total for total, __ in totals.values())


class SpectrumBootstrap(ShardBootstrap):
    """``READINGS`` zoned sensors over one gateway substrate per
    process: a reading is a pure function of (seed, entity, time), so
    every partitioning reads the same values."""

    def __init__(self, shard):
        self.shard = shard

    def fleet(self):
        return [f"spectrum-{index:05d}" for index in range(READINGS)]

    def build(self, ctx):
        app = Application(analyze(DESIGN), RuntimeConfig(shard=self.shard))
        app.implement("ZoneSpectrum", ZoneSpectrum())
        substrate = _SUBSTRATES[app] = GatewaySubstrate(
            app.clock, seed=3, models={"level": lambda draw: int(draw * 100)}
        )
        owned = [
            (entity_id, ZONES[position % len(ZONES)])
            for position, entity_id in enumerate(self.fleet())
            if ctx.owns(entity_id)
        ]
        app.bind_column(
            "SpectrumSensor",
            [entity_id for entity_id, __ in owned],
            [substrate.driver("level") for __ in owned],
            zone=[zone for __, zone in owned],
        )
        return app

    def bind_entity(self, app, entity_id, position):
        app.create_device(
            "SpectrumSensor",
            entity_id,
            _SUBSTRATES[app].driver("level"),
            zone=ZONES[position % len(ZONES)],
        )


def run(workers):
    """``PERIODS`` periods on ``workers`` worker processes (0: one
    process, no workers): what was published, what each period
    delivered, where the map ran, and the wall time per period."""
    shard = ShardConfig(enabled=workers > 0, workers=max(workers, 1))
    runtime = ShardedRuntime(SpectrumBootstrap(shard))
    published = []
    runtime.app.bus.subscribe(
        ("context", "ZoneSpectrum"),
        lambda event: published.append((event.value, event.timestamp)),
    )
    runtime.start()
    try:
        shard_pids = {
            child.pid
            for child in multiprocessing.active_children()
            if child.name.startswith("repro-shard-")
        }
        period_ms = []
        for __ in range(PERIODS):
            start = time.perf_counter()
            runtime.advance(PERIOD)
            period_ms.append((time.perf_counter() - start) * 1e3)
        job = runtime.app.implementation("ZoneSpectrum")
        return {
            "published": published,
            "zones": job.zones,
            "map_pids": job.map_pids,
            "shard_pids": shard_pids,
            "period_ms": period_ms,
            "stats": runtime.app.mapreduce.last_stats,
        }
    finally:
        runtime.stop()


def test_the_map_runs_in_the_shard_workers(table, benchmark):
    def run_series():
        return {workers: run(workers) for workers in (0, 1, 2)}

    runs = benchmark.pedantic(run_series, rounds=1, iterations=1)
    table(
        f"C2: grouped map/reduce over {READINGS} readings, "
        f"{len(ZONES)} zones, {ZoneSpectrum.WORK} sine terms per reading "
        f"({multiprocessing.cpu_count()} CPU core(s))",
        ("workers", "map processes", "ms/period (median)", "mapped",
         "shuffled"),
        [
            (
                workers,
                len(result["map_pids"]),
                f"{statistics.median(result['period_ms']):.0f}",
                result["stats"]["mapped"],
                result["stats"]["shuffled"],
            )
            for workers, result in runs.items()
        ],
    )
    single = runs[0]
    assert len(single["published"]) == PERIODS
    assert single["map_pids"] == {os.getpid()}
    for workers in (1, 2):
        sharded = runs[workers]
        # The same values, period by period and zone by zone ...
        assert sharded["published"] == single["published"]
        assert sharded["zones"] == single["zones"]
        # ... mapped in the workers, one pid each, never the caller.
        assert len(sharded["shard_pids"]) == workers
        assert sharded["map_pids"] == sharded["shard_pids"]
        assert os.getpid() not in sharded["map_pids"]
        # One combined partial per (worker, zone) crossed the pipe.
        assert sharded["stats"]["mapped"] == READINGS
        assert sharded["stats"]["shuffled"] == workers * len(ZONES)
