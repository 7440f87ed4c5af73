"""C2 — `grouped by` exposes parallelism (§IV.2, DiaSwarm).

Reproduced shape: a job written once against the map/reduce interface
runs unchanged on a serial loop, a thread pool and a process pool and
returns the same result from each, and under the process pool its map
phase really does execute in several worker processes at once — the
parallelism the design-level ``grouped by`` hands to the backend.  The
wall times are printed for the record (on a compute-light job such as
Figure 10's free-space count the serial executor wins at every size,
which is why the paper targets a real MapReduce backend for city scale;
a compute-heavy per-reading job is where the process pool can overtake
it, given the cores); they are not asserted — on a two-core box the
best case is under 2x and a single shot cannot resolve it.
"""

import math
import multiprocessing
import os
import time

import pytest

from repro.mapreduce.api import MapReduce
from repro.mapreduce.engine import (
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    run_mapreduce,
)
from repro.simulation.traces import grouped_bernoulli


class FreeSpaceCounter(MapReduce):
    """Figure 10's job: count free spaces per lot (compute-light)."""

    def map(self, lot, presence, collector):
        if not presence:
            collector.emit_map(lot, True)

    def reduce(self, lot, values, collector):
        collector.emit_reduce(lot, len(values))


class SpectralJob(MapReduce):
    """Compute-heavy per-reading work (per-sensor signal analysis).

    Each mapped value carries the pid that computed it, so the result
    also says where the map phase ran."""

    WORK = 300

    def map(self, lot, reading, collector):
        acc = 0.0
        for i in range(1, self.WORK):
            acc += math.sin(i * (2.0 if reading else 1.0)) / i
        collector.emit_map(lot, (acc, os.getpid()))

    def reduce(self, lot, values, collector):
        mean = sum(acc for acc, __ in values) / len(values)
        collector.emit_reduce(lot, (mean, {pid for __, pid in values}))


def means(result):
    return {lot: mean for lot, (mean, __) in result.items()}


def map_pids(result):
    return set().union(*(pids for __, pids in result.values()))


def dataset(sensors_per_lot, lots=8, seed=0):
    return grouped_bernoulli(
        [f"L{i:02d}" for i in range(lots)], sensors_per_lot, 0.5, seed=seed
    )


def timed(job, grouped, executor, repeats=3):
    best = float("inf")
    result = None
    for __ in range(repeats):
        start = time.perf_counter()
        result = run_mapreduce(job, grouped, executor)
        best = min(best, time.perf_counter() - start)
    return best, result


def test_executor_scaling_series(table, benchmark):
    def run_series():
        rows = []
        for per_lot in (50, 500, 2000):
            grouped = dataset(per_lot)
            light_serial, light_result = timed(FreeSpaceCounter(), grouped,
                                               SerialExecutor())
            light_thread, thread_result = timed(FreeSpaceCounter(), grouped,
                                                ThreadExecutor(4))
            assert light_result == thread_result
            heavy_serial, heavy_s = timed(SpectralJob(), grouped,
                                          SerialExecutor(), repeats=1)
            heavy_process, heavy_p = timed(SpectralJob(), grouped,
                                           ProcessExecutor(4), repeats=1)
            assert means(heavy_s) == means(heavy_p)
            assert map_pids(heavy_s) == {os.getpid()}
            pool_pids = map_pids(heavy_p)
            rows.append(
                (
                    per_lot * 8,
                    f"{light_serial * 1e3:.1f} ms",
                    f"{light_thread * 1e3:.1f} ms",
                    f"{heavy_serial * 1e3:.0f} ms",
                    f"{heavy_process * 1e3:.0f} ms",
                    len(pool_pids),
                )
            )
        return rows, pool_pids

    rows, pool_pids = benchmark.pedantic(run_series, rounds=1, iterations=1)
    table(
        "C2: MapReduce executors vs dataset size (8 lots, "
        f"{multiprocessing.cpu_count()} CPU core(s))",
        ("readings", "light/serial", "light/4 threads", "heavy/serial",
         "heavy/4 procs", "map processes"),
        rows,
    )
    # Shape: at the largest size the untouched job's map phase ran in
    # several pool processes, none of them the caller's.
    assert os.getpid() not in pool_pids
    assert len(pool_pids) >= 2


@pytest.mark.parametrize("per_lot", [100, 1000])
def test_bench_figure10_job_serial(benchmark, per_lot):
    grouped = dataset(per_lot)
    result = benchmark(run_mapreduce, FreeSpaceCounter(), grouped)
    assert len(result) == 8


def test_bench_figure10_job_threaded(benchmark):
    grouped = dataset(1000)
    executor = ThreadExecutor(4)
    result = benchmark(run_mapreduce, FreeSpaceCounter(), grouped, executor)
    assert len(result) == 8


def test_bench_heavy_job_process_pool(benchmark):
    grouped = dataset(200, lots=4)
    executor = ProcessExecutor(4)

    def run():
        return run_mapreduce(SpectralJob(), grouped, executor)

    result = benchmark.pedantic(run, rounds=2, iterations=1)
    assert len(result) == 4
