"""Concurrent sweep execution for periodic device gathers.

A periodic gather (``when periodic presence from PresenceSensor``) polls
every bound instance of a device type.  The naive loop is serial, so
sweep latency grows linearly with fleet size — at city scale (thousands
of parking sensors, Figures 4, 6, 8) the polling stage dwarfs the
MapReduce stage it feeds.  The :class:`SweepEngine` fans supervised
reads out to a bounded thread pool while keeping the result stream
indistinguishable from the serial loop:

* **Deterministic merge order.**  Results are returned in registry
  iteration order (registration order) regardless of which worker
  finished first, so grouping, MapReduce and window payloads are
  byte-identical across modes — the property test in
  ``tests/runtime/test_sweep.py`` holds this invariant.
* **Per-shard batching.**  Instances are grouped into shards keyed by
  the registry's indexed attributes (a parking fleet shards by
  ``parkingLot``) and each shard is split into batches of
  ``batch_size`` reads; one pool task polls one batch, amortizing
  submission overhead over many reads.
* **Serial fallback under simulation.**  ``mode='auto'`` (the default)
  selects the serial loop whenever the application runs on a
  :class:`~repro.runtime.clock.SimulationClock`, so traces, tests and
  chaos reports replay byte-identically; threaded fan-out engages under
  a wall clock, where reads have real latency worth hiding.  Forcing
  ``mode='threaded'`` is honoured even under simulation (the
  equivalence tests do exactly that).

All of it is one loop: a sweep is cut into tasks (one per shard when a
member's driver reads columns, else the whole type in registration
order, or ``batch_size`` slices when threaded), every task's instance
column goes to the same column reader — inline or on the pool — and the
value columns merge by registry position once.  The cut is compiled
once per registry partition (:class:`_SweepCut`), so a steady-state
sweep builds one result list, not a container per reading.

Supervised reads, breaker gating and stale-policy substitution live in
the column reader — :class:`~repro.runtime.gather.Gatherer` owns them.

Observability follows the :class:`~repro.telemetry.instrument.Instrumented`
protocol: cumulative sweep/batch counters are pull-time callbacks, and
``attach_metrics`` additionally creates a sweep wall-time histogram
(``sweep_duration_seconds``), an in-flight batch gauge
(``sweep_in_flight_batches``) and per-shard read counters
(``sweep_shard_reads_total{shard=...}``).
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.runtime.clock import SimulationClock
from repro.runtime.configbase import ConfigBase
from repro.runtime.device import DeviceInstance, batches
from repro.runtime.plan import BATCH_COLUMN_BUCKETS
from repro.telemetry.instrument import Instrumented, MetricSpec

__all__ = ["SweepConfig", "SweepEngine"]

SWEEP_MODES = ("serial", "threaded", "auto")

# Histogram buckets for sweep wall time: a small simulated fleet sweeps
# in microseconds, a city fleet over real transports in whole seconds.
SWEEP_DURATION_BUCKETS = (
    0.000_1,
    0.000_5,
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
)

_driver_of = attrgetter("driver")


class _SweepCut:
    """One device type's sweep, compiled from a registry partition: the
    registry-ordered ``instances`` column every sweep returns, the
    instance column of each task, and ``order`` — per registry
    position, the index of that member in the tasks' concatenation,
    which is how several tasks' value columns merge back.  ``batched``
    says whether any member's driver reads columns
    (:func:`~repro.runtime.device.batches`); ``memo`` holds what a
    column reader derives from these columns (cohort plans), so it
    cannot outlive them.

    Valid while the registry hands back the very ``partition`` object
    it was compiled from — its memo lasts until a bind, an unbind or a
    ``failed`` flag moves the membership — under the same ``shape``,
    ``(threaded, batch_size, driver swaps)``.  Until its first sweep is
    done it keeps the cut it ``replaced`` when only the membership
    moved (see :meth:`SweepEngine.cut_memo`).
    """

    def __init__(self, partition, shape, replaced):
        self.partition = partition
        self.shape = shape
        self.replaced = replaced
        self.memo: Dict[Any, Any] = {}
        shards = [members for __, __, members in partition]
        positions = list(
            chain.from_iterable(positions for __, positions, __ in partition)
        )
        # Shards may interleave in registration order: an argsort of
        # the shard-by-shard positions puts them back.
        self.order = sorted(range(len(positions)), key=positions.__getitem__)
        self.instances = list(
            map(list(chain.from_iterable(shards)).__getitem__, self.order)
        )
        # A fleet answers at its first member; a type whose drivers all
        # read one at a time pays one pass per membership change.
        self.batched = any(map(batches, map(_driver_of, self.instances)))
        threaded, size, __ = shape
        if self.batched:
            # One task per shard: the batch read spans the shard, so
            # finer-grained tasks would just split the column.
            self.tasks = shards
        elif threaded:
            # batch_size slices; batches never span shards.
            self.tasks = [
                members[offset : offset + size]
                for members in shards
                for offset in range(0, len(members), size)
            ]
        else:
            # The reference order.  Shards may interleave in
            # registration order, so the whole type is one task in
            # position order — every stateful side effect (network-drop
            # RNG draws, breaker probes) keeps its historical sequence.
            self.tasks = [self.instances]


@dataclass(frozen=True)
class SweepConfig(ConfigBase):
    """How periodic gather sweeps execute.

    * ``mode`` — ``'serial'`` polls in a plain loop; ``'threaded'``
      fans batches out to a bounded thread pool; ``'auto'`` (default)
      picks serial under a :class:`SimulationClock` (deterministic
      replay) and threaded otherwise.
    * ``workers`` — thread-pool size for threaded sweeps.
    * ``batch_size`` — reads per pool task.  Batches never span shards,
      so a shard with fewer reads than ``batch_size`` still gets its
      own task(s).
    * ``shard_attribute`` — attribute to shard by; ``None`` picks the
      device type's first declared attribute (deterministic), falling
      back to a single shard for attribute-less types.
    """

    mode: str = "auto"
    workers: int = 8
    batch_size: int = 16
    shard_attribute: Optional[str] = None

    def __post_init__(self):
        if self.mode not in SWEEP_MODES:
            raise ValueError(
                f"sweep mode must be one of {SWEEP_MODES}, got '{self.mode}'"
            )
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


class SweepEngine(Instrumented):
    """Bounded fan-out of per-instance reads with ordered merge.

    One engine serves all of an application's periodic gathers.
    Between sweeps it keeps its cumulative counters, its lazily created
    thread pool and one compiled :class:`_SweepCut` per swept device
    type.
    """

    metric_specs = (
        MetricSpec(
            "sweep_total",
            "_sweeps",
            stats_key="sweeps",
            help="Gather sweeps executed by the sweep engine.",
        ),
        MetricSpec(
            "sweep_serial_total",
            "_serial_sweeps",
            stats_key="serial_sweeps",
            help="Sweeps that ran the serial loop.",
        ),
        MetricSpec(
            "sweep_threaded_total",
            "_threaded_sweeps",
            stats_key="threaded_sweeps",
            help="Sweeps fanned out to the thread pool.",
        ),
        MetricSpec(
            "sweep_batches_total",
            "_batches",
            stats_key="batches",
            help="Pool tasks submitted by threaded sweeps.",
        ),
        MetricSpec(
            "sweep_reads_total",
            "_reads",
            stats_key="reads",
            help="Per-instance reads executed through the engine.",
        ),
        MetricSpec(
            "sweep_columnar_total",
            "_columnar_sweeps",
            stats_key="columnar_sweeps",
            help="Sweeps that took the columnar (batch-read) path.",
        ),
        MetricSpec(
            "sweep_batch_reads_total",
            "_batch_reads",
            stats_key="batch_reads",
            help="Driver-level read_batch calls issued during sweeps.",
        ),
        MetricSpec(
            "sweep_batch_demoted_total",
            "_batch_demoted",
            stats_key="batch_demoted",
            help="Reads demoted from a batch column to the scalar path "
            "(no driver support, unhealthy entity, cohort too small, or "
            "a failed batch read).",
        ),
    )

    def __init__(
        self,
        registry,
        clock,
        config: Optional[SweepConfig] = None,
        metrics=None,
    ):
        self.registry = registry
        self.clock = clock
        self.config = config if config is not None else SweepConfig()
        self._sweeps = 0
        self._serial_sweeps = 0
        self._threaded_sweeps = 0
        self._batches = 0
        self._reads = 0
        self._columnar_sweeps = 0
        self._batch_reads = 0
        self._batch_demoted = 0
        self._shard_reads: Dict[str, int] = {}
        self._pool: Optional[ThreadPoolExecutor] = None
        self._cuts: Dict[str, _SweepCut] = {}
        self._metrics = None
        self._m_duration = None
        self._m_in_flight = None
        self._m_column_size = None
        # note_batch_read / note_batch_demoted are called from pool
        # workers during threaded columnar sweeps.
        self._note_lock = threading.Lock()
        if metrics is not None:
            self.attach_metrics(metrics)

    # -- observability -------------------------------------------------------

    def attach_metrics(self, metrics, **labels: Any) -> None:
        """Counters via the Instrumented protocol, plus the push-style
        sweep wall-time histogram and in-flight batch gauge."""
        super().attach_metrics(metrics, **labels)
        self._metrics = metrics
        self._m_duration = metrics.histogram(
            "sweep_duration_seconds",
            help="Wall time of one gather sweep (poll + merge).",
            buckets=SWEEP_DURATION_BUCKETS,
            **labels,
        )
        self._m_in_flight = metrics.gauge(
            "sweep_in_flight_batches",
            help="Pool batches submitted and not yet merged.",
            **labels,
        )
        self._m_column_size = metrics.histogram(
            "sweep_batch_column_size",
            help="Entities per driver-level read_batch column.",
            buckets=BATCH_COLUMN_BUCKETS,
            **labels,
        )
        for shard in self._shard_reads:
            self._register_shard_metric(shard)

    def note_batch_read(self, size: int) -> None:
        """Record one driver-level batch read of ``size`` entities.

        Called by the gather path (possibly from a pool worker) each
        time it issues a read_batch, so batch counts and the column-size
        histogram stay truthful whoever drives the column."""
        with self._note_lock:
            self._batch_reads += 1
            if self._m_column_size is not None:
                self._m_column_size.observe(size)

    def note_batch_demoted(self, count: int = 1) -> None:
        """Record ``count`` reads that fell off a batch column onto the
        scalar path."""
        with self._note_lock:
            self._batch_demoted += count

    def _register_shard_metric(self, shard: str) -> None:
        self._metrics.callback(
            "sweep_shard_reads_total",
            lambda shard=shard: self._shard_reads.get(shard, 0),
            help="Reads executed per shard (registry-indexed attribute "
            "value).",
            shard=shard,
        )

    def _count_shard(self, shard: str, reads: int) -> None:
        if shard not in self._shard_reads and self._metrics is not None:
            self._shard_reads[shard] = 0
            self._register_shard_metric(shard)
        self._shard_reads[shard] = self._shard_reads.get(shard, 0) + reads

    def _extra_stats(self) -> Dict[str, Any]:
        return {
            "mode": self.config.mode,
            "workers": self.config.workers,
            "shard_reads": dict(self._shard_reads),
        }

    # -- mode selection ------------------------------------------------------

    def mode_for_clock(self) -> str:
        """The effective execution mode of the next sweep.

        ``auto`` resolves against the application clock: simulation
        clocks replay deterministically only when reads happen in
        registration order on the driving thread, so they force the
        serial loop.
        """
        mode = self.config.mode
        if mode != "auto":
            return mode
        if isinstance(self.clock, SimulationClock):
            return "serial"
        return "threaded"

    # -- execution -----------------------------------------------------------

    def sweep(
        self,
        device_type: str,
        read_column: Callable[[Sequence[DeviceInstance]], List[Any]],
        read_batched: Optional[
            Callable[[Sequence[DeviceInstance]], List[Any]]
        ] = None,
    ) -> Tuple[List[DeviceInstance], List[Any]]:
        """Run a column reader over every bound instance of
        ``device_type`` (quarantined too): it is handed each task's
        instance column and returns a result column aligned with it.

        Returns ``(instances, results)`` — two aligned columns **in
        registry iteration order** whatever the execution mode, so
        downstream grouping and windowing see the same stream either
        way.  ``instances`` belongs to the engine's memoized cut and is
        the same list sweep after sweep while the registry membership
        holds: treat it as immutable.  Exceptions raised by the reader
        propagate (callers wanting per-read containment catch inside
        the callable, as the gatherer's readers do).

        The members' drivers pick the reader: when one of them reads
        columns (:func:`~repro.runtime.device.batches`) each shard is
        one task, so one pool task per shard replaces one per
        ``batch_size`` reads, and ``read_batched`` (default
        ``read_column``) reads it — the caller owns cohort formation,
        eligibility and scalar demotion there; the engine only owns
        fan-out and the ordered merge, whichever reader runs.
        """
        started = time.perf_counter()
        self._sweeps += 1
        shards = self.registry.iter_shards(
            device_type,
            attribute=self.config.shard_attribute,
            include_quarantined=True,
        )
        for shard_key, members, __ in shards:
            self._count_shard(shard_key, len(members))
        threaded = self.mode_for_clock() == "threaded"
        # The modes differ only in how the sweep is cut into tasks and
        # where the tasks run; a driver swap voids what the cut derived
        # from what drivers said.
        swaps = DeviceInstance.driver_swaps
        shape = (threaded, self.config.batch_size, swaps)
        cut = self._cuts.get(device_type)
        if cut is None or cut.partition is not shards or cut.shape != shape:
            if cut is not None and cut.shape != shape:
                cut = None  # nothing carries over
            cut = self._cuts[device_type] = _SweepCut(shards, shape, cut)
        self._reads += len(cut.instances)
        if cut.batched:
            self._columnar_sweeps += 1
            if read_batched is not None:
                read_column = read_batched
        columns = cut.tasks
        if threaded:
            self._threaded_sweeps += 1
            columns = self._fan_out(columns, read_column)
        else:
            self._serial_sweeps += 1
            columns = [read_column(instances) for instances in columns]
        cut.replaced = None  # carried over, or not needed
        # Merge by registry position, whichever task finished first; a
        # lone task is the registry order already.
        if len(columns) == 1:
            (results,) = columns
        else:
            merged = list(chain.from_iterable(columns))
            results = list(map(merged.__getitem__, cut.order))
        if self._m_duration is not None:
            self._m_duration.observe(time.perf_counter() - started)
        return cut.instances, results

    def cut_memo(self, device_type: str, column):
        """Scratch space living exactly as long as the current cut of
        ``device_type`` — for state derived from the instance columns
        a column reader is handed (keyed by ``id(column)``: the cut
        keeps them alive) — and, during the cut's first sweep, the
        replaced cut's column over the same shard as ``column`` with
        that cut's memo (else ``None``): what may carry over."""
        cut, replaced = self._cuts[device_type], None
        if cut.replaced is not None:
            old = {key: shard for key, __, shard in cut.replaced.partition}
            for key, __, shard in cut.partition:
                if shard is column:
                    replaced = old.get(key), cut.replaced.memo
        return cut.memo, replaced

    def _fan_out(self, tasks, read_column):
        """Read every task's instance column on the pool; returns the
        value columns in task order.  Every future is drained before
        the first error re-raises."""
        pool = self._ensure_pool()
        self._batches += len(tasks)
        in_flight = self._m_in_flight
        futures = []
        for instances in tasks:
            futures.append(pool.submit(read_column, instances))
            if in_flight is not None:
                in_flight.inc()
        first_error: Optional[BaseException] = None
        pending = set(futures)
        while pending:
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                if in_flight is not None:
                    in_flight.dec()
                if first_error is None:
                    first_error = future.exception()
        if first_error is not None:
            raise first_error
        return [future.result() for future in futures]

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.config.workers,
                thread_name_prefix="sweep",
            )
        return self._pool

    def close(self) -> None:
        """Shut the worker pool down (idempotent; pool recreates on the
        next threaded sweep)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def reconfigure(self, config: SweepConfig) -> None:
        """Swap the sweep section live (between sweeps).

        Mode, batch size and shard attribute are read per sweep, so the
        swap alone suffices; a worker-count change additionally retires
        the current pool, which lazily recreates at the new size on the
        next threaded sweep.
        """
        if config.workers != self.config.workers:
            self.close()
        self.config = config

    def __repr__(self) -> str:
        return (
            f"<SweepEngine mode={self.config.mode} "
            f"workers={self.config.workers} sweeps={self._sweeps}>"
        )
