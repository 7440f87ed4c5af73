"""Sweep execution for periodic device gathers.

A periodic gather (``when periodic presence from PresenceSensor``) polls
every bound instance of a device type.  The :class:`SweepEngine` runs
that poll as one loop in one process — a parallel fleet is the
process-sharded runtime's business (:mod:`repro.runtime.shard`), and a
blocking driver overlaps its own I/O through
:meth:`~repro.runtime.device.DeviceDriver.read_batch`:

* **Registration order.**  A sweep reads the whole type as one column
  in registry iteration order (registration order), so every stateful
  side effect — network-drop RNG draws, breaker probes — keeps its
  sequence, and grouping, MapReduce and window payloads replay
  byte-identically.
* **One column reader.**  The whole column goes to the scalar reader,
  or — when a member's driver reads columns
  (:func:`~repro.runtime.device.batches`) — to the batch reader, which
  forms one cohort per driver class and ``batch_key`` over the column.
* **A compiled cut.**  The column is the registry's own copy of the
  type list (:meth:`~repro.runtime.registry.EntityRegistry.sweep_column`),
  compiled once per membership (:class:`_SweepCut`), so a steady-state
  sweep builds no container per reading.

Supervised reads, breaker gating and stale-policy substitution live in
the column reader — :class:`~repro.runtime.gather.Gatherer` owns them.

Observability follows the :class:`~repro.telemetry.instrument.Instrumented`
protocol: cumulative sweep/read counters are pull-time callbacks, and
``attach_metrics`` additionally creates a sweep wall-time histogram
(``sweep_duration_seconds``) and a batch column-size histogram
(``sweep_batch_column_size``).
"""

from __future__ import annotations

import time
from operator import attrgetter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.runtime.device import DeviceInstance, batches
from repro.runtime.plan import BATCH_COLUMN_BUCKETS
from repro.telemetry.instrument import Instrumented, MetricSpec

__all__ = ["SweepEngine"]

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
    """One device type's sweep, compiled from the registry's sweep
    column: the registry-ordered ``instances`` column every sweep reads
    and returns, and whether ``batched`` — any member's driver reads
    columns (:func:`~repro.runtime.device.batches`).  ``memo`` holds
    what a column reader derives from that column (cohort plans), so it
    cannot outlive it.

    Valid while the registry hands back the very ``instances`` list it
    was compiled from (:meth:`EntityRegistry.sweep_column`: one copy
    per membership, until a bind, an unbind or a ``failed`` flag moves
    it) and no driver was swapped since (``swaps``).  Until its first
    sweep is done it keeps the cut it ``replaced`` when only the
    membership moved (see :meth:`SweepEngine.cut_memo`).
    """

    def __init__(self, instances, swaps, replaced):
        self.instances = instances
        self.swaps = swaps
        self.replaced = replaced
        self.memo: Dict[Any, Any] = {}
        # A fleet answers at its first member; a type whose drivers all
        # read one at a time pays one pass per membership change.
        self.batched = any(map(batches, map(_driver_of, instances)))


class SweepEngine(Instrumented):
    """The registry-ordered read loop of periodic gathers.

    One engine serves all of an application's periodic gathers.
    Between sweeps it keeps its cumulative counters and one compiled
    :class:`_SweepCut` per swept device type.
    """

    metric_specs = (
        MetricSpec(
            "sweep_total",
            "_sweeps",
            stats_key="sweeps",
            help="Gather sweeps executed by the sweep engine.",
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
            "a batch read that failed whole or was void).",
        ),
    )

    def __init__(self, registry, metrics=None):
        self.registry = registry
        self._sweeps = 0
        self._reads = 0
        self._columnar_sweeps = 0
        self._batch_reads = 0
        self._batch_demoted = 0
        self._cuts: Dict[str, _SweepCut] = {}
        self._m_duration = None
        self._m_column_size = None
        if metrics is not None:
            self.attach_metrics(metrics)

    # -- observability -------------------------------------------------------

    def attach_metrics(self, metrics, **labels: Any) -> None:
        """Counters via the Instrumented protocol, plus the push-style
        sweep wall-time and batch column-size histograms."""
        super().attach_metrics(metrics, **labels)
        self._m_duration = metrics.histogram(
            "sweep_duration_seconds",
            help="Wall time of one gather sweep (poll + merge).",
            buckets=SWEEP_DURATION_BUCKETS,
            **labels,
        )
        self._m_column_size = metrics.histogram(
            "sweep_batch_column_size",
            help="Entities per driver-level read_batch column.",
            buckets=BATCH_COLUMN_BUCKETS,
            **labels,
        )

    def note_batch_read(self, size: int) -> None:
        """Record one driver-level batch read of ``size`` entities.

        Called by the gather path each time it issues a read_batch, so
        batch counts and the column-size histogram stay truthful
        whoever drives the column."""
        self._batch_reads += 1
        if self._m_column_size is not None:
            self._m_column_size.observe(size)

    def note_batch_demoted(self, count: int = 1) -> None:
        """Record ``count`` reads that fell off a batch column onto the
        scalar path."""
        self._batch_demoted += count

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
        ``device_type`` (quarantined too): it is handed the instance
        column and returns a result column aligned with it.

        Returns ``(instances, results)`` — two aligned columns **in
        registry iteration order**.  ``instances`` belongs to the
        engine's memoized cut and is the same list sweep after sweep
        while the registry membership holds: treat it as immutable.
        Exceptions raised by the reader propagate (callers wanting
        per-read containment catch inside the callable, as the
        gatherer's readers do).

        The members' drivers pick the reader: when one of them reads
        columns (:func:`~repro.runtime.device.batches`)
        ``read_batched`` (default ``read_column``) reads the column,
        and the caller owns cohort formation, eligibility and scalar
        demotion there.
        """
        started = time.perf_counter()
        self._sweeps += 1
        column = self.registry.sweep_column(device_type)
        # A driver swap voids what the cut derived from what drivers
        # said.
        swaps = DeviceInstance.driver_swaps
        cut = self._cuts.get(device_type)
        if cut is None or cut.instances is not column or cut.swaps != swaps:
            if cut is not None and cut.swaps != swaps:
                cut = None  # nothing carries over
            cut = self._cuts[device_type] = _SweepCut(column, swaps, cut)
        self._reads += len(cut.instances)
        if cut.batched:
            self._columnar_sweeps += 1
            if read_batched is not None:
                read_column = read_batched
        results = read_column(cut.instances)
        cut.replaced = None  # carried over, or not needed
        if self._m_duration is not None:
            self._m_duration.observe(time.perf_counter() - started)
        return cut.instances, results

    def cut_memo(self, device_type: str):
        """Scratch space living exactly as long as the current cut of
        ``device_type`` — for state derived from the instance column a
        column reader is handed — and, during the cut's first sweep,
        the replaced cut's column with that cut's memo (else ``None``):
        what may carry over."""
        cut = self._cuts[device_type]
        old = cut.replaced
        if old is None:
            return cut.memo, None
        return cut.memo, (old.instances, old.memo)

    def __repr__(self) -> str:
        return f"<SweepEngine sweeps={self._sweeps}>"
