"""The read path of periodic gathers.

A periodic gather (``when periodic presence from PresenceSensor``) polls
every bound instance of a device type.  The design fixes *what* it
delivers; how the runtime polls for it is decided here, by one
:class:`SweepEngine` per application, in one loop in one process — a
parallel fleet is the process-sharded runtime's business
(:mod:`repro.runtime.shard`), and a blocking driver overlaps its own I/O
through :meth:`~repro.runtime.device.DeviceDriver.read_batch`.  The
single-process gather and the shard worker's poll are the same call,
:meth:`SweepEngine.sweep`:

* **Registration order.**  A sweep reads the whole type as one column
  in registry iteration order (registration order), so every stateful
  side effect — network-drop RNG draws, breaker probes — keeps its
  sequence, and grouping, MapReduce and window payloads replay
  byte-identically.
* **A compiled cut.**  The column is the registry's own copy of the
  type list (:meth:`~repro.runtime.registry.EntityRegistry.sweep_column`),
  compiled once per membership (:class:`_SweepCut`), so a steady-state
  sweep builds no container per reading.  The cut is the one memo of
  its column: whether it batches, its cohort plans and its group keys.
* **One column reader.**  The whole column is read one instance at a
  time, or — when a member's driver reads columns
  (:func:`~repro.runtime.device.batches`) — one ``read_batch`` per
  cohort of members whose drivers share a class and a ``batch_key``,
  demoting to the scalar read whoever a batch read would shortchange.
* **One outcome fold.**  What the network model dropped and what failed
  is counted once, after the sweep, and put through the stale policy.

MapReduce, windows and delivery stay with the application; an engine
runs without one.  Observability follows the
:class:`~repro.telemetry.instrument.Instrumented` protocol: cumulative
counters are pull-time callbacks, and ``attach_metrics`` additionally
creates a sweep wall-time histogram (``sweep_duration_seconds``) and a
batch column-size histogram (``sweep_batch_column_size``).
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from itertools import compress, count, repeat
from operator import attrgetter, is_, not_
from typing import Any, Callable, Dict, List, Optional

from repro.errors import DeliveryError
from repro.faults.policy import HEALTHY
from repro.runtime.device import DeviceInstance, batches
from repro.runtime.grouping import KeyColumns
from repro.runtime.placement import ACCESS_HOP
from repro.runtime.plan import BATCH_COLUMN_BUCKETS
from repro.runtime.registry import splice_column
from repro.telemetry.instrument import Instrumented, MetricSpec
from repro.typesys.values import coerce_column, exact_class

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


class _Lost:
    """The outcome of a read that produced no value — something no
    DiaSpec value can be, so a successful read's outcome is simply its
    coerced value.  ``error`` is the :class:`DeliveryError` of a failed
    read, ``None`` for a read the network model dropped.  Outcomes are
    produced inside a sweep and folded into the loss counters once,
    after it."""

    __slots__ = ("error",)

    def __init__(self, error: Optional[DeliveryError] = None):
        self.error = error


_DROPPED = _Lost()

# Column placeholders of one columnar sweep read: a position not yet
# settled, and one demoted out of its batch cohort for this sweep
# (failed flag, degraded health); the scalar fallback loop overwrites
# the latter with the real outcome.
_PENDING = object()
_DEMOTED = object()

_driver_of = attrgetter("driver")
_reads_counter_of = attrgetter("_wiring.reads")
_entity_id_of = attrgetter("entity_id")
_failed_flag = attrgetter("_failed")


def _read_column(source, sampler, instances) -> List[Any]:
    """Poll a sweep's instance column in order: per instance the
    sampler's draw, then its read plan.

    Returns the outcomes — each a value or a :class:`_Lost` — instead
    of mutating counters; the caller folds them in registry order."""
    outcomes: List[Any] = []
    for instance in instances:
        if sampler is not None and not sampler():
            outcomes.append(_DROPPED)
            continue
        plan = instance.plan
        if plan is None:
            plan = instance.bind_plan()
        try:
            outcomes.append(plan[source](instance))
        except DeliveryError as exc:
            outcomes.append(_Lost(exc))
    return outcomes


def _settle(source, instances, results, positions) -> None:
    """Read ``positions`` of ``instances`` one at a time, in order,
    into ``results``: a member whose batch read answered a
    :class:`DeliveryError` goes on from its second attempt (the general
    read body, given that error), any other reads through its plan."""
    for position in sorted(positions):
        instance = instances[position]
        first = results[position]
        try:
            if isinstance(first, DeliveryError):
                results[position] = instance._read_general(source, first)
                continue
            plan = instance.plan
            if plan is None:
                plan = instance.bind_plan()
            results[position] = plan[source](instance)
        except DeliveryError as exc:
            results[position] = _Lost(exc)


def _cohort_keys(source, instances):
    """The cohort identity of each of ``instances`` as two columns —
    its driver's class and ``batch_key``.  Each member asked also
    resolves its read plan here, once, as its first scalar read would:
    a member that settles one at a time (demoted, or failed in its
    batch read) finds it bound."""
    classes = []
    keys = []
    for instance in instances:
        if instance.plan is None:
            instance.bind_plan()
        classes.append(type(instance.driver))
        keys.append(instance.driver.batch_key(source))
    return classes, keys


def _tally(instances) -> List[Any]:
    """A cohort's ``(read counter, reads)`` pairs: instances of a type
    share their counter, so there is one pair per type."""
    tally = Counter(map(_reads_counter_of, instances))
    tally.pop(None, None)  # no metrics attached
    return list(tally.items())


class _SweepCut:
    """One device type's sweep, compiled from the registry's sweep
    column: the registry-ordered ``instances`` column every sweep reads
    and returns, whether it is ``batched`` — any member's driver reads
    columns (:func:`~repro.runtime.device.batches`) — and what the
    engine derives from that column, so it cannot outlive it: the
    cohort ``plans`` by source and the group ``keys``
    (:class:`~repro.runtime.grouping.KeyColumns`, ``None`` until a
    gather groups).

    Valid while the registry hands back the very ``instances`` list it
    was compiled from (:meth:`EntityRegistry.sweep_column`: one copy
    per membership, until a bind, an unbind or a ``failed`` flag moves
    it) and no driver was swapped since (``swaps``).  Until its first
    sweep is done, ``carried`` holds what a replaced cut's plans may be
    patched from (:meth:`SweepEngine._cut`)."""

    def __init__(self, instances, swaps):
        self.instances = instances
        self.swaps = swaps
        self.plans: Dict[str, Any] = {}
        self.keys: Optional[KeyColumns] = None
        self.carried = None
        # A fleet answers at its first member; a type whose drivers all
        # read one at a time pays one pass per membership change.
        self.batched = any(map(batches, map(_driver_of, instances)))


class SweepEngine(Instrumented):
    """One application's (or one shard worker's) gather read path, over
    its registry and its own network model, placement executor, read
    cache and supervision manager — ``None`` for whatever its config
    leaves off.  Between sweeps it keeps its cumulative counters and
    one compiled :class:`_SweepCut` per swept device type.

    ``positions`` numbers the rows of a sweep's
    :class:`~repro.runtime.grouping.KeyColumns` in a shard worker
    (``None`` in a process): its ``of(instances)`` is their global
    registration positions, an ``array("q")``."""

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
        MetricSpec(
            "app_gather_network_dropped_total",
            "network_dropped",
            help="Reads dropped by the simulated network model during "
            "gathering sweeps.",
        ),
        MetricSpec(
            "app_gather_read_failed_total",
            "read_failed",
            help="Supervised reads that failed during gathering sweeps.",
        ),
        # Derived sum kept for dashboard continuity; the two series
        # above are the primary counters.
        MetricSpec(
            "app_gather_errors_total",
            "errors",
            help="Failed or dropped reads during gathering sweeps "
            "(sum of network_dropped and read_failed).",
        ),
        MetricSpec(
            "cohort_plan_compiles_total",
            "_plan_compiles",
            help="Columnar cohort plans compiled.",
        ),
        MetricSpec(
            "cohort_plan_hits_total",
            "_plan_hits",
            help="Columnar sweeps served from a memoized cohort plan.",
        ),
    )

    def __init__(
        self,
        registry,
        config,
        network=None,
        placement=None,
        cache=None,
        supervision=None,
        metrics=None,
    ):
        self.registry = registry
        self.config = config
        self.network = network
        self.placement = placement
        self.cache = cache
        self.supervision = supervision
        self.positions: Any = None
        # The class coerce_column proved all of the last sweep's values
        # to be exactly, if it did: a worker's encoder trusts it.
        self._exact = None
        self._sweeps = 0
        self._reads = 0
        self._columnar_sweeps = 0
        self._batch_reads = 0
        self._batch_demoted = 0
        self.network_dropped = 0
        self.read_failed = 0
        self._plan_compiles = 0
        self._plan_hits = 0
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

    @property
    def errors(self) -> int:
        """Every read lost to a sweep, whatever the cause."""
        return self.network_dropped + self.read_failed

    def note_losses(self, dropped: int, failed: int) -> None:
        """Count reads lost to the network model and to read failures:
        this engine's own or, on a shard coordinator, its workers'."""
        self.network_dropped += dropped
        self.read_failed += failed

    # -- execution -----------------------------------------------------------

    def sweep(self, decl, interaction):
        """Poll every bound instance of one periodic ``interaction`` of
        the context declared by ``decl``: sample, read, fold.

        Returns ``(instances, values, dropped, failed)`` — the readings
        that survived as two aligned columns **in registry iteration
        order** (the instance column is the cut's own, the same list
        sweep after sweep while nothing was lost and the membership
        holds: do not mutate it), plus how many reads this sweep lost
        to the network model and to read failures (already counted
        here).

        Quarantined entities stay in the sweep (hidden only from
        application-level discovery): probing them is what lets a
        half-open breaker observe a recovery."""
        source = interaction.source
        sampler = self._read_sampler(decl, interaction)
        # Taken before the registry filters out the failed members.
        flips = DeviceInstance.failed_flips
        started = time.perf_counter()
        self._sweeps += 1
        cut = self._cut(interaction.device)
        instances = cut.instances
        self._reads += len(instances)
        if cut.batched:
            self._columnar_sweeps += 1
            outcomes, clean = self._read_cohorts(cut, source, sampler, flips)
        else:
            outcomes, clean = _read_column(source, sampler, instances), False
        cut.carried = None  # patched, or not needed
        if self._m_duration is not None:
            self._m_duration.observe(time.perf_counter() - started)
        if clean:
            # coerce_column proved the whole column: nothing was lost.
            return instances, outcomes, 0, 0
        self._exact = None
        return self._fold_read_outcomes(instances, outcomes, source)

    def key_columns(self, device_type: str, instances) -> KeyColumns:
        """What grouping needs of ``instances``, the instance column the
        last sweep of ``device_type`` returned: the cut's own
        :class:`~repro.runtime.grouping.KeyColumns` while that sweep
        lost nothing, else throwaway ones that leave the cut's be."""
        cut = self._cuts[device_type]
        if instances is not cut.instances:
            return KeyColumns(instances, self._positions(instances), {})
        if cut.keys is None:
            cut.keys = KeyColumns(instances, self._positions(instances), {})
        return cut.keys

    def _positions(self, instances):
        """The rows' positions: global ones in a shard worker, row
        indexes in a process."""
        if self.positions is None:
            return range(len(instances))
        return self.positions.of(instances)

    def _cut(self, device_type: str) -> _SweepCut:
        """The compiled cut of the registry's current sweep column of
        ``device_type``.

        A cut is replaced whenever the registry hands out another
        column — a bind, an unbind, or a ``failed`` flag filtering
        members without a version bump — or a driver was swapped (which
        voids what drivers said: the cohort plans).  After a bind or an
        unbind the registry's column edit
        (:meth:`~repro.runtime.registry.EntityRegistry.sweep_edit`),
        asked here and only here, carries the replaced cut over: its
        group keys are spliced, asking only the members bound since,
        and its plans are kept for the first sweep to patch
        (:meth:`_patch`)."""
        column = self.registry.sweep_column(device_type)
        swaps = DeviceInstance.driver_swaps
        old = self._cuts.get(device_type)
        if old is not None and old.instances is column and old.swaps == swaps:
            return old
        cut = self._cuts[device_type] = _SweepCut(column, swaps)
        if old is None:
            return cut
        if old.instances is column:
            cut.keys = old.keys  # a swap moved no member
            return cut
        edit = self.registry.sweep_edit(device_type, old.instances)
        if edit is None:
            return cut
        removed, start = edit
        if old.keys is not None:
            positions = None
            if self.positions is not None:
                positions = self._positions(column[start:])
            cut.keys = old.keys.spliced(column, removed, start, positions)
        if old.swaps == swaps:
            cut.carried = removed, start, old.plans
        return cut

    def _read_sampler(self, decl, interaction) -> Optional[Callable[[], bool]]:
        """Zero-arg survival sampler for this gather's polled reads.

        ``None`` when reads are reliable (no network, or loss not
        applied to reads).  An edge-placed gather samples only the
        device→edge access hop — its raw readings never touch the WAN —
        while cloud-placed gathers sample the whole path.  Zero-loss
        hops draw no randomness either way."""
        network = self.network
        if network is None or not self.config.network.apply_to_reads:
            return None
        placement = self.placement
        if placement is not None and placement.splits(decl, interaction):
            if ACCESS_HOP not in network.hop_names:
                return None
            return functools.partial(network.sample_read_ok, (ACCESS_HOP,))
        return network.sample_read_ok

    # -- the columnar column reader -------------------------------------

    def _plan(self, cut: _SweepCut, source: str):
        """The memoized ``(groups, scalar, ids, cohort, dia_type)``
        cohort plan for ``source`` over the column of ``cut``
        (compiling on miss).

        ``groups`` holds one ``(positions, entity_ids, tally, driver)``
        row per cohort — members whose drivers are of one class and
        share one ``batch_key`` object — in first-appearance order: the
        members' indexes into the column, aligned with them the
        entity-id column ``read_batch`` is handed when the cohort reads
        whole, the ``(read counter, reads)`` pairs such a read bumps,
        and the member driver that reads it (a driver class and a key
        answer for every member, so a wrapped driver is its own
        cohort).  ``scalar`` is the positions whose driver declines
        batching (``batch_key`` is ``None``).  ``ids`` is the entity-id
        column of the column itself, which is what the read cache is
        asked by, ``cohort`` the ``(driver class, batch_key)`` pair
        when one cohort is the whole column (else ``None``), and
        ``dia_type`` the declared type of ``source``, which types the
        whole column (a subtype cannot redeclare an inherited source).
        Planning once spares every sweep the ``batch_key`` calls,
        cohort formation, id-column builds, the pass over the members'
        read counters and the source lookup.

        A plan lives on the cut whose column it was compiled for, so it
        is never replayed over another column.  After a bind or an
        unbind, a whole-column cohort is patched (:meth:`_patch`, still
        a compile): only members new to the column are asked
        ``batch_key`` (a key holds until ``swap_driver``, which voids
        the replaced cut's plans).  Otherwise every member is asked."""
        plans = cut.plans
        plan = plans.get(source)
        if plan is not None:
            self._plan_hits += 1
            return plan
        self._plan_compiles += 1
        instances = cut.instances
        plan = self._patch(cut, source)
        if plan is not None:
            plans[source] = plan
            return plan
        entity_ids = list(map(_entity_id_of, instances))
        classes, keys = _cohort_keys(source, instances)
        cls, key = classes[0], keys[0]
        if (
            key is not None
            and all(map(is_, keys, repeat(key)))
            and all(map(is_, classes, repeat(cls)))
        ):
            # One cohort spans the column: it reads the column's own ids.
            cohort = cls, key
            groups = (
                (
                    range(len(keys)),
                    entity_ids,
                    _tally(instances),
                    instances[0].driver,
                ),
            )
            scalar = ()
        else:
            cohort, cohorts, scalar = None, {}, []
            for position, cls, key in zip(count(), classes, keys):
                if key is None:
                    scalar.append(position)
                    continue
                members = cohorts.get((cls, id(key)))
                if members is None:
                    members = cohorts[cls, id(key)] = []
                members.append(position)
            groups = tuple(
                (
                    positions,
                    list(map(entity_ids.__getitem__, positions)),
                    _tally(map(instances.__getitem__, positions)),
                    instances[positions[0]].driver,
                )
                for positions in cohorts.values()
            )
        dia_type = instances[0].info.source(source).dia_type
        plan = (groups, tuple(scalar), entity_ids, cohort, dia_type)
        plans[source] = plan
        return plan

    def _patch(self, cut: _SweepCut, source: str):
        """The replaced cut's plan for ``source`` carried over to the
        column of ``cut`` by the registry's column edit, else ``None``:
        when that plan was one whole-column cohort and every member
        bound since answers its driver class and ``batch_key``, the
        column is that cohort still.  Only the members bound since are
        asked, and its id column and tally are spliced rather than
        rebuilt."""
        if cut.carried is None:
            return None
        removed, start, plans = cut.carried
        plan = plans.get(source)
        if plan is None or plan[3] is None:
            return None
        instances = cut.instances
        appended = instances[start:]
        cls, key = plan[3]
        classes, keys = _cohort_keys(source, appended)
        if not (
            all(map(is_, keys, repeat(key)))
            and all(map(is_, classes, repeat(cls)))
        ):
            return None
        entity_ids = splice_column(
            plan[2], removed, list(map(_entity_id_of, appended))
        )
        tally = plan[0][0][2]
        # The old column bumped one counter for all: the new one does if
        # everyone bound since shares it.
        if (
            len(tally) == 1
            and tally[0][1] == start + len(removed)
            and all(
                map(is_, map(_reads_counter_of, appended), repeat(tally[0][0]))
            )
        ):
            tally = [(tally[0][0], len(instances))]
        else:
            tally = _tally(instances)
        groups = (
            (range(len(instances)), entity_ids, tally, instances[0].driver),
        )
        return groups, (), entity_ids, plan[3], plan[4]

    def _read_cohorts(self, cut: _SweepCut, source, sampler, flips):
        """Columnar read of the column of ``cut``: cohorts, batch reads,
        scalar demotion.

        Produces the same outcome column the scalar path would, one
        entry per instance in order.  Eligible entities — healthy, not
        failed, not cache-fresh, in a cohort of at least
        ``min_column`` — are read in one ``read_batch`` call per
        cohort; everything else **demotes to the scalar path**, where
        per-entity retries, breaker accounting and stale handling
        behave exactly as in an unbatched sweep.  A batch read answers
        per member: a member whose column entry is a
        :class:`DeliveryError` goes on as a scalar read that failed its
        first attempt would.  A cohort whose read fails as a whole
        (the driver raises, declines or mis-shapes the column) demotes
        whole, and so does one during which a ``failed`` flag moved
        (:attr:`~repro.runtime.device.DeviceInstance.failed_flips`):
        its read is void, and the scalar reads see the flag where the
        scalar sweep would.  Demoted and failed members settle in
        column order.

        Returns ``(outcomes, clean)``.  In the common case — reliable
        reads, no failed flag, no supervising config — nothing below
        takes a step per entity: the cache answers for the column at
        once and a cohort that spans the column hands its value column
        back as the outcomes, ``clean``: nothing in it was lost.
        """
        instances = cut.instances
        results: List[Any] = [_PENDING] * len(instances)
        demoted: List[int] = []
        # Static partition — the cohorts and the no-batch-driver
        # positions — comes from the memoized plan; only the per-sweep
        # eligibility below stays dynamic.
        groups, unbatched, entity_ids, __, dia_type = self._plan(cut, source)
        # Can anything settle here?  (Supervisors are attached only
        # under a supervising config, and the registry left out whoever
        # was failed when the sweep took ``flips``: asking every
        # instance would be one more pass over the fleet's memory.)
        if (
            sampler is not None
            or self.config.supervised()
            or (
                DeviceInstance.failed_flips != flips
                and any(map(_failed_flag, instances))
            )
        ):
            for position, instance in enumerate(instances):
                if sampler is not None and not sampler():
                    results[position] = _DROPPED
                    continue
                supervisor = instance.supervisor
                if instance._failed or (
                    supervisor is not None and supervisor.health != HEALTHY
                ):
                    # Degraded/quarantined entities keep their breaker
                    # probes and half-open recovery; a batch read would
                    # bypass both.
                    results[position] = _DEMOTED
                    demoted.append(position)
        cache = self.cache
        if cache is not None:
            # Whoever is still pending may be cache-fresh.
            if results.count(_PENDING) == len(results):
                results = cache.lookup_column(entity_ids, source, _PENDING)
            else:
                asked = list(
                    compress(count(), map(is_, results, repeat(_PENDING)))
                )
                found = cache.lookup_column(
                    list(map(entity_ids.__getitem__, asked)), source, _PENDING
                )
                for position, value in zip(asked, found):
                    results[position] = value
        pending = results.count(_PENDING)
        # Nothing settled above: the cohorts read as they were planned.
        whole = pending == len(results)
        scalar = [
            position for position in unbatched if results[position] is _PENDING
        ]
        scalar.extend(demoted)
        failed: List[int] = []
        min_column = self.config.batch.min_column
        flips = DeviceInstance.failed_flips
        for positions, cohort_ids, tally, driver in groups if pending else ():
            if not whole:
                positions = [
                    position
                    for position in positions
                    if results[position] is _PENDING
                ]
                cohort_ids = [entity_ids[p] for p in positions]
                tally = None
            if len(positions) < min_column:
                scalar.extend(positions)
                continue
            # A cohort that spans the column reads its columns as they
            # are, and its value column is the sweep's result.
            spans = len(positions) == len(instances)
            read = self._read_batch_cohort(
                driver,
                source,
                dia_type,
                instances if spans else [instances[p] for p in positions],
                cohort_ids,
                tally,
                flips,
            )
            if read is None:
                scalar.extend(positions)
                continue
            column, errors = read
            if spans and not errors:
                return column, True
            for position, value in zip(positions, column):
                results[position] = value
            failed.extend(map(positions.__getitem__, errors))
        self._batch_demoted += len(scalar)
        if scalar or failed:
            _settle(source, instances, results, scalar + failed)
        return results, False

    def _read_batch_cohort(
        self, driver, source, dia_type, instances, entity_ids, tally, flips
    ):
        """One driver-level batch read over a cohort, bumping the read
        counters by the planned ``tally`` (``None``: count the members).

        Returns ``(values, failed)``: the cohort's coerced value column,
        aligned with ``instances``, and the rows where it holds the
        :class:`DeliveryError` the driver answered for that member
        instead — its first attempt, counted.  ``None`` when the cohort
        must be demoted to the scalar path: the driver declined or
        raised, the column does not align with the cohort, or
        ``failed_flips`` is not ``flips`` (a ``failed`` flag moved
        before or while it read, so the read is void and counts
        nothing).
        """
        if DeviceInstance.failed_flips != flips:
            return None
        cache = self.cache
        since = None if cache is None else cache.generation
        try:
            column = driver.read_batch(entity_ids, source)
        except DeliveryError:
            return None
        if (
            column is NotImplemented
            or column is None
            or DeviceInstance.failed_flips != flips
        ):
            return None
        try:
            values = list(column)
        except TypeError:
            return None
        if len(values) != len(instances):
            return None
        self._batch_reads += 1
        if self._m_column_size is not None:
            self._m_column_size.observe(len(values))
        # A clean column comes back as it is: only one that is not (a
        # member's error, a value to convert) is looked through.
        coerced = coerce_column(dia_type, values)
        self._exact = exact_class(dia_type) if coerced is values else None
        errors = ()
        if coerced is not values:
            errors = list(map(isinstance, coerced, repeat(DeliveryError)))
        failed = list(compress(count(), errors))
        if tally is None:
            tally = _tally(instances)
        for counter, reads in tally:
            counter.inc(reads)
        if self.config.supervised():
            for instance, value in zip(instances, coerced):
                supervisor = instance.supervisor
                if supervisor is None or isinstance(value, DeliveryError):
                    continue
                # Keeps last-known stale values fresh and the breaker's
                # success accounting truthful, exactly as a scalar read.
                supervisor.record_success(source, value)
        if cache is not None:
            stored_ids, stored = entity_ids, coerced
            if failed:
                # A failed member stores nothing here; its own read
                # goes on through the cache (one miss either way).
                clean = list(map(not_, errors))
                stored_ids = list(compress(entity_ids, clean))
                stored = list(compress(coerced, clean))
            cache.store_column(stored_ids, source, stored, since)
        return coerced, failed

    def _fold_read_outcomes(self, instances, outcomes, source):
        """Fold a sweep's outcome column into ``(instances, values,
        dropped, failed)``: the columns of the readings that survived
        and the reads lost, counted (:meth:`note_losses`) and put
        through the stale policy.  When a supervised read failed, the
        policy decides whether the entity drops out of this sweep
        (``skip``), serves its last known value (``last_known``), or
        fails the sweep (``fail``).
        When nothing was lost (one scan tells) the columns come back as
        they are."""
        if _Lost not in set(map(type, outcomes)):
            return instances, outcomes, 0, 0
        kept: List[Any] = []
        values: List[Any] = []
        dropped = failed = 0
        stale = self.config.stale_policy
        for instance, outcome in zip(instances, outcomes):
            if type(outcome) is not _Lost:
                kept.append(instance)
                values.append(outcome)
            elif outcome is _DROPPED:
                dropped += 1
            else:
                failed += 1
                if stale.mode == "fail":
                    # Counted up to and including the read that raised.
                    self.note_losses(dropped, failed)
                    raise outcome.error
                supervisor = instance.supervisor
                if stale.serves_stale and supervisor is not None:
                    # (value, age): a remembered ``None`` reading is
                    # not a miss.
                    hit = supervisor.last_known(source, stale.max_age_seconds)
                    if hit is not None:
                        self.supervision.record_stale_serve()
                        kept.append(instance)
                        values.append(hit[0])
        self.note_losses(dropped, failed)
        return kept, values, dropped, failed

    def __repr__(self) -> str:
        return f"<SweepEngine sweeps={self._sweeps}>"
