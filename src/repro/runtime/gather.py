"""The read path of a periodic gather.

A :class:`Gatherer` owns everything between "this periodic interaction
is due" and "two aligned columns of surviving readings": which reads
the network model lets through, the :class:`~repro.runtime.sweep.
SweepEngine` call, the scalar and the columnar column reader (cohort
plans, batch reads, scalar demotion), and the fold of the outcome
column — loss counting and the stale policy.  The design fixes *what* a
periodic interaction delivers; how the runtime polls for it is decided
here, so the single-process gather and the shard worker's poll are the
same call, :meth:`Gatherer.sweep`.  Grouping, MapReduce, windows and
delivery stay with the application; a gatherer runs without one.
"""

from __future__ import annotations

import functools
from collections import Counter
from itertools import compress, count, repeat
from operator import attrgetter, is_, not_
from typing import Any, Callable, List, Optional

from repro.errors import DeliveryError
from repro.faults.policy import HEALTHY
from repro.runtime.device import DeviceInstance
from repro.telemetry.instrument import Instrumented, MetricSpec
from repro.typesys.values import coerce_column


class _Lost:
    """The outcome of a read that produced no value — something no
    DiaSpec value can be, so a successful read's outcome is simply its
    coerced value.  ``error`` is the :class:`DeliveryError` of a failed
    read, ``None`` for a read the network model dropped.  Outcomes are
    produced inside a sweep and folded back on the sweep-driving thread
    (worker threads never touch the loss counters)."""

    __slots__ = ("error",)

    def __init__(self, error: Optional[DeliveryError] = None):
        self.error = error


_DROPPED = _Lost()

# Column placeholders of one columnar shard read: a position not yet
# settled, and one demoted out of its batch cohort for this sweep
# (failed flag, degraded health); the scalar fallback loop overwrites
# the latter with the real outcome.
_PENDING = object()
_DEMOTED = object()

_reads_counter_of = attrgetter("_m_reads")
_entity_id_of = attrgetter("entity_id")
_failed_flag = attrgetter("failed")


def _read_column(source, sampler, instances) -> List[Any]:
    """Poll one task's instance column (possibly on a pool thread), in
    order: per instance the sampler's draw, then its read plan.

    Returns the outcomes — each a value or a :class:`_Lost` — instead
    of mutating counters, so the sweep engine can run tasks
    concurrently and the caller folds outcomes deterministically in
    registry order."""
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


def _batch_keys(source, instances, predecessor) -> List[Any]:
    """The ``batch_key`` column of ``instances``, asking only those the
    ``predecessor`` column's plan did not hold in one whole cohort."""
    column, plans = predecessor or ((), {})
    plan = plans.get((source, id(column)))
    carried = None if plan is None else plan[3]
    seen = () if carried is None else set(column)
    keys = [carried] * len(instances)
    for row in compress(count(), map(not_, map(seen.__contains__, instances))):
        keys[row] = instances[row].driver.batch_key(source)
    return keys


def _tally(instances) -> List[Any]:
    """A cohort's ``(read counter, reads)`` pairs: instances of a type
    share their counter, so there is one pair per type."""
    tally = Counter(map(_reads_counter_of, instances))
    tally.pop(None, None)  # no metrics attached
    return list(tally.items())


_LOSS_SPECS = (
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
    # Derived sum kept for dashboard continuity; the two series above
    # are the primary counters.
    MetricSpec(
        "app_gather_errors_total",
        "errors",
        help="Failed or dropped reads during gathering sweeps "
        "(sum of network_dropped and read_failed).",
    ),
)
_COHORT_SPECS = (
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


class Gatherer(Instrumented):
    """One application's (or one shard worker's) gather read path,
    over that application's own network model, placement executor, read
    cache and supervision manager — ``None`` for whatever its config
    leaves off.  Whether a sweep reads columns is the swept drivers'
    to say (:meth:`~repro.runtime.sweep.SweepEngine.sweep`)."""

    metric_specs = _LOSS_SPECS + _COHORT_SPECS

    def __init__(
        self,
        sweeper,
        config,
        network=None,
        placement=None,
        cache=None,
        supervision=None,
        metrics=None,
    ):
        self.sweeper = sweeper
        self.network = network
        self.placement = placement
        self.cache = cache
        self.supervision = supervision
        self.config = config
        self.network_dropped = 0
        self.read_failed = 0
        self._plan_compiles = 0
        self._plan_hits = 0
        if metrics is not None:
            self.attach_metrics(metrics)

    def reconfigure(self, config) -> None:
        """Adopt ``config`` between sweeps (what is read here and may
        change live: the stale policy and ``batch.min_column``)."""
        self.config = config

    @property
    def errors(self) -> int:
        """Every read lost to a sweep, whatever the cause."""
        return self.network_dropped + self.read_failed

    def note_losses(self, dropped: int, failed: int) -> None:
        """Count reads lost to the network model and to read failures:
        this gatherer's own or, on a shard coordinator, its workers'."""
        self.network_dropped += dropped
        self.read_failed += failed

    def sweep(self, decl, interaction):
        """Poll every bound instance of one periodic ``interaction`` of
        the context declared by ``decl``: sample, sweep, fold.

        Returns ``(instances, values, dropped, failed)`` — the readings
        that survived as two aligned columns in registry order (the
        instance column is the sweep engine's own while nothing was
        lost: do not mutate it), plus how many reads this sweep lost to
        the network model and to read failures (already counted here).

        Quarantined entities stay in the sweep (hidden only from
        application-level discovery): probing them is what lets a
        half-open breaker observe a recovery."""
        source = interaction.source
        device = interaction.device
        sampler = self._read_sampler(decl, interaction)
        spanned: List[List[Any]] = []  # columns straight from read_batch
        instances, outcomes = self.sweeper.sweep(
            device,
            functools.partial(_read_column, source, sampler),
            functools.partial(
                self._gather_read_column,
                device,
                source,
                sampler,
                DeviceInstance.failed_flips,
                spanned,
            ),
        )
        if sum(map(len, spanned)) == len(outcomes):
            # coerce_column proved every task's column: nothing was lost.
            return instances, outcomes, 0, 0
        return self._fold_read_outcomes(instances, outcomes, source)

    def _read_sampler(self, decl, interaction) -> Optional[Callable[[], bool]]:
        """Zero-arg survival sampler for this gather's polled reads.

        ``None`` when reads are reliable (no network, or loss not
        applied to reads).  Under a topology, an edge-placed gather
        samples only the device→edge access hop — its raw readings
        never touch the WAN — while cloud-placed gathers sample the
        whole path.  Zero-loss hops draw no randomness either way."""
        network = self.network
        if network is None or not self.config.network.apply_to_reads:
            return None
        placement = self.placement
        if (
            placement is not None
            and placement.topology is not None
            and placement.splits(decl, interaction)
        ):
            access = placement.config.access_hop
            if access not in network.hop_names:
                return None
            return functools.partial(network.sample_read_ok, (access,))
        return network.sample_read_ok

    # -- the columnar column reader -------------------------------------

    def plan(self, device_type: str, source: str, instances):
        """The memoized ``(groups, scalar, ids, key)`` cohort plan for one
        column of the current cut of ``device_type`` (compiling on miss).

        ``groups`` holds one ``(positions, entity_ids, tally)`` triple
        per ``batch_key`` cohort, in first-appearance order: the
        members' indexes into the column, aligned with them the
        entity-id column ``read_batch`` is handed when the cohort reads
        whole, and the ``(read counter, reads)`` pairs such a read
        bumps; ``scalar`` is the positions whose driver declines
        batching (``batch_key`` is ``None``).  ``ids`` is the entity-id
        column of ``instances`` itself, which is what the read cache is
        asked by, and ``key`` the batch key when one cohort is the whole
        column (else ``None``).  Planning once spares every sweep the
        ``batch_key`` calls, cohort formation, id-column builds and the
        pass over the members' read counters.

        A plan lives in the memo of the sweep cut whose column it was
        compiled for (:meth:`~repro.runtime.sweep.SweepEngine.
        cut_memo`), keyed by ``(source, id(column))``: the cut keeps
        its columns alive and is replaced whenever the registry hands
        out another partition — a bind, an unbind, or a ``failed`` flag
        filtering members without a version bump — so a plan is never
        replayed over a column it was not compiled for.  A recompile
        asks ``batch_key`` only of members new to the column (a key
        holds until ``swap_driver``, which voids the predecessor)."""
        plans, predecessor = self.sweeper.cut_memo(device_type, instances)
        memo_key = (source, id(instances))
        plan = plans.get(memo_key)
        if plan is not None:
            self._plan_hits += 1
            return plan
        entity_ids = list(map(_entity_id_of, instances))
        keys = _batch_keys(source, instances, predecessor)
        key = keys[0] if keys else None
        if key is not None and all(map(is_, keys, repeat(key))):
            # One cohort spans the column: it reads the column's own ids.
            groups = ((range(len(keys)), entity_ids, _tally(instances)),)
            scalar = ()
        else:
            key, cohorts, scalar = None, {}, []
            for position, batch_key in enumerate(keys):
                if batch_key is None:
                    scalar.append(position)
                    continue
                cohort = cohorts.get(id(batch_key))
                if cohort is None:
                    cohort = cohorts[id(batch_key)] = []
                cohort.append(position)
            groups = tuple(
                (
                    positions,
                    list(map(entity_ids.__getitem__, positions)),
                    _tally(map(instances.__getitem__, positions)),
                )
                for positions in cohorts.values()
            )
        plan = plans[memo_key] = (groups, tuple(scalar), entity_ids, key)
        self._plan_compiles += 1
        return plan

    def _gather_read_column(
        self, device, source, sampler, flips, spanned, instances
    ):
        """Columnar shard read: cohorts, batch reads, scalar demotion.

        Produces the same outcome column the scalar path would, one
        entry per instance in order.  Eligible entities — healthy, not
        failed, not cache-fresh, with a driver that shares a
        :meth:`~repro.runtime.device.DeviceDriver.batch_key` cohort of
        at least ``min_column`` — are read in one ``read_batch`` call
        per cohort; everything else **demotes to the scalar path**,
        where per-entity retries, breaker accounting and stale handling
        behave exactly as in an unbatched sweep.  A cohort whose batch
        read fails (or returns a mis-shaped column) demotes whole.

        In the common case — reliable reads, no failed flag, no
        supervising config — nothing below takes a step per entity:
        the cache answers for the column at once and a cohort that
        spans the shard hands its value column back as the result (and
        appends it to ``spanned``).
        """
        results: List[Any] = [_PENDING] * len(instances)
        demoted: List[int] = []
        # Static partition — (shard, batch_key) cohorts and the
        # no-batch-driver positions — comes from the memoized plan;
        # only the per-sweep eligibility below stays dynamic.
        groups, unbatched, entity_ids, __ = self.plan(
            device, source, instances
        )
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
                if instance.failed or (
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
        min_column = self.config.batch.min_column
        for positions, cohort_ids, tally in groups if pending else ():
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
            # A cohort that spans the shard reads its columns as they
            # are, and its value column is the shard's result.
            spans = len(positions) == len(instances)
            column = self._read_batch_cohort(
                source,
                instances if spans else [instances[p] for p in positions],
                cohort_ids,
                tally,
            )
            if column is None:
                scalar.extend(positions)
            elif spans:
                spanned.append(column)
                return column
            else:
                for position, value in zip(positions, column):
                    results[position] = value
        if scalar:
            self.sweeper.note_batch_demoted(len(scalar))
            scalar.sort()
            outcomes = _read_column(
                source, None, [instances[position] for position in scalar]
            )
            for position, outcome in zip(scalar, outcomes):
                results[position] = outcome
        return results

    def _read_batch_cohort(
        self, source, instances, entity_ids, tally
    ) -> Optional[List[Any]]:
        """One driver-level batch read over a cohort, bumping the read
        counters by the planned ``tally`` (``None``: count the members).

        Returns the cohort's coerced value column, aligned with
        ``instances``; ``None`` when the cohort must be demoted to the
        scalar path (driver declined, read failed, or the column does
        not align with the cohort).
        """
        cache = self.cache
        since = None if cache is None else cache.generation
        try:
            column = instances[0].driver.read_batch(entity_ids, source)
        except DeliveryError:
            return None
        if column is NotImplemented or column is None:
            return None
        try:
            values = list(column)
        except TypeError:
            return None
        if len(values) != len(instances):
            return None
        self.sweeper.note_batch_read(len(values))
        # A subtype cannot redeclare an inherited source, so one
        # declaration types the whole column.
        values = coerce_column(
            instances[0].info.source(source).dia_type, values
        )
        if tally is None:
            tally = _tally(instances)
        for counter, reads in tally:
            counter.inc(reads)
        if self.config.supervised():
            for instance, value in zip(instances, values):
                supervisor = instance.supervisor
                if supervisor is not None:
                    # Keeps last-known stale values fresh and the
                    # breaker's success accounting truthful, exactly as
                    # a scalar read.
                    supervisor.record_success(source, value)
        if cache is not None:
            cache.store_column(instances, entity_ids, source, values, since)
        return values

    def _fold_read_outcomes(self, instances, outcomes, source):
        """Fold a sweep's outcome column into ``(instances, values,
        dropped, failed)``: the columns of the readings that survived
        and the reads lost, counted (:meth:`note_losses`) and put
        through the stale policy — always on the sweep-driving thread.
        When a supervised read failed, the policy decides whether the
        entity drops out of this sweep (``skip``), serves its last
        known value (``last_known``), or fails the sweep (``fail``).
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
