"""MapReduce execution engine.

Runs a :class:`~repro.mapreduce.api.MapReduce` job over grouped sensor
data.  Every run has the same two halves: a map side,
:func:`map_partition`, maps one partition of the readings (with the
job's map-side combine, if it has one), and
:meth:`MapReduceEngine.merge_partials` reduces what the map sides
shuffled.  The partitions are wherever the readings live: a gather
maps its whole sweep as one partition in process, an ``at edge``
context one per edge node, and a sharded runtime one per worker
process, in parallel — the partitioned backend the paper hands
``grouped by … with map … reduce …`` to (DiaSwarm).  Partitions that
ran apart carry tags (:func:`rank_groups`, :func:`sequence_partials`)
that put their partials back in single-process emission order, so the
result, key order included, never depends on the partitioning — the
framework interface "prevents the specificities of a target MapReduce
implementation to percolate to the application logic" (Section V.B).
:func:`run_mapreduce` runs a job once over a grouped dict
(``{group_key: [readings]}``), as one partition.

When the job provides the optional ``combine`` hook, every map
partition runs it *before* the shuffle, so only one partial aggregate
per (partition, key) crosses the shuffle boundary.  Each run records
shuffle volume in ``engine.last_stats``, with key names aligned with
the bus's ``published``/``delivered`` convention (past-participle verb
per phase)::

    {"mapped":       <pairs the Map phase produced>,
     "shuffled":     <pairs that crossed the map->reduce boundary>,
     "reduced":      <final result count>,
     "combine_used": <whether the combine hook ran>}

making the combiner's win (``mapped / shuffled``) observable.  The
engine additionally accumulates the same counters across runs and can
export them through a telemetry registry (``mapreduce_mapped_total``
and friends).
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from itertools import chain, repeat
from operator import itemgetter, sub
from typing import (
    Any,
    Dict,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.mapreduce.api import (
    CombineCollector,
    MapCollector,
    MapReduce,
    ReduceCollector,
    job_combiner,
)
from repro.telemetry.instrument import Instrumented, MetricSpec
from repro.mapreduce.partition import group_pairs

Pairs = List[Tuple[Hashable, Any]]
_first = itemgetter(0)
_second = itemgetter(1)


def _reduce(job: MapReduce, grouped: Iterable[Tuple[Hashable, Any]]) -> Pairs:
    """Reduce ``(key, values)`` items, in the order given."""
    collector = ReduceCollector()
    for key, values in grouped:
        job.reduce(key, values, collector)
    return collector.pairs


# The map side.  One function maps every partition of a sweep: the
# whole sweep in one process, an edge node's or a shard worker's rows.
# A partition whose output is merged with other partitions' by tag
# carries a ``(rank, position, emission)`` tag per pair: the rank of
# its row's group among the sweep's groups, the row's position in the
# sweep, and the index of the emission among its row's emissions (a
# combined partial takes the tag of the first emission it folded).
# Tags compare across partitions, so sorting the partials by tag
# reproduces the single-process emission sequence.  Only the functions
# below know the tag format.

Tagged = List[Tuple[Tuple[int, int, int], Hashable, Any]]


def rank_groups(keyed: Iterable[Tuple[Hashable, int]]) -> Dict[Hashable, int]:
    """Each group key's rank by the position of its first surviving
    reading — the order the single-process grouping meets the keys in
    when it sees the whole sweep — from ``(key, first position)``
    pairs, a key possibly repeated (one pair per partition)."""
    firsts: Dict[Hashable, int] = {}
    for key, position in keyed:
        if firsts.get(key, position) >= position:
            firsts[key] = position
    ordered = sorted(firsts, key=firsts.__getitem__)
    return {key: rank for rank, key in enumerate(ordered)}


def map_partition(
    job: MapReduce,
    keys: Sequence[Hashable],
    values: Sequence[Any],
    order: Sequence[int],
    ranks: Optional[Mapping[Hashable, int]] = None,
    positions: Optional[Sequence[int]] = None,
) -> Tuple[Any, int]:
    """Map (and map-side combine) one partition of a sweep: the rows
    ``order`` of its aligned ``keys`` (each row's group key) and
    ``values`` columns, in that order.

    Returns ``(pairs, mapped)``: the pairs to shuffle — the combined
    partials, or every emission of a job without a combiner — and the
    raw map emission count.  Per reading only the job's ``map`` runs,
    called through C-level ``map`` with one plain collector; the
    combine runs once per intermediate key.

    A partition merged with others by tag (an edge node, a shard
    worker) is mapped in ``(group rank, position)`` order and passes
    the sweep-wide ``ranks`` of the group keys and each row's
    ``positions`` in the sweep: every pair then comes as ``(tag, key,
    value)``.  Nothing is tagged per emission while the job maps: each
    row's first emission is noted as the row is handed out, and the
    tags are built from those notes afterwards.
    """
    collector = MapCollector()
    emitted = collector.pairs
    collectors = repeat(collector)
    starts: List[int] = []  # per row of ``order``, the emissions before it
    if ranks is not None:
        noted = map(starts.append, map(len, repeat(emitted)))
        collectors = map(_first, zip(collectors, noted))
    if type(order) is range and order.step == 1:
        # Rows in column order map straight off the columns.
        rows = slice(order.start, order.stop)
        inputs = keys[rows], values[rows]
    else:
        inputs = map(keys.__getitem__, order), map(values.__getitem__, order)
    deque(map(job.map, *inputs, collectors), maxlen=0)
    mapped = len(emitted)
    pairs: Any = emitted
    origins: Sequence[int] = range(mapped)  # each pair's first emission
    combine = job_combiner(job)
    if combine is not None and emitted:
        combined = CombineCollector()
        grouped = group_pairs(emitted)
        ends = []  # per intermediate key, the partials emitted so far
        for out_key, out_values in grouped.items():
            combine(out_key, out_values, combined)
            ends.append(len(combined.pairs))
        pairs = combined.pairs
        if ranks is not None:
            # A partial takes the first emission of the key it folded.
            out_keys = map(_first, reversed(emitted))
            first = dict(zip(out_keys, reversed(origins)))
            counts = map(sub, ends, chain((0,), ends))
            firsts = map(first.__getitem__, grouped)
            origins = list(chain.from_iterable(map(repeat, firsts, counts)))
    if ranks is None:
        return pairs, mapped
    # A pair's row is the last one whose first emission is not after
    # the pair's first emission.
    after = map(bisect_right, repeat(starts), origins)
    at = list(map(sub, after, repeat(1)))
    rows = list(map(order.__getitem__, at))
    tags = zip(
        map(ranks.__getitem__, map(keys.__getitem__, rows)),
        map(positions.__getitem__, rows),
        map(sub, origins, map(starts.__getitem__, at)),
    )
    return list(zip(tags, map(_first, pairs), map(_second, pairs))), mapped


def sequence_partials(tagged: Tagged) -> Pairs:
    """Every partition's partials in single-process emission order,
    tags stripped: what :meth:`MapReduceEngine.merge_partials` takes."""
    return [(key, value) for __, key, value in sorted(tagged, key=_first)]


def _stats(mapped: int, shuffled: int, reduced: int, combine_used: bool):
    return {
        "mapped": mapped,
        "shuffled": shuffled,
        "reduced": reduced,
        "combine_used": combine_used,
    }


class MapReduceEngine(Instrumented):
    """The reduce half of every run, and its shuffle counters.

    Cumulative run counters are declared through the shared
    :class:`Instrumented` protocol and exported as pull-time callbacks.
    """

    metric_specs = (
        MetricSpec(
            "mapreduce_runs_total",
            "_runs",
            stats_key="runs",
            help="MapReduce jobs executed.",
        ),
        MetricSpec(
            "mapreduce_combined_runs_total",
            "_combined_runs",
            stats_key="combined_runs",
            help="Runs whose job supplied a map-side combine hook.",
        ),
        MetricSpec(
            "mapreduce_mapped_total",
            "_mapped",
            stats_key="mapped",
            help="Pairs produced by Map phases.",
        ),
        MetricSpec(
            "mapreduce_shuffled_total",
            "_shuffled",
            stats_key="shuffled",
            help="Pairs that crossed the map->reduce boundary.",
        ),
        MetricSpec(
            "mapreduce_reduced_total",
            "_reduced",
            stats_key="reduced",
            help="Final pairs produced by Reduce phases.",
        ),
    )

    def __init__(self, metrics=None):
        self._last_stats = _stats(0, 0, 0, False)
        self._runs = 0
        self._combined_runs = 0
        self._mapped = 0
        self._shuffled = 0
        self._reduced = 0
        if metrics is not None:
            self.attach_metrics(metrics)

    def run(
        self, job: MapReduce, grouped: Mapping[Hashable, Sequence[Any]]
    ) -> Dict[Hashable, Any]:
        """Run ``job`` over grouped readings: :func:`map_partition`
        maps them in group order as one partition and
        :meth:`merge_partials` reduces what it shuffles."""
        counts = map(len, grouped.values())
        keys = list(chain.from_iterable(map(repeat, grouped, counts)))
        values = list(chain.from_iterable(grouped.values()))
        order = range(len(keys))
        pairs, mapped = map_partition(job, keys, values, order)
        return self.merge_partials(job, pairs, mapped)

    def merge_partials(
        self, job: MapReduce, pairs: Pairs, mapped: int
    ) -> Dict[Hashable, Any]:
        """Reduce partials the map side produced, in emission order.

        Every run reduces here: :meth:`run` and the in-process gather
        after :func:`map_partition` over the whole input, an edge split
        or a shard coordinator after re-sequencing the tagged partials
        of its partitions (:func:`sequence_partials`).  ``mapped`` is
        the raw map emission count across partitions, so the engine's
        cumulative counters (and ``last_stats``) stay truthful about
        shuffle volume.
        """
        result = dict(_reduce(job, group_pairs(pairs).items()))
        stats = _stats(
            mapped, len(pairs), len(result), job_combiner(job) is not None
        )
        self._last_stats = stats
        self._runs += 1
        self._combined_runs += 1 if stats["combine_used"] else 0
        self._mapped += mapped
        self._shuffled += len(pairs)
        self._reduced += len(result)
        return result

    @property
    def last_stats(self) -> Dict[str, Any]:
        """Shuffle-volume counters of the most recent run."""
        return dict(self._last_stats)


def run_mapreduce(
    job: MapReduce, grouped: Mapping[Hashable, Sequence[Any]]
) -> Dict[Hashable, Any]:
    """One-shot convenience wrapper around :class:`MapReduceEngine`."""
    return MapReduceEngine().run(job, grouped)
