"""MapReduce execution engine.

Runs a :class:`~repro.mapreduce.api.MapReduce` job over grouped sensor
data (``{group_key: [readings]}``) and returns the reduced results
(``{intermediate_key: reduced_value}``).  Three executors run the map
side of :func:`run_mapreduce` (the reduce is always the engine's
:meth:`MapReduceEngine.merge_partials`):

* :class:`SerialExecutor` — single-threaded reference implementation; the
  baseline of the scaling benchmarks.
* :class:`ThreadExecutor` — contiguous slices of the map input fan out
  to a thread pool.  Python threads do not speed up pure-Python
  byte-code, but they parallelize readings whose processing releases
  the GIL and they exercise the same partitioned dataflow as a
  distributed backend.
* :class:`ProcessExecutor` — fan-out to worker processes; requires the job
  and data to be picklable.  This stands in for the cluster backend of the
  DiaSwarm work the paper builds on.

A running application maps each gather with :func:`map_partition`
itself: the whole sweep as one partition in process, one partition per
edge node or shard worker otherwise.

Results are identical across executors for deterministic jobs, key
order included (a pool's slices concatenate back in serial order) — the
framework interface "prevents the specificities of a target MapReduce
implementation to percolate to the application logic" (Section V.B).

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
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from contextlib import nullcontext
from types import SimpleNamespace
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
from repro.mapreduce.partition import group_pairs, partition_items

Pairs = List[Tuple[Hashable, Any]]
_first = itemgetter(0)
_second = itemgetter(1)
# The serial executor's "pool": ``map`` on the calling thread.
_INLINE = SimpleNamespace(map=map)


def _reduce(job: MapReduce, grouped: Iterable[Tuple[Hashable, Any]]) -> Pairs:
    """Reduce ``(key, values)`` items, in the order given."""
    collector = ReduceCollector()
    for key, values in grouped:
        job.reduce(key, values, collector)
    return collector.pairs


# The map side.  One function maps every partition of a sweep: the
# whole sweep in one process, a contiguous slice of it in a pool, an
# edge node's or a shard worker's rows.  A partition whose output is
# merged with other partitions' by tag carries a ``(rank, position,
# emission)`` tag per pair: the rank of its row's group among the
# sweep's groups, the row's position in the sweep, and the index of
# the emission among its row's emissions (a combined partial takes
# the tag of the first emission it folded).  Tags compare across
# partitions, so sorting the partials by tag reproduces the
# single-process emission sequence.  Only the functions below know the
# tag format.

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


class SerialExecutor:
    """Reference executor: the map side runs inline."""

    workers = 1

    def _pool(self):
        return nullcontext(_INLINE)

    def map_side(self, job, keys, values, order) -> Tuple[Pairs, int]:
        """Map and map-side combine the rows ``order`` of aligned group
        key and value columns, in that order: ``(pairs to shuffle, raw
        map emission count)``."""
        # Contiguous slices of one order concatenate in emission order.
        slices = partition_items(order, self.workers)
        if len(slices) > 1:
            # Each task maps its own slice of the columns: a process
            # pool pickles every reading once.
            keys = [list(map(keys.__getitem__, rows)) for rows in slices]
            values = [list(map(values.__getitem__, rows)) for rows in slices]
            slices = list(map(range, map(len, keys)))
        else:
            keys, values = [keys] * len(slices), [values] * len(slices)
        jobs = repeat(job, len(slices))
        with self._pool() as pool:
            results = list(pool.map(map_partition, jobs, keys, values, slices))
        pairs = list(chain.from_iterable(map(_first, results)))
        return pairs, sum(map(_second, results))


class _PooledExecutor(SerialExecutor):
    """Shared fan-out logic for thread and process pools: the map side
    runs over contiguous slices of the row order, which concatenate
    back in serial order."""

    def __init__(self, workers: int = 4):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers

    def _pool(self):  # pragma: no cover - abstract
        raise NotImplementedError


class ThreadExecutor(_PooledExecutor):
    """Thread-pool executor."""

    def _pool(self):
        return ThreadPoolExecutor(max_workers=self.workers)


class ProcessExecutor(_PooledExecutor):
    """Process-pool executor; job and data must be picklable."""

    def _pool(self):
        return ProcessPoolExecutor(max_workers=self.workers)


class MapReduceEngine(Instrumented):
    """Facade bundling an executor with result post-processing.

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

    def __init__(self, executor=None, metrics=None):
        self.executor = executor or SerialExecutor()
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
        """Run ``job`` over grouped readings: the executor maps them in
        group order and :meth:`merge_partials` reduces what it
        shuffles."""
        counts = map(len, grouped.values())
        keys = list(chain.from_iterable(map(repeat, grouped, counts)))
        values = list(chain.from_iterable(grouped.values()))
        order = range(len(keys))
        pairs, mapped = self.executor.map_side(job, keys, values, order)
        return self.merge_partials(job, pairs, mapped)

    def merge_partials(
        self, job: MapReduce, pairs: Pairs, mapped: int
    ) -> Dict[Hashable, Any]:
        """Reduce partials the map side produced, in emission order.

        Every run reduces here: :meth:`run` after its executor's map
        side, the in-process gather after :func:`map_partition` over
        the whole sweep, an edge split or a shard coordinator after
        re-sequencing the tagged partials of its partitions
        (:func:`sequence_partials`).  ``mapped`` is the raw map emission
        count across partitions, so the engine's cumulative counters
        (and ``last_stats``) stay truthful about shuffle volume.
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
    job: MapReduce,
    grouped: Mapping[Hashable, Sequence[Any]],
    executor=None,
) -> Dict[Hashable, Any]:
    """One-shot convenience wrapper around :class:`MapReduceEngine`."""
    return MapReduceEngine(executor).run(job, grouped)
