"""MapReduce execution engine.

Runs a :class:`~repro.mapreduce.api.MapReduce` job over grouped sensor
data (``{group_key: [readings]}``) and returns the reduced results
(``{intermediate_key: reduced_value}``).  Three executors:

* :class:`SerialExecutor` — single-threaded reference implementation; the
  baseline of the scaling benchmarks.
* :class:`ThreadExecutor` — map chunks and reduce partitions fan out to a
  thread pool.  Python threads do not speed up pure-Python byte-code, but
  they parallelize readings whose processing releases the GIL and they
  exercise the same partitioned dataflow as a distributed backend.
* :class:`ProcessExecutor` — fan-out to worker processes; requires the job
  and data to be picklable.  This stands in for the cluster backend of the
  DiaSwarm work the paper builds on.

Results are identical across executors for deterministic jobs — the
framework interface "prevents the specificities of a target MapReduce
implementation to percolate to the application logic" (Section V.B).

When the job provides the optional ``combine`` hook, every executor runs
it per map chunk *before* partitioning, so only one partial aggregate per
(chunk, key) crosses the shuffle boundary.  Each run records shuffle
volume in ``executor.last_stats`` / ``engine.last_stats``, with key
names aligned with the bus's ``published``/``delivered`` convention
(past-participle verb per phase)::

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

from collections import deque
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from itertools import repeat
from operator import itemgetter
from typing import (
    Any,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
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
from repro.mapreduce.partition import (
    group_pairs,
    hash_partition,
    partition_items,
)

Pairs = List[Tuple[Hashable, Any]]
_first = itemgetter(0)
_second = itemgetter(1)


def _run_map_chunk(
    job: MapReduce, chunk: Sequence[Tuple[Hashable, Any]]
) -> Tuple[Pairs, int]:
    """Map one chunk; returns (pairs to shuffle, raw map emission count).

    With a combiner, the raw emissions are folded to one partial per key
    here — inside the map task, before any pair crosses an executor
    boundary — which is what makes this the *map-side* combine.
    """
    collector = MapCollector()
    for key, value in chunk:
        job.map(key, value, collector)
    pairs = collector.pairs
    emitted = len(pairs)
    combine = job_combiner(job)
    if combine is not None and pairs:
        combined = CombineCollector()
        for key, values in group_pairs(pairs).items():
            combine(key, values, combined)
        pairs = combined.pairs
    return pairs, emitted


def _run_reduce_bucket(job: MapReduce, bucket: Pairs) -> Pairs:
    collector = ReduceCollector()
    for key, values in group_pairs(bucket).items():
        job.reduce(key, values, collector)
    return collector.pairs


# Partitioned map side (edge nodes, shard workers).  When one sweep's
# readings are mapped in several places, every emission carries a
# ``(rank, position, emission)`` tag: the rank of its group among the
# sweep's groups, the global position of its reading, its index among
# that reading's emissions.  Tags compare across partitions, so sorting
# the partials by tag reproduces the single-process emission sequence.
# Only the functions below know the tag format.

Tagged = List[Tuple[Tuple[int, int, int], Hashable, Any]]


def first_positions(
    keys: Sequence[Hashable], positions: Sequence[int]
) -> Dict[Hashable, int]:
    """The lowest position of each group key over aligned ``keys`` and
    ``positions`` columns in any order: by falling position, the last
    position a key keeps is its lowest."""
    order = sorted(
        range(len(positions)), key=positions.__getitem__, reverse=True
    )
    return dict(
        zip(map(keys.__getitem__, order), map(positions.__getitem__, order))
    )


def rank_groups(keyed: Iterable[Tuple[Hashable, int]]) -> Dict[Hashable, int]:
    """Each group key's rank by the position of its first surviving
    reading — the order ``group_readings`` meets the keys in when it
    sees the whole sweep."""
    pairs = list(keyed)
    firsts = first_positions(
        list(map(_first, pairs)), list(map(_second, pairs))
    )
    ordered = sorted(firsts, key=firsts.__getitem__)
    return {key: rank for rank, key in enumerate(ordered)}


class _RowCollector(MapCollector):
    """The map collector of one partition: it knows the row being mapped
    and tags each emission ``(rank, position, emission)`` as it is
    emitted, from the partition's ``ranks`` and ``positions`` columns."""

    __slots__ = ("row", "_ranks", "_positions", "_last", "_emission")

    def __init__(self, ranks: Sequence[int], positions: Sequence[int]):
        super().__init__()
        self.row = -1
        self._ranks = ranks
        self._positions = positions
        self._last = -1
        self._emission = 0

    def over(self, rows: Iterable[int]) -> Iterator["_RowCollector"]:
        """Itself once per row of ``rows``, its ``row`` set as it is
        handed out — by ``setattr`` from C, with no Python frame per
        row."""
        moved = map(setattr, repeat(self), repeat("row"), rows)
        return map(_first, zip(repeat(self), moved))

    def emit_map(self, key: Hashable, value: Any) -> None:
        row = self.row
        if row == self._last:
            self._emission += 1
        else:
            self._last, self._emission = row, 0
        tag = (self._ranks[row], self._positions[row], self._emission)
        self._pairs.append((tag, key, value))

    emit = emit_map


def map_partition(
    job: MapReduce,
    positions: Sequence[int],
    keys: Sequence[Hashable],
    values: Sequence[Any],
    ranks: Mapping[Hashable, int],
) -> Tuple[Tagged, int]:
    """Map (and map-side combine) one partition of a sweep.

    The readings are three aligned columns — global positions, group
    keys, values — in any order; ``ranks`` is the sweep-wide
    :func:`rank_groups` order, and mapping in ``(rank, position)`` order
    reproduces the slice of the single-process input sequence this
    partition owns.  Per reading only the job's ``map`` runs: a
    :class:`_RowCollector` tags the emissions.  A combined partial
    keeps the lowest tag it folded.  Returns ``(tagged pairs, raw map
    emission count)``.
    """
    ranked = list(map(ranks.__getitem__, keys))
    # Two stable sorts — by position, then by rank — put the rows in
    # (rank, position) order (the first is linear on a column already
    # in position order).
    order = sorted(range(len(ranked)), key=positions.__getitem__)
    order.sort(key=ranked.__getitem__)
    collector = _RowCollector(ranked, positions)
    deque(
        map(
            job.map,
            map(keys.__getitem__, order),
            map(values.__getitem__, order),
            collector.over(order),
        ),
        maxlen=0,
    )
    pairs: Tagged = collector.pairs
    mapped = len(pairs)
    combine = job_combiner(job)
    if combine is not None and pairs:
        grouped: Dict[Hashable, List[Tuple[Any, Any]]] = {}
        for tag, out_key, out_value in pairs:
            grouped.setdefault(out_key, []).append((tag, out_value))
        pairs = []
        for out_key, tagged in grouped.items():
            combined = CombineCollector()
            combine(out_key, [value for __, value in tagged], combined)
            first = min(tag for tag, __ in tagged)
            for pair_key, pair_value in combined.pairs:
                pairs.append((first, pair_key, pair_value))
    return pairs, mapped


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
    """Reference executor: both phases run inline."""

    workers = 1
    last_stats: Dict[str, Any] = _stats(0, 0, 0, False)

    def run(self, job: MapReduce, grouped: Mapping[Hashable, Sequence[Any]]):
        inputs = [
            (key, value) for key, values in grouped.items() for value in values
        ]
        intermediate, emitted = _run_map_chunk(job, inputs)
        result = dict(_run_reduce_bucket(job, intermediate))
        self.last_stats = _stats(
            emitted,
            len(intermediate),
            len(result),
            job_combiner(job) is not None,
        )
        return result


class _PooledExecutor:
    """Shared fan-out logic for thread and process pools."""

    def __init__(self, workers: int = 4):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.last_stats: Dict[str, Any] = _stats(0, 0, 0, False)

    def _pool(self):  # pragma: no cover - abstract
        raise NotImplementedError

    def run(self, job: MapReduce, grouped: Mapping[Hashable, Sequence[Any]]):
        combined = job_combiner(job) is not None
        inputs = [
            (key, value) for key, values in grouped.items() for value in values
        ]
        chunks = partition_items(inputs, self.workers)
        if not chunks:
            self.last_stats = _stats(0, 0, 0, combined)
            return {}
        with self._pool() as pool:
            map_results = list(
                pool.map(_run_map_chunk, [job] * len(chunks), chunks)
            )
            intermediate: Pairs = [
                pair for chunk_pairs, __ in map_results for pair in chunk_pairs
            ]
            emitted = sum(count for __, count in map_results)
            buckets = [
                bucket
                for bucket in hash_partition(intermediate, self.workers)
                if bucket
            ]
            if not buckets:
                self.last_stats = _stats(emitted, 0, 0, combined)
                return {}
            reduce_results = list(
                pool.map(_run_reduce_bucket, [job] * len(buckets), buckets)
            )
        merged: Dict[Hashable, Any] = {}
        for pairs in reduce_results:
            merged.update(pairs)
        self.last_stats = _stats(
            emitted, len(intermediate), len(merged), combined
        )
        return merged


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
        result = self.executor.run(job, grouped)
        self._account(self.executor.last_stats)
        return result

    def _account(self, stats: Dict[str, Any]) -> None:
        self._runs += 1
        self._combined_runs += 1 if stats["combine_used"] else 0
        self._mapped += stats["mapped"]
        self._shuffled += stats["shuffled"]
        self._reduced += stats["reduced"]

    def merge_partials(
        self, job: MapReduce, pairs: Pairs, mapped: int
    ) -> Dict[Hashable, Any]:
        """Reduce pre-shuffled partials produced elsewhere (shard workers).

        The sharded runtime runs Map and the map-side combine inside each
        worker process and ships only the partial pairs to the
        coordinator; this is the coordinator-side final reduce over those
        partials.  ``mapped`` is the raw map emission count across
        workers, so the engine's cumulative counters (and
        ``last_stats``) stay truthful about shuffle volume even though
        the executor never saw the run.
        """
        result = dict(_run_reduce_bucket(job, pairs))
        stats = _stats(
            mapped, len(pairs), len(result), job_combiner(job) is not None
        )
        self.executor.last_stats = stats
        self._account(stats)
        return result

    @property
    def last_stats(self) -> Dict[str, Any]:
        """Shuffle-volume counters of the most recent run."""
        return dict(self.executor.last_stats)


def run_mapreduce(
    job: MapReduce,
    grouped: Mapping[Hashable, Sequence[Any]],
    executor=None,
) -> Dict[Hashable, Any]:
    """One-shot convenience wrapper around :class:`MapReduceEngine`."""
    return MapReduceEngine(executor).run(job, grouped)
