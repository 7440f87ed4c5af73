"""The partitioned map side — the one function under the in-process
gather, the edge split and the shard workers — against the engine's
grouped run."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mapreduce import (
    MapReduce,
    MapReduceEngine,
    map_partition,
)
from repro.mapreduce.engine import rank_groups, sequence_partials
from repro.runtime.grouping import KeyColumns


class Trail(MapReduce):
    """Order-sensitive and combine-less: every reading emits under its
    own group and under a shared key, and reduce keeps the value lists,
    so any emission out of single-process order shows in the result."""

    def map(self, key, value, collector):
        collector.emit_map(key, value)
        if value % 3:
            collector.emit_map("all", (key, value))

    def reduce(self, key, values, collector):
        collector.emit_reduce(key, list(values))


class CombiningSum(MapReduce):
    def map(self, key, value, collector):
        collector.emit_map(key, value)
        collector.emit_map("total", value)

    def combine(self, key, values, collector):
        collector.emit_combine(key, sum(values))

    def reduce(self, key, values, collector):
        collector.emit_reduce(key, sum(values))


@st.composite
def sweeps(draw):
    """One sweep's ``(group key, value)`` readings in position order,
    plus the partition (edge node / shard) owning each reading."""
    partitions = draw(st.integers(min_value=1, max_value=4))
    readings = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["A22", "B16", "D6", "E1"]),
                st.integers(min_value=0, max_value=50),
                st.integers(min_value=0, max_value=partitions - 1),
            ),
            max_size=40,
        )
    )
    return partitions, readings


def single_process(job, readings):
    grouped = {}
    for key, value, __ in readings:
        grouped.setdefault(key, []).append(value)
    engine = MapReduceEngine()
    return engine.run(job, grouped), engine.last_stats


def partitioned(job, partitions, readings):
    ranks = rank_groups(
        (key, position) for position, (key, __, ___) in enumerate(readings)
    )
    keys = [key for key, __, ___ in readings]
    values = [value for __, value, ___ in readings]
    tagged, mapped = [], 0
    for partition in range(partitions):
        # Each partition maps its rows in (group rank, position) order.
        owned = sorted(
            (
                position
                for position, (__, ___, owner) in enumerate(readings)
                if owner == partition
            ),
            key=lambda position: (ranks[keys[position]], position),
        )
        pairs, emitted = map_partition(
            job, keys, values, owned, ranks, range(len(readings))
        )
        tagged.extend(pairs)
        mapped += emitted
    engine = MapReduceEngine()
    result = engine.merge_partials(job, sequence_partials(tagged), mapped)
    return result, engine.last_stats


def in_one_partition(job, readings):
    """The in-process gather's shape: the whole sweep is one
    partition, mapped untagged in the key columns' row order."""
    keys = [key for key, __, ___ in readings]
    values = [value for __, value, ___ in readings]
    order = KeyColumns(None, range(len(keys)), {"lot": keys}).groups("lot")[1]
    pairs, mapped = map_partition(job, keys, values, order)
    engine = MapReduceEngine()
    return engine.merge_partials(job, pairs, mapped), engine.last_stats


class TestMapPartition:
    @settings(max_examples=200, deadline=None)
    @given(sweeps())
    def test_combine_less_job_is_exactly_the_single_process_run(self, sweep):
        partitions, readings = sweep
        expected, expected_stats = single_process(Trail(), readings)
        result, stats = partitioned(Trail(), partitions, readings)
        # repr: key order and the order inside every value list.
        assert repr(result) == repr(expected)
        assert stats == expected_stats

    @settings(max_examples=200, deadline=None)
    @given(sweeps())
    def test_associative_combiner_is_value_equal(self, sweep):
        partitions, readings = sweep
        expected, expected_stats = single_process(CombiningSum(), readings)
        result, stats = partitioned(CombiningSum(), partitions, readings)
        assert result == expected
        assert list(result) == list(expected)
        assert stats["mapped"] == expected_stats["mapped"]
        assert stats["reduced"] == expected_stats["reduced"]
        # One partial per (partition, key) at most crosses the boundary:
        # the single-process run shuffles one per distinct key.
        assert stats["shuffled"] <= partitions * expected_stats["shuffled"]

    @settings(max_examples=100, deadline=None)
    @given(sweeps())
    def test_one_untagged_partition_is_exactly_the_grouped_run(self, sweep):
        __, readings = sweep
        for job in (Trail(), CombiningSum()):
            expected, expected_stats = single_process(job, readings)
            result, stats = in_one_partition(job, readings)
            assert repr(result) == repr(expected)
            assert stats == expected_stats

    def test_rows_may_arrive_in_any_order(self):
        rows = [(5, "B", 2), (0, "A", 1), (3, "B", 1), (4, "A", 2)]
        ranks = rank_groups((key, position) for position, key, __ in rows)
        assert ranks == {"A": 0, "B": 1}
        positions, keys, values = (list(column) for column in zip(*rows))
        # The key columns put the rows in (group rank, position) order.
        columns = KeyColumns(None, positions, {"lot": keys})
        order = columns.groups("lot")[1]
        assert order == [1, 3, 2, 0]
        pairs, mapped = map_partition(
            Trail(), keys, values, order, ranks, positions
        )
        assert mapped == len(pairs) == 8
        assert [tag for tag, __, ___ in pairs] == sorted(
            tag for tag, __, ___ in pairs
        )
        assert [tag[:2] for tag, key, __ in pairs if key != "all"] == [
            (0, 0), (0, 4), (1, 3), (1, 5)
        ]
        # the emission's index among its reading's emissions
        assert [tag[2] for tag, __, ___ in pairs] == [0, 1] * 4

    def test_first_positions_merges_shard_minima(self):
        shard_a = KeyColumns(None, [4, 2, 6], {"k": ["A", "B", "A"]})
        shard_b = KeyColumns(None, [1, 3], {"k": ["A", "C"]})
        firsts_a = shard_a.firsts("k")
        assert firsts_a == {"A": 4, "B": 2}
        assert list(firsts_a) == ["B", "A"]  # by first position
        merged = rank_groups(
            [*firsts_a.items(), *shard_b.firsts("k").items()]
        )
        assert merged == {"A": 0, "B": 1, "C": 2}
