"""The partitioned map side — the one function under both the edge split
and the shard workers — against the single-process engine."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mapreduce import MapReduce, MapReduceEngine, map_partition
from repro.mapreduce.engine import (
    first_positions,
    rank_groups,
    sequence_partials,
)


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
    tagged, mapped = [], 0
    for partition in range(partitions):
        owned = [
            (position, key, value)
            for position, (key, value, owner) in enumerate(readings)
            if owner == partition
        ]
        columns = [[row[column] for row in owned] for column in range(3)]
        pairs, emitted = map_partition(job, *columns, ranks)
        tagged.extend(pairs)
        mapped += emitted
    engine = MapReduceEngine()
    result = engine.merge_partials(job, sequence_partials(tagged), mapped)
    return result, engine.last_stats


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
        # One partial per (partition, key) at most crosses the boundary.
        assert stats["shuffled"] <= partitions * len(expected)

    def test_rows_may_arrive_in_any_order(self):
        rows = [(5, "B", 2), (0, "A", 1), (3, "B", 1), (4, "A", 2)]
        ranks = rank_groups((key, position) for position, key, __ in rows)
        assert ranks == {"A": 0, "B": 1}
        pairs, mapped = map_partition(Trail(), *zip(*rows), ranks)
        assert mapped == len(pairs) == 8
        assert [tag for tag, __, ___ in pairs] == sorted(
            tag for tag, __, ___ in pairs
        )
        assert [tag[:2] for tag, key, __ in pairs if key != "all"] == [
            (0, 0), (0, 4), (1, 3), (1, 5)
        ]

    def test_first_positions_merges_shard_minima(self):
        shard_a = first_positions(["A", "B", "A"], [4, 2, 6])
        shard_b = first_positions(["A", "C"], [1, 3])
        assert shard_a == {"A": 4, "B": 2}
        assert list(shard_a) == ["A", "B"]  # the order the wire ships
        merged = rank_groups([*shard_a.items(), *shard_b.items()])
        assert merged == {"A": 0, "B": 1, "C": 2}
