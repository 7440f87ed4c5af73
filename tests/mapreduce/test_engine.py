"""The MapReduce engine: correctness and result order."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mapreduce.api import MapCollector, MapReduce, ReduceCollector
from repro.mapreduce.engine import run_mapreduce


class FreeSpaceCounter(MapReduce):
    """The exact job of Figure 10: count False readings per lot."""

    def map(self, lot, presence, collector):
        if not presence:
            collector.emit_map(lot, True)

    def reduce(self, lot, values, collector):
        collector.emit_reduce(lot, len(values))


class WordLength(MapReduce):
    """Re-keys intermediate pairs: length buckets instead of input keys."""

    def map(self, key, word, collector):
        collector.emit_map(len(word), word)

    def reduce(self, length, words, collector):
        collector.emit_reduce(length, sorted(words))


class SumJob(MapReduce):
    def map(self, key, value, collector):
        collector.emit_map(key, value)

    def reduce(self, key, values, collector):
        collector.emit_reduce(key, sum(values))


GROUPED = {
    "A22": [True, False, False],
    "B16": [True, True],
    "D6": [False],
}


class TestSerialExecution:
    def test_figure_10_job(self):
        assert run_mapreduce(FreeSpaceCounter(), GROUPED) == {
            "A22": 2,
            "D6": 1,
        }

    def test_rekeying_job(self):
        grouped = {"x": ["a", "bb", "cc"], "y": ["ddd"]}
        assert run_mapreduce(WordLength(), grouped) == {
            1: ["a"],
            2: ["bb", "cc"],
            3: ["ddd"],
        }

    def test_empty_input(self):
        assert run_mapreduce(SumJob(), {}) == {}

    def test_empty_groups(self):
        assert run_mapreduce(SumJob(), {"a": []}) == {}

    def test_identity_default_phases(self):
        grouped = {"a": [1, 2], "b": [3]}
        assert run_mapreduce(MapReduce(), grouped) == {
            "a": [1, 2],
            "b": [3],
        }


class TestCollectors:
    def test_map_collector_accumulates(self):
        collector = MapCollector()
        collector.emit_map("k", 1)
        collector.emit_map("k", 2)
        assert collector.pairs == [("k", 1), ("k", 2)]

    def test_reduce_collector_accumulates(self):
        collector = ReduceCollector()
        collector.emit_reduce("k", 3)
        assert collector.pairs == [("k", 3)]


class CombiningCounter(FreeSpaceCounter):
    def combine(self, lot, values, collector):
        collector.emit_combine(lot, len(values))

    def reduce(self, lot, counts, collector):
        collector.emit_reduce(lot, sum(counts))


@pytest.mark.parametrize(
    "job", [FreeSpaceCounter(), CombiningCounter(), SumJob(), WordLength()],
    ids=["figure-10", "combining", "sum", "rekeying"],
)
def test_result_key_order_is_first_emission_order(job):
    """What is delivered must not depend on how keys hash: the merged
    dict follows the order the map phase first emitted each key in,
    which a sharded run reproduces by re-sequencing its partials."""
    grouped = {
        f"L{lot:03d}": [
            str(spot) if isinstance(job, WordLength) else spot % 3 == 0
            for spot in range(lot % 5 + 1)
        ]
        for lot in range(40)
    }
    collector = MapCollector()
    for lot, readings in grouped.items():
        for reading in readings:
            job.map(lot, reading, collector)
    first_emitted = dict.fromkeys(key for key, __ in collector.pairs)
    assert list(run_mapreduce(job, grouped)) == list(first_emitted)


@given(
    st.dictionaries(
        st.sampled_from(["A", "B", "C", "D"]),
        st.lists(st.booleans(), max_size=20),
        max_size=4,
    )
)
@settings(max_examples=40, deadline=None)
def test_free_space_counts_match_direct_computation(grouped):
    result = run_mapreduce(FreeSpaceCounter(), grouped)
    for lot, readings in grouped.items():
        free = sum(1 for r in readings if not r)
        if free:
            assert result[lot] == free
        else:
            assert lot not in result
