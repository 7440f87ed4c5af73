"""The map-side combine hook: equivalence, shuffle savings, stats."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mapreduce.api import (
    CombineCollector,
    MapReduce,
    job_combiner,
)
from repro.mapreduce.engine import (
    MapReduceEngine,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    run_mapreduce,
)


class PlainSum(MapReduce):
    """Associative job without a combiner (the shuffle-heavy baseline)."""

    def map(self, key, value, collector):
        collector.emit_map(key, value)

    def reduce(self, key, values, collector):
        collector.emit_reduce(key, sum(values))


class CombiningSum(PlainSum):
    """Same job with map-side partial sums."""

    def combine(self, key, values, collector):
        collector.emit_combine(key, sum(values))


class CombiningFreeSpaceCounter(MapReduce):
    """Figure 10's job in combinable form: 1 per free space, sum twice."""

    def map(self, lot, presence, collector):
        if not presence:
            collector.emit_map(lot, 1)

    def combine(self, lot, counts, collector):
        collector.emit_combine(lot, sum(counts))

    def reduce(self, lot, counts, collector):
        collector.emit_reduce(lot, sum(counts))


GROUPED = {
    "A22": [1, 2, 3, 4],
    "B16": [10, 20],
    "D6": [7],
}

EXECUTORS = [
    lambda: SerialExecutor(),
    lambda: ThreadExecutor(2),
    lambda: ThreadExecutor(7),
    lambda: ProcessExecutor(2),
]


class TestCombinerDetection:
    def test_base_class_has_no_combiner(self):
        assert job_combiner(MapReduce()) is None
        assert job_combiner(PlainSum()) is None

    def test_subclass_combiner_is_detected(self):
        assert job_combiner(CombiningSum()) is not None

    def test_duck_typed_combiner_is_detected(self):
        class Duck:
            def map(self, key, value, collector):
                collector.emit_map(key, value)

            def reduce(self, key, values, collector):
                collector.emit_reduce(key, sum(values))

            def combine(self, key, values, collector):
                collector.emit_combine(key, sum(values))

        assert job_combiner(Duck()) is not None


class TestExecutorEquivalenceWithCombine:
    @pytest.mark.parametrize("make_executor", EXECUTORS)
    def test_combined_matches_plain(self, make_executor):
        plain = run_mapreduce(PlainSum(), GROUPED, make_executor())
        combined = run_mapreduce(CombiningSum(), GROUPED, make_executor())
        assert plain == combined == {"A22": 10, "B16": 30, "D6": 7}

    @pytest.mark.parametrize("make_executor", EXECUTORS)
    def test_free_space_counter(self, make_executor):
        grouped = {
            "A22": [True, False, False],
            "B16": [True, True],
            "D6": [False],
        }
        result = run_mapreduce(
            CombiningFreeSpaceCounter(), grouped, make_executor()
        )
        assert result == {"A22": 2, "D6": 1}

    def test_empty_input_with_combiner(self):
        for make_executor in EXECUTORS:
            assert run_mapreduce(CombiningSum(), {}, make_executor()) == {}


class TestShuffleStats:
    def test_serial_stats_without_combiner(self):
        engine = MapReduceEngine(SerialExecutor())
        engine.run(PlainSum(), GROUPED)
        stats = engine.last_stats
        assert stats == {
            "mapped": 7,
            "shuffled": 7,
            "reduced": 3,
            "combine_used": False,
        }

    def test_serial_combiner_shuffles_one_pair_per_group(self):
        engine = MapReduceEngine(SerialExecutor())
        engine.run(CombiningSum(), GROUPED)
        stats = engine.last_stats
        assert stats["mapped"] == 7
        assert stats["shuffled"] == 3  # one partial per group
        assert stats["combine_used"] is True

    def test_pooled_combiner_shuffles_at_most_chunks_x_groups(self):
        engine = MapReduceEngine(ThreadExecutor(2))
        engine.run(CombiningSum(), GROUPED)
        stats = engine.last_stats
        assert stats["mapped"] == 7
        assert stats["shuffled"] <= 2 * 3
        assert stats["shuffled"] < stats["mapped"]

    def test_empty_run_resets_stats(self):
        engine = MapReduceEngine(ThreadExecutor(2))
        engine.run(CombiningSum(), GROUPED)
        engine.run(CombiningSum(), {})
        assert engine.last_stats["shuffled"] == 0

    def test_engine_stats_are_a_snapshot(self):
        engine = MapReduceEngine(SerialExecutor())
        engine.run(PlainSum(), GROUPED)
        snapshot = engine.last_stats
        snapshot["shuffled"] = -1
        assert engine.last_stats["shuffled"] == 7


class TestCombineCollector:
    def test_emit_combine_accumulates(self):
        collector = CombineCollector()
        collector.emit_combine("k", 5)
        collector.emit_combine("k", 6)
        assert collector.pairs == [("k", 5), ("k", 6)]


@given(
    st.dictionaries(
        st.text(min_size=1, max_size=3),
        st.lists(st.integers(min_value=-1000, max_value=1000), max_size=12),
        max_size=8,
    ),
    st.integers(min_value=1, max_value=8),
)
@settings(max_examples=40, deadline=None)
def test_combiner_never_changes_results(grouped, workers):
    """Combine on/off and serial/threaded all agree, for any input."""
    baseline = run_mapreduce(PlainSum(), grouped)
    for job in (PlainSum(), CombiningSum()):
        for executor in (SerialExecutor(), ThreadExecutor(workers)):
            assert run_mapreduce(job, grouped, executor) == baseline
