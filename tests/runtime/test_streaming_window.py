"""Incremental (streaming) window accumulation vs buffered windows.

The fast path keeps one partial aggregate per group and must publish the
same values as buffering the whole window, for associative jobs — the
equivalence the paper's 24-hour parking window relies on.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mapreduce.api import MapReduce
from repro.runtime.app import Application
from repro.runtime.component import Context
from repro.runtime.device import CallableDriver
from repro.runtime.grouping import WindowAccumulator, fold_for_job
from repro.sema.analyzer import analyze


class SumJob(MapReduce):
    def map(self, key, value, collector):
        collector.emit_map(key, value)

    def reduce(self, key, values, collector):
        collector.emit_reduce(key, sum(values))


class CombineSumJob(SumJob):
    def combine(self, key, values, collector):
        collector.emit_combine(key, sum(values))


class MaxJob(MapReduce):
    def reduce(self, key, values, collector):
        collector.emit_reduce(key, max(values))


class TestFoldForJob:
    def test_fold_uses_reduce_when_no_combiner(self):
        fold = fold_for_job(SumJob())
        assert fold("k", 3, 4) == 7

    def test_fold_prefers_combine(self):
        class Tagged(SumJob):
            def combine(self, key, values, collector):
                collector.emit_combine(key, ("combined", sum(values)))

        fold = fold_for_job(Tagged())
        assert fold("k", 1, 2) == ("combined", 3)

    def test_fold_rejects_multi_emission(self):
        class Chatty(MapReduce):
            def reduce(self, key, values, collector):
                for value in values:
                    collector.emit_reduce(key, value)

        fold = fold_for_job(Chatty())
        with pytest.raises(ValueError, match="exactly one"):
            fold("k", 1, 2)


class TestIncrementalAccumulator:
    def test_incremental_folds_per_delivery(self):
        acc = WindowAccumulator(3, fold=fold_for_job(SumJob()))
        assert acc.add({"A": 1}) is None
        assert acc.add({"A": 2, "B": 10}) is None
        assert acc.add({"A": 4}) == {"A": 7, "B": 10}

    def test_incremental_state_is_one_partial_per_group(self):
        acc = WindowAccumulator.incremental_for_job(
            600.0, 86400.0, CombineSumJob()
        )
        assert acc.deliveries_per_window == 144
        for __ in range(100):
            acc.add({"A": 1, "B": 2})
        assert acc.peak_buffered_values == 2  # two groups, ever
        assert acc.stats()["mode"] == "incremental"

    def test_buffered_state_grows_with_deliveries(self):
        acc = WindowAccumulator(144)
        for __ in range(100):
            acc.add({"A": [1], "B": [2]})
        assert acc.peak_buffered_values == 200
        assert acc.stats()["mode"] == "buffered"

    def test_incremental_resets_between_windows(self):
        acc = WindowAccumulator(2, fold=fold_for_job(SumJob()))
        acc.add({"A": 1})
        assert acc.add({"A": 2}) == {"A": 3}
        acc.add({"A": 5})
        assert acc.add({"A": 6}) == {"A": 11}


# Deliveries: per-sweep reduced values, one int per group per delivery.
delivery_lists = st.lists(
    st.dictionaries(
        st.sampled_from("ABC"),
        st.integers(min_value=-100, max_value=100),
        max_size=3,
    ),
    min_size=1,
    max_size=12,
)


@given(delivery_lists, st.integers(min_value=1, max_value=4))
@settings(max_examples=60, deadline=None)
def test_incremental_equals_buffered_for_associative_jobs(
    deliveries, per_window
):
    """Folding as values arrive == reducing the buffered window at once."""
    for job in (SumJob(), CombineSumJob(), MaxJob()):
        buffered = WindowAccumulator(per_window)
        incremental = WindowAccumulator(per_window, fold=fold_for_job(job))
        for delivery in deliveries:
            # Buffered windows concatenate value lists: one per group.
            as_lists = {key: [value] for key, value in delivery.items()}
            buffered_window = buffered.add(as_lists)
            incremental_window = incremental.add(delivery)
            assert (buffered_window is None) == (incremental_window is None)
            if buffered_window is None:
                continue
            reduced_buffered = {
                key: fold_reduce(job, key, values)
                for key, values in buffered_window.items()
            }
            assert incremental_window == reduced_buffered


def fold_reduce(job, key, values):
    from repro.mapreduce.api import ReduceCollector

    collector = ReduceCollector()
    job.reduce(key, values, collector)
    return collector.pairs[0][1]


# ---------------------------------------------------------------------------
# Application-level: the streaming path is the default for `every` +
# MapReduce contexts and publishes identical values to buffered mode.
# ---------------------------------------------------------------------------

WINDOWED_DESIGN = """\
device PresenceSensor {
    attribute parkingLot as LotEnum;
    source presence as Boolean;
}
enumeration LotEnum { A22, B16 }

context DailyFree as Integer {
    when periodic presence from PresenceSensor <10 min>
    grouped by parkingLot every <30 min>
    with map as Integer reduce as Integer
    always publish;
}
"""


class DailyFreeImpl(Context, MapReduce):
    """Counts free spaces; the window payload is one folded value per
    lot."""

    def __init__(self):
        super().__init__()
        self.windows = []

    def map(self, lot, presence, collector):
        if not presence:
            collector.emit_map(lot, 1)

    def combine(self, lot, counts, collector):
        collector.emit_combine(lot, sum(counts))

    def reduce(self, lot, counts, collector):
        collector.emit_reduce(lot, sum(counts))

    def on_periodic_presence(self, free_by_lot, discover):
        self.windows.append(dict(free_by_lot))
        return sum(free_by_lot.values())


def build_windowed():
    app = Application(analyze(WINDOWED_DESIGN))
    impl = app.implement("DailyFree", DailyFreeImpl())
    published = []
    app.bus.subscribe(
        ("context", "DailyFree"), lambda event: published.append(event.value)
    )
    for lot, count in [("A22", 3), ("B16", 2)]:
        for index in range(count):
            occupied = index == 0
            app.create_device(
                "PresenceSensor",
                f"{lot}-{index}",
                CallableDriver(
                    sources={"presence": (lambda o=occupied: o)}
                ),
                parkingLot=lot,
            )
    app.start()
    return app, impl, published


class TestStreamingWindowApplication:
    def test_streaming_is_default_and_matches_buffered(self):
        """MapReduce windows always fold incrementally; the delivered
        values are what buffering the window would have summed to."""
        app, impl, published = build_windowed()
        # Two 30-minute windows of 3 sweeps each.
        app.advance(3600)
        # 2 free in A22 + 1 free in B16, times 3 sweeps per window.
        assert impl.windows == [{"A22": 6, "B16": 3}] * 2
        assert published == [9, 9]

    def test_streaming_window_state_is_constant_in_sweeps(self):
        app, __, ___ = build_windowed()
        app.advance(3600)
        window = app.stats["windows"]["DailyFree"]
        assert window["mode"] == "incremental"
        # One partial per lot, not lots x sweeps.
        assert window["peak_buffered_values"] == 2

    def test_non_mapreduce_window_stays_buffered(self):
        design = """\
device S { attribute zone as Z; source x as Float; }
enumeration Z { A }
context W as Float {
    when periodic x from S <10 min>
    grouped by zone every <20 min>
    always publish;
}
"""

        class WImpl(Context):
            def on_periodic_x(self, by_zone, discover):
                values = [v for vs in by_zone.values() for v in vs]
                return sum(values) / len(values)

        app = Application(analyze(design))
        app.implement("W", WImpl())
        app.create_device(
            "S", "s1", CallableDriver(sources={"x": lambda: 2.0}), zone="A"
        )
        app.start()
        app.advance(1200)
        assert app.stats["windows"]["W"]["mode"] == "buffered"
