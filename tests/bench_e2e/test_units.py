"""Unit tests of the benchmark's own arithmetic: the percentile rule,
span self-times, and the bound comparison."""

import itertools

import pytest

from benchmarks.e2e import stats, trace
from benchmarks.e2e.compare import exit_code
from benchmarks.e2e.trace import ROOT_LAYER, Tracer


class TestPercentileRule:
    def test_nearest_rank(self):
        ordered = list(range(1, 101))
        assert stats.percentile(ordered, 50) == 50
        assert stats.percentile(ordered, 90) == 90
        assert stats.percentile(ordered, 100) == 100
        assert stats.percentile([7], 99) == 7

    def test_empty_sample_is_an_error(self):
        with pytest.raises(ValueError):
            stats.percentile([], 50)

    @pytest.mark.parametrize(
        "samples, pct, ok",
        [
            (19, 50, False),
            (20, 50, True),
            (99, 90, False),
            (100, 90, True),
            (999, 99, False),
            (1000, 99, True),
        ],
    )
    def test_needs_ten_samples_beyond(self, samples, pct, ok):
        assert stats.supported(samples, pct) is ok
        ordered = list(range(samples))
        value = stats.supported_percentile(ordered, pct)
        assert (value is not None) is ok


class TestSelfTime:
    def test_self_times_sum_to_the_root_span(self, monkeypatch):
        ticks = itertools.count(10, 10)
        monkeypatch.setattr(
            trace.time, "perf_counter_ns", lambda: next(ticks)
        )
        tracer = Tracer()
        tracer.enabled = True
        totals = tracer.phase("ops")
        leaf = tracer._wrap(lambda: None, "leaf")

        def middle():
            leaf()
            leaf()

        middle = tracer._wrap(middle, "middle")

        def op():
            middle()
            leaf()

        # clock reads: root 10, middle 20, leaf 30-40, leaf 50-60,
        # middle 70, leaf 80-90, root 100
        assert tracer.run_root(op) == 90
        assert totals.layers["leaf"] == [3, 30, 30]
        assert totals.layers["middle"] == [1, 30, 50]
        assert totals.layers[ROOT_LAYER] == [1, 30, 90]
        assert totals.ops == 1 and totals.unreconciled == 0
        assert sum(layer[1] for layer in totals.layers.values()) == 90
        # every stored span names its parent and its operation
        by_id = {span[0]: span for span in tracer.spans}
        parents = {
            span[3]: by_id[span[1]][3] if span[1] >= 0 else None
            for span in tracer.spans
        }
        assert parents[ROOT_LAYER] is None
        assert parents["middle"] == ROOT_LAYER
        assert {span[2] for span in tracer.spans} == {0}

    def test_wrappers_pass_through_outside_an_operation(self):
        tracer = Tracer()
        tracer.enabled = True
        tracer.phase("ops")
        traced = tracer._wrap(lambda value: value + 1, "layer")
        assert traced(1) == 2
        assert tracer.spans == []

    def test_hot_layers_fold_beyond_the_per_operation_cap(self):
        tracer = Tracer(per_op_cap=5)
        tracer.enabled = True
        totals = tracer.phase("ops")
        hot = tracer._wrap(lambda: None, "hot")
        tracer.run_root(lambda: [hot() for _ in range(12)])
        stored = [span for span in tracer.spans if span[3] == "hot"]
        assert len(stored) == 5
        assert tracer.folded[(0, "hot")][0] == 7
        assert totals.calls("hot") == 12 and totals.unreconciled == 0

    def test_a_missing_target_degrades(self):
        tracer = Tracer()
        assert not tracer._patch("repro.api:NoSuchClass.method", lambda f: f)
        assert not tracer._patch("no.such.module:function", lambda f: f)
        assert len(tracer.missing) == 2


class TestBoundComparison:
    def test_within_bound_is_ok(self):
        row = stats.verdict("lower", 0.10, [100.0], [108.0])
        assert row["status"] == "ok"
        assert row["worse_by"] == pytest.approx(0.08)

    def test_beyond_bound_regressed(self):
        assert stats.verdict("lower", 0.10, [100.0], [111.0])["status"] == (
            "regressed"
        )
        assert stats.verdict("higher", 0.10, [100.0], [89.0])["status"] == (
            "regressed"
        )

    def test_improvement_is_ok_in_both_directions(self):
        assert stats.verdict("lower", 0.10, [100.0], [50.0])["status"] == "ok"
        assert stats.verdict("higher", 0.10, [100.0], [150.0])["status"] == (
            "ok"
        )

    def test_spread_wider_than_bound_is_unresolved(self):
        noisy = [80.0, 95.0, 100.0, 105.0, 130.0]
        row = stats.verdict("lower", 0.10, noisy, [101.0] * 5)
        assert row["status"] == "unresolved"
        assert row["spread"] > 0.10

    def test_unresolved_yields_when_every_run_is_better(self):
        noisy = [80.0, 95.0, 100.0, 105.0, 130.0]
        row = stats.verdict("lower", 0.10, noisy, [60.0, 61.0, 62.0, 63.0])
        assert row["status"] == "ok"

    def test_spread_needs_four_runs(self):
        assert stats.spread([1.0, 2.0, 3.0]) is None
        assert stats.spread([10.0, 10.0, 10.0, 10.0]) == 0

    def test_exit_code_reflects_the_verdict(self):
        assert exit_code([{"status": "ok"}]) == 0
        assert exit_code([{"status": "ok"}, {"status": "unresolved"}]) == 2
        assert exit_code(
            [{"status": "unresolved"}, {"status": "regressed"}]
        ) == 1
        assert exit_code([{"status": "differs"}]) == 1
