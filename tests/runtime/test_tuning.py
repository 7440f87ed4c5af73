"""Knobs, the registry, the adaptive controller, and live config swaps."""

import pytest

from repro.errors import TuningError
from repro.faults.policy import SupervisionPolicy
from repro.runtime.app import Application
from repro.runtime.cache import CacheConfig
from repro.runtime.clock import SimulationClock
from repro.runtime.config import RuntimeConfig
from repro.runtime.plan import BatchConfig
from repro.runtime.shard import ShardConfig
from repro.runtime.sweep import SweepConfig
from repro.runtime.tuning import (
    DOWN,
    UP,
    Knob,
    KnobRegistry,
    TuningConfig,
    TuningController,
)


def make_app(**config_kwargs):
    config_kwargs.setdefault("clock", SimulationClock())
    return Application(
        __import__("repro.sema.analyzer", fromlist=["analyze"]).analyze(
            DESIGN
        ),
        RuntimeConfig(**config_kwargs),
    )


DESIGN = """\
device Sensor {
    source reading as Float;
}

context Echo as Float {
    when provided reading from Sensor
    always publish;
}
"""


def workers_knob(minimum=1, maximum=4):
    return Knob(
        name="sweep.workers",
        section="sweep",
        attribute="workers",
        minimum=minimum,
        maximum=maximum,
        step=1,
        scale="linear",
    )


class ScriptedObjective:
    """Cumulative-cost callable fed one per-interval level at a time."""

    def __init__(self):
        self.total = 0.0

    def __call__(self):
        return self.total

    def feed(self, controller, level):
        self.total += level
        controller.tick()


def make_controller(app, knob=None, **overrides):
    registry = KnobRegistry([knob or workers_knob()])
    overrides.setdefault("warmup_intervals", 1)
    config = TuningConfig(
        enabled=True, objective="custom", epsilon=0.0, **overrides
    )
    controller = TuningController(app, config, registry=registry)
    objective = ScriptedObjective()
    controller.set_objective(objective)
    controller.tick()  # priming tick: establishes the cumulative anchor
    return controller, objective


class TestKnobArithmetic:
    def test_clamp_bounds_and_integer_domain(self):
        knob = workers_knob(minimum=1, maximum=8)
        assert knob.clamp(0) == 1
        assert knob.clamp(100) == 8
        assert knob.clamp(3.4) == 3

    def test_linear_steps(self):
        knob = workers_knob(minimum=1, maximum=4)
        assert knob.step_toward(2, UP) == 3
        assert knob.step_toward(2, DOWN) == 1
        assert knob.step_toward(4, UP) == 4  # clamped no-op
        assert knob.step_toward(1, DOWN) == 1

    def test_geometric_steps(self):
        knob = Knob(
            name="batch.min_column",
            section="batch",
            attribute="min_column",
            minimum=2,
            maximum=128,
            step=8,
            scale="geometric",
        )
        assert knob.step_toward(2, UP) == 16
        assert knob.step_toward(16, UP) == 128
        assert knob.step_toward(128, UP) == 128
        assert knob.step_toward(16, DOWN) == 2

    def test_bad_direction_rejected(self):
        with pytest.raises(ValueError, match="direction"):
            workers_knob().step_toward(2, "sideways")

    def test_knob_validation(self):
        with pytest.raises(ValueError, match="geometric step"):
            Knob(
                name="x", section="sweep", attribute="workers",
                minimum=1, maximum=4, step=1, scale="geometric",
            )
        with pytest.raises(ValueError, match="exceeds"):
            Knob(
                name="x", section="sweep", attribute="workers",
                minimum=9, maximum=4,
            )

    def test_apply_derives_a_revalidated_copy(self):
        config = RuntimeConfig()
        knob = workers_knob(minimum=1, maximum=64)
        bumped = knob.apply(config, 99)  # clamped into range
        assert bumped.sweep.workers == 64
        assert config.sweep.workers == SweepConfig().workers

    def test_apply_on_missing_section_is_a_tuning_error(self):
        knob = Knob(
            name="supervision.failure_threshold",
            section="supervision",
            attribute="failure_threshold",
            minimum=1,
            maximum=10,
        )
        with pytest.raises(TuningError, match="not enabled"):
            knob.apply(RuntimeConfig(), 2)


class TestKnobRegistry:
    def test_duplicate_registration_rejected(self):
        registry = KnobRegistry([workers_knob()])
        with pytest.raises(TuningError, match="already registered"):
            registry.register(workers_knob())

    def test_unknown_name_lists_known_knobs(self):
        registry = KnobRegistry([workers_knob()])
        with pytest.raises(TuningError, match="sweep.workers"):
            registry.get("cache.ttl_seconds")

    def test_with_value_leaves_original_untouched(self):
        registry = KnobRegistry([workers_knob(maximum=64)])
        config = RuntimeConfig()
        bumped = registry.with_value(config, "sweep.workers", 4)
        assert bumped.sweep.workers == 4
        assert config.sweep.workers == SweepConfig().workers

    def test_catalog_follows_enabled_subsystems(self):
        base = KnobRegistry.for_config(RuntimeConfig())
        assert base.names() == ("sweep.workers", "sweep.batch_size")

        full = KnobRegistry.for_config(
            RuntimeConfig(
                batch=BatchConfig(enabled=True),
                cache=CacheConfig(enabled=True),
                supervision=SupervisionPolicy(),
            )
        )
        assert "batch.min_column" in full
        assert "cache.ttl_seconds" in full
        assert "supervision.failure_threshold" in full
        assert "supervision.backoff_base_seconds" in full
        assert len(full) == 6

    def test_describe_carries_ranges_and_values(self):
        registry = KnobRegistry.for_config(RuntimeConfig())
        rows = registry.describe(RuntimeConfig())
        by_name = {row["name"]: row for row in rows}
        assert by_name["sweep.workers"]["value"] == SweepConfig().workers
        assert by_name["sweep.workers"]["minimum"] == 1


class TestControllerLifecycle:
    def test_unknown_knob_fails_at_wiring_time(self):
        app = make_app()
        with pytest.raises(TuningError, match="unknown knob"):
            TuningController(
                app,
                TuningConfig(enabled=True, knobs=("no.such.knob",)),
            )

    def test_custom_objective_required_before_start(self):
        app = make_app()
        controller = TuningController(
            app,
            TuningConfig(enabled=True, objective="custom"),
            registry=KnobRegistry([workers_knob()]),
        )
        with pytest.raises(TuningError, match="set_objective"):
            controller.start()

    def test_enabled_config_wires_and_ticks(self):
        from repro.runtime.component import Context

        class Echo(Context):
            def on_reading_from_sensor(self, event, discover):
                return event.value

        app = make_app(
            tuning=TuningConfig(
                enabled=True,
                interval_seconds=10.0,
                objective="gather_errors",
            )
        )
        assert app.tuner is not None
        app.implement("Echo", Echo())
        app.start()
        app.advance(30.0)
        assert app.metrics.value("tuning_ticks_total") == 3
        app.stop()

    def test_disabled_config_creates_no_controller(self):
        app = make_app()
        assert app.tuner is None
        assert app.knobs.names() == ("sweep.workers", "sweep.batch_size")


class TestControllerPolicy:
    def test_warmup_then_settled(self):
        controller, objective = make_controller(make_app())
        objective.feed(controller, 10.0)
        assert controller.phase == "warmup"
        objective.feed(controller, 10.0)
        assert controller.phase == "settled"
        assert controller.stats()["adjustments"] == {}

    def test_settled_absorbs_in_band_drift(self):
        controller, objective = make_controller(make_app())
        for level in (10.0, 10.0, 11.0, 10.0, 12.0):
            objective.feed(controller, level)
        assert controller.phase == "settled"
        assert controller.stats()["drifts"] == 0
        assert controller.stats()["adjustments"] == {}

    def test_drift_opens_search_and_proposes(self):
        app = make_app(sweep=SweepConfig(workers=2))
        controller, objective = make_controller(app)
        for level in (10.0, 10.0):
            objective.feed(controller, level)
        objective.feed(controller, 100.0)  # >25% drift
        assert controller.phase == "searching"
        assert controller.stats()["drifts"] == 1
        # Greedy over untried moves picks the first candidate: DOWN.
        assert app.config.sweep.workers == 1

    def test_regression_rolls_back_and_cools_down(self):
        app = make_app(sweep=SweepConfig(workers=2))
        controller, objective = make_controller(app)
        for level in (10.0, 10.0, 100.0):
            objective.feed(controller, level)
        assert app.config.sweep.workers == 1
        objective.feed(controller, 200.0)  # regression beyond 5%
        assert app.config.sweep.workers == 2  # rolled back
        assert controller.stats()["rollbacks"] == 1
        # The knob cools down; with only one knob nothing is proposable
        # on the next tick, so the search closes.
        objective.feed(controller, 100.0)
        assert controller.phase == "settled"
        assert app.config.sweep.workers == 2

    def test_improvement_keeps_momentum_to_the_bound(self):
        app = make_app(sweep=SweepConfig(workers=3))
        controller, objective = make_controller(app)
        for level in (10.0, 10.0):
            objective.feed(controller, level)
        objective.feed(controller, 100.0)  # drift -> try workers 3->2
        assert app.config.sweep.workers == 2
        objective.feed(controller, 80.0)  # improvement -> momentum 2->1
        assert app.config.sweep.workers == 1
        objective.feed(controller, 60.0)  # at the bound: search closes
        assert controller.phase == "settled"
        assert app.config.sweep.workers == 1
        assert controller.stats()["adjustments"] == {
            "sweep.workers:down": 2
        }

    def test_zero_epsilon_is_deterministic(self):
        def run():
            app = make_app(sweep=SweepConfig(workers=3))
            controller, objective = make_controller(app)
            for level in (10.0, 10.0, 100.0, 80.0, 120.0, 90.0, 90.0):
                objective.feed(controller, level)
            return (
                app.config.sweep.workers,
                controller.stats()["adjustments"],
                [
                    (row["knob"], row["event"], row["value"])
                    for row in controller.trajectory
                ],
            )

        assert run() == run()

    def test_metrics_track_the_loop(self):
        app = make_app(sweep=SweepConfig(workers=2))
        registry = KnobRegistry([workers_knob()])
        config = TuningConfig(
            enabled=True, objective="custom", warmup_intervals=1
        )
        controller = TuningController(app, config, registry=registry)
        controller.attach_metrics(app.metrics)
        objective = ScriptedObjective()
        controller.set_objective(objective)
        controller.tick()
        for level in (10.0, 10.0, 100.0, 200.0):
            objective.feed(controller, level)
        metrics = app.metrics
        assert metrics.value("tuning_ticks_total") == 5
        assert metrics.value("tuning_rollbacks_total") == 1
        assert metrics.value("tuning_drifts_total") == 1
        assert (
            metrics.value(
                "tuning_adjustments_total",
                knob="sweep.workers",
                direction="down",
            )
            == 1
        )
        assert (
            metrics.value("tuning_knob_value", knob="sweep.workers") == 2.0
        )


class TestApplyConfig:
    def test_live_sections_swap_atomically(self):
        app = make_app()
        swapped = app.config.replace(
            sweep=app.config.sweep.replace(workers=32),
            error_policy="isolate",
        )
        app.apply_config(swapped)
        assert app.config.sweep.workers == 32
        assert app.error_policy == "isolate"
        assert app.sweeper.config.workers == 32

    def test_structural_fields_cannot_change(self):
        app = make_app()
        with pytest.raises(TuningError, match="structural"):
            app.apply_config(app.config.replace(name="other"))
        with pytest.raises(TuningError, match="structural"):
            app.apply_config(
                app.config.replace(shard=ShardConfig(enabled=True))
            )

    def test_tuning_section_is_structural(self):
        # The controller is built at construction; a live swap used to
        # be accepted and silently ignored (config said enabled, tuner
        # stayed None).
        app = make_app()
        with pytest.raises(TuningError, match="'tuning' is structural"):
            app.apply_config(
                app.config.replace(tuning=TuningConfig(enabled=True))
            )
        assert app.config.tuning.enabled is False
        assert app.tuner is None

    def test_cache_cannot_toggle_live(self):
        app = make_app()
        with pytest.raises(TuningError, match="cache"):
            app.apply_config(
                app.config.replace(cache=CacheConfig(enabled=True))
            )

    def test_batch_only_tunes_min_column_live(self):
        app = make_app(batch=BatchConfig(enabled=True, min_column=4))
        app.apply_config(
            app.config.replace(
                batch=app.config.batch.replace(min_column=64)
            )
        )
        assert app.config.batch.min_column == 64
        with pytest.raises(TuningError, match="min_column"):
            app.apply_config(
                app.config.replace(batch=BatchConfig(enabled=False))
            )

    def test_supervision_cannot_toggle_but_retunes(self):
        app = make_app(
            supervision=SupervisionPolicy(failure_threshold=5)
        )
        app.apply_config(
            app.config.replace(
                supervision=SupervisionPolicy(failure_threshold=1)
            )
        )
        assert app.supervision.default_policy.failure_threshold == 1
        with pytest.raises(TuningError, match="supervision"):
            app.apply_config(app.config.replace(supervision=None))

    def test_supervisors_pick_up_the_new_policy(self):
        app = make_app(
            supervision=SupervisionPolicy(failure_threshold=5)
        )
        from repro.runtime.device import CallableDriver

        app.create_device(
            "Sensor", "s-1", CallableDriver(sources={"reading": lambda: 1.0})
        )
        supervisor = app.supervision.supervisor("s-1")
        assert supervisor.policy.failure_threshold == 5
        app.apply_config(
            app.config.replace(
                supervision=SupervisionPolicy(failure_threshold=1)
            )
        )
        assert supervisor.policy.failure_threshold == 1
        assert supervisor.breaker.policy.failure_threshold == 1
