"""Knobs, the registry, the adaptive controller, and live config swaps."""

import pytest

from repro.errors import TuningError
from repro.faults.policy import StalePolicy, SupervisionPolicy
from repro.runtime.app import Application
from repro.runtime.cache import CacheConfig
from repro.runtime.clock import SimulationClock
from repro.runtime.component import Context
from repro.runtime.config import RuntimeConfig
from repro.runtime.device import CallableDriver
from repro.runtime.plan import BatchConfig
from repro.runtime.shard import ShardConfig
from repro.sema.analyzer import analyze
from repro.tuning import DOWN, UP, Knob, KnobRegistry, TuningController


def make_app(**config_kwargs):
    config_kwargs.setdefault("clock", SimulationClock())
    return Application(analyze(DESIGN), RuntimeConfig(**config_kwargs))


DESIGN = """\
device Sensor {
    source reading as Float;
}

context Echo as Float {
    when provided reading from Sensor
    always publish;
}
"""

PERIODIC_DESIGN = """\
device Sensor {
    source reading as Float;
}

context Sweep as Float {
    when periodic reading from Sensor <1 min>
    always publish;
}
"""


def min_column_knob(minimum=1, maximum=4):
    return Knob(
        name="batch.min_column",
        section="batch",
        attribute="min_column",
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


def make_controller(app, knob=None):
    registry = KnobRegistry([knob or min_column_knob()])
    objective = ScriptedObjective()
    controller = TuningController(
        app,
        knobs=registry.names(),
        objective=objective,
        interval_seconds=60.0,
        registry=registry,
    )
    controller.tick()  # priming tick: establishes the cumulative anchor
    return controller, objective


class Echo(Context):
    def on_reading_from_sensor(self, event, discover):
        return event.value


class Sweep(Context):
    def on_periodic_reading(self, readings, discover):
        return float(len(readings))


class TestKnobArithmetic:
    def test_clamp_bounds_and_integer_domain(self):
        knob = min_column_knob(minimum=1, maximum=8)
        assert knob.clamp(0) == 1
        assert knob.clamp(100) == 8
        assert knob.clamp(3.4) == 3

    def test_linear_steps(self):
        knob = min_column_knob(minimum=1, maximum=4)
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
            min_column_knob().step_toward(2, "sideways")

    def test_knob_validation(self):
        with pytest.raises(ValueError, match="geometric step"):
            Knob(
                name="x", section="batch", attribute="min_column",
                minimum=1, maximum=4, step=1, scale="geometric",
            )
        with pytest.raises(ValueError, match="exceeds"):
            Knob(
                name="x", section="batch", attribute="min_column",
                minimum=9, maximum=4,
            )

    def test_apply_derives_a_revalidated_copy(self):
        config = RuntimeConfig()
        knob = min_column_knob(minimum=1, maximum=64)
        bumped = knob.apply(config, 99)  # clamped into range
        assert bumped.batch.min_column == 64
        assert config.batch.min_column == BatchConfig().min_column

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
        registry = KnobRegistry([min_column_knob()])
        with pytest.raises(TuningError, match="already registered"):
            registry.register(min_column_knob())

    def test_unknown_name_lists_known_knobs(self):
        registry = KnobRegistry([min_column_knob()])
        with pytest.raises(TuningError, match="batch.min_column"):
            registry.get("cache.ttl_seconds")

    def test_with_value_leaves_original_untouched(self):
        registry = KnobRegistry([min_column_knob(maximum=64)])
        config = RuntimeConfig()
        bumped = registry.with_value(config, "batch.min_column", 4)
        assert bumped.batch.min_column == 4
        assert config.batch.min_column == BatchConfig().min_column

    def test_catalog_follows_enabled_subsystems(self):
        always = ("batch.min_column",)
        base = KnobRegistry.for_config(RuntimeConfig())
        assert base.names() == always

        # A read cache adds no knob: its section is structural.
        cached = KnobRegistry.for_config(
            RuntimeConfig(cache=CacheConfig(enabled=True))
        )
        assert cached.names() == always

        full = KnobRegistry.for_config(
            RuntimeConfig(
                cache=CacheConfig(enabled=True),
                supervision=SupervisionPolicy(),
            )
        )
        assert full.names() == (
            "batch.min_column",
            "supervision.failure_threshold",
            "supervision.backoff_base_seconds",
        )

        # Regression: per-type overrides supervise devices without a
        # default ``supervision`` section, so there is no record for
        # the two supervision knobs to read or replace.
        overrides_only = RuntimeConfig(
            supervision_overrides={"Sensor": SupervisionPolicy()}
        )
        assert overrides_only.supervised()
        catalog = KnobRegistry.for_config(overrides_only)
        assert catalog.names() == always
        catalog.describe(overrides_only)  # every row reads its value

    def test_describe_carries_ranges_and_values(self):
        registry = KnobRegistry.for_config(RuntimeConfig())
        rows = registry.describe(RuntimeConfig())
        by_name = {row["name"]: row for row in rows}
        assert by_name["batch.min_column"]["value"] == (
            BatchConfig().min_column
        )
        assert by_name["batch.min_column"]["minimum"] == 2


class TestControllerLifecycle:
    def test_unknown_knob_fails_at_wiring_time(self):
        app = make_app()
        with pytest.raises(TuningError, match="unknown knob"):
            TuningController(
                app,
                knobs=("no.such.knob",),
                objective=ScriptedObjective(),
                interval_seconds=60.0,
            )

    def test_knob_on_absent_section_fails_at_wiring_time(self):
        # Regression: the supervision knobs of a registry built by hand
        # (or, before the catalog fix, by ``for_config``) used to raise
        # AttributeError from the first proposal or gauge scrape.
        app = make_app(
            supervision_overrides={"Sensor": SupervisionPolicy()}
        )
        registry = KnobRegistry(
            [
                Knob(
                    name="supervision.failure_threshold",
                    section="supervision",
                    attribute="failure_threshold",
                    minimum=1,
                    maximum=10,
                )
            ]
        )
        with pytest.raises(TuningError, match="not enabled"):
            TuningController(
                app,
                knobs=registry.names(),
                objective=ScriptedObjective(),
                interval_seconds=60.0,
                registry=registry,
            )
        # The standard catalog does not offer them on such a config.
        with pytest.raises(TuningError, match="unknown knob"):
            TuningController(
                app,
                knobs=("supervision.failure_threshold",),
                objective=ScriptedObjective(),
                interval_seconds=60.0,
            )

    def test_empty_knobs_is_a_tuning_error(self):
        with pytest.raises(TuningError, match="at least one knob"):
            TuningController(
                make_app(),
                knobs=(),
                objective=ScriptedObjective(),
                interval_seconds=60.0,
            )

    def test_start_before_app_start_is_a_tuning_error(self):
        app = make_app()
        app.implement("Echo", Echo())
        controller, __ = make_controller(app)
        with pytest.raises(TuningError, match="start the application"):
            controller.start()
        app.start()
        controller.start()
        controller.stop()
        app.stop()

    def test_started_controller_ticks_on_the_clock(self):
        app = make_app()
        app.implement("Echo", Echo())
        app.start()
        controller = TuningController(
            app,
            knobs=("batch.min_column",),
            objective=lambda: app.metrics.value("app_gather_errors_total"),
            interval_seconds=10.0,
        )
        controller.start()
        app.advance(30.0)
        assert app.metrics.value("tuning_ticks_total") == 3
        controller.stop()
        app.stop()

    def test_equal_periods_tick_after_each_sweep(self):
        # Scheduled after the gather job, the tick at each shared
        # timestamp runs after that timestamp's sweep.
        app = Application(
            analyze(PERIODIC_DESIGN), RuntimeConfig(clock=SimulationClock())
        )
        app.implement("Sweep", Sweep())
        app.create_device(
            "Sensor", "s-1", CallableDriver(sources={"reading": lambda: 1.0})
        )
        app.start()
        sweeps_seen = []

        def objective():
            sweeps_seen.append(app.metrics.value("sweep_total"))
            return 0.0

        controller = TuningController(
            app,
            knobs=("batch.min_column",),
            objective=objective,
            interval_seconds=60.0,
        )
        controller.start()
        app.advance(300.0)
        assert sweeps_seen == [1, 2, 3, 4, 5]
        assert app.metrics.value("tuning_ticks_total") == 5
        assert app.metrics.value("sweep_total") == 5
        controller.stop()
        app.stop()

    def test_stop_is_idempotent_and_cancels_the_clock_job(self):
        app = make_app()
        app.implement("Echo", Echo())
        app.start()
        controller, __ = make_controller(app)
        controller.start()
        controller.start()  # a second start schedules nothing more
        app.advance(60.0)
        ticks = controller.stats()["ticks"]
        assert ticks == 2  # the priming tick plus one scheduled tick
        controller.stop()
        controller.stop()
        app.advance(600.0)
        assert controller.stats()["ticks"] == ticks
        app.stop()


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
        app = make_app(batch=BatchConfig(min_column=2))
        controller, objective = make_controller(app)
        for level in (10.0, 10.0):
            objective.feed(controller, level)
        objective.feed(controller, 100.0)  # >25% drift
        assert controller.phase == "searching"
        assert controller.stats()["drifts"] == 1
        # Greedy over untried moves picks the first candidate: DOWN.
        assert app.config.batch.min_column == 1

    def test_regression_rolls_back_and_cools_down(self):
        app = make_app(batch=BatchConfig(min_column=2))
        controller, objective = make_controller(app)
        for level in (10.0, 10.0, 100.0):
            objective.feed(controller, level)
        assert app.config.batch.min_column == 1
        objective.feed(controller, 200.0)  # regression beyond 5%
        assert app.config.batch.min_column == 2  # rolled back
        assert controller.stats()["rollbacks"] == 1
        # The knob cools down; with only one knob nothing is proposable
        # on the next tick, so the search closes.
        objective.feed(controller, 100.0)
        assert controller.phase == "settled"
        assert app.config.batch.min_column == 2

    def test_improvement_keeps_momentum_to_the_bound(self):
        app = make_app(batch=BatchConfig(min_column=3))
        controller, objective = make_controller(app)
        for level in (10.0, 10.0):
            objective.feed(controller, level)
        objective.feed(controller, 100.0)  # drift -> try min_column 3->2
        assert app.config.batch.min_column == 2
        objective.feed(controller, 80.0)  # improvement -> momentum 2->1
        assert app.config.batch.min_column == 1
        objective.feed(controller, 60.0)  # at the bound: search closes
        assert controller.phase == "settled"
        assert app.config.batch.min_column == 1
        assert controller.stats()["adjustments"] == {
            "batch.min_column:down": 2
        }

    def test_policy_is_deterministic(self):
        def run():
            app = make_app(batch=BatchConfig(min_column=3))
            controller, objective = make_controller(app)
            for level in (10.0, 10.0, 100.0, 80.0, 120.0, 90.0, 90.0):
                objective.feed(controller, level)
            return (
                app.config.batch.min_column,
                controller.stats()["adjustments"],
                [
                    (row["knob"], row["event"], row["value"])
                    for row in controller.trajectory
                ],
            )

        assert run() == run()

    def test_metrics_track_the_loop(self):
        app = make_app(batch=BatchConfig(min_column=2))
        controller, objective = make_controller(app)
        for level in (10.0, 10.0, 100.0, 200.0):
            objective.feed(controller, level)
        metrics = app.metrics
        assert metrics.value("tuning_ticks_total") == 5
        assert metrics.value("tuning_rollbacks_total") == 1
        assert metrics.value("tuning_drifts_total") == 1
        assert (
            metrics.value(
                "tuning_adjustments_total",
                knob="batch.min_column",
                direction="down",
            )
            == 1
        )
        assert (
            metrics.value("tuning_knob_value", knob="batch.min_column")
            == 2.0
        )


class TestApplyConfig:
    def test_live_sections_swap_atomically(self):
        app = make_app(supervision=SupervisionPolicy(failure_threshold=5))
        swapped = app.config.replace(
            batch=app.config.batch.replace(min_column=32),
            supervision=SupervisionPolicy(failure_threshold=2),
        )
        app.apply_config(swapped)
        assert app.config.batch.min_column == 32
        assert app.sweeper.config.batch.min_column == 32
        assert app.config.supervision.failure_threshold == 2
        assert app.supervision.default_policy.failure_threshold == 2

    def test_structural_fields_cannot_change(self):
        app = make_app()
        with pytest.raises(TuningError, match="structural"):
            app.apply_config(app.config.replace(name="other"))
        with pytest.raises(TuningError, match="structural"):
            app.apply_config(
                app.config.replace(shard=ShardConfig(enabled=True))
            )

    @pytest.mark.parametrize(
        "field, value",
        [
            ("stale", StalePolicy("fail")),
            ("error_policy", "isolate"),
            (
                "supervision_overrides",
                {"Sensor": SupervisionPolicy(failure_threshold=1)},
            ),
        ],
    )
    def test_policy_sections_are_structural(self, field, value):
        app = make_app()
        before = app.config
        with pytest.raises(TuningError, match=f"'{field}' is structural"):
            app.apply_config(app.config.replace(**{field: value}))
        assert app.config is before
        assert app.error_policy == "raise"

    def test_cache_cannot_toggle_live(self):
        # Toggled either way or retuned, the cache section is wiring.
        for before, after in (
            (CacheConfig(), CacheConfig(enabled=True)),
            (CacheConfig(enabled=True), CacheConfig()),
            (
                CacheConfig(enabled=True, ttl_seconds=1.0),
                CacheConfig(enabled=True, ttl_seconds=30.0),
            ),
        ):
            app = make_app(cache=before)
            with pytest.raises(TuningError, match="'cache' is structural"):
                app.apply_config(app.config.replace(cache=after))
            assert app.config.cache == before

    def test_a_sharded_application_cannot_be_retuned(self):
        # Its workers keep the config their bootstrap built; a
        # coordinator-side swap would silently diverge from them.
        app = make_app(shard=ShardConfig(enabled=True, workers=2))
        before = app.config
        with pytest.raises(TuningError, match="sharded"):
            app.apply_config(
                before.replace(batch=before.batch.replace(min_column=4096))
            )
        assert app.config is before

    def test_batch_only_tunes_min_column_live(self):
        app = make_app(batch=BatchConfig(min_column=4))
        app.apply_config(
            app.config.replace(
                batch=app.config.batch.replace(min_column=64)
            )
        )
        assert app.config.batch.min_column == 64

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
