"""Self-tuning orchestration: closing the telemetry → config loop.

The paper's large-scale story assumes operators hand-pick deployment
parameters; the runtime grew every knob that matters (sweep workers,
columnar ``min_column``, cache TTLs, breaker thresholds) plus the
telemetry to measure each one.  This module automates that operator,
as a *client* of the runtime: nothing else in ``repro.runtime`` imports
it, and an application never knows a controller is watching it.

* :class:`Knob` / :class:`KnobRegistry` — the named tunables
  (``sweep.workers``, ``batch.min_column``, ``cache.ttl_seconds``,
  ``supervision.failure_threshold`` …), each with a safe range, a step
  rule and the metric signal that moves it.  A knob never mutates a
  config: it derives a *replaced and re-validated* copy through the
  :class:`~repro.runtime.configbase.ConfigBase` protocol, and the
  application swaps the whole record atomically between sweeps.
* :class:`TuningController` — a drift-gated hill climb.  Its owner
  builds it beside a started application with the knobs to tune and a
  cumulative-cost callable; each interval it measures that objective's
  increment.  While **settled** it only watches for drift; a drift
  beyond tolerance opens a **search**: one bounded step per interval,
  rolled back (and cooled down) when the objective regresses, accepted
  otherwise.  Neutral steps are kept so the climb can cross plateaus
  (``min_column`` values between two behaviour changes measure
  identically); the search closes when every direction is exhausted,
  and the controller goes quiet again.

Everything runs on the application clock.  The controller's periodic
job is scheduled *after* the gather jobs, so at every shared timestamp
the sweep completes first and the tick observes it — under a
:class:`~repro.runtime.clock.SimulationClock` the whole feedback loop
is exactly reproducible.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

from repro.errors import TuningError
from repro.runtime.configbase import ConfigBase
from repro.telemetry.instrument import Instrumented, MetricSpec

__all__ = ["Knob", "KnobRegistry", "TuningController"]

DOWN = "down"
UP = "up"

#: Measured intervals observed before the first adjustment.
WARMUP_INTERVALS = 1
#: Ticks a knob sits out after a rollback.
COOLDOWN_INTERVALS = 3
#: Relative regression that rolls the last step back (and,
#: symmetrically, the relative improvement required to lower the
#: accepted baseline).
ROLLBACK_TOLERANCE = 0.05
#: Relative change of the settled baseline that re-opens a search.
DRIFT_TOLERANCE = 0.25

_SCALES = ("linear", "geometric")


@dataclass(frozen=True)
class Knob(ConfigBase):
    """One named tunable: where it lives, its safe range, how it steps.

    ``name`` is the public dotted identifier; ``section``/``attribute``
    locate the value inside :class:`RuntimeConfig` (``section`` is a
    top-level field, ``attribute`` a field of that section).  ``step``
    is an additive increment under ``scale='linear'`` and a multiplier
    under ``scale='geometric'`` (coarse knobs such as ``min_column``
    cross their whole range in a handful of moves).  ``signal`` names
    the metric family an operator would watch to tune this by hand —
    it is documentation carried next to the range, surfaced by
    ``repro tune`` and the knob catalog docs.
    """

    name: str
    section: str
    attribute: str
    minimum: float
    maximum: float
    step: float = 1.0
    scale: str = "linear"
    integer: bool = True
    signal: str = ""

    def __post_init__(self):
        if not self.name:
            raise ValueError("a knob needs a name")
        if not self.section or not self.attribute:
            raise ValueError(f"knob '{self.name}' needs section.attribute")
        if self.scale not in _SCALES:
            raise ValueError(
                f"knob '{self.name}': scale must be one of {_SCALES}"
            )
        if self.minimum > self.maximum:
            raise ValueError(
                f"knob '{self.name}': minimum {self.minimum} exceeds "
                f"maximum {self.maximum}"
            )
        if self.scale == "geometric":
            if self.step <= 1:
                raise ValueError(
                    f"knob '{self.name}': geometric step must be > 1"
                )
            if self.minimum <= 0:
                raise ValueError(
                    f"knob '{self.name}': geometric scale needs a "
                    "positive minimum"
                )
        elif self.step <= 0:
            raise ValueError(f"knob '{self.name}': step must be > 0")

    # -- value arithmetic ----------------------------------------------------

    def clamp(self, value: float) -> Any:
        """``value`` forced into the safe range (and integer domain)."""
        clamped = min(self.maximum, max(self.minimum, value))
        return round(clamped) if self.integer else clamped

    def step_toward(self, value: float, direction: str) -> Any:
        """The neighbouring value one bounded step away.

        Returns the current value unchanged when the step is a no-op
        (already clamped at the bound) — callers treat that as "this
        direction is exhausted".
        """
        if direction not in (DOWN, UP):
            raise ValueError(f"direction must be '{DOWN}' or '{UP}'")
        if self.scale == "geometric":
            moved = value * self.step if direction == UP else value / self.step
        else:
            moved = value + self.step if direction == UP else value - self.step
        return self.clamp(moved)

    # -- config access -------------------------------------------------------

    def _section_of(self, config: Any) -> Any:
        section = getattr(config, self.section)
        if section is None:
            raise TuningError(
                f"knob '{self.name}': config section '{self.section}' "
                "is not enabled on this config"
            )
        return section

    def read(self, config: Any) -> Any:
        """Current value of this knob inside a ``RuntimeConfig``."""
        return getattr(self._section_of(config), self.attribute)

    def apply(self, config: Any, value: float) -> Any:
        """A re-validated config copy with this knob set (clamped).

        Sections speaking :class:`ConfigBase` replace through the
        protocol; plain frozen policy records (``SupervisionPolicy``)
        go through ``dataclasses.replace``, whose reconstruction
        re-runs their ``__post_init__`` validation just the same.
        """
        section = self._section_of(config)
        changed = {self.attribute: self.clamp(value)}
        if isinstance(section, ConfigBase):
            replaced = section.replace(**changed)
        elif dataclasses.is_dataclass(section):
            replaced = dataclasses.replace(section, **changed)
        else:
            raise TuningError(
                f"knob '{self.name}': config section '{self.section}' "
                "is not a frozen config record"
            )
        return config.replace(**{self.section: replaced})


class KnobRegistry:
    """Named tunables of one application, in registration order.

    The registry is the boundary between "a string in a config file"
    and "a field inside the frozen config record": it resolves names,
    clamps values into declared safe ranges, and derives replaced
    configs without ever mutating the running one.
    """

    def __init__(self, knobs: Iterable[Knob] = ()):
        self._knobs: Dict[str, Knob] = {}
        for knob in knobs:
            self.register(knob)

    def register(self, knob: Knob) -> Knob:
        if knob.name in self._knobs:
            raise TuningError(f"knob '{knob.name}' is already registered")
        self._knobs[knob.name] = knob
        return knob

    def get(self, name: str) -> Knob:
        try:
            return self._knobs[name]
        except KeyError:
            known = ", ".join(sorted(self._knobs)) or "<none>"
            raise TuningError(
                f"unknown knob '{name}' (registered: {known})"
            ) from None

    def names(self) -> Tuple[str, ...]:
        return tuple(self._knobs)

    def value_of(self, config: Any, name: str) -> Any:
        return self.get(name).read(config)

    def with_value(self, config: Any, name: str, value: float) -> Any:
        """Re-validated config copy with ``name`` set to ``value``
        (clamped into the knob's safe range)."""
        return self.get(name).apply(config, value)

    def describe(self, config: Any = None) -> List[Dict[str, Any]]:
        """Knob catalog rows (current values when ``config`` given)."""
        rows = []
        for knob in self._knobs.values():
            row: Dict[str, Any] = {
                "name": knob.name,
                "minimum": knob.minimum,
                "maximum": knob.maximum,
                "step": knob.step,
                "scale": knob.scale,
                "signal": knob.signal,
            }
            if config is not None:
                row["value"] = knob.read(config)
            rows.append(row)
        return rows

    def __iter__(self) -> Iterator[Knob]:
        return iter(self._knobs.values())

    def __len__(self) -> int:
        return len(self._knobs)

    def __contains__(self, name: str) -> bool:
        return name in self._knobs

    @classmethod
    def for_config(cls, config: Any) -> "KnobRegistry":
        """The standard catalog, filtered to the subsystems a config
        actually enables (a knob on a disabled subsystem would burn
        trial intervals changing nothing); the sweep and batch knobs
        are always listed, as no config turns those paths off."""
        registry = cls()
        registry.register(
            Knob(
                name="sweep.workers",
                section="sweep",
                attribute="workers",
                minimum=1,
                maximum=64,
                step=2,
                scale="geometric",
                signal="sweep_duration_seconds",
            )
        )
        registry.register(
            Knob(
                name="sweep.batch_size",
                section="sweep",
                attribute="batch_size",
                minimum=1,
                maximum=1024,
                step=2,
                scale="geometric",
                signal="sweep_batches_total",
            )
        )
        registry.register(
            Knob(
                name="batch.min_column",
                section="batch",
                attribute="min_column",
                minimum=2,
                maximum=4096,
                step=8,
                scale="geometric",
                signal="sweep_batch_demoted_total",
            )
        )
        if config.cache.enabled:
            registry.register(
                Knob(
                    name="cache.ttl_seconds",
                    section="cache",
                    attribute="ttl_seconds",
                    minimum=0.05,
                    maximum=600.0,
                    step=2,
                    scale="geometric",
                    integer=False,
                    signal="read_cache_hits_total",
                )
            )
        # Per-type ``supervision_overrides`` alone leave the section
        # these two knobs live on ``None``.
        if config.supervision is not None:
            registry.register(
                Knob(
                    name="supervision.failure_threshold",
                    section="supervision",
                    attribute="failure_threshold",
                    minimum=1,
                    maximum=10,
                    step=1,
                    scale="linear",
                    signal="supervision_breaker_opens_total",
                )
            )
            registry.register(
                Knob(
                    name="supervision.backoff_base_seconds",
                    section="supervision",
                    attribute="backoff_base_seconds",
                    minimum=1.0,
                    maximum=600.0,
                    step=2,
                    scale="geometric",
                    integer=False,
                    signal="supervision_breaker_half_opens_total",
                )
            )
        return registry


@dataclass
class _Trial:
    """One in-flight adjustment awaiting its next-interval verdict."""

    knob: str
    direction: str
    previous_value: Any


# Controller phases.
_WARMUP = "warmup"
_SETTLED = "settled"
_SEARCHING = "searching"


def _opposite(direction: str) -> str:
    return DOWN if direction == UP else UP


class TuningController(Instrumented):
    """Drift-gated hill climb over the named knobs of one application.

    Built, started and stopped by its owner, beside a started
    application (docs/tuning.md).  ``knobs`` names what to tune in
    ``registry`` (default: :meth:`KnobRegistry.for_config` of the
    running config); ``objective`` is a monotone cumulative-cost
    callable whose per-interval increments the controller minimises;
    ``interval_seconds`` is the application-clock period between ticks
    — align it with the slowest periodic gather so every tick observes
    fresh sweeps.  :meth:`start` schedules the periodic tick *after*
    the gather jobs; :meth:`tick` is also callable directly by tests
    and offline replays.

    The policy, interval by interval:

    1. **Measure** the objective level for the interval that just
       ended (the increment of the cumulative cost since the previous
       tick).  No previous reading → no action.
    2. **Warmup / settled** — record the baseline; while the level
       stays within :data:`DRIFT_TOLERANCE` of it, do nothing.  Drift
       beyond the band opens a search anchored at the drifted level.
    3. **Searching** — evaluate the pending trial first: a regression
       beyond :data:`ROLLBACK_TOLERANCE` rolls the knob back, cools it
       down and marks the direction dead; an improvement lowers the
       baseline and keeps momentum; a neutral step is kept (plateau
       traversal) without moving the baseline.  Then propose the next
       move — momentum first, otherwise greedy on observed per-move
       reward — never proposing a dead direction, a cooling knob, the
       exact undo of the last accepted move, or a clamped no-op.  When
       nothing is proposable the search closes and the controller
       settles at the best point found.
    """

    metric_specs = (
        MetricSpec(
            "tuning_ticks_total",
            "_ticks",
            stats_key="ticks",
            help="Controller intervals elapsed (including warmup and "
            "intervals without objective observations).",
        ),
        MetricSpec(
            "tuning_evaluations_total",
            "_evaluations",
            stats_key="evaluations",
            help="Intervals with a measurable objective level.",
        ),
        MetricSpec(
            "tuning_rollbacks_total",
            "_rollbacks",
            stats_key="rollbacks",
            help="Adjustments undone because the objective regressed "
            "beyond the rollback tolerance.",
        ),
        MetricSpec(
            "tuning_drifts_total",
            "_drifts",
            stats_key="drifts",
            help="Settled baselines broken by objective drift (each "
            "one opens a new search).",
        ),
    )

    def __init__(
        self,
        app: Any,
        knobs: Iterable[str],
        objective: Callable[[], float],
        interval_seconds: float,
        registry: Optional[KnobRegistry] = None,
    ):
        if interval_seconds <= 0:
            raise TuningError("interval_seconds must be > 0")
        self.app = app
        self.interval_seconds = interval_seconds
        if registry is None:
            registry = KnobRegistry.for_config(app.config)
        self.registry = registry
        self._names: Tuple[str, ...] = tuple(knobs)
        if not self._names:
            raise TuningError("a controller needs at least one knob to tune")
        for name in self._names:
            # Unknown names, and knobs whose config section is absent,
            # fail at wiring time.
            self.registry.value_of(app.config, name)
        self._objective_fn = objective
        self._job = None
        self._phase = _WARMUP
        self._baseline: Optional[float] = None
        self._trial: Optional[_Trial] = None
        self._dead: set = set()
        self._momentum: Optional[Tuple[str, str]] = None
        self._blocked: Optional[Tuple[str, str]] = None
        self._cooldowns: Dict[str, int] = {}
        self._rewards: Dict[Tuple[str, str], List[float]] = {}
        self._last_cumulative: Optional[float] = None
        self._ticks = 0
        self._evaluations = 0
        self._rollbacks = 0
        self._drifts = 0
        self._adjustments: Dict[Tuple[str, str], int] = {}
        self._trajectory: List[Dict[str, Any]] = []
        # Counters via the Instrumented protocol, plus a per-knob
        # current-value gauge; adjustment counters materialise per
        # ``{knob, direction}`` on first use.
        self.attach_metrics(app.metrics)
        for name in self._names:
            app.metrics.callback(
                "tuning_knob_value",
                lambda name=name: float(
                    self.registry.value_of(self.app.config, name)
                ),
                kind="gauge",
                help="Current value of each tunable knob.",
                knob=name,
            )

    # -- wiring ---------------------------------------------------------------

    def start(self) -> None:
        """Schedule the periodic tick on the application clock.

        The application must be started: its gather jobs are then
        already scheduled, and the simulation clock breaks
        same-timestamp ties by scheduling order, so this
        later-scheduled job with the same period observes every sweep
        of its own interval, every interval — and adjusts between
        sweeps, never inside one.
        """
        if self._job is not None:
            return
        if not self.app.started:
            raise TuningError(
                "start the application before its tuning controller: "
                "the tick must be scheduled after the gather jobs"
            )
        self._job = self.app.clock.schedule_periodic(
            self.interval_seconds, self.tick
        )

    def stop(self) -> None:
        if self._job is not None:
            self._job.cancel()
            self._job = None

    # -- the control loop -----------------------------------------------------

    def tick(self) -> None:
        """One controller interval (idempotent against missing data)."""
        self._ticks += 1
        level = self._measure()
        if level is None:
            return
        self._evaluations += 1
        self._decay_cooldowns()

        if self._phase is _WARMUP:
            self._baseline = level
            if self._evaluations > WARMUP_INTERVALS:
                self._phase = _SETTLED
            return

        if self._phase is _SETTLED:
            assert self._baseline is not None
            if self._within(level, self._baseline, DRIFT_TOLERANCE):
                self._baseline = level  # absorb in-band drift
                return
            self._drifts += 1
            self._begin_search(level)
            self._propose()
            return

        # _SEARCHING: judge the pending trial, then keep climbing.
        trial, self._trial = self._trial, None
        if trial is not None:
            if self._judge(trial, level) is False:
                return  # rolled back; let the restored config settle
        self._propose()

    # -- search mechanics -----------------------------------------------------

    def _begin_search(self, level: float) -> None:
        self._phase = _SEARCHING
        self._baseline = level
        self._dead = set()
        self._momentum = None
        self._blocked = None
        self._rewards = {}

    def _judge(self, trial: _Trial, level: float) -> bool:
        """Accept or roll back ``trial`` given the level it produced.

        Returns ``False`` on rollback (the caller pauses proposing for
        one interval so the restored config is what the next
        measurement sees).
        """
        assert self._baseline is not None
        baseline = self._baseline
        move = (trial.knob, trial.direction)
        band = ROLLBACK_TOLERANCE * max(abs(baseline), 1e-12)
        self._note_reward(move, baseline - level)
        if level > baseline + band:
            # Regression: undo the step, cool the knob down.
            self.app.apply_config(
                self.registry.with_value(
                    self.app.config, trial.knob, trial.previous_value
                )
            )
            self._rollbacks += 1
            self._record(trial.knob, trial.previous_value, "rollback")
            self._cooldowns[trial.knob] = COOLDOWN_INTERVALS
            self._dead.add(move)
            self._momentum = None
            return False
        if level < baseline - band:
            # Improvement: new anchor; never undo your own move within
            # this search, and keep pushing the same way first.
            self._baseline = level
            self._dead.discard(move)
            self._blocked = (trial.knob, _opposite(trial.direction))
            self._momentum = move
        else:
            # Neutral plateau step: keep it, keep walking.
            self._momentum = move
        return True

    def _propose(self) -> None:
        """Pick and apply the next trial move, or settle."""
        candidates: List[Tuple[str, str, Any, Any]] = []
        for name in self._names:
            knob = self.registry.get(name)
            current = knob.read(self.app.config)
            for direction in (DOWN, UP):
                move = (name, direction)
                if move in self._dead or move == self._blocked:
                    continue
                if self._cooldowns.get(name):
                    continue
                candidate = knob.step_toward(current, direction)
                if candidate == current:
                    self._dead.add(move)  # clamped at the bound
                    continue
                candidates.append((name, direction, current, candidate))
        if not candidates:
            self._settle()
            return
        chosen = self._choose(candidates)
        name, direction, current, candidate = chosen
        self.app.apply_config(
            self.registry.with_value(self.app.config, name, candidate)
        )
        self._count_adjustment(name, direction)
        self._record(name, candidate, direction)
        self._trial = _Trial(name, direction, current)

    def _choose(
        self, candidates: List[Tuple[str, str, Any, Any]]
    ) -> Tuple[str, str, Any, Any]:
        if self._momentum is not None:
            for entry in candidates:
                if (entry[0], entry[1]) == self._momentum:
                    return entry

        # Greedy on mean observed reward; untried moves score 0 so a
        # known-good move wins, a known-bad one loses to fresh ground.
        def score(entry):
            history = self._rewards.get((entry[0], entry[1]))
            if not history:
                return 0.0
            return sum(history) / len(history)

        best = candidates[0]
        best_score = score(best)
        for entry in candidates[1:]:
            entry_score = score(entry)
            if entry_score > best_score:
                best, best_score = entry, entry_score
        return best

    def _settle(self) -> None:
        self._phase = _SETTLED
        self._trial = None
        self._momentum = None
        self._blocked = None
        self._dead = set()

    # -- measurement ----------------------------------------------------------

    def _measure(self) -> Optional[float]:
        """Objective level for the interval that just ended (the
        cumulative cost's increment), or ``None`` on the priming tick
        that only anchors the cumulative reading."""
        cumulative = float(self._objective_fn())
        previous = self._last_cumulative
        self._last_cumulative = cumulative
        if previous is None:
            return None
        return cumulative - previous

    # -- accounting -----------------------------------------------------------

    def _within(self, level: float, baseline: float, tolerance: float) -> bool:
        band = tolerance * max(abs(baseline), 1e-12)
        return abs(level - baseline) <= band

    def _decay_cooldowns(self) -> None:
        for name in list(self._cooldowns):
            self._cooldowns[name] -= 1
            if self._cooldowns[name] <= 0:
                del self._cooldowns[name]

    def _note_reward(self, move: Tuple[str, str], reward: float) -> None:
        self._rewards.setdefault(move, []).append(reward)

    def _count_adjustment(self, name: str, direction: str) -> None:
        move = (name, direction)
        if move not in self._adjustments:
            self.app.metrics.callback(
                "tuning_adjustments_total",
                lambda move=move: self._adjustments.get(move, 0),
                kind="counter",
                help="Knob adjustments applied, by knob and direction.",
                knob=name,
                direction=direction,
            )
        self._adjustments[move] = self._adjustments.get(move, 0) + 1

    def _record(self, name: str, value: Any, event: str) -> None:
        self._trajectory.append(
            {
                "tick": self._ticks,
                "clock": self.app.clock.now(),
                "knob": name,
                "value": value,
                "event": event,
            }
        )

    # -- introspection --------------------------------------------------------

    @property
    def phase(self) -> str:
        return self._phase

    @property
    def trajectory(self) -> List[Dict[str, Any]]:
        """Chronological adjustment/rollback log (JSON-able rows)."""
        return list(self._trajectory)

    def _extra_stats(self) -> Dict[str, Any]:
        return {
            "phase": self._phase,
            "baseline": self._baseline,
            "adjustments": {
                f"{name}:{direction}": count
                for (name, direction), count in sorted(
                    self._adjustments.items()
                )
            },
            "values": {
                name: self.registry.value_of(self.app.config, name)
                for name in self._names
            },
        }

    def report(self) -> Dict[str, Any]:
        """JSON-able summary for the ``repro tune`` CLI."""
        return {
            "interval_seconds": self.interval_seconds,
            "stats": self.stats(),
            "knobs": self.registry.describe(self.app.config),
            "trajectory": self.trajectory,
        }
