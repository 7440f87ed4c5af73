"""``cooker_events``: the paper's three-entity cooker design, one
``tickSecond`` event per operation.

Every tick the ``Alert`` context reads the cooker's consumption
(query-driven) and publishes, ``Notify`` asks a question on the TV
prompter, and a scripted resident — a job on the same simulation clock,
scheduled after the tick — answers it.  A "yes" runs the second chain
(``RemoteTurnOff`` → ``TurnOff`` → ``Off``) and the resident re-lights
the cooker, so the next tick alerts again.  A quarter of the answers
are "yes": the median operation is a "no" tick, the tail a "yes" tick.

The resident's script is the generated input (a ``random.Random`` over
``--seed``); the expected question sequence and ``Off`` count follow
from it alone.
"""

from __future__ import annotations

import random

from repro.api import analyze
from repro.apps.cooker import DESIGN_SOURCE, NotifyController, build_cooker_app
from repro.codegen import generate_framework
from repro.lang import parse

WARMUP_TICKS = 5000
CHECK_EVERY = 2048
YES_SHARE = 0.25
YES_TEXTS = ("yes", "y", "ok", "turn off", "off")
NO_TEXTS = ("no", "later", "not now")


class Resident:
    """Answers the displayed question on every tick."""

    def __init__(self, handle, seed: int):
        self.prompter = handle.prompter_driver
        self.environment = handle.environment
        self.rng = random.Random(seed)
        self.yes = 0
        self.answered = 0

    def tick(self) -> None:
        displayed = self.prompter.displayed
        if not displayed:
            return
        rng = self.rng
        says_yes = rng.random() < YES_SHARE
        text = rng.choice(YES_TEXTS if says_yes else NO_TEXTS)
        self.answered += 1
        self.prompter.push("answer", text, index=displayed[-1][0])
        if says_yes:
            self.yes += 1
            self.environment.set_cooker(True)  # re-light after the Off


class CookerEvents:
    name = "cooker_events"
    design_text = DESIGN_SOURCE
    design_name = "CookerMonitoring"
    setup_repeats = 5
    op_percentile = 5
    count_ops = 20_000  # operations the traced run's exact counts cover

    def __init__(self, seed: int, scale: str = "full"):
        self.seed = seed
        self.handle = None
        self.ops = 0
        self.failed = 0
        self._ticks = 0
        self._checked_ticks = 0
        self._yes_at_start = 0

    # -- life-cycle -----------------------------------------------------

    def setup(self) -> None:
        generate_framework(analyze(parse(DESIGN_SOURCE)), self.design_name)
        handle = build_cooker_app(threshold_seconds=1, renotify_seconds=1)
        handle.environment.set_cooker(True)
        self.handle = handle
        self.app = handle.application
        self.resident = Resident(handle, self.seed)
        self.app.clock.schedule_periodic(1.0, self.resident.tick)
        advance = self.app.advance
        for _ in range(WARMUP_TICKS):
            advance(1.0)
        self._ticks = WARMUP_TICKS
        self.failed = self._verify()  # warm-up must be right too
        self._yes_at_start = self.resident.yes
        self._errors_at_start = self._errors()

    def teardown(self) -> None:
        if self.handle is not None:
            self.app.stop()
            self.handle = None

    # -- the measured operation ----------------------------------------

    def op(self) -> None:
        self.app.advance(1.0)

    def after_op(self) -> None:
        self.ops += 1
        self._ticks += 1
        if self.ops % CHECK_EVERY == 0:
            self.failed += self._verify()

    def finish(self) -> int:
        """Run the outstanding checks; returns failed operations."""
        self.failed += self._verify()
        if self._errors() != self._errors_at_start:
            self.failed += 1
        return self.failed

    def readings(self) -> int:
        # per op: the tick event, Alert's consumption query, the answer
        # event; a "yes" adds RemoteTurnOff's consumption query.
        return 3 * self.ops + (self.resident.yes - self._yes_at_start)

    # -- output check ---------------------------------------------------

    def _errors(self) -> int:
        stats = self.app.stats
        return stats["gather_errors"] + len(stats["component_errors"])

    def _verify(self) -> int:
        """Compare the questions displayed since the last check with the
        tick sequence, and the Off count with the resident's script;
        then drop the checked records so memory does not grow with the
        number of operations.  Returns the mismatches found."""
        displayed = self.handle.prompter_driver.displayed
        first = self._checked_ticks + 1
        expected_count = self._ticks - self._checked_ticks
        wrong = abs(len(displayed) - expected_count)
        question = NotifyController.QUESTION
        for tick, shown in zip(range(first, self._ticks + 1), displayed):
            if shown != (f"q{tick}", question.format(minutes=tick // 60)):
                wrong += 1
        if self.handle.turn_off.turn_offs != self.resident.yes:
            wrong += 1
        if self.resident.answered != self._ticks or not self.handle.cooker_on:
            wrong += 1
        displayed.clear()
        self.handle.notify.asked.clear()
        self._checked_ticks = self._ticks
        return wrong
