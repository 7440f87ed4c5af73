"""Time sources for the runtime.

Designs speak in physical time (``<10 min>``, ``<24 hr>``), so the runtime
is built against an abstract :class:`Clock`.  Two implementations:

* :class:`SimulationClock` — a discrete-event virtual clock.  Jobs run when
  the test or benchmark *advances* time, so a 24-hour parking study
  executes in milliseconds and is perfectly deterministic (ties are broken
  by scheduling order).
* :class:`WallClock` — thin wrapper over real time and ``threading.Timer``
  for actual deployments.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Protocol, Tuple


@dataclass(order=True)
class ScheduledJob:
    """A pending callback.  Comparison orders by (time, sequence number)."""

    when: float
    sequence: int
    callback: Callable[[], None] = field(compare=False)
    period: Optional[float] = field(compare=False, default=None)
    cancelled: bool = field(compare=False, default=False)

    def cancel(self) -> None:
        self.cancelled = True


class Clock(Protocol):
    """What the runtime needs from a time source."""

    def now(self) -> float:
        """Current time in seconds."""

    def schedule(
        self, delay: float, callback: Callable[[], None]
    ) -> ScheduledJob:
        """Run ``callback`` once, ``delay`` seconds from now."""

    def schedule_periodic(
        self, period: float, callback: Callable[[], None]
    ) -> ScheduledJob:
        """Run ``callback`` every ``period`` seconds, starting one period
        from now."""


class SimulationClock:
    """Deterministic discrete-event clock.

    >>> clock = SimulationClock()
    >>> fired = []
    >>> _ = clock.schedule(5.0, lambda: fired.append(clock.now()))
    >>> clock.advance(10.0)
    >>> fired
    [5.0]
    """

    def __init__(self, start: float = 0.0):
        self._now = float(start)
        self._heap: List[Tuple[float, int, ScheduledJob]] = []
        self._counter = itertools.count()

    def now(self) -> float:
        return self._now

    def schedule(self, delay, callback) -> ScheduledJob:
        if delay < 0:
            raise ValueError("delay must be >= 0")
        job = ScheduledJob(self._now + delay, next(self._counter), callback)
        heapq.heappush(self._heap, (job.when, job.sequence, job))
        return job

    def schedule_periodic(self, period, callback) -> ScheduledJob:
        if period <= 0:
            raise ValueError("period must be > 0")
        job = ScheduledJob(
            self._now + period, next(self._counter), callback, period=period
        )
        heapq.heappush(self._heap, (job.when, job.sequence, job))
        return job

    def advance(self, duration: float) -> int:
        """Advance virtual time by ``duration`` seconds, firing due jobs.

        Returns the number of callbacks executed.  Callbacks may schedule
        further jobs; anything falling within the window fires too.
        """
        if duration < 0:
            raise ValueError("cannot advance backwards")
        return self.run_until(self._now + duration)

    def run_until(self, deadline: float) -> int:
        """Advance virtual time to ``deadline``, firing due jobs."""
        fired = 0
        heap = self._heap
        while heap and heap[0][0] <= deadline:
            when, __, job = heapq.heappop(heap)
            if job.cancelled:
                continue
            self._now = when
            if job.period is not None:
                # Re-arm before running so a raising callback cannot kill
                # the periodic schedule; the caller's handle (this same
                # object) keeps working for cancellation.
                job.when = when + job.period
                job.sequence = next(self._counter)
                heapq.heappush(heap, (job.when, job.sequence, job))
            job.callback()
            fired += 1
        self._now = max(self._now, deadline)
        return fired

    def pending(self) -> int:
        """Number of scheduled (non-cancelled) jobs."""
        return sum(1 for __, __, job in self._heap if not job.cancelled)

    def next_event_at(self) -> Optional[float]:
        for when, __, job in sorted(self._heap):
            if not job.cancelled:
                return when
        return None


class WallClock:
    """Real-time clock backed by ``threading.Timer``.

    Used for actual deployments; the simulation clock is preferred for
    tests and benchmarks.  ``cancel()`` on the returned job stops both
    one-shot and periodic schedules.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._counter = itertools.count()
        self._timers: List[threading.Timer] = []

    def now(self) -> float:
        return time.monotonic()

    def schedule(self, delay, callback) -> ScheduledJob:
        job = ScheduledJob(self.now() + delay, next(self._counter), callback)

        def fire():
            if not job.cancelled:
                callback()

        timer = threading.Timer(delay, fire)
        timer.daemon = True
        with self._lock:
            self._timers.append(timer)
        timer.start()
        return job

    def schedule_periodic(self, period, callback) -> ScheduledJob:
        job = ScheduledJob(
            self.now() + period, next(self._counter), callback, period=period
        )

        def fire():
            if job.cancelled:
                return
            rearm()
            callback()

        def rearm():
            timer = threading.Timer(period, fire)
            timer.daemon = True
            with self._lock:
                self._timers.append(timer)
            timer.start()

        rearm()
        return job

    def shutdown(self) -> None:
        with self._lock:
            for timer in self._timers:
                timer.cancel()
            self._timers.clear()
