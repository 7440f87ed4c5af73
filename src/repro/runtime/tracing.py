"""Execution tracing: what the orchestration actually did, when.

A :class:`Tracer` attaches to an :class:`~repro.runtime.app.Application`
and records a timeline of orchestration events — source readings entering
the application, context publications, controller activations, and
actions issued to devices.  Traces serve the examples ("show me the day"),
debugging, and assertions about *ordering* that per-component counters
cannot express.

The tracer hooks the application's bus delivery and records device
actuation through the wiring every bound instance shares; it is
observation-only (no behavioural change) and can be detached.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.runtime.component import ContextEvent, SourceEvent
from repro.telemetry.chrometrace import TraceEntry


class Tracer:
    """Records a bounded timeline of an application's orchestration events.

    >>> tracer = Tracer(app).attach()
    >>> app.advance(600)
    >>> print(tracer.render())
    """

    def __init__(self, application, capacity: int = 10_000):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.application = application
        self.capacity = capacity
        self.entries: List[TraceEntry] = []
        self.dropped = 0
        self._attached = False
        self._original_dispatch = None

    # -- lifecycle -----------------------------------------------------------

    def attach(self) -> "Tracer":
        """Start recording.

        Intercepts the bus's delivery loop — which a topic publish and a
        compiled delivery plan both go through — recording *before*
        delivery, so entries appear in causal order: source → context →
        action; and records the actions issued to every instance the
        application binds, now or later (:class:`~repro.runtime.device.
        Wiring`).
        """
        if self._attached:
            raise RuntimeError("tracer already attached")
        app = self.application
        if any(wiring.actuated for wiring in app.wirings.values()):
            raise RuntimeError("another tracer is attached to this app")
        self._attached = True
        self._original_dispatch = app.bus.dispatch_compiled

        def traced_dispatch(targets, topic_count, payload):
            self._on_dispatch(payload)
            return self._original_dispatch(targets, topic_count, payload)

        app.bus.dispatch_compiled = traced_dispatch
        for wiring in app.wirings.values():
            wiring.actuated = self._on_action
        return self

    def detach(self) -> None:
        if not self._attached:
            return
        self.application.bus.dispatch_compiled = self._original_dispatch
        for wiring in self.application.wirings.values():
            wiring.actuated = None
        self._attached = False

    def _on_dispatch(self, payload) -> None:
        if isinstance(payload, SourceEvent):
            self._on_source(payload)
        elif isinstance(payload, ContextEvent):
            self._on_context(payload)

    # -- hooks ---------------------------------------------------------------

    def _on_action(self, instance, action, params) -> None:
        self._record(
            TraceEntry(
                timestamp=self.application.clock.now(),
                kind="action",
                subject=instance.entity_id,
                detail=action,
                value=params or None,
            )
        )

    def _on_source(self, event: SourceEvent) -> None:
        self._record(
            TraceEntry(
                timestamp=event.timestamp,
                kind="source",
                subject=event.device.entity_id,
                detail=event.source,
                value=event.value,
            )
        )

    def _on_context(self, event: ContextEvent) -> None:
        self._record(
            TraceEntry(
                timestamp=event.timestamp,
                kind="context",
                subject=event.context,
                detail="",
                value=event.value,
            )
        )

    def _record(self, entry: TraceEntry) -> None:
        if len(self.entries) >= self.capacity:
            self.dropped += 1
            return
        self.entries.append(entry)

    # -- queries -------------------------------------------------------------

    def of_kind(self, kind: str) -> List[TraceEntry]:
        return [entry for entry in self.entries if entry.kind == kind]

    def between(self, start: float, end: float) -> List[TraceEntry]:
        return [
            entry for entry in self.entries if start <= entry.timestamp < end
        ]

    def find(
        self,
        kind: Optional[str] = None,
        subject: Optional[str] = None,
        predicate: Optional[Callable[[TraceEntry], bool]] = None,
    ) -> List[TraceEntry]:
        results = self.entries
        if kind is not None:
            results = [e for e in results if e.kind == kind]
        if subject is not None:
            results = [e for e in results if e.subject == subject]
        if predicate is not None:
            results = [e for e in results if predicate(e)]
        return list(results)

    def render(self, limit: Optional[int] = None) -> str:
        entries = self.entries if limit is None else self.entries[-limit:]
        lines = [entry.render() for entry in entries]
        if self.dropped:
            lines.append(f"... and {self.dropped} dropped entries")
        return "\n".join(lines)

    def clear(self) -> None:
        self.entries.clear()
        self.dropped = 0

    def __len__(self) -> int:
        return len(self.entries)
