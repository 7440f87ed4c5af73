"""Execution tracing: what the orchestration actually did, when.

A :class:`Tracer` attaches to an :class:`~repro.runtime.app.Application`
and records a timeline of orchestration events — source readings entering
the application, context publications, controller activations, and
actions issued to devices.  Traces serve the examples ("show me the day"),
debugging, and assertions about *ordering* that per-component counters
cannot express.

The tracer hooks the application's bus delivery and wraps device actuation;
it is observation-only (no behavioural change) and can be detached.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

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
        # entity id -> an instance whose ``act`` this tracer patched
        self._patched_instances: Dict[str, Any] = {}
        self._attached = False
        self._original_dispatch = None

    # -- lifecycle -----------------------------------------------------------

    def attach(self) -> "Tracer":
        """Start recording.

        Intercepts the bus's delivery loop — which a topic publish and a
        compiled delivery plan both go through — recording *before*
        delivery, so entries appear in causal order: source → context →
        action; and wraps device actuation.
        """
        if self._attached:
            raise RuntimeError("tracer already attached")
        self._attached = True
        app = self.application
        self._original_dispatch = app.bus.dispatch_compiled

        def traced_dispatch(targets, topic_count, payload):
            self._on_dispatch(payload)
            return self._original_dispatch(targets, topic_count, payload)

        app.bus.dispatch_compiled = traced_dispatch
        for instance in app.registry:
            self._patch_instance(instance)
        self._registry_remover = app.registry.add_listener(
            self._on_registry_change
        )
        return self

    def detach(self) -> None:
        if not self._attached:
            return
        self.application.bus.dispatch_compiled = self._original_dispatch
        for instance in self._patched_instances.values():
            # Deleted, not assigned back: a bound method in the
            # instance's own dict would hold it in a cycle.
            del instance.act
        self._patched_instances.clear()
        self._registry_remover()
        self._attached = False

    def _on_dispatch(self, payload) -> None:
        if isinstance(payload, SourceEvent):
            self._on_source(payload)
        elif isinstance(payload, ContextEvent):
            self._on_context(payload)

    # -- hooks ---------------------------------------------------------------

    def _on_registry_change(self, kind, instance) -> None:
        if kind == "register":
            self._patch_instance(instance)
        else:
            del self._patched_instances.pop(instance.entity_id).act

    def _patch_instance(self, instance) -> None:
        original = instance.act

        def traced_act(action, **params):
            self._record(
                TraceEntry(
                    timestamp=self.application.clock.now(),
                    kind="action",
                    subject=instance.entity_id,
                    detail=action,
                    value=params or None,
                )
            )
            return original(action, **params)

        instance.act = traced_act
        self._patched_instances[instance.entity_id] = instance

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
