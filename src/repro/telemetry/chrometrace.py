"""The orchestration timeline record and its Chrome-trace export.

The runtime's :class:`~repro.runtime.tracing.Tracer` records a causal
timeline of orchestration events (source readings, context publications,
actions) as :class:`TraceEntry` records.  The record lives here, below
``repro.runtime``, so exporting a timeline never imports the runtime.
This module serialises that timeline into the Trace Event Format's
JSON-object form, which loads directly in ``chrome://tracing`` or
https://ui.perfetto.dev:

* every trace entry becomes a global *instant* event (``"ph": "i"``)
  with the simulation timestamp converted to microseconds;
* the three entry kinds map to three named "threads" (source/context/
  action rows in the viewer) of one process named after the
  application;
* entry fields ride along in ``args`` so the export round-trips: the
  original ``TraceEntry`` list (values as their ``repr``) can be
  rebuilt from the JSON with :func:`parse_chrome_trace`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Union

if TYPE_CHECKING:
    from repro.runtime.tracing import Tracer

__all__ = [
    "TraceEntry",
    "chrome_trace_events",
    "render_chrome_trace",
    "parse_chrome_trace",
]

_KIND_TIDS = {"source": 1, "context": 2, "action": 3}
_PID = 1


@dataclass(frozen=True)
class TraceEntry:
    """One recorded orchestration event."""

    timestamp: float
    kind: str  # 'source' | 'context' | 'action'
    subject: str  # device entity id or context name
    detail: str  # source/action name or empty
    value: Any = None

    def render(self) -> str:
        clock = _format_time(self.timestamp)
        if self.kind == "source":
            return (
                f"{clock}  source   {self.subject}.{self.detail} = "
                f"{_short(self.value)}"
            )
        if self.kind == "context":
            return (
                f"{clock}  context  {self.subject} published "
                f"{_short(self.value)}"
            )
        return f"{clock}  action   {self.detail} on {self.subject}" + (
            f" {_short(self.value)}" if self.value else ""
        )


def _format_time(seconds: float) -> str:
    hours = int(seconds // 3600)
    minutes = int(seconds % 3600 // 60)
    secs = seconds % 60
    return f"{hours:03d}:{minutes:02d}:{secs:06.3f}"


def _short(value: Any, limit: int = 60) -> str:
    text = repr(value)
    return text if len(text) <= limit else text[: limit - 3] + "..."


def chrome_trace_events(
    tracer: Tracer, app_name: str = "app"
) -> List[Dict[str, Any]]:
    """Trace Event Format event list for ``tracer``'s timeline."""
    events: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": _PID,
            "tid": 0,
            "args": {"name": app_name},
        }
    ]
    for kind, tid in _KIND_TIDS.items():
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": _PID,
                "tid": tid,
                "args": {"name": kind},
            }
        )
    for entry in tracer.entries:
        name = (
            f"{entry.subject}.{entry.detail}" if entry.detail else entry.subject
        )
        events.append(
            {
                "name": name,
                "cat": entry.kind,
                "ph": "i",
                "s": "g",
                "ts": round(entry.timestamp * 1e6, 3),
                "pid": _PID,
                "tid": _KIND_TIDS.get(entry.kind, 0),
                "args": {
                    "subject": entry.subject,
                    "detail": entry.detail,
                    "value": repr(entry.value),
                },
            }
        )
    return events


def render_chrome_trace(tracer: Tracer, app_name: str = "app") -> str:
    """JSON document (object form) ready for ``chrome://tracing``."""
    document = {
        "traceEvents": chrome_trace_events(tracer, app_name),
        "displayTimeUnit": "ms",
        "otherData": {"generator": "repro.telemetry"},
    }
    return json.dumps(document, indent=2)


def parse_chrome_trace(
    document: Union[str, Dict[str, Any]]
) -> List[TraceEntry]:
    """Rebuild the traced timeline from an exported JSON document.

    Values come back as their ``repr`` strings (the export is for
    humans and viewers, not for pickling); everything else — timestamp,
    kind, subject, detail — round-trips exactly.
    """
    if isinstance(document, str):
        document = json.loads(document)
    entries: List[TraceEntry] = []
    for event in document.get("traceEvents", ()):
        if event.get("ph") != "i":
            continue
        args = event.get("args", {})
        entries.append(
            TraceEntry(
                timestamp=event["ts"] / 1e6,
                kind=event.get("cat", ""),
                subject=args.get("subject", ""),
                detail=args.get("detail", ""),
                value=args.get("value"),
            )
        )
    return entries
