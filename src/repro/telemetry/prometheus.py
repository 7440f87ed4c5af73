"""Prometheus text exposition format for a :class:`MetricsRegistry`.

Renders the version-0.0.4 text format scrapers understand::

    # HELP bus_published_total Events published on the bus.
    # TYPE bus_published_total counter
    bus_published_total 42
    qos_activation_seconds_bucket{component="Alert",le="0.005"} 3
    qos_activation_seconds_sum{component="Alert"} 0.0123
    qos_activation_seconds_count{component="Alert"} 7

Counters and gauges emit one sample per label set; histograms emit the
cumulative ``_bucket`` series (inclusive ``le`` upper bounds, closed by
``+Inf``) plus ``_sum`` and ``_count``.  Label values are escaped per
the spec (backslash, double quote, newline).
"""

from __future__ import annotations

from typing import List

from repro.telemetry.registry import Histogram, MetricsRegistry

__all__ = ["render_prometheus"]


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def _label_text(items) -> str:
    if not items:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label_value(value)}"' for name, value in items
    )
    return "{" + inner + "}"


def render_prometheus(registry: MetricsRegistry) -> str:
    """Render every family of ``registry`` as Prometheus text format.

    Output order is deterministic regardless of registration order:
    families render sorted by name and samples sorted by label set, so
    two registries holding the same metrics always produce byte-equal
    exposition text (scrape diffing, golden-file tests).
    """
    lines: List[str] = []
    for family in sorted(registry.families(), key=lambda f: f.name):
        if family.help:
            lines.append(f"# HELP {family.name} {_escape_help(family.help)}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        for labels, instrument in sorted(
            family.samples(), key=lambda sample: sample[0]
        ):
            if isinstance(instrument, Histogram):
                _render_histogram(lines, family.name, labels, instrument)
            else:
                lines.append(
                    f"{family.name}{_label_text(labels)} "
                    f"{_format_value(instrument.value)}"
                )
    return "\n".join(lines) + ("\n" if lines else "")


def _render_histogram(lines, name, labels, histogram) -> None:
    for bound, cumulative in histogram.bucket_counts():
        bucket_labels = labels + (("le", _format_value(bound)),)
        lines.append(f"{name}_bucket{_label_text(bucket_labels)} {cumulative}")
    lines.append(
        f"{name}_sum{_label_text(labels)} {_format_value(histogram.sum)}"
    )
    lines.append(f"{name}_count{_label_text(labels)} {histogram.count}")
