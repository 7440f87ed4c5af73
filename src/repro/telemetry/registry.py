"""Process-wide metrics registry and its three instrument primitives.

The runtime used to answer "what happened?" with scattered ad-hoc
counters — ``bus.stats()``, ``engine.last_stats``,
``app.stats["windows"]``, ``QoSMonitor.stats`` — each with its own
shape.  The :class:`MetricsRegistry` unifies them: every hot layer
registers its counters here, the old ``stats()`` surfaces become thin
views, and one registry snapshot describes the whole process.

Three push instruments cover the usual needs:

* :class:`Counter` — a monotonically increasing count (``inc``);
* :class:`Gauge` — a value that goes up and down (``set``/``inc``/``dec``);
* :class:`Histogram` — fixed-bucket distribution with an
  allocation-free ``observe`` hot path (a ``bisect`` into pre-built
  bucket bounds, no per-observation objects).

A fourth, pull-only flavour keeps *existing* hot paths at literally
zero added cost: :meth:`MetricsRegistry.callback` registers a function
that is read at collection time.  Layers that already maintain a plain
``int`` counter (the bus's publish count, say) expose it through a
callback instead of paying a method call per event — which is how the
instrumented publish path stays within the telemetry benchmark's 5%
budget.

Metrics are identified by name plus an optional label set (Prometheus
style).  Instrument creation is get-or-create and intended to happen at
wiring time; hot paths hold the returned instrument and never touch the
registry dict.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import reduce
from itertools import groupby
from operator import add
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "CallbackValue",
    "MetricFamily",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
]

# Seconds-oriented default buckets: component activations in this
# runtime range from microseconds (pure-Python callbacks) to whole
# seconds (process-pool MapReduce runs).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.000_1,
    0.000_25,
    0.000_5,
    0.001,
    0.002_5,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
)

LabelItems = Tuple[Tuple[str, str], ...]


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        self._value += amount

    @property
    def value(self) -> int:
        return self._value


class Gauge:
    """Point-in-time value that can move both ways."""

    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = value

    def inc(self, amount: float = 1) -> None:
        self._value += amount

    def dec(self, amount: float = 1) -> None:
        self._value -= amount

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Fixed-bucket histogram with an allocation-free observe path.

    Bucket bounds are upper edges (Prometheus ``le`` semantics, each
    bound inclusive); one overflow slot catches everything beyond the
    last bound.  ``observe`` is a single ``bisect`` plus three integer
    updates — no allocation, no branching on bucket count.
    """

    __slots__ = ("bounds", "_counts", "_sum", "_count")

    def __init__(self, buckets: Optional[Iterable[float]] = None) -> None:
        bounds = tuple(sorted(buckets if buckets is not None else DEFAULT_BUCKETS))
        if not bounds:
            raise ValueError("a histogram needs at least one bucket bound")
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        self._counts[bisect_left(self.bounds, value)] += 1
        self._sum += value
        self._count += 1

    def observe_column(self, values: Sequence[float]) -> None:
        """:meth:`observe` every one of ``values``, in order: one bucket
        search per run of equal values (a column of cache hits stored
        together is one run), and the sum adds left to right, exactly
        as successive ``observe`` calls would."""
        for value, run in groupby(values):
            self._counts[bisect_left(self.bounds, value)] += len(list(run))
        self._sum = reduce(add, values, self._sum)
        self._count += len(values)

    @property
    def value(self) -> int:
        """Observation count (uniform ``value`` across instruments)."""
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def count(self) -> int:
        return self._count

    def bucket_counts(self) -> List[Tuple[float, int]]:
        """Cumulative ``(le, count)`` pairs, ending with ``(inf, total)``."""
        cumulative = 0
        out: List[Tuple[float, int]] = []
        for bound, count in zip(self.bounds, self._counts):
            cumulative += count
            out.append((bound, cumulative))
        out.append((float("inf"), cumulative + self._counts[-1]))
        return out


class CallbackValue:
    """Pull-only instrument: the value is computed at collection time.

    Wraps a zero-argument callable; hot paths that already keep a plain
    counter expose it through one of these and pay nothing per event.
    """

    __slots__ = ("_fn",)

    def __init__(self, fn: Callable[[], float]) -> None:
        self._fn = fn

    @property
    def value(self) -> float:
        return self._fn()


_KINDS = ("counter", "gauge", "histogram")


class MetricFamily:
    """All instruments sharing one metric name (one per label set)."""

    __slots__ = ("name", "kind", "help", "_children")

    def __init__(self, name: str, kind: str, help_text: str) -> None:
        if kind not in _KINDS:
            raise ValueError(f"unknown metric kind '{kind}'")
        self.name = name
        self.kind = kind
        self.help = help_text
        self._children: Dict[LabelItems, Any] = {}

    def samples(self) -> List[Tuple[LabelItems, Any]]:
        """(labels, instrument) pairs in label-sorted order."""
        return sorted(self._children.items())

    def child(self, labels: LabelItems) -> Any:
        return self._children[labels]

    def __len__(self) -> int:
        return len(self._children)


def _label_items(labels: Dict[str, Any]) -> LabelItems:
    return tuple(sorted((name, str(value)) for name, value in labels.items()))


class MetricsRegistry:
    """Get-or-create home of every metric family in a process/application.

    The same ``(name, labels)`` pair always resolves to the same
    instrument, so independent layers can share a family (for example
    every device instance increments children of
    ``device_read_retries_total``).  Asking for an existing name with a
    different kind is a programming error and raises.
    """

    def __init__(self) -> None:
        self._families: Dict[str, MetricFamily] = {}

    # -- instrument creation -------------------------------------------------

    def counter(self, name: str, help: str = "", **labels: Any) -> Counter:
        return self._child(name, "counter", help, labels, Counter)

    def gauge(self, name: str, help: str = "", **labels: Any) -> Gauge:
        return self._child(name, "gauge", help, labels, Gauge)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Optional[Iterable[float]] = None,
        **labels: Any,
    ) -> Histogram:
        return self._child(
            name, "histogram", help, labels, lambda: Histogram(buckets)
        )

    def callback(
        self,
        name: str,
        fn: Callable[[], float],
        kind: str = "counter",
        help: str = "",
        **labels: Any,
    ) -> CallbackValue:
        """Register (or re-point) a pull-only metric backed by ``fn``."""
        family = self._family(name, kind, help)
        child = CallbackValue(fn)
        family._children[_label_items(labels)] = child
        return child

    # -- collection ----------------------------------------------------------

    def families(self) -> List[MetricFamily]:
        return [self._families[name] for name in sorted(self._families)]

    def get(self, name: str) -> Optional[MetricFamily]:
        return self._families.get(name)

    def value(self, name: str, **labels: Any) -> float:
        """Current value of one sample (tests and quick introspection)."""
        family = self._families[name]
        return family.child(_label_items(labels)).value

    def snapshot(self) -> Dict[str, Dict[LabelItems, float]]:
        """Plain-data dump: ``{name: {labels: value}}``."""
        return {
            family.name: {
                labels: instrument.value
                for labels, instrument in family.samples()
            }
            for family in self.families()
        }

    def render_prometheus(self) -> str:
        from repro.telemetry.prometheus import render_prometheus

        return render_prometheus(self)

    def __len__(self) -> int:
        return len(self._families)

    def __contains__(self, name: str) -> bool:
        return name in self._families

    # -- internals -----------------------------------------------------------

    def _family(self, name: str, kind: str, help_text: str) -> MetricFamily:
        family = self._families.get(name)
        if family is None:
            family = MetricFamily(name, kind, help_text)
            self._families[name] = family
        elif family.kind != kind:
            raise ValueError(
                f"metric '{name}' is a {family.kind}, not a {kind}"
            )
        elif help_text and not family.help:
            family.help = help_text
        return family

    def _child(self, name, kind, help_text, labels, make):
        family = self._family(name, kind, help_text)
        key = _label_items(labels)
        child = family._children.get(key)
        if child is None:
            child = make()
            family._children[key] = child
        return child
