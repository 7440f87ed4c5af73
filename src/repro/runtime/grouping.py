"""Partitioning and windowed accumulation for gathered sensor data.

Implements the two data-shaping constructs of Figure 8:

* ``grouped by <attribute>`` — "requires these statuses to be split into
  (or grouped by) parking lots": readings gathered in one periodic sweep
  are partitioned by a device attribute (:func:`group_readings`), whose
  column of keys :class:`KeyColumns` keeps per sweep column;
* ``every <24 hr>`` — the ``AverageOccupancy`` context gathers every
  10 minutes but publishes once per 24-hour window; the
  :class:`WindowAccumulator` buffers successive grouped deliveries and
  releases them when the window completes.

Accumulation semantics: without MapReduce the per-delivery reading lists
are concatenated per group (the handler sees every reading of the window);
with MapReduce each delivery contributes its *reduced* value, so the
handler sees one value per delivery per group.

Buffered accumulation keeps O(readings-per-window) state — fine for a
house, linear-in-city-scale for the paper's parking study (thousands of
sensors x 144 sweeps per day).  The *incremental* mode
(:meth:`WindowAccumulator.incremental_for_job`) instead folds every
delivery through the job's ``combine`` (or ``reduce``) as it arrives,
keeping exactly one partial aggregate per group; the handler receives
``{group: folded_value}`` when the window closes.  Incremental mode
requires an associative fold — non-associative handlers (medians,
order-sensitive analyses) must stay buffered.
"""

from __future__ import annotations

from itertools import chain, islice
from operator import attrgetter, itemgetter, lt
from typing import Any, Callable, Dict, Hashable, Iterable, List, Optional, Tuple

from repro.errors import BindingError
from repro.mapreduce.api import FoldCollector, job_combiner
from repro.mapreduce.partition import extend_each
from repro.runtime.device import DeviceInstance
from repro.runtime.plan import missing
from repro.runtime.registry import splice_column
from repro.telemetry.instrument import Instrumented, MetricSpec

Fold = Callable[[Hashable, Any, Any], Any]
_attributes_of = attrgetter("attributes")
_first = itemgetter(0)


def no_group_attribute(instance, attribute: str) -> BindingError:
    """The error every grouping path raises for an entity that lacks
    the ``grouped by`` attribute (built only on that path, so the
    per-reading loops pay nothing for sharing it)."""
    return BindingError(
        f"entity '{instance.entity_id}' has no attribute "
        f"'{attribute}' to group by"
    )


def group_key_column(instances, attribute: str) -> List[Hashable]:
    """Every instance's ``grouped by`` key, as one column."""
    try:
        return list(map(itemgetter(attribute), map(_attributes_of, instances)))
    except KeyError:
        for instance in instances:
            if attribute not in instance.attributes:
                raise no_group_attribute(instance, attribute) from None
        raise


def group_readings(keys, table, values) -> Dict[Hashable, List[Any]]:
    """Partition a sweep's ``values`` by the aligned ``keys`` column
    (:meth:`KeyColumns.keys`), in the key order of the group ``table``
    (:meth:`KeyColumns.groups`): first encounter in registration order,
    which keeps periodic deliveries deterministic."""
    grouped: Dict[Hashable, List[Any]] = {key: [] for key in table}
    extend_each(keys, grouped, values)
    return grouped


class KeyColumns:
    """What grouping needs of one sweep ``column``: the ``positions``
    of its rows (global registration positions in a shard worker, the
    row indexes in a process) and, per ``grouped by`` attribute, derived
    on first use, the key column and the group table with the row order.
    The column's sweep cut holds them
    (:meth:`~repro.runtime.sweep.SweepEngine.key_columns`), shared by
    every gather over the column: do not mutate."""

    __slots__ = ("column", "positions", "_keys", "_groups")

    def __init__(self, column, positions, keys):
        self.column = column
        self.positions = positions
        self._keys: Dict[str, List[Hashable]] = keys
        self._groups: Dict[str, Tuple[Dict[Hashable, List[int]], list]] = {}

    def keys(self, attribute: str) -> List[Hashable]:
        """Each row's ``grouped by`` key (:func:`group_key_column`)."""
        if attribute not in self._keys:
            self._keys[attribute] = group_key_column(self.column, attribute)
        return self._keys[attribute]

    def groups(self, attribute: str):
        """``(table, order)``: each group key's rows by position, keys
        in the order of their first position, and those rows one group
        after the other — the ``(group rank, position)`` order a
        MapReduce job maps the sweep in."""
        groups = self._groups.get(attribute)
        if groups is None:
            keys = ranked = self.keys(attribute)
            rows = range(len(keys))
            positions = self.positions
            if type(positions) is not range and not all(
                map(lt, positions, islice(positions, 1, None))
            ):
                # A worker bound someone at a freed, lower position.
                rows = sorted(rows, key=positions.__getitem__)
                ranked = list(map(keys.__getitem__, rows))
            table = {key: [] for key in dict.fromkeys(ranked)}
            extend_each(ranked, table, rows)
            order = list(chain.from_iterable(table.values()))
            if order == list(range(len(order))):
                order = range(len(order))  # the groups are contiguous
            groups = self._groups[attribute] = table, order
        return groups

    def firsts(self, attribute: str) -> Dict[Hashable, int]:
        """Each group key's first position, in table order."""
        table = self.groups(attribute)[0]
        rows = map(_first, table.values())
        return dict(zip(table, map(self.positions.__getitem__, rows)))

    def spliced(self, column, removed, start, positions) -> "KeyColumns":
        """These key columns carried over to ``column``: this one
        without its ascending ``removed`` rows, then from ``start`` on
        the rows bound since, at ``positions`` (``None``: row indexes) —
        the registry's column edit
        (:meth:`~repro.runtime.registry.EntityRegistry.sweep_edit`).
        Only the rows bound since are asked their keys."""
        appended = column[start:]
        if positions is None:
            positions = range(len(column))
        else:
            positions = splice_column(self.positions, removed, positions)
        keys = {
            attribute: splice_column(
                keys, removed, group_key_column(appended, attribute)
            )
            for attribute, keys in self._keys.items()
        }
        return KeyColumns(column, positions, keys)


def group_readings_planned(
    readings: Iterable[Tuple[DeviceInstance, Any]],
    membership: Dict[str, Any],
    attribute: str,
) -> Dict[Hashable, List[Any]]:
    """Partition readings through a membership table (entity id →
    attribute value, :func:`~repro.runtime.plan.missing` for an entity
    without the attribute, which raises the same :class:`BindingError`
    as :func:`group_readings`).

    Nothing in the runtime calls it: the gather path groups with
    :func:`group_readings`, which measured faster on a 10 000-sensor
    registry than a dict probe per reading.  It stays because the e2e
    benchmark's tracer names it as a ``grouping.group`` target.
    """
    sentinel = missing()
    grouped: Dict[Hashable, List[Any]] = {}
    for instance, value in readings:
        key = membership.get(instance.entity_id, sentinel)
        if key is sentinel:
            raise no_group_attribute(instance, attribute)
        grouped.setdefault(key, []).append(value)
    return grouped


def fold_for_job(job: Any) -> Fold:
    """Build an incremental fold from a MapReduce job.

    The fold runs the job's ``combine`` hook when it defines one, else
    its ``reduce`` phase, over the two-element list ``[accumulated,
    new_value]`` and takes the single pair it emits.  Associativity of
    the phase is what makes this equal to reducing the whole buffered
    window at once.
    """
    phase = job_combiner(job) or job.reduce

    def fold(key: Hashable, accumulated: Any, value: Any) -> Any:
        collector = FoldCollector()
        phase(key, [accumulated, value], collector)
        pairs = collector.pairs
        if len(pairs) != 1:
            raise ValueError(
                f"incremental fold for key {key!r} must emit exactly one "
                f"pair, got {len(pairs)}"
            )
        return pairs[0][1]

    return fold


class WindowAccumulator(Instrumented):
    """Accumulates grouped deliveries until a window's worth has arrived.

    The window length is expressed in *deliveries*: a 24-hour window over
    a 10-minute period completes after 144 deliveries.  Delivery counting
    (rather than timestamp comparison) keeps behaviour exact under the
    simulation clock and robust to jitter under a wall clock.

    Two modes:

    * **buffered** (default, ``fold=None``) — concatenate each
      delivery's per-group value lists; the completed window maps each
      group to the full value list.
    * **incremental** (``fold`` given) — fold each delivery's per-group
      value into one partial aggregate per group; the completed window
      maps each group to its folded value.  State is O(groups)
      regardless of the number of deliveries or readings.
    """

    metric_specs = (
        MetricSpec(
            "window_deliveries_total",
            "_deliveries",
            stats_key="deliveries",
            help="Periodic deliveries absorbed into windows.",
        ),
        MetricSpec(
            "window_closes_total",
            "_closed_windows",
            stats_key="closed_windows",
            help="Windows completed and released to the handler.",
        ),
        MetricSpec(
            "window_pending_deliveries",
            "_count",
            kind="gauge",
            stats_key="pending_deliveries",
            help="Deliveries absorbed into the currently open window.",
        ),
        MetricSpec(
            "window_buffered_values",
            "_buffered_values",
            kind="gauge",
            stats_key="buffered_values",
            help="Values currently held by the open window.",
        ),
        MetricSpec(
            "window_peak_buffered_values",
            "_peak_buffered_values",
            kind="gauge",
            stats_key="peak_buffered_values",
            help="High-water mark of values held at once.",
        ),
    )

    def __init__(
        self,
        deliveries_per_window: int,
        fold: Optional[Fold] = None,
    ):
        if deliveries_per_window < 1:
            raise ValueError("a window must span at least one delivery")
        self.deliveries_per_window = deliveries_per_window
        self.fold = fold
        self._buffer: Dict[Hashable, Any] = {}
        self._count = 0
        self._buffered_values = 0
        self._peak_buffered_values = 0
        self._deliveries = 0
        self._closed_windows = 0

    @classmethod
    def for_design(
        cls, period_seconds: float, window_seconds: float
    ) -> "WindowAccumulator":
        deliveries = max(1, round(window_seconds / period_seconds))
        return cls(deliveries)

    @classmethod
    def incremental_for_job(
        cls,
        period_seconds: float,
        window_seconds: float,
        job: Any,
    ) -> "WindowAccumulator":
        """Incremental accumulator folding deliveries through ``job``.

        ``job`` is any MapReduce implementation (a context declaring
        ``with map ... reduce ...``); its ``combine`` hook is preferred,
        its ``reduce`` phase is the fallback.
        """
        deliveries = max(1, round(window_seconds / period_seconds))
        return cls(deliveries, fold=fold_for_job(job))

    @property
    def incremental(self) -> bool:
        return self.fold is not None

    def add(self, grouped: Dict[Hashable, Any]):
        """Absorb one delivery; returns the accumulated window when it
        completes, else None."""
        if self.fold is not None:
            self._add_incremental(grouped)
        else:
            self._add_buffered(grouped)
        self._peak_buffered_values = max(
            self._peak_buffered_values, self._buffered_values
        )
        self._count += 1
        self._deliveries += 1
        if self._count < self.deliveries_per_window:
            return None
        window, self._buffer = self._buffer, {}
        self._count = 0
        self._buffered_values = 0
        self._closed_windows += 1
        return window

    def _add_buffered(self, grouped: Dict[Hashable, Any]) -> None:
        for key, values in grouped.items():
            self._buffer.setdefault(key, []).extend(values)
            self._buffered_values += len(values)

    def _add_incremental(self, grouped: Dict[Hashable, Any]) -> None:
        buffer = self._buffer
        fold = self.fold
        for key, value in grouped.items():
            if key in buffer:
                buffer[key] = fold(key, buffer[key], value)
            else:
                buffer[key] = value
                self._buffered_values += 1

    @property
    def pending_deliveries(self) -> int:
        return self._count

    @property
    def peak_buffered_values(self) -> int:
        """High-water mark of values held at once — O(readings) buffered,
        O(groups) incremental; the delivery benchmarks report it."""
        return self._peak_buffered_values

    def _extra_stats(self) -> Dict[str, Any]:
        return {
            "mode": "incremental" if self.incremental else "buffered",
            "deliveries_per_window": self.deliveries_per_window,
        }
