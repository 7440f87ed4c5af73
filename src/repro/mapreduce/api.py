"""The MapReduce programming interface of the generated frameworks.

Mirrors Figure 10 of the paper: an implementation provides

* ``map(key, value, collector)`` — called once per gathered reading with
  the grouping attribute as key (the parking lot) and the raw reading as
  value; emits intermediate key/value pairs via
  :meth:`MapCollector.emit_map`;
* ``reduce(key, values, collector)`` — called once per intermediate key
  with the list of values the Map phase emitted for it; emits final
  results via :meth:`ReduceCollector.emit_reduce`.

The engine groups intermediate pairs between the phases exactly as the
paper describes ("intermediate results from the Map phase are grouped into
a list by the generated framework").

A job may additionally provide the optional combiner hook

* ``combine(key, values, collector)`` — a "mini-reduce" the executors run
  per map chunk, *before* partitioning, collapsing each chunk's
  intermediate pairs to one partial aggregate per key.  Shuffle volume
  then scales with the number of groups instead of the number of
  readings, which is what makes city-scale gathering (thousands of
  sensors, a handful of lots) cheap.  The hook must be associative and
  its output values must be acceptable inputs to ``reduce`` — for the
  canonical counting job: map emits ``1`` per match, combine and reduce
  both sum.
"""

from __future__ import annotations

from typing import Any, Hashable, List, Optional, Tuple


class _PairCollector:
    """Base collector: an ordered list of emitted key/value pairs."""

    __slots__ = ("_pairs",)

    def __init__(self):
        self._pairs: List[Tuple[Hashable, Any]] = []

    def emit(self, key: Hashable, value: Any) -> None:
        self._pairs.append((key, value))

    @property
    def pairs(self) -> List[Tuple[Hashable, Any]]:
        return self._pairs


class MapCollector(_PairCollector):
    """Collects intermediate key/value pairs emitted by the Map phase."""

    __slots__ = ()

    emit_map = _PairCollector.emit


class CombineCollector(_PairCollector):
    """Collects partial aggregates emitted by the optional Combine phase."""

    __slots__ = ()

    emit_combine = _PairCollector.emit


class ReduceCollector(_PairCollector):
    """Collects final key/value pairs emitted by the Reduce phase."""

    __slots__ = ()

    emit_reduce = _PairCollector.emit


class FoldCollector(_PairCollector):
    """Accepts emissions from any phase.

    Used where one callback may be served by either ``combine`` or
    ``reduce`` (incremental window accumulation folds deliveries through
    whichever the job provides).
    """

    __slots__ = ()

    emit_map = _PairCollector.emit
    emit_combine = _PairCollector.emit
    emit_reduce = _PairCollector.emit


class MapReduce:
    """Interface implemented by contexts that declare ``with map ...
    reduce ...``.

    The default phases implement the *identity* job: map re-emits each
    reading under its group key and reduce re-emits the value list, so a
    context that only wants grouping can inherit the defaults.

    ``combine`` defaults to ``None`` (disabled); subclasses opt in by
    defining it as a method.
    """

    #: Optional combiner hook; override with a method
    #: ``combine(self, key, values, collector)`` to enable map-side
    #: partial aggregation.
    combine = None

    def map(self, key: Hashable, value: Any, collector: MapCollector) -> None:
        collector.emit_map(key, value)

    def reduce(
        self, key: Hashable, values: List[Any], collector: ReduceCollector
    ) -> None:
        collector.emit_reduce(key, values)


def job_combiner(job: Any) -> Optional[Any]:
    """The job's combine hook when enabled, else None.

    Accepts any object with a callable ``combine`` attribute, so duck
    typed jobs (contexts that do not subclass :class:`MapReduce`) work
    the same as subclasses.
    """
    combine = getattr(job, "combine", None)
    return combine if callable(combine) else None
