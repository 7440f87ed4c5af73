"""Entity registry: which devices are bound to the environment.

Registration is the first orchestration activity (*binding entities*,
Section IV): "when sensors are deployed in a house or in a parking lot,
each sensor needs to be registered and attribute values defined".  The
registry indexes instances by device type — including ancestor types, so a
query for ``DisplayPanel`` finds ``ParkingEntrancePanel`` instances — and
notifies listeners, which is how runtime-time binding reaches running
applications.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import attrgetter
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

from repro.errors import BindingError
from repro.faults.policy import HEALTHY, QUARANTINED
from repro.runtime.device import DeviceInstance
from repro.sema.symbols import DeviceInfo
from repro.telemetry.instrument import Instrumented, MetricSpec

HealthLookup = Callable[[str], str]

_failed_flag = attrgetter("_failed")
_registration_of = attrgetter("_registration")


def _splice(members: List[DeviceInstance], instance: DeviceInstance) -> None:
    """Delete ``instance`` from a registration-ordered list (a bisect)."""
    at = bisect_left(members, instance._registration, key=_registration_of)
    if at == len(members) or members[at] is not instance:
        raise BindingError(
            f"entity '{instance.entity_id}' is bound to another registry"
        )
    del members[at]


def splice_column(column, removed_rows, appended):
    """``column`` without the rows ``removed_rows`` (ascending), then
    ``appended``: a sweep column edit
    (:meth:`EntityRegistry.sweep_edit`) applied to any column aligned
    with the old sweep column, in slices.  The result is of the
    column's type (a list, or an ``array`` of positions)."""
    spliced = column[:0]
    start = 0
    for row in removed_rows:
        spliced += column[start:row]
        start = row + 1
    spliced += column[start:]
    spliced += appended
    return spliced


def _removed_rows(column, departures) -> List[int]:
    """The rows of a registration-ordered sweep ``column`` that the
    ``(instance, ordinal at departure)`` pairs unregistered since it
    was copied, ascending.  A member registered again since holds a new
    ordinal, so then each member is bisected by the ordinal its first
    departure carried."""
    key = _registration_of
    if any(instance._registration != at for instance, at in departures):
        first = {id(instance): at for instance, at in reversed(departures)}

        def key(member):
            return first.get(id(member), member._registration)

    rows = []
    for instance, ordinal in departures:
        at = bisect_left(column, ordinal, key=key)
        # Not found: it was bound after the copy.
        if at < len(column) and column[at] is instance:
            rows.append(at)
    rows.sort()
    return rows


class EntityRegistry(Instrumented):
    """Mutable index of bound :class:`DeviceInstance` objects.

    Instances are indexed by type (including ancestors) and by
    ``(type, attribute, value)`` so attribute-filtered discovery over a
    city-scale fleet touches only the matching entities rather than
    scanning the registry.  Attribute values are fixed at registration
    (the paper's binding model), which is what makes the index sound.

    The lookup/index counters are pull-time callback metrics declared
    through the shared :class:`Instrumented` protocol: discovery pays
    nothing per lookup for being observable.
    """

    metric_specs = (
        MetricSpec(
            "registry_lookups_total",
            "_lookups",
            stats_key="lookups",
            help="instances_of() discovery lookups served.",
        ),
        MetricSpec(
            "registry_index_hits_total",
            "_index_hits",
            stats_key="index_hits",
            help="Lookups served from a (type, attribute, value) index "
            "bucket instead of a type scan.",
        ),
        MetricSpec(
            "registry_registrations_total",
            "_registrations",
            stats_key="registrations",
            help="Entities registered over the registry's lifetime.",
        ),
        MetricSpec(
            "registry_unregistrations_total",
            "_unregistrations",
            stats_key="unregistrations",
            help="Entities unregistered over the registry's lifetime.",
        ),
        MetricSpec(
            "registry_entities",
            "__len__",
            kind="gauge",
            stats_key="entities",
            help="Entities currently bound.",
        ),
    )

    def __init__(self, metrics=None):
        self._by_id: Dict[str, DeviceInstance] = {}
        self._by_type: Dict[str, List[DeviceInstance]] = {}
        # (type, attribute) -> value -> instances in registration order
        self._by_attribute: Dict[tuple, Dict[Any, List[DeviceInstance]]] = {}
        self._health_lookup: Optional[HealthLookup] = None
        self._lookups = 0
        self._index_hits = 0
        self._registrations = 0
        self._unregistrations = 0
        self._version = 0
        # sweep_column memo: device type -> (version, column); only
        # kept while no failed flag filters the column, see
        # _sweep_memoizable.  Per memoized type, the members unregistered
        # since its column was copied, with their ordinals then, and how
        # the column was derived from the one before: (previous column,
        # removed rows, tail start), see sweep_edit.
        self._sweep_memo: Dict[str, Tuple[int, List[DeviceInstance]]] = {}
        self._departures: Dict[str, List[Tuple[DeviceInstance, int]]] = {}
        self._sweep_edits: Dict[str, Tuple[list, List[int], int]] = {}
        # device type -> (version, failed_flips) its last flag scan
        # found no failed member at.
        self._unfailed: Dict[str, Tuple[int, int]] = {}
        if metrics is not None:
            self.attach_metrics(metrics)

    @property
    def version(self) -> int:
        """Monotonic binding-change counter (bumped on every register
        and unregister).  Consumers caching values derived from the
        bound population — a shard worker's delta state — capture the
        version at compile time and treat any later binding change as
        expiry."""
        return self._version

    def attach_health(self, lookup: HealthLookup) -> None:
        """Give discovery a health view (entity_id -> health state).

        The application wires its :class:`SupervisionManager` in here;
        without one, every entity reads as healthy and the health
        filters below are no-ops.
        """
        self._health_lookup = lookup

    def health_of(self, entity_id: str) -> str:
        lookup = self._health_lookup
        return HEALTHY if lookup is None else lookup(entity_id)

    def register(self, instance: DeviceInstance) -> DeviceInstance:
        """Bind one instance: a column of one."""
        self.register_column((instance,))
        return instance

    def register_column(self, instances: Sequence[DeviceInstance]) -> None:
        """Bind ``instances``, in column order, all or none: a duplicate
        entity id (inside the column or already bound) raises before
        the column is filed, and leaves the registry as it was.  Then
        ordinals in column order, per run of one declaration one extend
        of each lineage type list, and one version bump for the whole
        column."""
        by_id = self._by_id
        bound = len(by_id)
        claim = by_id.setdefault
        for instance in instances:
            claim(instance.entity_id, instance)
        if len(by_id) - bound != len(instances):
            # A clash claimed nothing: hand back what the column did.
            for __ in range(len(by_id) - bound):
                by_id.popitem()
            seen = set(by_id)
            for entity_id in map(attrgetter("entity_id"), instances):
                if entity_id in seen:
                    raise BindingError(
                        f"entity id '{entity_id}' is already registered"
                    )
                seen.add(entity_id)
        if not instances:
            return
        # Registration order, comparable without walking a type bucket
        # (and what unregister bisects every list above on).
        first = ordinal = self._registrations
        run = 0
        info = instances[0].info
        for instance in instances:
            if instance.info is not info:
                self._file(info, instances[run : ordinal - first])
                run, info = ordinal - first, instance.info
            ordinal += 1
            instance._registration = ordinal
        self._file(info, instances[run:])
        self._registrations = ordinal
        self._version += 1

    def _file(self, info: DeviceInfo, run: Sequence[DeviceInstance]) -> None:
        """File a registered run of ``info`` instances under its lineage
        types and their ``(type, attribute, value)`` buckets."""
        for type_name in info.lineage:
            self._by_type.setdefault(type_name, []).extend(run)
            for attribute in info.attribute_types:
                values = self._by_attribute.setdefault(
                    (type_name, attribute), {}
                )
                for instance in run:
                    value = instance.attributes[attribute]
                    try:
                        bucket = values.get(value)
                    except TypeError:
                        continue  # unhashable: not indexed, see _bucket
                    if bucket is None:
                        bucket = values[value] = []
                    bucket.append(instance)

    def unregister(self, entity_id: str) -> DeviceInstance:
        try:
            instance = self._by_id.pop(entity_id)
        except KeyError:
            raise BindingError(f"no entity with id '{entity_id}'") from None
        for type_name in instance.info.lineage:
            _splice(self._by_type[type_name], instance)
            departures = self._departures.get(type_name)
            if departures is not None:
                departures.append((instance, instance._registration))
                if len(departures) > len(self._sweep_memo[type_name][1]):
                    # More left than the copy held: an unswept type
                    # must not keep what left it.
                    self._forget_sweep(type_name)
            for attribute, value in instance.attributes.items():
                bucket = self._bucket(type_name, attribute, value)
                if bucket is not None:
                    _splice(bucket, instance)
        self._unregistrations += 1
        self._version += 1
        return instance

    def _bucket(self, type_name: str, attribute: str, value: Any):
        """The ``(type, attribute, value)`` index bucket, or None when
        ``value`` is unhashable (array-typed attributes fall back to
        the type-bucket scan)."""
        values = self._by_attribute.get((type_name, attribute), {})
        try:
            return values.get(value, ())
        except TypeError:
            return None

    def get(self, entity_id: str) -> DeviceInstance:
        try:
            return self._by_id[entity_id]
        except KeyError:
            raise BindingError(f"no entity with id '{entity_id}'") from None

    def instances_of(
        self,
        device_type: str,
        *,
        include_failed: bool = False,
        health: Optional[str] = None,
        include_quarantined: bool = False,
        **attribute_filters: Any,
    ) -> List[DeviceInstance]:
        """All instances whose type is ``device_type`` or a subtype of it,
        optionally filtered by exact attribute values.

        **Iteration-order guarantee.**  Results are always returned in
        *registration order* (the order instances were bound), whatever
        index bucket served the lookup — this is the order the
        :class:`~repro.runtime.sweep.SweepEngine` reads a sweep in, so
        it is part of the public contract, not an implementation
        accident.

        The filter arguments (``include_failed``, ``health``,
        ``include_quarantined``) are keyword-only.

        With filters, the narrowest ``(type, attribute, value)`` index
        bucket seeds the scan, so cost tracks the match count rather than
        the fleet size.  Every instance in an index bucket matches that
        bucket's attribute by construction, so only the *other* filters
        are re-checked — with a single indexed filter the scan degenerates
        to the failed-instance check alone.

        Health filtering (supervision layer): by default *quarantined*
        entities are hidden — chronically flapping devices drop out of
        discovery until a successful probe restores them.  Pass
        ``health='degraded'`` (or ``'healthy'``/``'quarantined'``) to
        select one state, or ``include_quarantined=True`` to see the
        whole fleet (the gather path does, so quarantined entities keep
        receiving recovery probes when their breaker half-opens).
        """
        self._lookups += 1
        candidates: Iterable[DeviceInstance]
        buckets = []
        for name, value in attribute_filters.items():
            bucket = self._bucket(device_type, name, value)
            if bucket is None:
                # Unhashable filter value: the index cannot serve it;
                # fall back to scanning the type bucket.
                buckets = []
                break
            buckets.append((name, bucket))
        if buckets:
            self._index_hits += 1
            seed_name, candidates = min(
                buckets, key=lambda bucket: len(bucket[1])
            )
            remaining = [
                (name, value)
                for name, value in attribute_filters.items()
                if name != seed_name
            ]
        else:
            candidates = self._by_type.get(device_type, ())
            remaining = list(attribute_filters.items())
        lookup = self._health_lookup
        check_health = lookup is not None and (
            health is not None or not include_quarantined
        )
        results = []
        for instance in candidates:
            if instance._failed and not include_failed:
                continue
            if check_health:
                state = lookup(instance.entity_id)
                if health is not None:
                    if state != health:
                        continue
                elif state == QUARANTINED and not include_quarantined:
                    continue
            elif health is not None and health != HEALTHY:
                # No health view attached: everything is healthy.
                continue
            if remaining:
                attributes = instance.attributes
                if not all(
                    attributes.get(name) == value for name, value in remaining
                ):
                    continue
            results.append(instance)
        return results

    def distinct_values(
        self, device_type: str, attribute: str
    ) -> Optional[List[Any]]:
        """The values ``attribute`` takes over ``instances_of(
        device_type)``, each once, ordered by the first instance
        carrying it — from the index alone, one bucket head per value;
        ``None`` when the index does not hold every member (unhashable
        values, an attribute only a subtype declares)."""
        values = self._by_attribute.get((device_type, attribute), {})
        if sum(map(len, values.values())) != len(
            self._by_type.get(device_type, ())
        ):
            return None
        self._lookups += 1
        self._index_hits += 1
        firsts = []
        for value, bucket in values.items():
            for instance in bucket:
                if not instance._failed and (
                    self.health_of(instance.entity_id) != QUARANTINED
                ):
                    firsts.append((instance._registration, value))
                    break
        return [value for __, value in sorted(firsts)]

    def sweep_column(self, device_type: str) -> List[DeviceInstance]:
        """The column a sweep of ``device_type`` reads: every bound
        instance of the type (quarantined too) that is not ``failed``,
        in registration order — ``instances_of(device_type,
        include_quarantined=True)``.

        While no member is failed it is a copy of the type list, taken
        once per registry version: the same list object comes back
        until a bind or an unbind, so its identity is what a
        :class:`~repro.runtime.sweep.SweepEngine` cut checks.  Callers
        must treat it as immutable.  Otherwise the filtered column is
        scanned afresh, unmemoized, and the memo is dropped.
        """
        if not self._sweep_memoizable(device_type):
            self._forget_sweep(device_type)
            return self.instances_of(device_type, include_quarantined=True)
        memo = self._sweep_memo.get(device_type)
        if memo is None or memo[0] != self._version:
            column = self._by_type.get(device_type, [])[:]
            if memo is not None:
                old = memo[1]
                removed = _removed_rows(old, self._departures[device_type])
                self._sweep_edits[device_type] = (
                    old,
                    removed,
                    len(old) - len(removed),
                )
            self._departures[device_type] = []
            memo = self._sweep_memo[device_type] = (self._version, column)
        # One discovery lookup served, whoever computed it.
        self._lookups += 1
        return memo[1]

    def sweep_edit(
        self, device_type: str, old_column: List[DeviceInstance]
    ) -> Optional[Tuple[List[int], int]]:
        """How the current sweep column of ``device_type`` was derived
        from ``old_column``, as ``(removed_rows, tail_start)``: drop the
        ascending ``removed_rows`` of ``old_column``, and what follows
        is the current column from ``tail_start`` on (registration
        order is append-only, so whatever was bound since is a tail) —
        :func:`splice_column`.  ``None`` unless the current column is
        the memoized copy taken right after ``old_column`` (the very
        list): not across a column a ``failed`` flag filtered, nor
        across a copy the caller did not see."""
        edit = self._sweep_edits.get(device_type)
        if edit is None or edit[0] is not old_column:
            return None
        return edit[1], edit[2]

    def _forget_sweep(self, device_type: str) -> None:
        """Drop the sweep memo of ``device_type`` and what edits it."""
        self._sweep_memo.pop(device_type, None)
        self._departures.pop(device_type, None)
        self._sweep_edits.pop(device_type, None)

    def _sweep_memoizable(self, device_type: str) -> bool:
        """Is the sweep column of ``device_type`` a pure function of the
        registry version right now?

        Not while any instance of the type carries a ``failed`` flag
        (the flag flips without a version bump, and the column leaves
        the member out).  The flag scan is one attribute load per
        instance with no Python frame per instance, and it runs once
        per registry version and
        :attr:`~repro.runtime.device.DeviceInstance.failed_flips`: a
        scan that found no failed member holds until a bind, an unbind
        or a flag write.  Health needs no check: a sweep reads the
        quarantined too.
        """
        stamp = (self._version, DeviceInstance.failed_flips)
        if self._unfailed.get(device_type) == stamp:
            return True
        if any(map(_failed_flag, self._by_type.get(device_type, ()))):
            return False
        self._unfailed[device_type] = stamp
        return True

    def __len__(self) -> int:
        return len(self._by_id)

    def __contains__(self, entity_id: str) -> bool:
        return entity_id in self._by_id

    def __iter__(self):
        return iter(self._by_id.values())

    def entity_ids(self) -> List[str]:
        return sorted(self._by_id)

    def clear(self) -> None:
        for entity_id in list(self._by_id):
            self.unregister(entity_id)
