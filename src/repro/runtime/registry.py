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
from itertools import count
from operator import attrgetter
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.errors import BindingError
from repro.faults.policy import HEALTHY, QUARANTINED
from repro.runtime.device import DeviceInstance
from repro.telemetry.instrument import Instrumented, MetricSpec

Listener = Callable[[str, DeviceInstance], None]
HealthLookup = Callable[[str], str]

_failed_flag = attrgetter("failed")
_info_of = attrgetter("info")
_registration_of = attrgetter("_registration")


def _splice(members: List[DeviceInstance], instance: DeviceInstance) -> None:
    """Delete ``instance`` from a registration-ordered list (a bisect)."""
    at = bisect_left(members, instance._registration, key=_registration_of)
    if at == len(members) or members[at] is not instance:
        raise BindingError(
            f"entity '{instance.entity_id}' is bound to another registry"
        )
    del members[at]


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
        self._listeners: List[Listener] = []
        self._health_lookup: Optional[HealthLookup] = None
        self._lookups = 0
        self._index_hits = 0
        self._registrations = 0
        self._unregistrations = 0
        self._version = 0
        # iter_shards memo: argument tuple -> (version, partition).
        # Only consulted/populated when per-instance state (failed
        # flags, health views) cannot filter the partition — see
        # _shards_memoizable.
        self._shard_memo: Dict[Tuple[Any, ...], Tuple[int, Any]] = {}
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
        """Bind an instance; rejects duplicate entity ids."""
        if instance.entity_id in self._by_id:
            raise BindingError(
                f"entity id '{instance.entity_id}' is already registered"
            )
        self._by_id[instance.entity_id] = instance
        for type_name in (instance.info.name, *instance.info.ancestors):
            self._by_type.setdefault(type_name, []).append(instance)
            for attribute, value in instance.attributes.items():
                values = self._by_attribute.setdefault(
                    (type_name, attribute), {}
                )
                try:
                    values.setdefault(value, []).append(instance)
                except TypeError:
                    pass  # unhashable: not indexed, see _bucket
        self._registrations += 1
        # Registration order, comparable without walking a type bucket
        # (and what unregister bisects every list above on).
        instance._registration = self._registrations
        self._version += 1
        for listener in list(self._listeners):
            listener("register", instance)
        return instance

    def unregister(self, entity_id: str) -> DeviceInstance:
        try:
            instance = self._by_id.pop(entity_id)
        except KeyError:
            raise BindingError(f"no entity with id '{entity_id}'") from None
        for type_name in (instance.info.name, *instance.info.ancestors):
            _splice(self._by_type[type_name], instance)
            for attribute, value in instance.attributes.items():
                bucket = self._bucket(type_name, attribute, value)
                if bucket is not None:
                    _splice(bucket, instance)
        self._unregistrations += 1
        self._version += 1
        for listener in list(self._listeners):
            listener("unregister", instance)
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
        index bucket served the lookup — this is the deterministic
        order the :class:`~repro.runtime.sweep.SweepEngine` merges
        threaded sweep results back into, so it is part of the public
        contract, not an implementation accident.

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
            if instance.failed and not include_failed:
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
                if not instance.failed and (
                    self.health_of(instance.entity_id) != QUARANTINED
                ):
                    firsts.append((instance._registration, value))
                    break
        return [value for __, value in sorted(firsts)]

    def iter_shards(
        self,
        device_type: str,
        *,
        attribute: Optional[str] = None,
        include_failed: bool = False,
        include_quarantined: bool = False,
    ) -> List[Tuple[str, List[int], List[DeviceInstance]]]:
        """Instances of ``device_type`` partitioned into deterministic
        shards for sweep fan-out.

        Shards are keyed by the value of one registry-indexed attribute
        (``attribute``, or the device type's first declared attribute
        when ``None``; attribute-less types collapse to one ``""``
        shard).  Only shards with at least one member exist, and shard
        order is the registration order of each shard's first instance.

        Each shard is ``(key, positions, instances)``: two aligned
        columns, where a ``position`` is the member's index in the
        registration-ordered ``instances_of`` result — shards may
        interleave in registration order, and the positions are what
        lets the :class:`~repro.runtime.sweep.SweepEngine` (and the
        sharded runtime's coordinator) merge per-shard results back
        into the exact registry iteration order.  Instances keep
        registration order within their shard.
        """
        # Partition memo: at fleet scale re-deriving the shard lists
        # every sweep dominates the sweep's own bookkeeping, yet the
        # partition is a pure function of the registry contents
        # whenever no per-instance state (failed flags, health views)
        # can filter members out.  In that case one version compare
        # plus a flag scan replaces the whole rebuild; callers must
        # treat the returned partition as immutable.
        memo_key = (
            device_type,
            attribute,
            include_failed,
            include_quarantined,
        )
        if not self._shards_memoizable(
            device_type, include_failed, include_quarantined
        ):
            return self._scan_shards(
                self.instances_of(
                    device_type,
                    include_failed=include_failed,
                    include_quarantined=include_quarantined,
                ),
                attribute,
            )
        memo = self._shard_memo.get(memo_key)
        if memo is None or memo[0] != self._version:
            # Nothing filters members: the partition is the
            # (type, attribute) index, when that holds every member.
            members = self._by_type.get(device_type, [])
            result = self._index_shards(device_type, attribute, members)
            if result is None:
                result = self._scan_shards(members, attribute)
            memo = self._shard_memo[memo_key] = (self._version, result)
        # One discovery lookup served, whoever computed it.
        self._lookups += 1
        return memo[1]

    @staticmethod
    def _scan_shards(instances, attribute: Optional[str]):
        """Partition a registration-ordered instance column by reading
        every member's attribute record."""
        grouped: Dict[str, Tuple[List[int], List[DeviceInstance]]] = {}
        for position, instance in enumerate(instances):
            name = attribute
            if name is None:
                name = next(iter(instance.info.attributes), None)
            value = (
                instance.attributes.get(name, "") if name is not None else ""
            )
            shard = grouped.get(str(value))
            if shard is None:
                shard = grouped[str(value)] = ([], [])
            shard[0].append(position)
            shard[1].append(instance)
        return [(key, *columns) for key, columns in grouped.items()]

    def _index_shards(self, device_type: str, attribute, members):
        """The partition of the unfiltered ``members`` column as the
        ``(type, attribute)`` index already holds it — each bucket is a
        shard in registration order — or ``None`` when the index cannot
        stand in for the scan: it misses members (unhashable values, an
        attribute only a subtype declares), members disagree on their
        first declared attribute, or two values could share one ``str``
        shard key (only same-typed ``str`` / ``int`` values cannot)."""
        if not members:
            return None
        if attribute is None:
            infos = list(map(_info_of, members))
            firsts = {
                next(iter(info.attributes), None)
                for info in dict(zip(map(id, infos), infos)).values()
            }
            if len(firsts) != 1:
                return None
            (attribute,) = firsts
        values = self._by_attribute.get((device_type, attribute), {})
        if sum(map(len, values.values())) != len(members):
            return None
        if set(map(type, values)) not in ({str}, {int}):
            return None
        self._index_hits += 1
        position_of = dict(zip(members, count()))
        shards = [
            (str(value), list(map(position_of.__getitem__, bucket)), bucket[:])
            for value, bucket in values.items()
            if bucket
        ]
        shards.sort(key=lambda shard: shard[1][0])  # first position
        return shards

    def _shards_memoizable(
        self,
        device_type: str,
        include_failed: bool,
        include_quarantined: bool,
    ) -> bool:
        """Is the iter_shards partition a pure function of the registry
        version right now?

        Not when a health view is attached and quarantined instances
        would be excluded, and not when any instance of the type
        carries a failed flag that ``include_failed=False`` would
        filter (the flag flips without a version bump).  The flag scan
        is one attribute load per instance, with no Python frame per
        instance — two orders of magnitude cheaper than rebuilding the
        partition.
        """
        if self._health_lookup is not None and not include_quarantined:
            return False
        if not include_failed and any(
            map(_failed_flag, self._by_type.get(device_type, ()))
        ):
            return False
        return True

    def add_listener(self, listener: Listener) -> Callable[[], None]:
        """Subscribe to register/unregister events; returns a remover."""
        self._listeners.append(listener)

        def remove() -> None:
            if listener in self._listeners:
                self._listeners.remove(listener)

        return remove

    def __len__(self) -> int:
        return len(self._by_id)

    def __iter__(self):
        return iter(self._by_id.values())

    def entity_ids(self) -> List[str]:
        return sorted(self._by_id)

    def clear(self) -> None:
        for entity_id in list(self._by_id):
            self.unregister(entity_id)
