"""Per-entity supervision state and the fleet-wide manager.

A :class:`DeviceSupervisor` pairs one bound entity with a circuit
breaker, a last-known-value cache (what ``StalePolicy('last_known')``
serves), and a derived health state:

* ``healthy`` — breaker closed;
* ``degraded`` — breaker open or half-open: the entity is failing but
  still being probed;
* ``quarantined`` — the breaker has tripped ``quarantine_after``
  consecutive times; the entity is hidden from application-level
  discovery (``instances_of`` filters it) until a probe succeeds.

The :class:`SupervisionManager` owns every supervisor of an
application, hands out per-entity seeded RNGs (jitter is deterministic
per entity, not shared), aggregates breaker/stale/quarantine counters,
and exports them through the telemetry registry via the shared
:class:`~repro.telemetry.Instrumented` protocol.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.faults.breaker import CLOSED, CircuitBreaker
from repro.faults.policy import (
    DEGRADED,
    HEALTHY,
    QUARANTINED,
    SupervisionPolicy,
)
from repro.telemetry.instrument import Instrumented, MetricSpec

__all__ = ["DeviceSupervisor", "SupervisionManager"]

_MISS = object()


class DeviceSupervisor:
    """Supervision state for one bound entity."""

    __slots__ = (
        "entity_id",
        "device_type",
        "info",
        "policy",
        "breaker",
        "_clock",
        "_manager",
        "_last_known",
        "_quarantined",
    )

    def __init__(
        self,
        entity_id: str,
        device_type: str,
        policy: SupervisionPolicy,
        clock,
        rng,
        manager: Optional["SupervisionManager"] = None,
        info=None,
    ):
        self.entity_id = entity_id
        self.device_type = device_type
        # Type info is kept so a live policy retune can re-resolve this
        # entity against the new override hierarchy.
        self.info = info
        self.policy = policy
        self._clock = clock
        self._manager = manager
        self.breaker = CircuitBreaker(
            policy, clock, rng, on_transition=self._on_transition
        )
        self._last_known: Dict[str, Tuple[Any, float]] = {}
        self._quarantined = False

    # -- call gating and outcome reporting -----------------------------------

    def allow(self) -> bool:
        """May a read/actuation proceed (breaker gate)?"""
        return self.breaker.allow()

    def record_success(self, source: Optional[str] = None, value=_MISS):
        """A call succeeded; cache the reading for stale service."""
        if source is not None and value is not _MISS:
            self._last_known[source] = (value, self._clock.now())
        self.breaker.record_success()

    def record_failure(self) -> None:
        """A call failed after exhausting its retry budget."""
        self.breaker.record_failure()

    # -- degraded delivery ----------------------------------------------------

    def last_known(
        self, source: str, max_age_seconds: Optional[float] = None
    ):
        """The cached value of ``source`` if fresh enough, else ``None``
        (wrapped so a cached ``None`` reading is distinguishable — the
        return is ``(value, age_seconds)`` or ``None``)."""
        hit = self._last_known.get(source)
        if hit is None:
            return None
        value, stamp = hit
        age = self._clock.now() - stamp
        if max_age_seconds is not None and age > max_age_seconds:
            return None
        return value, age

    # -- health ----------------------------------------------------------------

    @property
    def health(self) -> str:
        if self._quarantined:
            return QUARANTINED
        if self.breaker.state is CLOSED:
            return HEALTHY
        return DEGRADED

    def _on_transition(self, old_state: str, new_state: str) -> None:
        manager = self._manager
        if manager is not None:
            manager._record_transition(self, old_state, new_state)
        threshold = self.policy.quarantine_after
        if new_state == CLOSED:
            if self._quarantined:
                self._quarantined = False
                if manager is not None:
                    manager._record_recovery(self)
        elif (
            threshold is not None
            and not self._quarantined
            and self.breaker.trip_count >= threshold
        ):
            self._quarantined = True
            if manager is not None:
                manager._record_quarantine(self)

    def __repr__(self) -> str:
        return (
            f"<DeviceSupervisor {self.entity_id} {self.health} "
            f"breaker={self.breaker.state}>"
        )


class SupervisionManager(Instrumented):
    """Fleet supervision: policy resolution, health index, counters.

    The application owns one manager.  ``default_policy=None`` keeps the
    legacy behaviour — devices run unsupervised (no breaker, no health
    tracking, no cache) at zero added cost — while per-type
    ``overrides`` can supervise a subset of the fleet.
    """

    metric_specs = (
        MetricSpec(
            "supervision_breaker_opens_total",
            "_opens",
            stats_key="breaker_opens",
            help="Circuit breakers tripped open.",
        ),
        MetricSpec(
            "supervision_breaker_half_opens_total",
            "_half_opens",
            stats_key="breaker_half_opens",
            help="Open windows that elapsed into a half-open probe.",
        ),
        MetricSpec(
            "supervision_breaker_closes_total",
            "_closes",
            stats_key="breaker_closes",
            help="Breakers closed after successful probes.",
        ),
        MetricSpec(
            "supervision_stale_serves_total",
            "_stale_serves",
            stats_key="stale_serves",
            help="Gather readings served from the last-known cache while "
            "the source was dark.",
        ),
        MetricSpec(
            "supervision_quarantines_total",
            "_quarantines",
            stats_key="quarantines",
            help="Entities quarantined out of discovery after repeated "
            "breaker trips.",
        ),
        MetricSpec(
            "supervision_recoveries_total",
            "_recoveries",
            stats_key="recoveries",
            help="Quarantined entities restored to health by a "
            "successful probe.",
        ),
        MetricSpec(
            "supervision_open_breakers",
            "_open_breaker_count",
            kind="gauge",
            help="Breakers currently open or half-open.",
        ),
        MetricSpec(
            "supervision_quarantined_entities",
            "_quarantined_count",
            kind="gauge",
            help="Entities currently quarantined.",
        ),
    )

    def __init__(
        self,
        clock,
        default_policy: Optional[SupervisionPolicy] = None,
        overrides: Optional[Mapping[str, SupervisionPolicy]] = None,
        seed: int = 0,
    ):
        self.clock = clock
        self.default_policy = default_policy
        self.overrides = dict(overrides or {})
        self.seed = seed
        self._supervisors: Dict[str, DeviceSupervisor] = {}
        self._opens = 0
        self._half_opens = 0
        self._closes = 0
        self._stale_serves = 0
        self._quarantines = 0
        self._recoveries = 0

    # -- policy resolution and supervisor lifecycle ---------------------------

    def policy_for(self, info) -> Optional[SupervisionPolicy]:
        """Resolve the policy for a device type (nearest ancestor wins)."""
        for type_name in info.lineage:
            policy = self.overrides.get(type_name)
            if policy is not None:
                return policy
        return self.default_policy

    def supervise(self, instance) -> Optional[DeviceSupervisor]:
        """Create (or return) the supervisor for a bound instance;
        ``None`` when no policy covers its type (legacy behaviour)."""
        existing = self._supervisors.get(instance.entity_id)
        if existing is not None:
            return existing
        policy = self.policy_for(instance.info)
        if policy is None:
            return None
        # Jitter is deterministic per entity: derived from the manager
        # seed and the entity id, independent of binding order.
        rng = random.Random((self.seed, instance.entity_id).__repr__())
        supervisor = DeviceSupervisor(
            instance.entity_id,
            instance.info.name,
            policy,
            self.clock,
            rng,
            manager=self,
            info=instance.info,
        )
        self._supervisors[instance.entity_id] = supervisor
        return supervisor

    def reconfigure(self, default_policy: Optional[SupervisionPolicy]) -> None:
        """Swap the default policy live and retune every supervisor.

        Each existing supervisor re-resolves against the new default
        (per-type overrides are structural and still win); breakers
        keep their state (open stays open, trip counts survive) but
        read thresholds, backoff and quarantine limits from the new
        policy on their next event.  An entity whose resolved policy
        becomes ``None`` keeps its old policy — supervision wiring is
        structural and cannot be torn down live, only retuned.
        Entities bound after the swap resolve against the new default
        from scratch.
        """
        self.default_policy = default_policy
        for supervisor in self._supervisors.values():
            if supervisor.info is None:
                continue
            policy = self.policy_for(supervisor.info)
            if policy is None:
                continue
            supervisor.policy = policy
            supervisor.breaker.policy = policy

    def release(self, entity_id: str) -> None:
        self._supervisors.pop(entity_id, None)

    def supervisor(self, entity_id: str) -> Optional[DeviceSupervisor]:
        return self._supervisors.get(entity_id)

    def health_of(self, entity_id: str) -> str:
        supervisor = self._supervisors.get(entity_id)
        return HEALTHY if supervisor is None else supervisor.health

    # -- accounting (called by supervisors and the gather path) ---------------

    def _record_transition(self, supervisor, old_state, new_state) -> None:
        if new_state == "open":
            self._opens += 1
        elif new_state == "half_open":
            self._half_opens += 1
        elif new_state == "closed":
            self._closes += 1

    def _record_quarantine(self, supervisor) -> None:
        self._quarantines += 1

    def _record_recovery(self, supervisor) -> None:
        self._recoveries += 1

    def record_stale_serve(self) -> None:
        self._stale_serves += 1

    # -- aggregate views -------------------------------------------------------

    def _open_breaker_count(self) -> int:
        return sum(
            1
            for s in self._supervisors.values()
            if s.breaker.state is not CLOSED
        )

    def _quarantined_count(self) -> int:
        return sum(
            1 for s in self._supervisors.values() if s.health == QUARANTINED
        )

    def health_summary(self) -> Dict[str, int]:
        summary = {HEALTHY: 0, DEGRADED: 0, QUARANTINED: 0}
        for supervisor in self._supervisors.values():
            summary[supervisor.health] += 1
        return summary

    def breaker_states(self) -> Dict[str, int]:
        states: Dict[str, int] = {}
        for supervisor in self._supervisors.values():
            state = supervisor.breaker.state
            states[state] = states.get(state, 0) + 1
        return states

    def _extra_stats(self) -> Dict[str, Any]:
        return {
            "supervised": len(self._supervisors),
            "health": self.health_summary(),
            "breaker_states": self.breaker_states(),
        }

    def __len__(self) -> int:
        return len(self._supervisors)
