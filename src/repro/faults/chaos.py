"""Deterministic chaos injection: fault plans, wrapped drivers, reports.

A :class:`FaultPlan` is a seeded, declarative script of fault events on
the *application clock* — outages, added latency, connection flapping —
targeted at device types or explicit entities.  A :class:`ChaosInjector`
applies the plan to a running application by wrapping the targeted
instances' drivers; nothing else in the runtime knows chaos exists, so
the supervision layer is exercised exactly as a real deployment would
exercise it.

Everything is deterministic: target selection samples from *sorted*
entity ids with a generator seeded from the plan seed, fault activity is
a pure function of ``clock.now()``, and an empty (or expired) plan is
observationally identical to running without an injector — a property
the test suite pins down.

:func:`run_parking_chaos` drives the paper's parking study through a
sensor-kill scenario and returns a JSON-able recovery report; it backs
the ``repro chaos`` CLI command and the CI chaos smoke job.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import DeviceUnavailableError
from repro.runtime.device import DeviceDriver, batches

__all__ = [
    "ChaosBatchDriver",
    "ChaosDriver",
    "ChaosInjector",
    "FaultEvent",
    "FaultPlan",
    "run_parking_chaos",
]

OUTAGE = "outage"
LATENCY = "latency"
FLAP = "flap"
_KINDS = (OUTAGE, LATENCY, FLAP)


@dataclass(frozen=True)
class FaultEvent:
    """One scripted fault.

    * ``outage`` — every read/actuation on a target raises
      :class:`~repro.errors.DeviceUnavailableError` for the window;
    * ``latency`` — reads report ``latency_seconds`` of injected delay
      (surfaced through ``ChaosDriver.last_injected_latency``, which the
      device read path adds to its measured elapsed time — no wall-clock
      sleeping, so simulations stay fast and exact);
    * ``flap`` — the target alternates down/up every ``flap_period``
      seconds within the window, starting down.

    Targets are ``entity_ids`` when given, else a deterministic sample
    of ``fraction`` of the instances of ``device_type`` (and subtypes).
    """

    kind: str
    start: float
    duration: float
    device_type: Optional[str] = None
    entity_ids: Optional[Tuple[str, ...]] = None
    fraction: float = 1.0
    latency_seconds: float = 0.0
    flap_period: float = 60.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"fault kind must be one of {_KINDS}")
        if self.duration <= 0:
            raise ValueError("fault duration must be > 0")
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        if self.device_type is None and self.entity_ids is None:
            raise ValueError("a fault must target a device_type or entity_ids")
        if self.kind == FLAP and self.flap_period <= 0:
            raise ValueError("flap_period must be > 0")

    @property
    def end(self) -> float:
        return self.start + self.duration

    def active_at(self, now: float) -> bool:
        """Is the fault *effective* at ``now``?  (A flap that is in its
        'up' half-period is not effective even though the event spans
        ``now``.)"""
        if not self.start <= now < self.end:
            return False
        if self.kind == FLAP:
            phase = int((now - self.start) / self.flap_period)
            return phase % 2 == 0
        return True


class FaultPlan:
    """A seeded, ordered script of :class:`FaultEvent` records.

    Builder-style: ``FaultPlan(seed=7).outage("PresenceSensor",
    start=1800, duration=1800, fraction=0.3)``.  The seed drives every
    random choice the injector makes (which 30% of the sensors die), so
    a (seed, plan, design) triple replays the same run bit for bit.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.events: List[FaultEvent] = []

    def add(self, event: FaultEvent) -> "FaultPlan":
        self.events.append(event)
        return self

    def outage(
        self,
        device_type: Optional[str] = None,
        start: float = 0.0,
        duration: float = 60.0,
        fraction: float = 1.0,
        entity_ids: Optional[Sequence[str]] = None,
    ) -> "FaultPlan":
        return self.add(
            FaultEvent(
                OUTAGE,
                start,
                duration,
                device_type=device_type,
                fraction=fraction,
                entity_ids=tuple(entity_ids) if entity_ids else None,
            )
        )

    def latency(
        self,
        device_type: Optional[str] = None,
        start: float = 0.0,
        duration: float = 60.0,
        latency_seconds: float = 1.0,
        fraction: float = 1.0,
        entity_ids: Optional[Sequence[str]] = None,
    ) -> "FaultPlan":
        return self.add(
            FaultEvent(
                LATENCY,
                start,
                duration,
                device_type=device_type,
                fraction=fraction,
                latency_seconds=latency_seconds,
                entity_ids=tuple(entity_ids) if entity_ids else None,
            )
        )

    def flap(
        self,
        device_type: Optional[str] = None,
        start: float = 0.0,
        duration: float = 60.0,
        flap_period: float = 60.0,
        fraction: float = 1.0,
        entity_ids: Optional[Sequence[str]] = None,
    ) -> "FaultPlan":
        return self.add(
            FaultEvent(
                FLAP,
                start,
                duration,
                device_type=device_type,
                fraction=fraction,
                flap_period=flap_period,
                entity_ids=tuple(entity_ids) if entity_ids else None,
            )
        )

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)


class ChaosDriver(DeviceDriver):
    """Transparent driver wrapper applying one entity's fault schedule.

    With no active fault it is pure delegation, which is what makes an
    empty plan a no-op.  ``last_injected_latency`` is the virtual delay
    of the most recent read; :meth:`DeviceInstance.read` adds it to the
    measured elapsed time before the timeout check, so scripted latency
    interacts with ``expect timeout`` declarations without any real
    sleeping.  It reads one entity at a time, like the driver it wraps
    unless that one reads columns (:class:`ChaosBatchDriver`).
    """

    def __init__(
        self, inner: DeviceDriver, injector: "ChaosInjector", entity_id: str
    ):
        self.inner = inner
        self.injector = injector
        self.entity_id = entity_id
        self.last_injected_latency = 0.0

    def _check(self) -> None:
        self.last_injected_latency = 0.0
        now = self.injector.clock.now()
        for event in self.injector.events_for(self.entity_id):
            if not event.active_at(now):
                continue
            if event.kind == LATENCY:
                self.last_injected_latency += event.latency_seconds
                self.injector.injected_latency_reads += 1
            else:  # outage / flap-down
                self.injector.injected_failures += 1
                raise DeviceUnavailableError(
                    f"chaos {event.kind}: '{self.entity_id}' is down "
                    f"({event.start:g}s-{event.end:g}s)",
                    entity_id=self.entity_id,
                )

    def read(self, source: str) -> Any:
        self._check()
        return self.inner.read(source)

    def invoke(self, action: str, **params: Any) -> Any:
        self._check()
        return self.inner.invoke(action, **params)

    def push(self, source: str, value: Any, index: Any = None) -> None:
        self.inner.push(source, value, index=index)


class ChaosBatchDriver(ChaosDriver):
    """A :class:`ChaosDriver` around a driver that reads columns: the
    wrapper keeps that capability, and its batch reads see the faults
    instead of silently bypassing them."""

    last_injected_batch_latency = 0.0

    def batch_key(self, source: str):
        """Delegate cohort identity to the wrapped driver: chaos-wrapped
        instances whose inner drivers share a substrate keep sharing
        it, so batching survives injection."""
        return self.inner.batch_key(source)

    def read_batch(self, entity_ids, source: str):
        """Batch read with the cohort's combined fault schedule applied.

        Outage/flap-down on *any* member fails the whole batch (one RPC,
        one failure), demoting the cohort to scalar reads where
        per-entity supervision takes over.  Latency faults are absorbed:
        the batch inherits the **worst** member's injected delay
        (``last_injected_batch_latency``) but is not subject to the
        per-entity read timeout — a single scripted straggler slows the
        entire cohort without tripping any breaker.  That masked-
        straggler pathology is exactly what ``batch.min_column`` tuning
        trades off against per-read dispatch overhead.
        """
        self.last_injected_batch_latency = 0.0
        now = self.injector.clock.now()
        injected = 0.0
        for member in entity_ids:
            for event in self.injector.events_for(member):
                if not event.active_at(now):
                    continue
                if event.kind == LATENCY:
                    injected = max(injected, event.latency_seconds)
                else:  # outage / flap-down
                    self.injector.injected_failures += 1
                    raise DeviceUnavailableError(
                        f"chaos {event.kind}: '{member}' is down "
                        f"({event.start:g}s-{event.end:g}s)",
                        entity_id=member,
                    )
        if injected:
            self.injector.injected_latency_reads += 1
        self.last_injected_batch_latency = injected
        return self.inner.read_batch(entity_ids, source)


class ChaosInjector:
    """Applies a :class:`FaultPlan` to a running application.

    ``attach()`` resolves each event's targets (deterministically) and
    wraps the targeted instances' drivers; ``detach()`` restores them.
    The injector never touches the clock — fault windows activate as the
    application's own time passes.
    """

    def __init__(self, application, plan: FaultPlan):
        self.application = application
        self.plan = plan
        self.clock = application.clock
        self.injected_failures = 0
        self.injected_latency_reads = 0
        self._targets: Dict[str, List[FaultEvent]] = {}
        self._wrapped: Dict[str, Tuple[Any, DeviceDriver]] = {}

    # -- target resolution ----------------------------------------------------

    def _resolve_targets(self, event: FaultEvent, index: int) -> List[str]:
        if event.entity_ids is not None:
            return sorted(event.entity_ids)
        instances = self.application.registry.instances_of(
            event.device_type, include_failed=True, include_quarantined=True
        )
        ids = sorted(instance.entity_id for instance in instances)
        if event.fraction >= 1.0:
            return ids
        count = max(1, round(len(ids) * event.fraction))
        # Seeded per event (plan seed x event index) and sampled from the
        # sorted id list: the same plan on the same fleet always kills
        # the same entities, regardless of registration order.
        rng = random.Random(f"{self.plan.seed}:{index}")
        return sorted(rng.sample(ids, count))

    def events_for(self, entity_id: str) -> List[FaultEvent]:
        return self._targets.get(entity_id, [])

    @property
    def targeted_entities(self) -> List[str]:
        return sorted(self._targets)

    # -- lifecycle -------------------------------------------------------------

    def attach(self) -> "ChaosInjector":
        """Resolve targets and wrap their drivers (idempotent)."""
        if self._wrapped:
            return self
        for index, event in enumerate(self.plan):
            for entity_id in self._resolve_targets(event, index):
                self._targets.setdefault(entity_id, []).append(event)
        registry = self.application.registry
        for entity_id in self._targets:
            instance = registry.get(entity_id)
            driver = instance.driver
            # The wrapper claims the capability only where the wrapped
            # driver has it.
            wrap = ChaosBatchDriver if batches(driver) else ChaosDriver
            self._wrapped[entity_id] = (
                instance,
                instance.swap_driver(wrap(driver, self, entity_id)),
            )
        return self

    def detach(self) -> None:
        """Unwrap every driver the injector wrapped."""
        for instance, inner in self._wrapped.values():
            instance.swap_driver(inner)
        self._wrapped.clear()
        self._targets.clear()

    def stats(self) -> Dict[str, Any]:
        return {
            "seed": self.plan.seed,
            "events": len(self.plan),
            "targeted_entities": len(self._targets),
            "injected_failures": self.injected_failures,
            "injected_latency_reads": self.injected_latency_reads,
        }


def run_parking_chaos(
    seed: int = 7,
    duration_seconds: float = 7200.0,
    kill_fraction: float = 0.3,
    fault_start: float = 1800.0,
    fault_duration: float = 1800.0,
    stale_mode: str = "last_known",
    stale_max_age: Optional[float] = None,
    availability_period: str = "1 min",
    failure_threshold: int = 3,
    backoff_base_seconds: float = 120.0,
    backoff_max_seconds: float = 600.0,
    quarantine_after: Optional[int] = 3,
) -> Dict[str, Any]:
    """Run the parking study under a sensor-kill fault plan.

    Kills ``kill_fraction`` of the presence sensors for
    ``fault_duration`` seconds starting at ``fault_start``, with
    supervision (circuit breakers + quarantine) and ``stale_mode``
    degraded delivery active, then reports whether the deployment kept
    publishing through the outage and fully recovered after it.

    The returned report is JSON-able; ``repro chaos`` prints it and CI
    gates on ``report["recovered"]``.
    """
    # Imported lazily: apps.parking imports the runtime, which imports
    # this package.
    from repro.apps.parking.app import build_parking_app
    from repro.faults.policy import StalePolicy, SupervisionPolicy
    from repro.runtime.clock import SimulationClock
    from repro.runtime.config import RuntimeConfig

    clock = SimulationClock()
    policy = SupervisionPolicy(
        failure_threshold=failure_threshold,
        backoff_base_seconds=backoff_base_seconds,
        backoff_max_seconds=backoff_max_seconds,
        quarantine_after=quarantine_after,
    )
    config = RuntimeConfig(
        clock=clock,
        name="ParkingChaos",
        supervision_overrides={"PresenceSensor": policy},
        supervision_seed=seed,
        stale=StalePolicy(stale_mode, max_age_seconds=stale_max_age),
    )
    parking = build_parking_app(
        clock=clock,
        availability_period=availability_period,
        seed=seed,
        config=config,
    )
    app = parking.application

    plan = FaultPlan(seed=seed).outage(
        "PresenceSensor",
        start=fault_start,
        duration=fault_duration,
        fraction=kill_fraction,
    )
    injector = ChaosInjector(app, plan).attach()

    period_seconds = _parse_period(availability_period)
    app.advance(duration_seconds)

    supervision = app.supervision.stats()
    health = supervision["health"]
    expected_sweeps = int(duration_seconds // period_seconds)
    activations = app.stats["context_activations"].get(
        "ParkingAvailability", 0
    )
    panel_updates = {
        lot: len(driver.history)
        for lot, driver in sorted(parking.entrance_panels.items())
    }
    unrecovered = (
        health["degraded"]
        + health["quarantined"]
        + supervision["breaker_states"].get("open", 0)
        + supervision["breaker_states"].get("half_open", 0)
    )
    missed_publishes = max(0, expected_sweeps - activations)
    report: Dict[str, Any] = {
        "seed": seed,
        "duration_seconds": duration_seconds,
        "availability_period_seconds": period_seconds,
        "sensors_total": parking.sensor_count,
        "sensors_killed": len(injector.targeted_entities),
        "killed_entities": injector.targeted_entities,
        "fault_window": [fault_start, fault_start + fault_duration],
        "stale_mode": stale_mode,
        "injected_read_failures": injector.injected_failures,
        "expected_sweeps": expected_sweeps,
        "availability_publishes": activations,
        "missed_publishes": missed_publishes,
        "panel_updates": panel_updates,
        "gather_errors": app.stats["gather_errors"],
        "supervision": supervision,
        "unrecovered_failures": unrecovered,
        "recovered": unrecovered == 0 and injector.injected_failures > 0,
    }
    injector.detach()
    app.stop()
    return report


def _parse_period(period: str) -> float:
    """Seconds in a DiaSpec period string like ``"10 min"``."""
    amount, unit = period.split()
    scale = {"s": 1.0, "sec": 1.0, "min": 60.0, "hr": 3600.0}[unit]
    return float(amount) * scale
