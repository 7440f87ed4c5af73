"""The network model for simulated delivery: a chain of named hops.

Wide-area IoT networks (Sigfox, LoRa — Section I) deliver sensor
messages with latency, jitter and loss.  :class:`TopologyModel` injects
those effects between a device's event push and the application's bus:
a chain of named hops (conventionally ``access`` for device→edge and
``wan`` for edge→cloud), each a frozen :class:`HopProfile` with its own
latency / jitter / loss / bandwidth and its own deterministic RNG
stream, with per-hop delivery and byte accounting.  A single link is a
one-hop topology.  The placement tier (``repro.runtime.placement``)
samples reads against the access hop and ships MapReduce partials
across the WAN hop, so "bytes over WAN" becomes a measurable quantity
instead of a modeling gap.

The model follows the :class:`~repro.telemetry.instrument.Instrumented`
protocol — attach it to a :class:`~repro.telemetry.MetricsRegistry` and
``delivered``/``dropped`` (messages end to end) and the per-hop series
appear in ``app.metrics`` and the Prometheus exporter like every other
layer.

Determinism contract: a hop with zero loss draws **no** random numbers
when sampling delivery, and a hop with zero jitter draws none when
sampling delay.  Attaching an all-zero model therefore leaves every
payload byte-identical to running without one — the property the
placement equivalence suite pins.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Mapping, Optional, Tuple, Union

from repro.runtime.clock import Clock
from repro.telemetry.instrument import Instrumented, MetricSpec

__all__ = ["HopProfile", "TopologyModel", "hop_items"]

# Buckets for modeled per-hop transit time: LAN microseconds up to
# congested-WAN seconds.
HOP_LATENCY_BUCKETS = (
    0.000_1,
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    5.0,
)


@dataclass(frozen=True)
class HopProfile:
    """One link of a :class:`TopologyModel` path.

    ``bandwidth`` is bytes per second; ``None`` models an unconstrained
    link (transit time is latency alone).  All sampling state lives in
    the owning topology — the profile itself is immutable deployment
    data, safe to share between descriptors, configs and processes.
    """

    latency: float = 0.0
    jitter: float = 0.0
    loss: float = 0.0
    bandwidth: Optional[float] = None

    def __post_init__(self):
        if self.latency < 0 or self.jitter < 0:
            raise ValueError("latency and jitter must be >= 0")
        if not 0.0 <= self.loss < 1.0:
            raise ValueError("loss must be within [0, 1)")
        if self.jitter > self.latency:
            raise ValueError("jitter cannot exceed latency")
        if self.bandwidth is not None and self.bandwidth <= 0:
            raise ValueError("bandwidth must be > 0 (or None for unbounded)")

    def transit_time(self, nbytes: int = 0) -> float:
        """Deterministic modeled transit time for ``nbytes`` (no RNG)."""
        if self.bandwidth is None or not nbytes:
            return self.latency
        return self.latency + nbytes / self.bandwidth


# A topology's hops: ``{name: HopProfile}`` or ``(name, HopProfile)``
# pairs, in path order.
Hops = Union[Mapping[str, HopProfile], Iterable[Tuple[str, HopProfile]]]


def hop_items(hops: Hops) -> Tuple[Tuple[str, HopProfile], ...]:
    """``hops`` as a tuple of ``(name, profile)`` pairs, checked: names
    are unique strings, profiles are :class:`HopProfile` records."""
    items = tuple(hops.items() if isinstance(hops, Mapping) else hops)
    seen = set()
    for item in items:
        if len(item) != 2 or not isinstance(item[0], str):
            raise TypeError("hops must map hop names to HopProfile records")
        name, profile = item
        if not isinstance(profile, HopProfile):
            raise TypeError(
                f"hop '{name}' must be a HopProfile, got "
                f"{type(profile).__name__}"
            )
        if name in seen:
            raise ValueError(f"duplicate hop '{name}'")
        seen.add(name)
    return items


class _HopState:
    """Mutable per-hop delivery state (counters + RNG stream)."""

    __slots__ = ("name", "profile", "rng", "delivered", "dropped", "nbytes")

    def __init__(self, name: str, profile: HopProfile, seed: int):
        self.name = name
        self.profile = profile
        # One independent, deterministic stream per hop: hop order in a
        # path never perturbs another hop's draws.
        self.rng = random.Random(
            seed * 2654435761 + zlib.crc32(name.encode("utf-8"))
        )
        self.delivered = 0
        self.dropped = 0
        self.nbytes = 0

    def sample_ok(self) -> bool:
        if not self.profile.loss:
            return True
        return self.rng.random() >= self.profile.loss

    def sample_delay(self, nbytes: int = 0) -> float:
        profile = self.profile
        delay = profile.transit_time(nbytes)
        if profile.jitter:
            delay += self.rng.uniform(-profile.jitter, profile.jitter)
        return delay


class TopologyModel(Instrumented):
    """The network: named links, per-hop loss, delay and bytes.

    ``hops`` is an ordered mapping ``{name: HopProfile}`` (one entry
    for a single link) or ``(name, HopProfile)`` pairs; the default
    message path is every hop in declaration order (device → … → cloud).
    Pass ``path=('wan',)`` (any subsequence of hop names) to route a
    message over part of the continuum — the placement tier samples
    polled reads against the access hop only and ships partials across
    the WAN hop via :meth:`send`.
    """

    metric_specs = (
        MetricSpec(
            "network_delivered_total",
            "delivered",
            stats_key="delivered",
            help="Messages delivered end to end over their path.",
        ),
        MetricSpec(
            "network_dropped_total",
            "dropped",
            stats_key="dropped",
            help="Messages dropped by any hop.",
        ),
        MetricSpec(
            "network_bytes_total",
            "total_bytes",
            stats_key="bytes",
            help="Payload bytes carried, summed over hops.",
        ),
    )

    def __init__(self, hops: Hops, seed: int = 0):
        items = hop_items(hops)
        if not items:
            raise ValueError("a TopologyModel needs at least one hop")
        self._hops: Dict[str, _HopState] = {
            name: _HopState(name, profile, seed) for name, profile in items
        }
        # Messages that crossed their whole path; a drop consumes the
        # message, so the per-hop drops already sum to messages.
        self.delivered = 0
        self._m_latency = None

    # -- structure ------------------------------------------------------

    @property
    def hop_names(self) -> Tuple[str, ...]:
        return tuple(self._hops)

    def _state(self, name: str) -> _HopState:
        try:
            return self._hops[name]
        except KeyError:
            raise KeyError(
                f"unknown hop '{name}' (topology has "
                f"{', '.join(self._hops)})"
            ) from None

    def _path(self, path) -> Tuple[_HopState, ...]:
        if path is None:
            return tuple(self._hops.values())
        return tuple(self._state(name) for name in path)

    # -- aggregate counters (metric sources) ----------------------------

    @property
    def dropped(self) -> int:
        return sum(hop.dropped for hop in self._hops.values())

    @property
    def total_bytes(self) -> int:
        return sum(hop.nbytes for hop in self._hops.values())

    # -- delivery -------------------------------------------------------

    def transmit(
        self,
        clock: Clock,
        deliver: Callable[[], None],
        path: Optional[Iterable[str]] = None,
        nbytes: int = 0,
    ) -> bool:
        """Route one message over ``path`` (default: every hop).

        Each hop samples loss independently; the first drop consumes
        the message (later hops never see it).  Surviving messages are
        scheduled after the summed per-hop delay.  Bytes are accounted
        on every hop the message reached.
        """
        delay = 0.0
        for hop in self._path(path):
            hop.nbytes += nbytes
            if not hop.sample_ok():
                hop.dropped += 1
                return False
            hop.delivered += 1
            hop_delay = hop.sample_delay(nbytes)
            self._observe_latency(hop.name, hop_delay)
            delay += hop_delay
        self.delivered += 1
        if delay <= 0:
            deliver()
        else:
            clock.schedule(delay, deliver)
        return True

    def send(self, hop_name: str, nbytes: int = 0) -> bool:
        """One message over one hop, without scheduling: sample loss,
        account bytes, observe the modeled transit time.  The gather
        path uses this for polled reads and shipped partials, where
        delivery is synchronous and only survival matters."""
        hop = self._state(hop_name)
        hop.nbytes += nbytes
        if not hop.sample_ok():
            hop.dropped += 1
            return False
        hop.delivered += 1
        self.delivered += 1
        self._observe_latency(hop.name, hop.profile.transit_time(nbytes))
        return True

    def account(
        self, path: Optional[Iterable[str]] = None, nbytes: int = 0
    ) -> None:
        """Attribute ``nbytes`` of already-sampled traffic to ``path``.

        Pure byte accounting — no loss sampling, no RNG, no counters
        beyond the per-hop byte totals.  The gather path uses this for
        traffic whose survival was decided elsewhere (polled readings
        sampled through :meth:`sample_read_ok`)."""
        for hop in self._path(path):
            hop.nbytes += nbytes

    def sample_read_ok(self, path: Optional[Iterable[str]] = None) -> bool:
        """Whether a polled read survives every hop on ``path``.

        Zero-loss hops draw nothing, so an all-zero topology consumes
        no randomness (the byte-identity lever)."""
        for hop in self._path(path):
            if not hop.sample_ok():
                hop.dropped += 1
                return False
            hop.delivered += 1
        self.delivered += 1
        return True

    def transit_time(
        self, path: Optional[Iterable[str]] = None, nbytes: int = 0
    ) -> float:
        """Deterministic modeled end-to-end time for ``nbytes`` over
        ``path`` — latency plus serialization delay per hop, no jitter,
        no RNG."""
        return sum(
            hop.profile.transit_time(nbytes) for hop in self._path(path)
        )

    # -- observability --------------------------------------------------

    def attach_metrics(self, metrics, **labels) -> None:
        super().attach_metrics(metrics, **labels)
        for name in self._hops:
            state = self._hops[name]
            metrics.callback(
                "network_hop_delivered_total",
                lambda s=state: s.delivered,
                help="Messages delivered by one hop.",
                hop=name,
                **labels,
            )
            metrics.callback(
                "network_hop_dropped_total",
                lambda s=state: s.dropped,
                help="Messages dropped by one hop.",
                hop=name,
                **labels,
            )
            metrics.callback(
                "network_hop_bytes_total",
                lambda s=state: s.nbytes,
                help="Payload bytes carried by one hop.",
                hop=name,
                **labels,
            )
        self._m_latency = {
            name: metrics.histogram(
                "network_hop_latency_seconds",
                help="Modeled per-message transit time by hop.",
                buckets=HOP_LATENCY_BUCKETS,
                hop=name,
                **labels,
            )
            for name in self._hops
        }

    def _observe_latency(self, hop_name: str, delay: float) -> None:
        if self._m_latency is not None:
            self._m_latency[hop_name].observe(delay)

    def _extra_stats(self):
        return {
            "hops": {
                name: {
                    "delivered": hop.delivered,
                    "dropped": hop.dropped,
                    "bytes": hop.nbytes,
                }
                for name, hop in self._hops.items()
            }
        }
