"""Runtime configuration: the one record an application is built from.

:class:`RuntimeConfig` gathers every runtime choice (clock, executor,
network model, error policy, metrics, the supervision/stale policies of
:mod:`repro.faults`, and the sweep/cache/batch/shard/placement sections)
into a single validated dataclass::

    from repro.runtime.config import RuntimeConfig

    config = RuntimeConfig(
        clock=SimulationClock(),
        error_policy="isolate",
        supervision=SupervisionPolicy(failure_threshold=3),
        stale=StalePolicy("last_known", max_age_seconds=600),
    )
    app = Application(design, config)

Every section (and the record itself) speaks the
:class:`~repro.runtime.configbase.ConfigBase` protocol — a validated
``replace()`` — which is how a neighbouring config is derived from a
running one before ``Application.apply_config`` swaps it in atomically.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, TYPE_CHECKING

from repro.faults.policy import StalePolicy, SupervisionPolicy
from repro.runtime.cache import CacheConfig
from repro.runtime.configbase import ConfigBase
from repro.runtime.placement import NetworkConfig, PlacementConfig
from repro.runtime.plan import BatchConfig
from repro.runtime.shard import ShardConfig
from repro.runtime.sweep import SweepConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, hints only
    from repro.runtime.clock import Clock
    from repro.telemetry import MetricsRegistry

__all__ = [
    "BatchConfig",
    "CacheConfig",
    "ConfigBase",
    "NetworkConfig",
    "PlacementConfig",
    "RuntimeConfig",
    "ShardConfig",
    "SweepConfig",
]

ERROR_POLICIES = ("raise", "isolate")


@dataclass(frozen=True)
class RuntimeConfig(ConfigBase):
    """Everything an :class:`~repro.runtime.app.Application` can tune.

    Every field has a default, so ``RuntimeConfig()`` is exactly what
    ``Application(design)`` runs under.

    * ``clock`` — application clock; ``None`` means a fresh
      :class:`~repro.runtime.clock.SimulationClock`.
    * ``mapreduce_executor`` — executor for ``with map ... reduce ...``
      contexts (serial when ``None``).
    * ``network`` — a frozen :class:`NetworkConfig` describing the
      simulated delivery conditions (single hop or multi-hop fog
      topology); the application builds a fresh stateful model from it.
    * ``error_policy`` — ``'raise'`` propagates component failures,
      ``'isolate'`` contains them (see ``Application._run_component``).
    * ``metrics`` — shared telemetry registry (own registry when
      ``None``).
    * ``supervision`` — default :class:`SupervisionPolicy` applied to
      every bound device; ``None`` disables supervision entirely
      (legacy behaviour).
    * ``supervision_overrides`` — per-device-type policies; they apply
      to the named type and its subtypes, and win over ``supervision``.
    * ``supervision_seed`` — seed for the deterministic per-entity
      backoff jitter.
    * ``stale`` — degraded-delivery policy for periodic gathers when a
      supervised source is dark; ``None`` means ``StalePolicy('skip')``.
    * ``sweep`` — :class:`~repro.runtime.sweep.SweepConfig` governing
      how periodic gather sweeps execute (serial loop vs. bounded
      thread-pool fan-out); the default ``mode='auto'`` keeps
      simulation-clock runs serial and deterministic.
    * ``cache`` — :class:`~repro.runtime.cache.CacheConfig` governing
      the query-driven read fast path (freshness-aware read cache,
      single-flight coalescing, actuation/publish invalidation and
      context memoization); disabled by default, which keeps the read
      path byte-identical to the uncached runtime.
    * ``batch`` — :class:`~repro.runtime.plan.BatchConfig` tuning the
      columnar read path (driver-level batch reads), which a sweep
      takes when the swept drivers implement ``read_batch`` — the
      drivers decide, not the config.
    * ``shard`` — :class:`~repro.runtime.shard.ShardConfig` governing
      the process-sharded runtime (hash-partitioned fleet, one worker
      process per shard, cross-shard event routing over the delta
      block wire protocol); disabled by default, which keeps the runtime
      single-process and byte-identical to the unsharded code path.
    * ``placement`` — :class:`~repro.runtime.placement.PlacementConfig`
      governing the edge/cloud placement tier (edge-local map+combine
      for grouped MapReduce gathers, WAN byte accounting); disabled by
      default, which keeps every gather cloud-only and byte-identical
      to the placement-less runtime.
    """

    clock: Optional["Clock"] = None
    mapreduce_executor: Any = None
    name: str = "app"
    network: Optional[NetworkConfig] = None
    error_policy: str = "raise"
    metrics: Optional["MetricsRegistry"] = None
    supervision: Optional[SupervisionPolicy] = None
    supervision_overrides: Mapping[str, SupervisionPolicy] = field(
        default_factory=dict
    )
    supervision_seed: int = 0
    stale: Optional[StalePolicy] = None
    sweep: SweepConfig = SweepConfig()
    cache: CacheConfig = CacheConfig()
    batch: BatchConfig = BatchConfig()
    shard: ShardConfig = ShardConfig()
    placement: PlacementConfig = PlacementConfig()

    def __post_init__(self):
        if self.error_policy not in ERROR_POLICIES:
            raise ValueError(
                f"error_policy must be one of {ERROR_POLICIES}"
            )
        if self.network is not None and not isinstance(
            self.network, NetworkConfig
        ):
            raise TypeError("network must be a NetworkConfig or None")
        if not isinstance(self.placement, PlacementConfig):
            raise TypeError("placement must be a PlacementConfig")
        if not isinstance(self.sweep, SweepConfig):
            raise TypeError("sweep must be a SweepConfig")
        if not isinstance(self.cache, CacheConfig):
            raise TypeError("cache must be a CacheConfig")
        if not isinstance(self.batch, BatchConfig):
            raise TypeError("batch must be a BatchConfig")
        if not isinstance(self.shard, ShardConfig):
            raise TypeError("shard must be a ShardConfig")
        if self.stale is not None and not isinstance(self.stale, StalePolicy):
            raise TypeError("stale must be a StalePolicy or None")
        if self.supervision is not None and not isinstance(
            self.supervision, SupervisionPolicy
        ):
            raise TypeError("supervision must be a SupervisionPolicy or None")

    def replace(self, **changes: Any) -> "RuntimeConfig":
        """A copy with ``changes`` applied and **fully re-validated**.

        Inherited :meth:`ConfigBase.replace` semantics: the copy goes
        back through ``__post_init__`` and :meth:`validate`, so a
        replace can never assemble a field combination construction
        would reject (e.g. a non-config network object, or — one level
        down — a flat-latency × hops ``NetworkConfig``).
        """
        return super().replace(**changes)

    def supervised(self) -> bool:
        """Is any device type supervised under this configuration?"""
        return self.supervision is not None or bool(
            self.supervision_overrides
        )

    @property
    def stale_policy(self) -> StalePolicy:
        """The effective stale policy (``skip`` when unset)."""
        return self.stale if self.stale is not None else StalePolicy()

    def describe(self) -> Dict[str, Any]:
        """Loggable summary (policies as reprs, objects as type names)."""
        summary: Dict[str, Any] = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if value is None or isinstance(
                value, (str, int, float, bool)
            ):
                summary[f.name] = value
            elif isinstance(
                value, (ConfigBase, SupervisionPolicy, StalePolicy)
            ):
                summary[f.name] = repr(value)
            elif isinstance(value, Mapping):
                summary[f.name] = {
                    key: repr(item) for key, item in value.items()
                }
            else:
                summary[f.name] = type(value).__name__
        return summary
