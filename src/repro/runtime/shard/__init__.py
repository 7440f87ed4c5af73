"""Process-sharded runtime: multi-process sweeps with a cross-shard
event router.

The single-process runtime tops out at one interpreter: the
:class:`~repro.runtime.sweep.SweepEngine` reads a fleet in one loop,
and the registry/bus are single-copy.
This module takes the paper's small-to-large continuum literally — the
same orchestration design runs over a fleet partitioned into per-process
shards:

* the fleet is hash-partitioned by entity id
  (:func:`repro.mapreduce.partition.shard_index`, the same stable crc32
  the MapReduce shuffle uses), one shard per **worker process**;
* each worker hosts a full :class:`~repro.runtime.app.Application` that
  binds only its shard's entities — so supervision, read caching and
  columnar batch reads all keep working per shard, unchanged;
* the **coordinator** hosts the application logic (contexts,
  controllers, windows, periodic jobs) and no devices.  Periodic
  gathers fan out to the workers, which sweep, fold outcomes and run
  map-side combines locally; the coordinator merges replies back into
  exact registry order by ``(position, value)``;
* a :class:`ShardRouter` forwards cross-shard traffic: publishes raised
  inside a worker are recorded at the device instance and replayed into
  the coordinator's bus, and coordinator-side reads/actions are routed
  to the owning shard.

Determinism guarantees (and their limits):

* Entity-to-shard assignment is a pure function of ``(entity_id,
  shards)`` — stable across runs and across processes.
* Worker clocks are :class:`~repro.runtime.clock.SimulationClock`
  instances advanced with **absolute** ``run_until(target)`` commands,
  never relative deltas, so simulated substrate values (pure functions
  of the clock reading) stay byte-identical to a single-process run.
* Ungrouped and grouped payloads merge by global registration position
  and are byte-identical to ``ShardConfig(enabled=False)``.
* MapReduce payloads are exact for jobs without a ``combine`` hook (raw
  map emissions are re-ordered into the single-process emission
  sequence before one final reduce).  With a combiner, each worker
  ships one partial per key and the final reduce sees one partial per
  contributing shard instead of one per fleet — value-identical for
  associative combine/reduce pairs, the same contract incremental
  windows already impose.

Spawn-safety: worker processes are started through
``multiprocessing.get_context(start_method)``.  Under ``spawn`` (and
``forkserver``) the :class:`ShardBootstrap` must be picklable and
importable — a module-level class, not a closure; under the POSIX
default ``fork`` any bootstrap works.  The bootstrap contract is the
heart of it: ``build(ctx)`` must construct the application from scratch
inside the calling process (fresh clock, fresh substrate, fresh
drivers) and bind only the entities ``ctx.owns``.

The package splits by role: the contract types a bootstrap author
touches (:class:`ShardConfig`, :class:`ShardContext`,
:class:`ShardBootstrap`) live here; :mod:`.codec` owns both ends of
the wire format; :mod:`.worker` is the per-process command loop;
:mod:`.coordinator` holds the router and :class:`ShardedRuntime`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import eq
from typing import Iterable, Iterator, Optional, Sequence, TYPE_CHECKING

from repro.errors import ShardError
from repro.mapreduce.partition import shard_index, shard_indexes
from repro.runtime.configbase import ConfigBase

if TYPE_CHECKING:  # pragma: no cover - hints only
    from repro.runtime.app import Application

__all__ = [
    "ShardBootstrap",
    "ShardConfig",
    "ShardContext",
    "ShardRouter",
    "ShardedRuntime",
]

_START_METHODS = (None, "fork", "spawn", "forkserver")


@dataclass(frozen=True)
class ShardConfig(ConfigBase):
    """How a sharded runtime partitions and executes.

    * ``enabled`` — off by default: the runtime stays single-process
      and byte-identical to the unsharded code path (the
      :class:`ShardedRuntime` then binds the whole fleet into one local
      application and never spawns a worker).
    * ``workers`` — worker process count; also the shard count, so the
      fleet partitions into exactly ``workers`` hash shards.
    * ``start_method`` — ``multiprocessing`` start method; ``None``
      uses the platform default (``fork`` on POSIX).  ``spawn`` and
      ``forkserver`` require a picklable, importable bootstrap.

    There is one wire format — the delta block protocol of
    :mod:`repro.runtime.shard.codec` — and, with the cache section
    enabled, every worker keeps its shard-local
    :class:`~repro.runtime.cache.ReadCache`, fed by the worker's own
    clock replica.  An entity lives on one worker, so that worker's
    own actuations and publishes are all that invalidate its entries.
    """

    enabled: bool = False
    workers: int = 4
    start_method: Optional[str] = None

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.start_method not in _START_METHODS:
            raise ValueError(
                f"start_method must be one of {_START_METHODS[1:]} or None"
            )


@dataclass(frozen=True)
class ShardContext:
    """Which slice of the fleet one process owns.

    Passed to :meth:`ShardBootstrap.build`: a worker receives its shard
    index and binds the entities it :meth:`owns`; the coordinator
    receives ``index=None`` and binds none.  When sharding is disabled
    the runtime builds with ``ShardContext(shards=1, index=0)``, which
    owns everything — the single-process degenerate case.
    """

    shards: int
    index: Optional[int] = None

    @property
    def is_coordinator(self) -> bool:
        return self.index is None

    def owns(self, entity_id: str) -> bool:
        """Does this process bind ``entity_id``?

        Pure function of ``(entity_id, shards)`` via the stable crc32
        partitioner, so every process in the gang agrees without
        coordination."""
        if self.index is None:
            return False
        return shard_index(entity_id, self.shards) == self.index

    def owns_each(self, entity_ids: Iterable[str]) -> Iterator[bool]:
        """:meth:`owns` of each of ``entity_ids``, lazily and with no
        Python frame per id."""
        indexes = shard_indexes(entity_ids, self.shards)
        return map(eq, indexes, repeat(self.index))


class ShardBootstrap:
    """Recipe for building one process's view of the application.

    Subclasses implement:

    * :meth:`fleet` — the **full** fleet's entity ids in global
      registration order.  Every process derives the same global
      positions from it; those positions are what the coordinator's
      merge sorts by.
    * :meth:`build` — construct a fresh, **unstarted**
      :class:`~repro.runtime.app.Application` in the calling process,
      installing every implementation but binding only the devices
      ``ctx.owns``.  The app's clock must be a
      :class:`~repro.runtime.clock.SimulationClock` (workers are driven
      by absolute clock-sync commands), and carrying a
      :class:`ShardConfig` on its :class:`RuntimeConfig` is how the
      runtime learns its worker count when none is passed explicitly.

    The bootstrap is pickled into worker processes under ``spawn``, so
    keep it a plain data record (design source, fleet size, seeds) —
    never live drivers or clocks.
    """

    def fleet(self) -> Sequence[str]:
        raise NotImplementedError  # pragma: no cover - interface

    def build(self, ctx: ShardContext) -> "Application":
        raise NotImplementedError  # pragma: no cover - interface

    def bind_entity(
        self, app: "Application", entity_id: str, position: int
    ) -> None:
        """Bind one more entity into a built application (dynamic
        re-partitioning).

        Called by :meth:`ShardedRuntime.rebind` — on the owning worker's
        application when sharded, on the local application otherwise —
        with the coordinator-assigned global registration ``position``.
        The default refuses: a bootstrap must opt into dynamic binding
        by knowing how to construct the entity's driver inside an
        already-built process.
        """
        raise ShardError(
            f"{type(self).__name__} does not support dynamic "
            "(re)binding; override ShardBootstrap.bind_entity"
        )


# The coordinator imports the contract types above, so it loads last.
from repro.runtime.shard.coordinator import (  # noqa: E402
    ShardRouter,
    ShardedRuntime,
)
