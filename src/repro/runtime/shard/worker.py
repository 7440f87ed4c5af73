"""The worker process: a shard-local application behind a command
loop.

Spawned by :class:`~repro.runtime.shard.coordinator.ShardedRuntime`
through :func:`_shard_worker_main` (module-level, so it pickles under
``spawn``).  The worker builds its slice of the fleet from the
:class:`~repro.runtime.shard.ShardBootstrap`, then serves the
coordinator's commands — clock sync, poll, map, publish/read/act,
bind/unbind, stats — until ``stop`` or a closed pipe.
"""

from __future__ import annotations

import functools
from typing import Any, Dict, List, Tuple

from repro.errors import BindingError, ShardError
from repro.mapreduce.api import (
    CombineCollector,
    MapCollector,
    job_combiner,
)
from repro.runtime.clock import SimulationClock
from repro.runtime.shard import ShardBootstrap, ShardContext
from repro.runtime.shard.codec import (
    _DeltaEncoder,
    _wire_recv,
    _wire_send,
)


class _ShardWorker:
    """One worker process: a shard-local application plus the command
    loop the coordinator drives over a pipe.

    The worker's application is never ``start()``-ed — its periodic
    jobs live at the coordinator — but all of its machinery below the
    wiring layer (registry, sweep engine, supervision, read cache,
    columnar batch path) is fully live, which is exactly what the
    coordinator's gather commands exercise.
    """

    def __init__(self, bootstrap: ShardBootstrap, ctx: ShardContext):
        self.ctx = ctx
        self.bootstrap = bootstrap
        self.app = bootstrap.build(ctx)
        if not isinstance(self.app.clock, SimulationClock):
            raise ShardError(
                "worker applications must run on a SimulationClock",
                shard=ctx.index,
            )
        self.clock: SimulationClock = self.app.clock
        # entity id -> global registration position, derived from the
        # full-fleet enumeration so every shard agrees on merge order.
        self._gpos = {
            entity_id: position
            for position, entity_id in enumerate(bootstrap.fleet())
        }
        self._events: List[Tuple[Any, ...]] = []
        # Poll results parked between the poll and map rounds of a
        # MapReduce gather: (context, interaction) -> keyed readings.
        self._pending: Dict[Tuple[str, int], List[Tuple[Any, ...]]] = {}
        # Delta encoder per (context, interaction).  A registry
        # version bump (bind/unbind) resets its epoch — the worker
        # re-registers everything.
        self._encoders: Dict[Tuple[str, int], _DeltaEncoder] = {}
        # Re-attach every instance's publish hook to the recorder so
        # pushes surface in command replies instead of dead-ending in
        # the worker's subscriber-less bus.  Recording happens at the
        # instance (one record per publish), not at the bus (which
        # would double-count ancestor-topic deliveries).
        for instance in self.app.registry:
            instance.attach(self._record_publish)

    # -- event recording ------------------------------------------------

    def _record_publish(self, instance, source, value, index) -> None:
        if self.app.read_cache is not None:
            # Keep the worker-local cache semantics of
            # ``_deliver_source_event``: the push supersedes cached
            # reads of this source.
            self.app.read_cache.on_publish(instance, source)
        self._events.append(
            (
                instance.info.name,
                instance.entity_id,
                dict(instance.attributes),
                source,
                value,
                index,
            )
        )

    def _drain_events(self) -> List[Tuple[Any, ...]]:
        events, self._events = self._events, []
        return events

    def _apply_invalidations(self, items) -> None:
        """Apply coordinator-routed cache invalidations.

        These piggyback on the next command instead of costing a
        dedicated round-trip: the router queues them (cross-shard
        cohort invalidations, unbind cleanups) and attaches the queue
        to whatever command reaches this shard next — which is always
        before the next read this shard serves, so the worker-local
        cache can never serve a value the coordinator knows is stale.
        """
        cache = self.app.read_cache
        if cache is None:
            return
        cache.apply_invalidations(items)

    # -- commands -------------------------------------------------------

    def _cmd_sync(self, target: float) -> Dict[str, Any]:
        self.clock.run_until(target)
        return {"events": self._drain_events()}

    def _cmd_poll(
        self, target: float, name: str, index: int
    ) -> Dict[str, Any]:
        """Sweep this shard for one periodic gather.

        Runs the per-process head of ``Application._collect_payload``
        (:meth:`Application._sweep_readings`: sweep engine fan-out —
        serial under the simulation clock, columnar when the batch path
        is on — and outcome folding with supervision/stale accounting),
        then extracts group keys.  Values stay in this process for
        MapReduce gathers — only ``{group: min gpos}`` crosses the pipe
        until the map round.  Flat and grouped gathers reply with the
        delta blocks of :class:`~repro.runtime.shard.codec.
        _DeltaEncoder`.
        """
        self.clock.run_until(target)
        app = self.app
        interaction = app.design.contexts[name].decl.interactions[index]
        readings, dropped, failed = app._sweep_readings(interaction)
        reply: Dict[str, Any] = {
            "dropped": dropped,
            "failed": failed,
            "events": self._drain_events(),
        }
        gpos = self._gpos
        group = interaction.group
        if group is not None and group.uses_mapreduce:
            keyed = []
            for instance, value in readings:
                keyed.append(
                    (
                        gpos[instance.entity_id],
                        self._group_key(instance, group),
                        value,
                    )
                )
            self._pending[(name, index)] = keyed
            mins: Dict[Any, int] = {}
            for position, key, __ in keyed:
                if key not in mins or position < mins[key]:
                    mins[key] = position
            reply["kind"] = "mapreduce"
            reply["keys"] = mins
            return reply
        if group is None:
            reply["kind"] = "flat"
            ident_of = _flat_ident
        else:
            reply["kind"] = "grouped"
            ident_of = functools.partial(self._group_key, group=group)
        encoder = self._encoders.get((name, index))
        if encoder is None:
            encoder = _DeltaEncoder(flat=group is None)
            self._encoders[(name, index)] = encoder
        try:
            reply.update(
                encoder.encode(
                    app.registry.version,
                    [gpos[instance.entity_id] for instance, __ in readings],
                    readings,
                    ident_of,
                )
            )
        except Exception:
            # A half-applied epoch (e.g. a BindingError halfway through
            # key extraction) must not leave ghost "already shipped"
            # values: drop the state so the next poll re-registers.
            del self._encoders[(name, index)]
            raise
        return reply

    def _group_key(self, instance, group):
        try:
            return instance.attributes[group.attribute]
        except KeyError:
            raise BindingError(
                f"entity '{instance.entity_id}' has no attribute "
                f"'{group.attribute}' to group by"
            ) from None

    def _cmd_map(
        self, name: str, index: int, ranks: Dict[Any, int]
    ) -> Dict[str, Any]:
        """Map (and map-side combine) the parked poll readings.

        ``ranks`` is the coordinator's global group order — the rank of
        each group's first *surviving* reading across all shards — so
        sorting this shard's inputs by ``(rank, gpos)`` reproduces the
        exact slice of the single-process input sequence this shard
        owns, and the emission tags ``(rank, gpos, emission)`` are
        globally comparable.
        """
        keyed = self._pending.pop((name, index))
        job = self.app.implementation(name)
        keyed.sort(key=lambda row: (ranks[row[1]], row[0]))
        pairs: List[Tuple[Tuple[int, int, int], Any, Any]] = []
        for position, key, value in keyed:
            collector = MapCollector()
            job.map(key, value, collector)
            rank = ranks[key]
            emissions = enumerate(collector.pairs)
            for emission, (out_key, out_value) in emissions:
                tag = (rank, position, emission)
                pairs.append((tag, out_key, out_value))
        mapped = len(pairs)
        combine = job_combiner(job)
        if combine is not None and pairs:
            grouped: Dict[Any, List[Tuple[Any, Any]]] = {}
            for tag, out_key, out_value in pairs:
                grouped.setdefault(out_key, []).append((tag, out_value))
            combined = []
            for out_key, tagged in grouped.items():
                collector = CombineCollector()
                combine(out_key, [v for __, v in tagged], collector)
                first = min(tag for tag, __ in tagged)
                for pair_key, pair_value in collector.pairs:
                    combined.append((first, pair_key, pair_value))
            pairs = combined
        return {
            "data": pairs,
            "mapped": mapped,
            "events": self._drain_events(),
        }

    def _cmd_publish(
        self, target, entity_id, source, value, index
    ) -> Dict[str, Any]:
        self.clock.run_until(target)
        instance = self.app.registry.get(entity_id)
        instance.publish(source, value, index=index)
        return {"events": self._drain_events()}

    def _cmd_read(self, target, entity_id, source) -> Dict[str, Any]:
        self.clock.run_until(target)
        value = self.app.registry.get(entity_id).read(source)
        return {"value": value, "events": self._drain_events()}

    def _cmd_act(self, target, entity_id, action, params) -> Dict[str, Any]:
        self.clock.run_until(target)
        value = self.app.registry.get(entity_id).act(action, **params)
        return {"value": value, "events": self._drain_events()}

    def _cmd_bind(self, target, entity_id, position) -> Dict[str, Any]:
        """Dynamic re-partitioning: bind one more entity into this
        shard's running application.

        The bootstrap constructs the device (it knows the drivers); the
        worker wires the publish recorder and records the
        coordinator-assigned global position.  The registry version
        bump this causes invalidates the worker's cohort plans and
        resets its delta epochs, so the next poll re-registers — no
        static fleet required.
        """
        self.clock.run_until(target)
        self.bootstrap.bind_entity(self.app, entity_id, position)
        instance = self.app.registry.get(entity_id)
        instance.attach(self._record_publish)
        self._gpos[entity_id] = position
        return {
            "bound": len(self.app.registry),
            "events": self._drain_events(),
        }

    def _cmd_unbind(self, target, entity_id) -> Dict[str, Any]:
        self.clock.run_until(target)
        self.app.unbind_device(entity_id)
        self._gpos.pop(entity_id, None)
        return {
            "bound": len(self.app.registry),
            "events": self._drain_events(),
        }

    def _cmd_stats(self) -> Dict[str, Any]:
        stats = self.app.stats
        return {
            "value": {
                "shard": self.ctx.index,
                "bound_entities": stats["bound_entities"],
                "gather_network_dropped": stats["gather_network_dropped"],
                "gather_read_failed": stats["gather_read_failed"],
                "sweep": stats["sweep"],
                "supervision": stats["supervision"],
                "cache": stats["read_cache"],
            },
            "events": self._drain_events(),
        }

    def serve(self, conn) -> None:
        """The command loop: recv, dispatch, reply, until ``stop``.

        Every message is ``(op, args, invalidations)``; piggybacked
        invalidations apply to the worker cache *before* the command
        dispatches, so a poll or read can never serve a cache entry
        the coordinator has already superseded.
        """
        handlers = {
            "sync": self._cmd_sync,
            "poll": self._cmd_poll,
            "map": self._cmd_map,
            "publish": self._cmd_publish,
            "read": self._cmd_read,
            "act": self._cmd_act,
            "bind": self._cmd_bind,
            "unbind": self._cmd_unbind,
            "stats": self._cmd_stats,
        }
        while True:
            try:
                message, __ = _wire_recv(conn)
            except EOFError:
                break
            op, args, invalidations = message
            if invalidations:
                self._apply_invalidations(invalidations)
            if op == "stop":
                _wire_send(conn, ("ok", {"events": self._drain_events()}))
                break
            try:
                reply = handlers[op](*args)
            except Exception as exc:  # noqa: BLE001 - shipped upstream
                try:
                    _wire_send(conn, ("error", exc))
                except Exception:  # unpicklable exception payload
                    _wire_send(
                        conn,
                        (
                            "error",
                            ShardError(repr(exc), shard=self.ctx.index),
                        ),
                    )
            else:
                _wire_send(conn, ("ok", reply))
        self.app.sweeper.close()
        conn.close()


def _flat_ident(instance) -> Tuple[str, str, Dict[str, Any]]:
    """What a flat gather registers per reading: enough for the
    coordinator to stand a routed proxy in for the instance."""
    return (
        instance.info.name,
        instance.entity_id,
        dict(instance.attributes),
    )


def _shard_worker_main(conn, bootstrap, index, shards) -> None:
    """Worker process entry point (module-level for spawn pickling)."""
    try:
        worker = _ShardWorker(
            bootstrap, ShardContext(shards=shards, index=index)
        )
    except Exception as exc:  # noqa: BLE001 - surfaced as ShardError
        try:
            _wire_send(conn, ("error", exc))
        except Exception:
            _wire_send(conn, ("error", ShardError(repr(exc), shard=index)))
        conn.close()
        return
    _wire_send(conn, ("ok", {"bound": len(worker.app.registry)}))
    worker.serve(conn)
