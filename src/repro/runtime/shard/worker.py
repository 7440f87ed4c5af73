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
import sys
from array import array
from bisect import bisect_left
from collections import deque
from itertools import chain, compress, count
from operator import attrgetter
from typing import Any, Dict, List, Tuple

from repro.errors import ShardError
from repro.mapreduce.engine import map_partition
from repro.runtime.clock import SimulationClock
from repro.runtime.shard import ShardBootstrap, ShardContext
from repro.runtime.shard.codec import (
    _DeltaEncoder,
    _encode_group_keys,
    _wire_recv,
    _wire_send,
)

try:
    import resource
except ImportError:  # not on Windows
    resource = None

_entity_id_of = attrgetter("entity_id")
_registration_of = attrgetter("_registration")
_type_name_of = attrgetter("info.name")
_attributes_of = attrgetter("attributes")


class _ShardWorker:
    """One worker process: a shard-local application plus the command
    loop the coordinator drives over a pipe.

    The worker's application is never ``start()``-ed — its periodic
    jobs live at the coordinator — but all of its machinery below the
    wiring layer (registry, supervision, read cache, the sweep engine
    over them) is fully live, which is exactly what the
    coordinator's gather commands exercise.
    """

    def __init__(self, bootstrap: ShardBootstrap, ctx: ShardContext):
        self.ctx = ctx
        self.bootstrap = bootstrap
        # Global positions come from the full-fleet enumeration, so
        # every shard agrees on merge order.  It is walked once, before
        # the build, and what this shard owns is kept as two arrays,
        # not as the enumeration's id strings.
        owned, hashes, self.fleet_size = _owned_positions(
            bootstrap.fleet(), ctx
        )
        self.app = bootstrap.build(ctx)
        if not isinstance(self.app.clock, SimulationClock):
            raise ShardError(
                "worker applications must run on a SimulationClock",
                shard=ctx.index,
            )
        self.clock: SimulationClock = self.app.clock
        self._gpos = _GlobalPositions(
            self.app.registry, owned, hashes, bootstrap.fleet
        )
        self._events: List[Tuple[Any, ...]] = []
        # Poll results parked between the poll and map rounds of a
        # MapReduce gather: (context, interaction) -> the readings'
        # key columns, the ``grouped by`` attribute and the values.
        self._pending: Dict[Tuple[str, int], Any] = {}
        # Delta encoder per (context, interaction).  A registry
        # version bump (bind/unbind) resets its epoch — the worker
        # re-registers everything.
        self._encoders: Dict[Tuple[str, int], _DeltaEncoder] = {}
        # The sweep cuts' key columns number rows by global position.
        self.app.sweeper.positions = self._gpos
        # Point every instance's publish hook at the recorder — the
        # ones bound now and the ones ``bind`` adds, which share the
        # wiring — so pushes surface in command replies instead of
        # dead-ending in the worker's subscriber-less bus.  Recording
        # happens at the instance (one record per publish), not at the
        # bus (which would double-count ancestor-topic deliveries).
        for wiring in self.app.wirings.values():
            wiring.publish_hook = self._record_publish

    # -- event recording ------------------------------------------------

    def _record_publish(self, instance, source, value, index) -> None:
        if self.app.read_cache is not None:
            # Keep the worker-local cache semantics of
            # ``_deliver_source_event``: the push supersedes the
            # publisher's cached read.
            self.app.read_cache.invalidate(instance.entity_id, source)
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

    # -- commands -------------------------------------------------------
    #
    # Handlers run inside the envelope of :meth:`serve`: the clock is
    # already synced to the coordinator's, and the events they record
    # are drained into the reply after they return.

    def _cmd_poll(self, name: str, index: int) -> Dict[str, Any]:
        """Sweep this shard for one periodic gather.

        Runs the same :meth:`~repro.runtime.sweep.SweepEngine.sweep`
        the single-process gather runs (sampler, column reader, outcome
        fold), then takes positions and group keys from the sweep cut's
        key columns, as the single-process gather does.  Values
        stay in this process for MapReduce gathers — only ``{group:
        min gpos}`` crosses the pipe until the map round.  Flat and
        grouped gathers reply with the delta blocks of
        :class:`~repro.runtime.shard.codec._DeltaEncoder`.
        """
        app = self.app
        decl = app.design.contexts[name].decl
        interaction = decl.interactions[index]
        instances, values, dropped, failed = app.sweeper.sweep(
            decl, interaction
        )
        reply: Dict[str, Any] = {"dropped": dropped, "failed": failed}
        columns = app.sweeper.key_columns(interaction.device, instances)
        group = interaction.group
        if group is not None and group.uses_mapreduce:
            self._pending[(name, index)] = (columns, group.attribute, values)
            reply["kind"] = "mapreduce"
            reply["keys"] = columns.firsts(group.attribute)
            return reply
        if group is None:
            reply["kind"] = "flat"
            ident_columns = functools.partial(_flat_columns, instances)
        else:
            reply["kind"] = "grouped"
            ident_columns = functools.partial(
                _key_block, columns.keys(group.attribute)
            )
        encoder = self._encoders.get((name, index))
        if encoder is None:
            encoder = self._encoders[(name, index)] = _DeltaEncoder()
        try:
            reply.update(
                encoder.encode(
                    app.registry.version,
                    columns.positions,
                    values,
                    ident_columns,
                    app.sweeper._exact,
                )
            )
        except Exception:
            # A half-applied epoch must not leave ghost "already
            # shipped" values: drop the state so the next poll
            # re-registers.
            del self._encoders[(name, index)]
            raise
        return reply

    def _cmd_map(
        self, name: str, index: int, ranks: Dict[Any, int]
    ) -> Dict[str, Any]:
        """Map (and map-side combine) the parked poll readings.

        ``ranks`` is the coordinator's global group order — the rank of
        each group's first *surviving* reading across all shards — so
        this shard maps its groups in that order, each group's rows by
        position, and the
        :func:`~repro.mapreduce.engine.map_partition` tags are globally
        comparable.
        """
        columns, attribute, values = self._pending.pop((name, index))
        table, order = columns.groups(attribute)
        ranked = sorted(table, key=ranks.__getitem__)
        if ranked != list(table):
            order = list(chain.from_iterable(map(table.__getitem__, ranked)))
        pairs, mapped = map_partition(
            self.app.implementation(name),
            columns.keys(attribute),
            values,
            order,
            ranks,
            columns.positions,
        )
        return {"data": pairs, "mapped": mapped}

    def _cmd_publish(self, entity_id, source, value, index) -> Dict[str, Any]:
        instance = self.app.registry.get(entity_id)
        instance.publish(source, value, index=index)
        return {}

    def _cmd_read(self, entity_id, source) -> Dict[str, Any]:
        return {"value": self.app.registry.get(entity_id).read(source)}

    def _cmd_act(self, entity_id, action, params) -> Dict[str, Any]:
        value = self.app.registry.get(entity_id).act(action, **params)
        return {"value": value}

    def _cmd_bind(self, entity_id, position) -> Dict[str, Any]:
        """Dynamic re-partitioning: bind one more entity into this
        shard's running application.

        The bootstrap constructs the device (it knows the drivers); the
        worker records the coordinator-assigned global position.  The
        registry version bump this causes hands the next sweep a new
        column: the sweep cut's cohort plans and key columns are patched
        by the registry's column edit, and the delta epochs reset, so the next
        poll re-registers — no static fleet required.
        """
        self.bootstrap.bind_entity(self.app, entity_id, position)
        instance = self.app.registry.get(entity_id)
        self._gpos.late[instance._registration] = position
        return {"bound": len(self.app.registry)}

    def _cmd_unbind(self, entity_id) -> Dict[str, Any]:
        instance = self.app.unbind_device(entity_id)
        self._gpos.late.pop(instance._registration, None)
        return {"bound": len(self.app.registry)}

    def position_of(self, entity_id: str) -> int:
        """The global position of the bound ``entity_id``."""
        return self._gpos.of([self.app.registry.get(entity_id)])[0]

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
                "peak_rss_mb": _peak_rss_mb(),
            }
        }

    # Commands that carry no clock: ``map`` and ``stats`` only read
    # state that an earlier command of the same coordinator step already
    # synced, ``stop`` reads none.
    _UNCLOCKED = frozenset({"map", "stats", "stop"})

    def serve(self, conn) -> None:
        """The command loop and the worker half of the command
        envelope: recv, sync, dispatch, drain, reply, until ``stop``.

        Every message is ``(op, args)``.  Clocked commands lead their
        ``args`` with the coordinator's time: the worker clock
        runs up to it here, once, and the handler gets the rest.  Every
        reply carries the device publishes recorded since the last one
        (``events``), which the coordinator replays
        (:meth:`ShardedRuntime._command`); an error reply carries none,
        so they ride on the next command's reply instead of being lost.
        """
        # ``sync`` and ``stop`` are the bare envelope: an empty reply.
        handlers = {
            "sync": dict,
            "poll": self._cmd_poll,
            "map": self._cmd_map,
            "publish": self._cmd_publish,
            "read": self._cmd_read,
            "act": self._cmd_act,
            "bind": self._cmd_bind,
            "unbind": self._cmd_unbind,
            "stats": self._cmd_stats,
            "stop": dict,
        }
        op = None
        while op != "stop":
            try:
                message, __ = _wire_recv(conn)
            except EOFError:
                break
            op, args = message
            try:
                if op not in self._UNCLOCKED:
                    self.clock.run_until(args[0])
                    args = args[1:]
                reply = handlers[op](*args)
                reply["events"] = self._drain_events()
            except Exception as exc:  # noqa: BLE001 - shipped upstream
                _send_error(conn, exc, self.ctx.index)
            else:
                _wire_send(conn, ("ok", reply))
        conn.close()


def _peak_rss_mb():
    """This process's peak resident set size in MiB; ``None`` where
    there is no ``resource`` module."""
    if resource is None:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Kibibytes, but bytes on macOS.
    return peak / (2**20 if sys.platform == "darwin" else 2**10)


def _owned_positions(fleet, ctx: ShardContext) -> Tuple[array, array, int]:
    """The fleet positions ``ctx`` owns, ascending, the ``hash`` of the
    id at each and the fleet's length: one pass over the enumeration,
    which is dropped on return."""
    mine = list(ctx.owns_each(fleet))
    owned = array("q", compress(count(), mine))
    return owned, array("q", map(hash, compress(fleet, mine))), len(mine)


class _GlobalPositions:
    """Registration ordinal (``DeviceInstance._registration``) -> global
    position of a worker's bound entities: what its sweep cuts number
    their rows by.

    The build's registrations are an ``array("q")`` indexed by ordinal,
    ``-1`` where an ordinal has no position (the build bound an entity
    outside ``fleet()``).  Later binds are a dict that an unbind pops,
    so it stays the size of the live population however many binds
    churn through."""

    __slots__ = ("boot", "late")

    def __init__(self, registry, owned, hashes, fleet):
        """From what ``registry`` holds after the build.

        A build that bound exactly the owned entities in ``fleet()``
        order bound them at the ``owned`` positions, in registration
        order.  That is checked without the enumeration's ids: the
        bound ids, in registration order, hash as the owned ids did,
        row by row.  Any other build (another order, another set) is
        mapped by id over a second ``fleet()`` pass."""
        if array("q", map(hash, map(_entity_id_of, registry))) != hashes:
            by_id = dict.fromkeys(map(_entity_id_of, registry), -1)
            for position, entity_id in enumerate(fleet()):
                if entity_id in by_id:
                    by_id[entity_id] = position
            owned = by_id.values()
        ordinals = array("q", map(_registration_of, registry))
        self.boot = array("q", [-1]) * (max(ordinals, default=0) + 1)
        deque(map(self.boot.__setitem__, ordinals, owned), maxlen=0)
        self.late: Dict[int, int] = {}

    def of(self, instances) -> array:
        """The positions of ``instances``, rows of a registry column.

        A column is in registration order, so the build's ordinals come
        first.  A row with no position raises ``KeyError``."""
        ordinals = array("q", map(_registration_of, instances))
        split = bisect_left(ordinals, len(self.boot))
        positions = array("q", map(self.boot.__getitem__, ordinals[:split]))
        positions.extend(map(self.late.__getitem__, ordinals[split:]))
        if positions and min(positions) < 0:
            raise KeyError("a bound entity outside fleet() has no position")
        return positions


def _flat_columns(instances, rows) -> Tuple[list, list, list]:
    """What a flat gather registers for the readings at ``rows``: the
    type-name, entity-id and attribute columns — enough for the
    coordinator to stand a routed proxy in for each instance."""
    chosen = list(map(instances.__getitem__, rows))
    return (
        list(map(_type_name_of, chosen)),
        list(map(_entity_id_of, chosen)),
        list(map(dict, map(_attributes_of, chosen))),
    )


def _key_block(keys, rows) -> Tuple[Tuple[Any, ...]]:
    """What a grouped gather registers for the readings at ``rows``;
    the whole column is encoded as it is, uncopied."""
    if len(rows) != len(keys):
        keys = list(map(keys.__getitem__, rows))
    return (_encode_group_keys(keys),)


def _send_error(conn, exc: Exception, shard: int) -> None:
    """Ship ``exc`` upstream as an error reply; an exception that does
    not pickle goes as a :class:`ShardError` carrying its repr."""
    try:
        _wire_send(conn, ("error", exc))
    except Exception:  # noqa: BLE001 - unpicklable exception payload
        _wire_send(conn, ("error", ShardError(repr(exc), shard=shard)))


def _shard_worker_main(conn, bootstrap, index, shards) -> None:
    """Worker process entry point (module-level for spawn pickling)."""
    try:
        worker = _ShardWorker(
            bootstrap, ShardContext(shards=shards, index=index)
        )
    except Exception as exc:  # noqa: BLE001 - surfaced as ShardError
        _send_error(conn, exc, index)
        conn.close()
        return
    ready = {"bound": len(worker.app.registry), "fleet": worker.fleet_size}
    _wire_send(conn, ("ok", ready))
    worker.serve(conn)
