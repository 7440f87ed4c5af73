"""The coordinator process: router, remote-entity stand-ins and the
:class:`ShardedRuntime`.

The coordinator hosts the application logic (contexts, controllers,
windows, periodic jobs) and no devices.  :class:`ShardRouter` owns the
worker pipes; :class:`ShardedRuntime` substitutes periodic payload
collection with a fan-out over the workers (folding their delta blocks
through the :mod:`~repro.runtime.shard.codec` mirror), replays
worker-recorded device publishes through the application's own publish
path, and routes reads, actions and (re)binds to the owning shard.
"""

from __future__ import annotations

import functools
import multiprocessing
from multiprocessing.connection import wait
from typing import Any, Callable, Dict, List, Optional, TYPE_CHECKING, Tuple

from repro.errors import ShardError
from repro.mapreduce.engine import rank_groups, sequence_partials
from repro.mapreduce.partition import shard_index
from repro.runtime.clock import SimulationClock
from repro.runtime.component import GatherReading
from repro.runtime.proxies import make_proxy
from repro.runtime.shard import ShardBootstrap, ShardConfig, ShardContext
from repro.runtime.shard.codec import _Mirror, _wire_recv, _wire_send
from repro.runtime.shard.worker import _shard_worker_main
from repro.telemetry.instrument import Instrumented, MetricSpec

if TYPE_CHECKING:  # pragma: no cover - hints only
    from repro.runtime.app import Application


class ShardRouter(Instrumented):
    """Coordinator-side transport: commands out, events back.

    Owns the worker pipes.  ``broadcast`` sends to every worker before
    receiving any reply, which is where the parallelism comes from —
    all shards sweep (and sleep on their modeled device I/O)
    concurrently while the coordinator waits.  Replies are read and
    folded as they arrive; only the returned list is in shard order.
    """

    metric_specs = (
        MetricSpec(
            "shard_commands_total",
            "_commands",
            stats_key="commands",
            help="Commands sent to shard workers.",
        ),
        MetricSpec(
            "shard_events_routed_total",
            "_events_routed",
            stats_key="events_routed",
            help="Worker-side device publishes replayed into the "
            "coordinator bus.",
        ),
        MetricSpec(
            "shard_publishes_forwarded_total",
            "_publishes",
            stats_key="publishes_forwarded",
            help="Cross-shard publishes routed to their owning worker.",
        ),
        MetricSpec(
            "shard_errors_total",
            "_errors",
            stats_key="errors",
            help="Worker commands that failed or lost their worker.",
        ),
        MetricSpec(
            "shard_wire_bytes_total",
            "_wire_bytes",
            stats_key="wire_bytes",
            help="Pickled bytes crossing the worker pipes, both "
            "directions, measured at the coordinator.",
        ),
    )

    def __init__(self):
        self._workers: List[Tuple[Any, Any]] = []  # (process, conn)
        self._commands = 0
        self._events_routed = 0
        self._publishes = 0
        self._errors = 0
        self._wire_bytes = 0

    def __len__(self) -> int:
        return len(self._workers)

    def attach(self, workers: List[Tuple[Any, Any]]) -> None:
        self._workers = list(workers)

    def _send_to(self, shard: int, op: str, args: Tuple[Any, ...]) -> None:
        __, conn = self._workers[shard]
        try:
            self._wire_bytes += _wire_send(conn, (op, args))
        except OSError:
            self._errors += 1
            raise ShardError(
                "worker pipe closed while sending a command", shard=shard
            ) from None

    def _receive(self, shard: int) -> Dict[str, Any]:
        __, conn = self._workers[shard]
        try:
            reply, size = _wire_recv(conn)
        except (EOFError, OSError):
            # EOF when the worker exited with nothing pending; a reset
            # (ECONNRESET) when it died with our command still unread.
            self._errors += 1
            raise ShardError(
                "worker process died mid-command", shard=shard
            ) from None
        self._wire_bytes += size
        status, payload = reply
        if status == "error":
            self._errors += 1
            if isinstance(payload, BaseException):
                raise payload
            raise ShardError(repr(payload), shard=shard)
        return payload

    def send(
        self, shard: int, op: str, args: Tuple[Any, ...] = ()
    ) -> Dict[str, Any]:
        """One command to one shard; returns the reply payload."""
        self._commands += 1
        self._send_to(shard, op, args)
        return self._receive(shard)

    def broadcast(
        self,
        op: str,
        args: Tuple[Any, ...] = (),
        on_reply: Optional[Callable[[int, Any], None]] = None,
    ) -> List[Any]:
        """The same command to every shard; replies in shard order,
        a failed shard's exception in place of its reply.  Every shard
        is sent to, and every reply of a shard that was sent to is
        read, before the caller raises any of them: one left in its
        pipe would answer that shard's *next* command, and every one
        after it would be one command late.

        Replies are read as they arrive, whichever shard answers
        first, and ``on_reply(shard, reply)`` runs on each as it is
        read, while the slower shards are still working; if it raises,
        that exception is the shard's reply."""
        self._commands += len(self._workers)
        replies: List[Any] = []
        for shard in range(len(self._workers)):
            try:
                replies.append(self._send_to(shard, op, args))
            except Exception as exc:  # noqa: BLE001 - raised by _command
                replies.append(exc)
        owed = {
            self._workers[shard][1]: shard
            for shard, failure in enumerate(replies)
            if failure is None  # sent: its reply is owed
        }
        while owed:
            for conn in wait(list(owed)):
                shard = owed.pop(conn)
                try:
                    replies[shard] = self._receive(shard)
                    if on_reply is not None:
                        on_reply(shard, replies[shard])
                except Exception as exc:  # noqa: BLE001 - as above
                    replies[shard] = exc
        return replies

    def shutdown(self) -> None:
        for __, conn in self._workers:
            try:
                self._wire_bytes += _wire_send(conn, ("stop", ()))
            except OSError:
                pass
        for process, conn in self._workers:
            try:
                conn.recv_bytes()
            except EOFError:
                pass
            except OSError:
                # Died with the stop command unread: count it, keep
                # reaping the rest.
                self._errors += 1
            conn.close()
            process.join(timeout=10)
            if process.is_alive():  # pragma: no cover - hung worker
                process.terminate()
                process.join(timeout=10)
        self._workers = []


class _RemoteInstance:
    """Coordinator-side stand-in for a
    :class:`~repro.runtime.device.DeviceInstance` living in a worker.

    Carries what the application's publish path and
    :class:`~repro.runtime.proxies.DeviceProxy` read of an instance —
    ``info``, ``entity_id``, ``attributes`` — and routes ``read`` /
    ``act`` through the :class:`ShardedRuntime` to the owning shard.
    Handlers therefore receive the same ``DeviceProxy`` type (same
    facets, same ``repr``) in both modes.
    """

    __slots__ = (
        "_runtime",
        "info",
        "entity_id",
        "attributes",
        "_cached_proxy",
    )

    def __init__(self, runtime, info, entity_id, attributes):
        self._runtime = runtime
        self.info = info
        self.entity_id = entity_id
        self.attributes = attributes
        self._cached_proxy = None

    def read(self, source: str) -> Any:
        """Query-driven read, served by the owning shard."""
        return self._runtime.query(self.entity_id, source)

    def act(self, action: str, **params: Any) -> Any:
        return self._runtime.act(self.entity_id, action, **params)


class ShardedRuntime(Instrumented):
    """Coordinator for a process-sharded application.

    ::

        runtime = ShardedRuntime(bootstrap)   # ShardConfig from the app
        runtime.start()
        runtime.advance(600.0)
        runtime.stop()

    With ``ShardConfig(enabled=False)`` (the default) no worker is ever
    spawned: the bootstrap builds one local application owning the
    whole fleet, and ``start``/``advance``/``publish``/``query``/
    ``act`` degrade to direct calls on it — byte-identical to not using
    this class at all.  That degenerate mode is what the equivalence
    tests diff the sharded mode against.
    """

    metric_specs = (
        MetricSpec(
            "shard_sweeps_total",
            "_sweeps",
            stats_key="sweeps",
            help="Periodic gathers fanned out across shard workers.",
        ),
        MetricSpec(
            "shard_merge_pairs_total",
            "_merge_pairs",
            stats_key="merge_pairs",
            help="Map-side partial pairs merged at the coordinator.",
        ),
        MetricSpec(
            "shard_remote_reads_total",
            "_remote_reads",
            stats_key="remote_reads",
            help="Query-driven reads routed to an owning shard.",
        ),
        MetricSpec(
            "shard_delta_rows_total",
            "_delta_rows",
            stats_key="delta_rows",
            help="Changed or retracted readings shipped by the delta "
            "wire protocol (quiescent readings cross as one count).",
        ),
        MetricSpec(
            "shard_mirror_rebuilds_total",
            "_mirror_rebuilds",
            stats_key="mirror_rebuilds",
            help="Gather mirrors re-sorted after a membership change.",
        ),
        MetricSpec(
            "shard_workers",
            "_worker_count",
            kind="gauge",
            stats_key="workers",
            help="Live shard worker processes.",
        ),
    )

    def __init__(
        self,
        bootstrap: ShardBootstrap,
        shard: Optional[ShardConfig] = None,
    ):
        self.bootstrap = bootstrap
        if shard is None:
            # Probe build: learn the ShardConfig the bootstrap puts on
            # its RuntimeConfig.  The probe binds nothing (coordinator
            # context) and is discarded.
            probe = bootstrap.build(ShardContext(shards=1, index=None))
            shard = probe.config.shard
        self.config = shard
        self.sharded = shard.enabled
        if self.sharded:
            ctx = ShardContext(shards=shard.workers, index=None)
        else:
            ctx = ShardContext(shards=1, index=0)
        self.app: "Application" = bootstrap.build(ctx)
        if self.sharded and not isinstance(self.app.clock, SimulationClock):
            raise ShardError(
                "the coordinator application must run on a "
                "SimulationClock (workers are driven by absolute "
                "clock-sync commands)"
            )
        self.router = ShardRouter()
        self._sweeps = 0
        self._merge_pairs = 0
        self._remote_reads = 0
        self._delta_rows = 0
        self._quiescent_rows = 0
        self._mirror_rebuilds = 0
        self._worker_count = 0
        self._started = False
        # Delta mirrors per (context name, interaction index);
        # populated lazily on the first flat or grouped poll.
        self._mirrors: Dict[Tuple[str, int], _Mirror] = {}
        # Next global registration position handed to a dynamic
        # rebind — the static fleet occupies [0, len(fleet)).  Sharded,
        # the workers report that length when they are ready, so the
        # coordinator never enumerates the fleet.
        self._next_position = 0 if self.sharded else len(bootstrap.fleet())
        # interaction identity -> its index in its context; with the
        # context name, how the delegate names a gather to the workers.
        self._interactions: Dict[int, int] = {}
        for info in self.app.design.contexts.values():
            for position, interaction in enumerate(info.decl.interactions):
                self._interactions[id(interaction)] = position
        # entity id -> coordinator-side stand-in, built lazily from
        # worker reply rows (attributes are static while bound).
        self._remotes: Dict[str, _RemoteInstance] = {}

    # -- life-cycle -----------------------------------------------------

    def start(self) -> "ShardedRuntime":
        if self._started:
            raise ShardError("sharded runtime already started")
        self.attach_metrics(self.app.metrics)
        self.router.attach_metrics(self.app.metrics)
        if self.sharded:
            self._spawn_workers()
            self.app.attach_gather_delegate(self._collect_sharded)
        self.app.start()
        self._started = True
        return self

    def _spawn_workers(self) -> None:
        mp = multiprocessing.get_context(self.config.start_method)
        workers = []
        for index in range(self.config.workers):
            parent, child = mp.Pipe()
            process = mp.Process(
                target=_shard_worker_main,
                args=(child, self.bootstrap, index, self.config.workers),
                daemon=True,
                name=f"repro-shard-{index}",
            )
            process.start()
            child.close()
            workers.append((process, parent))
        self.router.attach(workers)
        # Ready handshake: every worker reports its shard build and the
        # fleet's length (or the exception that killed it) before the
        # first command.
        for shard in range(len(workers)):
            self._next_position = self.router._receive(shard)["fleet"]
        self._worker_count = len(workers)

    def stop(self) -> None:
        if not self._started:
            return
        self.app.stop()
        if self.sharded:
            self.app.attach_gather_delegate(None)
            self.router.shutdown()
            self._worker_count = 0
        self._started = False

    def advance(self, seconds: float) -> int:
        """Drive the coordinator clock (gathers fan out to workers),
        then sync worker clocks to the final time and drain any events
        their own scheduled jobs raised."""
        fired = self.app.advance(seconds)
        if self.sharded and self._started:
            self._command("sync", (self.app.clock.now(),))
        return fired

    # -- cross-shard routing --------------------------------------------

    def _owning_shard(self, entity_id: str) -> int:
        return shard_index(entity_id, self.config.workers)

    def _command(
        self,
        op: str,
        args: Tuple[Any, ...] = (),
        entity_id: Optional[str] = None,
        on_reply: Optional[Callable[[int, Any], None]] = None,
    ) -> List[Dict[str, Any]]:
        """The coordinator half of the command envelope.

        Every worker command goes through here: to the shard owning
        ``entity_id``, or to every shard without one.  The worker
        synced its clock to ``args[0]`` and drained its recorded device
        publishes into the reply (:meth:`_ShardWorker.serve`); they
        replay into the coordinator bus here, once, before the caller
        sees the replies (in shard order); the first failure of a
        broadcast raises after the other shards' events replayed.  A
        broadcast hands each reply to ``on_reply`` as it arrives
        (:meth:`ShardRouter.broadcast`); a reply whose ``on_reply``
        raises still replays its events, and the exception then fails
        the command as that shard's."""
        folds: Dict[int, Exception] = {}

        def fold(shard: int, reply: Dict[str, Any]) -> None:
            try:
                on_reply(shard, reply)
            except Exception as exc:  # noqa: BLE001 - raised below
                folds[shard] = exc

        if entity_id is None:
            hook = None if on_reply is None else fold
            replies = self.router.broadcast(op, args, hook)
        else:
            shard = self._owning_shard(entity_id)
            replies = [self.router.send(shard, op, args)]
        for reply in replies:
            if not isinstance(reply, Exception):
                self._replay_events(reply["events"])
        for shard, reply in enumerate(replies):
            failure = folds.get(shard, reply)
            if isinstance(failure, Exception):
                raise failure
        return replies

    def publish(
        self, entity_id: str, source: str, value: Any, index: Any = None
    ) -> None:
        """Event-driven publish on an entity, wherever it lives.

        Sharded: the command routes to the owning worker, the worker's
        device instance validates and records the publish, and the
        event replays into the coordinator bus.  Unsharded: a direct
        ``instance.publish`` — the identical single-process path.
        """
        if not self.sharded:
            self.app.registry.get(entity_id).publish(
                source, value, index=index
            )
            return
        self.router._publishes += 1
        self._command(
            "publish",
            (self.app.clock.now(), entity_id, source, value, index),
            entity_id,
        )

    def query(self, entity_id: str, source: str) -> Any:
        """Query-driven read routed to the owning shard."""
        if not self.sharded:
            return self.app.registry.get(entity_id).read(source)
        self._remote_reads += 1
        (reply,) = self._command(
            "read", (self.app.clock.now(), entity_id, source), entity_id
        )
        return reply["value"]

    def act(self, entity_id: str, action: str, **params: Any) -> Any:
        """Actuation routed to the owning shard."""
        if not self.sharded:
            return self.app.registry.get(entity_id).act(action, **params)
        (reply,) = self._command(
            "act", (self.app.clock.now(), entity_id, action, params), entity_id
        )
        return reply["value"]

    def rebind(self, entity_id: str) -> None:
        """Dynamically bind one more entity into the running fleet.

        The bind routes to the owning worker incrementally — no static
        fleet, no restart: the worker's registry version bump resets
        its delta epoch (its cohort plans and key columns are patched),
        and the entity joins the next sweep at the end of global
        registration order (exactly where a single-process late
        ``bind_device`` would put it).  Requires a
        bootstrap that implements
        :meth:`ShardBootstrap.bind_entity`.
        """
        position = self._next_position
        self._next_position += 1
        if not self.sharded:
            self.bootstrap.bind_entity(self.app, entity_id, position)
            return
        self._command(
            "bind", (self.app.clock.now(), entity_id, position), entity_id
        )

    def unbind(self, entity_id: str) -> None:
        """Dynamically unbind an entity, wherever it lives."""
        if not self.sharded:
            self.app.unbind_device(entity_id)
            return
        self._command("unbind", (self.app.clock.now(), entity_id), entity_id)
        self._remotes.pop(entity_id, None)
        if self.app.read_cache is not None:
            self.app.read_cache.invalidate(entity_id)

    def worker_stats(self) -> List[Dict[str, Any]]:
        """Per-shard registry/sweep/supervision snapshots."""
        if not self.sharded:
            return []
        return [reply["value"] for reply in self._command("stats")]

    # -- event replay ---------------------------------------------------

    def _remote(
        self, type_name: str, entity_id: str, attributes
    ) -> _RemoteInstance:
        remote = self._remotes.get(entity_id)
        if remote is None:
            remote = self._remotes[entity_id] = _RemoteInstance(
                self, self.app.design.devices[type_name], entity_id, attributes
            )
        return remote

    def _replay_events(self, events) -> None:
        """Publish worker-recorded device events through the
        coordinator application's own publish path
        (``Application.on_device_publish``: network model, cache
        invalidation, delivery plans), with a routed stand-in in place
        of the local instance."""
        app = self.app
        for type_name, entity_id, attributes, source, value, index in events:
            self.router._events_routed += 1
            app.on_device_publish(
                self._remote(type_name, entity_id, attributes),
                source,
                value,
                index,
            )

    # -- the delegated gather -------------------------------------------

    def _collect_sharded(self, name, interaction, implementation) -> Any:
        """Collect one periodic gather across all shards.

        Replaces ``Application._collect_payload`` via the gather
        delegate: every worker sweeps its shard concurrently, and the
        replies merge back into the exact single-process payload —
        sorted by global registration position for flat and grouped
        gathers (each reply folds into the gather's mirror as it
        arrives, :meth:`_fold`), re-sequenced map emissions with a
        coordinator-side final reduce for MapReduce gathers.
        """
        app = self.app
        index = self._interactions[id(interaction)]
        self._sweeps += 1
        polls = self._command(
            "poll",
            (app.clock.now(), name, index),
            on_reply=functools.partial(self._fold, (name, index)),
        )
        app.sweeper.note_losses(
            sum(reply["dropped"] for reply in polls),
            sum(reply["failed"] for reply in polls),
        )
        placement = app.placement
        if polls[0]["kind"] != "mapreduce":
            return self._delivered(self._mirrors[name, index], placement)
        # MapReduce: rank groups by their first surviving reading
        # across the whole fleet, then let each worker map+combine its
        # slice in that global order.
        ranks = rank_groups(
            first for reply in polls for first in reply["keys"].items()
        )
        maps = self._command("map", (name, index, ranks))
        tagged = [pair for reply in maps for pair in reply["data"]]
        if placement is not None and placement.splits(
            app.design.contexts[name].decl, interaction
        ):
            # One edge node per shard: the worker-side map+combine *is*
            # the edge execution, so the shipped partials are the WAN
            # traffic — sample loss and account bytes per partial.
            placement.note_edge_sweep(len(maps))
            tagged = placement.deliver_partials(tagged)
        pairs = sequence_partials(tagged)
        mapped = sum(reply["mapped"] for reply in maps)
        self._merge_pairs += len(pairs)
        return app.mapreduce.merge_partials(implementation, pairs, mapped)

    def _fold(self, key: Tuple[str, int], shard: int, reply) -> None:
        """Fold one shard's poll reply into the gather's mirror as it
        arrives (a MapReduce poll has none: its values stay in the
        worker until the map round)."""
        kind = reply["kind"]
        if kind == "mapreduce":
            return
        mirror = self._mirrors.get(key)
        if mirror is None:
            mirror = self._mirrors[key] = _Mirror(
                len(self.router), flat=kind == "flat"
            )
        delta_rows, quiescent = mirror.apply(shard, reply)
        self._delta_rows += delta_rows
        self._quiescent_rows += quiescent

    def _delivered(self, mirror: _Mirror, placement) -> Any:
        """The exact single-process payload of a folded mirror, in
        registration order."""
        self._mirror_rebuilds += mirror.dirty
        if not mirror.flat:
            if placement is not None:
                placement.account_cloud(mirror.rows())
            return mirror.payload()
        rows = mirror.rows()
        if placement is not None:
            placement.account_cloud(rows)
        return [
            GatherReading(make_proxy(self._remote(*ident)), value)
            for ident, value in rows
        ]

    def _extra_stats(self) -> Dict[str, Any]:
        return {
            "router": self.router.stats(),
            "quiescent_rows": self._quiescent_rows,
        }
