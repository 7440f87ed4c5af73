"""Both ends of the shard wire format.

Everything that knows what crosses a worker pipe lives here, so the
block format can be round-tripped (and property-tested) without
spawning a process:

* the transport — one explicitly pickled byte string per message
  (:func:`_wire_send` / :func:`_wire_recv`), which is what lets the
  router meter the wire;
* the column encodings — gap-coded positions and the dictionary-coded
  group-key column;
* the worker-side :class:`_DeltaEncoder`, which turns one sweep's
  reading columns into ``register`` / ``changed`` / ``retract`` blocks
  plus a ``quiescent`` count;
* the coordinator-side :class:`_Mirror`, which folds those blocks back
  into the exact single-process payload in global registration order.
"""

from __future__ import annotations

import pickle
from collections import deque
from itertools import accumulate, chain, compress, count, islice, repeat
from operator import gt, is_, is_not, ne, or_, sub
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.mapreduce.partition import extend_each

# ----------------------------------------------------------------------
# Transport
# ----------------------------------------------------------------------
#
# Every pipe message — commands, replies, the ready handshake — is one
# explicitly pickled byte string sent with ``send_bytes``.  Doing the
# pickling by hand (instead of ``Connection.send``) is what lets the
# coordinator meter the wire: the router counts the bytes of every
# command it sends and every reply it receives into
# ``shard_wire_bytes_total``, which is the quantity the delta protocol
# exists to shrink and the fleet-scale benchmark gates on.

_PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL


def _wire_send(conn, obj: Any) -> int:
    """Pickle ``obj`` onto the pipe; returns the byte count."""
    data = pickle.dumps(obj, _PICKLE_PROTOCOL)
    conn.send_bytes(data)
    return len(data)


def _wire_recv(conn) -> Tuple[Any, int]:
    """Receive one pickled message; returns ``(object, byte_count)``."""
    data = conn.recv_bytes()
    return pickle.loads(data), len(data)


def _pack_positions(positions: List[int]) -> List[int]:
    """Gap-encode an ascending position list: ``[first, gap, gap, ...]``.

    Worker reading positions are ascending (registry order is bind
    order is ascending coordinator position), so the gaps are small
    ints that pickle in 2 bytes where a million-device fleet's
    absolute positions cost 5."""
    if not positions:
        return positions
    return [positions[0], *map(sub, islice(positions, 1, None), positions)]


def _unpack_positions(packed: List[int]) -> List[int]:
    """Inverse of :func:`_pack_positions`."""
    return list(accumulate(packed))


def _encode_group_keys(keys: List[Any]) -> Tuple[Any, ...]:
    """Dictionary-encode a group-key column.

    Fleets group a huge position space into a handful of cohorts, so
    the column is almost always ``("t", table, index_bytes)`` — each
    key string pickled once plus one byte per row.  Columns with more
    than 256 distinct (or unhashable) keys fall back to the plain list
    ``("k", keys)``."""
    try:
        table = list(dict.fromkeys(keys))
    except TypeError:
        return ("k", keys)
    if len(table) > 256:
        return ("k", keys)
    index_of = dict(zip(table, count()))
    return ("t", table, bytes(map(index_of.__getitem__, keys)))


def _decode_group_keys(block: Tuple[Any, ...]) -> List[Any]:
    """Inverse of :func:`_encode_group_keys`."""
    if block[0] == "t":
        return list(map(block[1].__getitem__, block[2]))
    return block[1]


# ----------------------------------------------------------------------
# Worker side: readings -> blocks
# ----------------------------------------------------------------------


_UNSEEN = object()


class _DeltaEncoder:
    """Worker-side delta state of one gather: the registry version the
    epoch started at plus the position and value columns of the last
    sweep — what the coordinator's mirror holds for this shard.

    Blocks (all optional, all columnar, positions always gap-encoded
    via :func:`_pack_positions`):

    * ``register`` — rows never shipped this epoch, identity and first
      value together: ``(packed_positions, key_block, values)`` for
      grouped gathers (``key_block`` per :func:`_encode_group_keys`),
      ``(packed_positions, type_names, entity_ids, attribute_dicts,
      values)`` for flat ones.
    * ``changed`` — ``(packed_positions, values)`` for
      previously-registered readings that moved.  "Changed" is
      ``type(prev) is not type(value) or prev != value`` — NaN
      therefore always re-ships (never stale), at worst a handful of
      false re-sends.
    * ``retract`` — packed positions shipped earlier this epoch that
      have no reading this sweep (unbound, sampler-dropped, read-failed
      past the stale window); the coordinator drops them from its
      mirror.
    * ``quiescent`` — count of readings identical to the last shipped
      value; they cross the pipe as this single integer.
    * ``reset`` — set when the shard's registry version moved (or the
      epoch is new): the coordinator must clear this shard's slice of
      the mirror before applying the blocks.
    """

    __slots__ = ("version", "positions", "values", "kinds")

    def __init__(self):
        self.version: Any = None
        self.positions: Sequence[int] = ()
        self.values: Sequence[Any] = ()
        self.kinds: set = set()  # the types in ``values``

    def encode(
        self,
        version: int,
        positions: Sequence[int],
        values: Sequence[Any],
        ident_columns: Callable[[Sequence[int]], Sequence[Any]],
    ) -> Dict[str, Any]:
        """One sweep's blocks.

        The sweep's readings come as two aligned columns the encoder
        keeps until the next sweep (do not mutate them): ascending
        global ``positions`` and their ``values``.
        ``ident_columns(rows)`` — the identity columns, as they go on
        the wire, of the rows at those indexes: the key block of a
        grouped gather, the type-name, entity-id and attribute columns
        of a flat one — is asked only for rows that register, so a
        steady-state sweep never touches identity.  A registry
        ``version`` other than the epoch's starts a new epoch.

        Nothing here takes a step per reading: a sweep after one that
        shipped nothing this epoch (a new epoch, or every row lost)
        registers its whole columns; a sweep over the very
        ``positions`` list of the last one compares the two value
        columns; any other looks the last values up by position.
        """
        blocks: Dict[str, Any] = {}
        if self.version != version:
            self.version = version
            self.positions = self.values = ()
            self.kinds = set()
            blocks["reset"] = True
        if not self.positions:
            # Nothing shipped this epoch: every row registers, and
            # there is nothing to compare or retract.
            if values:
                blocks["register"] = (
                    _pack_positions(list(positions)),
                    *ident_columns(range(len(values))),
                    list(values),
                )
            blocks["quiescent"] = 0
            self.kinds = set(map(type, values))
            self.positions = positions
            self.values = values
            return blocks
        fresh = None
        if positions is self.positions:
            was = self.values
        else:
            known = dict(zip(self.positions, self.values))
            was = list(map(known.get, positions, repeat(_UNSEEN)))
            fresh = list(map(is_, was, repeat(_UNSEEN)))
            retract = sorted(known.keys() - set(positions))
            if retract:
                blocks["retract"] = _pack_positions(retract)
        # Unseen rows differ from any value, so they count as moved.
        moved = map(ne, was, values)
        kinds = set(map(type, values))
        if len(kinds) > 1 or kinds != self.kinds:
            # Equal across types (1, 1.0, True) is still a change.
            retyped = map(is_not, map(type, was), map(type, values))
            moved = map(or_, moved, retyped)
        changed = moved
        registered = 0
        if fresh is not None:
            rows = list(compress(count(), fresh))
            if rows:
                blocks["register"] = (
                    _pack_positions(list(map(positions.__getitem__, rows))),
                    *ident_columns(rows),
                    list(map(values.__getitem__, rows)),
                )
                changed = map(gt, moved, fresh)
                registered = len(rows)
        rows = list(compress(count(), changed))
        if rows:
            blocks["changed"] = (
                _pack_positions(list(map(positions.__getitem__, rows))),
                list(map(values.__getitem__, rows)),
            )
        blocks["quiescent"] = len(values) - len(rows) - registered
        self.kinds = kinds
        self.positions = positions
        self.values = values
        return blocks


# ----------------------------------------------------------------------
# Coordinator side: blocks -> payload
# ----------------------------------------------------------------------


class _Mirror:
    """Coordinator-side registration-order mirror of one gather's
    delta stream.

    Holds the last applied ``position → identity`` and ``position →
    value`` maps (positions are globally unique, so one merged map
    serves all shards; per-shard position sets exist only so a shard
    ``reset`` can clear exactly its slice).  Identity is opaque here —
    whatever the :class:`_DeltaEncoder` registered: the group key of a
    grouped gather, the ``(type, entity id, attributes)`` triple of a
    ``flat`` one.  Registration churn (register/retract/reset) dirties
    the cached position order; a quiescent sweep reuses it.

    Each reply is folded in as it arrives, once (the coordinator hands
    :meth:`apply` to :meth:`~repro.runtime.shard.coordinator.
    ShardRouter.broadcast` as its per-reply hook): every shard slice
    then holds what that shard's encoder shipped, whether or not
    another shard's poll failed, and a shard's fold overlaps the
    slower shards' polls.

    Two reads: :meth:`payload` for grouped gathers, :meth:`rows` for
    flat ones.  The grouped payload is maintained **incrementally**:
    the groups are spans of one ``cells`` column, a value change
    writes through its position's slot in it (one probe per changed
    row), and the sort-and-regroup rebuild runs only when the order is
    dirty — steady-state merge cost is O(changed), not O(fleet).
    """

    __slots__ = (
        "flat",
        "ident",
        "values",
        "shard_positions",
        "order",
        "cells",
        "spans",
        "slots",
        "dirty",
    )

    def __init__(self, shards: int, flat: bool):
        self.flat = flat
        self.ident: Dict[int, Any] = {}
        self.values: Dict[int, Any] = {}
        self.shard_positions: List[set] = [set() for __ in range(shards)]
        self.order: List[int] = []
        # The grouped values, group after group, and each group's
        # ``(start, stop)`` span of them, in payload key order.
        self.cells: List[Any] = []
        self.spans: Dict[Any, Tuple[int, int]] = {}
        # position -> its cell; built by the first value change an
        # order sees (:meth:`_write_through`).
        self.slots: Dict[int, int] = {}
        self.dirty = False

    def _drop(self, positions) -> None:
        for position in positions:
            self.ident.pop(position, None)
            self.values.pop(position, None)
        self.dirty = True

    def apply(self, shard: int, reply: Dict[str, Any]) -> Tuple[int, int]:
        """Fold one shard's delta blocks in; returns ``(delta_rows,
        quiescent_rows)`` — rows that crossed the pipe (registered +
        changed + retracted) and rows that didn't."""
        delta_rows = 0
        mine = self.shard_positions[shard]
        stale: set = set()
        if reply.get("reset"):
            stale, mine = mine, set()
            self.shard_positions[shard] = mine
        register = reply.get("register")
        if register:
            packed, *ident_columns, column = register
            positions = _unpack_positions(packed)
            if self.flat:
                idents = zip(*ident_columns)
            else:
                idents = _decode_group_keys(ident_columns[0])
            mine.update(positions)
            self.ident.update(zip(positions, idents))
            self.values.update(zip(positions, column))
            delta_rows += len(positions)
            self.dirty = True
        # Of a reset slice, only what did not register again goes.
        stale -= mine
        if stale:
            self._drop(stale)
        retract = reply.get("retract")
        if retract:
            retract = _unpack_positions(retract)
            mine.difference_update(retract)
            self._drop(retract)
            delta_rows += len(retract)
        changed = reply.get("changed")
        if changed:
            packed, column = changed
            positions = _unpack_positions(packed)
            delta_rows += len(positions)
            self.values.update(zip(positions, column))
            if not (self.flat or self.dirty):
                self._write_through(positions, column)
        return delta_rows, reply.get("quiescent", 0)

    def _write_through(self, positions, column) -> None:
        """Carry value changes into the cells of a clean order."""
        slots = self.slots
        if not slots:
            members: Dict[Any, List[int]] = {key: [] for key in self.spans}
            keys = map(self.ident.__getitem__, self.order)
            extend_each(keys, members, self.order)
            slots.update(zip(chain.from_iterable(members.values()), count()))
        cells = map(slots.__getitem__, positions)
        deque(map(self.cells.__setitem__, cells, column), maxlen=0)

    def _rebuild(self) -> None:
        self.order = sorted(self.ident)
        self.dirty = False
        if self.flat:
            return
        keys = list(map(self.ident.__getitem__, self.order))
        groups: Dict[Any, List[Any]] = {key: [] for key in dict.fromkeys(keys)}
        extend_each(keys, groups, map(self.values.__getitem__, self.order))
        self.cells = list(chain.from_iterable(groups.values()))
        stops = list(accumulate(map(len, groups.values()), initial=0))
        self.spans = dict(zip(groups, zip(stops, islice(stops, 1, None))))
        self.slots = {}

    def payload(self) -> Dict[Any, List[Any]]:
        """The full grouped payload — fresh per-group lists (so a
        context implementation mutating its payload cannot corrupt the
        mirror), in first-occurrence-by-position key order: what an
        in-process application's ``group_readings`` builds from the
        group table of its key-column memo."""
        if self.dirty:
            self._rebuild()
        cells = self.cells
        return {
            key: cells[start:stop] for key, (start, stop) in self.spans.items()
        }

    def rows(self) -> List[Tuple[Any, Any]]:
        """``(identity, value)`` per reading in registration order —
        what a flat gather delivers."""
        if self.dirty:
            self._rebuild()
        return list(
            zip(
                map(self.ident.__getitem__, self.order),
                map(self.values.__getitem__, self.order),
            )
        )
