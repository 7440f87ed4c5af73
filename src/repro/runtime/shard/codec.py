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
from array import array
from bisect import bisect_left
from collections import defaultdict, deque
from itertools import accumulate, chain, compress, count, islice, repeat
from operator import add, eq, getitem, gt, is_, is_not, ne, or_, setitem, sub
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.errors import ShardError
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


def _pack_positions(positions: Sequence[int]) -> List[int]:
    """Gap-encode ascending positions: ``[first, gap, gap, ...]``.

    Worker reading positions are ascending (registry order is bind
    order is ascending coordinator position), so the gaps are small
    ints that pickle in 2 bytes where a million-device fleet's
    absolute positions cost 5.  Packed straight off a list or an
    ``array``; the result is a list either way."""
    if not positions:
        return []
    return [positions[0], *map(sub, islice(positions, 1, None), positions)]


def _unpack_positions(packed: List[int]) -> array:
    """Inverse of :func:`_pack_positions`, as an ``array("q")``: summed
    :data:`_CHUNK` gaps at a time, so only one chunk of positions is
    ever int objects."""
    column = array("q")
    sums = accumulate(packed)
    for __ in range(0, len(packed), _CHUNK):
        column.fromlist(list(islice(sums, _CHUNK)))
    return column


# Rows per bounded step of :func:`_unpack_positions` and, per slice, of
# :func:`_merged_order`.
_CHUNK = 4096


def _merged_order(slices: List[array]) -> array:
    """The rows of ``slices`` (ascending positions each) laid end to
    end, in position order.

    The runs are merged a chunk at a time: the chunks are cut at every
    slice's every :data:`_CHUNK`-th position, so no chunk holds
    more rows of one slice than that, and only one chunk's rows and
    positions are ever int objects."""
    stops = list(accumulate(map(len, slices), initial=0))
    if sum(map(bool, slices)) < 2:
        return array("q", range(stops[-1]))  # one run: already merged
    starts = stops[:-1]
    position_of = array("q")
    for positions in slices:
        position_of += positions
    cuts = sorted(
        chain.from_iterable(positions[_CHUNK::_CHUNK] for positions in slices)
    )
    cuts.append(max(positions[-1] for positions in slices if positions) + 1)
    order = array("q")
    lows = [0] * len(slices)
    for cut in cuts:
        highs = list(map(bisect_left, slices, repeat(cut)))
        runs = map(range, map(add, starts, lows), map(add, starts, highs))
        rows = list(chain.from_iterable(runs))
        rows.sort(key=position_of.__getitem__)
        order.fromlist(rows)
        lows = highs
    return order


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
        exact: Any = None,
    ) -> Dict[str, Any]:
        """One sweep's blocks.

        The sweep's readings come as two aligned columns the encoder
        keeps until the next sweep (do not mutate them): ascending
        global ``positions`` and the list of their ``values``.
        ``ident_columns(rows)`` — the identity columns, as they go on
        the wire, of the rows at those indexes: the key block of a
        grouped gather, the type-name, entity-id and attribute columns
        of a flat one — is asked only for rows that register, so a
        steady-state sweep never touches identity.  A registry
        ``version`` other than the epoch's starts a new epoch.
        ``exact``, when given, is the class every value is exactly —
        what the sweep's ``coerce_column`` proved — and stands in for
        the encoder's own scan of the value types.

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
            # there is nothing to compare or retract.  The columns go
            # as they are: the pipe copies them.
            if values:
                blocks["register"] = (
                    _pack_positions(positions),
                    *ident_columns(range(len(values))),
                    values,
                )
            blocks["quiescent"] = 0
            self.kinds = {exact} if exact else set(map(type, values))
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
        kinds = {exact} if exact else set(map(type, values))
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

    Holds each shard's slice as that shard's :class:`_DeltaEncoder`
    last shipped it: three aligned columns — ascending global
    positions (an ``array("q")``, as is the merged ``order``),
    identities (opaque here: the group key of a grouped
    gather, the ``(type, entity id, attributes)`` triple of a ``flat``
    one) and values.  Registration churn (register / retract / reset)
    dirties the merged position ``order``; a quiescent sweep reuses it.

    Each reply is folded in as it arrives, once (the coordinator hands
    :meth:`apply` to :meth:`~repro.runtime.shard.coordinator.
    ShardRouter.broadcast` as its per-reply hook): every shard slice
    then holds what that shard's encoder shipped, whether or not
    another shard's poll failed, and a shard's fold overlaps the
    slower shards' polls.

    Two reads: :meth:`payload` for grouped gathers, :meth:`rows` for
    flat ones.  The grouped payload is maintained **incrementally**:
    the groups are spans of one ``cells`` column, a value change
    stores into its row and, while the order is clean, writes through
    that row's cell, and the sort-and-regroup rebuild runs only when
    the order is dirty — steady-state merge cost is O(changed), not
    O(fleet).
    """

    __slots__ = (
        "flat",
        "positions",
        "idents",
        "values",
        "row_at",
        "indexed",
        "order",
        "cells",
        "spans",
        "cell_of",
        "dirty",
    )

    def __init__(self, shards: int, flat: bool):
        self.flat = flat
        self.positions: List[array] = [array("q") for __ in range(shards)]
        self.idents: List[List[Any]] = [[] for __ in range(shards)]
        self.values: List[List[Any]] = [[] for __ in range(shards)]
        # Global position -> its row in its shard's slice, written for
        # a slice by the first value change it sees (:meth:`_locate`).
        self.row_at = array("q")
        self.indexed = [False] * shards
        # The slices' rows laid end to end, in position order; the
        # grouped values in payload order and each group's span of them.
        self.order = array("q")
        self.cells: List[Any] = []
        self.spans: Dict[Any, Tuple[int, int]] = {}
        # Per shard, row -> its cell; built by the first value change
        # an order sees (:meth:`_write_through`).
        self.cell_of: List[array] = []
        self.dirty = False

    def apply(self, shard: int, reply: Dict[str, Any]) -> Tuple[int, int]:
        """Fold one shard's delta blocks in; returns ``(delta_rows,
        quiescent_rows)`` — rows that crossed the pipe (registered +
        changed + retracted) and rows that didn't.

        Every block is checked before anything is stored: misaligned
        columns, a position registered twice, or a ``changed`` /
        ``retract`` row that names no row of the shard's slice raise
        :class:`~repro.errors.ShardError` and leave the mirror as it
        was.  The mirror keeps the reply's columns."""
        try:
            columns, rows, column, delta_rows = self._checked(shard, reply)
        except (TypeError, ValueError, IndexError) as exc:
            raise ShardError(f"malformed delta block: {exc}", shard) from None
        if columns[0] is not self.positions[shard]:
            self.positions[shard], self.idents[shard], self.values[shard] = (
                columns
            )
            self.indexed[shard] = False
            self.dirty = True
        if rows:
            deque(map(setitem, repeat(columns[2]), rows, column), maxlen=0)
            if not (self.flat or self.dirty):
                self._write_through(shard, rows, column)
        return delta_rows, reply.get("quiescent", 0)

    def _checked(self, shard: int, reply: Dict[str, Any]):
        """What :meth:`apply` stores, and stores nothing: the slice's
        columns after the reset, retract and register blocks, the rows
        and values of the ``changed`` block, and the delta row count."""
        columns = self.positions[shard], self.idents[shard], self.values[shard]
        if reply.get("reset") and columns[0]:
            columns = array("q"), [], []
        delta_rows = 0
        if reply.get("retract"):
            rows = self._locate(shard, columns[0], reply["retract"])
            keep = [True] * len(columns[0])
            deque(map(setitem, repeat(keep), rows, repeat(False)), maxlen=0)
            columns = (
                array("q", compress(columns[0], keep)),
                *(list(compress(column, keep)) for column in columns[1:]),
            )
            delta_rows += len(rows)
        if reply.get("register"):
            packed, *ident_columns, values = reply["register"]
            positions = _unpack_positions(packed)
            if self.flat:
                lengths = set(map(len, ident_columns))
                idents = list(zip(*ident_columns))
            else:
                (keys,) = ident_columns
                idents = _decode_group_keys(keys)
                lengths = {len(idents)}
            if lengths != {len(positions)} or len(values) != len(positions):
                raise ShardError("register columns do not align", shard)
            if type(values) is not list:  # changes store into it
                raise ShardError("register values are not a list", shard)
            delta_rows += len(positions)
            fresh = positions, idents, values
            if columns[0]:
                # A lossy sweep's rows come back: splice the slice.
                columns = _by_position(shard, *map(add, columns, fresh))
            elif min(islice(packed, 1, None), default=1) > 0:
                columns = fresh
            else:
                # A worker bound someone at a freed, lower position.
                columns = _by_position(shard, *fresh)
        rows, column = [], []
        if reply.get("changed"):
            packed, column = reply["changed"]
            rows = self._locate(shard, columns[0], packed)
            if len(column) != len(rows):
                raise ShardError("changed columns do not align", shard)
            delta_rows += len(rows)
        return columns, rows, column, delta_rows

    def _locate(self, shard: int, positions: List[int], packed) -> List[int]:
        """The rows of ``positions`` holding the packed positions; one
        they do not hold is malformed.  The shard's stored slice is
        looked up in ``row_at``, a slice this reply spliced bisected."""
        wanted = _unpack_positions(packed)
        if positions is not self.positions[shard]:
            rows = list(map(bisect_left, repeat(positions), wanted))
        else:
            if not self.indexed[shard]:
                row_at = self.row_at
                row_at.extend(repeat(0, positions[-1] + 1 - len(row_at)))
                deque(map(setitem, repeat(row_at), positions, count()), 0)
                self.indexed[shard] = True
            rows = list(map(getitem, repeat(self.row_at), wanted))
        # A row past the slice raises IndexError: malformed too.
        if array("q", map(positions.__getitem__, rows)) != wanted:
            raise ShardError("a delta row names no row of the slice", shard)
        return rows

    def _write_through(self, shard: int, rows, column) -> None:
        """Carry value changes into the cells of a clean order."""
        if not self.cell_of:
            # Walking the order, each row takes the next cell of its
            # group's span.
            idents = list(chain.from_iterable(self.idents))
            spans = self.spans.items()
            nexts = {key: count(start) for key, (start, __) in spans}
            keys = map(idents.__getitem__, self.order)
            cells = map(next, map(nexts.__getitem__, keys))
            cell_of = array("q", bytes(8 * len(idents)))
            deque(map(setitem, repeat(cell_of), self.order, cells), maxlen=0)
            del idents
            stops = list(accumulate(map(len, self.positions), initial=0))
            slices = map(slice, stops, islice(stops, 1, None))
            # Views of the one index, not copies.
            self.cell_of = list(map(memoryview(cell_of).__getitem__, slices))
        cells = map(getitem, repeat(self.cell_of[shard]), rows)
        deque(map(setitem, repeat(self.cells), cells, column), maxlen=0)

    def _rebuild(self) -> None:
        order = self.order = _merged_order(self.positions)
        self.cell_of = []
        self.dirty = False
        if self.flat:
            return
        self.cells = []  # dropped before the new one is built
        idents = list(chain.from_iterable(self.idents))
        values = list(chain.from_iterable(self.values))
        # Keys in the order of their first position.
        groups: Dict[Any, List[Any]] = defaultdict(list)
        keys = map(idents.__getitem__, order)
        extend_each(keys, groups, map(values.__getitem__, order))
        del idents, values
        self.cells = list(chain.from_iterable(groups.values()))
        stops = list(accumulate(map(len, groups.values()), initial=0))
        self.spans = dict(zip(groups, zip(stops, islice(stops, 1, None))))

    def payload(self) -> Dict[Any, List[Any]]:
        """The full grouped payload — fresh per-group lists (so a
        context implementation mutating its payload cannot corrupt the
        mirror), in first-occurrence-by-position key order: what an
        in-process application's ``group_readings`` builds from the
        group table of its sweep cut's key columns."""
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
        rows = list(
            zip(
                chain.from_iterable(self.idents),
                chain.from_iterable(self.values),
            )
        )
        return list(map(rows.__getitem__, self.order))


def _by_position(shard: int, positions, *columns) -> List[Any]:
    """Aligned columns sorted by position; a position twice is
    malformed."""
    order = sorted(range(len(positions)), key=positions.__getitem__)
    positions = array("q", map(positions.__getitem__, order))
    if any(map(eq, positions, islice(positions, 1, None))):
        raise ShardError("a position registered twice", shard)
    return [positions, *(list(map(c.__getitem__, order)) for c in columns)]
