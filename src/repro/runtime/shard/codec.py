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
from typing import Any, Callable, Dict, List, Sequence, Tuple

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
    packed = [positions[0]]
    prev = positions[0]
    for position in positions[1:]:
        packed.append(position - prev)
        prev = position
    return packed


def _unpack_positions(packed: List[int]) -> List[int]:
    """Inverse of :func:`_pack_positions`."""
    if not packed:
        return packed
    positions = [packed[0]]
    prev = packed[0]
    for gap in packed[1:]:
        prev += gap
        positions.append(prev)
    return positions


def _encode_group_keys(keys: List[Any]) -> Tuple[Any, ...]:
    """Dictionary-encode a group-key column.

    Fleets group a huge position space into a handful of cohorts, so
    the column is almost always ``("t", table, index_bytes)`` — each
    key string pickled once plus one byte per row.  Columns with more
    than 256 distinct (or unhashable) keys fall back to the plain list
    ``("k", keys)``."""
    table: List[Any] = []
    index_of: Dict[Any, int] = {}
    indexes = bytearray()
    try:
        for key in keys:
            index = index_of.get(key)
            if index is None:
                index = index_of[key] = len(table)
                if index > 255:
                    return ("k", keys)
                table.append(key)
            indexes.append(index)
    except TypeError:
        return ("k", keys)
    return ("t", table, bytes(indexes))


def _decode_group_keys(block: Tuple[Any, ...]) -> List[Any]:
    """Inverse of :func:`_encode_group_keys`."""
    if block[0] == "t":
        table = block[1]
        return [table[index] for index in block[2]]
    return block[1]


# ----------------------------------------------------------------------
# Worker side: readings -> blocks
# ----------------------------------------------------------------------


class _DeltaEncoder:
    """Worker-side delta state of one gather: the registry version the
    epoch started at plus the last value shipped per global position.

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

    __slots__ = ("flat", "version", "known")

    def __init__(self, flat: bool):
        self.flat = flat
        self.version: Any = None
        self.known: Dict[int, Any] = {}

    def encode(
        self,
        version: int,
        positions: Sequence[int],
        subjects: Sequence[Any],
        values: Sequence[Any],
        ident_of: Callable[[Any], Any],
    ) -> Dict[str, Any]:
        """One sweep's blocks.

        The sweep's readings come as three aligned columns: ascending
        global ``positions``, the ``subjects`` read and their
        ``values``.  ``ident_of(subject)`` — the group key, or the
        ``(type, entity id, attributes)`` triple of a flat gather — is
        asked only for rows that register, so a steady-state sweep
        never touches identity.  A registry ``version`` other than the
        epoch's starts a new epoch.
        """
        blocks: Dict[str, Any] = {}
        if self.version != version:
            self.version = version
            self.known = {}
            blocks["reset"] = True
        known = self.known
        reg_pos: List[int] = []
        reg_ident: List[Any] = []
        reg_val: List[Any] = []
        changed_pos: List[int] = []
        changed_val: List[Any] = []
        quiescent = 0
        for position, subject, value in zip(positions, subjects, values):
            if position not in known:
                reg_pos.append(position)
                reg_ident.append(ident_of(subject))
                reg_val.append(value)
                known[position] = value
            else:
                prev = known[position]
                if type(prev) is type(value) and prev == value:
                    quiescent += 1
                else:
                    changed_pos.append(position)
                    changed_val.append(value)
                    known[position] = value
        if len(known) != len(values):
            present = set(positions)
            retract = sorted(p for p in known if p not in present)
            for position in retract:
                del known[position]
            blocks["retract"] = _pack_positions(retract)
        if reg_pos:
            if self.flat:
                ident_columns = [list(column) for column in zip(*reg_ident)]
            else:
                ident_columns = [_encode_group_keys(reg_ident)]
            blocks["register"] = (
                _pack_positions(reg_pos),
                *ident_columns,
                reg_val,
            )
        if changed_pos:
            blocks["changed"] = (_pack_positions(changed_pos), changed_val)
        blocks["quiescent"] = quiescent
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

    Two reads: :meth:`payload` for grouped gathers, :meth:`rows` for
    flat ones.  The grouped payload is maintained **incrementally**:
    value changes write through position slots into prebuilt per-group
    columns, and the sort-and-regroup rebuild runs only when the order
    is dirty — steady-state merge cost is O(changed), not O(fleet).
    """

    __slots__ = (
        "flat",
        "ident",
        "values",
        "shard_positions",
        "order",
        "groups",
        "slots",
        "dirty",
    )

    def __init__(self, shards: int, flat: bool):
        self.flat = flat
        self.ident: Dict[int, Any] = {}
        self.values: Dict[int, Any] = {}
        self.shard_positions: List[set] = [set() for __ in range(shards)]
        self.order: List[int] = []
        self.groups: Dict[Any, List[Any]] = {}
        self.slots: Dict[int, Tuple[List[Any], int]] = {}
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
        if reply.get("reset") and mine:
            self._drop(mine)
            mine.clear()
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
            values = self.values
            if self.flat or self.dirty:
                values.update(zip(positions, column))
            else:
                slots = self.slots
                for position, value in zip(positions, column):
                    values[position] = value
                    group_column, offset = slots[position]
                    group_column[offset] = value
        return delta_rows, reply.get("quiescent", 0)

    def _rebuild(self) -> None:
        self.order = sorted(self.ident)
        self.dirty = False
        if self.flat:
            return
        keys = self.ident
        values = self.values
        groups: Dict[Any, List[Any]] = {}
        slots: Dict[int, Tuple[List[Any], int]] = {}
        for position in self.order:
            column = groups.get(keys[position])
            if column is None:
                column = groups[keys[position]] = []
            slots[position] = (column, len(column))
            column.append(values[position])
        self.groups = groups
        self.slots = slots

    def payload(self) -> Dict[Any, List[Any]]:
        """The full grouped payload — fresh per-group lists (so a
        context implementation mutating its payload cannot corrupt the
        mirror), in first-occurrence-by-position key order, exactly as
        ``group_readings`` builds it."""
        if self.dirty:
            self._rebuild()
        return {key: list(column) for key, column in self.groups.items()}

    def rows(self) -> List[Tuple[Any, Any]]:
        """``(identity, value)`` per reading in registration order —
        what a flat gather delivers."""
        if self.dirty:
            self._rebuild()
        ident = self.ident
        values = self.values
        return [(ident[position], values[position]) for position in self.order]
