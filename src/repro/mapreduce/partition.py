"""Partitioning helpers for the MapReduce engine.

Partitioning is what lets the map side run in parallel: a sharded
runtime's worker processes each map their own shard of the fleet.  A
stable string-based hash routes entities to those shards
(:func:`shard_index`) reproducibly across Python processes (the
built-in ``hash`` is randomized for strings).  The shuffle groups the
map sides' pairs by key (:func:`group_pairs`).
"""

from __future__ import annotations

import zlib
from collections import deque
from collections.abc import Iterable, Iterator
from itertools import repeat
from operator import itemgetter, mod
from typing import Any, Dict, Hashable, List, Sequence, Tuple


def stable_hash(key: Hashable) -> int:
    """Deterministic non-negative hash, stable across interpreter runs."""
    return zlib.crc32(repr(key).encode("utf-8"))


def shard_index(key: Hashable, shards: int) -> int:
    """Deterministic shard assignment for ``key`` among ``shards`` buckets.

    A stable crc32 hash routes entities to runtime shards, so a fleet
    partitions identically across interpreter runs *and* across the
    processes of a sharded runtime (``repro.runtime.shard``), which is
    what makes the coordinator's registry-order merge deterministic.
    """
    if shards <= 0:
        raise ValueError("shards must be >= 1")
    return stable_hash(key) % shards


def shard_indexes(keys: Iterable[Hashable], shards: int) -> Iterator[int]:
    """:func:`shard_index` of each of ``keys``, lazily, with one Python
    frame per key (:func:`stable_hash`)."""
    if shards <= 0:
        raise ValueError("shards must be >= 1")
    return map(mod, map(stable_hash, keys), repeat(shards))


def extend_each(keys, columns: Dict[Any, List[Any]], items) -> None:
    """Append each of ``items`` to the column of its key — a group-by
    with no step per row (``list.append`` mapped over two columns)."""
    deque(map(list.append, map(columns.__getitem__, keys), items), maxlen=0)


def group_pairs(
    pairs: Sequence[Tuple[Hashable, Any]]
) -> Dict[Hashable, List[Any]]:
    """Group intermediate pairs by key, preserving emission order."""
    keys = list(map(itemgetter(0), pairs))
    grouped: Dict[Hashable, List[Any]] = {
        key: [] for key in dict.fromkeys(keys)
    }
    extend_each(keys, grouped, map(itemgetter(1), pairs))
    return grouped
