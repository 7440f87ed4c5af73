"""What a bound device, a mirrored reading, a proxy and an attribute
record hold, measured with ``tracemalloc``.

The footprint tests assert bounds on these numbers; the module also
runs as a plain script, so the same measurement can be taken under
every interpreter the project supports (no pytest needed)::

    PYTHONPATH=src:. python tests/runtime/footprint.py
"""

import gc
import pickle
import sys
import tracemalloc

from benchmarks.e2e.fleet import FleetBootstrap
from repro.api import ShardContext, analyze
from repro.runtime.device import SHARED_RECORDS, DeviceDriver, DeviceInstance
from repro.runtime.proxies import DeviceProxy
from repro.runtime.shard.codec import (
    _Mirror,
    _encode_group_keys,
    _pack_positions,
)
from repro.runtime.shard.worker import _ShardWorker

_PANEL = """
    device Panel {
        attribute location as String;
        attribute floor as Integer;
        source presence as Boolean;
        source level as Integer;
        action update(status as String);
        action reset(force as Boolean);
    }
"""


def _held(build):
    """Bytes ``build()``'s result holds once built."""
    gc.collect()
    tracemalloc.start()
    try:
        kept = build()
        gc.collect()
        return tracemalloc.get_traced_memory()[0], kept
    finally:
        tracemalloc.stop()


def worker_bytes_per_device(small=10_000, large=40_000):
    """Bytes per bound device of shard 0 of a two-shard fleet worker
    build — driver and id string included — as the slope between two
    fleet sizes, so the per-process fixed cost drops out."""

    def held(count):
        def build():
            return _ShardWorker(
                FleetBootstrap(count=count, seed=41, workers=2),
                ShardContext(shards=2, index=0),
            )

        size, worker = _held(build)
        return size, len(worker.app.registry)

    (low, low_devices), (high, high_devices) = held(small), held(large)
    return (high - low) / (high_devices - low_devices)


def _over_the_wire(obj):
    return pickle.loads(pickle.dumps(obj, pickle.HIGHEST_PROTOCOL))


def mirror_bytes_per_reading(count=100_000):
    """Bytes per reading of a grouped coordinator mirror over two
    shards, after one register and one steady ``changed`` fold, every
    block unpickled under tracing."""

    def build():
        mirror = _Mirror(2, flat=False)
        for shard in range(2):
            positions = list(range(shard, count, 2))
            block = (
                _pack_positions(positions),
                _encode_group_keys([f"Z{p % 8}" for p in positions]),
                [p % 101 for p in positions],
            )
            reply = {"reset": True, "register": block}
            mirror.apply(shard, _over_the_wire(reply))
        mirror.payload()
        for shard in range(2):
            moved = list(range(shard, count, 100))
            block = (_pack_positions(moved), [7] * len(moved))
            mirror.apply(shard, _over_the_wire({"changed": block}))
        mirror.payload()
        return mirror

    return _held(build)[0] / count


def _panels(count, location):
    """``count`` panels of a declaration no other call binds to."""
    info = analyze(_PANEL).devices["Panel"]
    return [
        DeviceInstance(
            info,
            f"panel-{index}",
            DeviceDriver(),
            {"location": location(index), "floor": 1},
        )
        for index in range(count)
    ]


def proxy_bytes(count=2_000):
    """Bytes per :class:`DeviceProxy` over ``count`` instances of one
    declaration (the list holding them included)."""
    panels = _panels(count, lambda index: "A22")
    return _held(lambda: list(map(DeviceProxy, panels)))[0] / count


def unique_record_bytes(small=2 * SHARED_RECORDS, large=4 * SHARED_RECORDS):
    """Bytes per attribute record once a declaration's records are all
    distinct past :data:`SHARED_RECORDS`, next to a plain dict of the
    same values: the slopes between two counts, with the instances'
    own bytes (measured over equal records) taken out."""

    def slope(make):
        low, high = (_held(lambda: make(count))[0] for count in (small, large))
        return (high - low) / (large - small)

    shells = slope(lambda count: _panels(count, lambda index: "same"))
    unique = slope(lambda count: _panels(count, lambda i: f"L{i:05d}"))
    plain = slope(
        lambda count: [
            {"location": f"L{i:05d}", "floor": 1} for i in range(count)
        ]
    )
    return unique - shells, plain


if __name__ == "__main__":
    print(sys.version.split()[0])
    print(f"worker bytes per bound device {worker_bytes_per_device():.1f}")
    print(f"mirror bytes per reading      {mirror_bytes_per_reading():.1f}")
    print(f"bytes per proxy               {proxy_bytes():.1f}")
    record, plain = unique_record_bytes()
    print(f"unique record bytes           {record:.1f} (dict {plain:.1f})")
